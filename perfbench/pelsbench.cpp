// Benchmark program: runs one workload of the PELS simulator on one worker
// thread and prints one JSON document (the last line of stdout) holding the
// raw per-scenario timings and observations. run.py turns them into metrics
// and checks them against closed forms computed apart from the program.
//
// Workloads (see README.md for why each exists):
//   dumbbell    the paper's Fig. 6 dumbbell, 8 PELS + 2 TCP flows at 40 mb/s,
//               telemetry on, one long run per scenario;
//   population  ManyFlowDriver over a domain_per_pod fat tree, run through a
//               DomainRunner with one worker;
//   campaign    rounds of 200 ChaosPlanGenerator schedules, each a short
//               monitored dumbbell, through a SweepRunner with one worker.
//
// Usage: pelsbench --workload W --seed N [--seconds S] [--trace 0|1]
//                  [--trace-file PATH] [--scenarios K] [--workers T]
//   --trace 0   timed mode: whole scenarios until S host seconds have passed.
//   --trace 1   a fixed set of scenarios, each run untraced and with
//               spans recorded around calls into every layer; prints the
//               per-layer metrics and writes the spans to --trace-file.
//   --scenarios K runs exactly K scenarios (used with --workers 2 for the
//               population determinism check).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sched.h>

#include "exp/domain_runner.h"
#include "exp/fabric.h"
#include "exp/sweep.h"
#include "fault/chaos.h"
#include "pels/scenario.h"
#include "sim/invariants.h"

using namespace pels;

namespace {

using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double seconds_since(Clock::time_point t0) { return ns_between(t0, Clock::now()) * 1e-9; }

// ------------------------------------------------------------------ JSON out

/// Minimal streaming JSON writer: objects, arrays, numbers and strings.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) { os_ << std::setprecision(17); }

  JsonWriter& begin_object(const char* key = nullptr) { return open(key, '{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array(const char* key = nullptr) { return open(key, '['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& kv(const char* key, double v) { return prefix(key).number(v); }
  JsonWriter& kv(const char* key, std::uint64_t v) { prefix(key).os_ << v; return *this; }
  JsonWriter& kv(const char* key, int v) { prefix(key).os_ << v; return *this; }
  JsonWriter& kv(const char* key, const std::string& v) { prefix(key).string(v); return *this; }
  JsonWriter& value(double v) { return prefix(nullptr).number(v); }
  JsonWriter& value(std::uint64_t v) { prefix(nullptr).os_ << v; return *this; }
  JsonWriter& value(int v) { prefix(nullptr).os_ << v; return *this; }

 private:
  JsonWriter& prefix(const char* key) {
    if (!first_.empty()) {
      if (!first_.back()) os_ << ',';
      first_.back() = false;
    }
    if (key != nullptr) {
      string(key);
      os_ << ':';
    }
    return *this;
  }
  JsonWriter& open(const char* key, char c) {
    prefix(key).os_ << c;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& close(char c) {
    first_.pop_back();
    os_ << c;
    return *this;
  }
  JsonWriter& number(double v) {
    if (std::isfinite(v)) {
      os_ << v;
    } else {
      os_ << "null";  // run.py's checks treat a non-finite value as a failure
    }
    return *this;
  }
  void string(const std::string& s) {
    os_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        os_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        os_ << ' ';
      } else {
        os_ << c;
      }
    }
    os_ << '"';
  }

  std::ostream& os_;
  std::vector<bool> first_;
};

// ------------------------------------------------------------------ tracing

/// In-memory span store. A span has a name, start and end (ns since the
/// tracer was made), a parent span and a scenario id. Per-packet calls are
/// not one span each: they are tallied, and each run slice gets one child
/// span per tallied call site carrying the call count and total ns.
class Tracer {
 public:
  struct Span {
    std::string name;
    int scenario = 0;
    int parent = -1;
    double start_ns = 0;
    double end_ns = 0;
    std::uint64_t calls = 0;  // > 0 only for aggregated per-packet spans
    double call_ns = 0;
  };

  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  bool on() const { return on_; }

  int begin(const std::string& name, int scenario, int parent) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.scenario = scenario;
    s.parent = parent;
    s.start_ns = ns_between(epoch_, Clock::now());
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }

  void end(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = ns_between(epoch_, Clock::now());
  }

  void aggregate(const std::string& name, int parent, std::uint64_t calls, double call_ns) {
    if (!on_ || parent < 0 || calls == 0) return;
    const Span& p = spans_[static_cast<std::size_t>(parent)];
    Span s;
    s.name = name;
    s.scenario = p.scenario;
    s.parent = parent;
    s.start_ns = p.start_ns;
    s.end_ns = p.end_ns;
    s.calls = calls;
    s.call_ns = call_ns;
    spans_.push_back(std::move(s));
  }

  /// Sum of durations (or of call ns, for aggregated spans) over spans named
  /// `name`, and how many there were (or how many calls).
  std::pair<double, std::uint64_t> total(const std::string& name) const {
    double ns = 0;
    std::uint64_t n = 0;
    for (const Span& s : spans_) {
      if (s.name != name) continue;
      if (s.calls > 0) {
        ns += s.call_ns;
        n += s.calls;
      } else {
        ns += s.end_ns - s.start_ns;
        ++n;
      }
    }
    return {ns, n};
  }

  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    JsonWriter w(out);
    w.begin_array();
    for (const Span& s : spans_) {
      w.begin_object()
          .kv("name", s.name)
          .kv("scenario", s.scenario)
          .kv("parent", s.parent)
          .kv("start_ns", s.start_ns)
          .kv("end_ns", s.end_ns);
      if (s.calls > 0) w.kv("calls", s.calls).kv("call_ns", s.call_ns);
      w.end_object();
    }
    w.end_array();
    out << "\n";
  }

 private:
  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Call count and host ns of one agent call site within the current slice.
struct CallTally {
  std::uint64_t calls = 0;
  double ns = 0;
};

/// Registered on a host in place of an agent; times each on_packet call.
class TimedAgent final : public Agent {
 public:
  TimedAgent(Agent& inner, CallTally& tally) : inner_(&inner), tally_(&tally) {}

  void on_packet(const Packet& pkt) override {
    const auto t0 = Clock::now();
    inner_->on_packet(pkt);
    tally_->ns += ns_between(t0, Clock::now());
    ++tally_->calls;
  }

 private:
  Agent* inner_;
  CallTally* tally_;
};

/// Flushes a tally into an aggregated child span of `parent` and resets it.
void flush_tally(Tracer& tracer, const char* name, int parent, CallTally& tally) {
  tracer.aggregate(name, parent, tally.calls, tally.ns);
  tally = CallTally{};
}

std::size_t pool_capacity(const Scheduler& s) {
  const Scheduler::Stats st = s.stats();
  return st.heap_capacity + st.slot_capacity + st.wheel_capacity + st.run_capacity;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

/// Confines the process, and the runner threads it starts later, to the CPU
/// it is on. A one-worker DomainRunner hands every window (~10^4 per
/// population scenario) between its coordinating thread and its worker; on
/// one CPU that is a local context switch instead of a cross-CPU wake-up,
/// whose cost on a virtual machine depends on the host's load.
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

std::uint64_t scenario_seed(std::uint64_t seed, int index) {
  return seed * 1000003ULL + static_cast<std::uint64_t>(index) + 1;
}

/// Counters summed over a run phase; the traced run's per-layer metrics.
struct LayerCounts {
  double delivered = 0;
  double run_ns = 0;
  double events = 0;
  double cancels = 0;
  double cascades = 0;
  double pool_growth = 0;
  double monitor_ticks = 0;
  double link_events = 0;
  double link_delivered = 0;
  double queue_arrivals = 0;
  double drops[3] = {0, 0, 0};
  double control_ticks = 0;
  double bytes_per_flow = 0;
  double frames_decoded = 0;
  double windows = 0;
  double handoffs = 0;
  double sweep_gap_ns = 0;
  double fault_events = 0;
  double telemetry_samples = 0;
  int scenarios = 0;
};

void add_scheduler_delta(LayerCounts& c, const Scheduler::Stats& a, const Scheduler::Stats& b) {
  c.events += static_cast<double>(b.executed - a.executed);
  c.cancels += static_cast<double>((b.cancelled - a.cancelled) + (b.stale_skipped - a.stale_skipped));
  c.cascades += static_cast<double>(b.cascades - a.cascades);
}

void add_links(LayerCounts& c, Topology& topo) {
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    c.link_events += static_cast<double>(topo.link(i).pipeline_events());
    c.link_delivered += static_cast<double>(topo.link(i).packets_delivered());
  }
}

void add_pels_drops(LayerCounts& c, const QueueDisc& q) {
  for (int k = 0; k < 3; ++k) c.drops[k] += static_cast<double>(q.counters().drops[k]);
}

void write_link_counters(JsonWriter& w, Topology& topo) {
  w.begin_array("links");
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    const Link& l = topo.link(i);
    const QueueDisc& q = l.queue();
    w.begin_object()
        .kv("arrivals", q.counters().total_arrivals())
        .kv("drops", q.counters().total_drops())
        .kv("queued", static_cast<std::uint64_t>(q.packet_count()))
        .kv("in_flight", static_cast<std::uint64_t>(l.packets_in_flight()))
        .kv("delivered", l.packets_delivered())
        .kv("corrupted", l.packets_corrupted())
        .end_object();
  }
  w.end_array();
}

// ------------------------------------------------------------ dumbbell

constexpr int kDumbbellFlows = 8;
constexpr SimTime kDumbbellHorizon = 200 * kSecond;
constexpr SimTime kDumbbellStretch = 150 * kSecond;  // final stretch [150, 200) s
constexpr SimTime kDumbbellWarmup = 20 * kSecond;

ScenarioConfig dumbbell_config(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.pels_flows = kDumbbellFlows;
  cfg.tcp_flows = 2;
  // The paper's 4 mb/s bottleneck scaled up tenfold; alpha scaled with it
  // (20 kb/s -> 200 kb/s) keeps N(alpha/beta)/C, and so the loss regime p*.
  cfg.bottleneck_bps = 40e6;
  cfg.mkc.alpha_bps = 200e3;
  cfg.telemetry.enabled = true;
  cfg.telemetry.max_samples =
      static_cast<std::size_t>(kDumbbellHorizon / cfg.telemetry.period) + 16;
  cfg.seed = seed;
  return cfg;
}

Host& host_named(Topology& topo, const std::string& name) {
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    Node& n = topo.node(static_cast<NodeId>(i));
    if (n.name() == name) return static_cast<Host&>(n);
  }
  throw std::runtime_error("no host named " + name);
}

/// Forwarding agents timing PelsSink/PelsSource::on_packet on their hosts.
struct DumbbellProbes {
  CallTally sink;
  CallTally ack;
  std::vector<std::unique_ptr<TimedAgent>> agents;

  void install(DumbbellScenario& s) {
    for (int i = 0; i < s.pels_flow_count(); ++i) {
      const auto flow = static_cast<FlowId>(i);
      auto sink_agent = std::make_unique<TimedAgent>(s.sink(i), sink);
      auto src_agent = std::make_unique<TimedAgent>(s.source(i), ack);
      host_named(s.topology(), "dst" + std::to_string(i)).register_agent(flow, sink_agent.get());
      host_named(s.topology(), "src" + std::to_string(i)).register_agent(flow, src_agent.get());
      agents.push_back(std::move(sink_agent));
      agents.push_back(std::move(src_agent));
    }
  }

  void flush(Tracer& tracer, int parent) {
    flush_tally(tracer, "pels.sink.on_packet", parent, sink);
    flush_tally(tracer, "pels.source.on_packet", parent, ack);
  }
};

std::uint64_t pels_delivered(DumbbellScenario& s) {
  std::uint64_t n = 0;
  for (int i = 0; i < s.pels_flow_count(); ++i) {
    for (Color c : {Color::kGreen, Color::kYellow, Color::kRed}) n += s.sink(i).packets_received(c);
  }
  return n;
}

void run_dumbbell_scenario(int index, std::uint64_t seed, Tracer& tracer, LayerCounts& lc,
                           JsonWriter& w) {
  const int root = tracer.begin("scenario", index, -1);
  const auto t0 = Clock::now();
  const int build_span = tracer.begin("pels.build", index, root);
  auto s = std::make_unique<DumbbellScenario>(dumbbell_config(seed));
  tracer.end(build_span);
  DumbbellProbes probes;
  if (tracer.on()) probes.install(*s);
  const double setup_s = seconds_since(t0);

  Scheduler& sched = s->sim().scheduler();
  const Scheduler::Stats st0 = sched.stats();
  std::size_t pool_warm = 0;
  ColorCounters at_stretch;

  const auto t_run = Clock::now();
  const int run_span = tracer.begin("run", index, root);
  for (SimTime t = kSecond; t <= kDumbbellHorizon; t += kSecond) {
    const int slice = tracer.begin("sim.slice", index, run_span);
    s->run_until(t);
    tracer.end(slice);
    probes.flush(tracer, slice);
    if (t == kDumbbellWarmup) pool_warm = pool_capacity(sched);
    if (t == kDumbbellStretch) at_stretch = s->pels_queue()->counters();
  }
  tracer.end(run_span);
  const double run_ns = ns_between(t_run, Clock::now());
  const std::uint64_t delivered = pels_delivered(*s);
  const Scheduler::Stats st1 = sched.stats();

  const int finish_span = tracer.begin("pels.finish", index, root);
  const auto t_fin = Clock::now();
  s->finish();
  const double finish_s = seconds_since(t_fin);
  tracer.end(finish_span);
  const double total_s = seconds_since(t0);
  tracer.end(root);

  lc.delivered += static_cast<double>(delivered);
  lc.run_ns += run_ns;
  add_scheduler_delta(lc, st0, st1);
  lc.pool_growth += static_cast<double>(pool_capacity(sched) - pool_warm);
  add_links(lc, s->topology());
  const ColorCounters& qc = s->pels_queue()->counters();
  for (int k = 0; k < 3; ++k) lc.queue_arrivals += static_cast<double>(qc.arrivals[k]);
  add_pels_drops(lc, *s->pels_queue());
  lc.telemetry_samples += static_cast<double>(s->telemetry_sampler()->sample_count());
  for (int i = 0; i < kDumbbellFlows; ++i) {
    lc.frames_decoded += static_cast<double>(s->sink(i).frame_qualities().size());
  }
  ++lc.scenarios;

  const ScenarioConfig& cfg = s->config();
  w.begin_object()
      .kv("seed", seed)
      .kv("setup_s", setup_s)
      .kv("run_s", run_ns * 1e-9)
      .kv("finish_s", finish_s)
      .kv("total_s", total_s)
      .kv("delivered", delivered)
      .kv("ops", kDumbbellFlows)
      .kv("flows", kDumbbellFlows)
      .kv("video_capacity_bps", s->video_capacity_bps())
      .kv("alpha_bps", cfg.mkc.alpha_bps)
      .kv("beta", cfg.mkc.beta)
      .kv("p_thr", cfg.source.gamma.p_thr)
      .kv("horizon_s", to_seconds(kDumbbellHorizon))
      .kv("stretch_from_s", to_seconds(kDumbbellStretch));
  w.begin_array("rate_bps");
  for (int i = 0; i < kDumbbellFlows; ++i) {
    w.value(s->source(i).rate_series().mean_in(kDumbbellStretch, kDumbbellHorizon));
  }
  w.end_array().begin_array("sink_bytes");
  for (int i = 0; i < kDumbbellFlows; ++i) w.value(s->sink(i).data_bytes_received());
  w.end_array().begin_object("bottleneck");
  for (int k = 0; k < 3; ++k) {
    static const char* const kNames[] = {"green", "yellow", "red"};
    w.begin_object(kNames[k])
        .kv("arrivals", qc.arrivals[k])
        .kv("drops", qc.drops[k])
        .kv("stretch_arrivals", qc.arrivals[k] - at_stretch.arrivals[k])
        .kv("stretch_drops", qc.drops[k] - at_stretch.drops[k])
        .end_object();
  }
  w.end_object();
  write_link_counters(w, s->topology());
  w.end_object();
}

// ------------------------------------------------------------ population

constexpr int kPods = 4;
constexpr int kRacksPerPod = 2;
constexpr int kHostsPerRack = 4;
constexpr std::size_t kVideoFlows = 20'000;
constexpr std::size_t kMiceFlows = 2'000;
constexpr std::size_t kElephantFlows = 16;
constexpr SimTime kPopulationHorizon = 20 * kSecond;
constexpr SimTime kPopulationWarmup = 4 * kSecond;
constexpr SimTime kPopulationStartWindow = 2 * kSecond;

/// Intra-rack video flows appended to every mix at fixed hosts and start
/// times (independent of the seed): host h -> host h+1 of the same rack.
std::vector<FlowSpec> intra_rack_probe_flows(double rate_bps) {
  std::vector<FlowSpec> out;
  const int hosts = kPods * kRacksPerPod * kHostsPerRack;
  for (int h = 0; h < hosts; ++h) {
    FlowSpec f;
    f.cls = TrafficClass::kVideo;
    f.src_host = h;
    f.dst_host = (h / kHostsPerRack) * kHostsPerRack + (h + 1) % kHostsPerRack;
    f.start = kPopulationStartWindow * h / hosts;
    f.rate_bps = rate_bps;
    out.push_back(f);
  }
  return out;
}

void run_population_scenario(int index, std::uint64_t seed, unsigned workers, Tracer& tracer,
                             LayerCounts& lc, JsonWriter& w) {
  const int root = tracer.begin("scenario", index, -1);
  const auto t0 = Clock::now();

  FabricConfig fc;
  fc.kind = FabricConfig::Kind::kFatTree;
  fc.pods = kPods;
  fc.racks_per_pod = kRacksPerPod;
  fc.hosts_per_rack = kHostsPerRack;
  fc.domain_per_pod = true;
  fc.seed = seed;

  MixedTrafficConfig mix;
  mix.video_flows = kVideoFlows;
  mix.mice_flows = kMiceFlows;
  mix.elephant_flows = kElephantFlows;
  mix.start_window = kPopulationStartWindow;
  mix.seed = seed;

  ManyFlowDriverConfig dc;
  // MKC's alpha scaled with C/N, as bench/many_flows does: the busiest
  // bottleneck (a pod uplink) carries about 3/4 of a pod's flows, and its
  // PELS share is half the link. Default alpha (20 kb/s) would put
  // N*alpha/beta far above C and swamp the core.
  const double flows_per_uplink = static_cast<double>(kVideoFlows) / kPods * 0.75;
  const double pels_share_bps = fc.core_bandwidth_bps * fc.core_queue.pels_weight /
                                (fc.core_queue.pels_weight + fc.core_queue.internet_weight);
  dc.mkc.alpha_bps = 0.1 * pels_share_bps / flows_per_uplink;

  const int build_span = tracer.begin("exp.build", index, root);
  auto fabric = std::make_unique<Fabric>(fc);
  tracer.end(build_span);

  const int inputs_span = tracer.begin("exp.inputs", index, root);
  std::vector<FlowSpec> specs = gen_mixed_traffic(*fabric, mix);
  tracer.end(inputs_span);
  // Every seeded video flow is made inter-rack (its destination moves to the
  // same slot of the next rack); the only intra-rack video flows are the
  // fixed probes, so the failing set does not depend on the seed.
  const int hosts = static_cast<int>(fabric->hosts().size());
  for (FlowSpec& f : specs) {
    if (f.cls == TrafficClass::kVideo && f.src_host / kHostsPerRack == f.dst_host / kHostsPerRack) {
      f.dst_host = (f.dst_host + kHostsPerRack) % hosts;
    }
  }
  for (const FlowSpec& f : intra_rack_probe_flows(mix.video_rate_bps)) specs.push_back(f);

  // ManyFlowDriver orders flows by start time with a stable sort; the same
  // sort here maps each of its flow indices back to the flow's endpoints.
  std::vector<FlowSpec> by_start = specs;
  std::stable_sort(by_start.begin(), by_start.end(),
                   [](const FlowSpec& a, const FlowSpec& b) { return a.start < b.start; });

  const int driver_span = tracer.begin("exp.build", index, root);
  auto driver = std::make_unique<ManyFlowDriver>(*fabric, std::move(specs), dc);
  tracer.end(driver_span);

  const int reserve_span = tracer.begin("net.reserve", index, root);
  fabric->reserve_runtime(driver->flow_count());
  tracer.end(reserve_span);

  CallTally sink_tally;
  std::vector<std::unique_ptr<TimedAgent>> agents;
  if (tracer.on()) {
    for (Host* h : fabric->hosts()) {
      agents.push_back(std::make_unique<TimedAgent>(*h->default_agent(), sink_tally));
      h->set_default_agent(agents.back().get());
    }
  }
  driver->start();
  DomainRunner runner(fabric->topology(), workers);
  const double setup_s = seconds_since(t0);

  std::vector<Scheduler::Stats> st0;
  for (int d = 0; d < fabric->domain_count(); ++d) st0.push_back(fabric->sim(d).scheduler().stats());
  std::size_t pool_warm = 0;

  const auto t_run = Clock::now();
  const int run_span = tracer.begin("run", index, root);
  for (SimTime t = kSecond; t <= kPopulationHorizon; t += kSecond) {
    const int slice = tracer.begin("exp.run_until", index, run_span);
    runner.run_until(t);
    tracer.end(slice);
    flush_tally(tracer, "cc.sink_table.on_packet", slice, sink_tally);
    if (t == kPopulationWarmup) {
      for (int d = 0; d < fabric->domain_count(); ++d) pool_warm += pool_capacity(fabric->sim(d).scheduler());
    }
  }
  tracer.end(run_span);
  const double run_ns = ns_between(t_run, Clock::now());
  tracer.end(root);
  const double total_s = seconds_since(t0);

  std::size_t pool_end = 0;
  for (int d = 0; d < fabric->domain_count(); ++d) {
    const Scheduler::Stats st1 = fabric->sim(d).scheduler().stats();
    add_scheduler_delta(lc, st0[static_cast<std::size_t>(d)], st1);
    pool_end += pool_capacity(fabric->sim(d).scheduler());
  }
  const std::uint64_t delivered = driver->packets_received();
  lc.delivered += static_cast<double>(delivered);
  lc.run_ns += run_ns;
  lc.pool_growth += static_cast<double>(pool_end - pool_warm);
  add_links(lc, fabric->topology());
  for (std::size_t q = 0; q < fabric->core_queue_count(); ++q) {
    lc.queue_arrivals += static_cast<double>(fabric->core_queue(q).counters().total_arrivals());
    add_pels_drops(lc, fabric->core_queue(q));
  }
  lc.control_ticks += static_cast<double>(driver->control_ticks());
  lc.bytes_per_flow += static_cast<double>(driver->driver_memory_bytes()) /
                       static_cast<double>(driver->flow_count());
  lc.windows += static_cast<double>(runner.stats().windows);
  lc.handoffs += static_cast<double>(runner.stats().handoffs);
  ++lc.scenarios;

  w.begin_object()
      .kv("seed", seed)
      .kv("setup_s", setup_s)
      .kv("run_s", run_ns * 1e-9)
      .kv("total_s", total_s)
      .kv("delivered", delivered)
      .kv("workers", static_cast<int>(runner.stats().effective_threads))
      .kv("fingerprint", std::to_string(driver->fingerprint()))
      .kv("pool_growth", static_cast<std::uint64_t>(pool_end - pool_warm))
      .kv("horizon_s", to_seconds(kPopulationHorizon))
      .kv("hosts_per_rack", kHostsPerRack)
      .kv("min_rate_bps", dc.mkc.min_rate_bps)
      .kv("max_rate_bps", dc.mkc.max_rate_bps)
      .kv("alpha_bps", dc.mkc.alpha_bps)
      .kv("control_interval_s", to_seconds(dc.control_interval));
  w.begin_object("classes");
  for (auto [name, cls] : {std::pair{"video", TrafficClass::kVideo},
                           std::pair{"mice", TrafficClass::kMice},
                           std::pair{"elephant", TrafficClass::kElephant}}) {
    const ManyFlowDriver::ClassCounts c = driver->class_counts(cls);
    w.begin_object(name)
        .kv("flows", c.flows)
        .kv("sent", c.packets_sent)
        .kv("delivered", c.packets_delivered)
        .end_object();
  }
  w.end_object().begin_array("core_links");
  for (const Link* l : fabric->core_links()) {
    w.begin_object().kv("bandwidth_bps", l->bandwidth_bps()).kv("bytes", l->bytes_delivered()).end_object();
  }
  w.end_array();
  // Every live control slot of every shard: gamma and rate ranges.
  double gamma_min = 1e300, gamma_max = -1e300, rate_min = 1e300, rate_max = -1e300;
  for (std::size_t d = 0; d < driver->shard_count(); ++d) {
    const FlowTable& t = driver->flow_table(d);
    for (FlowSlot slot = 0; slot < t.capacity(); ++slot) {
      if (!t.is_live(slot)) continue;
      gamma_min = std::min(gamma_min, t.gamma(slot));
      gamma_max = std::max(gamma_max, t.gamma(slot));
      rate_min = std::min(rate_min, t.rate_bps(slot));
      rate_max = std::max(rate_max, t.rate_bps(slot));
    }
  }
  w.kv("gamma_min", gamma_min).kv("gamma_max", gamma_max);
  w.kv("rate_min", rate_min).kv("rate_max", rate_max);
  // Video flows in ManyFlowDriver's order: source host, destination host, start
  // time (s), start rate and final rate.
  w.begin_array("video");
  for (std::size_t i = 0; i < by_start.size(); ++i) {
    const FlowSpec& f = by_start[i];
    if (f.cls != TrafficClass::kVideo) continue;
    w.begin_array().value(f.src_host).value(f.dst_host).value(to_seconds(f.start))
        .value(f.rate_bps).value(driver->flow_rate_bps(i)).end_array();
  }
  w.end_array();
  w.end_object();

  for (std::size_t i = 0; i < agents.size(); ++i) {
    fabric->hosts()[i]->set_default_agent(nullptr);
  }
}

// ------------------------------------------------------------ campaign

constexpr int kRoundSchedules = 200;

ChaosLimits campaign_limits() {
  ChaosLimits limits;
  limits.horizon = 8 * kSecond;
  limits.min_start = from_millis(200);
  limits.max_window = kSecond;
  return limits;
}

ScenarioConfig campaign_config(std::uint64_t seed, FaultPlan plan) {
  ScenarioConfig cfg;
  cfg.pels_flows = 2;
  cfg.tcp_flows = 1;
  cfg.seed = seed;
  cfg.faults = std::move(plan);
  cfg.invariants.enabled = true;
  cfg.invariants.abort_on_violation = true;
  cfg.invariants.progress_stall_ticks = 300;  // 3 s without an arrival: wedged
  return cfg;
}

struct ScheduleResult {
  std::string violation;  // empty when no invariant tripped
  std::uint64_t ticks = 0;
  std::uint64_t delivered = 0;
  std::uint64_t green = 0;
  double build_s = 0;
  double run_s = 0;
  double total_s = 0;
};

/// One monitored schedule. Runs on the SweepRunner's single worker while
/// the main thread waits, so it may record into the shared tracer.
ScheduleResult run_schedule(int round, int index, std::uint64_t seed, const FaultPlan& plan,
                            Tracer& tracer, LayerCounts& lc) {
  ScheduleResult r;
  const int scenario_id = round * kRoundSchedules + index;
  const int root = tracer.begin("campaign.schedule", scenario_id, -1);
  const auto t0 = Clock::now();
  const int build_span = tracer.begin("pels.build", scenario_id, root);
  DumbbellScenario s(campaign_config(seed, plan));
  tracer.end(build_span);
  DumbbellProbes probes;
  if (tracer.on()) probes.install(s);
  r.build_s = seconds_since(t0);

  const Scheduler::Stats st0 = s.sim().scheduler().stats();
  const auto t_run = Clock::now();
  const int run_span = tracer.begin("sim.slice", scenario_id, root);
  try {
    s.run_until(campaign_limits().horizon + kSecond);
    s.invariant_monitor()->check_now();  // final sweep at quiescence
  } catch (const InvariantViolationError& e) {
    r.violation = e.violation().invariant + ": " + e.violation().detail;
  }
  tracer.end(run_span);
  probes.flush(tracer, run_span);
  r.run_s = seconds_since(t_run);
  const Scheduler::Stats st1 = s.sim().scheduler().stats();
  r.delivered = pels_delivered(s);
  for (int i = 0; i < s.pels_flow_count(); ++i) r.green += s.sink(i).packets_received(Color::kGreen);

  const int finish_span = tracer.begin("pels.finish", scenario_id, root);
  if (r.violation.empty()) s.finish();
  tracer.end(finish_span);
  r.ticks = s.invariant_monitor()->ticks();
  r.total_s = seconds_since(t0);
  tracer.end(root);

  lc.delivered += static_cast<double>(r.delivered);
  lc.run_ns += r.run_s * 1e9;
  add_scheduler_delta(lc, st0, st1);
  lc.monitor_ticks += static_cast<double>(r.ticks);
  add_links(lc, s.topology());
  const ColorCounters& qc = s.pels_queue()->counters();
  for (int k = 0; k < 3; ++k) lc.queue_arrivals += static_cast<double>(qc.arrivals[k]);
  add_pels_drops(lc, *s.pels_queue());
  for (int i = 0; i < s.pels_flow_count(); ++i) {
    lc.frames_decoded += static_cast<double>(s.sink(i).frame_qualities().size());
  }
  lc.fault_events += static_cast<double>(fault_plan_event_count(plan));
  ++lc.scenarios;
  return r;
}

void run_campaign_round(int round, std::uint64_t seed, SweepRunner& runner, Tracer& tracer,
                        LayerCounts& lc, JsonWriter& w) {
  const auto t0 = Clock::now();
  const int round_span = tracer.begin("campaign.round", round * kRoundSchedules, -1);
  // Plans are drawn up front on this thread: draw order is the replay
  // contract and must not depend on pool scheduling.
  ChaosPlanGenerator gen(campaign_limits(), Rng(seed, 0x0C05 + static_cast<std::uint64_t>(round)));
  std::vector<FaultPlan> plans;
  plans.reserve(kRoundSchedules);
  for (int i = 0; i < kRoundSchedules; ++i) {
    const int plan_span = tracer.begin("fault.plan", round * kRoundSchedules + i, round_span);
    plans.push_back(gen.next());
    tracer.end(plan_span);
  }
  const double plan_s = seconds_since(t0);

  std::vector<std::function<ScheduleResult()>> tasks;
  tasks.reserve(plans.size());
  for (int i = 0; i < kRoundSchedules; ++i) {
    const std::uint64_t s_seed = scenario_seed(seed, round * kRoundSchedules + i);
    tasks.push_back([round, i, s_seed, &plans, &tracer, &lc] {
      return run_schedule(round, i, s_seed, plans[static_cast<std::size_t>(i)], tracer, lc);
    });
  }
  const auto t_sweep = Clock::now();
  const auto outcomes = runner.run(std::move(tasks));
  const double sweep_s = seconds_since(t_sweep);
  tracer.end(round_span);

  double build_s = 0;
  double task_s = 0;
  for (const auto& out : outcomes) {
    if (out.ok()) {
      build_s += out.value->build_s;
      task_s += out.value->total_s;
    }
  }
  lc.sweep_gap_ns += (sweep_s - task_s) * 1e9;

  w.begin_object()
      .kv("round", round)
      .kv("plan_s", plan_s)
      .kv("setup_s", plan_s + build_s)
      .kv("sweep_s", sweep_s)
      .kv("total_s", plan_s + sweep_s)
      .kv("horizon_s", to_seconds(campaign_limits().horizon))
      .kv("monitor_period_s", to_seconds(InvariantConfig{}.period));
  w.begin_array("schedules");
  for (const auto& out : outcomes) {
    w.begin_object();
    if (!out.ok()) {
      w.kv("error", out.error);
    } else {
      const ScheduleResult& r = *out.value;
      w.kv("violation", r.violation)
          .kv("ticks", r.ticks)
          .kv("delivered", r.delivered)
          .kv("green", r.green)
          .kv("run_s", r.run_s)
          .kv("total_s", r.total_s);
    }
    w.end_object();
  }
  w.end_array().end_object();
}

// ------------------------------------------------------------ main

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;
  int scenarios = 0;  // > 0: exactly this many scenarios (rounds)
  unsigned workers = 1;
};

/// Runs scenario (campaign: round) `k` of the workload.
class WorkloadRunner {
 public:
  explicit WorkloadRunner(const Options& opt) : opt_(opt) {
    if (opt.workload == "campaign") sweep_ = std::make_unique<SweepRunner>(1);
  }

  void run(int k, Tracer& tracer, LayerCounts& lc, JsonWriter& w) {
    if (opt_.workload == "dumbbell") {
      run_dumbbell_scenario(k, scenario_seed(opt_.seed, k), tracer, lc, w);
    } else if (opt_.workload == "population") {
      run_population_scenario(k, scenario_seed(opt_.seed, k), opt_.workers, tracer, lc, w);
    } else {
      run_campaign_round(k, opt_.seed, *sweep_, tracer, lc, w);
    }
  }

  const char* records_key() const { return sweep_ ? "rounds" : "scenarios"; }

 private:
  const Options& opt_;
  std::unique_ptr<SweepRunner> sweep_;
};

/// Timed mode: whole scenarios until `opt.seconds` of host time have passed
/// (exactly opt.scenarios of them when set). Returns the process's peak
/// resident set after the first scenario: what a process running one
/// scenario holds, before allocator fragmentation from the repetitions
/// (whose number depends on host speed) can add to it.
double run_timed(const Options& opt, JsonWriter& w) {
  WorkloadRunner runner(opt);
  Tracer off(false);
  LayerCounts lc;
  double first_peak_mb = 0;
  const auto t0 = Clock::now();
  w.begin_array(runner.records_key());
  for (int k = 0;; ++k) {
    const auto ts = Clock::now();
    runner.run(k, off, lc, w);
    const double last_s = seconds_since(ts);
    if (k == 0) first_peak_mb = peak_rss_mb();
    if (opt.scenarios > 0 ? k + 1 >= opt.scenarios
                          : seconds_since(t0) + 0.5 * last_s >= opt.seconds) {
      break;
    }
  }
  w.end_array();
  return first_peak_mb;
}

/// Per-layer metrics of a traced pass, keyed by the names in BENCHMARK.json.
std::vector<std::pair<std::string, double>> layer_metrics(const Tracer& t, const LayerCounts& c) {
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto ms_each = [&t, &per](const char* name, double n) { return per(t.total(name).first * 1e-6, n); };
  const auto ns_per_call = [&t, &per](const char* name) {
    const auto [ns, calls] = t.total(name);
    return per(ns, static_cast<double>(calls));
  };
  const double scen = c.scenarios;
  return {
      {"sim.events_per_pkt", per(c.events, c.delivered)},
      {"sim.cancels_per_pkt", per(c.cancels, c.delivered)},
      {"sim.ns_per_event", per(t.total("sim.slice").first + t.total("exp.run_until").first, c.events)},
      {"sim.cascades", c.cascades},
      {"sim.pool_growth", c.pool_growth},
      {"sim.monitor_ticks", c.monitor_ticks},
      {"net.link_events_per_pkt", per(c.link_events, c.link_delivered)},
      {"net.reserve_ms", ms_each("net.reserve", scen)},
      {"queue.arrivals_per_pkt", per(c.queue_arrivals, c.delivered)},
      {"queue.drops.green", c.drops[0]},
      {"queue.drops.yellow", c.drops[1]},
      {"queue.drops.red", c.drops[2]},
      {"cc.control_ticks", c.control_ticks},
      {"cc.bytes_per_flow", per(c.bytes_per_flow, scen)},
      {"cc.sink_ns_per_pkt", ns_per_call("cc.sink_table.on_packet")},
      {"pels.build_ms", ms_each("pels.build", scen)},
      {"pels.sink_ns_per_pkt", ns_per_call("pels.sink.on_packet")},
      {"pels.ack_ns_per_ack", ns_per_call("pels.source.on_packet")},
      {"pels.finish_ms", ms_each("pels.finish", scen)},
      {"video.frames_decoded", c.frames_decoded},
      {"exp.inputs_ms", ms_each("exp.inputs", scen)},
      {"exp.build_ms", ms_each("exp.build", scen)},
      {"exp.windows", c.windows},
      {"exp.handoffs_per_window", per(c.handoffs, c.windows)},
      {"exp.window_us", per(t.total("exp.run_until").first * 1e-3, c.windows)},
      {"exp.sweep_gap_ms", per(c.sweep_gap_ns * 1e-6, static_cast<double>(t.total("campaign.round").second))},
      {"fault.plan_ms", per(t.total("fault.plan").first * 1e-6, static_cast<double>(t.total("campaign.round").second))},
      {"fault.events", c.fault_events},
      {"telemetry.samples", c.telemetry_samples},
  };
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--trace-file") {
      o.trace_file = v;
    } else if (a == "--scenarios") {
      o.scenarios = std::stoi(v);
    } else if (a == "--workers") {
      o.workers = static_cast<unsigned>(std::stoul(v));
    } else {
      throw std::invalid_argument("unknown option " + a);
    }
  }
  if (o.workload != "dumbbell" && o.workload != "population" && o.workload != "campaign") {
    throw std::invalid_argument("--workload must be dumbbell, population or campaign");
  }
  if (o.workers < 1 || o.seconds <= 0) throw std::invalid_argument("bad --workers/--seconds");
  return o;
}

/// Scenarios (campaign: rounds of 200 schedules) of a traced run.
int trace_count(const std::string& workload) { return workload == "population" ? 4 : 2; }

/// Traced mode: each scenario runs twice back to back, untraced and with
/// spans (alternating which goes first), so that both sides of the overhead
/// see the same host load.
/// Writes the traced records, the per-layer metrics and the overhead (median
/// over the pairs of the drop in delivered packets per run-phase second).
void run_traced(const Options& opt, JsonWriter& w) {
  WorkloadRunner runner(opt);
  Tracer off(false);
  Tracer tracer(true);
  LayerCounts plain;
  LayerCounts lc;
  std::ostringstream discard;
  JsonWriter dw(discard);
  dw.begin_array();
  std::vector<double> overhead_pct;
  const int count = opt.scenarios > 0 ? opt.scenarios : trace_count(opt.workload);
  w.begin_array(runner.records_key());
  for (int k = 0; k < count; ++k) {
    const LayerCounts p0 = plain;
    const LayerCounts t0 = lc;
    if (k % 2 == 0) runner.run(k, off, plain, dw);  // alternate which side runs first
    runner.run(k, tracer, lc, w);
    if (k % 2 == 1) runner.run(k, off, plain, dw);
    const double untraced = (plain.delivered - p0.delivered) / (plain.run_ns - p0.run_ns);
    const double traced = (lc.delivered - t0.delivered) / (lc.run_ns - t0.run_ns);
    overhead_pct.push_back(100.0 * (1.0 - traced / untraced));
  }
  w.end_array();
  std::sort(overhead_pct.begin(), overhead_pct.end());
  const std::size_t n = overhead_pct.size();
  const double median = n % 2 ? overhead_pct[n / 2] : 0.5 * (overhead_pct[n / 2 - 1] + overhead_pct[n / 2]);
  w.begin_object("layers");
  for (const auto& [name, v] : layer_metrics(tracer, lc)) w.kv(name.c_str(), v);
  w.kv("trace.overhead_pct", median);
  w.end_object();
  if (!opt.trace_file.empty()) tracer.write(opt.trace_file);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pelsbench: " << e.what() << "\n";
    return 2;
  }
  if (opt.workers == 1) pin_to_current_cpu();
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object().kv("workload", opt.workload).kv("seed", opt.seed);
  if (opt.trace) {
    run_traced(opt, w);
  } else {
    w.kv("peak_rss_mb", run_timed(opt, w));
  }
  w.end_object();
  std::cout << out.str() << "\n";
  return 0;
}
