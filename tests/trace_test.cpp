// Tests for the tracing subsystem (PacketTracer, TracingQueue), the
// burst-length analyzer, and the playout-deadline evaluator.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "analysis/burstiness.h"
#include "net/trace.h"
#include "queue/best_effort.h"
#include "queue/drop_tail.h"
#include "queue/tracing_queue.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "video/playout.h"

namespace pels {
namespace {

Packet make_packet(std::uint64_t uid, FlowId flow, Color color, std::int32_t size = 500) {
  Packet p;
  p.uid = uid;
  p.flow = flow;
  p.color = color;
  p.size_bytes = size;
  return p;
}

// ----------------------------------------------------------- PacketTracer

// Table test pinning the full TraceEvent -> code mapping (the contract the
// trace.h comment documents). A new enumerator without a code would fall
// through to '?' and fail here.
TEST(PacketTracerTest, EventCodeCoversEveryTraceEvent) {
  struct Case {
    TraceEvent event;
    char code;
  };
  constexpr Case kCases[] = {
      {TraceEvent::kEnqueue, '+'},
      {TraceEvent::kDequeue, '-'},
      {TraceEvent::kDrop, 'd'},
      {TraceEvent::kDeliver, 'r'},
  };
  for (const Case& c : kCases) {
    EXPECT_EQ(trace_event_code(c.event), c.code)
        << "event " << static_cast<int>(c.event);
  }
  // All four codes are distinct — a text trace is unambiguous.
  for (const Case& a : kCases) {
    for (const Case& b : kCases) {
      if (a.event != b.event) {
        EXPECT_NE(a.code, b.code);
      }
    }
  }
}

TEST(PacketTracerTest, RecordsEventsWithMetadata) {
  PacketTracer tracer;
  tracer.record(kSecond, TraceEvent::kEnqueue, "q0", make_packet(7, 3, Color::kYellow));
  ASSERT_EQ(tracer.records().size(), 1u);
  const TraceRecord& rec = tracer.records()[0];
  EXPECT_EQ(rec.t, kSecond);
  EXPECT_EQ(rec.event, TraceEvent::kEnqueue);
  EXPECT_EQ(rec.location, "q0");
  EXPECT_EQ(rec.uid, 7u);
  EXPECT_EQ(rec.flow, 3);
  EXPECT_EQ(rec.color, Color::kYellow);
}

TEST(PacketTracerTest, FlowFilterDropsOtherFlows) {
  PacketTracer tracer;
  tracer.set_flow_filter(5);
  tracer.record(0, TraceEvent::kEnqueue, "q", make_packet(1, 5, Color::kRed));
  tracer.record(0, TraceEvent::kEnqueue, "q", make_packet(2, 6, Color::kRed));
  EXPECT_EQ(tracer.records().size(), 1u);
  EXPECT_EQ(tracer.records()[0].flow, 5);
}

TEST(PacketTracerTest, ColorFilterDropsOtherColors) {
  PacketTracer tracer;
  tracer.set_color_filter(Color::kRed);
  tracer.record(0, TraceEvent::kDrop, "q", make_packet(1, 1, Color::kRed));
  tracer.record(0, TraceEvent::kDrop, "q", make_packet(2, 1, Color::kYellow));
  EXPECT_EQ(tracer.records().size(), 1u);
}

TEST(PacketTracerTest, EventToggleSuppressesKind) {
  PacketTracer tracer;
  tracer.set_event_enabled(TraceEvent::kEnqueue, false);
  tracer.record(0, TraceEvent::kEnqueue, "q", make_packet(1, 1, Color::kRed));
  tracer.record(0, TraceEvent::kDrop, "q", make_packet(2, 1, Color::kRed));
  ASSERT_EQ(tracer.records().size(), 1u);
  EXPECT_EQ(tracer.records()[0].event, TraceEvent::kDrop);
}

TEST(PacketTracerTest, MaxRecordsCapsStorageNotCounts) {
  PacketTracer tracer;
  tracer.set_max_records(2);
  for (int i = 0; i < 5; ++i)
    tracer.record(0, TraceEvent::kEnqueue, "q", make_packet(i, 1, Color::kGreen));
  EXPECT_EQ(tracer.records().size(), 2u);
  EXPECT_EQ(tracer.total_seen(), 5u);
  EXPECT_EQ(tracer.dropped_records(), 3u);
  EXPECT_EQ(tracer.count(TraceEvent::kEnqueue, Color::kGreen), 5u);
}

TEST(PacketTracerTest, TextFormatIsNs2Like) {
  TraceRecord rec;
  rec.t = from_millis(1234);
  rec.event = TraceEvent::kDrop;
  rec.location = "bottleneck";
  rec.flow = 3;
  rec.seq = 42;
  rec.color = Color::kRed;
  rec.size_bytes = 500;
  rec.frame_id = 17;
  const std::string line = format_trace_record(rec);
  EXPECT_NE(line.find("d 1.234"), std::string::npos);
  EXPECT_NE(line.find("bottleneck"), std::string::npos);
  EXPECT_NE(line.find("flow 3"), std::string::npos);
  EXPECT_NE(line.find("red"), std::string::npos);
  EXPECT_NE(line.find("frame 17"), std::string::npos);
}

TEST(PacketTracerTest, WriteTextEmitsOneLinePerRecord) {
  PacketTracer tracer;
  for (int i = 0; i < 3; ++i)
    tracer.record(i, TraceEvent::kEnqueue, "q", make_packet(i, 1, Color::kGreen));
  std::ostringstream os;
  tracer.write_text(os);
  int lines = 0;
  for (char ch : os.str()) lines += ch == '\n';
  EXPECT_EQ(lines, 3);
}

TEST(PacketTracerTest, ClearResetsEverything) {
  PacketTracer tracer;
  tracer.record(0, TraceEvent::kEnqueue, "q", make_packet(1, 1, Color::kGreen));
  tracer.clear();
  EXPECT_TRUE(tracer.records().empty());
  EXPECT_EQ(tracer.total_seen(), 0u);
  EXPECT_EQ(tracer.count(TraceEvent::kEnqueue, Color::kGreen), 0u);
}

// ----------------------------------------------------------- TracingQueue

TEST(TracingQueueTest, RecordsEnqueueDequeueDrop) {
  Simulation sim;
  PacketTracer tracer;
  TracingQueue q(std::make_unique<DropTailQueue>(1), "bq", sim.scheduler(), tracer);
  EXPECT_TRUE(q.enqueue(make_packet(1, 1, Color::kGreen)));
  EXPECT_FALSE(q.enqueue(make_packet(2, 1, Color::kGreen)));  // tail drop
  EXPECT_TRUE(q.dequeue().has_value());
  EXPECT_EQ(tracer.count(TraceEvent::kEnqueue, Color::kGreen), 2u);
  EXPECT_EQ(tracer.count(TraceEvent::kDrop, Color::kGreen), 1u);
  EXPECT_EQ(tracer.count(TraceEvent::kDequeue, Color::kGreen), 1u);
}

TEST(TracingQueueTest, TransparentToInnerBehaviour) {
  Simulation sim;
  PacketTracer tracer;
  TracingQueue q(std::make_unique<DropTailQueue>(8), "bq", sim.scheduler(), tracer);
  for (std::uint64_t i = 0; i < 4; ++i) q.enqueue(make_packet(i, 1, Color::kGreen));
  EXPECT_EQ(q.packet_count(), 4u);
  EXPECT_EQ(q.byte_count(), 2000);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(q.dequeue()->uid, i);
}

TEST(TracingQueueTest, DropsCountInOwnCounters) {
  Simulation sim;
  PacketTracer tracer;
  TracingQueue q(std::make_unique<DropTailQueue>(1), "bq", sim.scheduler(), tracer);
  q.enqueue(make_packet(1, 1, Color::kRed));
  q.enqueue(make_packet(2, 1, Color::kRed));
  EXPECT_EQ(q.counters().drops[static_cast<std::size_t>(Color::kRed)], 1u);
}

// ---------------------------------------------------------- BurstAnalyzer

TEST(BurstAnalyzerTest, CountsBursts) {
  BurstAnalyzer b;
  for (bool lost : {false, true, true, false, true, false, false, true}) b.add(lost);
  b.finish();
  ASSERT_EQ(b.burst_count(), 3u);
  EXPECT_EQ(b.burst_lengths()[0], 2);
  EXPECT_EQ(b.burst_lengths()[1], 1);
  EXPECT_EQ(b.burst_lengths()[2], 1);
  EXPECT_EQ(b.packets_seen(), 8);
  EXPECT_EQ(b.packets_lost(), 4);
  EXPECT_DOUBLE_EQ(b.loss_rate(), 0.5);
  EXPECT_DOUBLE_EQ(b.mean_burst_length(), 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(b.max_burst_length(), 2.0);
}

TEST(BurstAnalyzerTest, FinishClosesTrailingBurst) {
  BurstAnalyzer b;
  b.add(true);
  b.add(true);
  EXPECT_EQ(b.burst_count(), 0u);  // still open
  b.finish();
  ASSERT_EQ(b.burst_count(), 1u);
  EXPECT_EQ(b.burst_lengths()[0], 2);
}

TEST(BurstAnalyzerTest, BernoulliLossHasGeometricBursts) {
  // i.i.d. loss at p: mean burst = 1/(1-p) and CCDF ratio ~ p (the paper's
  // "exponential tail" premise).
  Rng rng(3);
  const double p = 0.3;
  BurstAnalyzer b;
  for (int i = 0; i < 2'000'000; ++i) b.add(rng.bernoulli(p));
  b.finish();
  EXPECT_NEAR(b.mean_burst_length(), BurstAnalyzer::geometric_mean_burst(p), 0.02);
  EXPECT_NEAR(b.ccdf(1), p, 0.01);
  EXPECT_NEAR(b.ccdf(2) / b.ccdf(1), p, 0.02);
}

TEST(BurstAnalyzerTest, EmptyIsZero) {
  BurstAnalyzer b;
  b.finish();
  EXPECT_DOUBLE_EQ(b.mean_burst_length(), 0.0);
  EXPECT_DOUBLE_EQ(b.ccdf(0), 0.0);
  EXPECT_DOUBLE_EQ(b.loss_rate(), 0.0);
}

TEST(BurstAnalyzerTest, TraceReconstructionMatchesQueueBehaviour) {
  // Push yellow packets through a traced best-effort queue with a primed
  // drop probability; the reconstructed outcome stream must show geometric
  // bursts at the queue's drop rate.
  Simulation sim;
  PacketTracer tracer;
  BestEffortQueueConfig cfg;
  cfg.video_limit = 1u << 20;
  auto inner = std::make_unique<BestEffortQueue>(sim.scheduler(), sim.make_rng(9), cfg);
  BestEffortQueue* be = inner.get();
  TracingQueue q(std::move(inner), "bq", sim.scheduler(), tracer);
  // Prime the meter: one interval at ~2.5x the video capacity.
  for (std::uint64_t i = 0; i < 40; ++i) q.enqueue(make_packet(i, 1, Color::kYellow));
  sim.run_until(from_millis(31));
  const double p_drop = std::max(be->current_fgs_loss(), 0.0);
  ASSERT_GT(p_drop, 0.3);
  tracer.clear();
  for (std::uint64_t i = 100; i < 40'100; ++i) {
    q.enqueue(make_packet(i, 1, Color::kYellow));
    q.dequeue();
  }
  const auto outcomes = loss_outcomes_from_trace(tracer, 1, Color::kYellow);
  ASSERT_EQ(outcomes.size(), 40'000u);
  BurstAnalyzer b;
  for (bool lost : outcomes) b.add(lost);
  b.finish();
  EXPECT_NEAR(b.loss_rate(), p_drop, 0.02);
  EXPECT_NEAR(b.mean_burst_length(), BurstAnalyzer::geometric_mean_burst(b.loss_rate()),
              0.1);
}

// -------------------------------------------------------- evaluate_playout

std::vector<FrameArrival> regular_arrivals(std::int64_t n, SimTime period, SimTime jitter = 0) {
  // Jitter hits frames 1, 4, 7, ... — never frame 0, which anchors the
  // playback clock.
  std::vector<FrameArrival> arrivals;
  for (std::int64_t f = 0; f < n; ++f)
    arrivals.push_back({f, kSecond + f * period + (f % 3 == 1 ? jitter : 0), true});
  return arrivals;
}

TEST(PlayoutTest, PunctualStreamAllOnTime) {
  const auto arrivals = regular_arrivals(100, from_millis(100));
  const PlayoutReport report = evaluate_playout(arrivals, from_millis(100), 0);
  EXPECT_EQ(report.frames_total, 100);
  EXPECT_EQ(report.frames_on_time, 100);
  EXPECT_EQ(report.frames_late, 0);
  EXPECT_EQ(report.required_startup, 0);
}

TEST(PlayoutTest, JitterRequiresStartupDelay) {
  const SimTime jitter = from_millis(40);
  const auto arrivals = regular_arrivals(100, from_millis(100), jitter);
  const PlayoutReport no_buffer = evaluate_playout(arrivals, from_millis(100), 0);
  EXPECT_GT(no_buffer.frames_late, 0);
  EXPECT_EQ(no_buffer.max_lateness, jitter);
  EXPECT_EQ(no_buffer.required_startup, jitter);
  const PlayoutReport buffered = evaluate_playout(arrivals, from_millis(100), jitter);
  EXPECT_EQ(buffered.frames_late, 0);
}

TEST(PlayoutTest, UndecodableFramesAreAlwaysLate) {
  auto arrivals = regular_arrivals(10, from_millis(100));
  arrivals[4].decodable = false;
  const PlayoutReport report = evaluate_playout(arrivals, from_millis(100), kSecond);
  EXPECT_EQ(report.frames_late, 1);
  EXPECT_EQ(report.frames_on_time, 9);
}

TEST(PlayoutTest, PlaybackClockStartsAtFirstDecodable) {
  // First two frames undecodable: frame 2 anchors the schedule.
  std::vector<FrameArrival> arrivals = {{0, kSecond, false},
                                        {1, 2 * kSecond, false},
                                        {2, 3 * kSecond, true},
                                        {3, 3 * kSecond + from_millis(90), true}};
  const PlayoutReport report = evaluate_playout(arrivals, from_millis(100), 0);
  EXPECT_EQ(report.frames_late, 2);   // the undecodable ones
  EXPECT_EQ(report.frames_on_time, 2);
}

TEST(PlayoutTest, EmptyAndAllUndecodable) {
  EXPECT_EQ(evaluate_playout({}, from_millis(100), 0).frames_total, 0);
  std::vector<FrameArrival> bad = {{0, kSecond, false}, {1, 2 * kSecond, false}};
  const PlayoutReport report = evaluate_playout(bad, from_millis(100), 0);
  EXPECT_EQ(report.frames_total, 2);
  EXPECT_EQ(report.frames_late, 2);
}

}  // namespace
}  // namespace pels
