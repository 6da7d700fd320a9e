// Tests for src/fault: loss-process statistics and determinism, fault-plan
// validation, and the injector's link-level effects (flaps, brown-outs,
// blackouts). Scenario-level degradation behavior lives in robustness_test.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/loss_process.h"
#include "net/link.h"
#include "net/node.h"
#include "pels/pels_sink.h"
#include "queue/drop_tail.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "video/rd_model.h"

namespace pels {
namespace {

// ------------------------------------------------------- Gilbert–Elliott

TEST(GilbertElliottTest, ValidateRejectsBadParameters) {
  GilbertElliottConfig ok;
  EXPECT_NO_THROW(ok.validate());

  GilbertElliottConfig c = ok;
  c.p_good_to_bad = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = ok;
  c.p_bad_to_good = 1.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = ok;
  c.loss_bad = 1.2;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = ok;
  c.loss_good = -0.1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(GilbertElliottTest, StationaryLossMatchesTheory) {
  // pi_bad = 0.01 / 0.21, loss_bad = 1: long-run loss ~ 4.76%.
  GilbertElliottConfig cfg;
  cfg.p_good_to_bad = 0.01;
  cfg.p_bad_to_good = 0.20;
  cfg.loss_good = 0.0;
  cfg.loss_bad = 1.0;
  GilbertElliottLoss ge(cfg, Rng(42, 7));
  const int n = 200'000;
  int lost = 0;
  for (int i = 0; i < n; ++i) lost += ge.lost(i) ? 1 : 0;
  const double empirical = static_cast<double>(lost) / n;
  EXPECT_NEAR(empirical, cfg.stationary_loss(), cfg.stationary_loss() * 0.1);
}

TEST(GilbertElliottTest, MeanBurstLengthMatchesTheory) {
  // With loss_bad = 1 and loss_good = 0, loss runs ARE bad-state sojourns:
  // geometric with mean 1 / p_bad_to_good = 5 packets.
  GilbertElliottConfig cfg;
  cfg.p_good_to_bad = 0.01;
  cfg.p_bad_to_good = 0.20;
  cfg.loss_good = 0.0;
  cfg.loss_bad = 1.0;
  GilbertElliottLoss ge(cfg, Rng(42, 8));
  int bursts = 0;
  std::int64_t lost = 0;
  bool in_burst = false;
  for (int i = 0; i < 500'000; ++i) {
    const bool l = ge.lost(i);
    if (l) {
      ++lost;
      if (!in_burst) ++bursts;
    }
    in_burst = l;
  }
  ASSERT_GT(bursts, 100);
  const double mean_burst = static_cast<double>(lost) / bursts;
  EXPECT_NEAR(mean_burst, 1.0 / cfg.p_bad_to_good, 0.15 * (1.0 / cfg.p_bad_to_good));
}

TEST(GilbertElliottTest, BurstsAreBurstierThanBernoulli) {
  // Same long-run loss rate, very different clustering: the GE chain's
  // lost packets must neighbor other lost packets far more often than an
  // i.i.d. process at the same rate.
  GilbertElliottConfig cfg;
  cfg.p_good_to_bad = 0.01;
  cfg.p_bad_to_good = 0.20;
  cfg.loss_good = 0.0;
  cfg.loss_bad = 1.0;
  GilbertElliottLoss ge(cfg, Rng(9, 1));
  BernoulliLoss iid(cfg.stationary_loss(), Rng(9, 2));
  const int n = 200'000;
  auto adjacency = [n](auto& process) {
    int pairs = 0;
    bool prev = false;
    for (int i = 0; i < n; ++i) {
      const bool l = process.lost(i);
      if (l && prev) ++pairs;
      prev = l;
    }
    return pairs;
  };
  EXPECT_GT(adjacency(ge), 5 * adjacency(iid));
}

TEST(GilbertElliottTest, DeterministicGivenSeed) {
  GilbertElliottConfig cfg;
  GilbertElliottLoss a(cfg, Rng(123, 5));
  GilbertElliottLoss b(cfg, Rng(123, 5));
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_EQ(a.lost(i), b.lost(i)) << "diverged at draw " << i;
  }
}

// --------------------------------------------------------------- Blackout

TEST(BlackoutLossTest, WindowMembershipIsHalfOpen) {
  BlackoutLoss loss({{10 * kSecond, 20 * kSecond}, {30 * kSecond, 31 * kSecond}});
  EXPECT_FALSE(loss.lost(9 * kSecond));
  EXPECT_TRUE(loss.lost(10 * kSecond));
  EXPECT_TRUE(loss.lost(15 * kSecond));
  EXPECT_FALSE(loss.lost(20 * kSecond));
  EXPECT_TRUE(loss.lost(30 * kSecond + kSecond / 2));
  EXPECT_FALSE(loss.lost(31 * kSecond));
}

// -------------------------------------------------------------- FaultPlan

TEST(FaultPlanTest, EmptyPlanIsEmptyAndValid) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_NO_THROW(plan.validate());
  plan.burst_corruption = GilbertElliottConfig{};
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanTest, ValidateRejectsNonsense) {
  {
    FaultPlan p;
    p.link_flaps.push_back({5 * kSecond, 5 * kSecond});  // empty window
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.brownouts.push_back({1 * kSecond, 2 * kSecond, 0.0});  // dead link != brown-out
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.brownouts.push_back({1 * kSecond, 2 * kSecond, 1.5});  // not a degradation
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.router_restarts.push_back({-1});
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.ack_blackouts.push_back({3 * kSecond, 2 * kSecond});  // until < at
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    FaultPlan p;
    GilbertElliottConfig ge;
    ge.p_bad_to_good = 0.0;
    p.burst_corruption = ge;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
}

// ------------------------------------------------------- link-level faults

class RecordingNode : public Node {
 public:
  RecordingNode(NodeId id, Simulation& sim) : Node(id, "rec"), sim_(sim) {}
  void receive(Packet&& pkt) override { arrivals.emplace_back(sim_.now(), std::move(pkt)); }
  std::vector<std::pair<SimTime, Packet>> arrivals;

 private:
  Simulation& sim_;
};

Packet make_packet(std::int32_t size) {
  Packet p;
  p.size_bytes = size;
  p.color = Color::kGreen;
  return p;
}

TEST(LinkFaultTest, FlapLosesWirePacketAndResumesOnRecovery) {
  Simulation sim;
  RecordingNode dst(0, sim);
  // 500 bytes at 4 mb/s = 1 ms serialization, no propagation delay.
  Link link(sim, dst, 4e6, 0, std::make_unique<DropTailQueue>(16));
  FaultInjector injector(sim);
  // Down mid-serialization of the first packet; up again at 10 ms.
  injector.inject_flap(link, {from_micros(500), from_millis(10)});
  sim.at(0, [&] { link.send(make_packet(500)); });       // on the wire at down-time
  sim.at(from_millis(2), [&] { link.send(make_packet(500)); });  // queued while down
  sim.run_until(from_millis(9));
  EXPECT_FALSE(link.is_up());
  EXPECT_TRUE(dst.arrivals.empty());  // carrier loss killed packet 1
  EXPECT_EQ(link.packets_corrupted(), 1u);
  sim.run_until(from_millis(20));
  EXPECT_TRUE(link.is_up());
  ASSERT_EQ(dst.arrivals.size(), 1u);
  EXPECT_EQ(dst.arrivals[0].first, from_millis(11));  // restarted at 10, 1 ms wire
}

TEST(LinkFaultTest, BrownoutScalesBandwidthAndRestores) {
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 4e6, 0, std::make_unique<DropTailQueue>(16));
  FaultInjector injector(sim);
  std::vector<double> hook_rates;
  injector.inject_brownout(link, {from_millis(1), from_millis(10), 0.25},
                           [&](double bw) { hook_rates.push_back(bw); });
  sim.run_until(from_millis(5));
  EXPECT_DOUBLE_EQ(link.bandwidth_bps(), 1e6);
  sim.run_until(from_millis(11));
  EXPECT_DOUBLE_EQ(link.bandwidth_bps(), 4e6);
  ASSERT_EQ(hook_rates.size(), 2u);
  EXPECT_DOUBLE_EQ(hook_rates[0], 1e6);
  EXPECT_DOUBLE_EQ(hook_rates[1], 4e6);
}

TEST(LinkFaultTest, BlackoutWindowDropsEveryWirePacket) {
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 4e6, 0, std::make_unique<DropTailQueue>(64));
  FaultInjector injector(sim);
  injector.inject_blackouts(link, {{from_millis(10), from_millis(20)}});
  // One packet per 2 ms for 30 ms: those whose serialization *ends* inside
  // [10, 20) ms are corrupted on the wire.
  for (int i = 0; i < 15; ++i) {
    sim.at(from_millis(2 * i), [&] { link.send(make_packet(500)); });
  }
  sim.run();
  EXPECT_EQ(link.packets_corrupted(), 5u);   // ends at 11, 13, 15, 17, 19 ms
  EXPECT_EQ(dst.arrivals.size(), 10u);
}

TEST(LinkFaultTest, CorruptionProcessesComposeWithoutShortCircuit) {
  // Both processes must see every packet: a blackout covering the whole run
  // may not starve the GE chain of draws, or replays that add/remove one
  // process would perturb the other's state sequence.
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 4e6, 0, std::make_unique<DropTailQueue>(64));
  int ge_draws = 0;
  link.add_corruption([&](SimTime) { ++ge_draws; return false; });
  link.add_corruption(BlackoutLoss({{0, kSecond}}));
  for (int i = 0; i < 10; ++i) {
    sim.at(from_millis(2 * i), [&] { link.send(make_packet(500)); });
  }
  sim.run();
  EXPECT_EQ(ge_draws, 10);
  EXPECT_EQ(dst.arrivals.size(), 0u);
  EXPECT_EQ(link.packets_corrupted(), 10u);
}

// ------------------------------------------------- sink duplicate tolerance

TEST(SinkFaultTest, DuplicateDataPacketsAreCountedOnce) {
  Simulation sim;
  Host host(1, "sink-host");
  VideoConfig video;
  RdModel rd{RdModelConfig{}};
  PelsSink sink(sim, host, /*flow=*/0, /*src_node=*/2, video, rd);

  Packet base;
  base.flow = 0;
  base.seq = 1;
  base.uid = 101;
  base.size_bytes = 500;
  base.color = Color::kGreen;
  base.frame_id = 0;
  base.frame_offset = -500;  // base-layer bytes
  sink.on_packet(base);
  sink.on_packet(base);  // duplicated in flight

  Packet fgs;
  fgs.flow = 0;
  fgs.seq = 2;
  fgs.uid = 102;
  fgs.size_bytes = 500;
  fgs.color = Color::kYellow;
  fgs.frame_id = 0;
  fgs.frame_offset = 0;
  sink.on_packet(fgs);
  sink.on_packet(fgs);
  sink.on_packet(fgs);

  EXPECT_EQ(sink.packets_received(Color::kGreen), 1u);
  EXPECT_EQ(sink.packets_received(Color::kYellow), 1u);
  EXPECT_EQ(sink.fgs_bytes_received(), 500u);
  EXPECT_EQ(sink.duplicates_ignored(), 3u);

  sink.finalize_all();
  ASSERT_EQ(sink.frame_qualities().size(), 1u);
  EXPECT_EQ(sink.frame_qualities()[0].received_fgs_bytes, 500);
}

TEST(SinkFaultTest, ReorderedPacketsOfOpenFramesStillAssemble) {
  // Interleave two frames' packets out of order; both must assemble with
  // their own bytes, and a duplicate arriving after the reorder still only
  // counts once.
  Simulation sim;
  Host host(1, "sink-host");
  VideoConfig video;
  RdModel rd{RdModelConfig{}};
  PelsSink sink(sim, host, 0, 2, video, rd);

  auto pkt = [&video](std::uint64_t uid, std::int64_t frame, std::int64_t offset,
                      Color color) {
    Packet p;
    p.flow = 0;
    p.uid = uid;
    // A full base layer in one packet, so base_ok is decided by delivery
    // alone; FGS chunks stay packet-sized.
    p.size_bytes = offset < 0 ? static_cast<std::int32_t>(video.base_layer_bytes) : 500;
    p.color = color;
    p.frame_id = frame;
    p.frame_offset = static_cast<std::int32_t>(offset);
    return p;
  };
  sink.on_packet(pkt(1, 0, -500, Color::kGreen));
  sink.on_packet(pkt(4, 1, 0, Color::kYellow));    // frame 1 before frame 0 done
  sink.on_packet(pkt(2, 0, 0, Color::kYellow));
  sink.on_packet(pkt(3, 1, -500, Color::kGreen));  // frame 1 base after its FGS
  sink.on_packet(pkt(2, 0, 0, Color::kYellow));    // late duplicate

  EXPECT_EQ(sink.duplicates_ignored(), 1u);
  sink.finalize_all();
  ASSERT_EQ(sink.frame_qualities().size(), 2u);
  for (const auto& q : sink.frame_qualities()) {
    EXPECT_TRUE(q.base_ok);
    EXPECT_EQ(q.received_fgs_bytes, 500);
  }
}

}  // namespace
}  // namespace pels
