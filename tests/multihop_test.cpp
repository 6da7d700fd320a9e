// Multi-bottleneck (parking-lot) integration tests: the max-min
// most-congested-router feedback semantics of paper §5.2, on a two-hop
// DumbbellScenario chain.
#include <gtest/gtest.h>

#include <stdexcept>

#include "analysis/stability.h"
#include "pels/scenario.h"
#include "util/stats.h"

namespace pels {
namespace {

// Flow 0 crosses both hops, flow 1 only hop 0 (router 1), flows 2..4 only
// hop 1 (router 2).
constexpr std::int32_t kRouter1 = 1;
constexpr std::int32_t kRouter2 = 2;

ScenarioConfig base_config(int cross_hop1 = 1, int cross_hop2 = 3) {
  ScenarioConfig cfg = parking_lot_config(cross_hop1, cross_hop2);
  cfg.seed = 11;
  return cfg;
}

TEST(ParkingLotTest, LongFlowBindsToMostCongestedRouter) {
  // Hop 2 carries the long flow plus three cross flows; hop 1 only one cross
  // flow. Hop 2 is therefore the tighter resource, and the label the long
  // flow consumes must come from router 2.
  DumbbellScenario s(base_config());
  s.run_until(30 * kSecond);
  EXPECT_EQ(s.source(0).governing_router(), kRouter2);
}

TEST(ParkingLotTest, MaxMinAllocationAcrossHops) {
  // The long flow gets the same share as its hop-2 peers (4 flows on the
  // 2 mb/s PELS class: r* ~ 540 kb/s), while the hop-1 cross flow soaks up
  // hop 1's leftover (~1.5 mb/s +): max-min, not proportional fairness.
  ScenarioConfig cfg = base_config();
  DumbbellScenario s(cfg);
  const SimTime duration = 40 * kSecond;
  s.run_until(duration);

  const double r_long = s.source(0).rate_series().mean_in(20 * kSecond, duration);
  const double r_hop2 = s.source(2).rate_series().mean_in(20 * kSecond, duration);
  const double r_hop1 = s.source(1).rate_series().mean_in(20 * kSecond, duration);
  const double r_star_hop2 =
      mkc_stationary_rate(s.pels_queue(1)->pels_capacity_bps(), 4, cfg.mkc.alpha_bps,
                          cfg.mkc.beta);
  EXPECT_NEAR(r_long, r_star_hop2, r_star_hop2 * 0.10);
  EXPECT_NEAR(r_hop2, r_star_hop2, r_star_hop2 * 0.10);
  // Hop 1's cross flow takes the slack the long flow leaves on hop 1.
  EXPECT_GT(r_hop1, 2.0 * r_long);
}

TEST(ParkingLotTest, BothHopsStayFullyUtilized) {
  DumbbellScenario s(base_config());
  const SimTime duration = 40 * kSecond;
  s.run_until(duration);
  const double r_long = s.source(0).rate_series().mean_in(20 * kSecond, duration);
  const double r_hop1 = s.source(1).rate_series().mean_in(20 * kSecond, duration);
  double hop2_sum = r_long;
  for (int i = 0; i < 3; ++i)
    hop2_sum += s.source(2 + i).rate_series().mean_in(20 * kSecond, duration);
  // Demand slightly exceeds capacity at equilibrium (the alpha/beta
  // overshoot); both PELS classes are saturated.
  EXPECT_GT(r_long + r_hop1, s.pels_queue(0)->pels_capacity_bps());
  EXPECT_GT(hop2_sum, s.pels_queue(1)->pels_capacity_bps());
}

TEST(ParkingLotTest, BottleneckShiftIsTracked) {
  // Reversed cross loads: hop 1 is the tight link from the start, so the long
  // flow's governing router is router 1 (MultiHopTest covers a shift within
  // one run).
  DumbbellScenario s(base_config(3, 1));
  s.run_until(30 * kSecond);
  EXPECT_EQ(s.source(0).governing_router(), kRouter1);
}

TEST(ParkingLotTest, UnequalCapacitiesBindTighterLink) {
  ScenarioConfig cfg = base_config(2, 2);
  DumbbellScenario s(cfg);
  s.set_bottleneck_bandwidth(2e6, 0);  // PELS share 1 mb/s
  s.set_bottleneck_bandwidth(6e6, 1);  // PELS share 3 mb/s
  // Link 2h is hop h's forward wire; both it and the AQM take the new rate.
  EXPECT_EQ(s.topology().link(2).bandwidth_bps(), 6e6);
  EXPECT_EQ(s.pels_queue(1)->pels_capacity_bps(), 3e6);
  EXPECT_EQ(s.topology().link(0).bandwidth_bps(), 2e6);
  const SimTime duration = 40 * kSecond;
  s.run_until(duration);
  EXPECT_EQ(s.source(0).governing_router(), kRouter1);
  const double r_long = s.source(0).rate_series().mean_in(20 * kSecond, duration);
  const double r_star_hop1 =
      mkc_stationary_rate(s.pels_queue(0)->pels_capacity_bps(), 3, cfg.mkc.alpha_bps,
                          cfg.mkc.beta);
  EXPECT_NEAR(r_long, r_star_hop1, r_star_hop1 * 0.12);
}

TEST(ParkingLotTest, GammaProtectsYellowOnBothHops) {
  DumbbellScenario s(base_config());
  s.run_until(60 * kSecond);
  for (PelsQueue* q : {s.pels_queue(0), s.pels_queue(1)}) {
    const auto& c = q->counters();
    const auto y = static_cast<std::size_t>(Color::kYellow);
    if (c.arrivals[y] == 0) continue;
    const double yellow_loss =
        static_cast<double>(c.drops[y]) / static_cast<double>(c.arrivals[y]);
    EXPECT_LT(yellow_loss, 0.03);
    EXPECT_EQ(c.drops[static_cast<std::size_t>(Color::kGreen)], 0u);
  }
}

TEST(ParkingLotTest, LongFlowUtilityStaysHigh) {
  // Crossing two priority AQMs must not break the consecutive-prefix
  // property: drops still concentrate in red at whichever hop is tight.
  DumbbellScenario s(base_config());
  s.run_until(40 * kSecond);
  s.finish();
  EXPECT_GT(s.sink(0).mean_utility(), 0.9);
}

TEST(ParkingLotTest, Deterministic) {
  auto run = [] {
    DumbbellScenario s(base_config());
    s.run_until(10 * kSecond);
    return std::pair{s.source(0).rate_bps(), s.pels_queue(1)->counters().total_drops()};
  };
  EXPECT_EQ(run(), run());
}

TEST(MultiHopTest, MidRunBottleneckShiftIsTracked) {
  // §5.2: end flows "react to possible shifts of the bottlenecks". With the
  // 1/3 split hop 2 governs; cutting hop 1 to 1.5 mb/s (PELS share 0.75 mb/s
  // for two flows) at 30 s makes it the tighter hop, and router 1's labels
  // must then win the long flow's header.
  DumbbellScenario s(base_config());
  s.run_until(30 * kSecond);
  ASSERT_EQ(s.source(0).governing_router(), kRouter2);
  s.set_bottleneck_bandwidth(1.5e6, 0);
  s.run_until(35 * kSecond);
  const std::uint64_t r1_before = s.source(0).feedback_consumed(kRouter1);
  const std::uint64_t r2_before = s.source(0).feedback_consumed(kRouter2);
  s.run_until(60 * kSecond);
  const std::uint64_t r1_gain = s.source(0).feedback_consumed(kRouter1) - r1_before;
  const std::uint64_t r2_gain = s.source(0).feedback_consumed(kRouter2) - r2_before;
  EXPECT_GT(r1_gain, r2_gain);
}

TEST(MultiHopTest, ValidationRejectsBadPaths) {
  {
    ScenarioConfig cfg = base_config();
    cfg.pels_paths[1] = {1, 1};  // first >= last
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.pels_paths[1] = {2, 1};
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    ScenarioConfig cfg = base_config();
    cfg.pels_paths[1] = {-1, 1};  // negative router index
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  for (const BottleneckKind kind : {BottleneckKind::kBestEffort, BottleneckKind::kRem}) {
    ScenarioConfig cfg = base_config();
    cfg.bottleneck = kind;  // a comparator may not span two hops
    EXPECT_THROW(DumbbellScenario{cfg}, std::invalid_argument);
    cfg.pels_paths.clear();
    EXPECT_NO_THROW(cfg.validate());
  }
  EXPECT_NO_THROW(base_config().validate());
}

TEST(MultiHopTest, ExplicitOneHopPathIsTheDumbbell) {
  ScenarioConfig plain;
  ScenarioConfig explicit_path;
  explicit_path.pels_paths = {{0, 1}};
  DumbbellScenario a(plain);
  DumbbellScenario b(explicit_path);
  EXPECT_EQ(a.config().hop_count(), 1);
  EXPECT_EQ(b.config().hop_count(), 1);
  EXPECT_EQ(a.topology().link_count(), b.topology().link_count());
  ASSERT_EQ(a.topology().node_count(), b.topology().node_count());
  for (std::size_t i = 0; i < a.topology().node_count(); ++i) {
    const auto id = static_cast<NodeId>(i);
    EXPECT_EQ(a.topology().node(id).name(), b.topology().node(id).name());
  }
}

TEST(MultiHopTest, InvariantsHoldOnBothHopsUnderFaults) {
  // The parking lot under the dumbbell's invariant monitor, with a link flap
  // and a router restart on hop 0: every check, including the band bounds
  // of both PELS hops, must hold for the whole run.
  ScenarioConfig cfg = base_config();
  cfg.invariants.enabled = true;
  cfg.invariants.abort_on_violation = true;
  cfg.faults.link_flaps.push_back({5 * kSecond, 5 * kSecond + from_millis(300)});
  cfg.faults.router_restarts.push_back({12 * kSecond});

  ScenarioConfig one_hop = cfg;
  one_hop.pels_flows = 2;
  one_hop.pels_paths.clear();
  const std::size_t one_hop_checks = DumbbellScenario(one_hop).invariant_monitor()->check_count();

  DumbbellScenario s(cfg);
  ASSERT_EQ(s.config().hop_count(), 2);
  // One band-bounds check per PELS hop: the second hop adds exactly one.
  EXPECT_EQ(s.invariant_monitor()->check_count(), one_hop_checks + 1);
  EXPECT_NO_THROW(s.run_until(20 * kSecond));
  s.finish();
  EXPECT_GT(s.invariant_monitor()->ticks(), 0u);
  EXPECT_EQ(s.invariant_monitor()->violation_count(), 0u);
}

}  // namespace
}  // namespace pels
