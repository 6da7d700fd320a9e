// FlowTable unit tests: slot lifecycle and the bit-for-bit equivalence of
// the single-flow path (SlotController handles over apply_*) and the staged
// batch path (the determinism contract stated in cc/flow_table.h).
#include <gtest/gtest.h>

#include <vector>

#include "cc/flow_table.h"
#include "one_flow.h"
#include "util/rng.h"

namespace pels {
namespace {

MkcConfig mkc_config() {
  MkcConfig cfg;  // defaults match the paper's operating point
  return cfg;
}

GammaConfig gamma_config() {
  GammaConfig cfg;
  return cfg;
}

TEST(FlowTableTest, SlotsAllocateDenselyAndReuseLifo) {
  FlowTable table(mkc_config(), gamma_config());
  const FlowSlot a = table.add_flow();
  const FlowSlot b = table.add_flow();
  const FlowSlot c = table.add_flow();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.capacity(), 3u);

  table.remove_flow(b);
  EXPECT_FALSE(table.is_live(b));
  EXPECT_EQ(table.size(), 2u);

  // Freed slots come back LIFO; the columns never grow for reuse.
  const FlowSlot d = table.add_flow();
  EXPECT_EQ(d, b);
  EXPECT_TRUE(table.is_live(d));
  EXPECT_EQ(table.capacity(), 3u);

  // A reused slot starts from the configured initial state, not the
  // previous occupant's.
  EXPECT_DOUBLE_EQ(table.rate_bps(d), mkc_config().initial_rate_bps);
  EXPECT_DOUBLE_EQ(table.gamma(d), gamma_config().initial_gamma);
  EXPECT_EQ(table.mkc_updates(d), 0u);
  EXPECT_FALSE(table.in_silence(d));
}

TEST(FlowTableTest, ExplicitInitialStateOverload) {
  FlowTable table(mkc_config(), gamma_config());
  const FlowSlot s = table.add_flow(512e3, 0.25);
  EXPECT_DOUBLE_EQ(table.rate_bps(s), 512e3);
  EXPECT_DOUBLE_EQ(table.gamma(s), 0.25);
}

TEST(FlowTableTest, ReserveKeepsColumnsStable) {
  FlowTable table(mkc_config(), gamma_config());
  table.reserve(64);
  const FlowSlot first = table.add_flow();
  const double* cell = &table.paced_rate_ref(first);
  for (int i = 1; i < 64; ++i) table.add_flow();
  // No column reallocated within the reserved population, so the reference
  // taken before the adds is still the live cell.
  EXPECT_EQ(cell, &table.paced_rate_ref(first));
}

// The core contract: any interleaving of feedback / silence / gamma inputs
// produces exactly the same doubles through the per-flow handles (single-flow
// apply path) and through the staged batch path.
TEST(FlowTableTest, BatchTickMatchesPerObjectBitForBit) {
  const MkcConfig mkc = mkc_config();
  const GammaConfig gc = gamma_config();
  constexpr int kFlows = 17;

  FlowTable single(mkc, gc);
  std::vector<SlotController> ctrls;
  FlowTable table(mkc, gc);
  for (int i = 0; i < kFlows; ++i) {
    ctrls.emplace_back(single, single.add_flow());
    table.add_flow();
  }

  Rng rng(11, 0xBA7C);
  for (int tick = 0; tick < 400; ++tick) {
    std::size_t feedbacks = 0;
    std::size_t silences = 0;
    std::size_t gamma_updates = 0;
    for (int i = 0; i < kFlows; ++i) {
      const auto slot = static_cast<FlowSlot>(i);
      const int op = static_cast<int>(rng.uniform_int(0, 3));  // 3 = idle
      if (op == 0) {
        const double p = rng.uniform(-2.0, 0.9);
        ctrls[static_cast<std::size_t>(i)].on_router_feedback(p, 0);
        table.stage_feedback(slot, p);
        ++feedbacks;
      } else if (op == 1) {
        ctrls[static_cast<std::size_t>(i)].on_feedback_silence(0);
        table.stage_silence(slot);
        ++silences;
      }
      if (op != 3 && rng.bernoulli(0.5)) {
        const double p_fgs = rng.uniform(0.0, 1.0);
        single.apply_gamma(slot, p_fgs);
        table.stage_gamma(slot, p_fgs);
        ++gamma_updates;
      }
    }
    const FlowTable::BatchStats stats = table.batch_control_tick();
    ASSERT_EQ(stats.feedback_applied, feedbacks);
    ASSERT_EQ(stats.silences, silences);
    ASSERT_EQ(stats.gamma_updates, gamma_updates);
    for (int i = 0; i < kFlows; ++i) {
      const auto slot = static_cast<FlowSlot>(i);
      ASSERT_EQ(ctrls[static_cast<std::size_t>(i)].rate_bps(), table.rate_bps(slot))
          << "tick " << tick << " flow " << i;
      ASSERT_EQ(single.gamma(slot), table.gamma(slot))
          << "tick " << tick << " flow " << i;
    }
  }
}

TEST(FlowTableTest, StagedFeedbackSupersedesSilenceEitherOrder) {
  const MkcConfig mkc = mkc_config();
  FlowTable table(mkc, gamma_config());
  const FlowSlot a = table.add_flow();
  const FlowSlot b = table.add_flow();

  // Reference: a flow that receives only the feedback.
  OneFlow ref(CcKind::kMkc, mkc);
  ref.cc.on_router_feedback(0.1, 0);

  table.stage_silence(a);
  table.stage_feedback(a, 0.1);  // fresh label ends the silence episode
  table.stage_feedback(b, 0.1);
  table.stage_silence(b);  // stale watchdog racing a fresh label: ignored
  const FlowTable::BatchStats stats = table.batch_control_tick();
  EXPECT_EQ(stats.feedback_applied, 2u);
  EXPECT_EQ(stats.silences, 0u);
  EXPECT_EQ(table.rate_bps(a), ref.cc.rate_bps());
  EXPECT_EQ(table.rate_bps(b), ref.cc.rate_bps());
  EXPECT_EQ(table.silence_ticks(a), 0u);
  EXPECT_EQ(table.silence_ticks(b), 0u);
}

TEST(FlowTableTest, StagedInputLatestWinsWithinTick) {
  FlowTable table(mkc_config(), gamma_config());
  const FlowSlot s = table.add_flow();
  OneFlow ref(CcKind::kMkc, mkc_config());

  table.stage_feedback(s, 0.5);
  table.stage_feedback(s, 0.1);  // supersedes within the tick
  table.batch_control_tick();
  ref.cc.on_router_feedback(0.1, 0);
  EXPECT_EQ(table.rate_bps(s), ref.cc.rate_bps());
  EXPECT_EQ(table.mkc_updates(s), 1u);
}

TEST(FlowTableTest, RemovedFlowDropsItsStagedInput) {
  FlowTable table(mkc_config(), gamma_config());
  const FlowSlot keep = table.add_flow();
  const FlowSlot gone = table.add_flow();
  table.stage_feedback(keep, 0.1);
  table.stage_feedback(gone, 0.1);
  table.remove_flow(gone);
  const FlowTable::BatchStats stats = table.batch_control_tick();
  EXPECT_EQ(stats.feedback_applied, 1u);
  EXPECT_EQ(table.mkc_updates(keep), 1u);
}

}  // namespace
}  // namespace pels
