#include "cc/flow_table.h"

#include <cassert>

namespace pels {

const char* cc_kind_name(CcKind kind) {
  switch (kind) {
    case CcKind::kMkc: return "MKC";
    case CcKind::kCubic: return "CUBIC";
    case CcKind::kDcqcn: return "DCQCN";
    case CcKind::kSwift: return "Swift";
    case CcKind::kScream: return "SCReAM-lite";
  }
  return "?";
}

FlowTable::FlowTable(MkcConfig mkc, GammaConfig gamma, CcZooConfig zoo)
    : mkc_(mkc), gamma_cfg_(gamma), zoo_cfg_(zoo) {
  // Domain checks of every control law; unstable gamma gains stay allowed on
  // purpose (Figure 5 demonstrates divergence).
  [[maybe_unused]] const auto rates_ok = [](double lo, double init, double hi) {
    return lo > 0.0 && lo <= init && init <= hi;
  };
  assert(mkc_.alpha_bps > 0.0);
  assert(mkc_.beta > 0.0 && mkc_.beta < 2.0 && "MKC is stable only for beta in (0, 2)");
  assert(rates_ok(mkc_.min_rate_bps, mkc_.initial_rate_bps, mkc_.max_rate_bps));
  assert(gamma_cfg_.p_thr > 0.0 && gamma_cfg_.p_thr <= 1.0);
  assert(gamma_cfg_.gamma_low >= 0.0 && gamma_cfg_.gamma_low < gamma_cfg_.gamma_high &&
         gamma_cfg_.gamma_high <= 1.0);
  assert(gamma_cfg_.initial_gamma >= gamma_cfg_.gamma_low &&
         gamma_cfg_.initial_gamma <= gamma_cfg_.gamma_high);
  [[maybe_unused]] const CubicConfig& cu = zoo_cfg_.cubic;
  assert(cu.c > 0.0 && cu.beta > 0.0 && cu.beta < 1.0);
  assert(cu.ecn_beta > 0.0 && cu.ecn_beta < 1.0 && cu.mss_bytes > 0.0);
  assert(cu.min_cwnd_pkts > 0.0 && cu.min_cwnd_pkts <= cu.initial_cwnd_pkts);
  assert(cu.initial_rtt > 0);
  [[maybe_unused]] const DcqcnConfig& dc = zoo_cfg_.dcqcn;
  assert(dc.alpha_g > 0.0 && dc.alpha_g <= 1.0);
  assert(dc.initial_alpha >= 0.0 && dc.initial_alpha <= 1.0);
  assert(dc.rate_ai_bps > 0.0 && dc.fast_recovery_stages >= 0);
  assert(rates_ok(dc.min_rate_bps, dc.initial_rate_bps, dc.max_rate_bps));
  [[maybe_unused]] const SwiftConfig& sw = zoo_cfg_.swift;
  assert(sw.q_low >= 0 && sw.q_low < sw.q_high && sw.gradient_scale > 0);
  assert(sw.ai_bps > 0.0 && sw.md_gain > 0.0 && sw.md_gain <= 1.0);
  assert(rates_ok(sw.min_rate_bps, sw.initial_rate_bps, sw.max_rate_bps));
  [[maybe_unused]] const ScreamLiteConfig& sc = zoo_cfg_.scream;
  assert(sc.qdelay_target > 0 && sc.increase_bps > 0.0);
  assert(sc.decrease_gain > 0.0 && sc.decrease_gain <= 1.0);
  assert(sc.loss_beta > 0.0 && sc.loss_beta < 1.0);
  assert(sc.mark_beta > 0.0 && sc.mark_beta < 1.0 && sc.max_tick_growth > 1.0);
  assert(rates_ok(sc.min_rate_bps, sc.initial_rate_bps, sc.max_rate_bps));
}

void FlowTable::reserve(std::size_t flows) {
  rate_.reserve(flows);
  gamma_col_.reserve(flows);
  paced_rate_.reserve(flows);
  recovery_left_.reserve(flows);
  flags_.reserve(flows);
  mkc_updates_.reserve(flows);
  silence_ticks_.reserve(flows);
  gamma_updates_.reserve(flows);
  staged_loss_.reserve(flows);
  staged_fgs_loss_.reserve(flows);
  staged_.reserve(flows);
  free_slots_.reserve(flows);
  if (zoo_enabled_) {
    kind_.reserve(flows);
    srtt_.reserve(flows);
    zoo_win_.reserve(flows);
    zoo_a_.reserve(flows);
    zoo_b_.reserve(flows);
    zoo_t_.reserve(flows);
    zoo_t2_.reserve(flows);
    zoo_stage_.reserve(flows);
    staged_rtt_.reserve(flows);
    staged_iloss_.reserve(flows);
    staged_mark_.reserve(flows);
  }
}

void FlowTable::enable_zoo() {
  if (zoo_enabled_) return;
  zoo_enabled_ = true;
  const std::size_t n = rate_.size();
  // Back-fill for already-allocated slots: all pre-zoo flows are MKC.
  kind_.assign(n, static_cast<std::uint8_t>(CcKind::kMkc));
  srtt_.assign(n, 0);
  zoo_win_.assign(n, 0.0);
  zoo_a_.assign(n, 0.0);
  zoo_b_.assign(n, 0.0);
  zoo_t_.assign(n, 0);
  zoo_t2_.assign(n, 0);
  zoo_stage_.assign(n, 0);
  staged_rtt_.assign(n, 0);
  staged_iloss_.assign(n, 0.0);
  staged_mark_.assign(n, 0.0);
}

double FlowTable::initial_rate_for(const MkcConfig& mkc, const CcZooConfig& zoo,
                                   CcKind kind) {
  switch (kind) {
    case CcKind::kMkc: return mkc.initial_rate_bps;
    case CcKind::kCubic:
      return cubic_rate_from_cwnd(zoo.cubic, zoo.cubic.initial_cwnd_pkts, 0);
    case CcKind::kDcqcn: return zoo.dcqcn.initial_rate_bps;
    case CcKind::kSwift: return zoo.swift.initial_rate_bps;
    case CcKind::kScream: return zoo.scream.initial_rate_bps;
  }
  return mkc.initial_rate_bps;
}

FlowSlot FlowTable::add_flow() {
  return add_flow(mkc_.initial_rate_bps, gamma_cfg_.initial_gamma);
}

FlowSlot FlowTable::add_flow(CcKind kind) {
  const FlowSlot slot = add_flow();
  set_kind(slot, kind);
  return slot;
}

void FlowTable::set_kind(FlowSlot slot, CcKind kind) {
  assert(is_live(slot));
  if (kind != CcKind::kMkc) enable_zoo();
  rate_[slot] = initial_rate_for(mkc_, zoo_cfg_, kind);
  if (zoo_enabled_) init_zoo_slot(slot, kind);
}

FlowSlot FlowTable::add_flow(double initial_rate_bps, double initial_gamma) {
  FlowSlot slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<FlowSlot>(rate_.size());
    rate_.emplace_back();
    gamma_col_.emplace_back();
    paced_rate_.emplace_back();
    recovery_left_.emplace_back();
    flags_.emplace_back();
    mkc_updates_.emplace_back();
    silence_ticks_.emplace_back();
    gamma_updates_.emplace_back();
    staged_loss_.emplace_back();
    staged_fgs_loss_.emplace_back();
    staged_.emplace_back();
    if (zoo_enabled_) {
      kind_.emplace_back();
      srtt_.emplace_back();
      zoo_win_.emplace_back();
      zoo_a_.emplace_back();
      zoo_b_.emplace_back();
      zoo_t_.emplace_back();
      zoo_t2_.emplace_back();
      zoo_stage_.emplace_back();
      staged_rtt_.emplace_back();
      staged_iloss_.emplace_back();
      staged_mark_.emplace_back();
    }
  }
  rate_[slot] = initial_rate_bps;
  gamma_col_[slot] = initial_gamma;
  paced_rate_[slot] = 0.0;
  recovery_left_[slot] = 0;
  flags_[slot] = kLive;
  mkc_updates_[slot] = 0;
  silence_ticks_[slot] = 0;
  gamma_updates_[slot] = 0;
  staged_loss_[slot] = 0.0;
  staged_fgs_loss_[slot] = 0.0;
  staged_[slot] = 0;
  if (zoo_enabled_) init_zoo_slot(slot, CcKind::kMkc);
  ++live_count_;
  return slot;
}

void FlowTable::init_zoo_slot(FlowSlot slot, CcKind kind) {
  kind_[slot] = static_cast<std::uint8_t>(kind);
  srtt_[slot] = 0;
  zoo_win_[slot] = kind == CcKind::kCubic ? zoo_cfg_.cubic.initial_cwnd_pkts : 0.0;
  zoo_a_[slot] = kind == CcKind::kDcqcn ? zoo_cfg_.dcqcn.initial_rate_bps : 0.0;
  zoo_b_[slot] = kind == CcKind::kDcqcn ? zoo_cfg_.dcqcn.initial_alpha : 0.0;
  zoo_t_[slot] = 0;
  zoo_t2_[slot] = 0;
  zoo_stage_[slot] = 0;
  staged_rtt_[slot] = 0;
  staged_iloss_[slot] = 0.0;
  staged_mark_[slot] = 0.0;
}

void FlowTable::remove_flow(FlowSlot slot) {
  assert(is_live(slot) && "remove_flow on a dead or out-of-range slot");
  flags_[slot] = 0;
  staged_[slot] = 0;
  free_slots_.push_back(slot);
  --live_count_;
}

void FlowTable::apply_feedback(FlowSlot slot, double p) {
  assert(is_live(slot));
  if (kind(slot) != CcKind::kMkc) return;  // labels are MKC's signal only
  bool silent = (flags_[slot] & kSilent) != 0;
  mkc_feedback_step(mkc_, p, rate_[slot], silent, recovery_left_[slot],
                    mkc_updates_[slot]);
  flags_[slot] = static_cast<std::uint8_t>(silent ? flags_[slot] | kSilent
                                                  : flags_[slot] & ~kSilent);
}

void FlowTable::apply_silence(FlowSlot slot) {
  assert(is_live(slot));
  if (kind(slot) != CcKind::kMkc) return;  // zoo kinds do not steer by labels
  bool silent = (flags_[slot] & kSilent) != 0;
  mkc_silence_step(mkc_, rate_[slot], silent, silence_ticks_[slot]);
  flags_[slot] = static_cast<std::uint8_t>(silent ? flags_[slot] | kSilent
                                                  : flags_[slot] & ~kSilent);
}

double FlowTable::apply_gamma(FlowSlot slot, double p) {
  assert(is_live(slot));
  return gamma_update_step(gamma_cfg_, p, gamma_col_[slot], gamma_updates_[slot]);
}

void FlowTable::apply_rtt(FlowSlot slot, SimTime rtt) {
  assert(is_live(slot));
  if (!zoo_enabled_ || rtt <= 0) return;
  srtt_[slot] = rtt;
  // SCReAM additionally tracks the propagation-delay baseline on each
  // sample; Swift refreshes its minimum inside the tick kernel instead.
  if (kind(slot) == CcKind::kScream) scream_rtt_step(rtt, zoo_t2_[slot]);
}

void FlowTable::apply_loss_interval(FlowSlot slot, double p, SimTime now) {
  assert(is_live(slot));
  if (!zoo_enabled_ || p <= 0.0) return;
  switch (kind(slot)) {
    case CcKind::kCubic:
      cubic_event_step(zoo_cfg_.cubic, zoo_cfg_.cubic.beta, now, srtt_[slot],
                       zoo_win_[slot], zoo_a_[slot], zoo_b_[slot], zoo_t_[slot],
                       rate_[slot]);
      break;
    case CcKind::kDcqcn:
      dcqcn_mark_step(zoo_cfg_.dcqcn, rate_[slot], zoo_a_[slot], zoo_b_[slot],
                      zoo_stage_[slot]);
      break;
    case CcKind::kScream:
      scream_loss_step(zoo_cfg_.scream, p, rate_[slot]);
      break;
    case CcKind::kMkc:
    case CcKind::kSwift:
      break;  // MKC steers by labels, Swift by delay
  }
}

void FlowTable::apply_mark_fraction(FlowSlot slot, double f, SimTime now) {
  assert(is_live(slot));
  if (!zoo_enabled_) return;
  switch (kind(slot)) {
    case CcKind::kCubic:
      if (f > 0.0) {
        cubic_event_step(zoo_cfg_.cubic, zoo_cfg_.cubic.ecn_beta, now, srtt_[slot],
                         zoo_win_[slot], zoo_a_[slot], zoo_b_[slot], zoo_t_[slot],
                         rate_[slot]);
      }
      break;
    case CcKind::kDcqcn:
      if (f > 0.0) {
        dcqcn_mark_step(zoo_cfg_.dcqcn, rate_[slot], zoo_a_[slot], zoo_b_[slot],
                        zoo_stage_[slot]);
      } else {
        dcqcn_increase_step(zoo_cfg_.dcqcn, rate_[slot], zoo_a_[slot], zoo_b_[slot],
                            zoo_stage_[slot]);
      }
      break;
    case CcKind::kScream:
      if (f > 0.0) scream_mark_step(zoo_cfg_.scream, f, rate_[slot]);
      break;
    case CcKind::kMkc:
    case CcKind::kSwift:
      break;
  }
}

void FlowTable::apply_control_tick(FlowSlot slot, SimTime now) {
  assert(is_live(slot));
  if (!zoo_enabled_) return;
  switch (kind(slot)) {
    case CcKind::kCubic:
      cubic_tick_step(zoo_cfg_.cubic, now, srtt_[slot], zoo_win_[slot], zoo_a_[slot],
                      zoo_b_[slot], zoo_t_[slot], rate_[slot]);
      break;
    case CcKind::kSwift:
      swift_tick_step(zoo_cfg_.swift, srtt_[slot], zoo_t_[slot], zoo_t2_[slot],
                      rate_[slot]);
      break;
    case CcKind::kScream:
      scream_tick_step(zoo_cfg_.scream, srtt_[slot], zoo_t2_[slot], rate_[slot]);
      break;
    case CcKind::kMkc:
    case CcKind::kDcqcn:
      break;  // event-driven: no periodic update
  }
}

FlowTable::BatchStats FlowTable::batch_control_tick(SimTime now) {
  BatchStats out;
  const std::size_t n = rate_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t st = staged_[i];
    if (st == 0 || (flags_[i] & kLive) == 0) continue;
    const auto slot = static_cast<FlowSlot>(i);
    // Same per-flow order as a PelsSource driving its SlotController: RTT
    // samples land before the tick's deliveries; feedback supersedes
    // silence; gamma applies after the rate update; interval loss, then
    // marks, then the clocked update.
    if ((st & kStageRtt) != 0) {
      apply_rtt(slot, staged_rtt_[i]);
      ++out.rtt_applied;
    }
    if ((st & kStageFeedback) != 0) {
      apply_feedback(slot, staged_loss_[i]);
      ++out.feedback_applied;
    } else if ((st & kStageSilence) != 0) {
      apply_silence(slot);
      ++out.silences;
    }
    if ((st & kStageGamma) != 0) {
      apply_gamma(slot, staged_fgs_loss_[i]);
      ++out.gamma_updates;
    }
    if ((st & kStageLoss) != 0) {
      apply_loss_interval(slot, staged_iloss_[i], now);
      ++out.losses_applied;
    }
    if ((st & kStageMark) != 0) {
      apply_mark_fraction(slot, staged_mark_[i], now);
      ++out.marks_applied;
    }
    if ((st & kStageTick) != 0) {
      apply_control_tick(slot, now);
      ++out.ticks_applied;
    }
    staged_[i] = 0;
  }
  return out;
}

SlotController::SlotController(FlowTable& table, FlowSlot slot)
    : table_(table), slot_(slot) {
  assert(table.is_live(slot) && "a controller handle needs an allocated slot");
}

void SlotController::register_metrics(MetricsRegistry& registry,
                                      const std::string& prefix) {
  CongestionController::register_metrics(registry, prefix);
  const FlowTable* t = &table_;
  const FlowSlot s = slot_;
  const auto qdelay_ms = [t, s] {
    const SimTime base = t->min_rtt(s);
    return base > 0 ? to_millis(t->srtt(s) - base) : 0.0;
  };
  switch (t->kind(s)) {
    case CcKind::kMkc:
      registry.add_probe(prefix + ".mkc_updates",
                         [t, s] { return static_cast<double>(t->mkc_updates(s)); });
      registry.add_probe(prefix + ".silence_ticks",
                         [t, s] { return static_cast<double>(t->silence_ticks(s)); });
      registry.add_probe(prefix + ".in_silence",
                         [t, s] { return t->in_silence(s) ? 1.0 : 0.0; });
      break;
    case CcKind::kCubic:
      registry.add_probe(prefix + ".cubic_cwnd_pkts", [t, s] { return t->cubic_cwnd(s); });
      registry.add_probe(prefix + ".cubic_wmax_pkts", [t, s] { return t->cubic_wmax(s); });
      break;
    case CcKind::kDcqcn:
      registry.add_probe(prefix + ".dcqcn_alpha", [t, s] { return t->dcqcn_alpha(s); });
      registry.add_probe(prefix + ".dcqcn_target_bps", [t, s] { return t->dcqcn_target(s); });
      break;
    case CcKind::kSwift:
      registry.add_probe(prefix + ".swift_qdelay_ms", qdelay_ms);
      break;
    case CcKind::kScream:
      registry.add_probe(prefix + ".scream_qdelay_ms", qdelay_ms);
      // Congestion window the reference rate implies at the current sRTT
      // (bytes in flight); 0 until the first RTT sample.
      registry.add_probe(prefix + ".scream_cwnd_bytes", [t, s] {
        const SimTime rtt = t->srtt(s);
        return rtt > 0 ? t->rate_bps(s) / 8.0 * to_seconds(rtt) : 0.0;
      });
      break;
  }
}

}  // namespace pels
