// Stability and equilibrium analysis of the paper's controllers (Lemmas 2-6).
//
// Provides pure iterate-map simulators for the gamma controller (eq. (4)/(5))
// and MKC (eq. (8)-(9)), with and without feedback delay, plus predicates and
// equilibrium formulas. Tests use these to check the lemmas numerically; the
// Figure 5 bench uses the trajectories directly.
#pragma once

#include <cstdint>
#include <vector>

#include "video/gamma_controller.h"  // gamma_stable_gain (Lemma 2/3)

namespace pels {

/// Trajectory of gamma(k) under eq. (4) with constant loss p, optionally with
/// a constant feedback delay D (eq. (5): the update uses state and loss from
/// k - D). `steps` iterations starting from gamma0; no clamping, so unstable
/// gains genuinely diverge as in Fig. 5.
std::vector<double> gamma_trajectory(double gamma0, double p, double sigma, double p_thr,
                                     int steps, int delay = 1);

/// True if the gamma trajectory remains bounded and converges to the fixed
/// point p/p_thr within `tolerance` by the end of `steps` iterations.
bool gamma_converges(double gamma0, double p, double sigma, double p_thr, int steps,
                     int delay = 1, double tolerance = 1e-3);

/// Synchronous multi-flow MKC iterate (eq. (8) with router feedback (9)):
/// every flow sees the same loss p(k) = (sum r_j - C) / sum r_j each step.
/// Returns each flow's rate trajectory. `delay` >= 1 models D_i in steps
/// (homogeneous); rates are floored at `min_rate`.
struct MkcTrajectory {
  std::vector<std::vector<double>> rates;  // [flow][step]
  std::vector<double> loss;                // p(k) per step
};
MkcTrajectory mkc_trajectory(std::vector<double> initial_rates, double capacity,
                             double alpha, double beta, int steps, int delay = 1,
                             double min_rate = 1.0);

/// Lemma 5: MKC is stable under heterogeneous delays iff 0 < beta < 2.
bool mkc_stable_gain(double beta);

/// Lemma 6: stationary per-flow rate r* = C/N + alpha/beta.
double mkc_stationary_rate(double capacity, int flows, double alpha, double beta);

/// Stationary aggregate loss at the MKC equilibrium:
/// p* = (N alpha/beta) / (C + N alpha/beta). This is the steady packet loss
/// the gamma controller sees (used to pick flow counts for Fig. 7).
double mkc_stationary_loss(double capacity, int flows, double alpha, double beta);

/// Number of flows needed to push the stationary loss to at least `target`.
int mkc_flows_for_loss(double capacity, double alpha, double beta, double target);

}  // namespace pels
