#include "analysis/stability.h"

#include <cassert>
#include <cmath>

namespace pels {

std::vector<double> gamma_trajectory(double gamma0, double p, double sigma, double p_thr,
                                     int steps, int delay) {
  assert(steps > 0 && delay >= 1);
  assert(p_thr > 0.0);
  std::vector<double> g;
  g.reserve(static_cast<std::size_t>(steps) + 1);
  g.push_back(gamma0);
  for (int k = 1; k <= steps; ++k) {
    // eq. (5): gamma(k) = gamma(k-D) + sigma * (p/p_thr - gamma(k-D)).
    const int src = std::max(0, k - delay);
    const double prev = g[static_cast<std::size_t>(src)];
    g.push_back(prev + sigma * (p / p_thr - prev));
  }
  return g;
}

bool gamma_converges(double gamma0, double p, double sigma, double p_thr, int steps,
                     int delay, double tolerance) {
  const auto g = gamma_trajectory(gamma0, p, sigma, p_thr, steps, delay);
  const double fixed_point = p / p_thr;
  for (double v : g)
    if (!std::isfinite(v)) return false;
  return std::abs(g.back() - fixed_point) <= tolerance;
}

MkcTrajectory mkc_trajectory(std::vector<double> initial_rates, double capacity,
                             double alpha, double beta, int steps, int delay,
                             double min_rate) {
  assert(!initial_rates.empty());
  assert(capacity > 0.0 && steps > 0 && delay >= 1);
  const std::size_t n = initial_rates.size();
  MkcTrajectory out;
  out.rates.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) out.rates[i].push_back(initial_rates[i]);
  out.loss.reserve(static_cast<std::size_t>(steps));

  for (int k = 0; k < steps; ++k) {
    // Router feedback (eq. (9)) from the rates `delay` steps back.
    const int src = std::max(0, k - (delay - 1));
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) total += out.rates[i][static_cast<std::size_t>(src)];
    const double p = (total - capacity) / total;
    out.loss.push_back(p);
    for (std::size_t i = 0; i < n; ++i) {
      const double r_old = out.rates[i][static_cast<std::size_t>(src)];
      double r_new = r_old + alpha - beta * r_old * p;
      if (r_new < min_rate) r_new = min_rate;
      out.rates[i].push_back(r_new);
    }
  }
  return out;
}

bool mkc_stable_gain(double beta) { return beta > 0.0 && beta < 2.0; }

double mkc_stationary_rate(double capacity, int flows, double alpha, double beta) {
  assert(flows > 0 && beta > 0.0);
  return capacity / static_cast<double>(flows) + alpha / beta;
}

double mkc_stationary_loss(double capacity, int flows, double alpha, double beta) {
  assert(flows > 0 && beta > 0.0);
  const double overshoot = static_cast<double>(flows) * alpha / beta;
  return overshoot / (capacity + overshoot);
}

int mkc_flows_for_loss(double capacity, double alpha, double beta, double target) {
  assert(target > 0.0 && target < 1.0);
  // p* = N a/b / (C + N a/b) >= target  <=>  N >= target*C / ((1-target) a/b).
  const double per_flow = alpha / beta;
  return static_cast<int>(std::ceil(target * capacity / ((1.0 - target) * per_flow)));
}

}  // namespace pels
