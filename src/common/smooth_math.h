// Smooth surrogates for the non-differentiable operations inside STA.
//
// The paper (§3.2) replaces the max/min aggregations of arrival-time
// propagation with log-sum-exp (LSE) smoothing:
//
//     LSE_gamma(x_1..x_n) = gamma * log( sum_i exp(x_i / gamma) )        (Eq. 5)
//
// which upper-bounds max(x_i) and converges to it as gamma -> 0.  min is
// obtained as -LSE_gamma(-x).  The gradient of LSE is the softmax of
// x_i / gamma, which spreads the objective's gradient over *all* near-critical
// fan-ins instead of only the single worst one — the key to stable descent.
//
// All implementations below are numerically stable (max-subtracted) and come
// with analytic gradients used by the differentiable timer's backward pass.
//
// smooth_max / smooth_min skip the one exp whose answer is known: the extreme
// operand's weight is exp((m - m) / gamma) = exp(+0), which IEEE 754 (C Annex
// F) defines as exactly 1, so it is stored as 1.0.  Other operands equal to
// the extreme (ties) still go through exp and get the same 1.0.  A single
// operand's weight sum is that 1.0, whose log is +0 (Annex F again), so
// neither log nor the normalization runs.  Values and weights are bitwise
// what the plain loop gives.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/assert.h"

namespace dtp {

// Stable log-sum-exp of a span. Returns max(x) when gamma == 0 is requested
// via a tiny gamma; callers should keep gamma > 0.
inline double log_sum_exp(std::span<const double> xs, double gamma) {
  DTP_ASSERT(!xs.empty());
  DTP_ASSERT(gamma > 0.0);
  const double m = *std::max_element(xs.begin(), xs.end());
  if (!std::isfinite(m)) return m;  // all -inf (or a +inf dominates)
  double sum = 0.0;
  for (double x : xs) sum += std::exp((x - m) / gamma);
  return m + gamma * std::log(sum);
}

// Smooth max and its softmax weights: writes the n weights
// d(LSE)/d(x_i) to `weights` (caller-sized); they are positive and sum to 1.
inline double smooth_max(const double* xs, size_t n, double gamma,
                         double* weights) {
  DTP_ASSERT(n > 0);
  DTP_ASSERT(gamma > 0.0);
  const double* top = std::max_element(xs, xs + n);
  const double m = *top;
  if (!std::isfinite(m)) {
    // Degenerate: every operand is -inf. Put all weight on the first operand;
    // the value propagates as -inf and the gradient is irrelevant.
    std::fill(weights, weights + n, 0.0);
    weights[0] = 1.0;
    return m;
  }
  if (n == 1) {
    weights[0] = 1.0;
    return m + gamma * 0.0;  // log(1) = +0
  }
  const size_t top_i = static_cast<size_t>(top - xs);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    weights[i] = i == top_i ? 1.0 : std::exp((xs[i] - m) / gamma);
    sum += weights[i];
  }
  for (size_t i = 0; i < n; ++i) weights[i] /= sum;
  return m + gamma * std::log(sum);
}

// Vector form: `weights` is resized to xs.size().
inline double smooth_max(std::span<const double> xs, double gamma,
                         std::vector<double>& weights) {
  weights.resize(xs.size());
  return smooth_max(xs.data(), xs.size(), gamma, weights.data());
}

// Smooth min: -LSE(-x), written out (min-subtracted) so it needs no scratch
// for the negated operands; bitwise equal to -smooth_max(-x).  Weights are
// again positive, summing to 1, and equal to d(smooth_min)/d(x_i).
inline double smooth_min(std::span<const double> xs, double gamma,
                         std::vector<double>& weights) {
  DTP_ASSERT(!xs.empty());
  DTP_ASSERT(gamma > 0.0);
  const auto bottom = std::min_element(xs.begin(), xs.end());
  const double m = *bottom;
  weights.resize(xs.size());
  if (!std::isfinite(m)) {
    // Degenerate: every operand is +inf (or a -inf dominates).
    std::fill(weights.begin(), weights.end(), 0.0);
    weights[0] = 1.0;
    return m;
  }
  if (xs.size() == 1) {
    weights[0] = 1.0;
    return m - gamma * 0.0;  // log(1) = +0
  }
  const size_t bottom_i = static_cast<size_t>(bottom - xs.begin());
  double sum = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    weights[i] = i == bottom_i ? 1.0 : std::exp((m - xs[i]) / gamma);
    sum += weights[i];
  }
  for (double& w : weights) w /= sum;
  return m - gamma * std::log(sum);
}

// Exact max with one-hot subgradient, used by the timer's non-smoothed mode.
inline double hard_max(std::span<const double> xs, std::vector<double>& weights) {
  DTP_ASSERT(!xs.empty());
  size_t best = 0;
  for (size_t i = 1; i < xs.size(); ++i)
    if (xs[i] > xs[best]) best = i;
  weights.assign(xs.size(), 0.0);
  weights[best] = 1.0;
  return xs[best];
}

inline double hard_min(std::span<const double> xs, std::vector<double>& weights) {
  DTP_ASSERT(!xs.empty());
  size_t best = 0;
  for (size_t i = 1; i < xs.size(); ++i)
    if (xs[i] < xs[best]) best = i;
  weights.assign(xs.size(), 0.0);
  weights[best] = 1.0;
  return xs[best];
}

// Smooth |x| used where a differentiable rectilinear distance is needed away
// from the origin kink: sqrt(x^2 + eps).
inline double smooth_abs(double x, double eps) { return std::sqrt(x * x + eps); }
inline double smooth_abs_grad(double x, double eps) {
  return x / std::sqrt(x * x + eps);
}

// sign(x) with sign(0) = 0: the subgradient of |x| used for rectilinear edge
// lengths (the timer keeps the exact kink; optimizers tolerate it the way they
// tolerate ReLU).
inline double sign(double x) { return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : 0.0); }

}  // namespace dtp
