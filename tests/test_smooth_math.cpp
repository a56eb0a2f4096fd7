// Unit and property tests for the LSE smoothing utilities (paper Eq. 5).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.h"
#include "common/smooth_math.h"

namespace dtp {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// The plain LSE loops, exp on every operand, the extreme one included: the
// oracle for the exactness tests.
double plain_smooth_max(const std::vector<double>& xs, double gamma,
                        std::vector<double>& w) {
  const double m = *std::max_element(xs.begin(), xs.end());
  w.assign(xs.size(), 0.0);
  if (!std::isfinite(m)) {
    w[0] = 1.0;
    return m;
  }
  double sum = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    w[i] = std::exp((xs[i] - m) / gamma);
    sum += w[i];
  }
  for (double& wi : w) wi /= sum;
  return m + gamma * std::log(sum);
}

double plain_smooth_min(const std::vector<double>& xs, double gamma,
                        std::vector<double>& w) {
  const double m = *std::min_element(xs.begin(), xs.end());
  w.assign(xs.size(), 0.0);
  if (!std::isfinite(m)) {
    w[0] = 1.0;
    return m;
  }
  double sum = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    w[i] = std::exp((m - xs[i]) / gamma);
    sum += w[i];
  }
  for (double& wi : w) wi /= sum;
  return m - gamma * std::log(sum);
}

// smooth_max and smooth_min against the plain loops, bit for bit.
void expect_same_as_plain(const std::vector<double>& xs, double gamma) {
  std::vector<double> w, w_ref;
  EXPECT_TRUE(same_bits(smooth_max(xs, gamma, w), plain_smooth_max(xs, gamma, w_ref)));
  for (size_t i = 0; i < xs.size(); ++i)
    EXPECT_TRUE(same_bits(w[i], w_ref[i])) << "max weight " << i;
  EXPECT_TRUE(same_bits(smooth_min(xs, gamma, w), plain_smooth_min(xs, gamma, w_ref)));
  for (size_t i = 0; i < xs.size(); ++i)
    EXPECT_TRUE(same_bits(w[i], w_ref[i])) << "min weight " << i;
}

TEST(SmoothMath, LogSumExpUpperBoundsMax) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  for (double gamma : {0.001, 0.01, 0.1, 1.0}) {
    const double v = log_sum_exp(xs, gamma);
    EXPECT_GE(v, 3.0);
    EXPECT_LE(v, 3.0 + gamma * std::log(3.0) + 1e-12);
  }
}

TEST(SmoothMath, LogSumExpConvergesToMax) {
  const std::vector<double> xs{-4.0, 7.5, 2.0, 7.4};
  EXPECT_NEAR(log_sum_exp(xs, 1e-3), 7.5, 1e-6);
}

TEST(SmoothMath, LogSumExpStableForLargeValues) {
  const std::vector<double> xs{1e8, 1e8 + 1.0};
  const double v = log_sum_exp(xs, 1.0);
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_GE(v, 1e8 + 1.0);
}

TEST(SmoothMath, SmoothMaxWeightsAreSoftmax) {
  const std::vector<double> xs{0.0, 1.0, 2.0};
  std::vector<double> w;
  const double v = smooth_max(xs, 0.5, w);
  EXPECT_EQ(w.size(), 3u);
  double sum = 0.0;
  for (double wi : w) {
    EXPECT_GT(wi, 0.0);
    sum += wi;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // Largest input gets the largest weight.
  EXPECT_GT(w[2], w[1]);
  EXPECT_GT(w[1], w[0]);
  EXPECT_GE(v, 2.0);
}

TEST(SmoothMath, SmoothMaxHandlesAllNegInf) {
  const std::vector<double> xs{-INFINITY, -INFINITY};
  std::vector<double> w;
  const double v = smooth_max(xs, 0.1, w);
  EXPECT_TRUE(std::isinf(v));
  EXPECT_LT(v, 0.0);
}

TEST(SmoothMath, SmoothMaxIgnoresNegInfOperand) {
  const std::vector<double> xs{-INFINITY, 2.0};
  std::vector<double> w;
  const double v = smooth_max(xs, 0.1, w);
  EXPECT_NEAR(v, 2.0, 1e-12);
  EXPECT_NEAR(w[0], 0.0, 1e-12);
  EXPECT_NEAR(w[1], 1.0, 1e-12);
}

TEST(SmoothMath, SmoothMinIsNegatedSmoothMaxOfNegation) {
  const std::vector<double> xs{3.0, -1.0, 0.5};
  std::vector<double> w;
  const double v = smooth_min(xs, 0.2, w);
  EXPECT_LE(v, -1.0);
  EXPECT_GT(w[1], w[0]);
  EXPECT_GT(w[1], w[2]);
}

TEST(SmoothMath, HardMaxOneHot) {
  const std::vector<double> xs{1.0, 5.0, 2.0};
  std::vector<double> w;
  EXPECT_EQ(hard_max(xs, w), 5.0);
  EXPECT_EQ(w[0], 0.0);
  EXPECT_EQ(w[1], 1.0);
  EXPECT_EQ(w[2], 0.0);
  EXPECT_EQ(hard_min(xs, w), 1.0);
  EXPECT_EQ(w[0], 1.0);
}

// Property: the smooth_max weights are the analytic gradient of LSE.
class SmoothMaxGradient : public ::testing::TestWithParam<int> {};

TEST_P(SmoothMaxGradient, MatchesFiniteDifference) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const size_t n = static_cast<size_t>(rng.uniform_int(2, 8));
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.uniform(-2.0, 2.0);
  const double gamma = rng.uniform(0.05, 1.0);

  std::vector<double> w;
  smooth_max(xs, gamma, w);
  const double eps = 1e-6;
  for (size_t i = 0; i < n; ++i) {
    auto xp = xs, xm = xs;
    xp[i] += eps;
    xm[i] -= eps;
    const double fd =
        (log_sum_exp(xp, gamma) - log_sum_exp(xm, gamma)) / (2.0 * eps);
    EXPECT_NEAR(w[i], fd, 1e-6) << "operand " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SmoothMaxGradient, ::testing::Range(0, 20));

// Skipping exp on the extreme operand (its weight is exp(+0) = 1) changes no
// bit of the value or the weights.
TEST(SmoothMath, ExtremeWeightSkipIsBitwiseExact) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t n = static_cast<size_t>(rng.uniform_int(1, 8));
    std::vector<double> xs(n);
    for (double& x : xs) x = rng.uniform(-3.0, 3.0);
    // Ties at the maximum and at the minimum.
    if (n > 1 && trial % 3 == 0) xs[n - 1] = *std::max_element(xs.begin(), xs.end());
    if (n > 1 && trial % 5 == 0) xs[0] = *std::min_element(xs.begin(), xs.end());
    if (trial % 7 == 0) xs[0] = -kInf;  // an unreachable operand
    expect_same_as_plain(xs, rng.uniform(0.01, 1.0));
  }
  expect_same_as_plain({1.25}, 0.05);                      // single operand
  expect_same_as_plain({-kInf, -kInf, -kInf}, 0.05);       // all -inf
  expect_same_as_plain({kInf, kInf}, 0.05);                // all +inf
  expect_same_as_plain({2.0, 2.0, 2.0}, 0.05);             // all tied
  expect_same_as_plain({-0.0, 0.0, -0.0}, 0.05);           // signed zeros
  expect_same_as_plain({1e8, 1e8 + 1.0, -1e8}, 0.01);      // far apart
}

TEST(SmoothMath, SmoothAbsGradient) {
  const double eps = 1e-4;
  for (double x : {-3.0, -0.1, 0.0, 0.2, 5.0}) {
    const double fd =
        (smooth_abs(x + 1e-7, eps) - smooth_abs(x - 1e-7, eps)) / 2e-7;
    EXPECT_NEAR(smooth_abs_grad(x, eps), fd, 1e-5);
  }
}

TEST(SmoothMath, SignConvention) {
  EXPECT_EQ(sign(2.5), 1.0);
  EXPECT_EQ(sign(-0.1), -1.0);
  EXPECT_EQ(sign(0.0), 0.0);
}

}  // namespace
}  // namespace dtp
