// NLDM LUT interpolation and gradient tests (paper Fig. 6, Eq. 12 inputs).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "liberty/lut.h"

namespace dtp::liberty {
namespace {

Lut make_bilinear_lut() {
  // v(x, y) = 2 + 3x + 5y + 7xy sampled on a 3x4 grid: bilinear interpolation
  // must reproduce it exactly everywhere (including extrapolation).
  std::vector<double> xs{0.1, 0.5, 2.0};
  std::vector<double> ys{0.0, 1.0, 2.5, 4.0};
  std::vector<double> vals;
  for (double x : xs)
    for (double y : ys) vals.push_back(2.0 + 3.0 * x + 5.0 * y + 7.0 * x * y);
  return Lut(xs, ys, vals);
}

TEST(Lut, ExactAtBreakpoints) {
  const Lut lut = make_bilinear_lut();
  for (size_t i = 0; i < lut.nx(); ++i)
    for (size_t j = 0; j < lut.ny(); ++j) {
      const double x = lut.x_axis()[i], y = lut.y_axis()[j];
      EXPECT_NEAR(lut.lookup(x, y), 2.0 + 3.0 * x + 5.0 * y + 7.0 * x * y, 1e-12);
    }
}

TEST(Lut, ReproducesBilinearFunctionInside) {
  const Lut lut = make_bilinear_lut();
  Rng rng(3);
  for (int k = 0; k < 200; ++k) {
    const double x = rng.uniform(0.1, 2.0);
    const double y = rng.uniform(0.0, 4.0);
    EXPECT_NEAR(lut.lookup(x, y), 2.0 + 3.0 * x + 5.0 * y + 7.0 * x * y, 1e-9);
  }
}

TEST(Lut, ExtrapolatesLinearlyOutside) {
  const Lut lut = make_bilinear_lut();
  // Within the bilinear model, edge-cell extrapolation is exact too.
  for (auto [x, y] : {std::pair{3.5, 5.0}, {0.01, -0.5}, {2.5, 0.5}, {1.0, 6.0}}) {
    EXPECT_NEAR(lut.lookup(x, y), 2.0 + 3.0 * x + 5.0 * y + 7.0 * x * y, 1e-9);
  }
}

TEST(Lut, ConstantLutHasZeroGradient) {
  const Lut lut = Lut::constant(0.42);
  const auto q = lut.lookup_grad(123.0, -7.0);
  EXPECT_EQ(q.value, 0.42);
  EXPECT_EQ(q.d_dx, 0.0);
  EXPECT_EQ(q.d_dy, 0.0);
}

TEST(Lut, OneDimensionalTables) {
  const Lut row(std::vector<double>{0.0}, {1.0, 2.0, 4.0}, {10.0, 20.0, 30.0});
  EXPECT_NEAR(row.lookup(0.0, 1.5), 15.0, 1e-12);
  EXPECT_NEAR(row.lookup(0.0, 3.0), 25.0, 1e-12);
  const auto q = row.lookup_grad(0.0, 3.0);
  EXPECT_NEAR(q.d_dy, 5.0, 1e-12);
  EXPECT_EQ(q.d_dx, 0.0);

  const Lut col(std::vector<double>{1.0, 2.0, 4.0}, {0.0}, {10.0, 20.0, 30.0});
  EXPECT_NEAR(col.lookup(1.5, 0.0), 15.0, 1e-12);
  EXPECT_NEAR(col.lookup_grad(3.0, 0.0).d_dx, 5.0, 1e-12);
}

// Property sweep: analytic LUT gradient vs central finite differences, on a
// non-separable random monotone table, inside and outside the axes.
class LutGradient : public ::testing::TestWithParam<int> {};

TEST_P(LutGradient, MatchesFiniteDifference) {
  Rng rng(static_cast<uint64_t>(GetParam() + 1000));
  std::vector<double> xs(5), ys(6);
  double acc = 0.01;
  for (double& x : xs) x = (acc += rng.uniform(0.05, 0.5));
  acc = 0.001;
  for (double& y : ys) y = (acc += rng.uniform(0.01, 0.2));
  std::vector<double> vals;
  for (size_t i = 0; i < xs.size(); ++i)
    for (size_t j = 0; j < ys.size(); ++j)
      vals.push_back(0.01 + 0.1 * xs[i] + 2.0 * ys[j] + 0.9 * xs[i] * ys[j] +
                     0.02 * rng.uniform());
  const Lut lut(xs, ys, vals);

  for (int k = 0; k < 50; ++k) {
    const double x = rng.uniform(-0.2, xs.back() + 0.5);
    const double y = rng.uniform(-0.05, ys.back() + 0.2);
    const auto q = lut.lookup_grad(x, y);
    const double eps = 1e-7;
    // Stay inside one interpolation cell: skip queries near breakpoints where
    // the surface is only piecewise differentiable.
    bool near_break = false;
    for (double bx : xs) near_break |= std::abs(x - bx) < 10 * eps;
    for (double by : ys) near_break |= std::abs(y - by) < 10 * eps;
    if (near_break) continue;
    const double fdx = (lut.lookup(x + eps, y) - lut.lookup(x - eps, y)) / (2 * eps);
    const double fdy = (lut.lookup(x, y + eps) - lut.lookup(x, y - eps)) / (2 * eps);
    EXPECT_NEAR(q.d_dx, fdx, 1e-5);
    EXPECT_NEAR(q.d_dy, fdy, 1e-5);
    EXPECT_NEAR(q.value, lut.lookup(x, y), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, LutGradient, ::testing::Range(0, 10));

bool same_bits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void expect_same_query(const Lut::Query& a, const Lut::Query& b) {
  EXPECT_TRUE(same_bits(a.value, b.value)) << a.value << " vs " << b.value;
  EXPECT_TRUE(same_bits(a.d_dx, b.d_dx)) << a.d_dx << " vs " << b.d_dx;
  EXPECT_TRUE(same_bits(a.d_dy, b.d_dy)) << a.d_dy << " vs " << b.d_dy;
}

// The textbook one-piece query, search and interpolation in one routine: the
// oracle for the exactness test below.
Lut::Query monolithic_lookup_grad(const Lut& lut, double x, double y) {
  auto lower = [](std::span<const double> axis, double q) -> size_t {
    if (axis.size() <= 1) return 0;
    size_t i = static_cast<size_t>(
        std::upper_bound(axis.begin(), axis.end(), q) - axis.begin());
    if (i > 0) --i;
    if (i > axis.size() - 2) i = axis.size() - 2;
    return i;
  };
  const auto xs = lut.x_axis(), ys = lut.y_axis();
  Lut::Query q;
  if (xs.size() == 1 && ys.size() == 1) {
    q.value = lut.value_at(0, 0);
    return q;
  }
  if (xs.size() == 1) {
    const size_t j = lower(ys, y);
    const double t = (y - ys[j]) / (ys[j + 1] - ys[j]);
    const double v0 = lut.value_at(0, j), v1 = lut.value_at(0, j + 1);
    q.value = v0 + t * (v1 - v0);
    q.d_dy = (v1 - v0) / (ys[j + 1] - ys[j]);
    return q;
  }
  if (ys.size() == 1) {
    const size_t i = lower(xs, x);
    const double t = (x - xs[i]) / (xs[i + 1] - xs[i]);
    const double v0 = lut.value_at(i, 0), v1 = lut.value_at(i + 1, 0);
    q.value = v0 + t * (v1 - v0);
    q.d_dx = (v1 - v0) / (xs[i + 1] - xs[i]);
    return q;
  }
  const size_t i = lower(xs, x), j = lower(ys, y);
  const double x0 = xs[i], x1 = xs[i + 1], y0 = ys[j], y1 = ys[j + 1];
  const double v00 = lut.value_at(i, j), v01 = lut.value_at(i, j + 1);
  const double v10 = lut.value_at(i + 1, j), v11 = lut.value_at(i + 1, j + 1);
  const double tx = (x - x0) / (x1 - x0);
  const double ty = (y - y0) / (y1 - y0);
  const double a = v00, b = v10 - v00, c = v01 - v00;
  const double d = v11 - v10 - v01 + v00;
  q.value = a + b * tx + c * ty + d * tx * ty;
  q.d_dx = (b + d * ty) / (x1 - x0);
  q.d_dy = (c + d * tx) / (y1 - y0);
  return q;
}

// A random table over the given axes.
Lut random_table(Rng& rng, const std::vector<double>& xs,
                 const std::vector<double>& ys) {
  std::vector<double> vals(xs.size() * ys.size());
  for (double& v : vals) v = rng.uniform(0.0, 1.0);
  return Lut(xs, ys, vals);
}

std::vector<double> random_axis(Rng& rng, size_t n) {
  std::vector<double> axis(n);
  double acc = rng.uniform(-0.1, 0.1);
  for (double& a : axis) a = (acc += rng.uniform(0.01, 0.5));
  return axis;
}

// lookup_grad and the pair query (one x search for two tables, the y interval
// located once) give bitwise what the one-piece query gave: inside the
// tables, outside them (extrapolation), on breakpoints, and on 1-D and
// constant tables.
TEST(Lut, SplitQueriesAreBitwiseExact) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    // Shapes: 2-D, a single x breakpoint (1-D in y), a single y breakpoint
    // (1-D in x), and a constant table.
    const int shape = trial % 4;
    const size_t nx = shape == 1 || shape == 3
                          ? 1
                          : static_cast<size_t>(rng.uniform_int(2, 7));
    const size_t ny = shape == 2 || shape == 3
                          ? 1
                          : static_cast<size_t>(rng.uniform_int(2, 7));
    const std::vector<double> xs = random_axis(rng, nx);
    const std::vector<double> ys = random_axis(rng, ny);
    const Lut a = random_table(rng, xs, ys);
    const Lut b = random_table(rng, xs, ys);
    ASSERT_TRUE(a.same_axes(b));
    for (int k = 0; k < 40; ++k) {
      double x = rng.uniform(xs.front() - 1.0, xs.back() + 1.0);
      double y = rng.uniform(ys.front() - 1.0, ys.back() + 1.0);
      if (k % 8 == 0) x = xs[static_cast<size_t>(rng.uniform_int(0, static_cast<int>(nx) - 1))];
      if (k % 8 == 1) y = ys[static_cast<size_t>(rng.uniform_int(0, static_cast<int>(ny) - 1))];
      const Lut::Query ref_a = monolithic_lookup_grad(a, x, y);
      const Lut::Query ref_b = monolithic_lookup_grad(b, x, y);
      expect_same_query(a.lookup_grad(x, y), ref_a);
      expect_same_query(b.lookup_grad(x, y), ref_b);
      Lut::Query qa, qb;
      Lut::lookup_grad_pair(a, b, x, y, a.locate_y(y), qa, qb);
      expect_same_query(qa, ref_a);
      expect_same_query(qb, ref_b);
    }
  }
}

TEST(Lut, SameAxesComparesBreakpointBits) {
  const Lut lut = make_bilinear_lut();
  const std::vector<double> xs(lut.x_axis().begin(), lut.x_axis().end());
  const std::vector<double> ys(lut.y_axis().begin(), lut.y_axis().end());
  const std::vector<double> vals(lut.values().size(), 1.0);
  EXPECT_TRUE(lut.same_axes(Lut(xs, ys, vals)));
  EXPECT_TRUE(lut.same_y_axis(Lut(xs, ys, vals)));

  std::vector<double> xs2 = xs;
  xs2.back() += 1e-12;
  EXPECT_FALSE(lut.same_axes(Lut(xs2, ys, vals)));
  EXPECT_TRUE(lut.same_y_axis(Lut(xs2, ys, vals)));

  // ys starts at +0.0: a -0.0 breakpoint compares equal but is another bit
  // pattern, so the axes are not shared.
  std::vector<double> ys2 = ys;
  ys2.front() = -0.0;
  EXPECT_FALSE(lut.same_axes(Lut(xs, ys2, vals)));
  EXPECT_FALSE(lut.same_y_axis(Lut(xs, ys2, vals)));

  // A shorter axis is another axis.
  const std::vector<double> ys3(ys.begin(), ys.end() - 1);
  EXPECT_FALSE(lut.same_y_axis(Lut(xs, ys3, std::vector<double>(xs.size() * ys3.size(), 1.0))));
}

}  // namespace
}  // namespace dtp::liberty
