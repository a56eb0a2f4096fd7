// WA wirelength model: HPWL convergence, gradient correctness, net weights.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "kernels/kernels.h"
#include "liberty/synth_library.h"
#include "placer/wirelength.h"
#include "workload/circuit_gen.h"

namespace dtp::placer {
namespace {

using netlist::Design;

Design make_design(int cells, uint64_t seed, const liberty::CellLibrary& lib) {
  workload::WorkloadOptions opts;
  opts.num_cells = cells;
  opts.seed = seed;
  return workload::generate_design(lib, opts);
}

TEST(Wirelength, WaConvergesToHpwl) {
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design d = make_design(200, 41, lib);
  WirelengthModel wl(d);
  const double hpwl = wl.hpwl_unweighted(d.cell_x, d.cell_y);
  std::vector<double> gx(d.cell_x.size()), gy(d.cell_y.size());
  double prev_err = 1e300;
  for (double gamma : {8.0, 2.0, 0.5, 0.1}) {
    wl.set_gamma(gamma);
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    const double wa = wl.value_and_gradient(d.cell_x, d.cell_y, gx, gy);
    const double err = std::abs(wa - hpwl);
    EXPECT_LT(err, prev_err + 1e-9);
    prev_err = err;
  }
  EXPECT_LT(prev_err / hpwl, 0.01);
}

TEST(Wirelength, WaUnderestimatesHpwl) {
  // The WA estimator is a lower bound of HPWL.
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design d = make_design(150, 43, lib);
  WirelengthModel wl(d);
  wl.set_gamma(1.0);
  std::vector<double> gx(d.cell_x.size(), 0.0), gy(d.cell_y.size(), 0.0);
  const double wa = wl.value_and_gradient(d.cell_x, d.cell_y, gx, gy);
  EXPECT_LE(wa, wl.hpwl_unweighted(d.cell_x, d.cell_y) + 1e-9);
}

class WirelengthGradient : public ::testing::TestWithParam<int> {};

TEST_P(WirelengthGradient, MatchesFiniteDifference) {
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design d = make_design(120, static_cast<uint64_t>(GetParam() + 50), lib);
  WirelengthModel wl(d);
  wl.set_gamma(1.5);
  Rng rng(static_cast<uint64_t>(GetParam()));
  // Random weights to exercise the weighted path.
  for (auto& w : wl.net_weights()) w = rng.uniform(0.5, 3.0);

  const size_t n = d.cell_x.size();
  std::vector<double> gx(n, 0.0), gy(n, 0.0);
  wl.value_and_gradient(d.cell_x, d.cell_y, gx, gy);

  auto value = [&]() {
    std::vector<double> tx(n, 0.0), ty(n, 0.0);
    return wl.value_and_gradient(d.cell_x, d.cell_y, tx, ty);
  };
  const double eps = 1e-5;
  for (int k = 0; k < 12; ++k) {
    const size_t c = static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(n) - 1));
    for (int axis = 0; axis < 2; ++axis) {
      auto& coords = axis == 0 ? d.cell_x : d.cell_y;
      const double saved = coords[c];
      coords[c] = saved + eps;
      const double fp = value();
      coords[c] = saved - eps;
      const double fm = value();
      coords[c] = saved;
      const double fd = (fp - fm) / (2 * eps);
      const double an = axis == 0 ? gx[c] : gy[c];
      EXPECT_NEAR(an, fd, 1e-5 * std::max(1.0, std::abs(fd)) + 1e-8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, WirelengthGradient, ::testing::Range(0, 6));

// The plain WA formula, exp on every pin and both sides: the oracle for the
// exactness test below.
double plain_wa_axis(const std::vector<double>& coords, double gamma,
                     std::vector<double>& grads) {
  const size_t n = coords.size();
  double cmax = coords[0], cmin = coords[0];
  for (size_t i = 0; i < n; ++i) {
    cmax = std::max(cmax, coords[i]);
    cmin = std::min(cmin, coords[i]);
  }
  std::vector<double> ep(n), em(n);
  double sp = 0.0, tp = 0.0, sm = 0.0, tm = 0.0;
  for (size_t i = 0; i < n; ++i) {
    ep[i] = std::exp((coords[i] - cmax) / gamma);
    em[i] = std::exp(-(coords[i] - cmin) / gamma);
    sp += ep[i];
    tp += coords[i] * ep[i];
    sm += em[i];
    tm += coords[i] * em[i];
  }
  const double wa_p = tp / sp;
  const double wa_m = tm / sm;
  grads.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const double gp = ep[i] / sp * (1.0 + (coords[i] - wa_p) / gamma);
    const double gm = em[i] / sm * (1.0 - (coords[i] - wa_m) / gamma);
    grads[i] = gp - gm;
  }
  return wa_p - wa_m;
}

bool same_bits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void expect_wa_same_as_plain(const std::vector<double>& coords, double gamma) {
  const size_t n = coords.size();
  std::vector<double> grads(n), ep(n), em(n), ref;
  const double v = kernels::wa_axis(coords.data(), n, gamma, grads.data(),
                                    ep.data(), em.data());
  EXPECT_TRUE(same_bits(v, plain_wa_axis(coords, gamma, ref)));
  for (size_t i = 0; i < n; ++i)
    EXPECT_TRUE(same_bits(grads[i], ref[i])) << "pin " << i << " of " << n;
}

// Storing the extreme pins' weights as 1.0 instead of exp(+-0) changes no
// bit of the WA value or gradient.
TEST(Wirelength, WaAxisExtremeWeightSkipIsBitwiseExact) {
  Rng rng(91);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t n = static_cast<size_t>(rng.uniform_int(1, 12));
    std::vector<double> c(n);
    for (double& x : c) x = rng.uniform(0.0, 400.0);
    // Ties at the maximum and the minimum (pins of one cell, stacked cells).
    if (n > 1 && trial % 3 == 0) c[0] = *std::max_element(c.begin(), c.end());
    if (n > 1 && trial % 4 == 0) c[n - 1] = *std::min_element(c.begin(), c.end());
    expect_wa_same_as_plain(c, rng.uniform(0.5, 20.0));
  }
  expect_wa_same_as_plain({12.5}, 1.0);               // one pin
  expect_wa_same_as_plain({3.0, 3.0, 3.0}, 1.0);      // all coincident
  expect_wa_same_as_plain({-0.0, 0.0, 5.0}, 2.0);     // signed zeros
  expect_wa_same_as_plain({0.0, 1e6}, 0.25);          // far apart
}

TEST(Wirelength, NetWeightsScaleValueAndGradient) {
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design d = make_design(100, 47, lib);
  WirelengthModel wl(d);
  wl.set_gamma(1.0);
  const size_t n = d.cell_x.size();
  std::vector<double> gx1(n, 0.0), gy1(n, 0.0);
  const double v1 = wl.value_and_gradient(d.cell_x, d.cell_y, gx1, gy1);
  for (auto& w : wl.net_weights()) w = 2.0;
  std::vector<double> gx2(n, 0.0), gy2(n, 0.0);
  const double v2 = wl.value_and_gradient(d.cell_x, d.cell_y, gx2, gy2);
  EXPECT_NEAR(v2, 2.0 * v1, 1e-9 * std::abs(v1));
  for (size_t c = 0; c < n; ++c) {
    EXPECT_NEAR(gx2[c], 2.0 * gx1[c], 1e-12 + 1e-9 * std::abs(gx1[c]));
    EXPECT_NEAR(gy2[c], 2.0 * gy1[c], 1e-12 + 1e-9 * std::abs(gy1[c]));
  }
  EXPECT_NEAR(wl.hpwl(d.cell_x, d.cell_y),
              2.0 * wl.hpwl_unweighted(d.cell_x, d.cell_y), 1e-6);
}

TEST(Wirelength, IgnoresHugeNets) {
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design d = make_design(900, 49, lib);
  // The clock net connects all ~108 flops and must be filtered at degree 64.
  WirelengthModel wl(d, /*ignore_degree=*/64);
  const netlist::NetId clk = d.netlist.find_net("clknet");
  ASSERT_GT(d.netlist.net(clk).pins.size(), 64u);
  for (netlist::NetId n : wl.active_nets()) EXPECT_NE(n, clk);
}

TEST(Wirelength, IncidenceWeightsCountPins) {
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design d = make_design(100, 53, lib);
  WirelengthModel wl(d);
  const auto inc = wl.cell_incidence_weights();
  // Each cell's incidence equals its number of pins on active nets when all
  // weights are 1.
  std::vector<double> expected(d.netlist.num_cells(), 0.0);
  for (netlist::NetId n : wl.active_nets())
    for (netlist::PinId p : d.netlist.net(n).pins)
      expected[static_cast<size_t>(d.netlist.pin(p).cell)] += 1.0;
  for (size_t c = 0; c < expected.size(); ++c) EXPECT_EQ(inc[c], expected[c]);
}

}  // namespace
}  // namespace dtp::placer
