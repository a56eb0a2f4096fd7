// Kernel-layer transform validation: the radix-2 FFT against a naive DFT,
// and the DctPlan real-to-complex fast path against the HalfSampleDirect
// O(m^2) oracle — equivalence across sizes plus the transform properties
// (round-trip, Parseval, linearity) that pin down the half-sample basis.
// Non-power-of-two coverage runs through the oracle and the PoissonSolver
// fallback path.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "kernels/fft.h"
#include "kernels/kernels.h"
#include "placer/poisson.h"

namespace dtp::kernels {
namespace {

constexpr double kPi = 3.14159265358979323846;

void naive_dft(const std::vector<double>& re_in, const std::vector<double>& im_in,
               std::vector<double>& re_out, std::vector<double>& im_out,
               bool invert) {
  const size_t n = re_in.size();
  re_out.assign(n, 0.0);
  im_out.assign(n, 0.0);
  const double sgn = invert ? 1.0 : -1.0;
  for (size_t k = 0; k < n; ++k) {
    for (size_t j = 0; j < n; ++j) {
      const double theta = sgn * 2.0 * kPi * static_cast<double>(k * j) /
                           static_cast<double>(n);
      re_out[k] += re_in[j] * std::cos(theta) - im_in[j] * std::sin(theta);
      im_out[k] += re_in[j] * std::sin(theta) + im_in[j] * std::cos(theta);
    }
  }
}

class FftSizes : public ::testing::TestWithParam<int> {};

TEST_P(FftSizes, MatchesNaiveDft) {
  const size_t n = static_cast<size_t>(GetParam());
  Rng rng(n);
  std::vector<double> re(n), im(n);
  for (size_t i = 0; i < n; ++i) {
    re[i] = rng.uniform(-1, 1);
    im[i] = rng.uniform(-1, 1);
  }
  std::vector<double> ref_re, ref_im;
  naive_dft(re, im, ref_re, ref_im, false);

  Fft fft(n);
  auto fr = re, fi = im;
  fft.forward(fr.data(), fi.data());
  for (size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(fr[k], ref_re[k], 1e-9 * static_cast<double>(n));
    EXPECT_NEAR(fi[k], ref_im[k], 1e-9 * static_cast<double>(n));
  }
  // inverse(forward(x)) == n * x.
  fft.inverse(fr.data(), fi.data());
  for (size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(fr[k], re[k] * static_cast<double>(n), 1e-9 * static_cast<double>(n));
    EXPECT_NEAR(fi[k], im[k] * static_cast<double>(n), 1e-9 * static_cast<double>(n));
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256));

// ---- DctPlan fast path vs the direct oracle --------------------------------

class PlanSizes : public ::testing::TestWithParam<int> {};

TEST_P(PlanSizes, FastRowsMatchDirectSums) {
  const size_t m = static_cast<size_t>(GetParam());
  DctPlan plan(m);
  HalfSampleDirect oracle(m);
  Rng rng(m * 7);
  std::vector<double> in(m), fast(m), ref(m), scale(m), pre(m);
  for (size_t u = 0; u < m; ++u) scale[u] = 0.25 + 0.03 * static_cast<double>(u);

  for (auto& x : in) x = rng.uniform(-2, 2);

  dct2_rows(plan, in.data(), fast.data(), 1);
  oracle.dct2(in.data(), ref.data());
  for (size_t i = 0; i < m; ++i) EXPECT_NEAR(fast[i], ref[i], 1e-9 * m);

  idct_rows(plan, in.data(), fast.data(), 1);
  oracle.eval_cos(in.data(), ref.data());
  for (size_t i = 0; i < m; ++i) EXPECT_NEAR(fast[i], ref[i], 1e-9 * m);

  idst_rows(plan, in.data(), nullptr, fast.data(), 1);
  oracle.eval_sin(in.data(), ref.data());
  for (size_t i = 0; i < m; ++i) EXPECT_NEAR(fast[i], ref[i], 1e-9 * m);

  // Fused column scaling == explicit pre-scale then sine synthesis.
  idst_rows(plan, in.data(), scale.data(), fast.data(), 1);
  for (size_t u = 0; u < m; ++u) pre[u] = in[u] * scale[u];
  oracle.eval_sin(pre.data(), ref.data());
  for (size_t i = 0; i < m; ++i) EXPECT_NEAR(fast[i], ref[i], 1e-9 * m);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, PlanSizes,
                         ::testing::Values(2, 4, 8, 32, 128, 256));

// ---- transform properties, power-of-two (DctPlan) and not (oracle) -------

// dct2 followed by alpha-scaled eval_cos reconstructs the input
// (completeness of the half-sample cosine basis).
class PropertySizes : public ::testing::TestWithParam<int> {};

TEST_P(PropertySizes, Dct2ThenEvalCosRoundTrips) {
  const size_t m = static_cast<size_t>(GetParam());
  HalfSampleDirect oracle(m);
  Rng rng(3 + m);
  std::vector<double> x(m), coef(m), back(m);
  for (auto& v : x) v = rng.uniform(-1, 1);
  auto alpha_scale = [m](std::vector<double>& c) {
    c[0] *= 1.0 / static_cast<double>(m);
    for (size_t u = 1; u < m; ++u) c[u] *= 2.0 / static_cast<double>(m);
  };

  oracle.dct2(x.data(), coef.data());
  alpha_scale(coef);
  oracle.eval_cos(coef.data(), back.data());
  for (size_t i = 0; i < m; ++i) EXPECT_NEAR(back[i], x[i], 1e-9);

  if (is_power_of_two(m)) {
    DctPlan plan(m);
    dct2_rows(plan, x.data(), coef.data(), 1);
    alpha_scale(coef);
    idct_rows(plan, coef.data(), back.data(), 1);
    for (size_t i = 0; i < m; ++i) EXPECT_NEAR(back[i], x[i], 1e-9);
  }
}

// Parseval for the half-sample DCT-II: sum_x x^2 = sum_u alpha_u X_u^2 with
// alpha_0 = 1/m, alpha_u = 2/m (orthogonality of the cosine rows).
TEST_P(PropertySizes, Dct2SatisfiesParseval) {
  const size_t m = static_cast<size_t>(GetParam());
  HalfSampleDirect oracle(m);
  Rng rng(11 + m);
  std::vector<double> x(m), coef(m);
  for (auto& v : x) v = rng.uniform(-1, 1);
  double time_e = 0.0;
  for (double v : x) time_e += v * v;

  auto spectral_energy = [m](const std::vector<double>& c) {
    double e = c[0] * c[0] / static_cast<double>(m);
    for (size_t u = 1; u < m; ++u) e += 2.0 * c[u] * c[u] / static_cast<double>(m);
    return e;
  };

  oracle.dct2(x.data(), coef.data());
  EXPECT_NEAR(spectral_energy(coef), time_e, 1e-9 * m);

  if (is_power_of_two(m)) {
    DctPlan plan(m);
    dct2_rows(plan, x.data(), coef.data(), 1);
    EXPECT_NEAR(spectral_energy(coef), time_e, 1e-9 * m);
  }
}

// dct2(a*x + b*y) == a*dct2(x) + b*dct2(y).
TEST_P(PropertySizes, Dct2IsLinear) {
  const size_t m = static_cast<size_t>(GetParam());
  Rng rng(29 + m);
  const double a = 1.75, b = -0.6;
  std::vector<double> x(m), y(m), mix(m), tx(m), ty(m), tmix(m);
  for (size_t i = 0; i < m; ++i) {
    x[i] = rng.uniform(-1, 1);
    y[i] = rng.uniform(-1, 1);
    mix[i] = a * x[i] + b * y[i];
  }
  if (is_power_of_two(m)) {
    DctPlan plan(m);
    dct2_rows(plan, x.data(), tx.data(), 1);
    dct2_rows(plan, y.data(), ty.data(), 1);
    dct2_rows(plan, mix.data(), tmix.data(), 1);
  } else {
    HalfSampleDirect oracle(m);
    oracle.dct2(x.data(), tx.data());
    oracle.dct2(y.data(), ty.data());
    oracle.dct2(mix.data(), tmix.data());
  }
  for (size_t u = 0; u < m; ++u)
    EXPECT_NEAR(tmix[u], a * tx[u] + b * ty[u], 1e-9 * m);
}

INSTANTIATE_TEST_SUITE_P(Mixed, PropertySizes,
                         ::testing::Values(2, 8, 32, 128,  // DctPlan + oracle
                                           3, 12, 100));   // oracle only

TEST(Poisson, FastPathFlagReflectsGridSize) {
  EXPECT_TRUE(placer::PoissonSolver(64, 80.0, 80.0).uses_fft());
  EXPECT_FALSE(placer::PoissonSolver(96, 80.0, 80.0).uses_fft());
}

TEST(Poisson, FftPathMatchesSpectralReference) {
  // 64 runs the DctPlan path; validated against an explicit direct-sum
  // spectral reference evaluated at sampled grid points.
  const int m = 64;
  const double w = 80.0;
  placer::PoissonSolver solver(m, w, w);
  ASSERT_TRUE(solver.uses_fft());
  Rng rng(17);
  std::vector<double> rho(static_cast<size_t>(m) * m);
  for (auto& r : rho) r = rng.uniform(0.0, 1.0);
  std::vector<double> psi, ex, ey;
  solver.solve(rho, psi, ex, ey);

  // Direct spectral reference.
  std::vector<double> coef(static_cast<size_t>(m) * m, 0.0);
  auto C = [&](int u, int x) {
    return std::cos(kPi * u * (x + 0.5) / m);
  };
  auto S = [&](int u, int x) {
    return std::sin(kPi * u * (x + 0.5) / m);
  };
  for (int u = 0; u < m; ++u)
    for (int v = 0; v < m; ++v) {
      double acc = 0.0;
      for (int x = 0; x < m; ++x)
        for (int y = 0; y < m; ++y)
          acc += rho[static_cast<size_t>(x) * m + y] * C(u, x) * C(v, y);
      const double ku = kPi * u / w, kv = kPi * v / w;
      const double au = (u == 0 ? 1.0 : 2.0) / m, av = (v == 0 ? 1.0 : 2.0) / m;
      coef[static_cast<size_t>(u) * m + v] =
          (u == 0 && v == 0) ? 0.0 : acc * au * av / (ku * ku + kv * kv);
    }
  // Spot-check a handful of grid points (full O(m^4) reconstruction is slow).
  Rng pick(5);
  for (int k = 0; k < 12; ++k) {
    const int x = static_cast<int>(pick.uniform_int(0, m - 1));
    const int y = static_cast<int>(pick.uniform_int(0, m - 1));
    double p = 0.0, fx = 0.0, fy = 0.0;
    for (int u = 0; u < m; ++u)
      for (int v = 0; v < m; ++v) {
        const double c = coef[static_cast<size_t>(u) * m + v];
        p += c * C(u, x) * C(v, y);
        fx += c * (kPi * u / w) * S(u, x) * C(v, y);
        fy += c * (kPi * v / w) * C(u, x) * S(v, y);
      }
    const size_t i = static_cast<size_t>(x) * m + y;
    EXPECT_NEAR(psi[i], p, 1e-7);
    EXPECT_NEAR(ex[i], fx, 1e-7);
    EXPECT_NEAR(ey[i], fy, 1e-7);
  }
}

TEST(Poisson, DirectFallbackMatchesSpectralReference) {
  // Non-power-of-two grid exercises the HalfSampleDirect fallback end to
  // end against the same explicit spectral reference as the FFT-path test
  // (m = 12 keeps the O(m^4) reconstruction trivial).
  const int m = 12;
  const double w = 24.0;
  placer::PoissonSolver solver(m, w, w);
  ASSERT_FALSE(solver.uses_fft());
  Rng rng(23);
  std::vector<double> rho(static_cast<size_t>(m) * m);
  for (auto& r : rho) r = rng.uniform(0.0, 1.0);
  std::vector<double> psi, ex, ey;
  solver.solve(rho, psi, ex, ey);

  auto C = [&](int u, int x) { return std::cos(kPi * u * (x + 0.5) / m); };
  auto S = [&](int u, int x) { return std::sin(kPi * u * (x + 0.5) / m); };
  std::vector<double> coef(static_cast<size_t>(m) * m, 0.0);
  for (int u = 0; u < m; ++u)
    for (int v = 0; v < m; ++v) {
      double acc = 0.0;
      for (int x = 0; x < m; ++x)
        for (int y = 0; y < m; ++y)
          acc += rho[static_cast<size_t>(x) * m + y] * C(u, x) * C(v, y);
      const double ku = kPi * u / w, kv = kPi * v / w;
      const double au = (u == 0 ? 1.0 : 2.0) / m, av = (v == 0 ? 1.0 : 2.0) / m;
      coef[static_cast<size_t>(u) * m + v] =
          (u == 0 && v == 0) ? 0.0 : acc * au * av / (ku * ku + kv * kv);
    }
  for (int x = 0; x < m; ++x)
    for (int y = 0; y < m; ++y) {
      double p = 0.0, fx = 0.0, fy = 0.0;
      for (int u = 0; u < m; ++u)
        for (int v = 0; v < m; ++v) {
          const double c = coef[static_cast<size_t>(u) * m + v];
          p += c * C(u, x) * C(v, y);
          fx += c * (kPi * u / w) * S(u, x) * C(v, y);
          fy += c * (kPi * v / w) * C(u, x) * S(v, y);
        }
      const size_t i = static_cast<size_t>(x) * m + y;
      EXPECT_NEAR(psi[i], p, 1e-8);
      EXPECT_NEAR(ex[i], fx, 1e-8);
      EXPECT_NEAR(ey[i], fy, 1e-8);
    }
}

}  // namespace
}  // namespace dtp::kernels
