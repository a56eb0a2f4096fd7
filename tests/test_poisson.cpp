// Spectral Poisson solver: verified against defining PDE properties on the
// grid (uniform charge -> no field; discrete Laplacian residual; symmetry).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "obs/metrics.h"
#include "placer/poisson.h"

namespace dtp::placer {
namespace {

TEST(Poisson, UniformChargeGivesZeroField) {
  const int m = 16;
  PoissonSolver solver(m, 100.0, 100.0);
  std::vector<double> rho(static_cast<size_t>(m) * m, 3.7);
  std::vector<double> psi, ex, ey;
  solver.solve(rho, psi, ex, ey);
  for (size_t i = 0; i < rho.size(); ++i) {
    EXPECT_NEAR(psi[i], 0.0, 1e-9);
    EXPECT_NEAR(ex[i], 0.0, 1e-9);
    EXPECT_NEAR(ey[i], 0.0, 1e-9);
  }
}

TEST(Poisson, CenterChargeFieldPointsOutward) {
  const int m = 32;
  PoissonSolver solver(m, 100.0, 100.0);
  std::vector<double> rho(static_cast<size_t>(m) * m, 0.0);
  rho[static_cast<size_t>(m / 2) * m + m / 2] = 1.0;
  std::vector<double> psi, ex, ey;
  solver.solve(rho, psi, ex, ey);
  // Field to the right of the charge points right (+x), to the left points
  // left; same for y.  (field = -grad psi; psi peaks at the charge.)
  EXPECT_GT(ex[static_cast<size_t>(m / 2 + 5) * m + m / 2], 0.0);
  EXPECT_LT(ex[static_cast<size_t>(m / 2 - 5) * m + m / 2], 0.0);
  EXPECT_GT(ey[static_cast<size_t>(m / 2) * m + m / 2 + 5], 0.0);
  EXPECT_LT(ey[static_cast<size_t>(m / 2) * m + m / 2 - 5], 0.0);
  // Potential decays away from the charge.
  EXPECT_GT(psi[static_cast<size_t>(m / 2) * m + m / 2],
            psi[static_cast<size_t>(m / 2 + 8) * m + m / 2]);
}

TEST(Poisson, SymmetricChargeSymmetricSolution) {
  const int m = 16;
  PoissonSolver solver(m, 50.0, 50.0);
  std::vector<double> rho(static_cast<size_t>(m) * m, 0.0);
  // Mirror-symmetric pair of charges about the vertical center line.
  rho[3 * m + 8] = 1.0;
  rho[12 * m + 8] = 1.0;
  std::vector<double> psi, ex, ey;
  solver.solve(rho, psi, ex, ey);
  for (int xx = 0; xx < m; ++xx)
    for (int yy = 0; yy < m; ++yy) {
      EXPECT_NEAR(psi[static_cast<size_t>(xx) * m + yy],
                  psi[static_cast<size_t>(m - 1 - xx) * m + yy], 1e-9);
      EXPECT_NEAR(ex[static_cast<size_t>(xx) * m + yy],
                  -ex[static_cast<size_t>(m - 1 - xx) * m + yy], 1e-9);
    }
}

TEST(Poisson, DiscreteLaplacianMatchesChargeInterior) {
  // laplacian(psi) should reproduce -(rho - mean(rho)) up to discretization:
  // compare in spectral-exact form by checking the residual is small relative
  // to the charge for a smooth density.
  const int m = 64;
  const double w = 128.0;
  PoissonSolver solver(m, w, w);
  const double h = w / m;
  std::vector<double> rho(static_cast<size_t>(m) * m);
  for (int xx = 0; xx < m; ++xx)
    for (int yy = 0; yy < m; ++yy) {
      // Smooth low-frequency density (exactly representable).
      rho[static_cast<size_t>(xx) * m + yy] =
          std::cos(M_PI * 2 * (xx + 0.5) / m) * std::cos(M_PI * 3 * (yy + 0.5) / m);
    }
  std::vector<double> psi, ex, ey;
  solver.solve(rho, psi, ex, ey);
  double max_err = 0.0, max_rho = 0.0;
  for (int xx = 1; xx + 1 < m; ++xx)
    for (int yy = 1; yy + 1 < m; ++yy) {
      const auto at = [&](int a, int b) {
        return psi[static_cast<size_t>(a) * m + b];
      };
      const double lap = (at(xx + 1, yy) + at(xx - 1, yy) + at(xx, yy + 1) +
                          at(xx, yy - 1) - 4 * at(xx, yy)) /
                         (h * h);
      max_err = std::max(max_err, std::abs(lap + rho[static_cast<size_t>(xx) * m + yy]));
      max_rho = std::max(max_rho, std::abs(rho[static_cast<size_t>(xx) * m + yy]));
    }
  // Second-order finite differences of a band-limited solution: few % error.
  EXPECT_LT(max_err, 0.05 * max_rho);
}

TEST(Poisson, FieldIsNegativeGradientOfPotential) {
  const int m = 32;
  const double w = 64.0;
  PoissonSolver solver(m, w, w);
  const double h = w / m;
  Rng rng(4);
  std::vector<double> rho(static_cast<size_t>(m) * m);
  // Smooth random density from a few low-frequency modes.
  for (int xx = 0; xx < m; ++xx)
    for (int yy = 0; yy < m; ++yy)
      rho[static_cast<size_t>(xx) * m + yy] =
          std::sin(2 * M_PI * (xx + 0.5) / m) + 0.5 * std::cos(M_PI * (yy + 0.5) / m);
  std::vector<double> psi, ex, ey;
  solver.solve(rho, psi, ex, ey);
  double max_err = 0.0, max_f = 0.0;
  for (int xx = 2; xx + 2 < m; ++xx)
    for (int yy = 2; yy + 2 < m; ++yy) {
      const size_t i = static_cast<size_t>(xx) * m + yy;
      const double fd_x =
          -(psi[static_cast<size_t>(xx + 1) * m + yy] -
            psi[static_cast<size_t>(xx - 1) * m + yy]) /
          (2 * h);
      const double fd_y = -(psi[i + 1] - psi[i - 1]) / (2 * h);
      max_err = std::max({max_err, std::abs(fd_x - ex[i]), std::abs(fd_y - ey[i])});
      max_f = std::max({max_f, std::abs(ex[i]), std::abs(ey[i])});
    }
  EXPECT_LT(max_err, 0.05 * max_f);
}

TEST(Poisson, EnergyNonNegativeAndZeroForUniform) {
  const int m = 16;
  PoissonSolver solver(m, 40.0, 40.0);
  std::vector<double> rho(static_cast<size_t>(m) * m, 1.0);
  std::vector<double> psi, ex, ey;
  solver.solve(rho, psi, ex, ey);
  EXPECT_NEAR(PoissonSolver::energy(rho, psi), 0.0, 1e-9);

  Rng rng(9);
  for (auto& r : rho) r = rng.uniform(0.0, 2.0);
  solver.solve(rho, psi, ex, ey);
  EXPECT_GT(PoissonSolver::energy(rho, psi), 0.0);
}

TEST(Poisson, NonPowerOfTwoGridCountsSlowPathSolves) {
  obs::Counter& slow =
      obs::MetricsRegistry::instance().counter("placer.poisson.slow_path");
  const int m = 12;
  placer::PoissonSolver solver(m, 30.0, 30.0);
  EXPECT_FALSE(solver.uses_fft());
  std::vector<double> rho(static_cast<size_t>(m) * m, 0.25);
  std::vector<double> psi, ex, ey;
  const uint64_t before = slow.value();
  solver.solve(rho, psi, ex, ey);
  solver.solve(rho, psi, ex, ey);
  EXPECT_EQ(slow.value(), before + 2);

  // The fast path must not touch the counter.
  placer::PoissonSolver fast(16, 30.0, 30.0);
  std::vector<double> rho16(16 * 16, 0.25);
  const uint64_t mid = slow.value();
  fast.solve(rho16, psi, ex, ey);
  EXPECT_EQ(slow.value(), mid);
}

}  // namespace
}  // namespace dtp::placer
