// Spectral Poisson solver for electrostatic placement density (ePlace/
// DREAMPlace formulation, the paper's density substrate).
//
// Solves  laplacian(psi) = -rho  on an m x m bin grid over a W x H core with
// Neumann (reflecting) boundaries.  The Neumann eigenbasis on the grid is the
// DCT-II basis cos(pi*u*(x+0.5)/m) with physical wavenumber k_u = pi*u/W, so
//
//   rho_hat  = DCT2(rho)                      (series coefficients)
//   psi_hat  = rho_hat / (k_u^2 + k_v^2)      (DC term dropped)
//   psi      = IDCT2(psi_hat)
//   field_x  = -d(psi)/dx = sum psi_hat * k_u * sin(k_u x) cos(k_v y)
//   field_y  analogously with cos*sin.
//
// For power-of-two grids every transform row runs as ONE size-m/2 complex
// FFT of the packed real sequence (kernels::DctPlan, arXiv 2510.21547) —
// roughly 4x fewer butterflies than a size-2m complex FFT per row; other
// sizes fall back to direct O(m^3) cosine/sine sums
// (kernels::HalfSampleDirect, also the test oracle) with a one-time warning
// and the `placer.poisson.slow_path` counter.  All hot loops are kernel-layer
// calls (kernels/kernels.h).
#pragma once

#include <memory>
#include <vector>

namespace dtp::placer {

class PoissonSolver {
 public:
  // m: bins per dimension (grid is m x m); width/height: core extent in
  // microns (sets the physical wavenumbers).
  PoissonSolver(int m, double width, double height);

  int grid() const { return m_; }

  // rho: bin densities, row-major rho[x * m + y], in area units (splat of
  // cell areas; the solver is linear so scaling is the caller's business).
  // Outputs (resized): potential psi and field components per bin.
  void solve(const std::vector<double>& rho, std::vector<double>& psi,
             std::vector<double>& field_x, std::vector<double>& field_y) const;

  // System energy 0.5 * sum rho * psi of the last-solved configuration given
  // the same rho/psi pair (monitoring only).
  static double energy(const std::vector<double>& rho,
                       const std::vector<double>& psi);

  // True when the FFT fast path is active (power-of-two grid).
  bool uses_fft() const;

 private:
  struct Impl;
  int m_;
  double wu_scale_x_, wu_scale_y_;  // k_u = u * pi / W (resp. H)
  // Shared so the solver stays copyable; the scratch inside is per-solve
  // transient state only (solve() is not concurrency-safe on one instance).
  std::shared_ptr<Impl> impl_;
};

}  // namespace dtp::placer
