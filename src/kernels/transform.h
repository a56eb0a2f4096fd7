// Half-sample cosine/sine transform plans for the spectral Poisson solver
// (DESIGN.md §15).
//
// Basis (Neumann eigenfunctions of the m-bin grid):
//
//   C_u(x) = cos(pi*u*(x+1/2)/m),   S_u(x) = sin(pi*u*(x+1/2)/m)
//
// with three row kernels:
//
//   dct2      : X_u  = sum_x x_x * C_u(x)          (analysis / DCT-II)
//   eval_cos  : f(x) = sum_u a_u * C_u(x)          (synthesis / DCT-III-like)
//   eval_sin  : f(x) = sum_u b_u * S_u(x)          (sine synthesis)
//
// Two implementations live here:
//
//  * HalfSampleDirect — the O(m^2)-per-row direct table sums.  Any m >= 2.
//    This is the property-test oracle and the fallback the Poisson solver
//    uses on non-power-of-two grids (with a one-time warning and the
//    `placer.poisson.slow_path` counter).
//
//  * DctPlan — the real-to-complex fast path (power-of-two m), following
//    Zhang & Sapatnekar, "Accelerating Electrostatics-based Global Placement
//    with Enhanced FFT Computation" (arXiv 2510.21547).  Instead of the
//    seed's size-2m complex FFT per row, each row runs ONE complex FFT of
//    size m/2: the row is even/odd permuted (Makhoul), packed into a
//    half-length complex sequence, transformed, and unpacked with fused
//    DCT/real-FFT twiddles.  eval_sin reuses the eval_cos core through the
//    exact identity  sin(pi*u*(x+1/2)/m) = (-1)^x cos(pi*(m-u)*(x+1/2)/m),
//    i.e. a coefficient reversal plus output sign alternation — no separate
//    sine machinery.  Roughly 4x fewer butterflies per row than the seed
//    plus strictly in-cache scratch.
//
// The plan holds tables + preallocated scratch; the row kernels themselves
// are dct2_rows / idct_rows / idst_rows in kernels.h.  Scratch makes row
// kernels non-reentrant per plan — matching PoissonSolver's "solve() is not
// concurrency-safe on one instance" contract.
#pragma once

#include <cstddef>
#include <vector>

#include "kernels/fft.h"

namespace dtp::kernels {

// Direct O(m^2)-per-row sums: oracle + non-power-of-two fallback.
class HalfSampleDirect {
 public:
  explicit HalfSampleDirect(size_t m);

  size_t size() const { return m_; }

  // out[u] = sum_x in[x] cos(pi u (x+1/2) / m)
  void dct2(const double* in, double* out) const;
  // out[x] = sum_u in[u] cos(pi u (x+1/2) / m)
  void eval_cos(const double* in, double* out) const;
  // out[x] = sum_u in[u] sin(pi u (x+1/2) / m)
  void eval_sin(const double* in, double* out) const;

 private:
  size_t m_;
  std::vector<double> cos_tab_, sin_tab_;  // [u*m + x]
};

// Real-to-complex half-sample transform plan (power-of-two m >= 2): twiddle
// tables + the size-m/2 complex FFT + scratch.  Row kernels are free
// functions in kernels.h.
class DctPlan {
 public:
  explicit DctPlan(size_t m);  // m must be a power of two, >= 2

  size_t size() const { return m_; }
  size_t half() const { return m_ / 2; }
  const Fft& fft() const { return fft_; }

  // DCT twiddles e^{i pi k/(2m)}: cos_tw()[k], sin_tw()[k] for k < m.
  const double* cos_tw() const { return cos_tw_.data(); }
  const double* sin_tw() const { return sin_tw_.data(); }
  // Real-FFT unpack twiddles e^{i 2 pi k/m}: k < m/2.
  const double* unpack_re() const { return unpack_re_.data(); }
  const double* unpack_im() const { return unpack_im_.data(); }

  // Preallocated per-row scratch (sized in the constructor; row kernels never
  // allocate).  zre/zim: m/2 complex lanes; v and rev: m real lanes.
  double* scratch_re() const { return zre_.data(); }
  double* scratch_im() const { return zim_.data(); }
  double* scratch_v() const { return v_.data(); }
  double* scratch_rev() const { return rev_.data(); }

 private:
  size_t m_;
  Fft fft_;  // size m/2
  std::vector<double> cos_tw_, sin_tw_;
  std::vector<double> unpack_re_, unpack_im_;
  mutable std::vector<double> zre_, zim_, v_, rev_;
};

}  // namespace dtp::kernels
