// The kernel layer (DESIGN.md §15): the placer's numeric hot loops as plain
// functions, called directly — the Poisson spectral transforms + transposes,
// density scatter/gather, and the weighted-average wirelength gradient.
//
// Contracts:
//  * results are bitwise-golden: the golden placement tests pin them bit for
//    bit, so any change to the arithmetic here (operation order included)
//    requires re-capturing those constants;
//  * no allocation in any function (steady-state zero-alloc, DESIGN.md §10)
//    — scratch lives in the DctPlan or is passed in by the caller;
//  * every batch-level entry point publishes a DTP_PROF_SCOPE span so the
//    sampling profiler (DESIGN.md §14) attributes time to the kernel layer.
//    wa_axis runs once per net and axis, so it is header-inline and spanless;
//    its caller's wirelength_grad span covers the whole batch.
//
// Loops are restrict-qualified and branch-light so the compiler can
// vectorize what IEEE semantics allow without intrinsics.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "kernels/transform.h"

#if defined(__GNUC__) || defined(__clang__)
#define DTP_RESTRICT __restrict__
#else
#define DTP_RESTRICT
#endif

namespace dtp::kernels {

// Bin-grid geometry for the density kernels (mirrors DensityModel).
struct DensityGrid {
  int m = 0;                        // bins per dimension
  double bin_w = 0.0, bin_h = 0.0;  // bin extent in microns
  double core_xl = 0.0, core_yl = 0.0;
  double core_w = 0.0, core_h = 0.0;
};

// Borrowed SoA view of the cell population (caller owns the arrays).
struct DensityCells {
  const double* w = nullptr;     // cell widths
  const double* h = nullptr;     // cell heights
  const double* area = nullptr;  // w*h, 0 for pads
  const char* movable = nullptr;
  size_t n = 0;
};

// ---- Poisson transform family (power-of-two fast path) ------------------
// `rows` contiguous rows of length plan.size(); in/out must not overlap.
void dct2_rows(const DctPlan& plan, const double* in, double* out, size_t rows);
void idct_rows(const DctPlan& plan, const double* in, double* out, size_t rows);
// Sine synthesis rows; when col_scale != nullptr, element v of every input
// row is scaled by col_scale[v] first (fused into the coefficient pack).
void idst_rows(const DctPlan& plan, const double* in, const double* col_scale,
               double* out, size_t rows);
// Cache-blocked square transpose: dst[j*m+i] = src[i*m+j].
void transpose(size_t m, const double* src, double* dst);
// Fused twiddle+transpose: dst[j*m+i] = src[i*m+j] * row_scale[i].
void transpose_scaled(size_t m, const double* src, const double* row_scale,
                      double* dst);

// ---- density scatter / gather -------------------------------------------
// Splat (+=) each movable cell's inflated footprint into rho (caller zeroes
// rho first).
void density_scatter(const DensityGrid& grid, const DensityCells& cells,
                     const double* x, const double* y, double* rho);
// Accumulate (+=) -lambda * charge-weighted field into gx/gy.
void density_gather(const DensityGrid& grid, const DensityCells& cells,
                    const double* x, const double* y, const double* field_x,
                    const double* field_y, double lambda, double* gx,
                    double* gy);

// ---- wirelength ---------------------------------------------------------
// Per-axis weighted-average value and gradient for one net; grads is
// overwritten.  ep/em are caller-provided scratch of size n.  Exp sums are
// shifted by cmax/cmin for stability.
inline double wa_axis(const double* DTP_RESTRICT coords, size_t n, double gamma,
                      double* DTP_RESTRICT grads, double* DTP_RESTRICT ep,
                      double* DTP_RESTRICT em) {
  double cmax = coords[0], cmin = coords[0];
  for (size_t i = 0; i < n; ++i) {
    cmax = std::max(cmax, coords[i]);
    cmin = std::min(cmin, coords[i]);
  }
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
  for (size_t i = 0; i < n; ++i) {
    const double gp = ep[i] / sp * (1.0 + (coords[i] - wa_p) / gamma);
    const double gm = em[i] / sm * (1.0 - (coords[i] - wa_m) / gamma);
    grads[i] = gp - gm;
  }
  return wa_p - wa_m;
}

}  // namespace dtp::kernels
