// The kernel layer's batch entry points (kernels.h).  Each public function
// opens one DTP_PROF_SCOPE span for its whole batch; the transform row
// bodies and the density footprint are internal helpers.
#include "kernels/kernels.h"

#include "obs/trace.h"

namespace dtp::kernels {

namespace {

// ---------------------------------------------------------------- DCT-II ----
// One row of X_u = sum_x in[x] C_u(x) via Makhoul's even/odd permutation and
// a size-m/2 complex FFT of the packed real sequence (arXiv 2510.21547):
//
//   v[n] = in[2n], v[m-1-n] = in[2n+1]          (half-sample fold)
//   z[n] = v[2n] + i v[2n+1],  Z = FFT_{m/2}(z) (real-FFT packing)
//   V[k] = E[k] + e^{-2pi i k/m} O[k]           (real-FFT unpack)
//   X_k     = cos(t_k) Re V[k] + sin(t_k) Im V[k],  t_k = pi k/(2m)
//   X_{m-k} = sin(t_k) Re V[k] - cos(t_k) Im V[k]
void dct2_row(const DctPlan& plan, const double* DTP_RESTRICT in,
              double* DTP_RESTRICT out) {
  const size_t m = plan.size();
  const size_t h = plan.half();
  double* DTP_RESTRICT v = plan.scratch_v();
  double* DTP_RESTRICT zr = plan.scratch_re();
  double* DTP_RESTRICT zi = plan.scratch_im();
  for (size_t n = 0; n < h; ++n) {
    v[n] = in[2 * n];
    v[m - 1 - n] = in[2 * n + 1];
  }
  for (size_t n = 0; n < h; ++n) {
    zr[n] = v[2 * n];
    zi[n] = v[2 * n + 1];
  }
  plan.fft().forward(zr, zi);
  const double* DTP_RESTRICT ct = plan.cos_tw();
  const double* DTP_RESTRICT st = plan.sin_tw();
  const double* DTP_RESTRICT ur = plan.unpack_re();
  const double* DTP_RESTRICT ui = plan.unpack_im();
  // V[0] = Re Z[0] + Im Z[0] (real), V[m/2] = Re Z[0] - Im Z[0] (real).
  out[0] = zr[0] + zi[0];
  out[h] = ct[h] * (zr[0] - zi[0]);
  for (size_t k = 1; k < h; ++k) {
    const double zrk = zr[k], zik = zi[k];
    const double zrh = zr[h - k], zih = zi[h - k];
    const double er = 0.5 * (zrk + zrh);   // E[k] = (Z[k] + conj(Z[h-k]))/2
    const double ei = 0.5 * (zik - zih);
    const double og = 0.5 * (zik + zih);   // O[k] = -i (Z[k] - conj(Z[h-k]))/2
    const double oi = 0.5 * (zrh - zrk);
    const double wr = ur[k], wi = ui[k];   // e^{-2pi i k/m} = wr - i wi
    const double vr = er + (og * wr + oi * wi);
    const double vi = ei + (oi * wr - og * wi);
    out[k] = ct[k] * vr + st[k] * vi;
    out[m - k] = st[k] * vr - ct[k] * vi;
  }
}

// ------------------------------------------------------------- eval_cos ----
// One row of f(x) = sum_u a_u C_u(x) — the inverse of the pipeline above.
// The Hermitian spectrum V'[u] = (1/2) e^{i t_u} (a_u - i a_{m-u}) (with
// V'[0] = a_0) is folded straight into the packed half-length spectrum
// Z[k] = E + iO (both twiddles fused into one pass), one inverse FFT of
// size m/2 recovers the interleaved sequence, and the even/odd unfold
// restores half-sample order.
void idct_row(const DctPlan& plan, const double* DTP_RESTRICT in,
              double* DTP_RESTRICT out) {
  const size_t m = plan.size();
  const size_t h = plan.half();
  double* DTP_RESTRICT v = plan.scratch_v();
  double* DTP_RESTRICT zr = plan.scratch_re();
  double* DTP_RESTRICT zi = plan.scratch_im();
  const double* DTP_RESTRICT ct = plan.cos_tw();
  const double* DTP_RESTRICT st = plan.sin_tw();
  const double* DTP_RESTRICT ur = plan.unpack_re();
  const double* DTP_RESTRICT ui = plan.unpack_im();
  for (size_t k = 0; k < h; ++k) {
    // V1 = 2 V'[k], V2 = 2 V'[k+h]; the factor 2 cancels the real-FFT halves.
    double v1r, v1i;
    if (k == 0) {
      v1r = 2.0 * in[0];
      v1i = 0.0;
    } else {
      v1r = ct[k] * in[k] + st[k] * in[m - k];
      v1i = st[k] * in[k] - ct[k] * in[m - k];
    }
    const double aj = in[k + h];
    const double am = in[h - k];  // k = 0 hits in[h] twice: V'[h] is real
    const double v2r = ct[k + h] * aj + st[k + h] * am;
    const double v2i = st[k + h] * aj - ct[k + h] * am;
    const double er = v1r + v2r, ei = v1i + v2i;   // 2E'
    const double dr = v1r - v2r, di = v1i - v2i;
    const double wr = ur[k], wi = ui[k];           // e^{+2pi i k/m}
    const double og = dr * wr - di * wi;           // 2O'
    const double oi = dr * wi + di * wr;
    zr[k] = er - oi;  // Z = E' + i O'
    zi[k] = ei + og;
  }
  plan.fft().inverse(zr, zi);
  for (size_t n = 0; n < h; ++n) {
    v[2 * n] = 0.5 * zr[n];
    v[2 * n + 1] = 0.5 * zi[n];
  }
  for (size_t n = 0; n < h; ++n) {
    out[2 * n] = v[n];
    out[2 * n + 1] = v[m - 1 - n];
  }
}

// ------------------------------------------------------------- eval_sin ----
// f(x) = sum_u b_u S_u(x) via the exact half-sample identity
//   S_u(x) = (-1)^x C_{m-u}(x),
// i.e. reverse the coefficients (dropping b_0, whose basis row is zero),
// run the cosine synthesis, and alternate output signs.  col_scale, when
// present, is fused into the reversal pass (the solver's k_v wavenumber
// scaling — one sweep saved per row).
void idst_row(const DctPlan& plan, const double* DTP_RESTRICT in,
              const double* DTP_RESTRICT col_scale,
              double* DTP_RESTRICT out) {
  const size_t m = plan.size();
  double* DTP_RESTRICT rev = plan.scratch_rev();
  rev[0] = 0.0;
  if (col_scale != nullptr) {
    for (size_t u = 1; u < m; ++u) rev[u] = in[m - u] * col_scale[m - u];
  } else {
    for (size_t u = 1; u < m; ++u) rev[u] = in[m - u];
  }
  idct_row(plan, rev, out);
  for (size_t x = 1; x < m; x += 2) out[x] = -out[x];
}

// ------------------------------------------------------------ transpose ----
// Cache-blocked square transpose (the "cache-blocked column traversal" of
// arXiv 2510.21547): 32x32 tiles keep both the read and the write stream
// inside L1 for the grid sizes the placer uses.
constexpr size_t kTransposeTile = 32;

// -------------------------------------------------------------- density ----
// Inflated footprint of cell c at (x, y) — must mirror DensityModel's charge
// model exactly (the golden tests pin it).
struct Footprint {
  double xl, xh, yl, yh, scale;
};

Footprint footprint(const DensityGrid& g, const DensityCells& cells, size_t c,
                    double x, double y) {
  const double w = std::max(cells.w[c], g.bin_w);
  const double h = std::max(cells.h[c], g.bin_h);
  const double cx = x + 0.5 * cells.w[c];
  const double cy = y + 0.5 * cells.h[c];
  Footprint f;
  f.xl = cx - 0.5 * w;
  f.xh = cx + 0.5 * w;
  f.yl = cy - 0.5 * h;
  f.yh = cy + 0.5 * h;
  f.scale = cells.area[c] / (w * h);
  return f;
}

}  // namespace

void dct2_rows(const DctPlan& plan, const double* in, double* out,
               size_t rows) {
  DTP_PROF_SCOPE("k_dct2_rows");
  const size_t m = plan.size();
  for (size_t r = 0; r < rows; ++r) dct2_row(plan, in + r * m, out + r * m);
}

void idct_rows(const DctPlan& plan, const double* in, double* out,
               size_t rows) {
  DTP_PROF_SCOPE("k_idct_rows");
  const size_t m = plan.size();
  for (size_t r = 0; r < rows; ++r) idct_row(plan, in + r * m, out + r * m);
}

void idst_rows(const DctPlan& plan, const double* in, const double* col_scale,
               double* out, size_t rows) {
  DTP_PROF_SCOPE("k_idst_rows");
  const size_t m = plan.size();
  for (size_t r = 0; r < rows; ++r)
    idst_row(plan, in + r * m, col_scale, out + r * m);
}

void transpose(size_t m, const double* DTP_RESTRICT src,
               double* DTP_RESTRICT dst) {
  DTP_PROF_SCOPE("k_transpose");
  for (size_t i0 = 0; i0 < m; i0 += kTransposeTile) {
    const size_t i1 = std::min(m, i0 + kTransposeTile);
    for (size_t j0 = 0; j0 < m; j0 += kTransposeTile) {
      const size_t j1 = std::min(m, j0 + kTransposeTile);
      for (size_t i = i0; i < i1; ++i)
        for (size_t j = j0; j < j1; ++j) dst[j * m + i] = src[i * m + j];
    }
  }
}

void transpose_scaled(size_t m, const double* DTP_RESTRICT src,
                      const double* DTP_RESTRICT row_scale,
                      double* DTP_RESTRICT dst) {
  DTP_PROF_SCOPE("k_transpose");
  for (size_t i0 = 0; i0 < m; i0 += kTransposeTile) {
    const size_t i1 = std::min(m, i0 + kTransposeTile);
    for (size_t j0 = 0; j0 < m; j0 += kTransposeTile) {
      const size_t j1 = std::min(m, j0 + kTransposeTile);
      for (size_t i = i0; i < i1; ++i) {
        const double s = row_scale[i];
        for (size_t j = j0; j < j1; ++j) dst[j * m + i] = src[i * m + j] * s;
      }
    }
  }
}

void density_scatter(const DensityGrid& g, const DensityCells& cells,
                     const double* DTP_RESTRICT x, const double* DTP_RESTRICT y,
                     double* DTP_RESTRICT rho) {
  DTP_PROF_SCOPE("k_density_scatter");
  const int m = g.m;
  for (size_t c = 0; c < cells.n; ++c) {
    if (!cells.movable[c] || cells.area[c] <= 0.0) continue;
    const Footprint f = footprint(g, cells, c, x[c], y[c]);
    const double xl = std::max(f.xl - g.core_xl, 0.0);
    const double xh = std::min(f.xh - g.core_xl, g.core_w);
    const double yl = std::max(f.yl - g.core_yl, 0.0);
    const double yh = std::min(f.yh - g.core_yl, g.core_h);
    if (xl >= xh || yl >= yh) continue;
    const int bx0 = std::clamp(static_cast<int>(xl / g.bin_w), 0, m - 1);
    const int bx1 = std::clamp(static_cast<int>(xh / g.bin_w), 0, m - 1);
    const int by0 = std::clamp(static_cast<int>(yl / g.bin_h), 0, m - 1);
    const int by1 = std::clamp(static_cast<int>(yh / g.bin_h), 0, m - 1);
    for (int bx = bx0; bx <= bx1; ++bx) {
      const double ox =
          std::min(xh, (bx + 1) * g.bin_w) - std::max(xl, bx * g.bin_w);
      if (ox <= 0.0) continue;
      double* DTP_RESTRICT row = rho + static_cast<size_t>(bx) * m;
      for (int by = by0; by <= by1; ++by) {
        const double oy =
            std::min(yh, (by + 1) * g.bin_h) - std::max(yl, by * g.bin_h);
        if (oy <= 0.0) continue;
        row[by] += f.scale * ox * oy;
      }
    }
  }
}

void density_gather(const DensityGrid& g, const DensityCells& cells,
                    const double* DTP_RESTRICT x, const double* DTP_RESTRICT y,
                    const double* DTP_RESTRICT field_x,
                    const double* DTP_RESTRICT field_y, double lambda,
                    double* DTP_RESTRICT gx, double* DTP_RESTRICT gy) {
  DTP_PROF_SCOPE("k_density_gather");
  const int m = g.m;
  for (size_t c = 0; c < cells.n; ++c) {
    if (!cells.movable[c] || cells.area[c] <= 0.0) continue;
    const Footprint f = footprint(g, cells, c, x[c], y[c]);
    const double xl = std::max(f.xl - g.core_xl, 0.0);
    const double xh = std::min(f.xh - g.core_xl, g.core_w);
    const double yl = std::max(f.yl - g.core_yl, 0.0);
    const double yh = std::min(f.yh - g.core_yl, g.core_h);
    if (xl >= xh || yl >= yh) continue;
    const int bx0 = std::clamp(static_cast<int>(xl / g.bin_w), 0, m - 1);
    const int bx1 = std::clamp(static_cast<int>(xh / g.bin_w), 0, m - 1);
    const int by0 = std::clamp(static_cast<int>(yl / g.bin_h), 0, m - 1);
    const int by1 = std::clamp(static_cast<int>(yh / g.bin_h), 0, m - 1);
    double fx = 0.0, fy = 0.0;
    for (int bx = bx0; bx <= bx1; ++bx) {
      const double ox =
          std::min(xh, (bx + 1) * g.bin_w) - std::max(xl, bx * g.bin_w);
      if (ox <= 0.0) continue;
      const double* DTP_RESTRICT frow_x = field_x + static_cast<size_t>(bx) * m;
      const double* DTP_RESTRICT frow_y = field_y + static_cast<size_t>(bx) * m;
      for (int by = by0; by <= by1; ++by) {
        const double oy =
            std::min(yh, (by + 1) * g.bin_h) - std::max(yl, by * g.bin_h);
        if (oy <= 0.0) continue;
        const double q = f.scale * ox * oy;
        fx += q * frow_x[by];
        fy += q * frow_y[by];
      }
    }
    // The force -q*grad(psi) = +q*field pulls cells from dense to sparse
    // regions; as an objective gradient it enters with the opposite sign.
    gx[c] += -lambda * fx;
    gy[c] += -lambda * fy;
  }
}

}  // namespace dtp::kernels
