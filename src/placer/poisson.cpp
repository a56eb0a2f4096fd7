#include "placer/poisson.h"

#include <atomic>
#include <cmath>

#include "common/assert.h"
#include "common/logger.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dtp::placer {

namespace {
constexpr double kPi = 3.14159265358979323846;

void transpose(int m, const std::vector<double>& src, std::vector<double>& dst) {
  DTP_TRACE_SCOPE("pois_transpose");
  dst.resize(src.size());
  kernels::transpose(static_cast<size_t>(m), src.data(), dst.data());
}

// Fused twiddle+transpose: dst[j][i] = src[i][j] * row_scale[i].
void transpose_scaled(int m, const std::vector<double>& src,
                      const std::vector<double>& row_scale,
                      std::vector<double>& dst) {
  DTP_TRACE_SCOPE("pois_transpose");
  dst.resize(src.size());
  kernels::transpose_scaled(static_cast<size_t>(m), src.data(),
                            row_scale.data(), dst.data());
}

}  // namespace

struct PoissonSolver::Impl {
  Impl(int m, double wux, double wuy) {
    const size_t um = static_cast<size_t>(m);
    if (kernels::is_power_of_two(um)) {
      plan = std::make_unique<kernels::DctPlan>(um);
    } else {
      direct = std::make_unique<kernels::HalfSampleDirect>(um);
    }
    kx.resize(um);
    ky.resize(um);
    for (size_t u = 0; u < um; ++u) {
      kx[u] = static_cast<double>(u) * wux;
      ky[u] = static_cast<double>(u) * wuy;
    }
    const size_t mm = um * um;
    a.resize(mm);
    b.resize(mm);
    coef.resize(mm);
    tmp2.resize(mm);
  }
  // Exactly one of these is set: the real-to-complex fast path for
  // power-of-two grids, the direct table sums otherwise.
  std::unique_ptr<kernels::DctPlan> plan;
  std::unique_ptr<kernels::HalfSampleDirect> direct;
  std::vector<double> kx, ky;  // wavenumbers k_u = u*pi/W, k_v = v*pi/H
  // Scratch matrices (all m*m, preallocated — solve() never allocates).
  std::vector<double> a, b, coef, tmp2;
};

PoissonSolver::PoissonSolver(int m, double width, double height) : m_(m) {
  DTP_ASSERT(m >= 2 && width > 0.0 && height > 0.0);
  wu_scale_x_ = kPi / width;
  wu_scale_y_ = kPi / height;
  impl_ = std::make_shared<Impl>(m, wu_scale_x_, wu_scale_y_);
}

void PoissonSolver::solve(const std::vector<double>& rho, std::vector<double>& psi,
                          std::vector<double>& field_x,
                          std::vector<double>& field_y) const {
  const int m = m_;
  const size_t mm = static_cast<size_t>(m) * m;
  DTP_ASSERT(rho.size() == mm);
  psi.resize(mm);
  field_x.resize(mm);
  field_y.resize(mm);

  Impl& im = *impl_;
  auto& a = im.a;
  auto& b = im.b;
  auto& coef = im.coef;
  auto& tmp2 = im.tmp2;
  const size_t um = static_cast<size_t>(m);

  if (im.direct != nullptr) {
    // Non-power-of-two grid: O(m^3) direct sums.  Shout once, count always —
    // auto_bins never picks such a grid, so hitting this path means an
    // explicit configuration worth surfacing.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      DTP_LOG_WARN(
          "poisson: grid %d is not a power of two; using O(m^3) direct "
          "transforms (~%dx slower per solve than the FFT path)",
          m, m > 16 ? m / 16 : 1);
    }
    static obs::Counter& slow_path =
        obs::MetricsRegistry::instance().counter("placer.poisson.slow_path");
    slow_path.add(1);
  }

  const kernels::HalfSampleDirect* direct = im.direct.get();
  const kernels::DctPlan* plan = im.plan.get();

  // coef[u][v] = sum_{x,y} rho[x][y] C_u(x) C_v(y): contract x, then y.
  transpose(m, rho, a);  // a[y][x]
  {
    DTP_TRACE_SCOPE("pois_dct_rows");
    if (plan != nullptr) {
      kernels::dct2_rows(*plan, a.data(), b.data(), um);  // b[y][u]
    } else {
      for (int y = 0; y < m; ++y)
        direct->dct2(a.data() + static_cast<size_t>(y) * m,
                     b.data() + static_cast<size_t>(y) * m);
    }
  }
  transpose(m, b, a);  // a[u][y]
  {
    DTP_TRACE_SCOPE("pois_dct_cols");
    if (plan != nullptr) {
      kernels::dct2_rows(*plan, a.data(), coef.data(), um);  // coef[u][v]
    } else {
      for (int u = 0; u < m; ++u)
        direct->dct2(a.data() + static_cast<size_t>(u) * m,
                     coef.data() + static_cast<size_t>(u) * m);
    }
  }

  // Series coefficients alpha_u alpha_v / (k_u^2 + k_v^2), DC dropped.
  {
    DTP_TRACE_SCOPE("pois_spectral_scale");
    for (int u = 0; u < m; ++u) {
      const double ku = im.kx[static_cast<size_t>(u)];
      const double au = (u == 0 ? 1.0 : 2.0) / m;
      for (int v = 0; v < m; ++v) {
        const double kv = im.ky[static_cast<size_t>(v)];
        const double av = (v == 0 ? 1.0 : 2.0) / m;
        const size_t i = static_cast<size_t>(u) * m + v;
        coef[i] = (u == 0 && v == 0)
                      ? 0.0
                      : coef[i] * au * av / (ku * ku + kv * kv);
      }
    }
  }

  // tmp2[u][y] = sum_v coef[u][v] C_v(y).
  {
    DTP_TRACE_SCOPE("pois_idct_rows");
    if (plan != nullptr) {
      kernels::idct_rows(*plan, coef.data(), tmp2.data(), um);
    } else {
      for (int u = 0; u < m; ++u)
        direct->eval_cos(coef.data() + static_cast<size_t>(u) * m,
                         tmp2.data() + static_cast<size_t>(u) * m);
    }
  }

  // psi[x][y] = sum_u tmp2[u][y] C_u(x).
  transpose(m, tmp2, a);  // a[y][u]
  {
    DTP_TRACE_SCOPE("pois_idct_cols");
    if (plan != nullptr) {
      kernels::idct_rows(*plan, a.data(), b.data(), um);  // b[y][x]
    } else {
      for (int y = 0; y < m; ++y)
        direct->eval_cos(a.data() + static_cast<size_t>(y) * m,
                         b.data() + static_cast<size_t>(y) * m);
    }
  }
  transpose(m, b, psi);

  // field_x[x][y] = sum_u k_u tmp2[u][y] S_u(x).  The k_u scale rides the
  // transpose (fused twiddle+transpose pass).
  {
    DTP_TRACE_SCOPE("pois_idst_fieldx");
    transpose_scaled(m, tmp2, im.kx, a);  // a[y][u] = k_u tmp2[u][y]
    if (plan != nullptr) {
      kernels::idst_rows(*plan, a.data(), nullptr, b.data(), um);  // b[y][x]
    } else {
      for (int y = 0; y < m; ++y)
        direct->eval_sin(a.data() + static_cast<size_t>(y) * m,
                         b.data() + static_cast<size_t>(y) * m);
    }
    transpose(m, b, field_x);
  }

  // field_y[x][y] = sum_u C_u(x) sum_v k_v coef[u][v] S_v(y).  The k_v scale
  // is fused into the sine rows' coefficient pack.
  {
    DTP_TRACE_SCOPE("pois_idst_fieldy");
    if (plan != nullptr) {
      kernels::idst_rows(*plan, coef.data(), im.ky.data(), b.data(),
                         um);  // b[u][y]
    } else {
      for (int u = 0; u < m; ++u) {
        for (int v = 0; v < m; ++v)
          a[static_cast<size_t>(u) * m + v] =
              coef[static_cast<size_t>(u) * m + v] * im.ky[static_cast<size_t>(v)];
        direct->eval_sin(a.data() + static_cast<size_t>(u) * m,
                         b.data() + static_cast<size_t>(u) * m);
      }
    }
    transpose(m, b, a);  // a[y][u]
    {
      if (plan != nullptr) {
        kernels::idct_rows(*plan, a.data(), b.data(), um);  // b[y][x]
      } else {
        for (int y = 0; y < m; ++y)
          direct->eval_cos(a.data() + static_cast<size_t>(y) * m,
                           b.data() + static_cast<size_t>(y) * m);
      }
    }
    transpose(m, b, field_y);
  }
}

double PoissonSolver::energy(const std::vector<double>& rho,
                             const std::vector<double>& psi) {
  DTP_ASSERT(rho.size() == psi.size());
  double e = 0.0;
  for (size_t i = 0; i < rho.size(); ++i) e += rho[i] * psi[i];
  return 0.5 * e;
}

bool PoissonSolver::uses_fft() const { return impl_->plan != nullptr; }

}  // namespace dtp::placer
