#include "placer/density.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "obs/trace.h"

namespace dtp::placer {

using netlist::CellId;

DensityModel::DensityModel(const netlist::Design& design, int bins_per_dim,
                           double target_density)
    : design_(&design),
      m_(bins_per_dim),
      target_density_(target_density),
      bin_w_(design.floorplan.core.width() / bins_per_dim),
      bin_h_(design.floorplan.core.height() / bins_per_dim),
      solver_(bins_per_dim, design.floorplan.core.width(),
              design.floorplan.core.height()) {
  const netlist::Netlist& nl = design.netlist;
  const size_t n = nl.num_cells();
  cell_w_.resize(n);
  cell_h_.resize(n);
  cell_area_.resize(n);
  movable_.resize(n);
  for (size_t c = 0; c < n; ++c) {
    const liberty::LibCell& master = nl.lib_cell_of(static_cast<CellId>(c));
    cell_w_[c] = master.width;
    cell_h_[c] = master.height;
    cell_area_[c] = master.width * master.height;
    movable_[c] = !nl.cell(static_cast<CellId>(c)).fixed;
    if (movable_[c]) total_movable_area_ += cell_area_[c];
  }
  rho_.assign(static_cast<size_t>(m_) * m_, 0.0);
}

kernels::DensityGrid DensityModel::grid_view() const {
  const Rect& core = design_->floorplan.core;
  kernels::DensityGrid g;
  g.m = m_;
  g.bin_w = bin_w_;
  g.bin_h = bin_h_;
  g.core_xl = core.xl;
  g.core_yl = core.yl;
  g.core_w = core.width();
  g.core_h = core.height();
  return g;
}

kernels::DensityCells DensityModel::cells_view() const {
  kernels::DensityCells cells;
  cells.w = cell_w_.data();
  cells.h = cell_h_.data();
  cells.area = cell_area_.data();
  cells.movable = movable_.data();
  cells.n = cell_w_.size();
  return cells;
}

DensityStats DensityModel::update(std::span<const double> x,
                                  std::span<const double> y) {
  DTP_TRACE_SCOPE("density_update");
  std::fill(rho_.begin(), rho_.end(), 0.0);
  kernels::density_scatter(grid_view(), cells_view(), x.data(), y.data(),
                           rho_.data());

  {
    DTP_TRACE_SCOPE("poisson_solve");
    solver_.solve(rho_, psi_, field_x_, field_y_);
  }

  DensityStats stats;
  stats.energy = PoissonSolver::energy(rho_, psi_);
  const double bin_area = bin_w_ * bin_h_;
  const double cap = target_density_ * bin_area;
  double over = 0.0;
  for (double r : rho_) {
    over += std::max(0.0, r - cap);
    stats.max_density = std::max(stats.max_density, r / bin_area);
  }
  stats.overflow = total_movable_area_ > 0 ? over / total_movable_area_ : 0.0;
  return stats;
}

void DensityModel::add_gradient(std::span<const double> x,
                                std::span<const double> y, double lambda,
                                std::span<double> gx, std::span<double> gy) const {
  DTP_TRACE_SCOPE("density_grad");
  kernels::density_gather(grid_view(), cells_view(), x.data(), y.data(),
                          field_x_.data(), field_y_.data(), lambda, gx.data(),
                          gy.data());
}

}  // namespace dtp::placer
