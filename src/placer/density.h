// Bin density accumulation and electrostatic density force (ePlace model).
//
// Each movable cell deposits its area into the bins it overlaps; cells
// smaller than a bin are inflated to bin dimensions with proportionally
// reduced charge density so total charge (area) is preserved — ePlace's local
// smoothing, which keeps the density gradient well-defined for cells much
// smaller than a bin.  Fixed cells with area (macros) would deposit immovable
// charge; IO pads are zero-area and contribute nothing.
//
// From the bin densities the PoissonSolver yields the potential and field;
// the force on a cell is its charge times the field averaged over its
// (inflated) footprint, bin-overlap weighted — the exact gradient of the
// system energy with respect to the cell position under the same splat.
#pragma once

#include <span>
#include <vector>

#include "kernels/kernels.h"
#include "netlist/netlist.h"
#include "placer/poisson.h"

namespace dtp::placer {

struct DensityStats {
  double overflow = 0.0;      // sum max(0, rho - target) / total movable area
  double max_density = 0.0;   // peak bin density relative to bin area
  double energy = 0.0;        // 0.5 * sum rho * psi
};

class DensityModel {
 public:
  // target_density: usable fraction of each bin (utilization target).
  DensityModel(const netlist::Design& design, int bins_per_dim,
               double target_density);

  int grid() const { return m_; }
  double bin_w() const { return bin_w_; }
  double bin_h() const { return bin_h_; }

  // Splats movable cells at (x, y) (cell origins), solves the Poisson system
  // and returns stats. Call before force().
  DensityStats update(std::span<const double> x, std::span<const double> y);

  // Accumulates (+=) the density gradient d(energy)/d(cell pos) into gx/gy.
  // Positive gradient pushes downhill when *subtracted* — i.e. the placer
  // adds lambda * this to the objective gradient.
  void add_gradient(std::span<const double> x, std::span<const double> y,
                    double lambda, std::span<double> gx,
                    std::span<double> gy) const;

  const std::vector<double>& bin_density() const { return rho_; }
  const std::vector<double>& potential() const { return psi_; }

 private:
  // Borrowed views handed to the kernel layer's scatter/gather functions
  // (which own the footprint-inflation math, see kernels.cpp).
  kernels::DensityGrid grid_view() const;
  kernels::DensityCells cells_view() const;

  const netlist::Design* design_;
  int m_;
  double target_density_;
  double bin_w_, bin_h_;
  std::vector<double> cell_w_, cell_h_, cell_area_;  // per cell (0 for pads)
  std::vector<char> movable_;
  double total_movable_area_ = 0.0;
  PoissonSolver solver_;
  std::vector<double> rho_, psi_, field_x_, field_y_;
};

}  // namespace dtp::placer
