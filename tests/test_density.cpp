// Density model: splat conservation, overflow semantics, force direction.
#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"
#include "liberty/synth_library.h"
#include "placer/density.h"
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

TEST(Density, SplatConservesMovableArea) {
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design d = make_design(300, 61, lib);
  DensityModel dm(d, 32, 1.0);
  dm.update(d.cell_x, d.cell_y);
  double total = std::accumulate(dm.bin_density().begin(), dm.bin_density().end(), 0.0);
  double movable_area = 0.0;
  for (size_t c = 0; c < d.netlist.num_cells(); ++c) {
    if (d.netlist.cell(static_cast<int>(c)).fixed) continue;
    const auto& m = d.netlist.lib_cell_of(static_cast<int>(c));
    movable_area += m.width * m.height;
  }
  // Clamping at the core boundary can shave a little charge; cells start
  // near the center so the loss should be tiny.
  EXPECT_NEAR(total, movable_area, 0.02 * movable_area);
}

// System energy 0.5 * sum rho * psi of the model's last splat.  The model
// solves for the field only, so the potential is solved for here.
double energy_of(const DensityModel& dm, const Design& d) {
  const PoissonSolver solver(dm.grid(), d.floorplan.core.width(),
                             d.floorplan.core.height());
  std::vector<double> psi, ex, ey;
  solver.solve(dm.bin_density(), psi, ex, ey);
  return PoissonSolver::energy(dm.bin_density(), psi);
}

TEST(Density, ClusteredWorseThanSpreadOverflow) {
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design d = make_design(400, 67, lib);
  DensityModel dm(d, 32, 1.0);
  const auto clustered = dm.update(d.cell_x, d.cell_y);
  const double clustered_energy = energy_of(dm, d);

  // Spread uniformly over the core.
  const Rect& core = d.floorplan.core;
  Rng rng(5);
  auto x = d.cell_x;
  auto y = d.cell_y;
  for (size_t c = 0; c < x.size(); ++c) {
    if (d.netlist.cell(static_cast<int>(c)).fixed) continue;
    x[c] = rng.uniform(core.xl, core.xh - 2.0);
    y[c] = rng.uniform(core.yl, core.yh - 2.0);
  }
  const auto spread = dm.update(x, y);
  EXPECT_LT(spread.overflow, clustered.overflow);
  EXPECT_LT(energy_of(dm, d), clustered_energy);
  EXPECT_GT(clustered.overflow, 0.3);  // center-clustered start is congested
}

TEST(Density, ForcePushesApartTwoClusters) {
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design d = make_design(200, 71, lib);
  DensityModel dm(d, 32, 1.0);
  // Pile every movable cell onto the core center.
  const Rect& core = d.floorplan.core;
  const double cx = 0.5 * (core.xl + core.xh), cy = 0.5 * (core.yl + core.yh);
  auto x = d.cell_x;
  auto y = d.cell_y;
  std::vector<size_t> movers;
  for (size_t c = 0; c < x.size(); ++c) {
    if (d.netlist.cell(static_cast<int>(c)).fixed) continue;
    movers.push_back(c);
  }
  // Left half slightly left of center, right half slightly right.
  for (size_t i = 0; i < movers.size(); ++i) {
    x[movers[i]] = cx + (i % 2 == 0 ? -3.0 : 3.0);
    y[movers[i]] = cy;
  }
  dm.update(x, y);
  std::vector<double> gx(x.size(), 0.0), gy(y.size(), 0.0);
  dm.add_gradient(x, y, 1.0, gx, gy);
  // Descent direction -g must push left cells further left, right further
  // right (apart), for a strong majority.
  int correct = 0, total = 0;
  for (size_t i = 0; i < movers.size(); ++i) {
    const size_t c = movers[i];
    if (gx[c] == 0.0) continue;
    ++total;
    if (i % 2 == 0 ? (-gx[c] < 0.0) : (-gx[c] > 0.0)) ++correct;
  }
  ASSERT_GT(total, 0);
  // Cells whose inflated footprint straddles the cluster midline can feel a
  // small wrong-way force; a strong majority must still be pushed apart.
  EXPECT_GT(static_cast<double>(correct) / total, 0.8);
}

TEST(Density, FixedPadsContributeNothing) {
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design d = make_design(150, 73, lib);
  DensityModel dm(d, 16, 1.0);
  dm.update(d.cell_x, d.cell_y);
  std::vector<double> gx(d.cell_x.size(), 0.0), gy(d.cell_y.size(), 0.0);
  dm.add_gradient(d.cell_x, d.cell_y, 1.0, gx, gy);
  for (size_t c = 0; c < gx.size(); ++c) {
    if (!d.netlist.cell(static_cast<int>(c)).fixed) continue;
    EXPECT_EQ(gx[c], 0.0);
    EXPECT_EQ(gy[c], 0.0);
  }
}

TEST(Density, OverflowZeroWhenPerfectlySpread) {
  // A synthetic check of the overflow definition: put each cell in its own
  // far-apart bin region.
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design d = make_design(64, 79, lib);
  DensityModel dm(d, 16, 1.0);
  const Rect& core = d.floorplan.core;
  auto x = d.cell_x;
  auto y = d.cell_y;
  size_t k = 0;
  for (size_t c = 0; c < x.size(); ++c) {
    if (d.netlist.cell(static_cast<int>(c)).fixed) continue;
    x[c] = core.xl + (0.5 + static_cast<double>(k % 8)) / 8.0 * core.width() - 1.0;
    y[c] = core.yl + (0.5 + static_cast<double>(k / 8 % 8)) / 8.0 * core.height() - 1.0;
    ++k;
  }
  const auto stats = dm.update(x, y);
  EXPECT_LT(stats.overflow, 0.05);
}

}  // namespace
}  // namespace dtp::placer
