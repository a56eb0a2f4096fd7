// Global placer integration: convergence, spreading, and the paper's core
// claim in miniature — the differentiable-timing mode beats wirelength-only
// timing at near-equal HPWL.
#include <gtest/gtest.h>

#include <thread>

#include "common/rng.h"
#include "liberty/synth_library.h"
#include "obs/metrics.h"
#include "placer/global_placer.h"
#include "placer/legalizer.h"
#include "workload/circuit_gen.h"

namespace dtp::placer {
namespace {

using netlist::Design;

Design make_design(int cells, uint64_t seed, const liberty::CellLibrary& lib,
                   double clock_scale = 0.7) {
  workload::WorkloadOptions opts;
  opts.num_cells = cells;
  opts.seed = seed;
  opts.levels = 14;
  opts.clock_scale = clock_scale;
  return workload::generate_design(lib, opts);
}

GlobalPlacerOptions fast_options() {
  GlobalPlacerOptions o;
  o.max_iters = 500;
  o.min_iters = 60;
  o.bins = 32;
  o.timing_start_iter = 60;
  return o;
}

TEST(GlobalPlacer, SpreadsCellsBelowStopOverflow) {
  liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design d = make_design(600, 301, lib);
  sta::TimingGraph graph(d.netlist);
  GlobalPlacer placer(d, graph, fast_options());
  const auto res = placer.run();
  EXPECT_LT(res.overflow, 0.10);
  EXPECT_GT(res.iterations, 60);
  // Cells inside the core.
  const Rect& core = d.floorplan.core;
  for (size_t c = 0; c < d.cell_x.size(); ++c) {
    EXPECT_GE(d.cell_x[c], core.xl - 1e-9);
    EXPECT_LE(d.cell_x[c], core.xh + 1e-9);
  }
}

TEST(GlobalPlacer, OverflowTrendsDownward) {
  liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design d = make_design(500, 303, lib);
  sta::TimingGraph graph(d.netlist);
  GlobalPlacer placer(d, graph, fast_options());
  const auto res = placer.run();
  ASSERT_GT(res.history.size(), 20u);
  const double early = res.history[5].overflow;
  const double late = res.history.back().overflow;
  EXPECT_LT(late, 0.5 * early);
}

TEST(GlobalPlacer, BeatsRandomPlacementHpwl) {
  liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design d = make_design(500, 305, lib);
  sta::TimingGraph graph(d.netlist);

  // Random-uniform legal-ish placement as the reference.
  Design ref = make_design(500, 305, lib);
  Rng rng(99);
  const Rect& core = ref.floorplan.core;
  for (size_t c = 0; c < ref.cell_x.size(); ++c) {
    if (ref.netlist.cell(static_cast<int>(c)).fixed) continue;
    ref.cell_x[c] = rng.uniform(core.xl, core.xh - 2.0);
    ref.cell_y[c] = rng.uniform(core.yl, core.yh - 2.0);
  }
  WirelengthModel wl_ref(ref);
  const double random_hpwl = wl_ref.hpwl_unweighted(ref.cell_x, ref.cell_y);

  GlobalPlacer placer(d, graph, fast_options());
  const auto res = placer.run();
  EXPECT_LT(res.hpwl, 0.55 * random_hpwl);
}

TEST(GlobalPlacer, DiffTimingImprovesTimingAtSimilarHpwl) {
  liberty::CellLibrary lib = liberty::make_synthetic_library();
  sta::TimingMetrics wl_only, ours;
  double hpwl_wl = 0.0, hpwl_ours = 0.0;

  for (int mode = 0; mode < 2; ++mode) {
    Design d = make_design(700, 307, lib, /*clock_scale=*/0.65);
    sta::TimingGraph graph(d.netlist);
    GlobalPlacerOptions o = fast_options();
    o.mode = mode == 0 ? PlacerMode::WirelengthOnly : PlacerMode::DiffTiming;
    GlobalPlacer placer(d, graph, o);
    const auto res = placer.run();
    sta::Timer timer(d, graph);
    const auto m = timer.evaluate(d.cell_x, d.cell_y);
    if (mode == 0) {
      wl_only = m;
      hpwl_wl = res.hpwl;
    } else {
      ours = m;
      hpwl_ours = res.hpwl;
    }
  }
  ASSERT_LT(wl_only.wns, 0.0) << "baseline must violate for the test to bite";
  // The paper's claim in miniature: better WNS and TNS...
  EXPECT_GT(ours.wns, wl_only.wns);
  EXPECT_GT(ours.tns, wl_only.tns);
  // ...at nearly unchanged wirelength ("for free", Table 3).
  EXPECT_LT(hpwl_ours, 1.15 * hpwl_wl);
}

TEST(GlobalPlacer, NetWeightingAlsoImprovesTiming) {
  liberty::CellLibrary lib = liberty::make_synthetic_library();
  sta::TimingMetrics wl_only, nw;
  for (int mode = 0; mode < 2; ++mode) {
    Design d = make_design(700, 309, lib, /*clock_scale=*/0.65);
    sta::TimingGraph graph(d.netlist);
    GlobalPlacerOptions o = fast_options();
    o.mode = mode == 0 ? PlacerMode::WirelengthOnly : PlacerMode::NetWeighting;
    GlobalPlacer placer(d, graph, o);
    placer.run();
    sta::Timer timer(d, graph);
    const auto m = timer.evaluate(d.cell_x, d.cell_y);
    (mode == 0 ? wl_only : nw) = m;
  }
  ASSERT_LT(wl_only.wns, 0.0);
  EXPECT_GT(nw.tns, wl_only.tns);
}

TEST(GlobalPlacer, ResultLegalizesCleanly) {
  liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design d = make_design(500, 311, lib);
  sta::TimingGraph graph(d.netlist);
  GlobalPlacer placer(d, graph, fast_options());
  placer.run();
  const auto lg = legalize(d, d.cell_x, d.cell_y);
  EXPECT_EQ(lg.failed_cells, 0u);
  std::string why;
  EXPECT_TRUE(is_legal(d, d.cell_x, d.cell_y, &why)) << why;
  // Spread placements legalize with modest displacement.
  EXPECT_LT(lg.max_displacement, 0.35 * d.floorplan.core.width());
}

TEST(GlobalPlacer, HistoryRecordsTimingWhenProbed) {
  liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design d = make_design(300, 313, lib);
  sta::TimingGraph graph(d.netlist);
  GlobalPlacerOptions o = fast_options();
  o.probe_timing_every = 20;
  GlobalPlacer placer(d, graph, o);
  const auto res = placer.run();
  size_t probed = 0;
  for (const auto& log : res.history)
    if (log.has_timing) ++probed;
  EXPECT_GE(probed, res.history.size() / 25);
}

TEST(GlobalPlacer, AdamModeAlsoConverges) {
  liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design d = make_design(400, 315, lib);
  sta::TimingGraph graph(d.netlist);
  GlobalPlacerOptions o = fast_options();
  o.use_adam = true;
  o.max_iters = 700;
  GlobalPlacer placer(d, graph, o);
  const auto res = placer.run();
  EXPECT_LT(res.overflow, 0.15);
}

// Runs a short DiffTiming placement and checks that its PhaseBreakdown wall
// seconds are exactly the per-phase milliseconds of its own history, summed.
void expect_phases_from_own_history(uint64_t seed) {
  liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design d = make_design(300, seed, lib);
  sta::TimingGraph graph(d.netlist);
  GlobalPlacerOptions o = fast_options();
  o.mode = PlacerMode::DiffTiming;
  o.max_iters = 40;
  o.timing_start_iter = 10;
  o.timing_start_overflow = 1.0;
  GlobalPlacer placer(d, graph, o);
  const PlaceResult res = placer.run();
  double ms[6] = {0, 0, 0, 0, 0, 0};
  for (const IterationLog& h : res.history) {
    ms[0] += h.wl_grad_ms;
    ms[1] += h.density_ms;
    ms[2] += h.rsmt_ms;
    ms[3] += h.sta_fwd_ms;
    ms[4] += h.sta_bwd_ms;
    ms[5] += h.step_ms;
  }
  const PhaseBreakdown& p = res.phases;
  const double sec[6] = {p.wirelength_sec,  p.density_sec,
                         p.rsmt_sec,        p.sta_forward_sec,
                         p.sta_backward_sec, p.step_sec};
  for (int i = 0; i < 6; ++i) {
    EXPECT_GT(sec[i], 0.0) << "phase " << i;
    EXPECT_DOUBLE_EQ(sec[i], 1e-3 * ms[i]) << "phase " << i;
  }
}

TEST(GlobalPlacer, PhasesSumOwnHistoryWithRegistryDisabled) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.set_enabled(false);
  expect_phases_from_own_history(317);
  reg.set_enabled(true);
}

TEST(GlobalPlacer, ConcurrentRunsKeepSeparatePhaseBooks) {
  // Two placements at once, as under dtp_serve: neither may book the other's
  // time.
  std::thread other([] { expect_phases_from_own_history(319); });
  expect_phases_from_own_history(321);
  other.join();
}

}  // namespace
}  // namespace dtp::placer
