// Golden bitwise-identity regression for the unified timing data plane
// (DESIGN.md §10).  The refactor to a flat CSR level schedule, shared
// fwd/bwd workspace, arena Steiner forest and candidate cache is required to
// preserve placement results *bit for bit*: per-pin iteration order, LUT
// query order and aggregation order are all unchanged, so every metric and
// gradient must equal the values captured from the pre-refactor
// implementation below.  EXPECT_EQ on doubles is deliberate — the constants
// were printed with %.17g, which round-trips exactly.
//
// If a future change intentionally alters numerics, re-capture: run this
// exact flow on the trusted implementation and paste the new constants.
//
// The placer-run constants were re-captured when the Poisson transforms moved
// to the real-to-complex DctPlan fast path — same placement, last-ulp shifts.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "dtimer/diff_timer.h"
#include "liberty/synth_library.h"
#include "obs/introspect/introspect.h"
#include "placer/global_placer.h"
#include "sta/timing_graph.h"
#include "workload/circuit_gen.h"

namespace dtp {
namespace {

// Position-sensitive weighted checksum: reordering, dropping or perturbing
// any single gradient entry changes the sum.
double checksum(std::span<const double> v) {
  double acc = 0.0;
  for (size_t i = 0; i < v.size(); ++i) {
    const double w =
        0.5 + 0.5 * static_cast<double>((i * 2654435761u) & 0xffff) / 65536.0;
    acc += v[i] * w;
  }
  return acc;
}

TEST(GoldenPlane, SeedMetricsAndGradientsBitwiseIdentical) {
  liberty::CellLibrary lib = liberty::make_synthetic_library();
  workload::WorkloadOptions wopts;
  wopts.seed = 7;
  wopts.num_cells = 300;
  netlist::Design design = workload::generate_design(lib, wopts, "golden300");
  sta::TimingGraph graph(design.netlist);

  const size_t nc = design.netlist.num_cells();
  std::vector<double> x(design.cell_x.begin(), design.cell_x.end());
  std::vector<double> y(design.cell_y.begin(), design.cell_y.end());

  dtimer::DiffTimerOptions dopts;
  dtimer::DiffTimer dt(design, graph, dopts);

  // Rebuild-path forward + backward.
  const sta::TimingMetrics m1 = dt.forward(x, y, /*force_rebuild=*/true);
  std::vector<double> gx(nc, 0.0), gy(nc, 0.0);
  dt.backward(1.0, 1.0, gx, gy);
  EXPECT_EQ(m1.wns, -0.74986826892143932);
  EXPECT_EQ(m1.tns, -11.378369784987203);
  EXPECT_EQ(m1.wns_smooth, -0.83926677457790899);
  EXPECT_EQ(m1.tns_smooth, -12.017766147407405);
  EXPECT_EQ(checksum(gx), 0.012974609892058876);
  EXPECT_EQ(checksum(gy), 0.02115459460732641);

  // Deterministic small move, then the drag path (no rebuild).
  for (size_t c = 0; c < nc; ++c) {
    if (design.netlist.cell(static_cast<netlist::CellId>(c)).fixed) continue;
    x[c] += 0.25 * (static_cast<double>(c % 7) - 3.0);
    y[c] += 0.25 * (static_cast<double>(c % 5) - 2.0);
  }
  const sta::TimingMetrics m2 = dt.forward(x, y, /*force_rebuild=*/false);
  std::fill(gx.begin(), gx.end(), 0.0);
  std::fill(gy.begin(), gy.end(), 0.0);
  dt.backward(0.7, 0.3, gx, gy);
  EXPECT_EQ(m2.wns, -0.76359765854015138);
  EXPECT_EQ(m2.tns, -11.717789358414393);
  EXPECT_EQ(m2.wns_smooth, -0.85488112119236803);
  EXPECT_EQ(m2.tns_smooth, -12.356487677699596);
  EXPECT_EQ(checksum(gx), 0.030585776608661446);
  EXPECT_EQ(checksum(gy), 0.016683825392980283);

  // Hard-mode reference Timer on the moved placement, with the RAT sweep
  // (exercises the candidate cache in update_required).
  sta::Timer timer(design, graph, {});
  const sta::TimingMetrics hm = timer.evaluate(x, y);
  timer.update_required();
  double slack_sum = 0.0;
  for (size_t p = 0; p < design.netlist.num_pins(); ++p) {
    const double s = timer.pin_slack(static_cast<netlist::PinId>(p));
    if (std::isfinite(s)) slack_sum += s;
  }
  EXPECT_EQ(hm.wns, -0.64811900417573076);
  EXPECT_EQ(hm.tns, -8.4301295724872016);
  EXPECT_EQ(hm.num_violations, 24u);
  EXPECT_EQ(slack_sum, 178.25600419785292);
}

TEST(GoldenPlane, PlacerRunBitwiseIdentical) {
  // End-to-end: a short timing-driven placement run must land on the exact
  // same placement (HPWL and post-place timing) as the captured run.
  liberty::CellLibrary lib = liberty::make_synthetic_library();
  workload::WorkloadOptions wopts;
  wopts.seed = 7;
  wopts.num_cells = 300;
  netlist::Design design = workload::generate_design(lib, wopts, "golden300");
  sta::TimingGraph graph(design.netlist);

  placer::GlobalPlacerOptions popts;
  popts.mode = placer::PlacerMode::DiffTiming;
  popts.max_iters = 60;
  popts.timing_start_iter = 15;
  popts.timing_start_overflow = 1.0;
  placer::GlobalPlacer gp(design, graph, popts);
  const placer::PlaceResult r = gp.run();

  sta::Timer timer(design, graph, {});
  const sta::TimingMetrics fm = timer.evaluate(design.cell_x, design.cell_y);
  EXPECT_EQ(r.iterations, 60);
  EXPECT_EQ(r.hpwl, 2840.6107604040417);
  EXPECT_EQ(fm.wns, -0.49260237254506456);
  EXPECT_EQ(fm.tns, -5.6065482582984449);
}

TEST(GoldenPlane, PlacerRunBitwiseIdenticalWithActivityTracking) {
  // The activity layer is a pure observer: the exact same run with the
  // tracker attached and activity records streaming must land on the
  // identical placement and timing, bit for bit (same constants as above).
  liberty::CellLibrary lib = liberty::make_synthetic_library();
  workload::WorkloadOptions wopts;
  wopts.seed = 7;
  wopts.num_cells = 300;
  netlist::Design design = workload::generate_design(lib, wopts, "golden300");
  sta::TimingGraph graph(design.netlist);

  obs::IntrospectionSink sink;
  ASSERT_TRUE(
      sink.open(std::string(::testing::TempDir()) + "golden_activity.jsonl"));
  placer::GlobalPlacerOptions popts;
  popts.mode = placer::PlacerMode::DiffTiming;
  popts.max_iters = 60;
  popts.timing_start_iter = 15;
  popts.timing_start_overflow = 1.0;
  popts.activity_sink = &sink;
  popts.activity.sample_period = 10;
  placer::GlobalPlacer gp(design, graph, popts);
  const placer::PlaceResult r = gp.run();
  EXPECT_GT(sink.records_written(), 0u);

  sta::Timer timer(design, graph, {});
  const sta::TimingMetrics fm = timer.evaluate(design.cell_x, design.cell_y);
  EXPECT_EQ(r.iterations, 60);
  EXPECT_EQ(r.hpwl, 2840.6107604040417);
  EXPECT_EQ(fm.wns, -0.49260237254506456);
  EXPECT_EQ(fm.tns, -5.6065482582984449);
}

}  // namespace
}  // namespace dtp
