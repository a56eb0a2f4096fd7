// Timing introspection (DESIGN.md §8): path extraction against the reference
// STA forward pass, gradient-attribution accounting, pure-observer guarantee,
// and the JSONL artifact contract dtp_report relies on.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "liberty/synth_library.h"
#include "obs/introspect/grad_attrib.h"
#include "obs/introspect/introspect.h"
#include "obs/introspect/path_extract.h"
#include "placer/global_placer.h"
#include "json_test_util.h"
#include "workload/circuit_gen.h"

namespace dtp::obs {
namespace {

using netlist::Design;

Design make_design(int cells, uint64_t seed, const liberty::CellLibrary& lib) {
  workload::WorkloadOptions opts;
  opts.num_cells = cells;
  opts.seed = seed;
  opts.levels = 12;
  opts.clock_scale = 0.7;
  return workload::generate_design(lib, opts);
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

// The acceptance criterion: on a Hard-mode timer the captured per-stage
// delays telescope exactly to the endpoint arrival of the reference forward
// pass — at(source) + sum(delays) == at(endpoint).
TEST(PathExtract, StageDelaysSumToEndpointArrival) {
  liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design d = make_design(400, 71, lib);
  sta::TimingGraph graph(d.netlist);
  sta::Timer timer(d, graph);  // AggMode::Hard default
  timer.evaluate(d.cell_x, d.cell_y);

  const std::vector<PathRecord> paths = extract_critical_paths(timer, 10);
  ASSERT_EQ(paths.size(), 10u);
  for (const PathRecord& rec : paths) {
    ASSERT_GE(rec.stages.size(), 2u);
    EXPECT_EQ(rec.stages.back().pin, rec.endpoint);
    EXPECT_EQ(rec.stages.front().via, StageVia::Source);
    EXPECT_EQ(rec.stages.front().delay, 0.0);
    // Stage-by-stage telescoping and the endpoint identity.
    double at = rec.stages.front().at;
    for (size_t i = 1; i < rec.stages.size(); ++i) {
      at += rec.stages[i].delay;
      EXPECT_NEAR(at, rec.stages[i].at, 1e-6)
          << "stage " << i << " of endpoint " << rec.endpoint;
    }
    EXPECT_NEAR(at, rec.arrival, 1e-6);
    EXPECT_NEAR(rec.arrival, timer.at(rec.endpoint, rec.tr), 1e-12);
    EXPECT_NEAR(rec.slack, timer.endpoint_slack()[rec.endpoint_index], 1e-12);
  }
  // Worst-first ordering.
  for (size_t i = 1; i < paths.size(); ++i)
    EXPECT_LE(paths[i - 1].slack, paths[i].slack);
}

TEST(PathExtract, TopKTruncatesAndZeroDisables) {
  liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design d = make_design(300, 72, lib);
  sta::TimingGraph graph(d.netlist);
  sta::Timer timer(d, graph);
  timer.evaluate(d.cell_x, d.cell_y);
  EXPECT_EQ(extract_critical_paths(timer, 3).size(), 3u);
  EXPECT_TRUE(extract_critical_paths(timer, 0).empty());
}

// Attribution must account for >= 99.9% of the combined gradient norm.  The
// arrays mimic the placer's combine loop exactly, so the residual is pure
// floating-point noise.
TEST(GradAttribution, AccountsForTotalGradientNorm) {
  const size_t n = 500;
  Rng rng(17);
  std::vector<double> wl_x(n), wl_y(n), den_x(n), den_y(n), t_x(n), t_y(n);
  std::vector<double> total_x(n), total_y(n), precond(n), area(n);
  std::vector<char> movable(n, 1);
  const double lambda = 0.37;
  const double mean_area = 2.0;
  for (size_t c = 0; c < n; ++c) {
    wl_x[c] = rng.normal(0, 1.0);
    wl_y[c] = rng.normal(0, 1.0);
    den_x[c] = rng.normal(0, 0.5);
    den_y[c] = rng.normal(0, 0.5);
    t_x[c] = c % 3 == 0 ? rng.normal(0, 0.2) : 0.0;
    t_y[c] = c % 3 == 0 ? rng.normal(0, 0.2) : 0.0;
    precond[c] = rng.uniform(0.5, 4.0);
    area[c] = rng.uniform(1.0, 3.0);
    movable[c] = c % 11 != 0;  // a few fixed cells carry no gradient
    if (!movable[c]) {
      total_x[c] = total_y[c] = 0.0;
      continue;
    }
    const double p = std::max(1.0, precond[c] + lambda * area[c] / mean_area);
    total_x[c] = (wl_x[c] + den_x[c] + t_x[c]) / p;
    total_y[c] = (wl_y[c] + den_y[c] + t_y[c]) / p;
  }
  GradArrays ga;
  ga.wl_x = wl_x;
  ga.wl_y = wl_y;
  ga.den_x = den_x;
  ga.den_y = den_y;
  ga.t_x = t_x;
  ga.t_y = t_y;
  ga.total_x = total_x;
  ga.total_y = total_y;
  ga.precond = precond;
  ga.area = area;
  ga.movable = movable;
  ga.lambda = lambda;
  ga.mean_area = mean_area;

  const GradAttribution a = compute_grad_attribution(ga, 5);
  EXPECT_GT(a.total.l2, 0.0);
  EXPECT_GE(a.accounted_fraction, 0.999);
  EXPECT_LT(a.residual_l2, 1e-9 * a.total.l2);
  ASSERT_EQ(a.top_timing_cells.size(), 5u);
  for (size_t i = 1; i < a.top_timing_cells.size(); ++i)
    EXPECT_GE(a.top_timing_cells[i - 1].mag, a.top_timing_cells[i].mag);
  // Component norms are positive and the timing component is the sparse one.
  EXPECT_GT(a.wirelength.l2, a.timing.l2);
}

placer::GlobalPlacerOptions introspect_options() {
  placer::GlobalPlacerOptions o;
  o.mode = placer::PlacerMode::DiffTiming;
  o.max_iters = 90;
  o.min_iters = 40;
  o.bins = 32;
  o.timing_start_iter = 40;
  o.timing_start_overflow = 1.0;  // activate on iteration count alone
  return o;
}

// The pure-observer guarantee: a run with the sink attached must land on
// bitwise-identical positions, and must run the same sweep schedule — the
// kernel profile it writes times the dispatches an unobserved run makes.
// With no path records no exact timer is built, so every pool dispatch of
// the observed run belongs to the descent itself.
TEST(IntrospectionSink, PlacementBitwiseIdenticalWithSinkAttached) {
  liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design plain = make_design(350, 73, lib);
  Design observed = make_design(350, 73, lib);
  ThreadPool& pool = ThreadPool::global();

  uint64_t plain_dispatches = 0, observed_dispatches = 0;
  {
    sta::TimingGraph graph(plain.netlist);
    placer::GlobalPlacer gp(plain, graph, introspect_options());
    const uint64_t before = pool.stats().parallel_for_calls;
    gp.run();
    plain_dispatches = pool.stats().parallel_for_calls - before;
  }
  {
    IntrospectionSink sink;
    ASSERT_TRUE(sink.open(temp_path("introspect_identity.jsonl")));
    placer::GlobalPlacerOptions o = introspect_options();
    o.introspect_sink = &sink;
    o.introspect.sample_period = 10;
    o.introspect.paths_topk = 0;
    sta::TimingGraph graph(observed.netlist);
    placer::GlobalPlacer gp(observed, graph, o);
    const uint64_t before = pool.stats().parallel_for_calls;
    gp.run();
    observed_dispatches = pool.stats().parallel_for_calls - before;
    EXPECT_GT(sink.records_written(), 0u);
  }
  EXPECT_GT(plain_dispatches, 0u);
  EXPECT_EQ(plain_dispatches, observed_dispatches);
  ASSERT_EQ(plain.cell_x.size(), observed.cell_x.size());
  for (size_t c = 0; c < plain.cell_x.size(); ++c) {
    ASSERT_EQ(plain.cell_x[c], observed.cell_x[c]) << "cell " << c;
    ASSERT_EQ(plain.cell_y[c], observed.cell_y[c]) << "cell " << c;
  }
}

// The artifact contract: every line parses, all three record types appear,
// path records telescope, and attribution records account for the gradient.
TEST(IntrospectionSink, EmitsParseableRecordsMeetingAccounting) {
  liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design d = make_design(350, 74, lib);
  const std::string path = temp_path("introspect_records.jsonl");
  {
    IntrospectionSink sink;
    ASSERT_TRUE(sink.open(path));
    placer::GlobalPlacerOptions o = introspect_options();
    o.introspect_sink = &sink;
    o.introspect.sample_period = 20;
    o.introspect.paths_topk = 5;
    o.introspect.top_m_cells = 4;
    sta::TimingGraph graph(d.netlist);
    placer::GlobalPlacer gp(d, graph, o);
    gp.run();
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  size_t n_path = 0, n_attrib = 0, n_kernel = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    test::JsonValue v;
    ASSERT_NO_THROW(v = test::JsonParser::parse(line)) << line;
    ASSERT_TRUE(v.is_object());
    EXPECT_EQ(v.str_or("design", "?"), "synthetic");
    EXPECT_EQ(v.str_or("mode", "?"), "diff_timing");
    EXPECT_TRUE(v.has("iter"));
    const std::string type = v.str_or("type", "?");
    if (type == "path") {
      ++n_path;
      ASSERT_TRUE(v.has("stages"));
      const auto& stages = v.at("stages").array;
      ASSERT_GE(stages.size(), 2u);
      double at = stages.front().num_or("at", 0.0);
      for (size_t i = 1; i < stages.size(); ++i)
        at += stages[i].num_or("delay", 0.0);
      EXPECT_NEAR(at, v.num_or("arrival", -1.0), 1e-6);
    } else if (type == "grad_attrib") {
      ++n_attrib;
      EXPECT_GE(v.num_or("accounted_fraction", 0.0), 0.999);
      EXPECT_LE(v.at("top_timing_cells").array.size(), 4u);
    } else if (type == "kernel_profile") {
      ++n_kernel;
      EXPECT_TRUE(v.has("forward"));
      // Every forward sweep visits every non-source level once, so all
      // levels of one record carry the same call count.
      const auto& fwd = v.at("forward").array;
      EXPECT_FALSE(fwd.empty());
      for (const auto& l : fwd) {
        EXPECT_GE(l.num_or("calls", 0.0), 1.0);
        EXPECT_EQ(l.num_or("calls", 0.0), fwd.front().num_or("calls", -1.0))
            << "level " << l.num_or("level", -1.0);
        EXPECT_GE(l.num_or("ms", -1.0), 0.0);
      }
    } else {
      FAIL() << "unexpected record type " << type;
    }
  }
  EXPECT_GT(n_path, 0u);
  EXPECT_GT(n_attrib, 0u);
  EXPECT_GT(n_kernel, 0u);
}

}  // namespace
}  // namespace dtp::obs
