// Performance observability layer (DESIGN.md §9): ResourceSampler
// start/stop hygiene, the BENCH_*.json schema round-trip, the bench-diff
// regression gate and its tolerance of keys older artifacts carry, and the
// pure-observer guarantee (sampling leaves placement results bitwise
// identical).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/json_parse.h"
#include "common/stopwatch.h"
#include "liberty/synth_library.h"
#include "obs/prof/bench_json.h"
#include "obs/prof/resource_sampler.h"
#include "placer/global_placer.h"
#include "sta/timing_graph.h"
#include "workload/circuit_gen.h"

namespace dtp::obs::prof {
namespace {

// ------------------------------------------------------ ResourceSampler ----

TEST(ResourceSampler, StopJoinsAndNothingAppendsAfter) {
  ResourceSampler sampler(/*period_ms=*/5);
  sampler.start();
  EXPECT_TRUE(sampler.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  const size_t n = sampler.num_samples();
  EXPECT_GE(n, 2u);  // at least the immediate first and the final sample
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(sampler.num_samples(), n);  // stable after stop()
  sampler.stop();                       // idempotent
  EXPECT_EQ(sampler.num_samples(), n);
}

TEST(ResourceSampler, TimestampsMonotonicAndFieldsSane) {
  ResourceSampler sampler(/*period_ms=*/5);
  sampler.start();
  // Touch some memory so RSS/fault counters have something to report.
  std::vector<double> ballast(1 << 16, 1.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  sampler.stop();
  const std::vector<ResourceSample> samples = sampler.samples();
  ASSERT_GE(samples.size(), 2u);
  for (size_t i = 1; i < samples.size(); ++i)
    EXPECT_GE(samples[i].t_sec, samples[i - 1].t_sec);
  const ResourceSample& last = samples.back();
#if defined(__linux__)
  EXPECT_GT(last.rss_mb, 0.0);
  EXPECT_GE(last.rss_hwm_mb, last.rss_mb * 0.5);
  EXPECT_GT(last.minor_faults, 0u);
#endif
  EXPECT_GE(last.user_cpu_sec + last.sys_cpu_sec, 0.0);
  (void)ballast;
}

TEST(ResourceSampler, SnapshotNowIsStandalone) {
  const ResourceSample s = sample_resources_now();
  EXPECT_EQ(s.t_sec, 0.0);
#if defined(__linux__)
  EXPECT_GT(s.rss_mb, 0.0);
#endif
}

// ---------------------------------------------------- CPU-time stopwatch ----

TEST(Stopwatch, CpuTimeTracksBusyWork) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + 1.0 / (i + 1);
  const double cpu = sw.cpu_elapsed_sec();
  const double wall = sw.elapsed_sec();
  EXPECT_GT(cpu, 0.0);
  EXPECT_GT(wall, 0.0);
  // Single-threaded busy loop: CPU time cannot exceed wall by more than
  // scheduler noise (other process threads are idle here).
  EXPECT_LT(cpu, wall * 4.0 + 0.05);
}

// ----------------------------------------------------------- stats math ----

TEST(BenchStats, OrderStatistics) {
  const SeriesStats s = compute_stats({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.p95, 5.0);
  EXPECT_NEAR(s.stddev, 1.5811388, 1e-6);

  const SeriesStats even = compute_stats({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(even.median, 2.5);

  const SeriesStats empty = compute_stats({});
  EXPECT_EQ(empty.n, 0u);
  EXPECT_DOUBLE_EQ(empty.median, 0.0);

  const SeriesStats one = compute_stats({7.0});
  EXPECT_DOUBLE_EQ(one.median, 7.0);
  EXPECT_DOUBLE_EQ(one.p95, 7.0);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);
}

// ------------------------------------------------- BENCH json round-trip ----

BenchSuiteResult make_suite(double wall_scale) {
  BenchSuiteResult suite;
  suite.suite = "unit";
  suite.repeats = 3;
  suite.threads = 2;
  BenchCell cell;
  cell.name = "s100/dt";
  cell.design = "s100";
  cell.mode = "dt";
  cell.num_cells = 100;
  for (int r = 0; r < 3; ++r) {
    BenchRepeat rep;
    rep.wall_sec = wall_scale * (1.0 + 0.01 * r);
    rep.cpu_sec = rep.wall_sec * 0.9;
    rep.hpwl = 1234.5;
    rep.overflow = 0.07;
    rep.iterations = 100;
    rep.phases = {{"wirelength", {0.4 * rep.wall_sec, 0.36 * rep.wall_sec}},
                  {"density", {0.6 * rep.wall_sec, 0.54 * rep.wall_sec}}};
    rep.pool_busy_sec = 0.5 * rep.wall_sec;
    rep.pool_utilization = 0.25;
    cell.repeats.push_back(rep);
  }
  suite.cells.push_back(cell);
  return suite;
}

TEST(BenchJson, SchemaRoundTrip) {
  const std::string doc = bench_json(make_suite(1.0));
  const JsonValue v = JsonParser::parse(doc);
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.str_or("schema", ""), kBenchSchema);
  EXPECT_EQ(v.str_or("suite", ""), "unit");
  EXPECT_EQ(v.num_or("repeats", 0.0), 3.0);
  EXPECT_EQ(v.num_or("threads", 0.0), 2.0);
  ASSERT_TRUE(v.at("cells").is_array());
  const JsonValue& cell = v.at("cells").at(size_t{0});
  EXPECT_EQ(cell.str_or("name", ""), "s100/dt");
  EXPECT_EQ(cell.at("repeats").array.size(), 3u);
  const JsonValue& st = cell.at("stats");
  ASSERT_TRUE(st.has("wall_sec"));
  EXPECT_DOUBLE_EQ(st.at("wall_sec").num_or("min", 0.0), 1.0);
  EXPECT_DOUBLE_EQ(st.at("wall_sec").num_or("median", 0.0), 1.01);
  EXPECT_DOUBLE_EQ(st.at("wall_sec").num_or("p95", 0.0), 1.02);
  EXPECT_GT(st.at("wall_sec").num_or("stddev", -1.0), 0.0);
  // Per-phase stats mirror the repeat phases.
  ASSERT_TRUE(st.at("phases").has("wirelength"));
  EXPECT_NEAR(st.at("phases").at("wirelength").at("wall_sec").num_or("median", 0.0),
              0.4 * 1.01, 1e-12);
  ASSERT_TRUE(st.at("phases").at("wirelength").has("cpu_sec"));
  // Repeat records carry resources and pool accounting.
  const JsonValue& rep = cell.at("repeats").at(size_t{0});
  EXPECT_TRUE(rep.has("resources"));
  EXPECT_DOUBLE_EQ(rep.at("pool").num_or("utilization", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(rep.at("pool").num_or("busy_sec", 0.0), 0.5);
}

TEST(BenchJson, EmbeddedProfileSplicesIntoCell) {
  BenchSuiteResult suite = make_suite(1.0);
  suite.cells[0].profile_json =
      R"({"schema":"dtp.profile.v1","hz":997,"samples":10,)"
      R"("labels":[{"label":"lut_interp","self":10,"self_pct":100.0}]})";
  const JsonValue v = JsonParser::parse(bench_json(suite));
  const JsonValue& cell = v.at("cells").at(size_t{0});
  ASSERT_TRUE(cell.has("profile"));
  EXPECT_EQ(cell.at("profile").str_or("schema", ""), "dtp.profile.v1");
  EXPECT_EQ(cell.at("profile").num_or("samples", 0.0), 10.0);
  EXPECT_EQ(cell.at("profile").at("labels").array.size(), 1u);
  // Absent when the profiler was off: readers of the old schema see no change.
  const JsonValue plain = JsonParser::parse(bench_json(make_suite(1.0)));
  EXPECT_FALSE(plain.at("cells").at(size_t{0}).has("profile"));
}

// ---------------------------------------------------------- history line ----

TEST(BenchHistory, SummarizesOneRunPerLine) {
  BenchSuiteResult suite = make_suite(2.0);
  suite.commit = "abc1234";
  suite.label = "nightly";
  const JsonValue doc = JsonParser::parse(bench_json(suite));
  const std::string line = bench_history_line(doc);
  ASSERT_FALSE(line.empty());
  const JsonValue v = JsonParser::parse(line);
  EXPECT_EQ(v.str_or("type", ""), "bench_run");
  EXPECT_EQ(v.str_or("suite", ""), "unit");
  EXPECT_EQ(v.str_or("commit", ""), "abc1234");
  EXPECT_EQ(v.str_or("label", ""), "nightly");
  EXPECT_EQ(v.num_or("threads", 0.0), 2.0);
  ASSERT_EQ(v.at("cells").array.size(), 1u);
  const JsonValue& cell = v.at("cells").at(size_t{0});
  EXPECT_EQ(cell.str_or("name", ""), "s100/dt");
  EXPECT_DOUBLE_EQ(cell.num_or("wall_median_sec", 0.0), 2.0 * 1.01);
  EXPECT_GT(cell.num_or("cpu_median_sec", 0.0), 0.0);
}

TEST(BenchHistory, OmitsEmptyProvenanceAndRejectsNonBenchDocs) {
  const JsonValue doc = JsonParser::parse(bench_json(make_suite(1.0)));
  const JsonValue v = JsonParser::parse(bench_history_line(doc));
  EXPECT_FALSE(v.has("commit"));
  EXPECT_FALSE(v.has("label"));
  EXPECT_EQ(bench_history_line(JsonParser::parse("{}")), "");
  EXPECT_EQ(bench_history_line(
                JsonParser::parse(R"({"schema":"dtp.profile.v1"})")),
            "");
  EXPECT_EQ(bench_history_line(JsonParser::parse("[1,2]")), "");
}

// ----------------------------------------------------------- bench diff ----

TEST(BenchDiff, SameFilePassesInjectedRegressionFails) {
  const JsonValue base = JsonParser::parse(bench_json(make_suite(1.0)));
  EXPECT_EQ(bench_diff(base, base, {}, nullptr), 0);

  // +25% wall/CPU time: beyond the 15% default threshold -> exit 2.
  const JsonValue slow = JsonParser::parse(bench_json(make_suite(1.25)));
  EXPECT_EQ(bench_diff(base, slow, {}, nullptr), 2);

  // +25% but a loose threshold tolerates it.
  BenchDiffOptions loose;
  loose.threshold = 0.5;
  EXPECT_EQ(bench_diff(base, slow, loose, nullptr), 0);

  // An improvement never regresses.
  const JsonValue fast = JsonParser::parse(bench_json(make_suite(0.7)));
  EXPECT_EQ(bench_diff(base, fast, {}, nullptr), 0);
}

TEST(BenchDiff, NoisyBaselineIsInformationalOnly) {
  // Baseline cv ~0.5 (wildly noisy): a 2x "regression" must not gate.
  BenchSuiteResult noisy = make_suite(1.0);
  noisy.cells[0].repeats[0].wall_sec = 0.3;
  noisy.cells[0].repeats[1].wall_sec = 1.0;
  noisy.cells[0].repeats[2].wall_sec = 1.7;
  const JsonValue a = JsonParser::parse(bench_json(noisy));
  const JsonValue b = JsonParser::parse(bench_json(make_suite(2.0)));
  EXPECT_EQ(bench_diff(a, b, {}, nullptr), 0);
}

TEST(BenchDiff, SubMillisecondBaselineNeverGates) {
  const JsonValue tiny_a = JsonParser::parse(bench_json(make_suite(1e-5)));
  const JsonValue tiny_b = JsonParser::parse(bench_json(make_suite(5e-5)));
  EXPECT_EQ(bench_diff(tiny_a, tiny_b, {}, nullptr), 0);
}

// Replaces every occurrence of `from` in `doc` with `to`.
std::string replace_all(std::string doc, const std::string& from,
                        const std::string& to) {
  for (size_t at = doc.find(from); at != std::string::npos;
       at = doc.find(from, at + to.size()))
    doc.replace(at, from.size(), to);
  return doc;
}

// A current document dressed up as an older artifact (the committed
// BENCH_smoke.json among them): a "kernel_backend" header key, a header and
// per-repeat hardware-counter block, per-worker pool stats with the
// chunk-backlog high-water mark, and IPC / cache-miss-rate series.  `ipc`
// differs between the two sides of a diff so an ignored key cannot pass by
// accident.
std::string legacy_doc(const BenchSuiteResult& suite, const char* backend,
                       double ipc) {
  const std::string ipc_s = std::to_string(ipc);
  std::string doc = bench_json(suite);
  doc.insert(1, std::string(R"("kernel_backend":")") + backend +
                    R"(","counters":{"available":true},)");
  doc = replace_all(doc, R"("resources":)",
                    R"("counters":{"available":true,"cycles":2000,)"
                    R"("instructions":3000,"ipc":)" + ipc_s +
                        R"(},"resources":)");
  doc = replace_all(doc, R"("pool":{)",
                    R"("pool":{"queue_depth_max":4,"workers":[{"tasks":10,)"
                    R"("busy_sec":0.25},{"tasks":12,"busy_sec":0.25}],)");
  return replace_all(doc, R"("stats":{)",
                     R"("stats":{"ipc":{"n":3,"median":)" + ipc_s +
                         R"(},"cache_miss_rate":{"n":3,"median":0.25},)");
}

TEST(BenchDiff, ProvenanceMismatchWarnsButNeverGates) {
  BenchSuiteResult old_suite = make_suite(1.0);
  old_suite.threads = 1;
  old_suite.commit = "aaa1111";
  BenchSuiteResult new_suite = make_suite(1.0);
  new_suite.threads = 8;
  new_suite.commit = "bbb2222";
  // Current documents emit none of the legacy keys.
  const JsonValue current = JsonParser::parse(bench_json(new_suite));
  EXPECT_FALSE(current.has("kernel_backend"));
  EXPECT_FALSE(current.has("counters"));
  const JsonValue& cur_cell = current.at("cells").at(size_t{0});
  EXPECT_FALSE(cur_cell.at("stats").has("ipc"));
  EXPECT_FALSE(cur_cell.at("stats").has("cache_miss_rate"));
  const JsonValue& cur_rep = cur_cell.at("repeats").at(size_t{0});
  EXPECT_FALSE(cur_rep.has("counters"));
  EXPECT_FALSE(cur_rep.at("pool").has("workers"));
  EXPECT_FALSE(cur_rep.at("pool").has("queue_depth_max"));
  EXPECT_FALSE(JsonParser::parse(bench_history_line(current))
                   .has("counters_available"));

  // Readers ignore the legacy keys, even when the two documents disagree on
  // them.
  const JsonValue a = JsonParser::parse(legacy_doc(old_suite, "scalar", 1.5));
  const JsonValue b = JsonParser::parse(legacy_doc(new_suite, "simd", 0.5));
  ASSERT_EQ(a.str_or("kernel_backend", ""), "scalar");
  ASSERT_TRUE(a.at("counters").at("available").boolean);
  const JsonValue& legacy_cell = b.at("cells").at(size_t{0});
  ASSERT_EQ(legacy_cell.at("stats").at("ipc").num_or("median", 0.0), 0.5);
  ASSERT_TRUE(legacy_cell.at("repeats").at(size_t{0}).has("counters"));
  ASSERT_EQ(legacy_cell.at("repeats").at(size_t{0}).at("pool").at("workers")
                .array.size(),
            2u);
  // The history line of a legacy document is the current document's line.
  EXPECT_EQ(bench_history_line(b), bench_history_line(current));

  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(bench_diff(a, b, {}, out), 0);  // warnings are non-fatal
  std::rewind(out);
  std::string text(1 << 14, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), out));
  std::fclose(out);
  EXPECT_NE(text.find("thread counts differ (old 1, new 8)"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("backend"), std::string::npos) << text;
  EXPECT_EQ(text.find("ipc"), std::string::npos) << text;
  EXPECT_EQ(text.find("cache_miss_rate"), std::string::npos) << text;
  EXPECT_NE(text.find("commits differ (old aaa1111, new bbb2222)"),
            std::string::npos);

  // Identical provenance stays quiet.
  out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(bench_diff(a, a, {}, out), 0);
  std::rewind(out);
  std::string quiet(1 << 14, '\0');
  quiet.resize(std::fread(quiet.data(), 1, quiet.size(), out));
  std::fclose(out);
  EXPECT_EQ(quiet.find("WARNING"), std::string::npos) << quiet;
}

TEST(BenchDiff, MalformedInputsExitOne) {
  const JsonValue good = JsonParser::parse(bench_json(make_suite(1.0)));
  const JsonValue not_bench = JsonParser::parse(R"({"type":"iter"})");
  EXPECT_EQ(bench_diff(not_bench, good, {}, nullptr), 1);
  EXPECT_EQ(bench_diff(good, not_bench, {}, nullptr), 1);

  // Disjoint cell sets: nothing to compare is a usage error, not a pass.
  BenchSuiteResult other = make_suite(1.0);
  other.cells[0].name = "different/cell";
  const JsonValue disjoint = JsonParser::parse(bench_json(other));
  EXPECT_EQ(bench_diff(good, disjoint, {}, nullptr), 1);
}

// ----------------------------------------------- pure-observer guarantee ----

placer::PlaceResult run_small_placement() {
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  workload::WorkloadOptions wopts;
  wopts.seed = 3;
  wopts.num_cells = 150;
  netlist::Design design = workload::generate_design(lib, wopts, "probe");
  sta::TimingGraph graph(design.netlist);
  placer::GlobalPlacerOptions popts;
  popts.mode = placer::PlacerMode::DiffTiming;
  popts.max_iters = 40;
  popts.min_iters = 10;
  popts.timing_start_iter = 10;
  popts.timing_start_overflow = 1.0;
  placer::GlobalPlacer gp(design, graph, popts);
  return gp.run();
}

TEST(ProfIsPureObserver, SamplingLeavesPlacementBitwiseIdentical) {
  const placer::PlaceResult plain = run_small_placement();

  ResourceSampler sampler(/*period_ms=*/5);
  sampler.start();
  const placer::PlaceResult observed = run_small_placement();
  sampler.stop();

  EXPECT_EQ(plain.iterations, observed.iterations);
  EXPECT_EQ(plain.hpwl, observed.hpwl);          // bitwise, not approximate
  EXPECT_EQ(plain.overflow, observed.overflow);
  ASSERT_EQ(plain.history.size(), observed.history.size());
  for (size_t i = 0; i < plain.history.size(); ++i) {
    EXPECT_EQ(plain.history[i].hpwl, observed.history[i].hpwl);
    EXPECT_EQ(plain.history[i].wns, observed.history[i].wns);
    EXPECT_EQ(plain.history[i].tns, observed.history[i].tns);
  }
}

}  // namespace
}  // namespace dtp::obs::prof
