// dtp_bench: the continuous-benchmarking suite runner (DESIGN.md §9).
//
// Runs a fixed grid of workload × placer-mode cells N times each and emits
// BENCH_<suite>.json (schema dtp.bench.v1): min/median/p95/stddev of wall and
// process-CPU time per cell and per kernel phase, plus an OS-resource
// snapshot and thread-pool utilization per repeat.
//
//   dtp_bench --suite smoke --repeats 3
//   dtp_report --bench-diff BENCH_before.json BENCH_smoke.json  # same host
//
// Flags:
//   --suite NAME      smoke | small | medium | large (default smoke)
//   --repeats N       timed repeats per cell (default 3)
//   --out PATH        output path (default BENCH_<suite>.json)
//   --sample-ms N     resource-sampler period (default 25)
//   --timeline-out P  JSONL timeline of resource samples, tagged by
//                     cell/repeat
//   --profile-hz HZ   sampling-profiler rate for the per-cell "profile"
//                     block (default 997; 0 disables the profiler)
//   --list            print the suite grid and exit
//
// Every repeat regenerates the design from the same seed, so all repeats and
// both sides of a bench diff start from the identical initial state; the
// samplers are pure observers and do not perturb placement results.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/thread_pool.h"
#include "liberty/synth_library.h"
#include "obs/jsonl.h"
#include "obs/prof/bench_json.h"
#include "obs/prof/resource_sampler.h"
#include "obs/prof/sampling_profiler.h"
#include "placer/global_placer.h"
#include "placer/run_report.h"
#include "sta/timing_graph.h"
#include "workload/circuit_gen.h"

using namespace dtp;
using obs::prof::BenchCell;
using obs::prof::BenchRepeat;
using obs::prof::BenchSuiteResult;
using obs::prof::ResourceSample;

namespace {

struct CellDef {
  std::string name;
  int num_cells;
  int max_iters;
  placer::PlacerMode mode;
};

std::vector<CellDef> suite_cells(const std::string& suite) {
  using placer::PlacerMode;
  struct Shape {
    const char* tag;
    int num_cells;
    int max_iters;
  };
  std::vector<Shape> shapes;
  std::vector<PlacerMode> modes;
  if (suite == "smoke") {
    shapes = {{"s300", 300, 100}};
    modes = {PlacerMode::WirelengthOnly, PlacerMode::DiffTiming};
  } else if (suite == "small") {
    shapes = {{"s800", 800, 200}};
    modes = {PlacerMode::WirelengthOnly, PlacerMode::NetWeighting,
             PlacerMode::DiffTiming};
  } else if (suite == "medium") {
    shapes = {{"s3000", 3000, 300}};
    modes = {PlacerMode::WirelengthOnly, PlacerMode::NetWeighting,
             PlacerMode::DiffTiming};
  } else if (suite == "large") {
    shapes = {{"s10000", 10000, 400}};
    modes = {PlacerMode::WirelengthOnly, PlacerMode::DiffTiming};
  } else {
    return {};
  }
  std::vector<CellDef> cells;
  for (const Shape& sh : shapes)
    for (PlacerMode m : modes)
      cells.push_back(CellDef{std::string(sh.tag) + "/" +
                                  placer::mode_short_name(m),
                              sh.num_cells, sh.max_iters, m});
  return cells;
}

workload::WorkloadOptions workload_for(const CellDef& cell) {
  workload::WorkloadOptions w;
  w.seed = 7;
  w.num_cells = cell.num_cells;
  return w;
}

// One timed repeat: fresh design, samplers attached around gp.run() only
// (design generation and signoff are not part of the measured kernel).
BenchRepeat run_repeat(const liberty::CellLibrary& lib, const CellDef& cell,
                       int sample_ms, obs::JsonlWriter* timeline,
                       const std::string& tag) {
  netlist::Design design =
      workload::generate_design(lib, workload_for(cell), cell.name);
  sta::TimingGraph graph(design.netlist);
  placer::GlobalPlacerOptions popts;
  popts.mode = cell.mode;
  popts.max_iters = cell.max_iters;
  // Activate timing early so short cells still exercise the timer kernels
  // (the default gate of iter>=100 && overflow<=0.5 would leave the smoke
  // suite's dt cell measuring pure wirelength descent).
  popts.timing_start_iter = std::min(20, cell.max_iters / 4);
  popts.timing_start_overflow = 1.0;
  placer::GlobalPlacer gp(design, graph, popts);

  ThreadPool& pool = ThreadPool::global();
  const ThreadPoolStats pool0 = pool.stats();

  obs::prof::ResourceSampler sampler(sample_ms);
  sampler.start();
  const placer::PlaceResult result = gp.run();
  sampler.stop();
  BenchRepeat rep;

  rep.wall_sec = result.runtime_sec;
  rep.cpu_sec = result.cpu_runtime_sec;
  rep.hpwl = result.hpwl;
  rep.overflow = result.overflow;
  rep.iterations = result.iterations;
  const placer::PhaseBreakdown& p = result.phases;
  rep.phases = {
      {"wirelength", {p.wirelength_sec, p.wirelength_cpu_sec}},
      {"density", {p.density_sec, p.density_cpu_sec}},
      {"rsmt", {p.rsmt_sec, p.rsmt_cpu_sec}},
      {"sta_forward", {p.sta_forward_sec, p.sta_forward_cpu_sec}},
      {"sta_backward", {p.sta_backward_sec, p.sta_backward_cpu_sec}},
      {"step", {p.step_sec, p.step_cpu_sec}},
  };

  const std::vector<ResourceSample> samples = sampler.samples();
  if (!samples.empty()) rep.resources = samples.back();
  const ThreadPoolStats pool1 = pool.stats();
  rep.pool_busy_sec = pool1.busy_sec - pool0.busy_sec;
  const double elapsed = pool1.lifetime_sec - pool0.lifetime_sec;
  const double capacity = elapsed * static_cast<double>(pool1.num_threads);
  rep.pool_utilization = capacity > 0.0 ? rep.pool_busy_sec / capacity : 0.0;

  if (timeline != nullptr) sampler.write_jsonl(*timeline, tag);
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string suite = cli::arg_str(argc, argv, "--suite", "smoke");
  const int repeats = cli::arg_int(argc, argv, "--repeats", 3);
  const int sample_ms = cli::arg_int(argc, argv, "--sample-ms", 25);
  const double profile_hz = cli::arg_double(argc, argv, "--profile-hz", 997.0);
  const std::string out_path =
      cli::arg_str(argc, argv, "--out", ("BENCH_" + suite + ".json").c_str());
  const char* timeline_path = cli::arg_str(argc, argv, "--timeline-out", nullptr);
  // Provenance stamps: recorded in the dtp.bench.v1 header so BENCH files in
  // a directory form a labeled, attributable trajectory.
  const std::string commit = cli::arg_str(argc, argv, "--commit", "");
  const std::string label = cli::arg_str(argc, argv, "--label", "");

  if (cli::arg_flag(argc, argv, "--list")) {
    for (const char* s : {"smoke", "small", "medium", "large"}) {
      std::printf("%s:\n", s);
      for (const CellDef& c : suite_cells(s))
        std::printf("  %-12s %6d cells, %d iters\n", c.name.c_str(),
                    c.num_cells, c.max_iters);
    }
    return 0;
  }

  const std::vector<CellDef> cells = suite_cells(suite);
  if (cells.empty() || repeats < 1) {
    std::fprintf(stderr,
                 "usage: dtp_bench --suite smoke|small|medium|large "
                 "[--repeats N] [--out PATH] [--sample-ms N] "
                 "[--timeline-out PATH] [--profile-hz HZ] "
                 "[--commit SHA] [--label STR] [--list]\n");
    return 1;
  }

  obs::JsonlWriter timeline;
  if (timeline_path != nullptr && !timeline.open(timeline_path)) {
    std::fprintf(stderr, "cannot write %s\n", timeline_path);
    return 1;
  }
  obs::JsonlWriter* timeline_ptr = timeline.is_open() ? &timeline : nullptr;

  const liberty::CellLibrary lib = liberty::make_synthetic_library();

  BenchSuiteResult suite_result;
  suite_result.suite = suite;
  suite_result.repeats = repeats;
  suite_result.threads = ThreadPool::global().num_threads();
  suite_result.commit = commit;
  suite_result.label = label;

  for (const CellDef& cell : cells) {
    BenchCell bc;
    bc.name = cell.name;
    bc.design = cell.name.substr(0, cell.name.find('/'));
    bc.mode = placer::mode_short_name(cell.mode);
    bc.num_cells = cell.num_cells;
    // One untimed warm-up so first-touch page faults and lazy pool spin-up
    // do not land in repeat 0's numbers.
    std::fprintf(stderr, "[dtp_bench] %s: warm-up\n", cell.name.c_str());
    run_repeat(lib, cell, sample_ms, nullptr, {});
    // Hot-spot attribution across the cell's timed repeats (the warm-up is
    // excluded).  The profiler only reads the live-span slots, so placement
    // results are untouched; overhead sits inside the <2% acceptance bound.
    obs::prof::SamplingProfiler::Options prof_opts;
    prof_opts.hz = profile_hz;
    obs::prof::SamplingProfiler profiler(prof_opts);
    if (profile_hz > 0.0) profiler.start();
    for (int r = 0; r < repeats; ++r) {
      const std::string tag = cell.name + "#" + std::to_string(r);
      std::fprintf(stderr, "[dtp_bench] %s: repeat %d/%d\n", cell.name.c_str(),
                   r + 1, repeats);
      bc.repeats.push_back(
          run_repeat(lib, cell, sample_ms, timeline_ptr, tag));
    }
    if (profile_hz > 0.0) {
      profiler.stop();
      bc.profile_json = profiler.summary_json();
    }
    const obs::prof::SeriesStats wall = obs::prof::compute_stats([&] {
      std::vector<double> xs;
      for (const BenchRepeat& rep : bc.repeats) xs.push_back(rep.wall_sec);
      return xs;
    }());
    std::fprintf(stderr,
                 "[dtp_bench] %s: wall median %.3fs  min %.3fs  p95 %.3fs\n",
                 cell.name.c_str(), wall.median, wall.min, wall.p95);
    suite_result.cells.push_back(std::move(bc));
  }

  if (timeline.is_open()) {
    timeline.close();
    std::fprintf(stderr, "wrote %s\n", timeline_path);
  }
  if (!obs::prof::write_bench_json(out_path, suite_result)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s (%zu cells x %d repeats)\n", out_path.c_str(),
               suite_result.cells.size(), repeats);
  return 0;
}
