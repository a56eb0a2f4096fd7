// Kernel microbenchmarks (google-benchmark): the per-iteration building
// blocks of the flow — LUT interpolation, LSE aggregation, RSMT construction,
// Elmore forward + adjoint, full STA forward and backward, WA wirelength,
// density splat + spectral Poisson solve.  The paper's §3.6 argues overall
// efficiency from exactly these kernels (there as CUDA launches).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/smooth_math.h"
#include "dtimer/diff_timer.h"
#include "dtimer/elmore_grad.h"
#include "liberty/synth_library.h"
#include "placer/density.h"
#include "placer/wirelength.h"
#include "rsmt/rsmt_builder.h"
#include "sta/net_timing.h"
#include "workload/circuit_gen.h"

namespace {

using namespace dtp;

const liberty::CellLibrary& library() {
  static const liberty::CellLibrary lib = liberty::make_synthetic_library();
  return lib;
}

netlist::Design make_design(int cells, uint64_t seed = 9001) {
  workload::WorkloadOptions opts;
  opts.num_cells = cells;
  opts.seed = seed;
  return workload::generate_design(library(), opts);
}

void BM_LutLookupGrad(benchmark::State& state) {
  const auto& lib = library();
  const auto& arc = lib.cell(lib.find_cell("NAND2_X1")).arcs[0];
  Rng rng(1);
  std::vector<std::pair<double, double>> queries(1024);
  for (auto& q : queries) q = {rng.uniform(0.002, 0.6), rng.uniform(0.001, 0.25)};
  size_t i = 0;
  for (auto _ : state) {
    const auto& [s, l] = queries[i++ & 1023];
    benchmark::DoNotOptimize(arc.cell_rise.lookup_grad(s, l));
  }
}
BENCHMARK(BM_LutLookupGrad);

void BM_SmoothMax(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.uniform(-1.0, 1.0);
  std::vector<double> w;
  for (auto _ : state) benchmark::DoNotOptimize(smooth_max(xs, 0.05, w));
}
BENCHMARK(BM_SmoothMax)->Arg(2)->Arg(8)->Arg(64);

// The path Timer::build_trees runs: pins staged into one reused RsmtScratch,
// the tree written into preallocated node/topo buffers (no allocation).
void BM_RsmtBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  std::vector<Vec2> pins(static_cast<size_t>(n));
  for (auto& p : pins) p = {rng.uniform(0, 200), rng.uniform(0, 200)};
  const rsmt::RsmtOptions opts;
  rsmt::RsmtScratch scratch(pins.size(), opts);
  const size_t cap =
      static_cast<size_t>(rsmt::max_tree_nodes(pins.size(), opts));
  std::vector<rsmt::SteinerNode> nodes(cap);
  std::vector<int> topo(cap);
  for (auto _ : state) {
    std::copy(pins.begin(), pins.end(), scratch.pts.begin());
    benchmark::DoNotOptimize(
        rsmt::build_rsmt_into(scratch, n, 0, opts, nodes, topo));
    benchmark::DoNotOptimize(nodes.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RsmtBuild)->Arg(2)->Arg(3)->Arg(6)->Arg(12);

void BM_ElmoreForward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  std::vector<Vec2> pins(static_cast<size_t>(n));
  for (auto& p : pins) p = {rng.uniform(0, 200), rng.uniform(0, 200)};
  sta::NetTiming nt;
  nt.tree = rsmt::build_rsmt(pins, 0);
  std::vector<double> caps(static_cast<size_t>(n), 0.004);
  caps[0] = 0.0;
  for (auto _ : state) {
    sta::elmore_forward(nt, caps, 4e-4, 2e-4);
    benchmark::DoNotOptimize(nt.root_load());
  }
}
BENCHMARK(BM_ElmoreForward)->Arg(2)->Arg(6)->Arg(12);

void BM_ElmoreBackward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  std::vector<Vec2> pins(static_cast<size_t>(n));
  for (auto& p : pins) p = {rng.uniform(0, 200), rng.uniform(0, 200)};
  sta::NetTiming nt;
  nt.tree = rsmt::build_rsmt(pins, 0);
  std::vector<double> caps(static_cast<size_t>(n), 0.004);
  caps[0] = 0.0;
  sta::elmore_forward(nt, caps, 4e-4, 2e-4);
  const size_t m = nt.tree.num_nodes();
  std::vector<double> gd(m, 0.1), gi(m, 0.1), gx(m), gy(m);
  for (auto _ : state) {
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    dtimer::elmore_backward(nt, gd, gi, 0.5, 4e-4, 2e-4, gx, gy);
    benchmark::DoNotOptimize(gx[0]);
  }
}
BENCHMARK(BM_ElmoreBackward)->Arg(2)->Arg(6)->Arg(12);

void BM_StaForward(benchmark::State& state) {
  auto design = make_design(static_cast<int>(state.range(0)));
  sta::TimingGraph graph(design.netlist);
  sta::TimerOptions topts;
  topts.mode = sta::AggMode::Smooth;
  sta::Timer timer(design, graph, topts);
  timer.update_positions(design.cell_x, design.cell_y);
  timer.build_trees();
  for (auto _ : state) {
    timer.run_elmore();
    timer.propagate();
    timer.update_slacks();
    benchmark::DoNotOptimize(timer.metrics().tns_smooth);
  }
  state.SetLabel(std::to_string(graph.num_levels()) + " levels");
}
BENCHMARK(BM_StaForward)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_StaBackward(benchmark::State& state) {
  auto design = make_design(static_cast<int>(state.range(0)));
  design.constraints.clock_period *= 0.6;  // violations => dense seeds
  sta::TimingGraph graph(design.netlist);
  dtimer::DiffTimer dt(design, graph);
  dt.forward(design.cell_x, design.cell_y, true);
  std::vector<double> gx(design.cell_x.size()), gy(design.cell_y.size());
  for (auto _ : state) {
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    dt.backward(1.0, 0.01, gx, gy);
    benchmark::DoNotOptimize(gx[0]);
  }
}
BENCHMARK(BM_StaBackward)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_WirelengthGradient(benchmark::State& state) {
  auto design = make_design(static_cast<int>(state.range(0)));
  placer::WirelengthModel wl(design);
  wl.set_gamma(1.0);
  std::vector<double> gx(design.cell_x.size()), gy(design.cell_y.size());
  for (auto _ : state) {
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    benchmark::DoNotOptimize(
        wl.value_and_gradient(design.cell_x, design.cell_y, gx, gy));
  }
}
BENCHMARK(BM_WirelengthGradient)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_DensityUpdate(benchmark::State& state) {
  auto design = make_design(4000);
  placer::DensityModel dm(design, static_cast<int>(state.range(0)), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dm.update(design.cell_x, design.cell_y).overflow);
  }
  state.SetLabel("bins " + std::to_string(state.range(0)) + "^2");
}
BENCHMARK(BM_DensityUpdate)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_FullTimingIteration(benchmark::State& state) {
  // One complete differentiable-timing iteration: forward (with Steiner drag)
  // + backward — the paper's per-iteration timing cost.
  auto design = make_design(static_cast<int>(state.range(0)));
  design.constraints.clock_period *= 0.6;
  sta::TimingGraph graph(design.netlist);
  dtimer::DiffTimer dt(design, graph);
  dt.forward(design.cell_x, design.cell_y, true);
  std::vector<double> gx(design.cell_x.size()), gy(design.cell_y.size());
  for (auto _ : state) {
    dt.forward(design.cell_x, design.cell_y);
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    dt.backward(1.0, 0.01, gx, gy);
    benchmark::DoNotOptimize(gx[0]);
  }
}
BENCHMARK(BM_FullTimingIteration)->Arg(4000)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): peel off the repo's shared
// artifact flags (--trace-out / --metrics-out, see bench_util.h) before
// google-benchmark sees argv — it rejects flags it does not know — then
// flush the trace + metrics-registry artifacts after the run.
int main(int argc, char** argv) {
  dtp::bench::RunArtifacts artifacts(argc, argv);
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    const bool artifact_flag = std::strcmp(argv[i], "--trace-out") == 0 ||
                               std::strcmp(argv[i], "--metrics-out") == 0;
    if (artifact_flag && i + 1 < argc) {
      ++i;  // skip the flag's value too
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  artifacts.finish();
  return 0;
}
