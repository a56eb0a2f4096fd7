// Zero-allocation contract of the steady-state timing hot loop (DESIGN.md
// §10): once warmed up, a forward() — drag path or full Steiner rebuild —
// plus backward() on the shared TimingWorkspace, and a hard-mode
// Timer::evaluate(), must not touch the heap at all; neither may the WA
// wirelength gradient and HPWL on the wirelength CSR plane.  Enforced by replacing
// the global allocation functions with counting versions — any vector growth,
// std::function capture, or temporary container in the hot loop fails the
// test, keeping the contract honest under refactors.
//
// Excluded by design (and by this test): the first forward() (arena sizing),
// evaluate_incremental's worklist, and one extra warm-up round for
// lazily-initialized statics (metrics registration, trace statics).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "dtimer/diff_timer.h"
#include "liberty/synth_library.h"
#include "obs/activity/activity_tracker.h"
#include "obs/activity/churn_tracker.h"
#include "obs/activity/slack_sketch.h"
#include "placer/wirelength.h"
#include "sta/timing_graph.h"
#include "workload/circuit_gen.h"

namespace {
std::atomic<long> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (align < sizeof(void*)) align = sizeof(void*);
  if (posix_memalign(&p, align, size ? size : align) != 0)
    throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dtp {
namespace {

void nudge(const netlist::Design& design, std::vector<double>& x,
           std::vector<double>& y, int round) {
  for (size_t c = 0; c < x.size(); ++c) {
    if (design.netlist.cell(static_cast<netlist::CellId>(c)).fixed) continue;
    x[c] += 0.1 * (static_cast<double>((c + static_cast<size_t>(round)) % 5) - 2.0);
    y[c] += 0.1 * (static_cast<double>((c + 2 * static_cast<size_t>(round)) % 7) - 3.0);
  }
}

TEST(ZeroAlloc, SteadyStateForwardBackwardIsAllocationFree) {
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  workload::WorkloadOptions opts;
  opts.num_cells = 400;
  opts.seed = 17;
  const netlist::Design design = workload::generate_design(lib, opts);
  const sta::TimingGraph graph(design.netlist);

  dtimer::DiffTimerOptions dopts;
  dopts.steiner_rebuild_period = 0;  // drag-only after the first build
  dtimer::DiffTimer dt(design, graph, dopts);

  const size_t nc = design.netlist.num_cells();
  std::vector<double> x(design.cell_x.begin(), design.cell_x.end());
  std::vector<double> y(design.cell_y.begin(), design.cell_y.end());
  std::vector<double> gx(nc, 0.0), gy(nc, 0.0);

  // Warm-up: first call builds the forest and sizes every arena; the second
  // exercises the drag path itself plus any first-use statics.
  dt.forward(x, y, /*force_rebuild=*/true);
  dt.backward(1.0, 1.0, gx, gy);
  nudge(design, x, y, 0);
  dt.forward(x, y, /*force_rebuild=*/false);
  dt.backward(0.6, 0.4, gx, gy);

  for (int round = 1; round <= 3; ++round) {
    nudge(design, x, y, round);
    const long before = g_alloc_count.load(std::memory_order_relaxed);
    dt.forward(x, y, /*force_rebuild=*/false);
    dt.backward(0.5, 0.5, gx, gy);
    const long after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0L) << "heap allocation in steady-state round "
                                  << round;
  }
}

TEST(ZeroAlloc, SteadyStateWithActivityTrackingIsAllocationFree) {
  // The activity layer's contract (DESIGN.md §11): with the tracker attached
  // and the slack sketch + churn tracker observing every round, the steady
  // state must still be allocation-free — all buffers are sized in
  // configure(), and record/observe paths never touch the heap.
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  workload::WorkloadOptions opts;
  opts.num_cells = 400;
  opts.seed = 17;
  const netlist::Design design = workload::generate_design(lib, opts);
  const sta::TimingGraph graph(design.netlist);

  dtimer::DiffTimerOptions dopts;
  dopts.steiner_rebuild_period = 0;
  dtimer::DiffTimer dt(design, graph, dopts);

  obs::ActivityTracker tracker;
  dt.set_activity_tracker(&tracker);
  ASSERT_TRUE(tracker.configured());
  obs::SlackSketch sketch;
  obs::ChurnTracker churn;
  churn.configure(graph.endpoints().size(), 32);

  const size_t nc = design.netlist.num_cells();
  std::vector<double> x(design.cell_x.begin(), design.cell_x.end());
  std::vector<double> y(design.cell_y.begin(), design.cell_y.end());
  std::vector<double> gx(nc, 0.0), gy(nc, 0.0);

  dt.forward(x, y, /*force_rebuild=*/true);
  dt.backward(1.0, 1.0, gx, gy);
  sketch.observe_epoch(dt.timer().endpoint_slack());
  churn.observe(dt.timer().endpoint_slack());
  nudge(design, x, y, 0);
  dt.forward(x, y, /*force_rebuild=*/false);
  dt.backward(0.6, 0.4, gx, gy);
  sketch.observe_epoch(dt.timer().endpoint_slack());
  churn.observe(dt.timer().endpoint_slack());

  for (int round = 1; round <= 3; ++round) {
    nudge(design, x, y, round);
    const long before = g_alloc_count.load(std::memory_order_relaxed);
    dt.forward(x, y, /*force_rebuild=*/false);
    dt.backward(0.5, 0.5, gx, gy);
    sketch.observe_epoch(dt.timer().endpoint_slack());
    churn.observe(dt.timer().endpoint_slack());
    const long after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0L)
        << "heap allocation in tracked steady-state round " << round;
  }
  EXPECT_GE(tracker.forward_evals(), 5u);
  EXPECT_GE(tracker.backward_evals(), 5u);
  EXPECT_GT(tracker.fwd_active_total(), 0u);  // nudges really moved timing
}

TEST(ZeroAlloc, FullRebuildSteadyStateIsAllocationFree) {
  // Every round rebuilds every Steiner tree (the NetWeighting regime): the
  // builder works in the workspace's per-slot RSMT scratch and writes
  // straight into the forest.
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  workload::WorkloadOptions opts;
  opts.num_cells = 400;
  opts.seed = 17;
  const netlist::Design design = workload::generate_design(lib, opts);
  const sta::TimingGraph graph(design.netlist);

  dtimer::DiffTimer dt(design, graph, dtimer::DiffTimerOptions{});
  sta::Timer hard(design, graph);  // hard aggregation, late corner

  const size_t nc = design.netlist.num_cells();
  std::vector<double> x(design.cell_x.begin(), design.cell_x.end());
  std::vector<double> y(design.cell_y.begin(), design.cell_y.end());
  std::vector<double> gx(nc, 0.0), gy(nc, 0.0);

  for (int round = 0; round < 2; ++round) {
    nudge(design, x, y, round);
    dt.forward(x, y, /*force_rebuild=*/true);
    dt.backward(0.6, 0.4, gx, gy);
    hard.evaluate(x, y);
  }

  for (int round = 2; round <= 4; ++round) {
    nudge(design, x, y, round);
    const long before = g_alloc_count.load(std::memory_order_relaxed);
    dt.forward(x, y, /*force_rebuild=*/true);
    dt.backward(0.5, 0.5, gx, gy);
    const long mid = g_alloc_count.load(std::memory_order_relaxed);
    hard.evaluate(x, y);
    const long after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_TRUE(dt.last_forward().rebuilt);
    EXPECT_EQ(mid - before, 0L) << "heap allocation in rebuild round " << round;
    EXPECT_EQ(after - mid, 0L) << "heap allocation in Timer::evaluate, round "
                               << round;
  }
}

TEST(ZeroAlloc, HoldCornerSteadyStateIsAllocationFree) {
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  workload::WorkloadOptions opts;
  opts.num_cells = 250;
  opts.seed = 23;
  const netlist::Design design = workload::generate_design(lib, opts);
  const sta::TimingGraph graph(design.netlist);

  dtimer::DiffTimerOptions dopts;
  dopts.steiner_rebuild_period = 0;
  dopts.enable_early = true;
  dtimer::DiffTimer dt(design, graph, dopts);

  const size_t nc = design.netlist.num_cells();
  std::vector<double> x(design.cell_x.begin(), design.cell_x.end());
  std::vector<double> y(design.cell_y.begin(), design.cell_y.end());
  std::vector<double> gx(nc, 0.0), gy(nc, 0.0);

  dt.forward(x, y, /*force_rebuild=*/true);
  dt.backward(0.5, 0.5, 0.5, 0.5, gx, gy);
  nudge(design, x, y, 0);
  dt.forward(x, y, /*force_rebuild=*/false);
  dt.backward(0.5, 0.5, 0.5, 0.5, gx, gy);

  nudge(design, x, y, 1);
  const long before = g_alloc_count.load(std::memory_order_relaxed);
  dt.forward(x, y, /*force_rebuild=*/false);
  dt.backward(0.4, 0.3, 0.2, 0.1, gx, gy);
  const long after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0L);
}

TEST(ZeroAlloc, WirelengthSteadyStateIsAllocationFree) {
  // The WA scratch is sized at construction: after one warm-up call (first-
  // use statics: trace/metrics registration), value_and_gradient and both
  // HPWL flavours never touch the heap.
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  workload::WorkloadOptions opts;
  opts.num_cells = 400;
  opts.seed = 17;
  const netlist::Design design = workload::generate_design(lib, opts);
  placer::WirelengthModel wl(design);
  wl.set_gamma(1.0);

  const size_t nc = design.netlist.num_cells();
  std::vector<double> x(design.cell_x.begin(), design.cell_x.end());
  std::vector<double> y(design.cell_y.begin(), design.cell_y.end());
  std::vector<double> gx(nc, 0.0), gy(nc, 0.0);
  wl.value_and_gradient(x, y, gx, gy);
  double sink = wl.hpwl(x, y) + wl.hpwl_unweighted(x, y);

  for (int round = 1; round <= 3; ++round) {
    nudge(design, x, y, round);
    const long before = g_alloc_count.load(std::memory_order_relaxed);
    sink += wl.value_and_gradient(x, y, gx, gy);
    sink += wl.hpwl(x, y) + wl.hpwl_unweighted(x, y);
    const long after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0L) << "heap allocation in wirelength round "
                                  << round;
  }
  EXPECT_GT(sink, 0.0);
}

}  // namespace
}  // namespace dtp
