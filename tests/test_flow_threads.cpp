// Flow-scale thread-count invariance: a ~3k-cell DiffTiming placement with
// timing switched on early must land on the same cell positions, bit for
// bit, whatever the global pool size.  ctest runs this suite as-is and with
// DTP_THREADS=1 and DTP_THREADS=4 (tests/CMakeLists.txt), so one constant has
// to hold at every thread count.  The golden-plane suite pins the same
// property on a 300-cell design; this one is large enough that the RSMT
// rebuild is a pooled job whose chunks the workers and the caller actually
// claim, but only on the iteration that switches timing on.  Every later
// timing iteration is one two-lane job (the timer beside the density and
// wirelength passes), inside which the rebuild, like every other timer job,
// runs inline.  The level sweeps are serial loops; each lane is serial.
//
// If a change intentionally alters numerics, re-capture kPositionsHash from
// a trusted build (print it with the message of the failing EXPECT_EQ).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/thread_pool.h"
#include "liberty/synth_library.h"
#include "placer/global_placer.h"
#include "sta/timer.h"
#include "sta/timing_graph.h"
#include "workload/circuit_gen.h"

namespace dtp {
namespace {

constexpr uint64_t kPositionsHash = 11487383385176108493ull;

// FNV-1a over the bit patterns, so any last-ulp difference changes the hash.
uint64_t fnv1a(uint64_t h, std::span<const double> v) {
  for (const double d : v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

TEST(FlowThreads, DiffTimingPlacementIndependentOfPoolSize) {
  liberty::CellLibrary lib = liberty::make_synthetic_library();
  workload::WorkloadOptions wopts;
  wopts.seed = 11;
  wopts.num_cells = 3000;
  netlist::Design design = workload::generate_design(lib, wopts, "flow3k");
  sta::TimingGraph graph(design.netlist);

  placer::GlobalPlacerOptions popts;
  popts.mode = placer::PlacerMode::DiffTiming;
  popts.max_iters = 40;
  popts.timing_start_iter = 10;
  popts.timing_start_overflow = 1.0;
  placer::GlobalPlacer gp(design, graph, popts);

  ThreadPool& pool = ThreadPool::global();
  const ThreadPoolStats s0 = pool.stats();
  const placer::PlaceResult r = gp.run();
  const ThreadPoolStats s1 = pool.stats();

  EXPECT_EQ(r.iterations, 40);
  int timing_iters = 0;
  for (const placer::IterationLog& log : r.history)
    timing_iters += log.has_timing ? 1 : 0;
  EXPECT_GE(timing_iters, 25);  // timing forces ran from iteration 10 on
  const uint64_t h =
      fnv1a(fnv1a(0xcbf29ce484222325ull, design.cell_x), design.cell_y);
  EXPECT_EQ(h, kPositionsHash) << "positions hash " << h << "u at "
                               << pool.num_threads() << " thread(s)";

  // With more than one thread, some jobs must have gone through the pool
  // (not all inline), or the invariance above proves nothing about chunking.
  if (pool.num_threads() > 1) {
    const uint64_t dispatched =
        (s1.parallel_for_calls - s0.parallel_for_calls) -
        (s1.inline_ranges - s0.inline_ranges);
    EXPECT_GT(dispatched, 0u);
  }
}

// The 10k-cell tree rebuild is a pooled job (at DTP_THREADS > 1) and must
// leave the same arrival times and slews, bit for bit, as the same kernels
// run inline.  The inline run is made by timing from inside a chunk of
// another pool's job, where every dispatch runs inline; early (hold)
// analysis is on, so both corners are compared.  The level sweeps are serial
// at every thread count: propagate() dispatches no pool job.
TEST(FlowThreads, PooledTreeKernelsMatchInlineKernels) {
  liberty::CellLibrary lib = liberty::make_synthetic_library();
  workload::WorkloadOptions wopts;
  wopts.seed = 7;
  wopts.num_cells = 10000;
  const netlist::Design design =
      workload::generate_design(lib, wopts, "flow10k");
  const sta::TimingGraph graph(design.netlist);
  sta::TimerOptions topts;
  topts.enable_early = true;
  sta::Timer pooled(design, graph, topts);
  sta::Timer inlined(design, graph, topts);

  ThreadPool& pool = ThreadPool::global();
  const ThreadPoolStats s0 = pool.stats();
  pooled.build_trees();
  const ThreadPoolStats s1 = pool.stats();
  pooled.run_elmore();
  const ThreadPoolStats s2 = pool.stats();
  pooled.propagate();
  const ThreadPoolStats s3 = pool.stats();
  ThreadPool outer(2);
  outer.parallel_for(0, 2, 2, [&](size_t, size_t i) {
    if (i != 0) return;
    inlined.build_trees();
    inlined.run_elmore();
    inlined.propagate();
  });
  const ThreadPoolStats s4 = pool.stats();

  // One job per tree kernel, none for the sweeps.
  EXPECT_EQ(s1.parallel_for_calls - s0.parallel_for_calls, 1u);
  EXPECT_EQ(s2.parallel_for_calls - s1.parallel_for_calls, 1u);
  EXPECT_EQ(s3.parallel_for_calls - s2.parallel_for_calls, 0u);
  EXPECT_EQ(s4.inline_ranges - s3.inline_ranges, 2u);
  if (pool.num_threads() > 1) {
    EXPECT_EQ(s1.inline_ranges - s0.inline_ranges, 0u)
        << "the 10k-cell tree rebuild should be above the pool's work cutoff";
  }
  auto bits = [](double d) { return std::bit_cast<uint64_t>(d); };
  size_t mismatches = 0;
  for (size_t i = 0; i < design.netlist.num_pins(); ++i) {
    const auto p = static_cast<sta::PinId>(i);
    if (!graph.in_graph(p)) continue;
    for (int tr = 0; tr < 2; ++tr) {
      const size_t k = i * 2 + static_cast<size_t>(tr);
      mismatches += bits(pooled.at(p, tr)) != bits(inlined.at(p, tr));
      mismatches += bits(pooled.slew(p, tr)) != bits(inlined.slew(p, tr));
      mismatches += bits(pooled.at_early(p, tr)) != bits(inlined.at_early(p, tr));
      mismatches +=
          bits(pooled.slew_early_data()[k]) != bits(inlined.slew_early_data()[k]);
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // Every swept level is booked once per corner.
  const auto& prof = pooled.level_profile();
  for (size_t l = 1; l < prof.size(); ++l) EXPECT_EQ(prof[l].calls, 2u) << l;
}

}  // namespace
}  // namespace dtp
