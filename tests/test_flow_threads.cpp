// Flow-scale thread-count invariance: a ~3k-cell DiffTiming placement with
// timing switched on early must land on the same cell positions, bit for
// bit, whatever the global pool size.  ctest runs this suite as-is and with
// DTP_THREADS=1 and DTP_THREADS=4 (tests/CMakeLists.txt), so one constant has
// to hold at every worker count.  The golden-plane suite pins the same
// property on a 300-cell design; this one is large enough that every level
// sweep, the wirelength plane and the density splat are split into chunks
// that pool workers actually claim.
//
// If a change intentionally alters numerics, re-capture kPositionsHash from
// a trusted build (print it with the message of the failing EXPECT_EQ).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>

#include "common/thread_pool.h"
#include "liberty/synth_library.h"
#include "placer/global_placer.h"
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
                               << pool.num_threads() << " worker(s)";

  // With more than one worker, some ranges must have gone through dispatch
  // (not all inline), or the invariance above proves nothing about chunking.
  if (pool.num_threads() > 1) {
    const uint64_t dispatched =
        (s1.parallel_for_calls - s0.parallel_for_calls) -
        (s1.inline_ranges - s0.inline_ranges);
    EXPECT_GT(dispatched, 0u);
  }
}

}  // namespace
}  // namespace dtp
