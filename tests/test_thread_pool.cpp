// Thread-pool correctness: coverage, blocking semantics, the caller as one of
// the running threads, phase order, and dispatches that must never hang.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace dtp {
namespace {

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), 16, [&](size_t, size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // One pooled job of 16 chunks; the dispatcher returns only after every
  // chunk's accounting is done.
  const ThreadPoolStats s = pool.stats();
  EXPECT_EQ(s.parallel_for_calls, 1u);
  EXPECT_EQ(s.inline_ranges, 0u);
  EXPECT_EQ(s.tasks_executed, 16u);
  EXPECT_GT(s.busy_sec, 0.0);
  EXPECT_LE(s.utilization(), 1.0);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, 4, [&](size_t, size_t) { ++calls; });
  pool.parallel_for(7, 3, 4, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, SingleChunkRunsInline) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(300);
  std::vector<size_t> slots(300);
  pool.parallel_for(0, ids.size(), 1, [&](size_t slot, size_t i) {
    ids[i] = std::this_thread::get_id();
    slots[i] = slot;
  });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
  for (const size_t slot : slots) EXPECT_EQ(slot, pool.caller_slot());
  const ThreadPoolStats s = pool.stats();
  EXPECT_EQ(s.parallel_for_calls, 1u);
  EXPECT_EQ(s.inline_ranges, 1u);
  EXPECT_EQ(s.tasks_executed, 0u);
}

TEST(ThreadPool, SingleThreadDegradesGracefully) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.num_slots(), 1u);
  EXPECT_EQ(pool.caller_slot(), 0u);
  EXPECT_EQ(pool.chunks_for(1e9), 1u);
  std::vector<int> out(100, 0);
  pool.parallel_for(0, out.size(), 8,
                    [&](size_t, size_t i) { out[i] = static_cast<int>(i); });
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i));
  EXPECT_EQ(pool.stats().inline_ranges, 1u);
}

TEST(ThreadPool, BlocksUntilAllWorkDone) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  pool.parallel_for(1, 1001, 12,
                    [&](size_t, size_t i) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum.load(), 500500L);
}

TEST(ThreadPool, ChunksForFollowsTheWorkCutoff) {
  ThreadPool pool(4);
  const double chunk = ThreadPool::kMinChunkNs;
  EXPECT_EQ(pool.chunks_for(0.0), 1u);
  EXPECT_EQ(pool.chunks_for(1.99 * chunk), 1u);
  EXPECT_EQ(pool.chunks_for(2.0 * chunk), 2u);
  EXPECT_EQ(pool.chunks_for(7.5 * chunk), 7u);
  EXPECT_EQ(pool.chunks_for(1e6 * chunk), ThreadPool::kChunksPerThread * 4);
  // A one-range job below kMinJobNs runs inline.
  EXPECT_EQ(pool.job_chunks(0.99 * ThreadPool::kMinJobNs), 1u);
  EXPECT_EQ(pool.job_chunks(ThreadPool::kMinJobNs),
            pool.chunks_for(ThreadPool::kMinJobNs));
  EXPECT_GT(pool.job_chunks(ThreadPool::kMinJobNs), 1u);
}

// N threads means N running threads: three workers plus the caller.  Each of
// four chunks holds its thread until all four have started, so every
// participant runs exactly one, the caller included.
TEST(ThreadPool, RunsChunksOnEveryThreadCallerIncluded) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.num_slots(), 4u);
  std::atomic<int> started{0};
  std::vector<std::atomic<int>> per_slot(pool.num_slots());
  std::atomic<int> caller_chunks{0};
  const auto caller = std::this_thread::get_id();
  pool.parallel_for(0, 4, 4, [&](size_t slot, size_t) {
    ++per_slot[slot];
    if (std::this_thread::get_id() == caller) {
      EXPECT_EQ(slot, pool.caller_slot());
      ++caller_chunks;
    }
    ++started;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (started.load() < 4 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  });
  EXPECT_EQ(started.load(), 4);
  for (const auto& n : per_slot) EXPECT_EQ(n.load(), 1);
  EXPECT_EQ(caller_chunks.load(), 1);
}

// No chunk of phase k+1 starts before every chunk of phase k has finished,
// and the phase hook runs once per phase, in between.
TEST(ThreadPool, PhasesRunInOrder) {
  ThreadPool pool(4);
  constexpr size_t kPhases = 60;
  std::vector<PoolPhase> phases;
  size_t begin = 0;
  for (size_t k = 0; k < kPhases; ++k) {
    const size_t len = 1 + (k * 37) % 50;
    phases.push_back({begin, begin + len, 1 + k % 9});
    begin += len;
  }
  std::vector<std::atomic<int>> hits(begin);
  std::vector<std::atomic<size_t>> started(kPhases), finished(kPhases);
  std::vector<std::atomic<int>> hooks(kPhases);
  std::atomic<int> order_errors{0};
  for (int round = 0; round < 50; ++round) {
    for (size_t k = 0; k < kPhases; ++k) {
      started[k] = 0;
      finished[k] = 0;
      hooks[k] = 0;
    }
    pool.run_phases(
        phases,
        [&](size_t, size_t k, size_t lo, size_t hi) {
          ++started[k];
          if (k > 0 && (hooks[k - 1].load() != 1 ||
                        finished[k - 1].load() != phases[k - 1].end -
                                                      phases[k - 1].begin))
            ++order_errors;
          if (k + 1 < kPhases && started[k + 1].load() != 0) ++order_errors;
          for (size_t i = lo; i < hi; ++i) {
            if (i < phases[k].begin || i >= phases[k].end) ++order_errors;
            ++hits[i];
          }
          finished[k] += hi - lo;
        },
        [&](size_t k) {
          if (finished[k].load() != phases[k].end - phases[k].begin)
            ++order_errors;
          if (k + 1 < kPhases && started[k + 1].load() != 0) ++order_errors;
          ++hooks[k];
        });
    for (size_t k = 0; k < kPhases; ++k) EXPECT_EQ(hooks[k].load(), 1);
  }
  EXPECT_EQ(order_errors.load(), 0);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 50);
  EXPECT_EQ(pool.stats().inline_ranges, 0u);
}

// Many back-to-back pooled jobs of two tiny chunks: workers often wake after
// the previous job already drained, which must neither lose a chunk of the
// next job nor hang the dispatcher.  Bounded by the ctest TIMEOUT of this
// binary.
TEST(ThreadPool, BackToBackTinyDispatchesNeverHang) {
  ThreadPool pool(4);
  constexpr size_t kDispatches = 100000;
  std::vector<int> out(9, 0);
  for (size_t d = 0; d < kDispatches; ++d)
    pool.parallel_for(0, out.size(), 2, [&](size_t, size_t i) { ++out[i]; });
  for (const int v : out) EXPECT_EQ(v, static_cast<int>(kDispatches));
}

// The same for phased jobs: a tiny split phase, a serial phase and another
// split phase, back to back.
TEST(ThreadPool, BackToBackPhasedJobsNeverHang) {
  ThreadPool pool(4);
  constexpr size_t kDispatches = 50000;
  const PoolPhase phases[] = {{0, 3, 3}, {3, 5, 1}, {5, 9, 2}};
  std::vector<int> out(9, 0);
  int hooks = 0;
  for (size_t d = 0; d < kDispatches; ++d)
    pool.run_phases(
        phases,
        [&](size_t, size_t, size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) ++out[i];
        },
        [&](size_t) { ++hooks; });
  for (const int v : out) EXPECT_EQ(v, static_cast<int>(kDispatches));
  EXPECT_EQ(hooks, static_cast<int>(3 * kDispatches));
}

// Two threads dispatching on one pool at once: each job still runs to its
// end exactly once.
TEST(ThreadPool, ConcurrentDispatchersBothFinish) {
  ThreadPool pool(4);
  constexpr int kJobs = 2000;
  std::atomic<long> sums[2] = {0, 0};
  auto dispatcher = [&](int id) {
    for (int j = 0; j < kJobs; ++j)
      pool.parallel_for(0, 100, 8, [&](size_t, size_t i) {
        sums[id] += static_cast<long>(i);
      });
  };
  std::thread other(dispatcher, 1);
  dispatcher(0);
  other.join();
  EXPECT_EQ(sums[0].load(), 4950L * kJobs);
  EXPECT_EQ(sums[1].load(), 4950L * kJobs);
}

// A thread that dispatches while another thread's job holds the pool runs
// its job inline at once: waiting would deadlock here, since the first job
// only ends after the second one has.
TEST(ThreadPool, BusyPoolRunsSecondDispatcherInline) {
  ThreadPool pool(4);
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::thread first([&] {
    pool.parallel_for(0, 2, 2, [&](size_t, size_t) {
      holding = true;
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!holding.load()) std::this_thread::yield();
  const ThreadPoolStats s0 = pool.stats();
  const auto self = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  std::atomic<long> sum{0};
  pool.parallel_for(0, 100, 8, [&](size_t slot, size_t i) {
    if (std::this_thread::get_id() != self || slot != pool.caller_slot())
      ++elsewhere;
    sum += static_cast<long>(i);
  });
  const ThreadPoolStats s1 = pool.stats();
  release = true;
  first.join();
  EXPECT_EQ(elsewhere.load(), 0);
  EXPECT_EQ(sum.load(), 4950L);
  EXPECT_EQ(s1.inline_ranges - s0.inline_ranges, 1u);
}

// A dispatch from inside a chunk runs inline on the thread that made it,
// with that thread's slot.
TEST(ThreadPool, NestedDispatchRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> mismatches{0};
  std::atomic<long> sum{0};
  pool.parallel_for(0, 8, 8, [&](size_t outer_slot, size_t) {
    const auto self = std::this_thread::get_id();
    pool.parallel_for(0, 10, 5, [&](size_t slot, size_t i) {
      if (std::this_thread::get_id() != self || slot != outer_slot) ++mismatches;
      sum += static_cast<long>(i);
    });
  });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(sum.load(), 8 * 45L);
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  std::atomic<int> count{0};
  ThreadPool::global().parallel_for(0, 50, 4, [&](size_t, size_t) { ++count; });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, DtpThreadsParsing) {
  // Only the parser is exercised here: no pool is built from these values.
  EXPECT_EQ(ThreadPool::threads_from_env(nullptr), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env(""), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env("0"), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env("1"), 1u);
  EXPECT_EQ(ThreadPool::threads_from_env("4"), 4u);
  EXPECT_EQ(ThreadPool::threads_from_env("256"), 256u);
  EXPECT_EQ(ThreadPool::threads_from_env("257"), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env("99999999999999999999999"), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env("-2"), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env("4x"), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env(" 4"), 0u);
}

TEST(ThreadPool, GlobalPoolFollowsDtpThreads) {
  const size_t requested = ThreadPool::threads_from_env(std::getenv("DTP_THREADS"));
  if (requested == 0) GTEST_SKIP() << "DTP_THREADS unset: hardware concurrency";
  EXPECT_EQ(ThreadPool::global().num_threads(), requested);
  EXPECT_EQ(ThreadPool::global().num_slots(), requested);
}

}  // namespace
}  // namespace dtp
