// Thread-pool correctness: coverage, blocking semantics, nested-free usage.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "common/thread_pool.h"

namespace dtp {
namespace {

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](size_t i) { ++hits[i]; }, /*grain=*/8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // One dispatch of 4 x 4 chunks (63 items each), all run by workers; the
  // dispatcher returns only after every chunk's accounting is done.
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
  pool.parallel_for(5, 5, [&](size_t) { ++calls; });
  pool.parallel_for(7, 3, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, SmallRangeRunsInline) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(3);
  pool.parallel_for(0, 3, [&](size_t i) { ids[i] = std::this_thread::get_id(); },
                    /*grain=*/64);
  for (const auto& id : ids) EXPECT_EQ(id, caller);
  const ThreadPoolStats s = pool.stats();
  EXPECT_EQ(s.parallel_for_calls, 1u);
  EXPECT_EQ(s.inline_ranges, 1u);
  EXPECT_EQ(s.tasks_executed, 0u);
}

TEST(ThreadPool, SingleThreadDegradesGracefully) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<int> out(100, 0);
  pool.parallel_for(0, out.size(), [&](size_t i) { out[i] = static_cast<int>(i); },
                    /*grain=*/1);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i));
}

TEST(ThreadPool, BlocksUntilAllWorkDone) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  pool.parallel_for(1, 1001, [&](size_t i) { sum += static_cast<long>(i); },
                    /*grain=*/10);
  EXPECT_EQ(sum.load(), 500500L);
}

// Many back-to-back dispatches just above the inline threshold: workers
// often wake after the previous job already drained, which must neither lose
// a chunk of the next job nor hang the dispatcher.  Bounded by the ctest
// TIMEOUT of this binary.
TEST(ThreadPool, BackToBackTinyDispatchesNeverHang) {
  ThreadPool pool(4);
  constexpr size_t kGrain = 8;
  constexpr size_t kDispatches = 100000;
  std::vector<int> out(kGrain + 1, 0);
  for (size_t d = 0; d < kDispatches; ++d)
    pool.parallel_for(0, out.size(), [&](size_t i) { ++out[i]; }, kGrain);
  for (const int v : out) EXPECT_EQ(v, static_cast<int>(kDispatches));
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  std::atomic<int> count{0};
  ThreadPool::global().parallel_for(0, 50, [&](size_t) { ++count; }, 4);
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
}

}  // namespace
}  // namespace dtp
