// Fixed-size thread pool running allocation-free phased chunk-claiming jobs.
//
// This is the CPU substitute for the paper's levelized CUDA kernels (§3.6).
// The timer's level sweep is one job whose phases are the levels: the chunks
// of phase k+1 become claimable only once every chunk of phase k has
// completed, so a whole sweep costs one wake of the pool instead of one per
// level (DESIGN.md §10.5).  The RSMT rebuild, the tree drag and the Elmore
// pass are one-phase jobs.  Callers size jobs by estimated serial work: a
// job below kMinJobNs runs inline, and a range splits into chunks of at
// least kMinChunkNs.  Everything else in the placer loop (the WA gradient,
// the density splat, the adjoint sweep) is serial.
//
// A pool of N threads is N-1 workers plus the thread that dispatches: the
// caller claims chunks like a worker and waits only once every chunk of its
// job is claimed, or for a phase whose chunks others are running, so N
// threads run, not N+1.  Chunks are claimed with one atomic fetch_add on a
// job-wide counter, in phase order; a participant that claims a chunk of a
// phase that is not open yet waits for it.  There is no fixed-count barrier:
// any participant may claim any chunk, so the caller alone always finishes
// the job, whether or not a worker ever wakes.
//
// Jobs are passed by reference through `const void*` and function pointers:
// no std::function, no task objects, no queue nodes, so dispatching performs
// **zero heap allocations** (the counting-allocator test enforces this).
// Waits spin for at most kSpin, then park on a condition variable; a
// state change notifies only when someone is parked.  An epoch and an
// active-joiner count keep the job fields race-free: the dispatcher closes
// the previous job to late joiners and waits until none is left inside it
// before it rewrites the fields.
//
// The pool keeps utilization statistics (job and chunk counts, time chunks
// waited between their phase opening and their start, time spent executing
// chunks) for the observability artifacts: stats() snapshots them, the
// run-summary JSON embeds them and the flow benchmark reports them.
// Accounting costs two clock reads per *chunk* (not per item).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

namespace dtp {

struct ThreadPoolStats {
  size_t num_threads = 1;        // running threads, the caller included
  uint64_t parallel_for_calls = 0;  // jobs requested (pooled or inline)
  uint64_t inline_ranges = 0;    // jobs run serially on the caller
  uint64_t tasks_executed = 0;   // chunks of pooled jobs, by any participant
  double queue_wait_sec = 0.0;   // sum of per-chunk phase-open-to-start latency
  double busy_sec = 0.0;         // sum of per-chunk execution time
  double lifetime_sec = 0.0;     // pool age at the time of the snapshot

  // Fraction of thread capacity spent executing chunks since construction.
  double utilization() const {
    const double capacity = lifetime_sec * static_cast<double>(num_threads);
    return capacity > 0.0 ? busy_sec / capacity : 0.0;
  }
};

// One phase of a job: the flat index range [begin, end) split into `chunks`
// contiguous near-equal chunks (clamped to [1, end - begin]).
struct PoolPhase {
  size_t begin = 0;
  size_t end = 0;
  size_t chunks = 1;
};

class ThreadPool {
 public:
  // Chunks per thread at most: enough to balance uneven chunks.
  static constexpr size_t kChunksPerThread = 4;
  // Estimated serial cost of the smallest job worth waking the pool for.
  // Waking a parked worker and parking it again costs it some 50-70 us of
  // CPU on a 4-vCPU KVM guest, so a smaller job runs inline (job_chunks).
  static constexpr double kMinJobNs = 2.0e6;
  // Estimated serial cost of the smallest chunk worth claiming in a pooled
  // job; a phase hand-off between running threads costs a few microseconds.
  static constexpr double kMinChunkNs = 4000.0;
  // How long a waiting thread spins before it parks.
  static constexpr std::chrono::nanoseconds kSpin{20000};

  // n_threads == 0 picks hardware_concurrency (at least 1).  A pool of n
  // threads starts n - 1 workers; the dispatching thread is the n-th.
  explicit ThreadPool(size_t n_threads = 0) : created_(Clock::now()) {
    if (n_threads == 0) {
      n_threads = std::thread::hardware_concurrency();
      if (n_threads == 0) n_threads = 1;
    }
    n_threads_ = n_threads;
    workers_.reserve(n_threads_ - 1);
    for (size_t i = 0; i + 1 < n_threads_; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  ~ThreadPool() {
    stop_.store(true);
    wake();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Running threads of a job: the workers plus the caller.
  size_t num_threads() const { return n_threads_; }

  // Scratch-slot addressing for bodies that need per-thread workspace without
  // thread_local: worker w runs its chunks with slot == w, the dispatching
  // thread (and any inline job) with caller_slot().  Size per-slot scratch to
  // num_slots().
  size_t num_slots() const { return n_threads_; }
  size_t caller_slot() const { return n_threads_ - 1; }

  // Chunk count for one range of a pooled job whose serial cost is estimated
  // at `work_ns`: chunks of at least kMinChunkNs, at least one and at most
  // kChunksPerThread per thread.
  size_t chunks_for(double work_ns) const {
    const size_t cap = n_threads_ == 1 ? 1 : kChunksPerThread * n_threads_;
    const double chunks = work_ns / kMinChunkNs;
    if (chunks < 1.0) return 1;
    return chunks >= static_cast<double>(cap) ? cap : static_cast<size_t>(chunks);
  }

  // Chunk count for a one-range job of estimated serial cost `work_ns`:
  // 1 (run it inline) below kMinJobNs, else chunks_for(work_ns).
  size_t job_chunks(double work_ns) const {
    return work_ns < kMinJobNs ? 1 : chunks_for(work_ns);
  }

  ThreadPoolStats stats() const {
    ThreadPoolStats s;
    s.num_threads = n_threads_;
    s.parallel_for_calls = jobs_.load(std::memory_order_relaxed);
    s.inline_ranges = inline_jobs_.load(std::memory_order_relaxed);
    s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
    s.queue_wait_sec =
        1e-9 * static_cast<double>(queue_wait_ns_.load(std::memory_order_relaxed));
    s.busy_sec =
        1e-9 * static_cast<double>(busy_ns_.load(std::memory_order_relaxed));
    s.lifetime_sec =
        std::chrono::duration<double>(Clock::now() - created_).count();
    return s;
  }

  // Runs the phases in order: body(slot, k, lo, hi) once for every chunk
  // [lo, hi) of every phase k, then phase_done(k) once, on the thread that
  // completed phase k's last chunk, before any chunk of phase k+1 starts.
  // Blocks until phase_done of the last phase has returned.  A job whose
  // phases all have one chunk, or that is dispatched from inside a job, runs
  // inline on the calling thread with body(slot, k, begin, end) per phase:
  // the thread's slot in a job of this pool, else caller_slot().
  template <class Body, class PhaseDone>
  void run_phases(std::span<const PoolPhase> phases, Body&& body,
                  PhaseDone&& phase_done) {
    using B = std::remove_reference_t<Body>;
    using D = std::remove_reference_t<PhaseDone>;
    dispatch(phases,
             {&body,
              [](const void* ctx, size_t slot, size_t k, size_t lo, size_t hi) {
                (*static_cast<const B*>(ctx))(slot, k, lo, hi);
              },
              &phase_done,
              [](const void* ctx, size_t k) { (*static_cast<const D*>(ctx))(k); }});
  }

  // One-phase job: body(slot, i) for i in [begin, end), split into `chunks`.
  template <class Body>
  void parallel_for(size_t begin, size_t end, size_t chunks, Body&& body) {
    if (end <= begin) return;
    const PoolPhase phase{begin, end, chunks};
    run_phases(
        std::span<const PoolPhase>(&phase, 1),
        [&body](size_t slot, size_t, size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) body(slot, i);
        },
        [](size_t) {});
  }

  // Global pool shared by the timer kernels.  Sized once, on first use, by
  // DTP_THREADS (a thread count from 1 to kMaxEnvThreads, the caller
  // included); unset or any other value keeps hardware_concurrency.
  static ThreadPool& global() {
    static ThreadPool pool(threads_from_env(std::getenv("DTP_THREADS")));
    return pool;
  }

  // Parses a DTP_THREADS value: the thread count, or 0 (hardware
  // concurrency) when `value` is null, empty, not a plain decimal number or
  // outside [1, kMaxEnvThreads].
  static constexpr size_t kMaxEnvThreads = 256;
  static size_t threads_from_env(const char* value) {
    if (value == nullptr || *value == '\0') return 0;
    size_t n = 0;
    for (const char* c = value; *c != '\0'; ++c) {
      if (*c < '0' || *c > '9') return 0;
      n = n * 10 + static_cast<size_t>(*c - '0');
      if (n > kMaxEnvThreads) return 0;
    }
    return n;
  }

 private:
  using Clock = std::chrono::steady_clock;

  // A job's body and phase hook, type-erased without allocation.
  struct JobFns {
    const void* body_ctx;
    void (*body)(const void*, size_t slot, size_t k, size_t lo, size_t hi);
    const void* done_ctx;
    void (*done)(const void*, size_t k);
  };

  static size_t chunks_of(const PoolPhase& p) {
    return std::clamp<size_t>(p.chunks, 1, std::max<size_t>(1, p.end - p.begin));
  }

  static int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  void dispatch(std::span<const PoolPhase> phases, const JobFns& fns) {
    if (phases.empty()) return;
    jobs_.fetch_add(1, std::memory_order_relaxed);
    size_t total = 0;
    for (const PoolPhase& p : phases) total += chunks_of(p);
    // Inline when serial, when no phase splits, or when nested inside a job
    // (claiming from the job this thread is itself running would deadlock).
    // Nested in a job of this pool, the body keeps the thread's own slot,
    // since the caller slot may be busy on the dispatching thread.
    if (workers_.empty() || total == phases.size() || tl_pool_ != nullptr) {
      inline_jobs_.fetch_add(1, std::memory_order_relaxed);
      const size_t slot = tl_pool_ == this ? tl_slot_ : caller_slot();
      for (size_t k = 0; k < phases.size(); ++k) {
        fns.body(fns.body_ctx, slot, k, phases[k].begin, phases[k].end);
        fns.done(fns.done_ctx, k);
      }
      return;
    }
    std::lock_guard<std::mutex> dispatch_lock(dispatch_mutex_);
    // Close the previous job to joiners (odd epoch) and wait for a worker
    // that joined it late to leave: it may still read the fields rewritten
    // below.  A worker joins only while the epoch it saw is still current.
    const uint64_t epoch = epoch_.load();
    epoch_.store(epoch + 1);
    await([this] { return active_.load() == 0; });
    phases_ = phases;
    fns_ = fns;
    total_ = total;
    next_.store(0, std::memory_order_relaxed);
    done_.store(0, std::memory_order_relaxed);
    closed_.store(0, std::memory_order_relaxed);
    opened_ns_.store(now_ns(), std::memory_order_relaxed);
    epoch_.store(epoch + 2);
    wake();
    tl_pool_ = this;
    tl_slot_ = caller_slot();
    run_chunks(caller_slot());
    tl_pool_ = nullptr;
    // Every chunk is claimed; wait for the ones still running elsewhere.
    await([this] { return closed_.load() == phases_.size(); });
  }

  // Claims and runs chunks of the current job until none is left.
  void run_chunks(size_t slot) {
    size_t k = 0;      // phase of the last claimed chunk
    size_t first = 0;  // global index of phase k's first chunk
    for (;;) {
      const size_t c = next_.fetch_add(1, std::memory_order_relaxed);
      if (c >= total_) return;
      while (c >= first + chunks_of(phases_[k])) first += chunks_of(phases_[k++]);
      if (closed_.load() < k) await([this, k] { return closed_.load() >= k; });
      const PoolPhase& p = phases_[k];
      const size_t n = chunks_of(p);
      const size_t j = c - first;
      const size_t len = p.end - p.begin;
      const int64_t start = now_ns();
      queue_wait_ns_.fetch_add(
          static_cast<uint64_t>(std::max<int64_t>(
              0, start - opened_ns_.load(std::memory_order_relaxed))),
          std::memory_order_relaxed);
      fns_.body(fns_.body_ctx, slot, k, p.begin + len * j / n,
                p.begin + len * (j + 1) / n);
      const int64_t stop = now_ns();
      busy_ns_.fetch_add(static_cast<uint64_t>(stop - start),
                         std::memory_order_relaxed);
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      if (done_.fetch_add(1) + 1 == first + n) {
        // Last chunk of phase k: run its hook, then open phase k+1.
        fns_.done(fns_.done_ctx, k);
        opened_ns_.store(now_ns(), std::memory_order_relaxed);
        closed_.store(k + 1);
        wake();
      }
    }
  }

  void worker_loop(size_t slot) {
    tl_pool_ = this;  // a dispatch from a chunk body runs inline
    tl_slot_ = slot;
    uint64_t seen = 0;
    for (;;) {
      uint64_t epoch = 0;
      await([&] {
        epoch = epoch_.load();
        return stop_.load() || (epoch % 2 == 0 && epoch != seen);
      });
      if (stop_.load()) return;
      seen = epoch;
      active_.fetch_add(1);
      if (epoch_.load() == epoch) run_chunks(slot);
      if (active_.fetch_sub(1) == 1) wake();
    }
  }

  // Spins up to kSpin for `ready`, then parks until a wake() finds it true.
  template <class Ready>
  void await(Ready ready) {
    if (ready()) return;
    const Clock::time_point start = Clock::now();
    for (uint32_t i = 1;; ++i) {
      cpu_relax();
      if (ready()) return;
      if (i % 64 == 0 && Clock::now() - start > kSpin) break;
    }
    std::unique_lock<std::mutex> lock(park_mutex_);
    sleepers_.fetch_add(1);
    park_cv_.wait(lock, ready);
    sleepers_.fetch_sub(1);
  }

  // Called after every state change a parked thread may wait for.  The
  // sequentially consistent store of that change and the load of sleepers_
  // pair with the parker's increment and re-check, so no wake is lost.
  void wake() {
    if (sleepers_.load() == 0) return;
    std::lock_guard<std::mutex> lock(park_mutex_);
    park_cv_.notify_all();
  }

  size_t n_threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex dispatch_mutex_;        // serializes concurrent dispatchers
  std::mutex park_mutex_;            // parking only; never held while running
  std::condition_variable park_cv_;
  std::atomic<uint32_t> sleepers_{0};
  std::atomic<bool> stop_{false};

  // The current job.  The plain fields are written by the dispatcher before
  // it publishes an even epoch_ and stay frozen while any worker is active_.
  std::span<const PoolPhase> phases_;
  JobFns fns_{};
  size_t total_ = 0;                 // chunks over all phases
  std::atomic<uint64_t> epoch_{0};   // odd while a job is being installed
  std::atomic<size_t> active_{0};    // workers that joined the current epoch
  std::atomic<size_t> next_{0};      // next chunk to claim
  std::atomic<size_t> done_{0};      // chunks completed
  std::atomic<size_t> closed_{0};    // phases completed, hooks included
  std::atomic<int64_t> opened_ns_{0};  // when the newest phase opened
  // The pool whose job this thread is running chunks of, and its slot there.
  static thread_local const ThreadPool* tl_pool_;
  static thread_local size_t tl_slot_;

  const Clock::time_point created_;
  std::atomic<uint64_t> jobs_{0};
  std::atomic<uint64_t> inline_jobs_{0};
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> queue_wait_ns_{0};
  std::atomic<uint64_t> busy_ns_{0};
};

inline thread_local const ThreadPool* ThreadPool::tl_pool_ = nullptr;
inline thread_local size_t ThreadPool::tl_slot_ = 0;

}  // namespace dtp
