// Fixed-size thread pool with an allocation-free blocking parallel_for.
//
// This is the CPU substitute for the paper's CUDA kernels (§3.6): every
// levelized timer kernel, the wirelength gradient, and the density splat are
// written as parallel_for over a flat index range, mirroring a 1-D CUDA grid.
// On a 1-core machine the pool degrades to serial execution with near-zero
// overhead (ranges below a grain threshold never touch the dispatch path).
//
// Dispatch is a single shared chunk-claiming job (DESIGN.md §10): the caller
// publishes [begin, end) plus a trampoline function pointer to the body, wakes
// the workers, and each worker claims chunks with one atomic fetch_add until
// the range is drained.  parallel_for is a template, so the body is passed by
// reference through a `const void*` — no std::function, no per-chunk task
// objects, no queue nodes: the steady-state hot loop performs **zero heap
// allocations** (the counting-allocator test enforces this).  An epoch counter
// plus an active-claimer count make the job fields race-free: workers only
// join a job under the pool mutex, and the dispatcher installs the next job
// under that mutex only once every claimer has left the claim loop — a worker
// that woke too late for the previous job (and joined it after it drained)
// included.
//
// The pool keeps lightweight utilization statistics (chunk counts, time chunks
// waited between dispatch and execution, time workers spent executing, the
// high-water chunk backlog) for the observability artifacts: stats() snapshots
// them and the run-summary JSON embeds them.  Accounting costs two clock reads
// per *chunk* (not per iteration), so it stays on even in benchmark builds.
//
// Per-worker timelines (DESIGN.md §9): when enabled, every chunk is
// additionally recorded as a [t0, t1] busy span on its worker, and mark()
// drops labeled instants onto the shared timeline (the level-dispatch sweeps
// call it), so dispatch imbalance — one worker busy while the rest idle —
// is visible instead of averaged away in the aggregate busy_sec.  Disabled
// (the default) the extra cost is one relaxed atomic load per chunk; span
// recording is the one pool path allowed to allocate, and it is excluded from
// the zero-allocation contract because it is opt-in observability.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace dtp {

struct ThreadPoolStats {
  size_t num_threads = 1;
  uint64_t parallel_for_calls = 0;
  uint64_t inline_ranges = 0;    // ranges run serially on the caller
  uint64_t tasks_executed = 0;   // chunks run by workers
  double queue_wait_sec = 0.0;   // sum of per-chunk dispatch-to-start latency
  double busy_sec = 0.0;         // sum of per-chunk execution time
  double lifetime_sec = 0.0;     // pool age at the time of the snapshot
  size_t queue_depth_max = 0;    // high-water mark of the pending-chunk backlog

  // Fraction of worker capacity spent executing chunks since construction.
  double utilization() const {
    const double capacity = lifetime_sec * static_cast<double>(num_threads);
    return capacity > 0.0 ? busy_sec / capacity : 0.0;
  }
};

// One chunk's busy extent on one worker; seconds since pool creation.
struct WorkerSpan {
  uint32_t worker = 0;
  double t0_sec = 0.0;
  double t1_sec = 0.0;
};

// Lifetime execution aggregate of one worker.
struct WorkerStat {
  uint64_t tasks = 0;
  double busy_sec = 0.0;
};

// A labeled instant on the pool timeline (e.g. "sta.propagate" at the start
// of a level sweep).  `label` must be a string literal (pointer is stored).
struct TimelineMark {
  double t_sec = 0.0;
  const char* label = nullptr;
};

class ThreadPool {
 public:
  // n_threads == 0 picks hardware_concurrency (at least 1).
  explicit ThreadPool(size_t n_threads = 0) : created_(Clock::now()) {
    if (n_threads == 0) {
      n_threads = std::thread::hardware_concurrency();
      if (n_threads == 0) n_threads = 1;
    }
    n_threads_ = n_threads;
    // With a single worker, run everything inline on the caller thread.
    if (n_threads_ <= 1) return;
    worker_state_.reserve(n_threads_);
    for (size_t i = 0; i < n_threads_; ++i)
      worker_state_.push_back(std::make_unique<WorkerState>());
    workers_.reserve(n_threads_);
    for (size_t i = 0; i < n_threads_; ++i) {
      workers_.emplace_back([this, i] { worker_loop(static_cast<uint32_t>(i)); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return n_threads_; }

  // Scratch-slot addressing for bodies that need per-thread workspace without
  // thread_local: workers execute with slot == worker id, inline ranges (and
  // the caller) use caller_slot().  Size per-slot scratch to num_slots().
  size_t num_slots() const { return n_threads_ + 1; }
  size_t caller_slot() const { return n_threads_; }

  ThreadPoolStats stats() const {
    ThreadPoolStats s;
    s.num_threads = n_threads_;
    s.parallel_for_calls = parallel_for_calls_.load(std::memory_order_relaxed);
    s.inline_ranges = inline_ranges_.load(std::memory_order_relaxed);
    s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
    s.queue_wait_sec =
        1e-9 * static_cast<double>(queue_wait_ns_.load(std::memory_order_relaxed));
    s.busy_sec =
        1e-9 * static_cast<double>(busy_ns_.load(std::memory_order_relaxed));
    s.lifetime_sec =
        std::chrono::duration<double>(Clock::now() - created_).count();
    s.queue_depth_max = queue_depth_max_.load(std::memory_order_relaxed);
    return s;
  }

  // Per-worker lifetime aggregates (empty when the pool runs inline).
  std::vector<WorkerStat> worker_stats() const {
    std::vector<WorkerStat> out(worker_state_.size());
    for (size_t i = 0; i < worker_state_.size(); ++i) {
      out[i].tasks = worker_state_[i]->tasks.load(std::memory_order_relaxed);
      out[i].busy_sec =
          1e-9 *
          static_cast<double>(worker_state_[i]->busy_ns.load(std::memory_order_relaxed));
    }
    return out;
  }

  // ---- per-worker timeline (DESIGN.md §9) ----
  void set_timeline_enabled(bool on) {
    timeline_enabled_.store(on, std::memory_order_relaxed);
  }
  bool timeline_enabled() const {
    return timeline_enabled_.load(std::memory_order_relaxed);
  }
  // Snapshot of every recorded busy span, in worker order.  Call from one
  // thread after the timed work has drained.
  std::vector<WorkerSpan> timeline() const {
    std::vector<WorkerSpan> out;
    for (const auto& ws : worker_state_) {
      std::lock_guard<std::mutex> lock(ws->mutex);
      out.insert(out.end(), ws->spans.begin(), ws->spans.end());
    }
    return out;
  }
  std::vector<TimelineMark> timeline_marks() const {
    std::lock_guard<std::mutex> lock(marks_mutex_);
    return marks_;
  }
  void clear_timeline() {
    for (const auto& ws : worker_state_) {
      std::lock_guard<std::mutex> lock(ws->mutex);
      ws->spans.clear();
    }
    std::lock_guard<std::mutex> lock(marks_mutex_);
    marks_.clear();
  }
  // Drops a labeled instant onto the timeline; no-op (one relaxed load) when
  // the timeline is disabled.  `label` must outlive the pool (string literal).
  void mark(const char* label) {
    if (!timeline_enabled()) return;
    const double t =
        std::chrono::duration<double>(Clock::now() - created_).count();
    std::lock_guard<std::mutex> lock(marks_mutex_);
    marks_.push_back(TimelineMark{t, label});
  }
  void reset_queue_depth_max() {
    queue_depth_max_.store(0, std::memory_order_relaxed);
  }

  // Runs body(i) for i in [begin, end). Blocks until all iterations finish.
  // `grain` is the minimum chunk per dispatch; small ranges run inline.
  // The body is invoked by reference — no type erasure, no allocation.
  template <class Body>
  void parallel_for(size_t begin, size_t end, Body&& body, size_t grain = 64) {
    using B = std::remove_reference_t<Body>;
    dispatch(begin, end, grain,
             [](const void* ctx, size_t lo, size_t hi, size_t) {
               const B& f = *static_cast<const B*>(ctx);
               for (size_t i = lo; i < hi; ++i) f(i);
             },
             &body);
  }

  // parallel_for variant whose body receives a scratch slot: body(slot, i).
  // slot < num_slots(); a chunk executed by worker w gets slot == w, inline
  // execution gets caller_slot().  Lets kernels keep per-thread scratch in a
  // pre-sized workspace array instead of thread_local vectors.
  template <class Body>
  void parallel_for_slotted(size_t begin, size_t end, Body&& body,
                            size_t grain = 64) {
    using B = std::remove_reference_t<Body>;
    dispatch(begin, end, grain,
             [](const void* ctx, size_t lo, size_t hi, size_t slot) {
               const B& f = *static_cast<const B*>(ctx);
               for (size_t i = lo; i < hi; ++i) f(slot, i);
             },
             &body);
  }

  // Global pool shared by the timer/placer kernels.  Sized once, on first
  // use, by DTP_THREADS (a worker count from 1 to kMaxEnvThreads); unset or
  // any other value keeps hardware_concurrency.
  static ThreadPool& global() {
    static ThreadPool pool(threads_from_env(std::getenv("DTP_THREADS")));
    return pool;
  }

  // Parses a DTP_THREADS value: the worker count, or 0 (hardware
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
  using ChunkFn = void (*)(const void*, size_t lo, size_t hi, size_t slot);

  // Owned per worker; only its own worker appends spans, so the mutex is
  // uncontended except during a timeline() snapshot.
  struct WorkerState {
    mutable std::mutex mutex;
    std::vector<WorkerSpan> spans;
    std::atomic<uint64_t> tasks{0};
    std::atomic<uint64_t> busy_ns{0};
  };

  // The one in-flight chunk-claiming job.  Fields are written by the
  // dispatcher under mutex_ and read by workers that observed the matching
  // epoch under the same mutex; they stay frozen until every claimer left
  // (active_ == 0), which the next dispatcher awaits, holding mutex_, before
  // it rewrites them.
  struct Job {
    const void* ctx = nullptr;
    ChunkFn fn = nullptr;
    size_t begin = 0;
    size_t end = 0;
    size_t step = 1;
    size_t n_chunks = 0;
    std::atomic<size_t> next{0};       // next chunk index to claim
    std::atomic<size_t> remaining{0};  // chunks not yet completed
    Clock::time_point dispatched;
  };

  void dispatch(size_t begin, size_t end, size_t grain, ChunkFn fn,
                const void* ctx) {
    if (end <= begin) return;
    parallel_for_calls_.fetch_add(1, std::memory_order_relaxed);
    const size_t n = end - begin;
    // Inline when serial, small, or nested inside a worker (claiming from the
    // job a worker is itself part of would deadlock).
    if (workers_.empty() || n <= grain || tl_in_worker_) {
      inline_ranges_.fetch_add(1, std::memory_order_relaxed);
      fn(ctx, begin, end, caller_slot());
      return;
    }
    std::lock_guard<std::mutex> dispatch_lock(dispatch_mutex_);
    const size_t chunks = std::min(n_threads_ * 4, (n + grain - 1) / grain);
    const size_t step = (n + chunks - 1) / chunks;
    const size_t n_chunks = (n + step - 1) / step;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // The previous dispatch returned once its chunks were done, but a worker
      // that woke late may have joined that drained job since and still be in
      // run_chunks.  Rewriting job_ under it could let it claim a chunk of
      // this job before `remaining` is set and lose that chunk's completion.
      // Workers join only under mutex_, so after this wait none can.
      if (active_.load(std::memory_order_acquire) != 0) {
        std::unique_lock<std::mutex> done(done_mutex_);
        done_cv_.wait(done, [this] {
          return active_.load(std::memory_order_acquire) == 0;
        });
      }
      job_.ctx = ctx;
      job_.fn = fn;
      job_.begin = begin;
      job_.end = end;
      job_.step = step;
      job_.n_chunks = n_chunks;
      job_.next.store(0, std::memory_order_relaxed);
      job_.remaining.store(n_chunks, std::memory_order_relaxed);
      job_.dispatched = Clock::now();
      ++epoch_;
    }
    if (n_chunks > queue_depth_max_.load(std::memory_order_relaxed))
      queue_depth_max_.store(n_chunks, std::memory_order_relaxed);
    cv_.notify_all();
    std::unique_lock<std::mutex> lock(done_mutex_);
    done_cv_.wait(lock, [this] {
      return job_.remaining.load(std::memory_order_acquire) == 0 &&
             active_.load(std::memory_order_acquire) == 0;
    });
  }

  void run_chunks(uint32_t worker_id) {
    WorkerState& ws = *worker_state_[worker_id];
    for (;;) {
      const size_t c = job_.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= job_.n_chunks) return;
      const size_t lo = job_.begin + c * job_.step;
      const size_t hi = std::min(job_.end, lo + job_.step);
      const Clock::time_point start = Clock::now();
      queue_wait_ns_.fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              start - job_.dispatched)
              .count(),
          std::memory_order_relaxed);
      job_.fn(job_.ctx, lo, hi, worker_id);
      const Clock::time_point stop = Clock::now();
      const uint64_t busy = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
              .count());
      busy_ns_.fetch_add(busy, std::memory_order_relaxed);
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      ws.busy_ns.fetch_add(busy, std::memory_order_relaxed);
      ws.tasks.fetch_add(1, std::memory_order_relaxed);
      if (timeline_enabled()) {
        WorkerSpan span;
        span.worker = worker_id;
        span.t0_sec = std::chrono::duration<double>(start - created_).count();
        span.t1_sec = span.t0_sec + 1e-9 * static_cast<double>(busy);
        std::lock_guard<std::mutex> lock(ws.mutex);
        ws.spans.push_back(span);
      }
      if (job_.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last chunk done; the dispatcher may still wait on active_ == 0.
        std::lock_guard<std::mutex> lock(done_mutex_);
        done_cv_.notify_all();
      }
    }
  }

  void worker_loop(uint32_t worker_id) {
    tl_in_worker_ = true;
    uint64_t seen_epoch = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
        if (stop_) return;
        seen_epoch = epoch_;
        // Joining the claim loop is only possible while holding mutex_ with
        // the current epoch observed — no dispatcher can overwrite job_
        // until this claimer leaves again (active_ returns to 0).
        active_.fetch_add(1, std::memory_order_relaxed);
      }
      run_chunks(worker_id);
      if (active_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(done_mutex_);
        done_cv_.notify_all();
      }
    }
  }

  size_t n_threads_ = 1;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkerState>> worker_state_;

  std::mutex mutex_;                 // guards epoch_/stop_ and job_ install
  std::condition_variable cv_;       // workers sleep here between jobs
  std::mutex dispatch_mutex_;        // serializes concurrent dispatchers
  std::mutex done_mutex_;            // completion handshake
  std::condition_variable done_cv_;
  Job job_;
  uint64_t epoch_ = 0;
  std::atomic<size_t> active_{0};    // workers currently inside run_chunks
  bool stop_ = false;
  static thread_local bool tl_in_worker_;

  const Clock::time_point created_;
  std::atomic<uint64_t> parallel_for_calls_{0};
  std::atomic<uint64_t> inline_ranges_{0};
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> queue_wait_ns_{0};
  std::atomic<uint64_t> busy_ns_{0};
  std::atomic<size_t> queue_depth_max_{0};
  std::atomic<bool> timeline_enabled_{false};
  mutable std::mutex marks_mutex_;
  std::vector<TimelineMark> marks_;
};

inline thread_local bool ThreadPool::tl_in_worker_ = false;

}  // namespace dtp
