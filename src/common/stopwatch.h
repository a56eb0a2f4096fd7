// Wall-clock + CPU stopwatch used by the placer driver and the benchmark
// harness.
//
// Wall time is a steady_clock read.  CPU time is by default the process-wide
// user+system time across *all* threads (CLOCK_PROCESS_CPUTIME_ID where
// available), so for a phase that fans out over the thread pool
// cpu_elapsed / elapsed approximates the effective parallelism, and
// cpu >> wall flags a phase that is burning cores, while cpu << wall flags
// one that is blocked (IO, lock convoy, starved workers).  A stopwatch on
// CpuClock::Thread reads the calling thread's CPU time instead: the clock for
// work that runs on one thread while other threads run other work.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>

namespace dtp {

// Process-wide CPU seconds (user+sys, all threads) since an arbitrary epoch.
inline double process_cpu_sec() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  struct timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0)
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
#endif
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

// CPU seconds (user+sys) of the calling thread alone since an arbitrary
// epoch; the process clock where no thread clock exists.
inline double thread_cpu_sec() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
#endif
  return process_cpu_sec();
}

enum class CpuClock : uint8_t { Process, Thread };

class Stopwatch {
 public:
  explicit Stopwatch(CpuClock cpu = CpuClock::Process) : cpu_(cpu) { reset(); }

  void reset() {
    start_ = Clock::now();
    cpu_start_ = cpu_now();
  }

  double elapsed_sec() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double elapsed_ms() const { return elapsed_sec() * 1e3; }

  // CPU time (of the process or of the calling thread, per the clock chosen
  // at construction) accumulated since construction/reset().
  double cpu_elapsed_sec() const { return cpu_now() - cpu_start_; }

  double cpu_elapsed_ms() const { return cpu_elapsed_sec() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  double cpu_now() const {
    return cpu_ == CpuClock::Thread ? thread_cpu_sec() : process_cpu_sec();
  }

  CpuClock cpu_;
  Clock::time_point start_;
  double cpu_start_ = 0.0;
};

}  // namespace dtp
