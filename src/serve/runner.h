// Per-job fault-containment harness (DESIGN.md §12).
//
// JobRunner executes one accepted job to a terminal state (or to Paused, the
// preemption/drain parking state) inside a containment envelope:
//
//   * cooperative control — the shared JobCtl carries the PlacerControl block
//     the manager's scheduler/watchdog uses for cancel, pause/preempt and
//     deadline enforcement; the run loop honours it between iterations;
//   * per-attempt wall budget — spec.time_budget_sec rides the placer's
//     graceful-degradation watchdog (timing cut at 70%, early stop with a
//     valid placement at 100%);
//   * bounded retry with backoff — a run whose recovery budget is exhausted
//     (health == Failed) is run again up to spec.max_retries times, with
//     exponential backoff between attempts.  A retry is not a fresh start:
//     the design is built once per job and GlobalPlacer moves its cells in
//     place, so each attempt begins at the positions the failed one left,
//     under the same fault spec and fault seed;
//   * degradation before giving up — when retries are spent, one final
//     attempt runs in wirelength-only mode (timing faults cannot reach it),
//     again from the last attempt's positions; only if that also fails is
//     the job Failed;
//   * checkpointed pause — a Paused exit seals the optimizer state into the
//     job's checkpoint, so the manager can requeue and later resume exactly
//     where the run stopped.
//
// Every attempt appends to the job's JSONL artifact stream
// (<artifacts>/job-<id>.jsonl), so a preempted-and-resumed job reads as one
// continuous trajectory.  All placement work happens on the caller's thread;
// the runner itself owns no threads.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "liberty/cell_library.h"
#include "placer/global_placer.h"
#include "robust/checkpoint.h"
#include "serve/job.h"
#include "serve/telemetry.h"

namespace dtp::serve {

// Control block shared between the manager (scheduler, watchdog, protocol
// threads) and the worker running the job.
struct JobCtl {
  placer::PlacerControl placer;
  // Set by the watchdog before its cancel request, so the runner reports
  // TimedOut rather than Cancelled.
  std::atomic<bool> deadline_exceeded{false};
  // Set by the scheduler before its pause request, so the manager requeues
  // the job instead of parking it for a client resume.
  std::atomic<bool> preempt{false};
};

// Process-wide cache of parsed Liberty libraries: workers share one immutable
// library object per path (and one synthetic library) instead of re-parsing
// per job.  Thread-safe.
class LibraryCache {
 public:
  std::shared_ptr<const liberty::CellLibrary> synthetic();
  // Throws std::runtime_error on parse failure (not cached).
  std::shared_ptr<const liberty::CellLibrary> file(const std::string& path);

 private:
  std::mutex mutex_;
  std::shared_ptr<const liberty::CellLibrary> synthetic_;
  std::map<std::string, std::shared_ptr<const liberty::CellLibrary>> by_path_;
};

struct RunnerOptions {
  std::string artifact_dir;  // "" = no per-job JSONL streams
  int backoff_base_ms = 50;  // doubles per retry, capped at 2 s; 0 = no sleep
  SpanLog* spans = nullptr;  // cross-job span log; attempt/backoff spans land
                             // on the job-id track (null = no tracing)
};

class JobRunner {
 public:
  JobRunner(LibraryCache& libs, RunnerOptions opts)
      : libs_(&libs), opts_(std::move(opts)) {}

  // Drives `rec` to a terminal state or to Paused, updating state/detail/
  // attempts/retries/degraded/outcome in place.  `ckpt` is the job's resume
  // slot: a verified checkpoint on entry resumes the descent; a Paused exit
  // re-seals it with the pause state (invalidated otherwise).
  void run(JobRecord& rec, JobCtl& ctl, robust::Checkpoint& ckpt);

 private:
  LibraryCache* libs_;
  RunnerOptions opts_;
};

}  // namespace dtp::serve
