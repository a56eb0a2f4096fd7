// Signal-free in-process sampling profiler (DESIGN.md §14).
//
// A background sampler thread snapshots every thread's live-span stack (the
// seqlock slots published by TraceScope/ProfScope, see obs/trace.h) at a
// fixed rate (default 997 Hz — prime, so it does not beat against 1 kHz
// timers or 100 Hz schedulers), accumulating:
//
//   * folded stacks  — "outer;inner;leaf <count>" lines, the input format of
//     flamegraph.pl and speedscope ("collapsed stack"), and
//   * per-label tallies — self (thread sampled with the label as its leaf)
//     and total (label anywhere on the sampled stack), so self% ranks the
//     hot spots and total% shows inclusive weight.
//
// One "sample" is one non-empty stack observed at one tick, so the sum of
// all self counts equals the sample count exactly — the accounting identity
// the CI validator checks.
//
// Contracts: attaching the profiler changes no placement results (the
// sampler only reads), the publish and sample paths allocate nothing in
// steady state (all tables are preallocated in start()), and the measured
// overhead at the default rate stays under the 2% acceptance bound.
//
// Rolling window: the sampler checkpoints the accumulator arrays about once
// a second into a small ring; summary_json(window_sec) subtracts the newest
// checkpoint older than the window, so a live daemon can answer "what was
// hot in the last N seconds" without restarting the profiler.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace dtp::obs::prof {

class SamplingProfiler {
 public:
  struct Options {
    double hz = 997.0;        // sampling rate; clamped to [1, 100000]
    size_t max_stacks = 2048;  // distinct folded stacks tracked
    size_t max_labels = 256;   // distinct span labels tracked
    double checkpoint_period_sec = 1.0;  // rolling-window granularity
    size_t max_checkpoints = 64;         // window history (~1 min at 1 s)
  };

  SamplingProfiler();
  explicit SamplingProfiler(const Options& opts);
  ~SamplingProfiler();  // stops if running
  SamplingProfiler(const SamplingProfiler&) = delete;
  SamplingProfiler& operator=(const SamplingProfiler&) = delete;

  // Spawns the sampler thread and attaches live-span publication (refcounted
  // Tracer::enable_live()).  Idempotent while running.
  void start();
  // Stops and joins the sampler thread, detaches live publication.  The
  // accumulated profile stays readable.  Idempotent.
  void stop();
  bool running() const;

  // Performs one sampling tick on the calling thread.  Tests use this to
  // drive the profiler deterministically without the thread (fake clock:
  // logical time advances by 1/hz per call).  Safe concurrently with the
  // sampler thread (shared accumulator lock), though mixing the two blurs
  // the tick clock.
  void sample_now();

  // Accumulated tick / sample telemetry.
  uint64_t ticks() const;
  uint64_t samples() const;

  // Folded-stack text: one "frame;frame;frame count" line per distinct
  // stack, '\n'-terminated, sorted lexicographically (deterministic for a
  // given set of stacks).  flamegraph.pl / speedscope compatible.
  std::string collapsed() const;

  // JSON summary, schema "dtp.profile.v1": sampling telemetry and the
  // per-label table sorted by self count descending.
  // window_sec > 0 restricts the tallies to approximately the last
  // window_sec seconds (checkpoint granularity); 0 means the whole run.
  std::string summary_json(double window_sec = 0.0) const;

  bool write_collapsed(const std::string& path) const;
  bool write_summary(const std::string& path,
                     double window_sec = 0.0) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dtp::obs::prof
