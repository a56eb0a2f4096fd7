// Timing introspection sink (DESIGN.md §8).
//
// One JSONL stream (--paths-out on dtp_place) carrying three record types,
// sampled every IntrospectOptions::sample_period placer iterations and once
// at run end:
//
//   {"type":"path", ...}            top-K critical paths, per-stage arc data
//   {"type":"grad_attrib", ...}     wirelength/density/timing decomposition
//                                   of the descent gradient + top-M cells
//   {"type":"kernel_profile", ...}  accumulated per-topological-level wall
//                                   clock of the forward/backward sweeps, as
//                                   the timers always record it
//
// Records carry design/mode/iter so multiple runs can share a stream, and
// lines are flushed as written (JsonlWriter), so a crashed run's stream stays
// parseable.  `dtp_report` consumes the stream offline.  The sink is a pure
// observer: a placement with the sink attached is bitwise-identical to one
// without it.
#pragma once

#include <span>
#include <string>

#include "obs/introspect/grad_attrib.h"
#include "obs/introspect/path_extract.h"
#include "obs/jsonl.h"

namespace dtp::obs {

class ActivityTracker;
class ActivitySummaryAccum;
class ChurnTracker;
class SlackSketch;

struct IntrospectOptions {
  int paths_topk = 10;     // paths per sample; 0 disables path records
  int sample_period = 25;  // emit every N iterations (and at run end); <=0 off
  int top_m_cells = 10;    // cells listed per attribution record
};

class IntrospectionSink {
 public:
  IntrospectionSink() = default;
  explicit IntrospectionSink(const std::string& path) { open(path); }

  bool open(const std::string& path) { return out_.open(path); }
  bool is_open() const { return out_.is_open(); }
  void close() { out_.close(); }

  // Stamped onto every record.
  void set_meta(std::string design, std::string mode) {
    design_ = std::move(design);
    mode_ = std::move(mode);
  }

  // Extracts and writes the top-K critical paths from a (hard-mode) timer
  // holding a completed forward pass.  Endpoint slacks additionally feed the
  // registry's signed `introspect.endpoint_slack` histogram.
  void write_paths(int iter, sta::Timer& timer, int top_k);

  // Writes one gradient-attribution record.  `trigger` tags off-cadence
  // emissions forced by a robust-layer decision ("timing_degrade",
  // "nan_grad", ...); empty for regular samples.
  void write_grad_attribution(int iter, const GradAttribution& attribution,
                              const netlist::Netlist& nl,
                              const std::string& trigger = {});

  // Writes the accumulated per-level kernel profile.  `level_offsets` is the
  // timing graph's CSR level slicing (level l has offsets[l+1] - offsets[l]
  // pins; pass empty if unknown); levels with zero calls are omitted, and
  // forward/backward spans may be empty when no timer has swept yet.
  void write_kernel_profile(int iter, std::span<const int> level_offsets,
                            std::span<const sta::LevelStat> forward,
                            std::span<const sta::LevelStat> backward);

  // Writes one `type:"activity"` record from the activity layer's trackers
  // (DESIGN.md §11).  The per-iteration activity fractions additionally feed
  // the registry's `activity.fwd_active_pct` / `activity.bwd_live_pct`
  // histograms so the run summary carries their p50/p95.
  void write_activity(int iter, const ActivityTracker& tracker,
                      const SlackSketch& sketch, const ChurnTracker& churn);

  // Writes the run-end `type:"activity_summary"` record, including the
  // incremental-headroom estimate.
  void write_activity_summary(const ActivitySummaryAccum& accum,
                              const ActivityTracker& tracker,
                              const SlackSketch& final_sketch);

  // Writes an abort record into this stream mirroring the run-report abort
  // artifact (PR 3 contract), so an abnormal exit leaves the activity stream
  // terminated by an explicit marker rather than just truncated.
  void write_abort(const std::string& stage, const std::string& error,
                   int exit_code);

  size_t records_written() const { return records_; }

 private:
  void finish_record(class JsonWriter& w);

  JsonlWriter out_;
  std::string design_ = "?";
  std::string mode_ = "?";
  size_t records_ = 0;
};

}  // namespace dtp::obs
