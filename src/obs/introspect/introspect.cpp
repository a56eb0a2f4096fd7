#include "obs/introspect/introspect.h"

#include "common/json_writer.h"
#include "obs/activity/activity_record.h"
#include "obs/metrics.h"

namespace dtp::obs {

void IntrospectionSink::finish_record(JsonWriter& w) {
  w.end_object();
  DTP_ASSERT(w.complete());
  out_.write_line(w.str());
  ++records_;
  MetricsRegistry::instance().counter("introspect.records").add();
}

void IntrospectionSink::write_paths(int iter, sta::Timer& timer, int top_k) {
  if (!is_open() || top_k == 0) return;
  const std::vector<PathRecord> paths = extract_critical_paths(timer, top_k);
  Histogram& slack_hist =
      MetricsRegistry::instance().histogram("introspect.endpoint_slack");
  for (const PathRecord& rec : paths) {
    slack_hist.observe(rec.slack);
    JsonWriter w;
    w.begin_object();
    w.key("type").value("path");
    w.key("design").value(design_);
    w.key("mode").value(mode_);
    w.key("iter").value(iter);
    path_record_fields(w, timer, rec);
    finish_record(w);
  }
}

void IntrospectionSink::write_grad_attribution(int iter,
                                               const GradAttribution& a,
                                               const netlist::Netlist& nl,
                                               const std::string& trigger) {
  if (!is_open()) return;
  JsonWriter w;
  w.begin_object();
  w.key("type").value("grad_attrib");
  w.key("design").value(design_);
  w.key("mode").value(mode_);
  w.key("iter").value(iter);
  if (!trigger.empty()) w.key("trigger").value(trigger);
  grad_attribution_fields(w, a, nl);
  finish_record(w);
}

namespace {

void level_profile_array(JsonWriter& w, const char* key,
                         std::span<const int> level_offsets,
                         std::span<const sta::LevelStat> stats) {
  w.key(key).begin_array();
  for (size_t l = 0; l < stats.size(); ++l) {
    if (stats[l].calls == 0) continue;  // level never swept
    w.begin_object();
    w.key("level").value(static_cast<uint64_t>(l));
    if (l + 1 < level_offsets.size())
      w.key("pins").value(
          static_cast<uint64_t>(level_offsets[l + 1] - level_offsets[l]));
    w.key("calls").value(stats[l].calls);
    w.key("ms").value(stats[l].ms);
    w.end_object();
  }
  w.end_array();
}

}  // namespace

void IntrospectionSink::write_kernel_profile(
    int iter, std::span<const int> level_offsets,
    std::span<const sta::LevelStat> forward,
    std::span<const sta::LevelStat> backward) {
  if (!is_open() || (forward.empty() && backward.empty())) return;
  JsonWriter w;
  w.begin_object();
  w.key("type").value("kernel_profile");
  w.key("design").value(design_);
  w.key("mode").value(mode_);
  w.key("iter").value(iter);
  level_profile_array(w, "forward", level_offsets, forward);
  level_profile_array(w, "backward", level_offsets, backward);
  finish_record(w);
}

void IntrospectionSink::write_activity(int iter,
                                       const ActivityTracker& tracker,
                                       const SlackSketch& sketch,
                                       const ChurnTracker& churn) {
  if (!is_open()) return;
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.histogram("activity.fwd_active_pct")
      .observe(100.0 * tracker.fwd_active_fraction());
  reg.histogram("activity.bwd_live_pct")
      .observe(100.0 * tracker.bwd_live_fraction());
  JsonWriter w;
  w.begin_object();
  w.key("type").value("activity");
  w.key("design").value(design_);
  w.key("mode").value(mode_);
  append_activity_json(w, iter, tracker, sketch, churn);
  finish_record(w);
}

void IntrospectionSink::write_activity_summary(
    const ActivitySummaryAccum& accum, const ActivityTracker& tracker,
    const SlackSketch& final_sketch) {
  if (!is_open()) return;
  JsonWriter w;
  w.begin_object();
  w.key("type").value("activity_summary");
  w.key("design").value(design_);
  w.key("mode").value(mode_);
  append_activity_summary_json(w, accum, tracker, final_sketch);
  finish_record(w);
}

void IntrospectionSink::write_abort(const std::string& stage,
                                    const std::string& error, int exit_code) {
  if (!is_open()) return;
  JsonWriter w;
  w.begin_object();
  w.key("type").value("abort");
  w.key("design").value(design_);
  w.key("mode").value(mode_);
  w.key("stage").value(stage);
  w.key("error").value(error);
  w.key("exit_code").value(exit_code);
  finish_record(w);
}

}  // namespace dtp::obs
