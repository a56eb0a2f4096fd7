#include "placer/run_report.h"

#include "common/json_writer.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace dtp::placer {

const char* mode_short_name(PlacerMode mode) {
  switch (mode) {
    case PlacerMode::WirelengthOnly: return "wl";
    case PlacerMode::NetWeighting: return "nw";
    case PlacerMode::DiffTiming: return "dt";
  }
  return "?";
}

namespace {

void meta_fields(JsonWriter& w, const RunMeta& meta) {
  w.key("design").value(meta.design);
  w.key("mode").value(meta.mode);
}

void health_fields(JsonWriter& w, const PlaceResult& result) {
  w.key("health").value(robust::run_health_name(result.health));
  w.key("rollbacks").value(result.rollbacks);
  w.key("timing_fallbacks").value(result.timing_fallbacks);
}

void phase_object(JsonWriter& w, const PhaseBreakdown& p) {
  w.begin_object();
  w.key("wirelength_sec").value(p.wirelength_sec);
  w.key("density_sec").value(p.density_sec);
  w.key("rsmt_sec").value(p.rsmt_sec);
  w.key("sta_forward_sec").value(p.sta_forward_sec);
  w.key("sta_backward_sec").value(p.sta_backward_sec);
  w.key("step_sec").value(p.step_sec);
  w.key("overlap_sec").value(p.overlap_sec);
  w.key("unattributed_sec").value(p.unattributed_sec);
  w.key("wirelength_cpu_sec").value(p.wirelength_cpu_sec);
  w.key("density_cpu_sec").value(p.density_cpu_sec);
  w.key("rsmt_cpu_sec").value(p.rsmt_cpu_sec);
  w.key("sta_forward_cpu_sec").value(p.sta_forward_cpu_sec);
  w.key("sta_backward_cpu_sec").value(p.sta_backward_cpu_sec);
  w.key("step_cpu_sec").value(p.step_cpu_sec);
  w.end_object();
}

}  // namespace

void append_run_jsonl(obs::JsonlWriter& out, const PlaceResult& result,
                      const RunMeta& meta) {
  for (const IterationLog& log : result.history) {
    JsonWriter w;
    w.begin_object();
    w.key("type").value("iter");
    meta_fields(w, meta);
    w.key("iter").value(log.iter);
    w.key("hpwl").value(log.hpwl);
    w.key("overflow").value(log.overflow);
    w.key("lambda").value(log.lambda);
    if (log.has_timing) {
      w.key("wns").value(log.wns);
      w.key("tns").value(log.tns);
    }
    w.key("wl_grad_ms").value(log.wl_grad_ms);
    w.key("density_ms").value(log.density_ms);
    w.key("rsmt_ms").value(log.rsmt_ms);
    w.key("sta_fwd_ms").value(log.sta_fwd_ms);
    w.key("sta_bwd_ms").value(log.sta_bwd_ms);
    w.key("step_ms").value(log.step_ms);
    w.end_object();
    out.write_line(w.str());
  }
  for (const robust::RecoveryEvent& ev : result.recoveries) {
    JsonWriter w;
    w.begin_object();
    w.key("type").value("recovery");
    meta_fields(w, meta);
    w.key("iter").value(ev.iter);
    w.key("kind").value(ev.kind);
    w.key("action").value(ev.action);
    w.key("step_scale").value(ev.step_scale);
    if (!ev.detail.empty()) w.key("detail").value(ev.detail);
    w.end_object();
    out.write_line(w.str());
  }
  // A budget-stopped run carries an explicit timeout record so the stream is
  // self-describing even when read without the run_end (DESIGN.md §12).
  if (result.stop_reason == StopReason::TimeBudget) {
    JsonWriter w;
    w.begin_object();
    w.key("type").value("timeout");
    meta_fields(w, meta);
    w.key("iterations").value(result.iterations);
    w.key("runtime_sec").value(result.runtime_sec);
    w.end_object();
    out.write_line(w.str());
  }
  JsonWriter w;
  w.begin_object();
  w.key("type").value("run_end");
  meta_fields(w, meta);
  w.key("stop_reason").value(stop_reason_name(result.stop_reason));
  w.key("iterations").value(result.iterations);
  w.key("hpwl").value(result.hpwl);
  w.key("overflow").value(result.overflow);
  w.key("runtime_sec").value(result.runtime_sec);
  w.key("cpu_runtime_sec").value(result.cpu_runtime_sec);
  w.key("sta_runtime_sec").value(result.sta_runtime_sec);
  health_fields(w, result);
  w.key("phases");
  phase_object(w, result.phases);
  w.end_object();
  out.write_line(w.str());
}

void append_abort_record(obs::JsonlWriter& out, const RunMeta& meta,
                         const std::string& stage, const std::string& error,
                         int exit_code) {
  JsonWriter w;
  w.begin_object();
  w.key("type").value("abort");
  meta_fields(w, meta);
  w.key("stage").value(stage);
  w.key("error").value(error);
  w.key("exit_code").value(exit_code);
  w.end_object();
  out.write_line(w.str());
}

void run_summary_object(JsonWriter& w, const PlaceResult& result,
                        const RunMeta& meta) {
  w.begin_object();
  meta_fields(w, meta);
  w.key("stop_reason").value(stop_reason_name(result.stop_reason));
  w.key("iterations").value(result.iterations);
  w.key("hpwl").value(result.hpwl);
  w.key("overflow").value(result.overflow);
  w.key("runtime_sec").value(result.runtime_sec);
  w.key("cpu_runtime_sec").value(result.cpu_runtime_sec);
  w.key("sta_runtime_sec").value(result.sta_runtime_sec);
  const IterationLog* last_timed = nullptr;
  for (const IterationLog& log : result.history)
    if (log.has_timing) last_timed = &log;
  if (last_timed != nullptr) {
    w.key("wns").value(last_timed->wns);
    w.key("tns").value(last_timed->tns);
  }
  health_fields(w, result);
  w.key("phases");
  phase_object(w, result.phases);
  w.end_object();
}

bool write_summary_json(const std::string& path,
                        const std::vector<PlaceResult>& results,
                        const std::vector<RunMeta>& metas) {
  JsonWriter w;
  w.begin_object();
  w.key("runs").begin_array();
  for (size_t i = 0; i < results.size() && i < metas.size(); ++i)
    run_summary_object(w, results[i], metas[i]);
  w.end_array();

  const ThreadPoolStats pool = ThreadPool::global().stats();
  w.key("thread_pool").begin_object();
  w.key("num_threads").value(pool.num_threads);
  w.key("parallel_for_calls").value(pool.parallel_for_calls);
  w.key("inline_ranges").value(pool.inline_ranges);
  w.key("tasks_executed").value(pool.tasks_executed);
  w.key("queue_wait_sec").value(pool.queue_wait_sec);
  w.key("busy_sec").value(pool.busy_sec);
  w.key("utilization").value(pool.utilization());
  w.end_object();

  w.key("metrics").raw(obs::MetricsRegistry::instance().to_json());
  w.end_object();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(w.str().data(), 1, w.str().size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

std::string summary_path_for(const std::string& jsonl_path) {
  const std::string suffix = ".jsonl";
  if (jsonl_path.size() > suffix.size() &&
      jsonl_path.compare(jsonl_path.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
    return jsonl_path.substr(0, jsonl_path.size() - suffix.size()) +
           ".summary.json";
  }
  return jsonl_path + ".summary.json";
}

}  // namespace dtp::placer
