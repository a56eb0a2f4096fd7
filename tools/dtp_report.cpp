// dtp_report: offline analysis of dtp_place run artifacts (DESIGN.md §8).
//
// Report mode — parse one run's JSONL streams (--metrics-out and/or
// --paths-out files, in any combination) into a human-readable summary:
//
//   dtp_report [--require iter,run_end,path,...] run.jsonl run.paths.jsonl
//
// Diff mode — compare two runs as a bench regression gate:
//
//   dtp_report --diff a.jsonl[,a.paths.jsonl] b.jsonl[,b.paths.jsonl]
//              [--threshold 0.05]
//
// Bench-diff mode — compare two dtp_bench BENCH_*.json artifacts as a
// noise-thresholded performance gate (see obs/prof/bench_json.h):
//
//   dtp_report --bench-diff OLD.json NEW.json [--threshold 0.15]
//
// Serve mode — post-hoc report over a dtp_serve session journal:
//
//   dtp_report --serve artifacts/journal.jsonl
//
// History mode — append dtp_bench artifacts to a running BENCH_history.jsonl
// trajectory and print it, one summary line per recorded run:
//
//   dtp_report --history BENCH_history.jsonl [BENCH_*.json...]
//
// Profile sections — dtp.profile.v1 documents (dtp_place --profile-out's
// .summary.json sidecar) passed as inputs are summarized as a top-N self-time
// table; --profile additionally expands the per-cell profiles embedded in
// dtp_bench artifacts.
//
//   Replays the journal's accept/reject/ckpt/terminal records through the
//   same SessionAccum the live daemon feeds (serve/session_stats.h), so the
//   printed percentiles agree with what {"cmd":"stats"} reported while the
//   session ran, and lists any job accepted but never finished (parked by a
//   drain, or lost to a crash).
//
// Exit codes: 0 ok, 1 usage / IO / JSON parse error, 2 policy failure — a
// --require record type is missing, or the diff found a regression beyond the
// threshold (HPWL/overflow/WNS/TNS worse, or run health rank degraded; for
// --bench-diff, median wall/CPU time beyond the threshold).
// Path churn and per-level kernel-runtime deltas are reported informationally.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_parse.h"
#include "common/json_writer.h"
#include "obs/prof/bench_json.h"
#include "serve/session_stats.h"

namespace {

using dtp::JsonParser;
using dtp::JsonValue;

struct RunData {
  std::vector<JsonValue> iters, recoveries, paths, attribs, kernels, aborts;
  std::vector<JsonValue> activities, activity_summaries;
  std::vector<JsonValue> benches;   // whole BENCH_*.json documents
  std::vector<JsonValue> profiles;  // whole dtp.profile.v1 documents
  JsonValue run_end;
  bool has_run_end = false;
  std::map<std::string, size_t> type_counts;
  std::vector<std::string> files;
};

// A dtp_bench artifact is a single JSON document (not JSONL) carrying a
// "schema":"dtp.bench.*" marker.
bool is_bench_document(const JsonValue& v) {
  return v.is_object() && v.str_or("schema", "").rfind("dtp.bench", 0) == 0;
}

// A sampling-profiler summary (dtp_place --profile-out's .summary.json
// sidecar, or a daemon {"cmd":"profile"} response body saved to disk).
bool is_profile_document(const JsonValue& v) {
  return v.is_object() && v.str_or("schema", "").rfind("dtp.profile", 0) == 0;
}

// Loads an entire BENCH_*.json document.  Returns false on IO/parse errors.
bool load_bench_file(const std::string& path, JsonValue& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "dtp_report: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    out = JsonParser::parse(ss.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dtp_report: %s: %s\n", path.c_str(), e.what());
    return false;
  }
  if (!is_bench_document(out)) {
    std::fprintf(stderr, "dtp_report: %s is not a dtp.bench document\n",
                 path.c_str());
    return false;
  }
  return true;
}

// Loads one JSONL file into `run`, classifying records by their "type" field.
// A whole-file dtp.bench document is recognized first and classified as one
// "bench" record.  Returns false (with a diagnostic on stderr) on IO or parse
// errors.
bool load_file(const std::string& path, RunData& run) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "dtp_report: cannot read %s\n", path.c_str());
    return false;
  }
  run.files.push_back(path);
  {
    std::ostringstream ss;
    ss << in.rdbuf();
    try {
      JsonValue whole = JsonParser::parse(ss.str());
      if (is_bench_document(whole)) {
        ++run.type_counts["bench"];
        run.benches.push_back(std::move(whole));
        return true;
      }
      if (is_profile_document(whole)) {
        ++run.type_counts["profile"];
        run.profiles.push_back(std::move(whole));
        return true;
      }
    } catch (const std::exception&) {
      // Not a single JSON document — parse as JSONL below.
    }
    in.clear();
    in.seekg(0);
  }
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue v;
    try {
      v = JsonParser::parse(line);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dtp_report: %s:%zu: %s\n", path.c_str(), lineno,
                   e.what());
      return false;
    }
    if (!v.is_object()) {
      std::fprintf(stderr, "dtp_report: %s:%zu: record is not an object\n",
                   path.c_str(), lineno);
      return false;
    }
    const std::string type = v.str_or("type", "?");
    ++run.type_counts[type];
    if (type == "iter") run.iters.push_back(std::move(v));
    else if (type == "recovery") run.recoveries.push_back(std::move(v));
    else if (type == "path") run.paths.push_back(std::move(v));
    else if (type == "grad_attrib") run.attribs.push_back(std::move(v));
    else if (type == "kernel_profile") run.kernels.push_back(std::move(v));
    else if (type == "activity") run.activities.push_back(std::move(v));
    else if (type == "activity_summary")
      run.activity_summaries.push_back(std::move(v));
    else if (type == "abort") run.aborts.push_back(std::move(v));
    else if (type == "run_end") {
      run.run_end = std::move(v);
      run.has_run_end = true;
    }
  }
  return true;
}

bool load_files(const std::vector<std::string>& paths, RunData& run) {
  for (const std::string& p : paths)
    if (!load_file(p, run)) return false;
  return true;
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  for (;;) {
    const size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      if (start < s.size()) out.push_back(s.substr(start));
      break;
    }
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

// Last WNS/TNS seen in the iter stream (run_end does not carry them).
bool final_timing(const RunData& run, double& wns, double& tns) {
  for (auto it = run.iters.rbegin(); it != run.iters.rend(); ++it) {
    if (it->has("wns")) {
      wns = it->num_or("wns", 0.0);
      tns = it->num_or("tns", 0.0);
      return true;
    }
  }
  return false;
}

int health_rank(const std::string& h) {
  if (h == "ok") return 0;
  if (h == "recovered") return 1;
  if (h == "degraded") return 2;
  return 3;  // failed / unknown
}

// Paths of the last sampled iteration (the converged state).
std::vector<const JsonValue*> final_paths(const RunData& run) {
  double last_iter = -1.0;
  for (const JsonValue& p : run.paths)
    last_iter = std::max(last_iter, p.num_or("iter", 0.0));
  std::vector<const JsonValue*> out;
  for (const JsonValue& p : run.paths)
    if (p.num_or("iter", 0.0) == last_iter) out.push_back(&p);
  return out;
}

const JsonValue* last_of(const std::vector<JsonValue>& v) {
  return v.empty() ? nullptr : &v.back();
}

// ---------------------------------------------------------------- report ----

void print_report(const RunData& run) {
  std::printf("==== dtp_report ====\n");
  for (const std::string& f : run.files)
    std::printf("artifact: %s\n", f.c_str());
  std::printf("records:");
  for (const auto& [type, count] : run.type_counts)
    std::printf("  %s=%zu", type.c_str(), count);
  std::printf("\n");

  for (const JsonValue& bench : run.benches) {
    std::printf("\n-- bench suite '%s' (%d repeats, %d threads) --\n",
                bench.str_or("suite", "?").c_str(),
                static_cast<int>(bench.num_or("repeats", 0.0)),
                static_cast<int>(bench.num_or("threads", 0.0)));
    if (!bench.has("cells") || !bench.at("cells").is_array()) continue;
    std::printf("%-16s %10s %10s %10s %10s\n", "cell", "wall med",
                "wall p95", "cpu med", "stddev");
    for (const JsonValue& cell : bench.at("cells").array) {
      if (!cell.has("stats") || !cell.at("stats").is_object()) continue;
      const JsonValue& st = cell.at("stats");
      const double wall_med =
          st.has("wall_sec") ? st.at("wall_sec").num_or("median", 0.0) : 0.0;
      const double wall_p95 =
          st.has("wall_sec") ? st.at("wall_sec").num_or("p95", 0.0) : 0.0;
      const double wall_sd =
          st.has("wall_sec") ? st.at("wall_sec").num_or("stddev", 0.0) : 0.0;
      const double cpu_med =
          st.has("cpu_sec") ? st.at("cpu_sec").num_or("median", 0.0) : 0.0;
      std::printf("%-16s %9.3fs %9.3fs %9.3fs %9.4fs\n",
                  cell.str_or("name", "?").c_str(), wall_med, wall_p95, cpu_med,
                  wall_sd);
    }
  }

  for (const JsonValue& a : run.aborts)
    std::printf("\n*** ABORTED at stage '%s' (exit %d): %s\n",
                a.str_or("stage", "?").c_str(),
                static_cast<int>(a.num_or("exit_code", 0.0)),
                a.str_or("error", "?").c_str());

  if (run.has_run_end) {
    const JsonValue& e = run.run_end;
    std::printf("\n-- overview --\n");
    std::printf("design %s  mode %s  health %s\n",
                e.str_or("design", "?").c_str(), e.str_or("mode", "?").c_str(),
                e.str_or("health", "?").c_str());
    std::printf("iterations %d  hpwl %.6g  overflow %.3f  runtime %.2fs "
                "(timing engine %.2fs)\n",
                static_cast<int>(e.num_or("iterations", 0.0)),
                e.num_or("hpwl", 0.0), e.num_or("overflow", 0.0),
                e.num_or("runtime_sec", 0.0), e.num_or("sta_runtime_sec", 0.0));
    double wns = 0.0, tns = 0.0;
    if (final_timing(run, wns, tns))
      std::printf("final timing: WNS %.4f ns  TNS %.3f ns\n", wns, tns);
    if (e.has("phases") && e.at("phases").is_object()) {
      std::printf("phases:");
      for (const auto& [name, sec] : e.at("phases").object)
        if (sec.is_number() && sec.number > 0.0)
          std::printf("  %s=%.3fs", name.c_str(), sec.number);
      std::printf("\n");
    }
  }

  if (!run.iters.empty()) {
    std::printf("\n-- convergence (%zu iterations) --\n", run.iters.size());
    const size_t n = run.iters.size();
    const size_t step = std::max<size_t>(1, n / 8);
    for (size_t i = 0; i < n; i += (i + step < n ? step : n - i ? n - 1 - i : 1)) {
      const JsonValue& it = run.iters[i];
      std::printf("iter %5d  hpwl %10.6g  overflow %.3f",
                  static_cast<int>(it.num_or("iter", 0.0)),
                  it.num_or("hpwl", 0.0), it.num_or("overflow", 0.0));
      if (it.has("wns"))
        std::printf("  wns %8.4f  tns %9.3f", it.num_or("wns", 0.0),
                    it.num_or("tns", 0.0));
      std::printf("\n");
      if (i == n - 1) break;
    }
  }

  if (!run.recoveries.empty()) {
    std::printf("\n-- recoveries (%zu) --\n", run.recoveries.size());
    for (const JsonValue& r : run.recoveries)
      std::printf("iter %5d  %-14s action %-10s step_scale %.3f  %s\n",
                  static_cast<int>(r.num_or("iter", 0.0)),
                  r.str_or("kind", "?").c_str(),
                  r.str_or("action", "?").c_str(), r.num_or("step_scale", 1.0),
                  r.str_or("detail", "").c_str());
  }

  if (const JsonValue* a = last_of(run.attribs)) {
    std::printf("\n-- gradient attribution (iter %d) --\n",
                static_cast<int>(a->num_or("iter", 0.0)));
    for (const char* comp : {"wirelength", "density", "timing", "total"})
      if (a->has(comp) && a->at(comp).is_object())
        std::printf("%-11s l2 %12.6g  max %12.6g\n", comp,
                    a->at(comp).num_or("l2", 0.0),
                    a->at(comp).num_or("max_abs", 0.0));
    std::printf("accounted_fraction %.6f", a->num_or("accounted_fraction", 0.0));
    if (a->has("clip_fraction"))
      std::printf("  clip_fraction %.3f", a->num_or("clip_fraction", 0.0));
    std::printf("\n");
    if (a->has("top_timing_cells") && !a->at("top_timing_cells").array.empty()) {
      std::printf("top timing cells:");
      for (const JsonValue& c : a->at("top_timing_cells").array)
        std::printf("  %s(%.3g)", c.str_or("cell", "?").c_str(),
                    c.num_or("mag", 0.0));
      std::printf("\n");
    }
    size_t triggered = 0;
    for (const JsonValue& t : run.attribs)
      if (t.has("trigger")) ++triggered;
    if (triggered > 0) {
      std::printf("robust-layer triggers (%zu):\n", triggered);
      for (const JsonValue& t : run.attribs)
        if (t.has("trigger"))
          std::printf("  iter %5d  %s\n",
                      static_cast<int>(t.num_or("iter", 0.0)),
                      t.str_or("trigger", "?").c_str());
    }
  }

  if (const JsonValue* k = last_of(run.kernels)) {
    std::printf("\n-- kernel profile (iter %d) --\n",
                static_cast<int>(k->num_or("iter", 0.0)));
    for (const char* dir : {"forward", "backward"}) {
      if (!k->has(dir) || k->at(dir).array.empty()) continue;
      // Top levels by accumulated wall clock.
      std::vector<const JsonValue*> lv;
      double total = 0.0;
      for (const JsonValue& l : k->at(dir).array) {
        lv.push_back(&l);
        total += l.num_or("ms", 0.0);
      }
      std::sort(lv.begin(), lv.end(), [](const JsonValue* a, const JsonValue* b) {
        return a->num_or("ms", 0.0) > b->num_or("ms", 0.0);
      });
      std::printf("%s: %zu levels, %.3f ms total; hottest:", dir, lv.size(),
                  total);
      for (size_t i = 0; i < lv.size() && i < 5; ++i)
        std::printf("  L%d %.3fms/%llu calls",
                    static_cast<int>(lv[i]->num_or("level", 0.0)),
                    lv[i]->num_or("ms", 0.0),
                    static_cast<unsigned long long>(lv[i]->num_or("calls", 0.0)));
      std::printf("\n");
    }
  }

  const std::vector<const JsonValue*> paths = final_paths(run);
  if (!paths.empty()) {
    std::printf("\n-- critical paths (iter %d, %zu paths) --\n",
                static_cast<int>(paths[0]->num_or("iter", 0.0)), paths.size());
    for (const JsonValue* p : paths)
      std::printf("slack %9.4f  arrival %8.4f  %2zu stages  %s (%s)\n",
                  p->num_or("slack", 0.0), p->num_or("arrival", 0.0),
                  p->has("stages") ? p->at("stages").array.size() : 0,
                  p->str_or("endpoint", "?").c_str(),
                  p->str_or("dir", "?").c_str());
    // Stage-by-stage detail of the worst path.
    const JsonValue* worst = paths[0];
    for (const JsonValue* p : paths)
      if (p->num_or("slack", 0.0) < worst->num_or("slack", 0.0)) worst = p;
    if (worst->has("stages")) {
      std::printf("worst path (%s):\n", worst->str_or("endpoint", "?").c_str());
      for (const JsonValue& s : worst->at("stages").array)
        std::printf("  %-28s %-4s via %-6s delay %8.4f  at %8.4f  slew %.4f\n",
                    s.str_or("pin", "?").c_str(), s.str_or("dir", "?").c_str(),
                    s.str_or("via", "?").c_str(), s.num_or("delay", 0.0),
                    s.num_or("at", 0.0), s.num_or("slew", 0.0));
    }
  }
  std::printf("\n");
}

// --------------------------------------------------------------- profile ----

// Top-N self-time table of one dtp.profile.v1 document.  The labels array
// arrives sorted by self-time descending, so this is a straight prefix.
void print_profile_table(const JsonValue& p, const std::string& title) {
  std::printf("\n-- profile %s --\n", title.c_str());
  std::printf("%.0f Hz for %.2fs: %.0f samples over %.0f ticks",
              p.num_or("hz", 0.0), p.num_or("duration_sec", 0.0),
              p.num_or("samples", 0.0), p.num_or("ticks", 0.0));
  const double torn = p.num_or("torn", 0.0);
  if (torn > 0.0) std::printf("  (%.0f torn reads)", torn);
  std::printf("\n");
  if (!p.has("labels") || !p.at("labels").is_array() ||
      p.at("labels").array.empty()) {
    std::printf("no samples attributed (run too short, or spans disabled)\n");
    return;
  }
  std::printf("%-24s %9s %7s %9s %7s\n", "label", "self", "self%", "total",
              "total%");
  size_t shown = 0;
  for (const JsonValue& l : p.at("labels").array) {
    if (shown++ == 12) {
      std::printf("(%zu more labels)\n", p.at("labels").array.size() - 12);
      break;
    }
    std::printf("%-24s %9.0f %6.1f%% %9.0f %6.1f%%\n",
                l.str_or("label", "?").c_str(), l.num_or("self", 0.0),
                l.num_or("self_pct", 0.0), l.num_or("total", 0.0),
                l.num_or("total_pct", 0.0));
  }
}

// Standalone dtp.profile.v1 inputs always print; --profile additionally
// expands the per-cell profiles embedded in dtp_bench artifacts.
void print_profiles(const RunData& run, bool expand_bench) {
  for (const JsonValue& p : run.profiles) print_profile_table(p, "");
  if (!expand_bench) return;
  for (const JsonValue& bench : run.benches) {
    if (!bench.has("cells") || !bench.at("cells").is_array()) continue;
    for (const JsonValue& cell : bench.at("cells").array)
      if (cell.has("profile") && is_profile_document(cell.at("profile")))
        print_profile_table(cell.at("profile"),
                            "cell " + cell.str_or("name", "?"));
  }
}

// -------------------------------------------------------------- activity ----

double median_of(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// The --activity section: convergence-activity trajectory from the "activity"
// record stream plus the incremental-headroom estimate.  The headroom comes
// from the run-end "activity_summary" when present; otherwise it is
// reconstructed as the median forward-active fraction over the second half of
// the trajectory (the settled regime).
void print_activity(const RunData& run) {
  if (run.activities.empty() && run.activity_summaries.empty()) {
    std::printf("\n-- activity --\n");
    std::printf("no activity records (run dtp_place with --activity-every N "
                "[--activity-out FILE])\n");
    return;
  }

  if (!run.activities.empty()) {
    std::printf("\n-- activity trajectory (%zu samples) --\n",
                run.activities.size());
    std::printf("%6s %9s %9s %8s %6s %6s %10s %10s\n", "iter", "fwd act",
                "bwd live", "churn", "in", "out", "wns", "slack p50");
    for (const JsonValue& a : run.activities) {
      const double fwd =
          a.has("forward") ? a.at("forward").num_or("frac", 0.0) : 0.0;
      const double bwd =
          a.has("backward") ? a.at("backward").num_or("frac", 0.0) : 0.0;
      double churn = 1.0, entered = 0.0, left = 0.0;
      if (a.has("churn")) {
        churn = a.at("churn").num_or("jaccard", 1.0);
        entered = a.at("churn").num_or("entered", 0.0);
        left = a.at("churn").num_or("left", 0.0);
      }
      double wns = 0.0, p50 = 0.0;
      if (a.has("slack")) {
        wns = a.at("slack").num_or("wns", 0.0);
        p50 = a.at("slack").num_or("p50", 0.0);
      }
      std::printf("%6d %8.1f%% %8.1f%% %8.3f %6d %6d %10.4f %10.4f",
                  static_cast<int>(a.num_or("iter", 0.0)), 100.0 * fwd,
                  100.0 * bwd, churn, static_cast<int>(entered),
                  static_cast<int>(left), wns, p50);
      if (a.has("incremental") && a.at("incremental").is_object())
        std::printf("  inc %d/%d",
                    static_cast<int>(
                        a.at("incremental").num_or("changed", 0.0)),
                    static_cast<int>(
                        a.at("incremental").num_or("visited", 0.0)));
      std::printf("\n");
    }
  }

  double median_frac = 0.0, speedup = 0.0;
  int after_iter = 0;
  bool have_headroom = false;
  if (const JsonValue* s = last_of(run.activity_summaries)) {
    std::printf("\n-- activity summary (%d samples) --\n",
                static_cast<int>(s->num_or("samples", 0.0)));
    if (s->has("fwd_frac") && s->at("fwd_frac").is_object()) {
      const JsonValue& f = s->at("fwd_frac");
      std::printf("forward active: p50 %.1f%%  p95 %.1f%%  min %.1f%%  "
                  "last %.1f%%\n",
                  100.0 * f.num_or("p50", 0.0), 100.0 * f.num_or("p95", 0.0),
                  100.0 * f.num_or("min", 0.0), 100.0 * f.num_or("last", 0.0));
    }
    if (s->has("bwd_frac") && s->at("bwd_frac").is_object())
      std::printf("backward live:  p50 %.1f%%  last %.1f%%\n",
                  100.0 * s->at("bwd_frac").num_or("p50", 0.0),
                  100.0 * s->at("bwd_frac").num_or("last", 0.0));
    if (s->has("churn") && s->at("churn").is_object())
      std::printf("criticality churn: jaccard p50 %.3f  last %.3f\n",
                  s->at("churn").num_or("jaccard_p50", 1.0),
                  s->at("churn").num_or("jaccard_last", 1.0));
    if (s->has("slack") && s->at("slack").is_object()) {
      const JsonValue& sl = s->at("slack");
      std::printf("slack: WNS %.4f -> %.4f  p1 %.4f  p10 %.4f  p50 %.4f  "
                  "%d violating endpoints\n",
                  sl.num_or("first_wns", 0.0), sl.num_or("wns", 0.0),
                  sl.num_or("p1", 0.0), sl.num_or("p10", 0.0),
                  sl.num_or("p50", 0.0),
                  static_cast<int>(sl.num_or("violating", 0.0)));
    }
    if (s->has("headroom") && s->at("headroom").is_object()) {
      median_frac = s->at("headroom").num_or("median_active_frac", 0.0);
      speedup = s->at("headroom").num_or("predicted_speedup", 0.0);
      after_iter = static_cast<int>(s->num_or("first_iter", 0.0));
      have_headroom = true;
    }
  }
  if (!have_headroom && !run.activities.empty()) {
    std::vector<double> xs;
    const size_t n = run.activities.size();
    for (size_t i = n / 2; i < n; ++i)
      if (run.activities[i].has("forward"))
        xs.push_back(run.activities[i].at("forward").num_or("frac", 0.0));
    if (!xs.empty()) {
      median_frac = median_of(std::move(xs));
      after_iter =
          static_cast<int>(run.activities[n / 2].num_or("iter", 0.0));
      speedup = 1.0 / std::clamp(median_frac, 1e-3, 1.0);
      have_headroom = true;
    }
  }
  if (have_headroom)
    std::printf("headroom: median %.1f%% of pins active after iter %d; "
                "predicted incremental speedup ~%.1fx\n",
                100.0 * median_frac, after_iter, speedup);
}

// ------------------------------------------------------------------ diff ----

struct MetricCheck {
  const char* name;
  double a, b;
  bool regressed;
  bool informational;
};

// Aggregate kernel wall clock of the final profile record, per direction.
double kernel_total_ms(const RunData& run, const char* dir) {
  const JsonValue* k = last_of(run.kernels);
  if (k == nullptr || !k->has(dir)) return 0.0;
  double total = 0.0;
  for (const JsonValue& l : k->at(dir).array) total += l.num_or("ms", 0.0);
  return total;
}

int run_diff(const RunData& a, const RunData& b, double threshold) {
  if (!a.has_run_end || !b.has_run_end) {
    std::fprintf(stderr,
                 "dtp_report: --diff needs a run_end record on both sides "
                 "(a:%s b:%s)\n",
                 a.has_run_end ? "yes" : "no", b.has_run_end ? "yes" : "no");
    return 1;
  }
  std::vector<MetricCheck> checks;
  const double hpwl_a = a.run_end.num_or("hpwl", 0.0);
  const double hpwl_b = b.run_end.num_or("hpwl", 0.0);
  checks.push_back(
      {"hpwl", hpwl_a, hpwl_b, hpwl_b > hpwl_a * (1.0 + threshold), false});
  const double ovf_a = a.run_end.num_or("overflow", 0.0);
  const double ovf_b = b.run_end.num_or("overflow", 0.0);
  checks.push_back({"overflow", ovf_a, ovf_b, ovf_b > ovf_a + threshold, false});

  double wns_a = 0.0, tns_a = 0.0, wns_b = 0.0, tns_b = 0.0;
  const bool timed_a = final_timing(a, wns_a, tns_a);
  const bool timed_b = final_timing(b, wns_b, tns_b);
  if (timed_a && timed_b) {
    // Timing regression margin scales with the baseline magnitude (floored so
    // a near-zero baseline does not flag noise).
    checks.push_back({"wns", wns_a, wns_b,
                      wns_b < wns_a - threshold * std::max(std::abs(wns_a), 1e-3),
                      false});
    checks.push_back({"tns", tns_a, tns_b,
                      tns_b < tns_a - threshold * std::max(std::abs(tns_a), 1e-3),
                      false});
  }
  const std::string health_a = a.run_end.str_or("health", "?");
  const std::string health_b = b.run_end.str_or("health", "?");
  const bool health_regressed = health_rank(health_b) > health_rank(health_a);
  checks.push_back({"health_rank", double(health_rank(health_a)),
                    double(health_rank(health_b)), health_regressed, false});
  checks.push_back({"runtime_sec", a.run_end.num_or("runtime_sec", 0.0),
                    b.run_end.num_or("runtime_sec", 0.0), false, true});
  for (const char* dir : {"forward", "backward"}) {
    const double ka = kernel_total_ms(a, dir);
    const double kb = kernel_total_ms(b, dir);
    if (ka > 0.0 || kb > 0.0)
      checks.push_back({dir == std::string("forward") ? "kernel_forward_ms"
                                                      : "kernel_backward_ms",
                        ka, kb, false, true});
  }

  std::printf("==== dtp_report --diff (threshold %.3g) ====\n", threshold);
  std::printf("%-18s %14s %14s %9s\n", "metric", "a", "b", "verdict");
  bool regression = false;
  for (const MetricCheck& c : checks) {
    const char* verdict =
        c.regressed ? "REGRESSED" : (c.informational ? "info" : "ok");
    std::printf("%-18s %14.6g %14.6g %9s\n", c.name, c.a, c.b, verdict);
    regression = regression || c.regressed;
  }

  // Path churn: how much the set of critical endpoints moved between runs.
  std::set<std::string> ep_a, ep_b;
  for (const JsonValue* p : final_paths(a)) ep_a.insert(p->str_or("endpoint", ""));
  for (const JsonValue* p : final_paths(b)) ep_b.insert(p->str_or("endpoint", ""));
  if (!ep_a.empty() || !ep_b.empty()) {
    size_t common = 0;
    for (const std::string& e : ep_a) common += ep_b.count(e);
    const size_t uni = ep_a.size() + ep_b.size() - common;
    std::printf("path churn: %zu/%zu common endpoints (jaccard %.2f)\n", common,
                uni, uni > 0 ? double(common) / double(uni) : 1.0);
  }
  if (regression)
    std::printf("RESULT: REGRESSION beyond threshold %.3g\n", threshold);
  else
    std::printf("RESULT: ok\n");
  // Final single-line machine-readable verdict, so CI parses the outcome
  // instead of scraping the table (mirrors --bench-diff).
  dtp::JsonWriter verdict;
  verdict.begin_object();
  verdict.key("ok").value(!regression);
  verdict.key("regressions").begin_array();
  for (const MetricCheck& c : checks)
    if (c.regressed) verdict.value(std::string(c.name));
  verdict.end_array();
  verdict.end_object();
  std::printf("%s\n", verdict.str().c_str());
  return regression ? 2 : 0;
}

// ---- serve mode: replay a dtp_serve journal through the live session
// accumulator (serve/session_stats.h) ----
int run_serve_report(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "dtp_report: cannot open %s\n", path.c_str());
    return 1;
  }
  dtp::serve::SessionAccum accum;
  std::map<uint64_t, std::string> open_jobs;  // id -> client/mode summary
  size_t accepts = 0, rejects = 0, ckpts = 0, terminals = 0, bad_lines = 0;
  int64_t first_ts = 0, last_ts = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue v;
    try {
      v = JsonParser::parse(line);
    } catch (const std::exception&) {
      ++bad_lines;  // a torn final line from a crash is expected
      continue;
    }
    if (!v.is_object()) {
      ++bad_lines;
      continue;
    }
    const std::string ev = v.str_or("ev", "");
    const uint64_t id = static_cast<uint64_t>(v.num_or("id", 0));
    const int64_t ts = static_cast<int64_t>(v.num_or("ts_ms", 0));
    if (ts > 0) {
      if (first_ts == 0) first_ts = ts;
      last_ts = ts;
    }
    if (ev == "accept") {
      ++accepts;
      std::string what;
      if (v.has("spec") && v.at("spec").is_object()) {
        const JsonValue& spec = v.at("spec");
        what = spec.str_or("client", "anon") + " " + spec.str_or("mode", "dt");
      }
      open_jobs[id] = what;
    } else if (ev == "reject") {
      ++rejects;
      accum.add_terminal("rejected", 0.0, 0.0, 0, 0, false);
    } else if (ev == "ckpt") {
      ++ckpts;
    } else if (ev == "terminal") {
      ++terminals;
      open_jobs.erase(id);
      accum.add_terminal(v.str_or("state", "unknown"), v.num_or("wait_sec", 0),
                         v.num_or("run_sec", 0),
                         static_cast<int>(v.num_or("retries", 0)),
                         static_cast<int>(v.num_or("preemptions", 0)),
                         v.has("recovered") && v.at("recovered").boolean);
    }
  }
  std::printf("==== dtp_report --serve: %s ====\n", path.c_str());
  std::printf("records: %zu accepts, %zu rejects, %zu checkpoints, "
              "%zu terminals",
              accepts, rejects, ckpts, terminals);
  if (bad_lines > 0) std::printf(", %zu unparseable line(s)", bad_lines);
  std::printf("\n");
  if (first_ts > 0 && last_ts >= first_ts)
    std::printf("session span: %.1f s of journal activity\n",
                static_cast<double>(last_ts - first_ts) / 1e3);
  accum.print(stdout);
  if (!open_jobs.empty()) {
    std::printf("unfinished (accepted, no terminal — parked or lost):\n");
    for (const auto& [id, what] : open_jobs)
      std::printf("  job %llu%s%s\n", static_cast<unsigned long long>(id),
                  what.empty() ? "" : "  ", what.c_str());
  }
  return 0;
}

// ---- history mode: append dtp_bench artifacts to BENCH_history.jsonl and
// print the trajectory, one line per recorded run ----
int run_history(const std::string& hist_path,
                const std::vector<std::string>& bench_files) {
  size_t appended = 0;
  if (!bench_files.empty()) {
    std::ofstream out(hist_path, std::ios::app);
    if (!out) {
      std::fprintf(stderr, "dtp_report: cannot append to %s\n",
                   hist_path.c_str());
      return 1;
    }
    for (const std::string& f : bench_files) {
      JsonValue doc;
      if (!load_bench_file(f, doc)) return 1;
      const std::string line = dtp::obs::prof::bench_history_line(doc);
      if (line.empty()) {
        std::fprintf(stderr, "dtp_report: %s has no summarizable cells\n",
                     f.c_str());
        return 1;
      }
      out << line << "\n";
      ++appended;
    }
  }

  std::ifstream in(hist_path);
  if (!in) {
    std::fprintf(stderr, "dtp_report: cannot read %s\n", hist_path.c_str());
    return 1;
  }
  std::printf("==== dtp_report --history: %s ====\n", hist_path.c_str());
  size_t runs = 0, bad = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue v;
    try {
      v = JsonParser::parse(line);
    } catch (const std::exception&) {
      ++bad;
      continue;
    }
    if (!v.is_object() || v.str_or("type", "") != "bench_run") {
      ++bad;
      continue;
    }
    ++runs;
    std::printf("#%-3zu %-8s", runs, v.str_or("suite", "?").c_str());
    const std::string commit = v.str_or("commit", "");
    std::printf(" %-10s", commit.empty() ? "-" : commit.substr(0, 10).c_str());
    const std::string label = v.str_or("label", "");
    if (!label.empty()) std::printf(" [%s]", label.c_str());
    std::printf(" threads %d  |", static_cast<int>(v.num_or("threads", 0.0)));
    if (v.has("cells") && v.at("cells").is_array())
      for (const JsonValue& c : v.at("cells").array)
        std::printf("  %s %.3fs", c.str_or("name", "?").c_str(),
                    c.num_or("wall_median_sec", 0.0));
    std::printf("\n");
  }
  std::printf("%zu run(s) in trajectory", runs);
  if (appended > 0) std::printf(" (%zu appended now)", appended);
  if (bad > 0) std::printf(", %zu unrecognized line(s)", bad);
  std::printf("\n");
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: dtp_report [--require TYPE[,TYPE...]] [--activity] "
               "[--profile] FILE.jsonl...\n"
               "       dtp_report --diff A.jsonl[,A2.jsonl] B.jsonl[,B2.jsonl] "
               "[--threshold 0.05]\n"
               "       dtp_report --bench-diff OLD.json NEW.json "
               "[--threshold 0.15]\n"
               "       dtp_report --serve artifacts/journal.jsonl\n"
               "       dtp_report --history BENCH_history.jsonl "
               "[BENCH_*.json...]\n"
               "exit codes: 0 ok, 1 usage/IO/parse error, 2 missing required "
               "record type or diff regression\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::string require;
  bool diff = false;
  bool bench_diff_mode = false;
  bool activity_section = false;
  bool profile_section = false;
  std::string serve_journal;
  std::string history_path;
  std::vector<std::string> diff_args;
  double threshold = 0.05;
  bool threshold_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      usage();
      return 0;
    } else if (arg == "--require" && i + 1 < argc) {
      require = argv[++i];
    } else if (arg == "--threshold" && i + 1 < argc) {
      threshold = std::atof(argv[++i]);
      threshold_set = true;
    } else if (arg == "--diff") {
      diff = true;
    } else if (arg == "--bench-diff") {
      bench_diff_mode = true;
    } else if (arg == "--serve" && i + 1 < argc) {
      serve_journal = argv[++i];
    } else if (arg == "--history" && i + 1 < argc) {
      history_path = argv[++i];
    } else if (arg == "--activity") {
      activity_section = true;
    } else if (arg == "--profile") {
      profile_section = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "dtp_report: unknown option %s\n", arg.c_str());
      usage();
      return 1;
    } else if (diff || bench_diff_mode) {
      diff_args.push_back(arg);
    } else {
      files.push_back(arg);
    }
  }

  if (!serve_journal.empty()) return run_serve_report(serve_journal);
  if (!history_path.empty()) return run_history(history_path, files);

  if (bench_diff_mode) {
    if (diff_args.size() != 2) {
      usage();
      return 1;
    }
    JsonValue old_doc, new_doc;
    if (!load_bench_file(diff_args[0], old_doc) ||
        !load_bench_file(diff_args[1], new_doc))
      return 1;
    dtp::obs::prof::BenchDiffOptions opts;
    if (threshold_set) opts.threshold = threshold;
    return dtp::obs::prof::bench_diff(old_doc, new_doc, opts, stdout);
  }

  if (diff) {
    if (diff_args.size() != 2) {
      usage();
      return 1;
    }
    RunData a, b;
    if (!load_files(split_commas(diff_args[0]), a) ||
        !load_files(split_commas(diff_args[1]), b))
      return 1;
    return run_diff(a, b, threshold);
  }

  if (files.empty()) {
    usage();
    return 1;
  }
  RunData run;
  if (!load_files(files, run)) return 1;
  print_report(run);
  print_profiles(run, profile_section);
  if (activity_section) print_activity(run);

  int rc = 0;
  for (const std::string& type : split_commas(require)) {
    if (run.type_counts[type] == 0) {
      std::fprintf(stderr, "dtp_report: required record type '%s' missing\n",
                   type.c_str());
      rc = 2;
    }
  }
  return rc;
}
