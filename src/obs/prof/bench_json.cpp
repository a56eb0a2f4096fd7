#include "obs/prof/bench_json.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/json_parse.h"
#include "common/json_writer.h"

namespace dtp::obs::prof {

SeriesStats compute_stats(std::vector<double> xs) {
  SeriesStats s;
  s.n = xs.size();
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  s.min = xs.front();
  s.max = xs.back();
  double sum = 0.0;
  for (double x : xs) sum += x;
  s.mean = sum / static_cast<double>(xs.size());
  const size_t n = xs.size();
  s.median = n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
  // Nearest-rank p95 (ceil(0.95 n), 1-based).
  const size_t rank = static_cast<size_t>(
      std::ceil(0.95 * static_cast<double>(n)));
  s.p95 = xs[std::min(n - 1, rank > 0 ? rank - 1 : 0)];
  double var = 0.0;
  for (double x : xs) var += (x - s.mean) * (x - s.mean);
  s.stddev = n > 1 ? std::sqrt(var / static_cast<double>(n - 1)) : 0.0;
  return s;
}

namespace {

void stats_object(JsonWriter& w, const SeriesStats& s) {
  w.begin_object();
  w.key("n").value(static_cast<uint64_t>(s.n));
  w.key("min").value(s.min);
  w.key("max").value(s.max);
  w.key("mean").value(s.mean);
  w.key("median").value(s.median);
  w.key("p95").value(s.p95);
  w.key("stddev").value(s.stddev);
  w.end_object();
}

// Pulls one metric out of every repeat.
template <typename Fn>
std::vector<double> series(const BenchCell& cell, Fn&& get) {
  std::vector<double> xs;
  xs.reserve(cell.repeats.size());
  for (const BenchRepeat& r : cell.repeats) xs.push_back(get(r));
  return xs;
}

void cell_object(JsonWriter& w, const BenchCell& cell) {
  w.begin_object();
  w.key("name").value(cell.name);
  w.key("design").value(cell.design);
  w.key("mode").value(cell.mode);
  w.key("num_cells").value(cell.num_cells);

  w.key("repeats").begin_array();
  for (const BenchRepeat& r : cell.repeats) {
    w.begin_object();
    w.key("wall_sec").value(r.wall_sec);
    w.key("cpu_sec").value(r.cpu_sec);
    w.key("hpwl").value(r.hpwl);
    w.key("overflow").value(r.overflow);
    w.key("iterations").value(r.iterations);
    w.key("phases").begin_object();
    for (const auto& [name, pt] : r.phases) {
      w.key(name).begin_object();
      w.key("wall_sec").value(pt.wall_sec);
      w.key("cpu_sec").value(pt.cpu_sec);
      w.end_object();
    }
    w.end_object();
    w.key("counters");
    counters_to_json(w, r.counters);
    w.key("resources");
    resource_sample_to_json(w, r.resources);
    w.key("pool").begin_object();
    w.key("busy_sec").value(r.pool_busy_sec);
    w.key("utilization").value(r.pool_utilization);
    w.key("queue_depth_max").value(r.queue_depth_max);
    w.key("workers").begin_array();
    for (const WorkerStat& ws : r.workers) {
      w.begin_object();
      w.key("tasks").value(ws.tasks);
      w.key("busy_sec").value(ws.busy_sec);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    w.end_object();
  }
  w.end_array();

  // Stats across repeats; counter-derived series only when every repeat had
  // counters (a mixed cell would average real rates with zeros).
  w.key("stats").begin_object();
  w.key("wall_sec");
  stats_object(w, compute_stats(series(cell, [](const BenchRepeat& r) {
    return r.wall_sec;
  })));
  w.key("cpu_sec");
  stats_object(w, compute_stats(series(cell, [](const BenchRepeat& r) {
    return r.cpu_sec;
  })));
  bool all_counters = !cell.repeats.empty();
  for (const BenchRepeat& r : cell.repeats)
    all_counters = all_counters && r.counters.available;
  if (all_counters) {
    w.key("ipc");
    stats_object(w, compute_stats(series(cell, [](const BenchRepeat& r) {
      return r.counters.ipc();
    })));
    w.key("cache_miss_rate");
    stats_object(w, compute_stats(series(cell, [](const BenchRepeat& r) {
      return r.counters.cache_miss_rate();
    })));
  }
  w.key("phases").begin_object();
  if (!cell.repeats.empty()) {
    for (size_t p = 0; p < cell.repeats.front().phases.size(); ++p) {
      w.key(cell.repeats.front().phases[p].first).begin_object();
      w.key("wall_sec");
      stats_object(w, compute_stats(series(cell, [p](const BenchRepeat& r) {
        return p < r.phases.size() ? r.phases[p].second.wall_sec : 0.0;
      })));
      w.key("cpu_sec");
      stats_object(w, compute_stats(series(cell, [p](const BenchRepeat& r) {
        return p < r.phases.size() ? r.phases[p].second.cpu_sec : 0.0;
      })));
      w.end_object();
    }
  }
  w.end_object();
  w.end_object();

  // Sampling-profiler attribution across the cell's timed repeats
  // (dtp.profile.v1, pre-serialized).  Optional: absent when the profiler
  // was disabled, so dtp.bench.v1 readers stay compatible.
  if (!cell.profile_json.empty()) w.key("profile").raw(cell.profile_json);

  w.end_object();
}

}  // namespace

std::string bench_json(const BenchSuiteResult& suite) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(kBenchSchema);
  w.key("suite").value(suite.suite);
  w.key("repeats").value(suite.repeats);
  w.key("threads").value(static_cast<uint64_t>(suite.threads));
  if (!suite.commit.empty()) w.key("commit").value(suite.commit);
  if (!suite.label.empty()) w.key("label").value(suite.label);
  w.key("counters");
  w.begin_object();
  w.key("available").value(suite.counter_probe.available);
  if (!suite.counter_probe.available)
    w.key("reason").value(suite.counter_probe.unavailable_reason);
  w.end_object();
  w.key("cells").begin_array();
  for (const BenchCell& cell : suite.cells) cell_object(w, cell);
  w.end_array();
  w.end_object();
  return w.str();
}

bool write_bench_json(const std::string& path, const BenchSuiteResult& suite) {
  const std::string doc = bench_json(suite);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

std::string bench_history_line(const JsonValue& doc) {
  if (!doc.is_object() ||
      doc.str_or("schema", "").rfind("dtp.bench", 0) != 0 ||
      !doc.has("cells") || !doc.at("cells").is_array())
    return "";
  JsonWriter w;
  w.begin_object();
  w.key("type").value("bench_run");
  w.key("schema").value(doc.str_or("schema", ""));
  w.key("suite").value(doc.str_or("suite", "?"));
  const std::string commit = doc.str_or("commit", "");
  if (!commit.empty()) w.key("commit").value(commit);
  const std::string label = doc.str_or("label", "");
  if (!label.empty()) w.key("label").value(label);
  w.key("threads")
      .value(static_cast<uint64_t>(doc.num_or("threads", 0.0)));
  bool counters_available = false;
  if (doc.has("counters") && doc.at("counters").is_object()) {
    const JsonValue& c = doc.at("counters");
    counters_available = c.has("available") && c.at("available").boolean;
  }
  w.key("counters_available").value(counters_available);
  w.key("cells").begin_array();
  for (const JsonValue& cell : doc.at("cells").array) {
    w.begin_object();
    w.key("name").value(cell.str_or("name", "?"));
    double wall_median = 0.0, cpu_median = 0.0;
    if (cell.has("stats") && cell.at("stats").is_object()) {
      const JsonValue& st = cell.at("stats");
      if (st.has("wall_sec"))
        wall_median = st.at("wall_sec").num_or("median", 0.0);
      if (st.has("cpu_sec"))
        cpu_median = st.at("cpu_sec").num_or("median", 0.0);
    }
    w.key("wall_median_sec").value(wall_median);
    w.key("cpu_median_sec").value(cpu_median);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

// ------------------------------------------------------------------ diff ----

namespace {

struct CellStats {
  double wall_median = 0.0, wall_stddev = 0.0;
  double cpu_median = 0.0;
  double ipc_median = 0.0;
  bool has_ipc = false;
  double miss_median = 0.0;
  bool has_miss = false;
};

bool read_cell_stats(const JsonValue& cell, CellStats& out) {
  if (!cell.has("stats") || !cell.at("stats").is_object()) return false;
  const JsonValue& st = cell.at("stats");
  if (!st.has("wall_sec") || !st.has("cpu_sec")) return false;
  out.wall_median = st.at("wall_sec").num_or("median", 0.0);
  out.wall_stddev = st.at("wall_sec").num_or("stddev", 0.0);
  out.cpu_median = st.at("cpu_sec").num_or("median", 0.0);
  if (st.has("ipc")) {
    out.ipc_median = st.at("ipc").num_or("median", 0.0);
    out.has_ipc = true;
  }
  if (st.has("cache_miss_rate")) {
    out.miss_median = st.at("cache_miss_rate").num_or("median", 0.0);
    out.has_miss = true;
  }
  return true;
}

bool collect_cells(const JsonValue& doc,
                   std::map<std::string, const JsonValue*>& out,
                   std::FILE* err) {
  if (!doc.is_object() ||
      doc.str_or("schema", "").rfind("dtp.bench", 0) != 0 ||
      !doc.has("cells") || !doc.at("cells").is_array()) {
    if (err != nullptr)
      std::fprintf(err,
                   "bench-diff: input is not a dtp.bench document "
                   "(missing schema/cells)\n");
    return false;
  }
  for (const JsonValue& cell : doc.at("cells").array)
    out[cell.str_or("name", "?")] = &cell;
  return true;
}

}  // namespace

int bench_diff(const JsonValue& a, const JsonValue& b,
               const BenchDiffOptions& opts, std::FILE* out) {
  std::map<std::string, const JsonValue*> cells_a, cells_b;
  if (!collect_cells(a, cells_a, out) || !collect_cells(b, cells_b, out))
    return 1;

  if (out != nullptr) {
    // Provenance sanity: numbers taken under different thread counts (or
    // from different commits than claimed) are not an apples-to-apples
    // comparison.  Warn, then diff anyway.
    const double threads_a = a.num_or("threads", 0.0);
    const double threads_b = b.num_or("threads", 0.0);
    if (threads_a > 0.0 && threads_b > 0.0 && threads_a != threads_b)
      std::fprintf(out,
                   "bench-diff: WARNING: thread counts differ (old %g, new "
                   "%g); timings are not comparable\n",
                   threads_a, threads_b);
    const std::string commit_a = a.str_or("commit", "");
    const std::string commit_b = b.str_or("commit", "");
    if (!commit_a.empty() && !commit_b.empty() && commit_a != commit_b)
      std::fprintf(out,
                   "bench-diff: note: commits differ (old %s, new %s)\n",
                   commit_a.c_str(), commit_b.c_str());
  }

  if (out != nullptr) {
    std::fprintf(out,
                 "==== bench diff (threshold %.0f%%, noise band cv > %.2f) "
                 "====\n",
                 100.0 * opts.threshold, opts.noise_cv);
    std::fprintf(out, "%-24s %-12s %12s %12s %8s  %s\n", "cell", "metric",
                 "old", "new", "ratio", "verdict");
  }
  bool regression = false;
  std::vector<std::string> regressions;  // "cell/metric", for the verdict line
  size_t matched = 0;
  for (const auto& [name, cell_a] : cells_a) {
    const auto it = cells_b.find(name);
    if (it == cells_b.end()) {
      if (out != nullptr)
        std::fprintf(out, "%-24s (missing from new file)\n", name.c_str());
      continue;
    }
    CellStats sa, sb;
    if (!read_cell_stats(*cell_a, sa) || !read_cell_stats(*it->second, sb)) {
      if (out != nullptr)
        std::fprintf(out, "bench-diff: cell %s lacks a stats block\n",
                     name.c_str());
      return 1;
    }
    ++matched;
    const double cv = sa.wall_median > 0.0 ? sa.wall_stddev / sa.wall_median
                                           : 0.0;
    const bool noisy = cv > opts.noise_cv;
    struct Row {
      const char* metric;
      double va, vb;
      bool gates;        // can this metric fail the diff at all
      bool worse_is_up;  // regression direction
    };
    const Row rows[] = {
        {"wall_sec", sa.wall_median, sb.wall_median,
         !noisy && sa.wall_median >= opts.min_gate_sec, true},
        {"cpu_sec", sa.cpu_median, sb.cpu_median,
         !noisy && sa.cpu_median >= opts.min_gate_sec, true},
        {"ipc", sa.ipc_median, sb.ipc_median, false, false},
        {"cache_miss_rate", sa.miss_median, sb.miss_median, false, true},
    };
    for (const Row& r : rows) {
      if ((r.metric == std::string("ipc") && !(sa.has_ipc && sb.has_ipc)) ||
          (r.metric == std::string("cache_miss_rate") &&
           !(sa.has_miss && sb.has_miss)))
        continue;
      const double ratio = r.va > 0.0 ? r.vb / r.va : 0.0;
      const bool regressed =
          r.gates && r.va > 0.0 && r.vb > r.va * (1.0 + opts.threshold);
      regression = regression || regressed;
      if (regressed) regressions.push_back(name + "/" + r.metric);
      if (out != nullptr) {
        const char* verdict = regressed          ? "REGRESSED"
                              : !r.gates && noisy ? "noisy"
                              : r.gates           ? "ok"
                                                  : "info";
        std::fprintf(out, "%-24s %-12s %12.6g %12.6g %7.3fx  %s\n",
                     name.c_str(), r.metric, r.va, r.vb, ratio, verdict);
      }
    }
  }
  if (matched == 0) {
    if (out != nullptr)
      std::fprintf(out, "bench-diff: no common cells between the two files\n");
    return 1;
  }
  if (out != nullptr) {
    std::fprintf(out, "RESULT: %s\n",
                 regression ? "REGRESSION beyond threshold" : "ok");
    // Final single-line machine-readable verdict, so CI parses the outcome
    // instead of scraping the table.
    JsonWriter verdict;
    verdict.begin_object();
    verdict.key("ok").value(!regression);
    verdict.key("regressions").begin_array();
    for (const std::string& r : regressions) verdict.value(r);
    verdict.end_array();
    verdict.end_object();
    std::fprintf(out, "%s\n", verdict.str().c_str());
  }
  return regression ? 2 : 0;
}

}  // namespace dtp::obs::prof
