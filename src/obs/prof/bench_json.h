// BENCH_*.json — the canonical machine-readable performance artifact
// (DESIGN.md §9).
//
// tools/dtp_bench fills BenchSuiteResult (one cell per workload×mode, N
// repeats per cell), and this module owns the schema: serialization
// (schema "dtp.bench.v1"), the repeat-series statistics (min / median / p95 /
// stddev over wall time, CPU time, IPC and cache-miss rate, per total and per
// kernel phase), and the noise-thresholded regression gate behind
// `dtp_report --bench-diff old.json new.json` (exit 2 on regression) —
// mirroring the --diff quality gate for runtime.
//
// Keeping schema + gate in the library (not the tools) means the test suite
// round-trips the exact production bytes through common/json_parse.h and
// drives the gate's pass / fail / noise-band cases directly.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "obs/prof/hw_counters.h"
#include "obs/prof/resource_sampler.h"

namespace dtp {
struct JsonValue;
}

namespace dtp::obs::prof {

inline constexpr const char* kBenchSchema = "dtp.bench.v1";

// Order statistics of one metric across a cell's repeats.
struct SeriesStats {
  size_t n = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double median = 0.0;
  double p95 = 0.0;
  double stddev = 0.0;
};

// Sorts a copy; empty input returns all-zero stats.
SeriesStats compute_stats(std::vector<double> xs);

struct PhaseTimes {
  double wall_sec = 0.0;
  double cpu_sec = 0.0;
};

// One timed run of one bench cell.
struct BenchRepeat {
  double wall_sec = 0.0;
  double cpu_sec = 0.0;
  double hpwl = 0.0;
  double overflow = 0.0;
  int iterations = 0;
  // Kernel-phase breakdown in canonical order (wirelength, density, rsmt,
  // sta_forward, sta_backward, step); zero-time phases included.
  std::vector<std::pair<std::string, PhaseTimes>> phases;
  CounterSample counters;       // grouped HW counters, or available:false
  ResourceSample resources;     // end-of-run OS resource snapshot
  double pool_busy_sec = 0.0;   // thread-pool busy delta across the run
  double pool_utilization = 0.0;
  uint64_t queue_depth_max = 0;
  std::vector<WorkerStat> workers;  // per-worker busy deltas (may be empty)
};

struct BenchCell {
  std::string name;    // e.g. "mb4x400/dt"
  std::string design;
  std::string mode;    // "wl" | "nw" | "dt"
  int num_cells = 0;
  std::vector<BenchRepeat> repeats;
  // Serialized dtp.profile.v1 document covering the cell's timed repeats
  // (sampling-profiler hot-spot attribution); spliced verbatim into the cell
  // object under "profile" when non-empty.
  std::string profile_json;
};

struct BenchSuiteResult {
  std::string suite;
  int repeats = 0;
  size_t threads = 1;
  // Provenance stamps (`dtp_bench --commit <sha> --label <str>`): emitted in
  // the header when non-empty, so a directory of BENCH_*.json files forms a
  // comparable, attributable trajectory.
  std::string commit;
  std::string label;
  CounterSample counter_probe;  // availability probe recorded in the header
  std::vector<BenchCell> cells;
};

// Complete BENCH_*.json document (stats are computed from the repeats here,
// so every emitted file carries them consistently).
std::string bench_json(const BenchSuiteResult& suite);
bool write_bench_json(const std::string& path, const BenchSuiteResult& suite);

// Regression gate over two parsed BENCH_*.json documents.
//
// Gating metrics: per matched cell (by name), the median wall_sec and median
// cpu_sec regress when new > old * (1 + threshold).  Noise banding: a cell
// whose baseline is noisy (stddev/median > noise_cv) or too fast to time
// (median < min_gate_sec) is reported informationally and never gates — the
// continuous-benchmarking harness must not flap on timer jitter.  IPC and
// cache-miss-rate deltas are always informational.
//
// Returns 0 (ok), 1 (malformed input), or 2 (regression).  A human-readable
// table is printed to `out` (pass nullptr to suppress).  Provenance
// disagreements between the two documents (threads, commit) are warned
// about before the table — an apples-to-oranges diff still runs,
// but the caller is told the numbers may not be comparable.
struct BenchDiffOptions {
  double threshold = 0.15;     // relative wall/CPU-time regression gate
  double noise_cv = 0.10;      // baseline coefficient-of-variation noise band
  double min_gate_sec = 1e-3;  // baselines below this never gate
};
int bench_diff(const JsonValue& a, const JsonValue& b,
               const BenchDiffOptions& opts, std::FILE* out);

// One-line per-run summary of a parsed dtp.bench document for the running
// BENCH_history.jsonl trajectory (`dtp_report --history`):
//   {"type":"bench_run","suite":...,"commit":...,"label":...,"threads":N,
//    "counters_available":b,"cells":[{"name":...,"wall_median_sec":...,
//    "cpu_median_sec":...},...]}
// Returns "" when the document is not a dtp.bench document.
std::string bench_history_line(const JsonValue& doc);

}  // namespace dtp::obs::prof
