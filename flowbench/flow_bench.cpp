// One placement of a flow-benchmark workload, from design generation to a
// checked signoff.
//
//   flow_bench --workload dt-10k|wl-10k|nw-3k|tdp-3k --seed N [--trace FILE]
//
// The process sets the design up kSetups times (generation + TimingGraph +
// GlobalPlacer construction, each timed in process CPU seconds) and places
// the last one:
// GlobalPlacer::run, legalize, detailed_place_swaps (plus timing_driven_swaps
// on tdp-3k) and a hard-mode Timer::evaluate signoff.  It then checks the
// result with computations of its own and prints one JSON line.  The flow is
// timed twice over: in process CPU seconds (all threads), the end-to-end
// figures, and in wall seconds.
//
// With --trace it additionally replays calls into each layer's public
// functions on the placement states this run produced (the GP result and the
// final legal placement), reports per-layer costs and counts, and writes its
// spans to FILE.  The spans are taken here, around the calls, never inside
// the program.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "dtimer/diff_timer.h"
#include "liberty/synth_library.h"
#include "placer/global_placer.h"
#include "placer/legalizer.h"
#include "placer/net_weighting.h"
#include "placer/optimizer.h"
#include "placer/poisson.h"
#include "reference_sta.h"
#include "sta/timer.h"
#include "workload/circuit_gen.h"

namespace {

using dtp::Stopwatch;
using dtp::netlist::Design;
using dtp::placer::PlacerMode;

struct Workload {
  const char* name;
  int num_cells;
  PlacerMode mode;
  bool timing_dp;  // timing_driven_swaps after detailed placement
};

constexpr Workload kWorkloads[] = {
    {"dt-10k", 10000, PlacerMode::DiffTiming, false},
    {"wl-10k", 10000, PlacerMode::WirelengthOnly, false},
    {"nw-3k", 3000, PlacerMode::NetWeighting, false},
    {"tdp-3k", 3000, PlacerMode::DiffTiming, true},
};

constexpr double kTnsWeight = 50.0;  // timing_driven_swaps objective weight
constexpr int kSetups = 5;           // set-ups timed per placement

// Everything set-up time pays for, owned in construction order.
struct Setup {
  std::unique_ptr<Design> design;
  std::unique_ptr<dtp::sta::TimingGraph> graph;
  std::unique_ptr<dtp::placer::GlobalPlacer> gp;
};

// Every workload places one fixed generated netlist (the dtp_bench structure
// seed); the benchmark seed draws the movable cells' initial positions from
// the generator's own distribution, N(core centre, 0.08 * side) per axis.
// Netlists of different structure seeds differ by up to 40% in signoff TNS,
// which would swamp every quality bound; initial positions do not.
constexpr uint64_t kStructureSeed = 7;

void draw_initial_positions(Design& d, uint64_t seed) {
  const double side = d.floorplan.core.width();
  dtp::Rng rng(seed);
  for (size_t c = 0; c < d.netlist.num_cells(); ++c) {
    if (d.netlist.cell(static_cast<int>(c)).fixed) continue;
    d.cell_x[c] = std::clamp(0.5 * side + rng.normal(0.0, side * 0.08), 0.0,
                             side - 1.0);
    d.cell_y[c] = std::clamp(0.5 * side + rng.normal(0.0, side * 0.08), 0.0,
                             side - 1.0);
  }
}

Setup make_setup(const dtp::liberty::CellLibrary& lib, const Workload& w,
                 uint64_t seed, const dtp::placer::GlobalPlacerOptions& opts) {
  dtp::workload::WorkloadOptions wopts;
  wopts.seed = kStructureSeed;
  wopts.num_cells = w.num_cells;
  Setup s;
  s.design = std::make_unique<Design>(
      dtp::workload::generate_design(lib, wopts, w.name));
  draw_initial_positions(*s.design, seed);
  s.graph = std::make_unique<dtp::sta::TimingGraph>(s.design->netlist);
  s.gp = std::make_unique<dtp::placer::GlobalPlacer>(*s.design, *s.graph, opts);
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// Peak resident set of this process so far, MiB.
double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Exit code of a placement the watchdog ended.
constexpr int kFrozenExit = 75;

// Ends the process with kFrozenExit once it has used next to no CPU for
// `freeze_s` seconds: every thread asleep, as when ThreadPool::dispatch waits
// for a job that can no longer finish.  A placement never idles otherwise.
class FreezeWatchdog {
 public:
  explicit FreezeWatchdog(double freeze_s)
      : thread_([this, freeze_s] { watch(freeze_s); }) {}
  ~FreezeWatchdog() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  FreezeWatchdog(const FreezeWatchdog&) = delete;
  FreezeWatchdog& operator=(const FreezeWatchdog&) = delete;

 private:
  void watch(double freeze_s) {
    constexpr double kTickS = 0.25;
    double cpu = dtp::process_cpu_sec();
    double idle_s = 0.0;
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::duration<double>(kTickS),
                         [this] { return stop_; })) {
      const double now = dtp::process_cpu_sec();
      // Under 1% of one core during the tick counts as idle.
      idle_s = now - cpu < 0.01 * kTickS ? idle_s + kTickS : 0.0;
      cpu = now;
      if (idle_s >= freeze_s) {
        std::fprintf(stderr, "flow_bench: no CPU progress for %.1f s; ending\n",
                     idle_s);
        std::_Exit(kFrozenExit);
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mutex_
  std::thread thread_;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (ch == '\n') ? ' ' : ch;
  }
  return out;
}

// In-memory span log, on in trace mode only: one record per call the
// benchmark makes into a layer (name, start, end, enclosing span), written out
// as a Chrome trace when the process ends.
class SpanLog {
 public:
  void enable() { on_ = true; }
  int open(const std::string& name) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now_us(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].t1 = now_us();
    stack_.pop_back();
  }
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Rec& r = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                   i ? "," : "", r.name.c_str(), r.t0, r.t1 - r.t0, i, r.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Rec {
    std::string name;
    double t0, t1;  // microseconds since the log's epoch
    int parent;
  };
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  bool on_ = false;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Rec> spans_;
  std::vector<int> stack_;
};

SpanLog g_spans;

class Span {
 public:
  explicit Span(const std::string& name) : id_(g_spans.open(name)) {}
  ~Span() { g_spans.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

// Median wall milliseconds of `reps` calls of fn, each call one span.
template <class Fn>
double time_ms(const std::string& name, int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    Span span(name);
    Stopwatch sw;
    fn();
    t.push_back(sw.elapsed_ms());
  }
  return median(std::move(t));
}

// Flat name -> value metric set, printed as a JSON object.
using Metrics = std::map<std::string, double>;

void print_metrics(const char* key, const Metrics& m) {
  std::printf(",\"%s\":{", key);
  bool first = true;
  for (const auto& [name, v] : m) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), v);
    first = false;
  }
  std::printf("}");
}

struct FlowState {
  dtp::placer::PlaceResult gp;
  std::vector<double> gp_x, gp_y;  // positions after global placement
  dtp::ThreadPoolStats pool_before, pool_after;
  double legalize_ms = 0.0, detailed_ms = 0.0, timing_dp_ms = 0.0;
  double signoff_ms = 0.0;
  dtp::placer::TimingDpResult dp;
  size_t legalize_failed = 0;
  double dp_timer_tns = 0.0;  // TNS the incremental timer holds after swaps
};

int count_timing_iters(const dtp::placer::PlaceResult& r) {
  int n = 0;
  for (const auto& log : r.history) n += log.has_timing ? 1 : 0;
  return n;
}

// Per-layer replay on the states of this run (trace mode only).
Metrics trace_layers(const Workload& w, Setup& s, const FlowState& fs,
                     const dtp::placer::GlobalPlacerOptions& opts,
                     uint64_t seed) {
  Design& d = *s.design;
  const dtp::sta::TimingGraph& g = *s.graph;
  const dtp::netlist::Netlist& nl = d.netlist;
  const auto st = nl.stats();
  std::fprintf(stderr,
               "design %s: %zu cells (%zu movable), %zu nets, %zu pins, "
               "%d timing levels, %zu endpoints, %dx%d bins\n",
               w.name, st.num_cells, st.num_std_cells, st.num_nets, st.num_pins,
               g.num_levels(), g.endpoints().size(), s.gp->density().grid(),
               s.gp->density().grid());
  const std::vector<double>& gx0 = fs.gp_x;
  const std::vector<double>& gy0 = fs.gp_y;
  const size_t n = nl.num_cells();
  constexpr int kReps = 9;
  Metrics m;
  auto timed = [&](const char* name, auto&& fn) {
    m[name] = time_ms(name, kReps, fn);
  };

  // placer.wirelength, at the smoothing the run ended with.
  dtp::placer::WirelengthModel& wl = s.gp->wirelength();
  std::vector<double> wgx(n), wgy(n);
  timed("wirelength.grad_ms", [&] {
    std::fill(wgx.begin(), wgx.end(), 0.0);
    std::fill(wgy.begin(), wgy.end(), 0.0);
    wl.value_and_gradient(gx0, gy0, wgx, wgy);
  });
  double wl_pins = 0.0;
  for (const auto net : wl.active_nets())
    wl_pins += static_cast<double>(nl.net(net).pins.size());
  m["wirelength.pins"] = wl_pins;
  m["wirelength.ns_per_pin"] = m["wirelength.grad_ms"] * 1e6 / wl_pins;

  // placer.density / poisson.
  dtp::placer::DensityModel& den = s.gp->density();
  const double bins = static_cast<double>(den.grid()) * den.grid();
  timed("density.update_ms", [&] { den.update(gx0, gy0); });
  std::vector<double> dgx(n), dgy(n);
  timed("density.grad_ms", [&] {
    std::fill(dgx.begin(), dgx.end(), 0.0);
    std::fill(dgy.begin(), dgy.end(), 0.0);
    den.add_gradient(gx0, gy0, 1.0, dgx, dgy);
  });
  m["density.bins"] = bins;
  m["density.ns_per_bin"] = m["density.update_ms"] * 1e6 / bins;
  {
    const dtp::placer::PoissonSolver solver(den.grid(), d.floorplan.core.width(),
                                            d.floorplan.core.height());
    std::vector<double> psi, fx, fy;
    timed("poisson.solve_ms", [&] { solver.solve(den.bin_density(), psi, fx, fy); });
  }

  // placer.optimizer: one Nesterov step on the run's WL+density gradient.
  {
    std::vector<double> sx = gx0, sy = gy0, tgx(n), tgy(n);
    for (size_t c = 0; c < n; ++c) {
      tgx[c] = wgx[c] + dgx[c];
      tgy[c] = wgy[c] + dgy[c];
    }
    dtp::placer::NesterovOptimizer opt;
    opt.step(sx, sy, tgx, tgy);
    timed("optimizer.step_ms", [&] { opt.step(sx, sy, tgx, tgy); });
  }

  // rsmt + sta (hard mode) at the GP result.
  const double sta_pins = static_cast<double>(g.level_pins().size());
  dtp::sta::Timer hard(d, g);
  hard.update_positions(gx0, gy0);
  timed("rsmt.build_ms", [&] { hard.build_trees(); });
  timed("rsmt.drag_ms", [&] { hard.drag_trees(); });
  m["rsmt.nets"] = static_cast<double>(g.timing_nets().size());
  m["rsmt.ns_per_net"] = m["rsmt.build_ms"] * 1e6 / m["rsmt.nets"];
  hard.build_trees();
  timed("sta.elmore_ms", [&] { hard.run_elmore(); });
  timed("sta.propagate_hard_ms", [&] { hard.propagate(); });
  hard.update_slacks();
  timed("sta.required_ms", [&] { hard.update_required(); });
  timed("sta.evaluate_ms", [&] { hard.evaluate(gx0, gy0); });
  m["sta.pins"] = sta_pins;
  m["sta.levels"] = static_cast<double>(g.num_levels());
  m["sta.ns_per_pin_pass"] = m["sta.propagate_hard_ms"] * 1e6 / sta_pins;
  {
    dtp::sta::TimerOptions sopts;
    sopts.mode = dtp::sta::AggMode::Smooth;
    sopts.gamma = opts.gamma_timing;
    dtp::sta::Timer smooth(d, g, sopts);
    smooth.evaluate(gx0, gy0);
    timed("sta.propagate_smooth_ms", [&] { smooth.propagate(); });
  }

  // placer.net_weighting on a private wirelength model (weights evolve).
  {
    dtp::placer::WirelengthModel wl_nw(d, opts.ignore_net_degree);
    const dtp::placer::NetWeighting nw(d, g, opts.nw);
    hard.evaluate(gx0, gy0);
    timed("netweight.update_ms", [&] { nw.update(hard, wl_nw); });
  }

  // dtimer: drag-path forward and the adjoint sweep.
  {
    dtp::dtimer::DiffTimerOptions dopts;
    dopts.gamma = opts.gamma_timing;
    dopts.steiner_rebuild_period = 0;  // the replay measures the drag path
    dtp::dtimer::DiffTimer dt(d, g, dopts);
    dt.forward(gx0, gy0, /*force_rebuild=*/true);
    timed("dtimer.forward_ms", [&] { dt.forward(gx0, gy0); });
    std::vector<double> tgx(n), tgy(n);
    timed("dtimer.backward_ms", [&] {
      dt.backward(1.0, opts.t2_ratio, tgx, tgy);
    });
    m["dtimer.bwd_ns_per_pin_pass"] = m["dtimer.backward_ms"] * 1e6 / sta_pins;
  }

  // sta incremental: adjacent-cell swaps on the final legal placement, each
  // applied and reverted, as timing_driven_swaps does.
  {
    std::vector<double> fx = d.cell_x, fy = d.cell_y;
    dtp::sta::Timer inc(d, g);
    inc.evaluate(fx, fy);
    std::map<long, std::vector<size_t>> rows;
    for (size_t c = 0; c < n; ++c)
      if (!nl.cell(static_cast<int>(c)).fixed)
        rows[std::lround((fy[c] - d.floorplan.core.yl) / d.floorplan.row_height)]
            .push_back(c);
    std::vector<std::pair<size_t, size_t>> pairs;
    for (auto& [r, cells] : rows) {
      std::sort(cells.begin(), cells.end(),
                [&](size_t a, size_t b) { return fx[a] < fx[b]; });
      for (size_t i = 0; i + 1 < cells.size(); ++i)
        pairs.emplace_back(cells[i], cells[i + 1]);
    }
    dtp::Rng rng(seed * 104729 + 3);
    std::vector<double> t;
    for (int k = 0; k < 200 && !pairs.empty(); ++k) {
      const auto [a, b] = pairs[static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(pairs.size()) - 1))];
      const double ax = fx[a], bx = fx[b];
      const int moved[2] = {static_cast<int>(a), static_cast<int>(b)};
      fx[a] = ax + nl.lib_cell_of(static_cast<int>(b)).width;
      fx[b] = ax;
      t.push_back(time_ms("sta.incremental_ms", 1, [&] {
        inc.evaluate_incremental(fx, fy, moved);
      }));
      fx[a] = ax;
      fx[b] = bx;
      t.push_back(time_ms("sta.incremental_ms", 1, [&] {
        inc.evaluate_incremental(fx, fy, moved);
      }));
    }
    m["sta.incremental_ms"] = median(t);
  }

  // placer.legalizer: timing-driven swaps as the flow ran them on tdp-3k;
  // elsewhere one replayed pass over a copy of the final legal placement.
  double timing_dp_ms = fs.timing_dp_ms;
  dtp::placer::TimingDpResult dp = fs.dp;
  if (!w.timing_dp) {
    std::vector<double> rx = d.cell_x, ry = d.cell_y;
    const dtp::placer::WirelengthModel wl_dp(d, opts.ignore_net_degree);
    timing_dp_ms = time_ms("timing_dp_ms", 1, [&] {
      dtp::sta::Timer dp_timer(d, g);
      dp_timer.evaluate(rx, ry);
      dp = dtp::placer::timing_driven_swaps(d, wl_dp, dp_timer, rx, ry,
                                            kTnsWeight, /*max_passes=*/1);
    });
  }
  m["timing_dp_ms"] = timing_dp_ms;
  m["timing_dp.swaps_tried"] = static_cast<double>(dp.swaps_tried);
  m["timing_dp.accept_ratio"] =
      dp.swaps_tried > 0 ? static_cast<double>(dp.swaps_accepted) /
                               static_cast<double>(dp.swaps_tried)
                         : 0.0;
  // Each tried swap is one incremental update; each rejected one a second.
  m["sta.incremental_calls"] = 2.0 * static_cast<double>(dp.swaps_tried) -
                               static_cast<double>(dp.swaps_accepted);

  // Flow-measured spans and counts.
  const int iters = fs.gp.iterations;
  const int timing_iters = count_timing_iters(fs.gp);
  m["legalize_ms"] = fs.legalize_ms;
  m["detailed_ms"] = fs.detailed_ms;
  m["signoff_ms"] = fs.signoff_ms;
  m["gp.timing_iters"] = timing_iters;

  const double rebuilds =
      w.mode == PlacerMode::NetWeighting ? timing_iters
      : w.mode == PlacerMode::DiffTiming
          ? (timing_iters + opts.steiner_period - 1) / opts.steiner_period
          : 0;
  m["rsmt.rebuilds"] = rebuilds;

  // Thread pool, read around the flow (GP start to the end of signoff).
  const auto& a = fs.pool_before;
  const auto& b = fs.pool_after;
  const double calls = static_cast<double>(b.parallel_for_calls - a.parallel_for_calls);
  const double inl = static_cast<double>(b.inline_ranges - a.inline_ranges);
  const double wall = b.lifetime_sec - a.lifetime_sec;
  m["pool.dispatches"] = calls - inl;
  m["pool.inline_share"] = calls > 0 ? inl / calls : 0.0;
  m["pool.queue_wait_ms"] = 1e3 * (b.queue_wait_sec - a.queue_wait_sec);
  m["pool.utilization"] =
      wall > 0 ? (b.busy_sec - a.busy_sec) /
                     (wall * static_cast<double>(b.num_threads))
               : 0.0;

  // Wall time the replayed per-call costs do not explain.
  double explained = iters * (m["wirelength.grad_ms"] + m["density.update_ms"] +
                              m["density.grad_ms"] + m["optimizer.step_ms"]);
  if (w.mode == PlacerMode::DiffTiming)
    explained += timing_iters * (m["dtimer.forward_ms"] + m["dtimer.backward_ms"]) +
                 rebuilds * (m["rsmt.build_ms"] - m["rsmt.drag_ms"]);
  else if (w.mode == PlacerMode::NetWeighting)
    explained += timing_iters * (m["sta.evaluate_ms"] + m["netweight.update_ms"]);
  m["gp.unattributed_ms"] = 1e3 * fs.gp.runtime_sec - explained;
  return m;
}

int usage() {
  std::fprintf(stderr,
               "usage: flow_bench --workload dt-10k|wl-10k|nw-3k|tdp-3k "
               "--seed N [--trace FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* w = nullptr;
  uint64_t seed = 0;
  bool have_seed = false;
  std::string spans_path;  // trace mode when set
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      for (const Workload& c : kWorkloads)
        if (std::strcmp(c.name, v) == 0) w = &c;
    } else if (k == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (k == "--trace") {
      spans_path = v;
    } else {
      return usage();
    }
  }
  if (w == nullptr || !have_seed || argc % 2 == 0) return usage();
  const bool trace = !spans_path.empty();
  if (trace) g_spans.enable();

  const FreezeWatchdog watchdog(3.0);
  const dtp::liberty::CellLibrary lib = dtp::liberty::make_synthetic_library();
  dtp::placer::GlobalPlacerOptions opts;  // the placer's defaults
  opts.mode = w->mode;

  std::vector<double> setup_s;  // process CPU seconds of each set-up
  Setup s;
  for (int r = 0; r < kSetups; ++r) {
    s = Setup{};  // release the previous set-up before timing the next
    const Span span("setup");
    const double cpu0 = dtp::process_cpu_sec();
    s = make_setup(lib, *w, seed, opts);
    setup_s.push_back(dtp::process_cpu_sec() - cpu0);
  }
  Design& d = *s.design;
  const dtp::sta::TimingGraph& g = *s.graph;

  // ---- the measured flow: GP start to the end of signoff ----
  FlowState fs;
  dtp::placer::WirelengthModel wl(d, opts.ignore_net_degree);
  dtp::sta::Timer signoff(d, g);
  dtp::sta::TimingMetrics sm;
  double place_s = 0.0, flow_s = 0.0, place_cpu_s = 0.0, flow_cpu_s = 0.0;
  {
    const Span flow_span("flow");
    const double cpu0 = dtp::process_cpu_sec();
    Stopwatch flow_clock;
    fs.pool_before = dtp::ThreadPool::global().stats();
    {
      const Span span("gp.run");
      fs.gp = s.gp->run();
    }
    place_s = flow_clock.elapsed_sec();
    place_cpu_s = dtp::process_cpu_sec() - cpu0;
    if (trace) {
      fs.gp_x = d.cell_x;
      fs.gp_y = d.cell_y;
    }
    fs.legalize_ms = time_ms("legalize_ms", 1, [&] {
      fs.legalize_failed =
          dtp::placer::legalize(d, d.cell_x, d.cell_y).failed_cells;
    });
    fs.detailed_ms = time_ms("detailed_ms", 1, [&] {
      dtp::placer::detailed_place_swaps(d, wl, d.cell_x, d.cell_y);
    });
    if (w->timing_dp) {
      fs.timing_dp_ms = time_ms("timing_dp_ms", 1, [&] {
        dtp::sta::Timer dp_timer(d, g);
        dp_timer.evaluate(d.cell_x, d.cell_y);
        fs.dp = dtp::placer::timing_driven_swaps(d, wl, dp_timer, d.cell_x,
                                                 d.cell_y, kTnsWeight);
        fs.dp_timer_tns = dp_timer.metrics().tns;
      });
    }
    fs.signoff_ms = time_ms("signoff_ms", 1, [&] {
      sm = signoff.evaluate(d.cell_x, d.cell_y);
    });
    fs.pool_after = dtp::ThreadPool::global().stats();
    flow_s = flow_clock.elapsed_sec();
    flow_cpu_s = dtp::process_cpu_sec() - cpu0;
  }
  const double rss = peak_rss_mib();

  // ---- checks, none of them timed ----
  std::string error;
  auto fail = [&](const std::string& what) {
    if (error.empty()) error = what;
  };
  const auto& gp = fs.gp;
  const double hpwl = flowbench::hpwl_from_pins(d, d.cell_x, d.cell_y,
                                                opts.ignore_net_degree);
  {
    const Span span("checks");
    if (gp.stop_reason != dtp::placer::StopReason::Converged)
      fail(std::string("GP stopped: ") +
           dtp::placer::stop_reason_name(gp.stop_reason));
    else if (!(gp.overflow < opts.stop_overflow) ||
             gp.iterations < opts.min_iters || gp.history.empty() ||
             gp.history.back().overflow != gp.overflow)
      fail("GP stopped off its overflow criterion");
    if (fs.legalize_failed > 0) fail("legalization left cells unplaced");
    if (const std::string e = flowbench::check_legal(d, d.cell_x, d.cell_y);
        !e.empty())
      fail("illegal placement: " + e);
    const double hpwl_placer = wl.hpwl_unweighted(d.cell_x, d.cell_y);
    if (!(std::abs(hpwl - hpwl_placer) <= 1e-9 * std::max(1.0, hpwl)))
      fail("HPWL " + std::to_string(hpwl_placer) +
           " differs from pin recount " + std::to_string(hpwl));
    if (const std::string e =
            flowbench::compare_with_reference(d, g, signoff, sm);
        !e.empty())
      fail("signoff disagrees with reference STA: " + e);
    if (w->timing_dp && !(std::abs(fs.dp_timer_tns - sm.tns) <=
                          1e-9 * std::max(1.0, std::abs(sm.tns))))
      fail("incremental TNS " + std::to_string(fs.dp_timer_tns) +
           " differs from full evaluate " + std::to_string(sm.tns));
    if (trace && w->mode == PlacerMode::DiffTiming && w->num_cells >= 10000) {
      const auto gc = flowbench::check_timing_gradient(
          d, g, fs.gp_x, fs.gp_y, opts.gamma_timing, 1.0, opts.t2_ratio, seed);
      if (!gc.error.empty()) fail("timing gradient: " + gc.error);
      std::fprintf(stderr, "gradient check: %d samples compared, %d on kinks\n",
                   gc.compared, gc.skipped);
    }
  }

  Metrics layers;
  if (trace) {
    const Span span("replay");
    layers = trace_layers(*w, s, fs, opts, seed);
  }

  Metrics e2e;
  e2e["place_cpu_s"] = place_cpu_s;
  e2e["flow_cpu_s"] = flow_cpu_s;
  e2e["place_wall_s"] = place_s;
  e2e["flow_wall_s"] = flow_s;
  e2e["gp_iters"] = gp.iterations;
  e2e["cpu_ms_per_iter"] = 1e3 * place_cpu_s / std::max(1, gp.iterations);
  e2e["hpwl_um"] = hpwl;
  e2e["wns_neg_ns"] = -sm.wns;
  e2e["tns_neg_ns"] = -sm.tns;
  e2e["peak_rss_mib"] = rss;

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"ok\":%s,\"error\":\"%s\"",
              w->name, static_cast<unsigned long long>(seed),
              error.empty() ? "true" : "false", json_escape(error).c_str());
  std::printf(",\"setup_s\":[");
  for (size_t i = 0; i < setup_s.size(); ++i)
    std::printf("%s%.9g", i ? "," : "", setup_s[i]);
  std::printf("]");
  print_metrics("metrics", e2e);
  if (trace) print_metrics("layers", layers);
  std::printf("}\n");
  std::fflush(stdout);
  if (trace && !g_spans.write(spans_path)) {
    std::fprintf(stderr, "flow_bench: cannot write %s\n", spans_path.c_str());
    return 1;
  }
  return 0;
}
