#include "placer/global_placer.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>

#include "common/logger.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/validate.h"

namespace dtp::placer {

using netlist::CellId;

const char* stop_reason_name(StopReason r) {
  switch (r) {
    case StopReason::Converged: return "converged";
    case StopReason::MaxIters: return "max_iters";
    case StopReason::Cancelled: return "cancelled";
    case StopReason::Paused: return "paused";
    case StopReason::TimeBudget: return "time_budget";
    case StopReason::Aborted: return "aborted";
  }
  return "?";
}

GlobalPlacer::GlobalPlacer(netlist::Design& design, const sta::TimingGraph& graph,
                           GlobalPlacerOptions options)
    : design_(&design), graph_(&graph), options_(options) {
  if (options_.robust.enabled) {
    robust::ValidationReport report = robust::validate(design);
    if (!report.ok()) throw robust::ValidationError(std::move(report));
    if (report.num_warnings() > 0)
      DTP_LOG_DEBUG("design validation: %zu warning(s)\n%s",
                    report.num_warnings(), report.to_string().c_str());
  }
  wl_ = std::make_unique<WirelengthModel>(design, options_.ignore_net_degree);
  const int bins = options_.bins > 0 ? options_.bins : auto_bins();
  density_ = std::make_unique<DensityModel>(design, bins, options_.target_density);
  if (options_.use_adam)
    optimizer_ = std::make_unique<AdamOptimizer>(options_.adam_lr_bins *
                                                 density_->bin_w());
  else
    optimizer_ = std::make_unique<NesterovOptimizer>();

  if (options_.mode == PlacerMode::DiffTiming) {
    dtimer::DiffTimerOptions dopts;
    dopts.gamma = options_.gamma_timing;
    dopts.steiner_rebuild_period = options_.steiner_period;
    dopts.rsmt = options_.rsmt;
    dopts.wire_model = options_.wire_model;
    diff_timer_ = std::make_unique<dtimer::DiffTimer>(design, graph, dopts);
  }
  // Path records come from an exact (hard) signoff timer — never the smoothed
  // differentiable one — so introspection may need one even in modes that
  // would not otherwise build it.
  const bool want_paths = options_.introspect_sink != nullptr &&
                          options_.introspect.paths_topk > 0;
  if (options_.mode == PlacerMode::NetWeighting ||
      options_.probe_timing_every > 0 || want_paths) {
    exact_timer_ = std::make_unique<sta::Timer>(design, graph);
    if (options_.mode == PlacerMode::NetWeighting)
      net_weighting_ = std::make_unique<NetWeighting>(design, graph, options_.nw);
  }
  if (options_.activity_sink != nullptr && options_.activity_sink->is_open() &&
      options_.activity.sample_period > 0) {
    // Activity layer (DESIGN.md §11): tracker on the timer the mode actually
    // descends with — the smooth timer in DiffTiming (forward + backward
    // adjoints), the exact timer in NetWeighting (forward only).
    activity_tracker_ = std::make_unique<obs::ActivityTracker>();
    activity_tracker_->set_epsilons(options_.activity.at_epsilon,
                                    options_.activity.slew_epsilon,
                                    options_.activity.adjoint_epsilon);
    if (diff_timer_ != nullptr)
      diff_timer_->set_activity_tracker(activity_tracker_.get());
    else if (exact_timer_ != nullptr)
      exact_timer_->set_activity_tracker(activity_tracker_.get());
    slack_sketch_.set_band_width(options_.activity.band_width);
    churn_tracker_.configure(
        graph.endpoints().size(),
        static_cast<size_t>(std::max(1, options_.activity.churn_top_k)));
  }
}

int GlobalPlacer::auto_bins() const {
  size_t movable = 0;
  for (size_t c = 0; c < design_->netlist.num_cells(); ++c)
    if (!design_->netlist.cell(static_cast<CellId>(c)).fixed) ++movable;
  int m = 16;
  while (m * m < static_cast<int>(movable) && m < 256) m *= 2;
  return m;
}

void GlobalPlacer::update_wl_gamma(double overflow) {
  // RePlAce-style schedule: heavy smoothing while dense, sharp when spread.
  const double bw = density_->bin_w();
  const double k = 20.0 / 9.0;
  const double gamma = 8.0 * bw * std::pow(10.0, k * (overflow - 0.1) - 1.0);
  wl_->set_gamma(std::clamp(gamma, 0.1 * bw, 80.0 * bw));
}

namespace {

double l1(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += std::abs(a[i]) + std::abs(b[i]);
  return s;
}

}  // namespace

struct GlobalPlacer::RunState {
  explicit RunState(const robust::RecoveryOptions& robust) : rc(robust) {}

  Stopwatch total_clock;
  StopReason stop_reason = StopReason::MaxIters;
  int start_iter = 0;

  // Per-cell constants and the descent's gradient scratch.
  size_t n = 0;
  std::vector<char> movable;
  std::vector<double> width, height, area;
  double mean_area = 0.0;
  std::vector<double> g_wl_x, g_wl_y, g_den_x, g_den_y;
  std::vector<double> g_t_x, g_t_y, g_x, g_y;
  std::vector<double> precond;

  // The four driver scalars a checkpoint carries, in checkpoint order.
  double lambda = 0.0;
  double t_mix = 0.0;
  double timing_scale = -1.0;  // frozen |WL|/|timing| ratio, set at activation
  bool timing_active = false;
  std::array<double, 4> scalars() const {
    return {lambda, t_mix, timing_scale, timing_active ? 1.0 : 0.0};
  }
  void set_scalars(const std::array<double, 4>& v) {
    lambda = v[0];
    t_mix = v[1];
    timing_scale = v[2];
    timing_active = v[3] != 0.0;
  }
  // Set once the wall-clock budget (or an external degrade request) cuts
  // timing forces for the remainder of the run — cheaper iterations so the
  // run lands inside its budget with a valid placement.
  bool timing_cut = false;

  // ---- fault-tolerance layer (DESIGN.md §7) ----
  // On a healthy run every guard is a pure observer (scans + snapshots), so
  // the trajectory is bitwise-identical with guards on or off.
  robust::RecoveryController rc;
  bool guards = false;
  robust::FaultInjector* inj = nullptr;
  robust::Checkpoint ckpt;
  robust::StateBlob opt_blob;
  int ckpt_ordinal = 0;

  // ---- observers (introspection §8, activity §11, progress) ----
  obs::IntrospectionSink* sink = nullptr;   // open introspection sink or null
  obs::IntrospectionSink* asink = nullptr;  // open activity sink or null
  int last_emit_iter = -1;
  int last_activity_iter = -1;
  double combine_lambda = 0.0;  // the lambda the combine loop actually used
  size_t clip_clipped = 0, clip_nonzero = 0;  // this iteration's trust region
  std::string pending_trigger;  // robust-layer decision awaiting attribution
  double last_wns = 0.0, last_tns = 0.0;
  bool seen_timing = false;

  // Phase CPU seconds and the lanes' overlap accumulate in result.phases as
  // the loop runs; wall ms are summed from result.history after it.
  PlaceResult result;
};

PlaceResult GlobalPlacer::run() {
  DTP_TRACE_SCOPE("global_place");
  RunState s(options_.robust);

  // Per-phase histograms in the process-wide registry feed --metrics-out;
  // every placer run in a process shares them.  The per-run PhaseBreakdown
  // is summed from this run's own history instead, so concurrent runs do not
  // see each other's time and a disabled registry does not zero it.
  auto& registry = obs::MetricsRegistry::instance();
  static obs::Counter& iter_count = registry.counter("placer.iterations");
  static obs::Histogram& h_wl = registry.histogram("placer.wirelength_ms");
  static obs::Histogram& h_den = registry.histogram("placer.density_ms");
  static obs::Histogram& h_rsmt = registry.histogram("placer.rsmt_ms");
  static obs::Histogram& h_sta_f = registry.histogram("placer.sta_forward_ms");
  static obs::Histogram& h_sta_b = registry.histogram("placer.sta_backward_ms");
  static obs::Histogram& h_step = registry.histogram("placer.step_ms");

  auto& x = design_->cell_x;
  auto& y = design_->cell_y;
  const Rect& core = design_->floorplan.core;
  const size_t n = s.n = design_->netlist.num_cells();
  int iter = begin_run(s);
  if (iter < 0) {
    // All-fixed design: placement is a no-op.  Return instead of spinning
    // min_iters through kernels that have nothing to move.
    DTP_LOG_WARN("global placement: no movable cells, returning unchanged");
    s.result.hpwl = wl_->hpwl_unweighted(x, y);
    s.result.runtime_sec = s.total_clock.elapsed_sec();
    return s.result;
  }

  for (; iter < options_.max_iters; ++iter) {
    if (poll_control(s, iter)) break;
    // ---- guard: coordinates must be finite before the kernels index bins
    // with them (a NaN position is undefined behaviour in the splatter) ----
    if (s.guards && !robust::HealthMonitor::all_finite(x, y)) {
      if (!handle_fault(s, iter, "nan_position", "non-finite cell coordinates")) {
        s.stop_reason = StopReason::Aborted;
        break;
      }
      continue;
    }
    if (s.guards && s.rc.should_checkpoint(iter)) capture_checkpoint(s, iter);

    IterationLog log;
    log.iter = iter;

    // ---- density, wirelength and, once timing is on, the timer beside
    // them (DESIGN.md §10.5) ----
    std::fill(s.g_t_x.begin(), s.g_t_x.end(), 0.0);
    std::fill(s.g_t_y.begin(), s.g_t_y.end(), 0.0);
    bool suspended = s.timing_active && timing_suspended(s, iter);
    const bool timed = s.timing_active && !suspended &&
                       options_.mode == PlacerMode::DiffTiming;
    if (timed)
      timing_lanes(s, iter, log);
    else
      density_and_wirelength(s, log, CpuClock::Process);

    // ---- timing ----
    if (!s.timing_active && options_.mode != PlacerMode::WirelengthOnly &&
        iter >= options_.timing_start_iter &&
        log.overflow <= options_.timing_start_overflow) {
      s.timing_active = true;
      suspended = timing_suspended(s, iter);
      if (options_.verbose)
        DTP_LOG_INFO("timing optimization activated at iter %d (overflow %.3f)",
                     iter, log.overflow);
    }
    const bool precond_dirty = timing_forces(s, iter, log, suspended, timed);

    // ---- combine, precondition, mask, step ----
    const Stopwatch step_clock;
    if (precond_dirty) s.precond = wl_->cell_incidence_weights();
    s.combine_lambda = s.lambda;
    for (size_t c = 0; c < n; ++c) {
      if (!s.movable[c]) {
        s.g_x[c] = 0.0;
        s.g_y[c] = 0.0;
        continue;
      }
      const double p =
          std::max(1.0, s.precond[c] + s.lambda * s.area[c] / s.mean_area);
      s.g_x[c] = (s.g_wl_x[c] + s.g_den_x[c] + s.g_t_x[c]) / p;
      s.g_y[c] = (s.g_wl_y[c] + s.g_den_y[c] + s.g_t_y[c]) / p;
    }
    if (s.inj != nullptr)
      s.inj->corrupt(robust::FaultSite::TotalGrad, iter, s.g_x, s.g_y);
    // ---- guard: the combined gradient feeds the step directly ----
    if (s.guards && !robust::HealthMonitor::all_finite(s.g_x, s.g_y)) {
      // Attribute the poisoned gradient (NaNs serialize as null) so the
      // rollback decision is explainable from the artifact alone.
      emit_attribution(s, iter, "nan_grad");
      if (!handle_fault(s, iter, "nan_grad", "non-finite descent gradient")) {
        s.stop_reason = StopReason::Aborted;
        break;
      }
      continue;
    }
    optimizer_->step(x, y, s.g_x, s.g_y);

    // Project into the core.
    for (size_t c = 0; c < n; ++c) {
      if (!s.movable[c]) continue;
      x[c] = std::clamp(x[c], core.xl, core.xh - s.width[c]);
      y[c] = std::clamp(y[c], core.yl, core.yh - s.height[c]);
    }
    if (s.inj != nullptr)
      s.inj->corrupt(robust::FaultSite::Position, iter, x, y);

    s.lambda *= options_.lambda_mu;
    log.step_ms = step_clock.elapsed_ms();
    s.result.phases.step_cpu_sec += step_clock.cpu_elapsed_sec();

    iter_count.add();
    h_wl.observe(log.wl_grad_ms);
    h_den.observe(log.density_ms);
    if (log.rsmt_ms > 0.0) h_rsmt.observe(log.rsmt_ms);
    if (log.sta_fwd_ms > 0.0) h_sta_f.observe(log.sta_fwd_ms);
    if (log.sta_bwd_ms > 0.0) h_sta_b.observe(log.sta_bwd_ms);
    h_step.observe(log.step_ms);

    log.hpwl = wl_->hpwl_unweighted(x, y);
    s.result.history.push_back(log);
    if (options_.verbose && iter % 50 == 0)
      DTP_LOG_INFO("iter %4d  hpwl %.4g  overflow %.3f  lambda %.3g", iter,
                   log.hpwl, log.overflow, s.lambda);
    report_progress(s, log);
    // Off-cadence attribution forced by a robust-layer decision this
    // iteration, then the regular sampling cadence.
    if (!s.pending_trigger.empty()) {
      emit_attribution(s, iter, s.pending_trigger);
      s.pending_trigger.clear();
    }
    // Activity cadence: only iterations that actually ran the timer have a
    // fresh forward/backward pass to describe.
    if (s.asink != nullptr && log.has_timing &&
        options_.activity.sample_period > 0 &&
        iter % options_.activity.sample_period == 0)
      emit_activity(s, iter);
    if (s.sink != nullptr && options_.introspect.sample_period > 0 &&
        iter % options_.introspect.sample_period == 0)
      emit_introspection(s, iter);

    // ---- guard: divergence vs the trailing window (HPWL blow-up or a
    // sharp overflow rebound are both far outside healthy variation) ----
    if (s.guards) {
      const robust::Verdict verdict =
          s.rc.monitor().observe(log.hpwl, log.overflow);
      if (verdict != robust::Verdict::Healthy) {
        emit_attribution(s, iter, "divergence");
        if (!handle_fault(s, iter, "divergence",
                          "hpwl/overflow blow-up vs trailing window")) {
          s.stop_reason = StopReason::Aborted;
          break;
        }
        continue;
      }
    }

    if (iter >= options_.min_iters && log.overflow < options_.stop_overflow) {
      s.stop_reason = StopReason::Converged;
      break;
    }
  }
  return finish_run(s, iter);
}

int GlobalPlacer::begin_run(RunState& s) {
  netlist::Netlist& nl = design_->netlist;
  const size_t n = s.n;
  s.movable.assign(n, 0);
  s.width.assign(n, 0.0);
  s.height.assign(n, 0.0);
  s.area.assign(n, 0.0);
  size_t n_mov = 0;
  for (size_t c = 0; c < n; ++c) {
    s.movable[c] = !nl.cell(static_cast<CellId>(c)).fixed;
    const liberty::LibCell& master = nl.lib_cell_of(static_cast<CellId>(c));
    s.width[c] = master.width;
    s.height[c] = master.height;
    s.area[c] = master.width * master.height;
    if (s.movable[c]) {
      s.mean_area += s.area[c];
      ++n_mov;
    }
  }
  s.mean_area /= std::max<size_t>(1, n_mov);
  if (n_mov == 0) return -1;

  for (std::vector<double>* g : {&s.g_wl_x, &s.g_wl_y, &s.g_den_x, &s.g_den_y,
                                 &s.g_t_x, &s.g_t_y, &s.g_x, &s.g_y})
    g->assign(n, 0.0);
  s.precond = wl_->cell_incidence_weights();
  s.t_mix = options_.t1;
  s.guards = options_.robust.enabled;
  s.inj = s.guards && s.rc.injector().armed() ? &s.rc.injector() : nullptr;

  // ---- resume from a sealed checkpoint (DESIGN.md §12) ----
  // The checkpoint carries positions, the four driver scalars, and the opaque
  // optimizer blob; the descent continues from the checkpointed iteration.
  if (options_.resume_from != nullptr) {
    const robust::Checkpoint& rck = *options_.resume_from;
    if (!rck.verify())
      throw std::runtime_error(
          "resume checkpoint failed checksum verification");
    std::array<double, 4> scalars{};
    robust::StateBlob blob;
    if (rck.num_cells() != n || rck.num_scalars() != 4 ||
        !rck.restore(design_->cell_x, design_->cell_y, scalars, blob))
      throw std::runtime_error(
          "resume checkpoint does not match this design (size mismatch)");
    optimizer_->restore_state(blob);
    s.set_scalars(scalars);
    s.start_iter = std::max(0, rck.iter());
    DTP_LOG_INFO("resuming placement from checkpoint at iteration %d",
                 s.start_iter);
  }

  // ---- timing introspection (DESIGN.md §8) ----
  // A pure observer: reads gradient/position state, runs the separate exact
  // timer for path records.  Disabled (null/closed sink) and enabled runs
  // produce bitwise-identical placements (tests/test_introspect.cpp).
  if (options_.introspect_sink != nullptr && options_.introspect_sink->is_open())
    s.sink = options_.introspect_sink;
  const std::string mode_name =
      options_.mode == PlacerMode::DiffTiming      ? "diff_timing"
      : options_.mode == PlacerMode::NetWeighting ? "net_weighting"
                                                  : "wirelength_only";
  if (s.sink != nullptr) s.sink->set_meta(design_->name, mode_name);

  // ---- timing-activity telemetry (DESIGN.md §11) ----
  // Also a pure observer; the tracker was attached to the mode's timer in the
  // constructor and only ever reads the finished AT/slew/adjoint planes.
  if (options_.activity_sink != nullptr && options_.activity_sink->is_open() &&
      activity_tracker_ != nullptr)
    s.asink = options_.activity_sink;
  if (s.asink != nullptr && s.asink != s.sink)
    s.asink->set_meta(design_->name, mode_name);
  return s.start_iter;
}

// ---- control plane: poll external requests between iterations, where no
// kernel is mid-flight and state is consistent (DESIGN.md §12), then the
// wall-clock budget: degrade, then stop — never a hard kill ----
bool GlobalPlacer::poll_control(RunState& s, int iter) {
  if (options_.control != nullptr) {
    PlacerControl& ctl = *options_.control;
    ctl.current_iter.store(iter, std::memory_order_relaxed);
    if (ctl.cancel_at_iter >= 0 && iter >= ctl.cancel_at_iter)
      ctl.request_cancel();
    if (ctl.pause_at_iter >= 0 && iter >= ctl.pause_at_iter)
      ctl.request_pause();
    const uint32_t req = ctl.request.load(std::memory_order_acquire);
    if (req & PlacerControl::kCancel) {
      s.stop_reason = StopReason::Cancelled;
      return true;
    }
    if (req & PlacerControl::kPause) {
      s.stop_reason = StopReason::Paused;
      return true;
    }
    if ((req & PlacerControl::kDegradeTiming) && !s.timing_cut) {
      s.timing_cut = true;
      s.rc.record({iter, "timing_cut", "degrade", s.rc.step_scale(),
                   "external degrade request: timing forces dropped"});
    }
  }
  if (options_.time_budget_sec > 0.0) {
    const double elapsed = s.total_clock.elapsed_sec();
    if (elapsed >= options_.time_budget_sec) {
      s.stop_reason = StopReason::TimeBudget;
      s.rc.record({iter, "time_budget", "stop", s.rc.step_scale(),
                   "wall-clock budget exhausted; stopping with a valid "
                   "placement"});
      return true;
    }
    if (!s.timing_cut && options_.mode != PlacerMode::WirelengthOnly &&
        elapsed >= options_.time_budget_degrade_frac * options_.time_budget_sec) {
      s.timing_cut = true;
      s.rc.record({iter, "time_budget", "degrade", s.rc.step_scale(),
                   "timing forces dropped to meet the wall-clock budget"});
    }
  }
  return false;
}

void GlobalPlacer::capture_checkpoint(RunState& s, int iter) {
  // Never snapshot poisoned coordinates (a position fault lands at the end
  // of an iteration; the top-of-loop guard has not seen it yet).
  if (!robust::HealthMonitor::all_finite(design_->cell_x, design_->cell_y))
    return;
  static obs::Counter& ckpt_count =
      obs::MetricsRegistry::instance().counter("robust.checkpoints");
  optimizer_->save_state(s.opt_blob);
  s.ckpt.capture(iter, design_->cell_x, design_->cell_y, s.scalars(),
                 s.opt_blob);
  ckpt_count.add();
  if (s.inj != nullptr)
    s.inj->corrupt(robust::FaultSite::Checkpoint, s.ckpt_ordinal,
                   s.ckpt.mutable_x());  // sealed payload: verify() now fails
  ++s.ckpt_ordinal;
}

// Last-ditch recovery when no usable checkpoint exists: replace non-finite
// coordinates with the core center and restart the optimizer.
void GlobalPlacer::scrub_state(RunState& s) {
  const Rect& core = design_->floorplan.core;
  const double cx = 0.5 * (core.xl + core.xh);
  const double cy = 0.5 * (core.yl + core.yh);
  for (size_t c = 0; c < s.n; ++c) {
    if (!std::isfinite(design_->cell_x[c])) design_->cell_x[c] = cx;
    if (!std::isfinite(design_->cell_y[c])) design_->cell_y[c] = cy;
  }
  optimizer_->reset();
}

// Handles a detected fault: rollback + step-halving while the retry budget
// lasts, clean abort (restore best-known state) once it is exhausted.
// Returns false when the run must stop.
bool GlobalPlacer::handle_fault(RunState& s, int iter, const char* kind,
                                std::string detail) {
  const auto action = s.rc.on_fault(iter, kind, std::move(detail));
  std::array<double, 4> scalars = s.scalars();
  const bool ckpt_ok =
      s.ckpt.valid() && s.ckpt.restore(design_->cell_x, design_->cell_y,
                                       scalars, s.opt_blob);
  if (s.ckpt.valid() && !ckpt_ok) {
    s.rc.note_checkpoint_corrupt(iter);
    s.ckpt.invalidate();
  }
  if (action == robust::RecoveryController::Action::Abort) {
    if (!ckpt_ok) scrub_state(s);
    return false;
  }
  if (ckpt_ok) {
    optimizer_->restore_state(s.opt_blob);
    s.set_scalars(scalars);
  } else {
    scrub_state(s);
  }
  optimizer_->set_step_scale(s.rc.step_scale());
  s.rc.monitor().reset();
  return true;
}

bool GlobalPlacer::timing_suspended(RunState& s, int iter) {
  return (s.guards && s.rc.timing_suspended(iter)) || s.timing_cut;
}

void GlobalPlacer::density_and_wirelength(RunState& s, IterationLog& log,
                                          CpuClock cpu) {
  const auto& x = design_->cell_x;
  const auto& y = design_->cell_y;
  Stopwatch clock(cpu);
  const DensityStats ds = density_->update(x, y);
  log.density_ms = clock.elapsed_ms();
  s.result.phases.density_cpu_sec += clock.cpu_elapsed_sec();
  log.overflow = ds.overflow;
  update_wl_gamma(ds.overflow);

  clock.reset();
  std::fill(s.g_wl_x.begin(), s.g_wl_x.end(), 0.0);
  std::fill(s.g_wl_y.begin(), s.g_wl_y.end(), 0.0);
  wl_->value_and_gradient(x, y, s.g_wl_x, s.g_wl_y);
  log.wl_grad_ms = clock.elapsed_ms();
  s.result.phases.wirelength_cpu_sec += clock.cpu_elapsed_sec();

  // Density gradient, lambda-scaled inside.
  clock.reset();
  std::fill(s.g_den_x.begin(), s.g_den_x.end(), 0.0);
  std::fill(s.g_den_y.begin(), s.g_den_y.end(), 0.0);
  if (s.lambda == 0.0) {
    // Initialize lambda so density force starts as a fixed fraction of the
    // wirelength force (ePlace's initialization).
    density_->add_gradient(x, y, 1.0, s.g_den_x, s.g_den_y);
    const double wl_norm = l1(s.g_wl_x, s.g_wl_y);
    const double den_norm = l1(s.g_den_x, s.g_den_y);
    s.lambda = den_norm > 1e-30
                   ? options_.lambda_init_ratio * wl_norm / den_norm
                   : 1.0;
    for (size_t c = 0; c < s.n; ++c) {
      s.g_den_x[c] *= s.lambda;
      s.g_den_y[c] *= s.lambda;
    }
  } else {
    density_->add_gradient(x, y, s.lambda, s.g_den_x, s.g_den_y);
  }
  log.density_ms += clock.elapsed_ms();
  s.result.phases.density_cpu_sec += clock.cpu_elapsed_sec();
  log.lambda = s.lambda;
}

// The timer's pass and the density/wirelength pass share only the read-only
// positions and write disjoint buffers, log fields and phase totals, so they
// run as the two chunks of one pool job.  Nested in it, the timer's own jobs
// (tree rebuild, drag, Elmore, level sweep) run inline in their lane: one
// fork and join per iteration instead of a barrier per timing level.  On one
// thread the job runs inline, lane 0 first.
void GlobalPlacer::timing_lanes(RunState& s, int iter, IterationLog& log) {
  using Clock = std::chrono::steady_clock;
  std::array<Clock::time_point, 2> start, stop;
  ThreadPool::global().parallel_for(0, 2, 2, [&](size_t, size_t lane) {
    start[lane] = Clock::now();
    if (lane == 0)
      diff_timing_pass(s, iter, log, CpuClock::Thread);
    else
      density_and_wirelength(s, log, CpuClock::Thread);
    stop[lane] = Clock::now();
  });
  const Clock::duration both =
      std::min(stop[0], stop[1]) - std::max(start[0], start[1]);
  if (both > Clock::duration::zero())
    s.result.phases.overlap_sec += std::chrono::duration<double>(both).count();
}

bool GlobalPlacer::timing_forces(RunState& s, int iter, IterationLog& log,
                                 bool suspended, bool timed) {
  s.clip_clipped = s.clip_nonzero = 0;
  bool precond_dirty = false;
  // Graceful degradation: while timing is suspended (repeated degenerate
  // backward passes) the placer runs on pure wirelength+density forces and
  // skips the timer entirely; the controller re-enables it after cooldown.
  if (s.timing_active && !suspended &&
      options_.mode == PlacerMode::DiffTiming) {
    if (!timed) diff_timing_pass(s, iter, log, CpuClock::Process);
    diff_timing_gradient(s, iter);
  } else if (s.timing_active && !s.timing_cut &&
             options_.mode == PlacerMode::NetWeighting &&
             (iter - options_.timing_start_iter) % options_.nw_period == 0) {
    Stopwatch sta_clock;
    const auto tm = exact_timer_->evaluate(design_->cell_x, design_->cell_y);
    net_weighting_->update(*exact_timer_, *wl_);
    log.sta_fwd_ms = sta_clock.elapsed_ms();
    s.result.phases.sta_forward_cpu_sec += sta_clock.cpu_elapsed_sec();
    log.wns = tm.wns;
    log.tns = tm.tns;
    log.has_timing = true;
    precond_dirty = true;  // net weights changed
  }

  // Exact-STA probe for iteration curves (Fig. 8).
  if (options_.probe_timing_every > 0 && !log.has_timing &&
      iter % options_.probe_timing_every == 0) {
    const auto tm = exact_timer_->evaluate(design_->cell_x, design_->cell_y);
    log.wns = tm.wns;
    log.tns = tm.tns;
    log.has_timing = true;
  }
  return precond_dirty;
}

void GlobalPlacer::diff_timing_pass(RunState& s, int iter, IterationLog& log,
                                    CpuClock cpu) {
  if (options_.gamma_timing_final > 0.0) {
    // Geometric gamma annealing across the timing phase.
    const double decay =
        std::pow(options_.gamma_timing_final / options_.gamma_timing,
                 1.0 / std::max(1, options_.gamma_anneal_iters));
    const double g = std::max(options_.gamma_timing_final,
                              diff_timer_->timer().options().gamma * decay);
    diff_timer_->timer().set_gamma(g);
  }
  if (s.inj != nullptr) diff_timer_->set_fault_injection(s.inj, iter);
  Stopwatch clock(cpu);
  const auto tm = diff_timer_->forward(design_->cell_x, design_->cell_y);
  const double fwd_cpu = clock.cpu_elapsed_sec();
  log.rsmt_ms = diff_timer_->last_forward().rsmt_ms;
  log.sta_fwd_ms = diff_timer_->last_forward().sta_ms();
  // Forward CPU split between rsmt and sta proportional to their wall share
  // (the timer reports wall ms per sub-phase, not CPU).
  const double fwd_wall = log.rsmt_ms + log.sta_fwd_ms;
  const double rsmt_frac = fwd_wall > 0.0 ? log.rsmt_ms / fwd_wall : 0.0;
  s.result.phases.rsmt_cpu_sec += fwd_cpu * rsmt_frac;
  s.result.phases.sta_forward_cpu_sec += fwd_cpu * (1.0 - rsmt_frac);
  clock.reset();
  diff_timer_->backward(1.0, options_.t2_ratio, s.g_t_x, s.g_t_y);
  log.sta_bwd_ms = clock.elapsed_ms();
  s.result.phases.sta_backward_cpu_sec += clock.cpu_elapsed_sec();
  log.wns = tm.wns;
  log.tns = tm.tns;
  log.has_timing = true;
}

void GlobalPlacer::diff_timing_gradient(RunState& s, int iter) {
  const size_t n = s.n;
  if (s.inj != nullptr)
    s.inj->corrupt(robust::FaultSite::TimingGrad, iter, s.g_t_x, s.g_t_y);
  // Guard: a non-finite timing gradient is dropped (this iteration runs
  // wirelength-only) and reported to the degradation tracker — it must never
  // reach the combined gradient, where it would poison positions.
  if (s.guards && !robust::HealthMonitor::all_finite(s.g_t_x, s.g_t_y)) {
    const size_t bad = robust::HealthMonitor::count_nonfinite(s.g_t_x, s.g_t_y) +
                       diff_timer_->last_backward_nonfinite();
    std::fill(s.g_t_x.begin(), s.g_t_x.end(), 0.0);
    std::fill(s.g_t_y.begin(), s.g_t_y.end(), 0.0);
    if (s.rc.on_timing_grad(iter, bad, 0, 0))
      s.pending_trigger = "timing_degrade";
    return;
  }
  // Normalize timing-gradient magnitude against the wirelength gradient, then
  // mix with the growing weight.  In at-activation mode the scale is frozen
  // on the first timing iteration, so the timing force decays naturally as
  // violations shrink instead of being re-amplified.
  const double t_norm = l1(s.g_t_x, s.g_t_y);
  if (t_norm > 1e-30) {
    if (!options_.timing_scale_at_activation || s.timing_scale < 0.0) {
      const double wl_norm = l1(s.g_wl_x, s.g_wl_y);
      s.timing_scale = wl_norm / t_norm;
    }
    const double scale = s.t_mix * s.timing_scale;
    for (size_t c = 0; c < n; ++c) {
      s.g_t_x[c] *= scale;
      s.g_t_y[c] *= scale;
    }
    size_t clipped = 0, nonzero = 0;
    if (options_.t_clip > 0.0) {
      for (size_t c = 0; c < n; ++c) {
        const double bx =
            options_.t_clip * (std::abs(s.g_wl_x[c]) + std::abs(s.g_den_x[c]));
        const double by =
            options_.t_clip * (std::abs(s.g_wl_y[c]) + std::abs(s.g_den_y[c]));
        nonzero += (s.g_t_x[c] != 0.0) + (s.g_t_y[c] != 0.0);
        clipped += (s.g_t_x[c] < -bx || s.g_t_x[c] > bx) +
                   (s.g_t_y[c] < -by || s.g_t_y[c] > by);
        s.g_t_x[c] = std::clamp(s.g_t_x[c], -bx, bx);
        s.g_t_y[c] = std::clamp(s.g_t_y[c], -by, by);
      }
    }
    s.clip_clipped = clipped;
    s.clip_nonzero = nonzero;
    // Near-total clipping means the trust region is doing all the work — the
    // timing model has degenerated; repeated reports degrade.
    if (s.guards && s.rc.on_timing_grad(iter, 0, clipped, nonzero))
      s.pending_trigger = "timing_degrade";
  }
  s.t_mix = std::min(options_.t_max, s.t_mix * options_.t_growth);
}

// Operator heartbeat: bypasses the logger so it survives --log-level off.
void GlobalPlacer::report_progress(RunState& s, const IterationLog& log) {
  if (log.has_timing) {
    s.last_wns = log.wns;
    s.last_tns = log.tns;
    s.seen_timing = true;
  }
  if (options_.progress_every <= 0 || log.iter % options_.progress_every != 0)
    return;
  if (s.seen_timing)
    std::fprintf(stderr,
                 "[dtp] iter %4d  hpwl %.6g  overflow %.3f  wns %.4g  "
                 "tns %.4g  health %s\n",
                 log.iter, log.hpwl, log.overflow, s.last_wns, s.last_tns,
                 robust::run_health_name(s.rc.health()));
  else
    std::fprintf(stderr, "[dtp] iter %4d  hpwl %.6g  overflow %.3f  health %s\n",
                 log.iter, log.hpwl, log.overflow,
                 robust::run_health_name(s.rc.health()));
  std::fflush(stderr);
}

void GlobalPlacer::emit_attribution(RunState& s, int iter,
                                    const std::string& trigger) {
  if (s.sink == nullptr) return;
  const obs::GradArrays ga{.wl_x = s.g_wl_x, .wl_y = s.g_wl_y,
                           .den_x = s.g_den_x, .den_y = s.g_den_y,
                           .t_x = s.g_t_x, .t_y = s.g_t_y,
                           .total_x = s.g_x, .total_y = s.g_y,
                           .precond = s.precond, .area = s.area,
                           .movable = s.movable, .lambda = s.combine_lambda,
                           .mean_area = s.mean_area};
  obs::GradAttribution attrib =
      obs::compute_grad_attribution(ga, options_.introspect.top_m_cells);
  attrib.timing_clipped = s.clip_clipped;
  attrib.timing_nonzero = s.clip_nonzero;
  s.sink->write_grad_attribution(iter, attrib, design_->netlist, trigger);
}

void GlobalPlacer::emit_introspection(RunState& s, int iter) {
  if (s.sink == nullptr) return;
  s.last_emit_iter = iter;
  emit_attribution(s, iter, {});
  if (options_.introspect.paths_topk > 0 && exact_timer_ != nullptr) {
    // Hard-mode signoff pass for exact paths.
    exact_timer_->evaluate(design_->cell_x, design_->cell_y);
    s.sink->write_paths(iter, *exact_timer_, options_.introspect.paths_topk);
  }
  // The per-level record of the timer that has swept: the differentiable one
  // once timing is active, else the exact signoff timer (which may just have
  // timed the path pass).
  std::span<const sta::LevelStat> fwd, bwd;
  if (diff_timer_ != nullptr && diff_timer_->forward_calls() > 0) {
    fwd = diff_timer_->timer().level_profile();
    bwd = diff_timer_->backward_level_profile();
  } else if (exact_timer_ != nullptr && exact_timer_->trees_built()) {
    fwd = exact_timer_->level_profile();
  }
  s.sink->write_kernel_profile(iter, graph_->level_offsets(), fwd, bwd);
}

void GlobalPlacer::emit_activity(RunState& s, int iter) {
  if (s.asink == nullptr || !activity_tracker_->configured() ||
      activity_tracker_->forward_evals() == 0)
    return;
  const sta::Timer& at_timer =
      diff_timer_ != nullptr ? diff_timer_->timer() : *exact_timer_;
  slack_sketch_.observe_epoch(at_timer.endpoint_slack());
  churn_tracker_.observe(at_timer.endpoint_slack());
  s.asink->write_activity(iter, *activity_tracker_, slack_sketch_,
                          churn_tracker_);
  activity_accum_.observe(iter, activity_tracker_->fwd_active_fraction(),
                          activity_tracker_->bwd_live_fraction(),
                          churn_tracker_.jaccard(), slack_sketch_.wns(),
                          slack_sketch_.p50());
  s.last_activity_iter = iter;
}

PlaceResult GlobalPlacer::finish_run(RunState& s, int iter) {
  auto& x = design_->cell_x;
  auto& y = design_->cell_y;
  // Final introspection sample so the artifact always ends with the converged
  // state (skipped if the cadence already emitted this iteration).
  const int final_iter = std::min(iter, options_.max_iters - 1);
  if (s.sink != nullptr && final_iter >= 0 && s.last_emit_iter != final_iter)
    emit_introspection(s, final_iter);
  // Final activity sample (if the cadence missed the last timing iteration)
  // and the run-end summary with the incremental-headroom estimate.
  if (s.asink != nullptr && final_iter >= 0 && s.last_activity_iter != final_iter)
    emit_activity(s, final_iter);
  if (s.asink != nullptr && activity_accum_.samples() > 0)
    s.asink->write_activity_summary(activity_accum_, *activity_tracker_,
                                    slack_sketch_);

  // A loop that stopped at its top (pause/cancel/budget poll) never executed
  // `iter`; every other exit completed it.
  const bool stopped_at_top = s.stop_reason == StopReason::Cancelled ||
                              s.stop_reason == StopReason::Paused ||
                              s.stop_reason == StopReason::TimeBudget;
  PlaceResult& result = s.result;
  result.iterations =
      std::min(stopped_at_top ? iter : iter + 1, options_.max_iters);
  result.start_iter = s.start_iter;
  result.stop_reason = s.stop_reason;
  // Seal the final optimization state for pause/resume and --ckpt-out.  The
  // checkpointed iteration is where a resumed run continues: the *next*
  // iteration after a completed one, the interrupted iteration itself when
  // the loop stopped at its top (pause/cancel/budget see the state the
  // iteration would have started from).
  if (options_.checkpoint_out != nullptr) {
    if (robust::HealthMonitor::all_finite(x, y)) {
      const int resume_iter =
          std::min(stopped_at_top ? iter : iter + 1, options_.max_iters);
      optimizer_->save_state(s.opt_blob);
      options_.checkpoint_out->capture(resume_iter, x, y, s.scalars(),
                                       s.opt_blob);
    } else {
      options_.checkpoint_out->invalidate();
    }
  }
  result.hpwl = wl_->hpwl_unweighted(x, y);
  result.overflow = result.history.empty() ? 0.0 : result.history.back().overflow;
  result.runtime_sec = s.total_clock.elapsed_sec();
  result.cpu_runtime_sec = s.total_clock.cpu_elapsed_sec();
  double phase_ms[6] = {0, 0, 0, 0, 0, 0};
  for (const IterationLog& h : result.history) {
    phase_ms[0] += h.wl_grad_ms;
    phase_ms[1] += h.density_ms;
    phase_ms[2] += h.rsmt_ms;
    phase_ms[3] += h.sta_fwd_ms;
    phase_ms[4] += h.sta_bwd_ms;
    phase_ms[5] += h.step_ms;
  }
  PhaseBreakdown& p = result.phases;
  p.wirelength_sec = 1e-3 * phase_ms[0];
  p.density_sec = 1e-3 * phase_ms[1];
  p.rsmt_sec = 1e-3 * phase_ms[2];
  p.sta_forward_sec = 1e-3 * phase_ms[3];
  p.sta_backward_sec = 1e-3 * phase_ms[4];
  p.step_sec = 1e-3 * phase_ms[5];
  p.unattributed_sec = result.runtime_sec + p.overlap_sec -
                       (p.wirelength_sec + p.density_sec + p.rsmt_sec +
                        p.sta_forward_sec + p.sta_backward_sec + p.step_sec);
  result.sta_runtime_sec = p.rsmt_sec + p.sta_forward_sec + p.sta_backward_sec;
  result.health = s.rc.health();
  result.rollbacks = s.rc.rollbacks();
  result.timing_fallbacks = s.rc.timing_fallbacks();
  result.recoveries = s.rc.take_events();
  if (result.health != robust::RunHealth::Ok)
    DTP_LOG_INFO("global placement finished %s: %d rollback(s), %d timing "
                 "fallback(s), %zu recovery event(s)",
                 robust::run_health_name(result.health), result.rollbacks,
                 result.timing_fallbacks, result.recoveries.size());
  return std::move(result);
}

}  // namespace dtp::placer
