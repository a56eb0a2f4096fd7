#include "placer/global_placer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>

#include "common/logger.h"
#include "common/stopwatch.h"
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
  if (options_.introspect_sink != nullptr) {
    // Per-level kernel profiling for the kernel_profile records.  Timing only;
    // never observable in the placement trajectory.
    if (diff_timer_ != nullptr) diff_timer_->set_level_profiling(true);
    if (exact_timer_ != nullptr) exact_timer_->set_level_profiling(true);
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

PlaceResult GlobalPlacer::run() {
  DTP_TRACE_SCOPE("global_place");
  Stopwatch total_clock;

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

  netlist::Netlist& nl = design_->netlist;
  const size_t n = nl.num_cells();
  auto& x = design_->cell_x;
  auto& y = design_->cell_y;
  const Rect& core = design_->floorplan.core;

  std::vector<char> movable(n, 0);
  std::vector<double> width(n, 0.0), height(n, 0.0), area(n, 0.0);
  for (size_t c = 0; c < n; ++c) {
    movable[c] = !nl.cell(static_cast<CellId>(c)).fixed;
    const liberty::LibCell& master = nl.lib_cell_of(static_cast<CellId>(c));
    width[c] = master.width;
    height[c] = master.height;
    area[c] = master.width * master.height;
  }
  double mean_area = 0.0;
  size_t n_mov = 0;
  for (size_t c = 0; c < n; ++c)
    if (movable[c]) {
      mean_area += area[c];
      ++n_mov;
    }
  mean_area /= std::max<size_t>(1, n_mov);

  PlaceResult result;
  if (n_mov == 0) {
    // All-fixed design: placement is a no-op.  Return instead of spinning
    // min_iters through kernels that have nothing to move.
    DTP_LOG_WARN("global placement: no movable cells, returning unchanged");
    result.hpwl = wl_->hpwl_unweighted(x, y);
    result.runtime_sec = total_clock.elapsed_sec();
    return result;
  }

  std::vector<double> g_wl_x(n), g_wl_y(n), g_den_x(n), g_den_y(n);
  std::vector<double> g_t_x(n), g_t_y(n), g_x(n), g_y(n);
  std::vector<double> precond = wl_->cell_incidence_weights();

  double lambda = 0.0;
  bool timing_active = false;
  double t_mix = options_.t1;
  double timing_scale = -1.0;  // frozen |WL|/|timing| ratio, set at activation
  double sta_time = 0.0;

  auto l1 = [&](const std::vector<double>& a, const std::vector<double>& b) {
    double s = 0.0;
    for (size_t i = 0; i < a.size(); ++i) s += std::abs(a[i]) + std::abs(b[i]);
    return s;
  };

  // ---- fault-tolerance layer (DESIGN.md §7) ----
  // On a healthy run every guard is a pure observer (scans + snapshots), so
  // the trajectory is bitwise-identical with guards on or off.
  robust::RecoveryController rc(options_.robust);
  const bool guards = options_.robust.enabled;
  robust::FaultInjector* inj =
      guards && rc.injector().armed() ? &rc.injector() : nullptr;
  static obs::Counter& ckpt_count = registry.counter("robust.checkpoints");
  robust::Checkpoint ckpt;
  robust::StateBlob opt_blob;
  int ckpt_ordinal = 0;

  // ---- resume from a sealed checkpoint (DESIGN.md §12) ----
  // The checkpoint carries positions, the four driver scalars, and the opaque
  // optimizer blob; the descent continues from the checkpointed iteration.
  int start_iter = 0;
  if (options_.resume_from != nullptr) {
    const robust::Checkpoint& rck = *options_.resume_from;
    if (!rck.verify())
      throw std::runtime_error(
          "resume checkpoint failed checksum verification");
    double scalars[4] = {0.0, 0.0, 0.0, 0.0};
    robust::StateBlob blob;
    if (rck.num_cells() != n || rck.num_scalars() != 4 ||
        !rck.restore(x, y, std::span<double>(scalars, 4), blob))
      throw std::runtime_error(
          "resume checkpoint does not match this design (size mismatch)");
    optimizer_->restore_state(blob);
    lambda = scalars[0];
    t_mix = scalars[1];
    timing_scale = scalars[2];
    timing_active = scalars[3] != 0.0;
    start_iter = std::max(0, rck.iter());
    DTP_LOG_INFO("resuming placement from checkpoint at iteration %d",
                 start_iter);
  }

  auto capture_checkpoint = [&](int at_iter) {
    // Never snapshot poisoned coordinates (a position fault lands at the end
    // of an iteration; the top-of-loop guard has not seen it yet).
    if (!robust::HealthMonitor::all_finite(x, y)) return;
    optimizer_->save_state(opt_blob);
    const double scalars[4] = {lambda, t_mix, timing_scale,
                               timing_active ? 1.0 : 0.0};
    ckpt.capture(at_iter, x, y, scalars, opt_blob);
    ckpt_count.add();
    if (inj != nullptr)
      inj->corrupt(robust::FaultSite::Checkpoint, ckpt_ordinal,
                   ckpt.mutable_x());  // sealed payload: verify() now fails
    ++ckpt_ordinal;
  };

  // Last-ditch recovery when no usable checkpoint exists: replace non-finite
  // coordinates with the core center and restart the optimizer.
  auto scrub_state = [&] {
    const double cx = 0.5 * (core.xl + core.xh);
    const double cy = 0.5 * (core.yl + core.yh);
    for (size_t c = 0; c < n; ++c) {
      if (!std::isfinite(x[c])) x[c] = cx;
      if (!std::isfinite(y[c])) y[c] = cy;
    }
    optimizer_->reset();
  };

  // Handles a detected fault: rollback + step-halving while the retry budget
  // lasts, clean abort (restore best-known state) once it is exhausted.
  // Returns false when the run must stop.
  auto handle_fault = [&](int at_iter, const char* kind,
                          std::string detail) -> bool {
    const auto action = rc.on_fault(at_iter, kind, std::move(detail));
    double scalars[4] = {lambda, t_mix, timing_scale,
                         timing_active ? 1.0 : 0.0};
    const bool ckpt_ok =
        ckpt.valid() && ckpt.restore(x, y, std::span<double>(scalars, 4),
                                     opt_blob);
    if (ckpt.valid() && !ckpt_ok) {
      rc.note_checkpoint_corrupt(at_iter);
      ckpt.invalidate();
    }
    if (action == robust::RecoveryController::Action::Abort) {
      if (!ckpt_ok) scrub_state();
      return false;
    }
    if (ckpt_ok) {
      optimizer_->restore_state(opt_blob);
      lambda = scalars[0];
      t_mix = scalars[1];
      timing_scale = scalars[2];
      timing_active = scalars[3] != 0.0;
    } else {
      scrub_state();
    }
    optimizer_->set_step_scale(rc.step_scale());
    rc.monitor().reset();
    return true;
  };

  // ---- timing introspection (DESIGN.md §8) ----
  // A pure observer: reads gradient/position state, runs the separate exact
  // timer for path records.  Disabled (null/closed sink) and enabled runs
  // produce bitwise-identical placements (tests/test_introspect.cpp).
  obs::IntrospectionSink* sink = options_.introspect_sink != nullptr &&
                                         options_.introspect_sink->is_open()
                                     ? options_.introspect_sink
                                     : nullptr;
  const std::string mode_name =
      options_.mode == PlacerMode::DiffTiming      ? "diff_timing"
      : options_.mode == PlacerMode::NetWeighting ? "net_weighting"
                                                  : "wirelength_only";
  if (sink != nullptr) sink->set_meta(design_->name, mode_name);

  // ---- timing-activity telemetry (DESIGN.md §11) ----
  // Also a pure observer; the tracker was attached to the mode's timer in the
  // constructor and only ever reads the finished AT/slew/adjoint planes.
  obs::IntrospectionSink* asink =
      options_.activity_sink != nullptr && options_.activity_sink->is_open() &&
              activity_tracker_ != nullptr
          ? options_.activity_sink
          : nullptr;
  if (asink != nullptr && asink != sink) asink->set_meta(design_->name, mode_name);
  int last_activity_iter = -1;
  auto emit_activity = [&](int at_iter) {
    if (asink == nullptr || !activity_tracker_->configured() ||
        activity_tracker_->forward_evals() == 0)
      return;
    const sta::Timer& at_timer =
        diff_timer_ != nullptr ? diff_timer_->timer() : *exact_timer_;
    slack_sketch_.observe_epoch(at_timer.endpoint_slack());
    churn_tracker_.observe(at_timer.endpoint_slack());
    asink->write_activity(at_iter, *activity_tracker_, slack_sketch_,
                          churn_tracker_);
    activity_accum_.observe(at_iter, activity_tracker_->fwd_active_fraction(),
                            activity_tracker_->bwd_live_fraction(),
                            churn_tracker_.jaccard(), slack_sketch_.wns(),
                            slack_sketch_.p50());
    last_activity_iter = at_iter;
  };
  double combine_lambda = 0.0;  // the lambda the combine loop actually used
  size_t clip_clipped = 0, clip_nonzero = 0;  // this iteration's trust region
  std::string pending_trigger;  // robust-layer decision awaiting attribution
  int last_emit_iter = -1;
  double last_wns = 0.0, last_tns = 0.0;
  bool seen_timing = false;

  auto emit_attribution = [&](int at_iter, const std::string& trigger) {
    if (sink == nullptr) return;
    obs::GradArrays ga;
    ga.wl_x = g_wl_x;
    ga.wl_y = g_wl_y;
    ga.den_x = g_den_x;
    ga.den_y = g_den_y;
    ga.t_x = g_t_x;
    ga.t_y = g_t_y;
    ga.total_x = g_x;
    ga.total_y = g_y;
    ga.precond = precond;
    ga.area = area;
    ga.movable = movable;
    ga.lambda = combine_lambda;
    ga.mean_area = mean_area;
    obs::GradAttribution attrib =
        obs::compute_grad_attribution(ga, options_.introspect.top_m_cells);
    attrib.timing_clipped = clip_clipped;
    attrib.timing_nonzero = clip_nonzero;
    sink->write_grad_attribution(at_iter, attrib, nl, trigger);
  };
  auto emit_introspection = [&](int at_iter) {
    if (sink == nullptr) return;
    last_emit_iter = at_iter;
    emit_attribution(at_iter, {});
    if (options_.introspect.paths_topk > 0 && exact_timer_ != nullptr) {
      exact_timer_->evaluate(x, y);  // hard-mode signoff pass for exact paths
      sink->write_paths(at_iter, *exact_timer_, options_.introspect.paths_topk);
    }
    std::vector<size_t> level_sizes(static_cast<size_t>(graph_->num_levels()));
    for (int l = 0; l < graph_->num_levels(); ++l)
      level_sizes[static_cast<size_t>(l)] = graph_->level(l).size();
    std::span<const sta::LevelStat> fwd, bwd;
    if (diff_timer_ != nullptr) {
      fwd = diff_timer_->timer().level_profile();
      bwd = diff_timer_->backward_level_profile();
    }
    // Before timing activates the differentiable timer has not run; the exact
    // signoff timer (which just timed the path pass) profiles instead.
    if (fwd.empty() && exact_timer_ != nullptr)
      fwd = exact_timer_->level_profile();
    sink->write_kernel_profile(at_iter, level_sizes, fwd, bwd);
  };

  int iter = start_iter;
  StopReason stop_reason = StopReason::MaxIters;
  // Set once the wall-clock budget (or an external degrade request) cuts
  // timing forces for the remainder of the run — cheaper iterations so the
  // run lands inside its budget with a valid placement.
  bool timing_cut = false;
  Stopwatch phase_clock;
  // Process-CPU time per phase (same order as PhaseBreakdown: wl, density,
  // rsmt, sta_fwd, sta_bwd, step).  Wall ms are summed from the history
  // after the loop; CPU seconds accumulate here directly.
  double phase_cpu[6] = {0, 0, 0, 0, 0, 0};
  for (; iter < options_.max_iters; ++iter) {
    // ---- control plane: poll external requests between iterations, where
    // no kernel is mid-flight and state is consistent (DESIGN.md §12) ----
    if (options_.control != nullptr) {
      PlacerControl& ctl = *options_.control;
      ctl.current_iter.store(iter, std::memory_order_relaxed);
      if (ctl.cancel_at_iter >= 0 && iter >= ctl.cancel_at_iter)
        ctl.request_cancel();
      if (ctl.pause_at_iter >= 0 && iter >= ctl.pause_at_iter)
        ctl.request_pause();
      const uint32_t req = ctl.request.load(std::memory_order_acquire);
      if (req & PlacerControl::kCancel) {
        stop_reason = StopReason::Cancelled;
        break;
      }
      if (req & PlacerControl::kPause) {
        stop_reason = StopReason::Paused;
        break;
      }
      if ((req & PlacerControl::kDegradeTiming) && !timing_cut) {
        timing_cut = true;
        rc.record({iter, "timing_cut", "degrade", rc.step_scale(),
                   "external degrade request: timing forces dropped"});
      }
    }
    // ---- wall-clock budget: degrade, then stop — never a hard kill ----
    if (options_.time_budget_sec > 0.0) {
      const double elapsed = total_clock.elapsed_sec();
      if (elapsed >= options_.time_budget_sec) {
        stop_reason = StopReason::TimeBudget;
        rc.record({iter, "time_budget", "stop", rc.step_scale(),
                   "wall-clock budget exhausted; stopping with a valid "
                   "placement"});
        break;
      }
      if (!timing_cut && options_.mode != PlacerMode::WirelengthOnly &&
          elapsed >=
              options_.time_budget_degrade_frac * options_.time_budget_sec) {
        timing_cut = true;
        rc.record({iter, "time_budget", "degrade", rc.step_scale(),
                   "timing forces dropped to meet the wall-clock budget"});
      }
    }
    // ---- guard: coordinates must be finite before the kernels index bins
    // with them (a NaN position is undefined behaviour in the splatter) ----
    if (guards && !robust::HealthMonitor::all_finite(x, y)) {
      if (!handle_fault(iter, "nan_position", "non-finite cell coordinates")) {
        stop_reason = StopReason::Aborted;
        break;
      }
      continue;
    }
    if (guards && rc.should_checkpoint(iter)) capture_checkpoint(iter);

    IterationLog log;
    log.iter = iter;

    // ---- density field + overflow ----
    phase_clock.reset();
    const DensityStats ds = density_->update(x, y);
    log.density_ms = phase_clock.elapsed_ms();
    phase_cpu[1] += phase_clock.cpu_elapsed_sec();
    update_wl_gamma(ds.overflow);

    // ---- wirelength gradient ----
    phase_clock.reset();
    std::fill(g_wl_x.begin(), g_wl_x.end(), 0.0);
    std::fill(g_wl_y.begin(), g_wl_y.end(), 0.0);
    wl_->value_and_gradient(x, y, g_wl_x, g_wl_y);
    log.wl_grad_ms = phase_clock.elapsed_ms();
    phase_cpu[0] += phase_clock.cpu_elapsed_sec();

    // ---- density gradient (lambda-scaled inside) ----
    phase_clock.reset();
    std::fill(g_den_x.begin(), g_den_x.end(), 0.0);
    std::fill(g_den_y.begin(), g_den_y.end(), 0.0);
    if (lambda == 0.0) {
      // Initialize lambda so density force starts as a fixed fraction of the
      // wirelength force (ePlace's initialization).
      density_->add_gradient(x, y, 1.0, g_den_x, g_den_y);
      const double wl_norm = l1(g_wl_x, g_wl_y);
      const double den_norm = l1(g_den_x, g_den_y);
      lambda = den_norm > 1e-30
                   ? options_.lambda_init_ratio * wl_norm / den_norm
                   : 1.0;
      for (size_t c = 0; c < n; ++c) {
        g_den_x[c] *= lambda;
        g_den_y[c] *= lambda;
      }
    } else {
      density_->add_gradient(x, y, lambda, g_den_x, g_den_y);
    }
    log.density_ms += phase_clock.elapsed_ms();
    phase_cpu[1] += phase_clock.cpu_elapsed_sec();

    // ---- timing ----
    log.overflow = ds.overflow;
    log.lambda = lambda;
    if (!timing_active && options_.mode != PlacerMode::WirelengthOnly &&
        iter >= options_.timing_start_iter &&
        ds.overflow <= options_.timing_start_overflow) {
      timing_active = true;
      if (options_.verbose)
        DTP_LOG_INFO("timing optimization activated at iter %d (overflow %.3f)",
                     iter, ds.overflow);
    }

    std::fill(g_t_x.begin(), g_t_x.end(), 0.0);
    std::fill(g_t_y.begin(), g_t_y.end(), 0.0);
    clip_clipped = clip_nonzero = 0;
    bool precond_dirty = false;
    // Graceful degradation: while timing is suspended (repeated degenerate
    // backward passes) the placer runs on pure wirelength+density forces and
    // skips the timer entirely; the controller re-enables it after cooldown.
    const bool timing_suspended =
        (guards && timing_active && rc.timing_suspended(iter)) || timing_cut;
    if (timing_active && !timing_suspended &&
        options_.mode == PlacerMode::DiffTiming) {
      Stopwatch sta_clock;
      if (options_.gamma_timing_final > 0.0) {
        // Geometric gamma annealing across the timing phase.
        const double decay =
            std::pow(options_.gamma_timing_final / options_.gamma_timing,
                     1.0 / std::max(1, options_.gamma_anneal_iters));
        const double g = std::max(options_.gamma_timing_final,
                                  diff_timer_->timer().options().gamma * decay);
        diff_timer_->timer().set_gamma(g);
      }
      if (inj != nullptr) diff_timer_->set_fault_injection(inj, iter);
      phase_clock.reset();
      const auto tm = diff_timer_->forward(x, y);
      const double fwd_cpu = phase_clock.cpu_elapsed_sec();
      log.rsmt_ms = diff_timer_->last_forward().rsmt_ms;
      log.sta_fwd_ms = diff_timer_->last_forward().sta_ms();
      // Forward CPU split between rsmt and sta proportional to their wall
      // share (the timer reports wall ms per sub-phase, not CPU).
      const double fwd_wall = log.rsmt_ms + log.sta_fwd_ms;
      const double rsmt_frac = fwd_wall > 0.0 ? log.rsmt_ms / fwd_wall : 0.0;
      phase_cpu[2] += fwd_cpu * rsmt_frac;
      phase_cpu[3] += fwd_cpu * (1.0 - rsmt_frac);
      phase_clock.reset();
      diff_timer_->backward(1.0, options_.t2_ratio, g_t_x, g_t_y);
      log.sta_bwd_ms = phase_clock.elapsed_ms();
      phase_cpu[4] += phase_clock.cpu_elapsed_sec();
      sta_time += sta_clock.elapsed_sec();
      log.wns = tm.wns;
      log.tns = tm.tns;
      log.has_timing = true;
      if (inj != nullptr)
        inj->corrupt(robust::FaultSite::TimingGrad, iter, g_t_x, g_t_y);
      // Guard: a non-finite timing gradient is dropped (this iteration runs
      // wirelength-only) and reported to the degradation tracker — it must
      // never reach the combined gradient, where it would poison positions.
      bool t_grad_ok = true;
      if (guards && !robust::HealthMonitor::all_finite(g_t_x, g_t_y)) {
        const size_t bad =
            robust::HealthMonitor::count_nonfinite(g_t_x, g_t_y) +
            diff_timer_->last_backward_nonfinite();
        std::fill(g_t_x.begin(), g_t_x.end(), 0.0);
        std::fill(g_t_y.begin(), g_t_y.end(), 0.0);
        if (rc.on_timing_grad(iter, bad, 0, 0))
          pending_trigger = "timing_degrade";
        t_grad_ok = false;
      }
      // Normalize timing-gradient magnitude against the wirelength gradient,
      // then mix with the growing weight.  In at-activation mode the scale is
      // frozen on the first timing iteration, so the timing force decays
      // naturally as violations shrink instead of being re-amplified.
      if (t_grad_ok) {
        const double t_norm = l1(g_t_x, g_t_y);
        if (t_norm > 1e-30) {
          if (!options_.timing_scale_at_activation || timing_scale < 0.0) {
            const double wl_norm = l1(g_wl_x, g_wl_y);
            timing_scale = wl_norm / t_norm;
          }
          const double scale = t_mix * timing_scale;
          for (size_t c = 0; c < n; ++c) {
            g_t_x[c] *= scale;
            g_t_y[c] *= scale;
          }
          size_t clipped = 0, nonzero = 0;
          if (options_.t_clip > 0.0) {
            for (size_t c = 0; c < n; ++c) {
              const double bx =
                  options_.t_clip * (std::abs(g_wl_x[c]) + std::abs(g_den_x[c]));
              const double by =
                  options_.t_clip * (std::abs(g_wl_y[c]) + std::abs(g_den_y[c]));
              nonzero += (g_t_x[c] != 0.0) + (g_t_y[c] != 0.0);
              clipped += (g_t_x[c] < -bx || g_t_x[c] > bx) +
                         (g_t_y[c] < -by || g_t_y[c] > by);
              g_t_x[c] = std::clamp(g_t_x[c], -bx, bx);
              g_t_y[c] = std::clamp(g_t_y[c], -by, by);
            }
          }
          clip_clipped = clipped;
          clip_nonzero = nonzero;
          // Near-total clipping means the trust region is doing all the work
          // — the timing model has degenerated; repeated reports degrade.
          if (guards && rc.on_timing_grad(iter, 0, clipped, nonzero))
            pending_trigger = "timing_degrade";
        }
        t_mix = std::min(options_.t_max, t_mix * options_.t_growth);
      }
    } else if (timing_active && !timing_cut &&
               options_.mode == PlacerMode::NetWeighting &&
               (iter - options_.timing_start_iter) % options_.nw_period == 0) {
      Stopwatch sta_clock;
      const auto tm = exact_timer_->evaluate(x, y);
      net_weighting_->update(*exact_timer_, *wl_);
      log.sta_fwd_ms = sta_clock.elapsed_ms();
      phase_cpu[3] += sta_clock.cpu_elapsed_sec();
      sta_time += sta_clock.elapsed_sec();
      log.wns = tm.wns;
      log.tns = tm.tns;
      log.has_timing = true;
      precond_dirty = true;  // net weights changed
    }

    // Exact-STA probe for iteration curves (Fig. 8).
    if (options_.probe_timing_every > 0 && !log.has_timing &&
        iter % options_.probe_timing_every == 0) {
      const auto tm = exact_timer_->evaluate(x, y);
      log.wns = tm.wns;
      log.tns = tm.tns;
      log.has_timing = true;
    }

    // ---- combine, precondition, mask, step ----
    phase_clock.reset();
    if (precond_dirty) precond = wl_->cell_incidence_weights();
    combine_lambda = lambda;
    for (size_t c = 0; c < n; ++c) {
      if (!movable[c]) {
        g_x[c] = 0.0;
        g_y[c] = 0.0;
        continue;
      }
      const double p =
          std::max(1.0, precond[c] + lambda * area[c] / mean_area);
      g_x[c] = (g_wl_x[c] + g_den_x[c] + g_t_x[c]) / p;
      g_y[c] = (g_wl_y[c] + g_den_y[c] + g_t_y[c]) / p;
    }
    if (inj != nullptr)
      inj->corrupt(robust::FaultSite::TotalGrad, iter, g_x, g_y);
    // ---- guard: the combined gradient feeds the step directly ----
    if (guards && !robust::HealthMonitor::all_finite(g_x, g_y)) {
      // Attribute the poisoned gradient (NaNs serialize as null) so the
      // rollback decision is explainable from the artifact alone.
      emit_attribution(iter, "nan_grad");
      if (!handle_fault(iter, "nan_grad", "non-finite descent gradient")) {
        stop_reason = StopReason::Aborted;
        break;
      }
      continue;
    }
    optimizer_->step(x, y, g_x, g_y);

    // Project into the core.
    for (size_t c = 0; c < n; ++c) {
      if (!movable[c]) continue;
      x[c] = std::clamp(x[c], core.xl, core.xh - width[c]);
      y[c] = std::clamp(y[c], core.yl, core.yh - height[c]);
    }
    if (inj != nullptr)
      inj->corrupt(robust::FaultSite::Position, iter, x, y);

    lambda *= options_.lambda_mu;
    log.step_ms = phase_clock.elapsed_ms();
    phase_cpu[5] += phase_clock.cpu_elapsed_sec();

    iter_count.add();
    h_wl.observe(log.wl_grad_ms);
    h_den.observe(log.density_ms);
    if (log.rsmt_ms > 0.0) h_rsmt.observe(log.rsmt_ms);
    if (log.sta_fwd_ms > 0.0) h_sta_f.observe(log.sta_fwd_ms);
    if (log.sta_bwd_ms > 0.0) h_sta_b.observe(log.sta_bwd_ms);
    h_step.observe(log.step_ms);

    log.hpwl = wl_->hpwl_unweighted(x, y);
    result.history.push_back(log);
    if (options_.verbose && iter % 50 == 0)
      DTP_LOG_INFO("iter %4d  hpwl %.4g  overflow %.3f  lambda %.3g", iter,
                   log.hpwl, ds.overflow, lambda);
    if (log.has_timing) {
      last_wns = log.wns;
      last_tns = log.tns;
      seen_timing = true;
    }
    // Operator heartbeat: bypasses the logger so it survives --log-level off.
    if (options_.progress_every > 0 && iter % options_.progress_every == 0) {
      if (seen_timing)
        std::fprintf(stderr,
                     "[dtp] iter %4d  hpwl %.6g  overflow %.3f  wns %.4g  "
                     "tns %.4g  health %s\n",
                     iter, log.hpwl, ds.overflow, last_wns, last_tns,
                     robust::run_health_name(rc.health()));
      else
        std::fprintf(stderr,
                     "[dtp] iter %4d  hpwl %.6g  overflow %.3f  health %s\n",
                     iter, log.hpwl, ds.overflow,
                     robust::run_health_name(rc.health()));
      std::fflush(stderr);
    }
    // Off-cadence attribution forced by a robust-layer decision this
    // iteration, then the regular sampling cadence.
    if (!pending_trigger.empty()) {
      emit_attribution(iter, pending_trigger);
      pending_trigger.clear();
    }
    // Activity cadence: only iterations that actually ran the timer have a
    // fresh forward/backward pass to describe.
    if (asink != nullptr && log.has_timing &&
        options_.activity.sample_period > 0 &&
        iter % options_.activity.sample_period == 0)
      emit_activity(iter);
    if (sink != nullptr && options_.introspect.sample_period > 0 &&
        iter % options_.introspect.sample_period == 0)
      emit_introspection(iter);

    // ---- guard: divergence vs the trailing window (HPWL blow-up or a
    // sharp overflow rebound are both far outside healthy variation) ----
    if (guards) {
      const robust::Verdict verdict = rc.monitor().observe(log.hpwl, ds.overflow);
      if (verdict != robust::Verdict::Healthy) {
        emit_attribution(iter, "divergence");
        if (!handle_fault(iter, "divergence",
                          "hpwl/overflow blow-up vs trailing window")) {
          stop_reason = StopReason::Aborted;
          break;
        }
        continue;
      }
    }

    if (iter >= options_.min_iters && ds.overflow < options_.stop_overflow) {
      stop_reason = StopReason::Converged;
      break;
    }
  }

  // Final introspection sample so the artifact always ends with the converged
  // state (skipped if the cadence already emitted this iteration).
  const int final_iter = std::min(iter, options_.max_iters - 1);
  if (sink != nullptr && final_iter >= 0 && last_emit_iter != final_iter)
    emit_introspection(final_iter);
  // Final activity sample (if the cadence missed the last timing iteration)
  // and the run-end summary with the incremental-headroom estimate.
  if (asink != nullptr && final_iter >= 0 && last_activity_iter != final_iter)
    emit_activity(final_iter);
  if (asink != nullptr && activity_accum_.samples() > 0)
    asink->write_activity_summary(activity_accum_, *activity_tracker_,
                                  slack_sketch_);

  // A loop that stopped at its top (pause/cancel/budget poll) never executed
  // `iter`; every other exit completed it.
  const bool stopped_at_top = stop_reason == StopReason::Cancelled ||
                              stop_reason == StopReason::Paused ||
                              stop_reason == StopReason::TimeBudget;
  result.iterations =
      std::min(stopped_at_top ? iter : iter + 1, options_.max_iters);
  result.start_iter = start_iter;
  result.stop_reason = stop_reason;
  // Seal the final optimization state for pause/resume and --ckpt-out.  The
  // checkpointed iteration is where a resumed run continues: the *next*
  // iteration after a completed one, the interrupted iteration itself when
  // the loop stopped at its top (pause/cancel/budget see the state the
  // iteration would have started from).
  if (options_.checkpoint_out != nullptr) {
    if (robust::HealthMonitor::all_finite(x, y)) {
      const int resume_iter =
          std::min(stopped_at_top ? iter : iter + 1, options_.max_iters);
      optimizer_->save_state(opt_blob);
      const double scalars[4] = {lambda, t_mix, timing_scale,
                                 timing_active ? 1.0 : 0.0};
      options_.checkpoint_out->capture(resume_iter, x, y, scalars, opt_blob);
    } else {
      options_.checkpoint_out->invalidate();
    }
  }
  result.hpwl = wl_->hpwl_unweighted(x, y);
  result.overflow = result.history.empty() ? 0.0 : result.history.back().overflow;
  result.runtime_sec = total_clock.elapsed_sec();
  result.cpu_runtime_sec = total_clock.cpu_elapsed_sec();
  result.sta_runtime_sec = sta_time;
  double phase_ms[6] = {0, 0, 0, 0, 0, 0};
  for (const IterationLog& h : result.history) {
    phase_ms[0] += h.wl_grad_ms;
    phase_ms[1] += h.density_ms;
    phase_ms[2] += h.rsmt_ms;
    phase_ms[3] += h.sta_fwd_ms;
    phase_ms[4] += h.sta_bwd_ms;
    phase_ms[5] += h.step_ms;
  }
  result.phases.wirelength_sec = 1e-3 * phase_ms[0];
  result.phases.density_sec = 1e-3 * phase_ms[1];
  result.phases.rsmt_sec = 1e-3 * phase_ms[2];
  result.phases.sta_forward_sec = 1e-3 * phase_ms[3];
  result.phases.sta_backward_sec = 1e-3 * phase_ms[4];
  result.phases.step_sec = 1e-3 * phase_ms[5];
  result.phases.wirelength_cpu_sec = phase_cpu[0];
  result.phases.density_cpu_sec = phase_cpu[1];
  result.phases.rsmt_cpu_sec = phase_cpu[2];
  result.phases.sta_forward_cpu_sec = phase_cpu[3];
  result.phases.sta_backward_cpu_sec = phase_cpu[4];
  result.phases.step_cpu_sec = phase_cpu[5];
  result.health = rc.health();
  result.rollbacks = rc.rollbacks();
  result.timing_fallbacks = rc.timing_fallbacks();
  result.recoveries = rc.take_events();
  if (result.health != robust::RunHealth::Ok)
    DTP_LOG_INFO("global placement finished %s: %d rollback(s), %d timing "
                 "fallback(s), %zu recovery event(s)",
                 robust::run_health_name(result.health), result.rollbacks,
                 result.timing_fallbacks, result.recoveries.size());
  return result;
}

}  // namespace dtp::placer
