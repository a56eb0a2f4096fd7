// Nonlinear global placement driver (the paper's Fig. 7 flow).
//
// Minimizes  sum_e w_e WL(e) + lambda * D(x, y) [+ t1*(-TNS_g) + t2*(-WNS_g)]
// by preconditioned first-order descent (Nesterov-BB by default), with the
// ePlace ingredients: WA wirelength whose smoothing gamma tracks overflow,
// electrostatic density whose weight lambda grows geometrically, and — per
// placement mode — one of three timing treatments:
//
//   WirelengthOnly : no timing terms (the DREAMPlace [16] baseline),
//   NetWeighting   : periodic exact STA + momentum net re-weighting
//                    (the DREAMPlace 4.0 [24] baseline),
//   DiffTiming     : the paper's contribution — direct gradients of the
//                    smoothed TNS/WNS from the differentiable timer, activated
//                    once cells have spread (iteration ~100 / overflow gate),
//                    with weights growing a few percent per iteration up to a
//                    cap (paper §4 grows t1/t2 by 1%; the rates here are
//                    re-calibrated for the mini designs).
//
// Timing-gradient preconditioning (which the paper defers to future work):
// the timing gradient is magnitude-normalized against the wirelength gradient
// — by default with the scale frozen at activation so timing pressure decays
// as violations shrink — and clipped per cell to a multiple of the local
// WL+density gradient (a trust region that keeps critical cells from being
// flung across the die).  Defaults below are calibrated on the miniblue suite.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "dtimer/diff_timer.h"
#include "obs/activity/activity_record.h"
#include "obs/introspect/introspect.h"
#include "placer/density.h"
#include "placer/net_weighting.h"
#include "placer/optimizer.h"
#include "placer/wirelength.h"
#include "robust/recovery.h"
#include "sta/timer.h"

namespace dtp::placer {

enum class PlacerMode : uint8_t { WirelengthOnly, NetWeighting, DiffTiming };

// Why the descent loop stopped (DESIGN.md §12).  Everything except Aborted
// leaves a valid (finite, in-core) placement in the design.
enum class StopReason : uint8_t {
  Converged,   // overflow target reached
  MaxIters,    // iteration budget exhausted
  Cancelled,   // PlacerControl cancel request honoured
  Paused,      // PlacerControl pause request honoured (checkpoint captured)
  TimeBudget,  // wall-clock budget expired (graceful early stop)
  Aborted,     // recovery budget exhausted (health == Failed)
};

const char* stop_reason_name(StopReason r);

// Cooperative control plane for a running placement (DESIGN.md §12): another
// thread (a daemon scheduler, a signal handler) sets requests; the run loop
// polls them once per iteration, so every honour point sits between kernels
// where state is consistent.  The *_at_iter hooks fire the matching request
// from inside the loop at a fixed iteration — the deterministic counterpart
// used by the fault-injection soak tests.
struct PlacerControl {
  static constexpr uint32_t kCancel = 1u;
  static constexpr uint32_t kPause = 2u;
  static constexpr uint32_t kDegradeTiming = 4u;

  std::atomic<uint32_t> request{0};
  // Progress mirror: last iteration the loop started (read-only observability
  // for watchdogs; -1 until the loop runs).
  std::atomic<int> current_iter{-1};
  // Deterministic trigger points; -1 disables.  Set before run() starts.
  int cancel_at_iter = -1;
  int pause_at_iter = -1;

  void request_cancel() { request.fetch_or(kCancel, std::memory_order_release); }
  void request_pause() { request.fetch_or(kPause, std::memory_order_release); }
  void request_degrade_timing() {
    request.fetch_or(kDegradeTiming, std::memory_order_release);
  }
  void clear() { request.store(0, std::memory_order_release); }
};

struct GlobalPlacerOptions {
  PlacerMode mode = PlacerMode::WirelengthOnly;
  int max_iters = 1200;
  int min_iters = 120;
  double stop_overflow = 0.08;   // density-overflow stop criterion (Table 3)
  int bins = 0;                  // bins per dim; 0 = auto from cell count
  double target_density = 1.0;   // bin capacity fraction for overflow
  double lambda_mu = 1.03;       // density weight growth per iteration
  double lambda_init_ratio = 0.10;  // initial |density|/|wirelength| force ratio
  size_t ignore_net_degree = 128;

  // Timing activation (both timing modes).
  int timing_start_iter = 100;
  double timing_start_overflow = 0.50;

  // DiffTiming mode (paper §4 hyperparameters).
  double t1 = 0.10;              // TNS weight
  double t2_ratio = 0.05;        // WNS weight relative to TNS weight
  double t_growth = 1.03;        // +3% per iteration (calibrated)
  double t_max = 3.0;            // cap on the effective timing mix
  double gamma_timing = 0.05;    // LSE smoothing (ns)
  // Gamma annealing (paper §5 future work, "dynamic updating strategies"):
  // when > 0, gamma decays geometrically from gamma_timing to this value over
  // gamma_anneal_iters timing iterations — broad credit assignment early,
  // sharp criticality late.  0 disables (constant gamma, the paper's setup).
  double gamma_timing_final = 0.0;
  int gamma_anneal_iters = 200;
  int steiner_period = 10;       // FLUTE-substitute rebuild period (§3.6)
  rsmt::RsmtOptions rsmt;        // Steiner-tree construction knobs (§3.4.1)
  sta::WireDelayModel wire_model = sta::WireDelayModel::Elmore;  // §3.4.2
  // Timing-gradient normalization: if true, the |WL|/|timing| scale is frozen
  // at activation (the paper's static-weight regime: timing pressure fades as
  // violations shrink); if false it is recomputed every iteration (keeps
  // constant relative pressure, more aggressive, costs wirelength).
  bool timing_scale_at_activation = true;
  // Per-cell trust region: |timing grad| clipped to t_clip x |WL+density grad|
  // per component (<= 0 disables).  Keeps the handful of most-critical cells
  // from being flung across the die, which stretches their other nets.
  double t_clip = 4.0;

  // NetWeighting mode.
  int nw_period = 1;             // STA + reweight every K iterations
                                 // ([24]'s runtime is dominated by
                                 // repeated STA calls — paper §3.6)
  NetWeightingOptions nw;

  // Optimizer.
  bool use_adam = false;
  double adam_lr_bins = 0.30;    // Adam LR in units of bin width

  // Exact-STA probe for iteration curves (0 = off). Used by the Fig. 8 bench.
  int probe_timing_every = 0;

  // Fault-tolerance layer (DESIGN.md §7): pre-flight validation, per-iteration
  // numerical guards, checkpoint/rollback with a bounded retry budget, and
  // graceful timing degradation.  Guards are pure observers on a healthy run —
  // an un-faulted placement is bitwise-identical with them on or off.
  robust::RecoveryOptions robust;

  // Timing introspection (DESIGN.md §8): when `introspect_sink` points to an
  // open sink, the run emits path / grad_attrib / kernel_profile records every
  // `introspect.sample_period` iterations (and once at run end).  Robust-layer
  // decisions additionally force an off-cadence attribution record tagged with
  // the trigger.  The sink is a pure observer — positions are bitwise-
  // identical with it attached or not (asserted by tests/test_introspect.cpp).
  obs::IntrospectOptions introspect;
  obs::IntrospectionSink* introspect_sink = nullptr;  // not owned

  // Timing-activity telemetry (DESIGN.md §11): when `activity_sink` points to
  // an open sink, an ActivityTracker is attached to the run's timer and
  // `type:"activity"` records (slack sketch, per-level activity, criticality
  // churn) are emitted every `activity.sample_period` timing iterations, plus
  // one run-end `type:"activity_summary"`.  May alias `introspect_sink` to
  // share one stream.  Pure observer: placements are bitwise-identical with
  // it attached or not (asserted by tests/test_golden_plane.cpp).
  obs::ActivityOptions activity;
  obs::IntrospectionSink* activity_sink = nullptr;  // not owned

  // One stderr progress line every N iterations (0 = off), independent of the
  // log level — the operator's heartbeat for long runs.
  int progress_every = 0;

  // Cooperative control plane (DESIGN.md §12).  Not owned; may be shared with
  // a scheduler thread or a signal handler.  nullptr = uncontrolled run.
  PlacerControl* control = nullptr;

  // Wall-clock budget in seconds (0 = none).  Crossing
  // time_budget_degrade_frac of the budget permanently drops timing forces
  // (cheap WL+density iterations for the remainder); crossing the budget
  // stops the run with StopReason::TimeBudget and a valid placement — never
  // a hard kill mid-kernel.
  double time_budget_sec = 0.0;
  double time_budget_degrade_frac = 0.7;

  // Resume support (DESIGN.md §12): start the descent from a verified
  // checkpoint instead of the initial positions.  The checkpoint must come
  // from a run over the same design (sizes are enforced).  Not owned.
  const robust::Checkpoint* resume_from = nullptr;
  // When set, run() seals the final optimization state into this checkpoint
  // on every exit path with finite coordinates — the pause/preemption and
  // --ckpt-out hook.  Not owned.
  robust::Checkpoint* checkpoint_out = nullptr;

  bool verbose = false;
};

struct IterationLog {
  int iter = 0;
  double hpwl = 0.0;
  double overflow = 0.0;
  double lambda = 0.0;
  double wns = 0.0;  // filled when timing is evaluated this iteration
  double tns = 0.0;
  bool has_timing = false;
  // Per-phase wall-clock milliseconds of this iteration (the --metrics-out
  // JSONL stream; zero for phases that did not run).
  double wl_grad_ms = 0.0;   // WA wirelength value + gradient
  double density_ms = 0.0;   // bin splat + Poisson solve + gradient
  double rsmt_ms = 0.0;      // Steiner rebuild or drag inside the timer
  double sta_fwd_ms = 0.0;   // Elmore + levelized AT/slew propagation
  double sta_bwd_ms = 0.0;   // adjoint sweep down the timing levels
  double step_ms = 0.0;      // precondition + optimizer step + projection
};

// Where the placement run's wall clock went, in seconds: the per-phase
// milliseconds of the run's own `history`, summed.
// The *_cpu_sec twins are process CPU time (all threads) over the same span,
// so cpu/wall per phase shows which kernels actually parallelize.
struct PhaseBreakdown {
  double wirelength_sec = 0.0;
  double density_sec = 0.0;
  double rsmt_sec = 0.0;
  double sta_forward_sec = 0.0;
  double sta_backward_sec = 0.0;
  double step_sec = 0.0;
  double wirelength_cpu_sec = 0.0;
  double density_cpu_sec = 0.0;
  double rsmt_cpu_sec = 0.0;
  double sta_forward_cpu_sec = 0.0;
  double sta_backward_cpu_sec = 0.0;
  double step_cpu_sec = 0.0;
};

struct PlaceResult {
  int iterations = 0;
  int start_iter = 0;           // first executed iteration (resume offset)
  StopReason stop_reason = StopReason::Converged;
  double hpwl = 0.0;            // final unweighted HPWL
  double overflow = 0.0;
  double runtime_sec = 0.0;
  double cpu_runtime_sec = 0.0; // process CPU time (all threads) for run()
  double sta_runtime_sec = 0.0; // time inside timing forward/backward
  PhaseBreakdown phases;
  std::vector<IterationLog> history;
  // Fault-tolerance outcome (DESIGN.md §7): Ok when no fault was ever seen,
  // Recovered/Degraded when guards fired, Failed when the retry budget ran
  // out (positions hold the best-known checkpoint in that case).
  robust::RunHealth health = robust::RunHealth::Ok;
  int rollbacks = 0;
  int timing_fallbacks = 0;
  std::vector<robust::RecoveryEvent> recoveries;
};

class GlobalPlacer {
 public:
  GlobalPlacer(netlist::Design& design, const sta::TimingGraph& graph,
               GlobalPlacerOptions options = {});

  // Runs global placement on design.cell_x/cell_y in place.
  PlaceResult run();

  DensityModel& density() { return *density_; }
  WirelengthModel& wirelength() { return *wl_; }

 private:
  int auto_bins() const;
  void update_wl_gamma(double overflow);

  netlist::Design* design_;
  const sta::TimingGraph* graph_;
  GlobalPlacerOptions options_;
  std::unique_ptr<WirelengthModel> wl_;
  std::unique_ptr<DensityModel> density_;
  std::unique_ptr<Optimizer> optimizer_;
  std::unique_ptr<dtimer::DiffTimer> diff_timer_;  // DiffTiming mode
  std::unique_ptr<sta::Timer> exact_timer_;        // NetWeighting + probes
  std::unique_ptr<NetWeighting> net_weighting_;
  // Activity layer (created when options_.activity_sink is an open sink).
  std::unique_ptr<obs::ActivityTracker> activity_tracker_;
  obs::SlackSketch slack_sketch_;
  obs::ChurnTracker churn_tracker_;
  obs::ActivitySummaryAccum activity_accum_;
};

}  // namespace dtp::placer
