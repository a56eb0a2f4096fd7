// DiffTimer: the paper's differentiable STA engine (§3).
//
// Wraps a smooth-mode sta::Timer and adds the backward pass: given the
// smoothed timing objective
//
//     loss = t1 * (-TNS_gamma) + t2 * (-WNS_gamma)                   (Eq. 6)
//
// backward() computes d(loss)/d(cell x, y) for every cell by sweeping the
// timing levels in reverse (paper Fig. 3, blue edges):
//
//   1. seed d(loss)/d(slack) at every endpoint — the TNS term gates on
//      slack < 0 (the subgradient of min(0, s)), the WNS term distributes by
//      the softmin weights over endpoints;
//   2. convert to d/d(AT) seeds via slack = RAT - AT and the per-endpoint
//      transition softmin weights;
//   3. walk levels top-down in reverse: cell arcs apply Eq. 12 (softmax of the
//      LSE aggregation + LUT gradients feeding slew and load adjoints), net
//      arcs apply Eq. 10 (delay and impulse^2 adjoints);
//   4. when a net's driver pin is reached, all of that net's adjoint seeds are
//      final, so run the Elmore adjoint (Eq. 8) for the net and fold the
//      resulting Steiner-node coordinate gradients onto their source pins
//      (Fig. 4), then pin gradients onto cells.
//
// All backward state — adjoint arrays, per-net seed arenas, endpoint and
// Elmore scratch — lives in the wrapped timer's TimingWorkspace (DESIGN.md
// §10), shared with the forward pass.  The sweep streams flat arrays built
// once with the workspace: one adjoint record per level-schedule slot (wire
// source pin and arena node, driven net) and a net-pin slot -> pin table for
// the Steiner fold.  The late-corner cell-arc step reads the candidates and
// the AT/slew softmax weights the forward sweep cached (same candidates by
// construction: forward gathers read finalized lower-level state), so no LUT,
// exp or log is evaluated on the setup path; the weights are those of the
// last forward(), at that call's gamma.  The optional hold corner re-gathers
// and recomputes its softmin weights against the early arrays.  A
// steady-state forward (drag or rebuild) + backward pair performs zero heap
// allocations (tests/test_zero_alloc.cpp); tests/test_flat_gradients.cpp
// checks the gradients bitwise against the per-pin formulation.
//
// Between full Steiner reconstructions the forward pass only drags Steiner
// points along their source pins (§3.6); forward() manages the rebuild period.
#pragma once

#include <span>
#include <vector>

#include "robust/fault_injector.h"
#include "sta/timer.h"

namespace dtp::dtimer {

struct DiffTimerOptions {
  double gamma = 0.05;             // LSE smoothing (ns); paper uses ~100 ps
  int steiner_rebuild_period = 10; // full RSMT every N calls, drag in between
  bool enable_early = false;
  sta::WireDelayModel wire_model = sta::WireDelayModel::Elmore;
  rsmt::RsmtOptions rsmt;
};

// Wall-clock split of the most recent forward() call, separating Steiner-tree
// maintenance from the timer passes proper — the attribution the paper's §3.6
// runtime argument needs (RSMT rebuild amortization vs. levelized sweeps).
struct ForwardBreakdown {
  double rsmt_ms = 0.0;     // build_trees or drag_trees
  double elmore_ms = 0.0;   // wire delay/impulse/load pass
  double sweep_ms = 0.0;    // AT/slew propagation + slack update
  bool rebuilt = false;     // true when this call ran a full RSMT rebuild
  double sta_ms() const { return elmore_ms + sweep_ms; }
};

class DiffTimer {
 public:
  DiffTimer(const netlist::Design& design, const sta::TimingGraph& graph,
            DiffTimerOptions options = {});

  // Forward STA at the given cell locations.  Rebuilds Steiner trees on the
  // first call and every `steiner_rebuild_period`-th call thereafter; set
  // force_rebuild to override.  Returns smoothed + exact-on-smoothed metrics.
  sta::TimingMetrics forward(std::span<const double> cell_x,
                             std::span<const double> cell_y,
                             bool force_rebuild = false);

  // Accumulates (+=) d(loss)/d(cell location) into grad_x/grad_y for
  // loss = t1*(-TNS_gamma) + t2*(-WNS_gamma).  Requires a prior forward().
  void backward(double t1, double t2, std::span<double> grad_x,
                std::span<double> grad_y) {
    backward(t1, t2, 0.0, 0.0, grad_x, grad_y);
  }

  // Extended objective including the hold metrics of Eq. 2:
  //   loss = t1*(-TNS_gamma) + t2*(-WNS_gamma)
  //        + h1*(-holdTNS_gamma) + h2*(-holdWNS_gamma).
  // Hold terms require enable_early; their gradients *lengthen* violating
  // short paths (early arrivals rise), the dual of the setup gradients.
  void backward(double t1, double t2, double h1, double h2,
                std::span<double> grad_x, std::span<double> grad_y);

  // The wrapped smooth timer (state inspection, gamma adjustment).
  sta::Timer& timer() { return timer_; }
  const sta::Timer& timer() const { return timer_; }

  int forward_calls() const { return forward_calls_; }

  // Phase timings of the most recent forward().
  const ForwardBreakdown& last_forward() const { return last_forward_; }

  // Fault-injection harness hook (DESIGN.md §7): when set, backward() runs
  // the injector's `lut` site against the pin-gradient accumulators — the
  // spot where degenerate LUT interpolation would first surface — keyed by
  // the tick the caller provides (the placer iteration).  nullptr disables.
  void set_fault_injection(robust::FaultInjector* injector, int tick) {
    fault_injector_ = injector;
    fault_tick_ = tick;
  }

  // Number of non-finite pin-gradient entries produced by the most recent
  // backward() — the health signal behind graceful timing degradation.
  size_t last_backward_nonfinite() const { return last_backward_nonfinite_; }

  // Per-level kernel profile of the adjoint sweep (DESIGN.md §8), indexed by
  // topological level and accumulated across backward() calls.  Always on and
  // sized at construction; the forward counterpart is timer().level_profile().
  const std::vector<sta::LevelStat>& backward_level_profile() const {
    return bwd_level_profile_;
  }

  // Timing-activity tracking (DESIGN.md §11): attaches the tracker to the
  // wrapped timer's forward pass and, after every backward(), scans the
  // AT/slew adjoint planes for live pins.  Pure observer; nullptr detaches.
  void set_activity_tracker(obs::ActivityTracker* tracker) {
    activity_ = tracker;
    timer_.set_activity_tracker(tracker);
  }

 private:
  sta::Timer timer_;
  DiffTimerOptions options_;
  int forward_calls_ = 0;
  ForwardBreakdown last_forward_;
  robust::FaultInjector* fault_injector_ = nullptr;
  int fault_tick_ = 0;
  size_t last_backward_nonfinite_ = 0;
  std::vector<sta::LevelStat> bwd_level_profile_;
  obs::ActivityTracker* activity_ = nullptr;
};

}  // namespace dtp::dtimer
