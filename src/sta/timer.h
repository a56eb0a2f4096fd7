// Levelized static timing engine over a placed netlist.
//
// Forward flow (paper Fig. 3, steps 2–4):
//   update_positions() — pin locations from cell locations,
//   build_trees() / drag_trees() — RSMT per timing net (§3.4.1, §3.6),
//   run_elmore() — wire delay/impulse/load per net (§3.4.2),
//   propagate() — AT/slew level by level through net and cell arcs (§3.5),
//   update_slacks() — endpoint slacks, WNS/TNS (Eq. 1–2), and in smooth mode
//   the LSE-smoothed WNS_gamma/TNS_gamma (Eq. 5) with the softmax weights the
//   backward pass seeds from.
//
// Aggregation is pluggable: AggMode::Hard gives signoff-exact max/min STA
// (used for all reported metrics); AggMode::Smooth replaces max/min with
// log-sum-exp, making every quantity differentiable (used for gradients).
// Late (setup) analysis is always computed; early (hold) analysis is optional
// and honors the same Hard/Smooth choice, so the hold metrics of Eq. 2 are
// differentiable too.  The paper's experiments optimize setup only; the hold
// objective is this repo's extension.
//
// All mutable state lives in a TimingWorkspace (DESIGN.md §10): flat
// [pin*2 + transition] sweep arrays, the Steiner forest + per-node net arenas,
// the cell-arc candidate cache the forward sweep fills and the backward/RAT
// sweeps reuse, the per-slot records both level sweeps stream, and scratch.  The per-net kernels (tree rebuild, drag,
// Elmore) are ThreadPool jobs over the timing nets — the CPU analogue of the
// paper's per-net CUDA kernels; a level sweep is one serial loop over the
// CSR level schedule, since a pooled sweep cost more CPU than the wall time
// it saved (DESIGN.md §10.5).  Called from inside another pool job, as the
// DiffTiming placer's timer lane is, every job of the timer runs inline on
// the calling thread in the same order.  Each sweep books every level's
// wall-clock into level_profile() (DESIGN.md §8).  The forward flow — drag
// path or full tree rebuild — and the slack update are allocation-free at
// steady state.
#pragma once

#include <chrono>
#include <memory>
#include <span>
#include <vector>

#include "common/vec2.h"
#include "netlist/netlist.h"
#include "rsmt/rsmt_builder.h"
#include "sta/net_timing.h"
#include "sta/timing_graph.h"
#include "sta/timing_workspace.h"

namespace dtp::obs {
class ActivityTracker;
}

namespace dtp::sta {

enum class AggMode : uint8_t { Hard, Smooth };

struct TimerOptions {
  AggMode mode = AggMode::Hard;
  double gamma = 0.05;        // LSE smoothing, in library time units (ns)
  bool enable_early = false;  // also run early/hold analysis
  WireDelayModel wire_model = WireDelayModel::Elmore;
  rsmt::RsmtOptions rsmt;
};

// Accumulated wall-clock of one topological level's sweeps — the CPU
// analogue of per-kernel GPU timing (kernel profiling, DESIGN.md §8).  Always
// recorded by the forward sweep (Timer) and the adjoint sweep (DiffTimer).
struct LevelStat {
  uint64_t calls = 0;  // sweeps of this level accumulated
  double ms = 0.0;     // accumulated wall-clock milliseconds

  // Books one sweep that began at `start`: a raw steady_clock read, since a
  // Stopwatch would also read process CPU time (several times the cost).
  void add_since(std::chrono::steady_clock::time_point start) {
    ++calls;
    ms += std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count();
  }
};

struct TimingMetrics {
  // Setup (late-mode) metrics; negative numbers are violations.
  double wns = 0.0;
  double tns = 0.0;
  size_t num_violations = 0;
  // Smoothed counterparts (filled in smooth mode).
  double wns_smooth = 0.0;
  double tns_smooth = 0.0;
  // Hold (early-mode) metrics (filled when enable_early).
  double hold_wns = 0.0;
  double hold_tns = 0.0;
  double hold_wns_smooth = 0.0;
  double hold_tns_smooth = 0.0;
};

class Timer {
 public:
  Timer(const netlist::Design& design, const TimingGraph& graph,
        TimerOptions options = {});

  const TimingGraph& graph() const { return *graph_; }
  const netlist::Design& design() const { return *design_; }
  const TimerOptions& options() const { return options_; }
  void set_gamma(double gamma) { options_.gamma = gamma; }

  // ---- full evaluation convenience ----
  // Runs the whole forward flow from cell locations (rebuilding trees) and
  // returns the metrics.
  TimingMetrics evaluate(std::span<const double> cell_x,
                         std::span<const double> cell_y);

  // Incremental re-evaluation after a small set of cells moved (hard mode):
  // rebuilds only the trees of nets touching the moved cells, re-runs their
  // Elmore passes, and re-propagates arrival times only through the affected
  // fan-out cone (level-ordered worklist; a pin whose AT and slew keep their
  // bits cuts the cone).  Orders of magnitude cheaper than evaluate()
  // for local perturbations — the regime of detailed placement and ECO moves,
  // and the subject of the ICCAD'15 contest the benchmark suite comes from.
  // Requires a prior evaluate(); RATs are not updated (call update_required()
  // if needed).  Returns the refreshed metrics.
  TimingMetrics evaluate_incremental(std::span<const double> cell_x,
                                     std::span<const double> cell_y,
                                     std::span<const CellId> moved_cells);

  // ---- staged API (used by the placer loop to reuse trees) ----
  void update_positions(std::span<const double> cell_x,
                        std::span<const double> cell_y);
  void build_trees();  // full RSMT reconstruction at current pin positions
  void drag_trees();   // Steiner drag only (paper §3.6), topology kept
  bool trees_built() const { return trees_built_; }
  void run_elmore();
  void propagate();
  void update_slacks();
  TimingMetrics metrics() const { return metrics_; }

  // Backward (late) required-arrival-time propagation over the graph:
  //   RAT(u) = min over fanout arcs (RAT(v) - delay(u -> v)),
  // seeded at endpoints with their setup RAT.  Hard-mode semantics (exact
  // min), independent of the forward aggregation mode; call after propagate()
  // + update_slacks().  Fills rat()/pin_slack() for every pin, which is what
  // net-criticality extraction (the net-weighting baseline [24]) and timing
  // reports consume.  Cell-arc delays come from the candidate cache the
  // forward sweep recorded — no LUT re-evaluation.
  void update_required();
  double rat(PinId p, int tr) const {
    return ws_->rat[static_cast<size_t>(p) * 2 + static_cast<size_t>(tr)];
  }
  // Worst (over transitions) setup slack at a pin; +inf off any constrained
  // path. Valid after update_required().
  double pin_slack(PinId p) const;

  // ---- state access (backward pass, reports, tests) ----
  const std::vector<Vec2>& pin_positions() const { return ws_->pin_pos; }
  // Non-owning view of one net's slice of the timing data plane.
  NetTimingView net_timing(NetId n) const { return ws_->net_view(n); }
  double at(PinId p, int tr) const {
    return ws_->at[static_cast<size_t>(p) * 2 + static_cast<size_t>(tr)];
  }
  double slew(PinId p, int tr) const {
    return ws_->slew[static_cast<size_t>(p) * 2 + static_cast<size_t>(tr)];
  }
  double at_early(PinId p, int tr) const {
    return ws_->at_early[static_cast<size_t>(p) * 2 + static_cast<size_t>(tr)];
  }
  const double* at_data() const { return ws_->at.data(); }
  const double* slew_data() const { return ws_->slew.data(); }
  const double* at_early_data() const { return ws_->at_early.data(); }
  const double* slew_early_data() const { return ws_->slew_early.data(); }
  // The shared forward/backward data plane (DiffTimer borrows it).
  TimingWorkspace& workspace() { return *ws_; }
  const TimingWorkspace& workspace() const { return *ws_; }
  // Per-endpoint setup slack (aggregated over transitions; smooth mode uses
  // smooth-min), aligned with graph().endpoints().
  const std::vector<double>& endpoint_slack() const { return endpoint_slack_; }
  // Per-endpoint, per-transition smooth-min weights (smooth mode only):
  // d(endpoint slack)/d(slack_tr), laid out [endpoint*2 + tr].
  const std::vector<double>& endpoint_tr_weights() const {
    return endpoint_tr_weights_;
  }
  // Required arrival time (late) used for an endpoint.
  double endpoint_rat(size_t endpoint_index) const {
    return endpoint_rat_[endpoint_index];
  }
  // Hold-side counterparts (valid when enable_early): per-endpoint hold slack
  // (smooth-min over transitions in smooth mode) and its transition weights.
  const std::vector<double>& endpoint_hold_slack() const {
    return endpoint_hold_slack_;
  }
  const std::vector<double>& endpoint_hold_tr_weights() const {
    return endpoint_hold_tr_weights_;
  }
  // The hold requirement (earliest allowed arrival) at an endpoint.
  double endpoint_hold_req(size_t endpoint_index) const {
    return endpoint_hold_req_[endpoint_index];
  }
  // Constraint query at an endpoint for transition tr, evaluated at the
  // current (corner-appropriate) slew of the endpoint pin.  When the library
  // provides a constraint LUT the requirement is slew-dependent and d_dslew
  // carries its derivative (for the backward pass); otherwise the constant
  // fallback with zero derivative.
  struct EndpointReq {
    double value = 0.0;    // setup: latest allowed AT; hold: earliest allowed
    double d_dslew = 0.0;  // d(value)/d(endpoint pin slew)
  };
  EndpointReq endpoint_setup_rat(size_t endpoint_index, int tr) const;
  EndpointReq endpoint_hold_requirement(size_t endpoint_index, int tr) const;
  // Worst-slack path through pin `p` for reporting: returns the chain of pins
  // from a source to `p` following the critical (hard-max) fan-in, with the
  // critical transition at each step.
  struct PathNode {
    PinId pin;
    int tr;
    double at;
  };
  std::vector<PathNode> trace_critical_path(PinId endpoint) const;

  // Per-net pin caps (aligned with net.pins) — sinks' input caps plus PO load.
  std::span<const double> net_pin_caps(NetId n) const {
    return ws_->net_pin_caps(n);
  }

  // ---- per-level kernel profile (DESIGN.md §8) ----
  // Wall-clock per topological level of the forward sweeps, accumulated over
  // every propagate() (late and early corners) for the timer's lifetime.
  // Always on and sized at construction: two clock reads per swept level.
  // Level 0 (sources) is never swept and stays at zero calls.
  const std::vector<LevelStat>& level_profile() const { return level_profile_; }

  // ---- timing-activity tracking (DESIGN.md §11) ----
  // Attaches an activity tracker: after every propagate() the tracker scans
  // the late AT/slew plane for pins that moved beyond its epsilons, and
  // evaluate_incremental() reports its visited/changed worklist counts.  The
  // tracker is configured with this timer's level schedule on attach.  A pure
  // observer — the sweeps never read tracker state, so results with a tracker
  // attached are bitwise-identical to without.  Pass nullptr to detach.
  void set_activity_tracker(obs::ActivityTracker* tracker);
  obs::ActivityTracker* activity_tracker() const { return activity_; }

 private:
  void sweep_levels(bool early);
  // Pin positions of cell c from its origin and its master's pin offsets.
  void place_cell_pins(CellId c, std::span<const double> cell_x,
                       std::span<const double> cell_y);
  void init_sources(bool early);
  // Rebuilds net n's Steiner tree at the current pin positions into its
  // forest slot, using the RSMT scratch of dispatch slot `slot`.
  void rebuild_tree(NetId n, size_t slot);
  // Adds every slot's RSMT construction counts to the registry and clears
  // them (once per batch of rebuilds).
  void publish_rsmt_counts();
  // Recomputes at/slew of one pin from its fan-in; returns true if changed.
  bool update_pin(PinId v, bool early);
  // update_pin for a wire sink fed by `from` through arena node `node`
  // (Eq. 9), and for a pin with cell-arc fan-in that drives `out_net`
  // (kInvalidId: none; Eq. 11).
  bool update_net_pin(PinId v, PinId from, size_t node, bool early);
  bool update_cell_pin(PinId v, NetId out_net, bool early);

  const netlist::Design* design_;
  const TimingGraph* graph_;
  TimerOptions options_;

  std::unique_ptr<TimingWorkspace> ws_;
  bool trees_built_ = false;
  double timing_net_pins_ = 0.0;  // work estimate of the per-net kernels

  std::vector<double> endpoint_slack_;
  std::vector<double> endpoint_tr_weights_;
  std::vector<double> endpoint_rat_;
  std::vector<double> endpoint_hold_slack_;
  std::vector<double> endpoint_hold_tr_weights_;
  std::vector<double> endpoint_hold_req_;
  // Per-endpoint constraint LUTs (null = constant fallback).
  std::vector<const liberty::Lut*> ep_setup_lut_;
  std::vector<const liberty::Lut*> ep_hold_lut_;
  TimingMetrics metrics_;

  std::vector<LevelStat> level_profile_;
  obs::ActivityTracker* activity_ = nullptr;
};

}  // namespace dtp::sta
