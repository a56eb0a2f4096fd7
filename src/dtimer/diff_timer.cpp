#include "dtimer/diff_timer.h"

#include <chrono>
#include <cmath>

#include "common/assert.h"
#include "common/smooth_math.h"
#include "common/stopwatch.h"
#include "dtimer/elmore_grad.h"
#include "obs/activity/activity_tracker.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/health_monitor.h"
#include "sta/cell_arc_eval.h"
#include "sta/timing_workspace.h"

namespace dtp::dtimer {

using netlist::CellId;
using netlist::NetId;
using netlist::PinId;
using sta::Arc;
using sta::ArcCandidate;

DiffTimer::DiffTimer(const netlist::Design& design, const sta::TimingGraph& graph,
                     DiffTimerOptions options)
    : timer_(design, graph,
             sta::TimerOptions{sta::AggMode::Smooth, options.gamma,
                               options.enable_early, options.wire_model,
                               options.rsmt}),
      options_(options),
      bwd_level_profile_(static_cast<size_t>(graph.num_levels())) {}

sta::TimingMetrics DiffTimer::forward(std::span<const double> cell_x,
                                      std::span<const double> cell_y,
                                      bool force_rebuild) {
  DTP_TRACE_SCOPE("sta_forward");
  auto& registry = obs::MetricsRegistry::instance();
  static obs::Counter& fwd_count = registry.counter("dtimer.forward_calls");
  static obs::Counter& rebuild_count = registry.counter("dtimer.rsmt_rebuilds");
  static obs::Histogram& fwd_hist = registry.histogram("dtimer.forward_ms");

  obs::ScopedTimerMs fwd_timer(fwd_hist);
  Stopwatch clock;
  timer_.update_positions(cell_x, cell_y);
  const bool rebuild =
      force_rebuild || !timer_.trees_built() ||
      (options_.steiner_rebuild_period > 0 &&
       forward_calls_ % options_.steiner_rebuild_period == 0);
  clock.reset();
  if (rebuild)
    timer_.build_trees();
  else
    timer_.drag_trees();
  last_forward_.rebuilt = rebuild;
  last_forward_.rsmt_ms = clock.elapsed_ms();
  ++forward_calls_;
  fwd_count.add();
  if (rebuild) rebuild_count.add();
  clock.reset();
  timer_.run_elmore();
  last_forward_.elmore_ms = clock.elapsed_ms();
  clock.reset();
  timer_.propagate();
  timer_.update_slacks();
  last_forward_.sweep_ms = clock.elapsed_ms();
  return timer_.metrics();
}

void DiffTimer::backward(double t1, double t2, double h1, double h2,
                         std::span<double> grad_x, std::span<double> grad_y) {
  DTP_TRACE_SCOPE("sta_backward");
  static obs::Histogram& bwd_hist =
      obs::MetricsRegistry::instance().histogram("dtimer.backward_ms");
  obs::ScopedTimerMs bwd_timer(bwd_hist);
  const sta::TimingGraph& graph = timer_.graph();
  const netlist::Netlist& nl = graph.netlist();
  const double gamma = timer_.options().gamma;
  DTP_ASSERT(grad_x.size() == nl.num_cells() && grad_y.size() == nl.num_cells());

  last_backward_nonfinite_ = 0;
  const bool hold = (h1 != 0.0 || h2 != 0.0);
  DTP_ASSERT_MSG(!hold || options_.enable_early,
                 "hold gradients require DiffTimerOptions::enable_early");
  sta::TimingWorkspace& ws = timer_.workspace();
  std::fill(ws.g_at.begin(), ws.g_at.end(), 0.0);
  std::fill(ws.g_slew.begin(), ws.g_slew.end(), 0.0);
  if (hold) {
    std::fill(ws.g_at_early.begin(), ws.g_at_early.end(), 0.0);
    std::fill(ws.g_slew_early.begin(), ws.g_slew_early.end(), 0.0);
  }
  std::fill(ws.g_load.begin(), ws.g_load.end(), 0.0);
  std::fill(ws.pin_gx.begin(), ws.pin_gx.end(), 0.0);
  std::fill(ws.pin_gy.begin(), ws.pin_gy.end(), 0.0);
  // Per-net Elmore seeds: the whole node arenas (unused capacity stays zero).
  std::fill(ws.g_net_delay.begin(), ws.g_net_delay.end(), 0.0);
  std::fill(ws.g_net_imp2.begin(), ws.g_net_imp2.end(), 0.0);

  // ---- step 1+2: endpoint seeds ----
  const auto& endpoints = graph.endpoints();
  const auto& ep_slack = timer_.endpoint_slack();
  const auto& ep_tr_w = timer_.endpoint_tr_weights();

  // Softmin weights of WNS_gamma over reachable endpoints.
  std::vector<double>& finite_slacks = ws.ep_finite;
  std::vector<size_t>& finite_idx = ws.ep_finite_idx;
  finite_slacks.clear();
  finite_idx.clear();
  for (size_t e = 0; e < endpoints.size(); ++e) {
    if (std::isfinite(ep_slack[e])) {
      finite_slacks.push_back(ep_slack[e]);
      finite_idx.push_back(e);
    }
  }
  if (finite_slacks.empty()) return;
  std::vector<double>& wns_weights = ws.ep_weights;
  smooth_min(finite_slacks, gamma, wns_weights);

  std::vector<double>& g_ep = ws.ep_g;
  std::fill(g_ep.begin(), g_ep.end(), 0.0);
  for (size_t k = 0; k < finite_idx.size(); ++k) {
    const size_t e = finite_idx[k];
    // loss = -t1*TNS - t2*WNS;  dTNS/ds = [s < 0],  dWNS/ds = softmin weight.
    double g = -t2 * wns_weights[k];
    if (ep_slack[e] < 0.0) g += -t1;
    g_ep[e] = g;
  }
  for (size_t e = 0; e < endpoints.size(); ++e) {
    if (g_ep[e] == 0.0) continue;
    const PinId p = endpoints[e].pin;
    for (int tr = 0; tr < 2; ++tr) {
      // slack_tr = RAT(slew) - AT  =>  d(loss)/d(AT) = -g_ep * w_tr, and when
      // the setup constraint is a LUT, d(loss)/d(slew) = g_ep * w_tr * dRAT/dslew.
      const double w = ep_tr_w[e * 2 + static_cast<size_t>(tr)];
      ws.g_at[static_cast<size_t>(p) * 2 + static_cast<size_t>(tr)] +=
          -g_ep[e] * w;
      const auto req = timer_.endpoint_setup_rat(e, tr);
      if (req.d_dslew != 0.0)
        ws.g_slew[static_cast<size_t>(p) * 2 + static_cast<size_t>(tr)] +=
            g_ep[e] * w * req.d_dslew;
    }
  }

  // Hold endpoint seeds: slack = AT_early - requirement => d(slack)/d(AT) = +1.
  // The setup seeds above are final, so the endpoint scratch is reused.
  if (hold) {
    const auto& hold_slack = timer_.endpoint_hold_slack();
    const auto& hold_tr_w = timer_.endpoint_hold_tr_weights();
    std::vector<double>& finite_hold = ws.ep_finite;
    std::vector<size_t>& finite_hold_idx = ws.ep_finite_idx;
    finite_hold.clear();
    finite_hold_idx.clear();
    for (size_t e = 0; e < endpoints.size(); ++e) {
      if (std::isfinite(hold_slack[e])) {
        finite_hold.push_back(hold_slack[e]);
        finite_hold_idx.push_back(e);
      }
    }
    if (!finite_hold.empty()) {
      std::vector<double>& hold_wns_w = ws.ep_weights;
      smooth_min(finite_hold, gamma, hold_wns_w);
      for (size_t k = 0; k < finite_hold_idx.size(); ++k) {
        const size_t e = finite_hold_idx[k];
        double g = -h2 * hold_wns_w[k];
        if (hold_slack[e] < 0.0) g += -h1;
        if (g == 0.0) continue;
        const PinId p = endpoints[e].pin;
        for (int tr = 0; tr < 2; ++tr) {
          // slack = AT_early - req(slew_early): both arrival and (for LUT
          // constraints) the early slew carry gradient.
          const double w = hold_tr_w[e * 2 + static_cast<size_t>(tr)];
          ws.g_at_early[static_cast<size_t>(p) * 2 + static_cast<size_t>(tr)] +=
              g * w;
          const auto req = timer_.endpoint_hold_requirement(e, tr);
          if (req.d_dslew != 0.0)
            ws.g_slew_early[static_cast<size_t>(p) * 2 +
                            static_cast<size_t>(tr)] += -g * w * req.d_dslew;
        }
      }
    }
  }

  // ---- step 3+4: reverse level sweep ----
  // Streams the static per-slot records (wire source + arena node, driven
  // net) and, for cell arcs, the candidates and softmax weights the forward
  // sweep cached; the hold corner re-gathers against the early state.
  const double* slew = timer_.slew_data();
  const auto level_offsets = graph.level_offsets();
  const sta::TimingWorkspace::SlotRecord* records = ws.records.data();
  using Fanin = sta::TimingWorkspace::Fanin;

  DTP_PROF_SCOPE("sta_bwd_levels");
  for (int l = graph.num_levels() - 1; l >= 0; --l) {
    const auto level_start = std::chrono::steady_clock::now();
    const size_t level_end =
        static_cast<size_t>(level_offsets[static_cast<size_t>(l) + 1]);
    for (size_t i = static_cast<size_t>(level_offsets[static_cast<size_t>(l)]);
         i < level_end; ++i) {
      const sta::TimingWorkspace::SlotRecord& rec = records[i];
      const PinId v = rec.pin;
      if (rec.kind == Fanin::Net) {
        // Eq. 10: single fan-in wire arc.
        const size_t node = static_cast<size_t>(rec.node);
        for (int tr = 0; tr < 2; ++tr) {
          const size_t vi = static_cast<size_t>(v) * 2 + static_cast<size_t>(tr);
          const size_t ui =
              static_cast<size_t>(rec.from) * 2 + static_cast<size_t>(tr);
          const double gat = ws.g_at[vi];
          const double gslew = ws.g_slew[vi];
          if (gat != 0.0) {
            ws.g_at[ui] += gat;            // Eq. 10a
            ws.g_net_delay[node] += gat;   // Eq. 10b (delay shared across tr)
          }
          if (gslew != 0.0 && std::isfinite(slew[vi]) && slew[vi] > 0.0) {
            ws.g_slew[ui] += slew[ui] / slew[vi] * gslew;      // Eq. 10c
            ws.g_net_imp2[node] += gslew / (2.0 * slew[vi]);   // Eq. 10d
          }
        }
      } else if (rec.kind == Fanin::Cell) {
        // Eq. 12: cell arcs.  Candidates, LUT gradients and the AT/slew
        // softmax weights are the ones the forward sweep cached for this pin.
        // The driven net's load adjoint sums in a register, in candidate
        // order; only this pin writes it.
        const NetId out_net = rec.driven;
        double g_load_out = out_net == netlist::kInvalidId
                                ? 0.0
                                : ws.g_load[static_cast<size_t>(out_net)];
        for (int tr_out = 0; tr_out < 2; ++tr_out) {
          const size_t vi =
              static_cast<size_t>(v) * 2 + static_cast<size_t>(tr_out);
          const double gat_out = ws.g_at[vi];
          const double gslew_out = ws.g_slew[vi];
          if (gat_out == 0.0 && gslew_out == 0.0) continue;
          const int count = ws.cand_count[vi];
          if (count == 0) continue;
          const size_t off = ws.cand_offset(v, tr_out);
          const ArcCandidate* cands = ws.cand.data() + off;
          const double* w_at = ws.cand_w_at.data() + off;
          const double* w_slew = ws.cand_w_slew.data() + off;
          for (int k = 0; k < count; ++k) {
            const ArcCandidate& c = cands[k];
            const size_t ui = static_cast<size_t>(c.from) * 2 +
                              static_cast<size_t>(c.tr_in);
            const double g_at_cand = w_at[k] * gat_out;       // Eq. 12a
            const double g_delay_cand = g_at_cand;            // Eq. 12b
            const double g_slew_cand = w_slew[k] * gslew_out; // Eq. 12c
            ws.g_at[ui] += g_at_cand;
            ws.g_slew[ui] += c.delay_q.d_dx * g_delay_cand +
                             c.slew_q.d_dx * g_slew_cand;     // Eq. 12d
            g_load_out += c.delay_q.d_dy * g_delay_cand +
                          c.slew_q.d_dy * g_slew_cand;        // Eq. 12e
          }
        }
        if (out_net != netlist::kInvalidId)
          ws.g_load[static_cast<size_t>(out_net)] = g_load_out;
      }

      // Hold corner: mirror the sweep on the early arrays (min-aggregation
      // softmin weights; same Elmore/load accumulators — the wire quantities
      // are shared between corners).  The cache holds the late candidates, so
      // the early corner re-gathers against the early state.
      if (hold && rec.kind == Fanin::Net) {
        const double* slew_e = timer_.slew_early_data();
        const size_t node = static_cast<size_t>(rec.node);
        for (int tr = 0; tr < 2; ++tr) {
          const size_t vi = static_cast<size_t>(v) * 2 + static_cast<size_t>(tr);
          const size_t ui =
              static_cast<size_t>(rec.from) * 2 + static_cast<size_t>(tr);
          const double gat = ws.g_at_early[vi];
          const double gslew = ws.g_slew_early[vi];
          if (gat != 0.0) {
            ws.g_at_early[ui] += gat;
            ws.g_net_delay[node] += gat;
          }
          if (gslew != 0.0 && std::isfinite(slew_e[vi]) && slew_e[vi] > 0.0) {
            ws.g_slew_early[ui] += slew_e[ui] / slew_e[vi] * gslew;
            ws.g_net_imp2[node] += gslew / (2.0 * slew_e[vi]);
          }
        }
      } else if (hold && rec.kind == Fanin::Cell) {
        const double* at_e = timer_.at_early_data();
        const double* slew_e = timer_.slew_early_data();
        const NetId out_net = rec.driven;
        const double load =
            out_net == netlist::kInvalidId ? 0.0 : ws.net_root_load(out_net);
        std::vector<ArcCandidate>& cands = ws.cands;
        std::vector<double>& values = ws.values;
        std::vector<double>& w_at = ws.w_at;
        std::vector<double>& w_slew = ws.w_slew;
        for (int tr_out = 0; tr_out < 2; ++tr_out) {
          const size_t vi =
              static_cast<size_t>(v) * 2 + static_cast<size_t>(tr_out);
          const double gat_out = ws.g_at_early[vi];
          const double gslew_out = ws.g_slew_early[vi];
          if (gat_out == 0.0 && gslew_out == 0.0) continue;
          cands.clear();
          for (int ai : graph.fanin(v)) {
            const Arc& arc = graph.arcs()[static_cast<size_t>(ai)];
            gather_arc_candidates(graph.lib_arc(arc.lib_arc), arc.from,
                                  tr_out, at_e, slew_e, load, cands);
          }
          if (cands.empty()) continue;
          values.resize(cands.size());
          for (size_t k = 0; k < cands.size(); ++k)
            values[k] = cands[k].at_value;
          smooth_min(values, gamma, w_at);
          for (size_t k = 0; k < cands.size(); ++k)
            values[k] = cands[k].slew_q.value;
          smooth_min(values, gamma, w_slew);
          for (size_t k = 0; k < cands.size(); ++k) {
            const ArcCandidate& c = cands[k];
            const size_t ui = static_cast<size_t>(c.from) * 2 +
                              static_cast<size_t>(c.tr_in);
            const double g_at_cand = w_at[k] * gat_out;
            const double g_delay_cand = g_at_cand;
            const double g_slew_cand = w_slew[k] * gslew_out;
            ws.g_at_early[ui] += g_at_cand;
            ws.g_slew_early[ui] += c.delay_q.d_dx * g_delay_cand +
                                   c.slew_q.d_dx * g_slew_cand;
            if (out_net != netlist::kInvalidId)
              ws.g_load[static_cast<size_t>(out_net)] +=
                  c.delay_q.d_dy * g_delay_cand +
                  c.slew_q.d_dy * g_slew_cand;
          }
        }
      }

      // If v drives a timing net, every adjoint seed of that net is now
      // final (sinks live at higher levels; the load adjoint was produced by
      // v's own fan-in arcs just above): run the Elmore adjoint.
      const NetId driven = rec.driven;
      if (driven != netlist::kInvalidId) {
        const sta::NetTimingView nt = ws.net_view(driven);
        const size_t m = nt.tree.num_nodes();
        std::fill_n(ws.scratch_gx.begin(), m, 0.0);
        std::fill_n(ws.scratch_gy.begin(), m, 0.0);
        const std::span<double> g_delay = ws.net_g_delay(driven);
        std::span<const double> g_beta{};
        if (options_.wire_model == sta::WireDelayModel::D2M) {
          // The net-arc seeds landed on used_delay = ln2 * m1^2 / sqrt(m2);
          // convert to (m1, m2) = (delay, beta) seeds via the chain rule.
          // Degenerate nodes fell back to Elmore and pass through unchanged.
          std::fill_n(ws.scratch_gbeta.begin(), m, 0.0);
          for (size_t node = 0; node < m; ++node) {
            const double gu = g_delay[node];
            if (gu == 0.0 || nt.d2m_degenerate[node]) continue;
            const double d = nt.delay[node];
            const double b = nt.beta[node];
            const double sqrt_b = std::sqrt(b);
            g_delay[node] = gu * sta::kLn2 * 2.0 * d / sqrt_b;
            ws.scratch_gbeta[node] = gu * sta::kLn2 * d * d * -0.5 / (b * sqrt_b);
          }
          g_beta = std::span<const double>(ws.scratch_gbeta.data(), m);
        }
        elmore_backward(
            nt, g_delay, ws.net_g_imp2(driven),
            ws.g_load[static_cast<size_t>(driven)],
            timer_.design().constraints.wire_res,
            timer_.design().constraints.wire_cap,
            std::span<double>(ws.scratch_gx.data(), m),
            std::span<double>(ws.scratch_gy.data(), m),
            ElmoreScratch{ws.el_gbeta, ws.el_gldelay, ws.el_gdelay,
                          ws.el_gload},
            g_beta);
        // Fold node gradients onto pins: pin nodes directly, Steiner nodes via
        // their coordinate source pins (paper Fig. 4), resolved through the
        // workspace's net-pin table.
        const PinId* net_pins = ws.net_pins(driven).data();
        for (size_t node = 0; node < m; ++node) {
          const rsmt::SteinerNode& tn = nt.tree.nodes[node];
          const size_t xp = static_cast<size_t>(net_pins[tn.x_src]);
          const size_t yp = static_cast<size_t>(net_pins[tn.y_src]);
          ws.pin_gx[xp] += ws.scratch_gx[node];
          ws.pin_gy[yp] += ws.scratch_gy[node];
        }
      }
    }
    bwd_level_profile_[static_cast<size_t>(l)].add_since(level_start);
  }

  // Post-sweep activity scan: the AT/slew adjoint planes are final here
  // (pins the sweep skipped hold their zero fill).  Read-only observer.
  if (activity_ != nullptr)
    activity_->record_backward(ws.g_at.data(), ws.g_slew.data());

  // Fault-injection hook: corrupt the pin-gradient accumulators as if the
  // LUT-gradient path had produced garbage (robust-layer test harness).
  if (fault_injector_ != nullptr)
    fault_injector_->corrupt(robust::FaultSite::LutAdjoint, fault_tick_,
                             ws.pin_gx, ws.pin_gy);

  // Health signal for the graceful-degradation path: count non-finite pin
  // gradients (cheap sum-poisoning fast path when everything is finite).
  last_backward_nonfinite_ =
      robust::HealthMonitor::all_finite(ws.pin_gx, ws.pin_gy)
          ? 0
          : robust::HealthMonitor::count_nonfinite(ws.pin_gx, ws.pin_gy);

  // ---- pins -> cells (pin offsets are rigid) ----
  for (size_t p = 0; p < nl.num_pins(); ++p) {
    if (ws.pin_gx[p] == 0.0 && ws.pin_gy[p] == 0.0) continue;
    const CellId c = nl.pin(static_cast<PinId>(p)).cell;
    grad_x[static_cast<size_t>(c)] += ws.pin_gx[p];
    grad_y[static_cast<size_t>(c)] += ws.pin_gy[p];
  }
}

}  // namespace dtp::dtimer
