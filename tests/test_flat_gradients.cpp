// Differential tests of the flat gradient passes against the straightforward
// implementations they replaced.
//
// DiffTimer::backward streams per-slot adjoint records, folds Steiner-node
// gradients through the net-pin slot -> pin table and reads the softmax weights
// the forward sweep cached; WirelengthModel streams a net -> (cell, offset)
// CSR plane.  Both keep every accumulation in the original order, so their
// results must be *bitwise* equal (EXPECT_EQ on doubles) to the reference
// copies below, which recompute the LSE weights per (pin, transition) and
// walk the AoS netlist (graph fan-in -> arcs, Net::pins, pin -> cell ->
// lib pin offset) the way the code did before the flat layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/smooth_math.h"
#include "dtimer/diff_timer.h"
#include "dtimer/elmore_grad.h"
#include "kernels/kernels.h"
#include "liberty/synth_library.h"
#include "placer/wirelength.h"
#include "sta/cell_arc_eval.h"
#include "sta/timing_graph.h"
#include "sta/timing_workspace.h"
#include "workload/circuit_gen.h"

namespace dtp {
namespace {

using netlist::CellId;
using netlist::NetId;
using netlist::PinId;

// ---- reference implementations ----
namespace ref {

// The adjoint sweep as written before the flat records: per-pin fan-in and
// arc lookups, softmax weights recomputed from the cached candidates, the
// Steiner fold through Net::pins.  Observers (profiling, activity, fault
// injection) are left out; they never touch the gradients.
void backward(dtimer::DiffTimer& dt, sta::WireDelayModel wire_model, double t1,
              double t2, double h1, double h2, std::span<double> grad_x,
              std::span<double> grad_y) {
  sta::Timer& timer = dt.timer();
  const sta::TimingGraph& graph = timer.graph();
  const netlist::Netlist& nl = graph.netlist();
  const double gamma = timer.options().gamma;
  const bool hold = (h1 != 0.0 || h2 != 0.0);
  sta::TimingWorkspace& ws = timer.workspace();
  std::fill(ws.g_at.begin(), ws.g_at.end(), 0.0);
  std::fill(ws.g_slew.begin(), ws.g_slew.end(), 0.0);
  if (hold) {
    std::fill(ws.g_at_early.begin(), ws.g_at_early.end(), 0.0);
    std::fill(ws.g_slew_early.begin(), ws.g_slew_early.end(), 0.0);
  }
  std::fill(ws.g_load.begin(), ws.g_load.end(), 0.0);
  std::fill(ws.pin_gx.begin(), ws.pin_gx.end(), 0.0);
  std::fill(ws.pin_gy.begin(), ws.pin_gy.end(), 0.0);
  std::fill(ws.g_net_delay.begin(), ws.g_net_delay.end(), 0.0);
  std::fill(ws.g_net_imp2.begin(), ws.g_net_imp2.end(), 0.0);

  const auto& endpoints = graph.endpoints();
  const auto& ep_slack = timer.endpoint_slack();
  const auto& ep_tr_w = timer.endpoint_tr_weights();
  std::vector<double> finite_slacks;
  std::vector<size_t> finite_idx;
  for (size_t e = 0; e < endpoints.size(); ++e) {
    if (std::isfinite(ep_slack[e])) {
      finite_slacks.push_back(ep_slack[e]);
      finite_idx.push_back(e);
    }
  }
  if (finite_slacks.empty()) return;
  std::vector<double> wns_weights;
  smooth_min(finite_slacks, gamma, wns_weights);
  std::vector<double> g_ep(endpoints.size(), 0.0);
  for (size_t k = 0; k < finite_idx.size(); ++k) {
    const size_t e = finite_idx[k];
    double g = -t2 * wns_weights[k];
    if (ep_slack[e] < 0.0) g += -t1;
    g_ep[e] = g;
  }
  for (size_t e = 0; e < endpoints.size(); ++e) {
    if (g_ep[e] == 0.0) continue;
    const PinId p = endpoints[e].pin;
    for (int tr = 0; tr < 2; ++tr) {
      const double w = ep_tr_w[e * 2 + static_cast<size_t>(tr)];
      ws.g_at[static_cast<size_t>(p) * 2 + static_cast<size_t>(tr)] +=
          -g_ep[e] * w;
      const auto req = timer.endpoint_setup_rat(e, tr);
      if (req.d_dslew != 0.0)
        ws.g_slew[static_cast<size_t>(p) * 2 + static_cast<size_t>(tr)] +=
            g_ep[e] * w * req.d_dslew;
    }
  }
  if (hold) {
    const auto& hold_slack = timer.endpoint_hold_slack();
    const auto& hold_tr_w = timer.endpoint_hold_tr_weights();
    finite_slacks.clear();
    finite_idx.clear();
    for (size_t e = 0; e < endpoints.size(); ++e) {
      if (std::isfinite(hold_slack[e])) {
        finite_slacks.push_back(hold_slack[e]);
        finite_idx.push_back(e);
      }
    }
    if (!finite_slacks.empty()) {
      std::vector<double> hold_wns_w;
      smooth_min(finite_slacks, gamma, hold_wns_w);
      for (size_t k = 0; k < finite_idx.size(); ++k) {
        const size_t e = finite_idx[k];
        double g = -h2 * hold_wns_w[k];
        if (hold_slack[e] < 0.0) g += -h1;
        if (g == 0.0) continue;
        const PinId p = endpoints[e].pin;
        for (int tr = 0; tr < 2; ++tr) {
          const double w = hold_tr_w[e * 2 + static_cast<size_t>(tr)];
          ws.g_at_early[static_cast<size_t>(p) * 2 + static_cast<size_t>(tr)] +=
              g * w;
          const auto req = timer.endpoint_hold_requirement(e, tr);
          if (req.d_dslew != 0.0)
            ws.g_slew_early[static_cast<size_t>(p) * 2 +
                            static_cast<size_t>(tr)] += -g * w * req.d_dslew;
        }
      }
    }
  }

  const double* slew = timer.slew_data();
  std::vector<double> values, w_at, w_slew;
  std::vector<sta::ArcCandidate> cands;
  std::vector<double> scratch_gx, scratch_gy, scratch_gbeta;
  std::vector<double> el_gbeta, el_gldelay, el_gdelay, el_gload;
  for (int l = graph.num_levels() - 1; l >= 0; --l) {
    for (const PinId v : graph.level(l)) {
      const auto fanin = graph.fanin(v);
      if (!fanin.empty()) {
        const sta::Arc& first = graph.arcs()[static_cast<size_t>(fanin[0])];
        if (first.kind == sta::ArcKind::NetArc) {
          const size_t node =
              static_cast<size_t>(ws.forest.node_offset(first.net)) +
              static_cast<size_t>(first.sink_index);
          for (int tr = 0; tr < 2; ++tr) {
            const size_t vi = static_cast<size_t>(v) * 2 + static_cast<size_t>(tr);
            const size_t ui =
                static_cast<size_t>(first.from) * 2 + static_cast<size_t>(tr);
            const double gat = ws.g_at[vi];
            const double gslew = ws.g_slew[vi];
            if (gat != 0.0) {
              ws.g_at[ui] += gat;
              ws.g_net_delay[node] += gat;
            }
            if (gslew != 0.0 && std::isfinite(slew[vi]) && slew[vi] > 0.0) {
              ws.g_slew[ui] += slew[ui] / slew[vi] * gslew;
              ws.g_net_imp2[node] += gslew / (2.0 * slew[vi]);
            }
          }
        } else {
          const NetId out_net = graph.driven_timing_net(v);
          for (int tr_out = 0; tr_out < 2; ++tr_out) {
            const size_t vi =
                static_cast<size_t>(v) * 2 + static_cast<size_t>(tr_out);
            const double gat_out = ws.g_at[vi];
            const double gslew_out = ws.g_slew[vi];
            if (gat_out == 0.0 && gslew_out == 0.0) continue;
            const sta::ArcCandidate* cc = ws.cand_ptr(v, tr_out);
            const int count = ws.cand_count[vi];
            if (count == 0) continue;
            values.resize(static_cast<size_t>(count));
            for (int k = 0; k < count; ++k)
              values[static_cast<size_t>(k)] = cc[k].at_value;
            smooth_max(values, gamma, w_at);
            for (int k = 0; k < count; ++k)
              values[static_cast<size_t>(k)] = cc[k].slew_q.value;
            smooth_max(values, gamma, w_slew);
            for (int k = 0; k < count; ++k) {
              const sta::ArcCandidate& c = cc[k];
              const size_t ui = static_cast<size_t>(c.from) * 2 +
                                static_cast<size_t>(c.tr_in);
              const double g_at_cand = w_at[static_cast<size_t>(k)] * gat_out;
              const double g_delay_cand = g_at_cand;
              const double g_slew_cand =
                  w_slew[static_cast<size_t>(k)] * gslew_out;
              ws.g_at[ui] += g_at_cand;
              ws.g_slew[ui] += c.delay_q.d_dx * g_delay_cand +
                               c.slew_q.d_dx * g_slew_cand;
              if (out_net != netlist::kInvalidId)
                ws.g_load[static_cast<size_t>(out_net)] +=
                    c.delay_q.d_dy * g_delay_cand +
                    c.slew_q.d_dy * g_slew_cand;
            }
          }
        }
      }

      if (hold && !fanin.empty()) {
        const double* at_e = timer.at_early_data();
        const double* slew_e = timer.slew_early_data();
        const sta::Arc& first = graph.arcs()[static_cast<size_t>(fanin[0])];
        if (first.kind == sta::ArcKind::NetArc) {
          const size_t node =
              static_cast<size_t>(ws.forest.node_offset(first.net)) +
              static_cast<size_t>(first.sink_index);
          for (int tr = 0; tr < 2; ++tr) {
            const size_t vi = static_cast<size_t>(v) * 2 + static_cast<size_t>(tr);
            const size_t ui =
                static_cast<size_t>(first.from) * 2 + static_cast<size_t>(tr);
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
        } else {
          const NetId out_net = graph.driven_timing_net(v);
          const double load =
              out_net == netlist::kInvalidId ? 0.0 : ws.net_root_load(out_net);
          for (int tr_out = 0; tr_out < 2; ++tr_out) {
            const size_t vi =
                static_cast<size_t>(v) * 2 + static_cast<size_t>(tr_out);
            const double gat_out = ws.g_at_early[vi];
            const double gslew_out = ws.g_slew_early[vi];
            if (gat_out == 0.0 && gslew_out == 0.0) continue;
            cands.clear();
            for (int ai : fanin) {
              const sta::Arc& arc = graph.arcs()[static_cast<size_t>(ai)];
              sta::gather_arc_candidates(graph.lib_arc(arc.lib_arc), arc.from,
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
              const sta::ArcCandidate& c = cands[k];
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
      }

      const NetId driven = graph.driven_timing_net(v);
      if (driven != netlist::kInvalidId) {
        const sta::NetTimingView nt = ws.net_view(driven);
        const size_t m = nt.tree.num_nodes();
        scratch_gx.assign(m, 0.0);
        scratch_gy.assign(m, 0.0);
        for (std::vector<double>* s :
             {&el_gbeta, &el_gldelay, &el_gdelay, &el_gload})
          s->assign(m, 0.0);
        const std::span<double> g_delay = ws.net_g_delay(driven);
        std::span<const double> g_beta{};
        if (wire_model == sta::WireDelayModel::D2M) {
          scratch_gbeta.assign(m, 0.0);
          for (size_t node = 0; node < m; ++node) {
            const double gu = g_delay[node];
            if (gu == 0.0 || nt.d2m_degenerate[node]) continue;
            const double d = nt.delay[node];
            const double b = nt.beta[node];
            const double sqrt_b = std::sqrt(b);
            g_delay[node] = gu * sta::kLn2 * 2.0 * d / sqrt_b;
            scratch_gbeta[node] = gu * sta::kLn2 * d * d * -0.5 / (b * sqrt_b);
          }
          g_beta = scratch_gbeta;
        }
        dtimer::elmore_backward(
            nt, g_delay, ws.net_g_imp2(driven),
            ws.g_load[static_cast<size_t>(driven)],
            timer.design().constraints.wire_res,
            timer.design().constraints.wire_cap, scratch_gx, scratch_gy,
            dtimer::ElmoreScratch{el_gbeta, el_gldelay, el_gdelay, el_gload},
            g_beta);
        const netlist::Net& net = nl.net(driven);
        for (size_t node = 0; node < m; ++node) {
          const rsmt::SteinerNode& tn = nt.tree.nodes[node];
          const size_t xp =
              static_cast<size_t>(net.pins[static_cast<size_t>(tn.x_src)]);
          const size_t yp =
              static_cast<size_t>(net.pins[static_cast<size_t>(tn.y_src)]);
          ws.pin_gx[xp] += scratch_gx[node];
          ws.pin_gy[yp] += scratch_gy[node];
        }
      }
    }
  }

  for (size_t p = 0; p < nl.num_pins(); ++p) {
    if (ws.pin_gx[p] == 0.0 && ws.pin_gy[p] == 0.0) continue;
    const CellId c = nl.pin(static_cast<PinId>(p)).cell;
    grad_x[static_cast<size_t>(c)] += ws.pin_gx[p];
    grad_y[static_cast<size_t>(c)] += ws.pin_gy[p];
  }
}

// The AoS wirelength passes: pin -> cell -> lib pin offset per pin.
std::vector<NetId> active_nets(const netlist::Netlist& nl, size_t ignore_degree) {
  std::vector<NetId> nets;
  for (size_t n = 0; n < nl.num_nets(); ++n) {
    const size_t deg = nl.net(static_cast<NetId>(n)).pins.size();
    if (deg >= 2 && deg <= ignore_degree) nets.push_back(static_cast<NetId>(n));
  }
  return nets;
}

double wa_value_and_gradient(const netlist::Netlist& nl,
                             const std::vector<NetId>& nets,
                             std::span<const double> weights, double gamma,
                             std::span<const double> x, std::span<const double> y,
                             std::span<double> gx, std::span<double> gy) {
  double total = 0.0;
  std::vector<double> px, py, dgx, dgy, ep, em;
  for (NetId n : nets) {
    const netlist::Net& net = nl.net(n);
    const size_t deg = net.pins.size();
    const double w = weights[static_cast<size_t>(n)];
    for (std::vector<double>* v : {&px, &py, &dgx, &dgy, &ep, &em})
      v->resize(deg);
    for (size_t i = 0; i < deg; ++i) {
      const PinId p = net.pins[i];
      const CellId c = nl.pin(p).cell;
      const Vec2 off = nl.pin_offset(p);
      px[i] = x[static_cast<size_t>(c)] + off.x;
      py[i] = y[static_cast<size_t>(c)] + off.y;
    }
    total += w * kernels::wa_axis(px.data(), deg, gamma, dgx.data(), ep.data(),
                                  em.data());
    total += w * kernels::wa_axis(py.data(), deg, gamma, dgy.data(), ep.data(),
                                  em.data());
    for (size_t i = 0; i < deg; ++i) {
      const CellId c = nl.pin(net.pins[i]).cell;
      gx[static_cast<size_t>(c)] += w * dgx[i];
      gy[static_cast<size_t>(c)] += w * dgy[i];
    }
  }
  return total;
}

// weights == nullptr: unweighted.
double hpwl(const netlist::Netlist& nl, const std::vector<NetId>& nets,
            const double* weights, std::span<const double> x,
            std::span<const double> y) {
  double total = 0.0;
  for (NetId n : nets) {
    double xl = 1e300, xh = -1e300, yl = 1e300, yh = -1e300;
    for (PinId p : nl.net(n).pins) {
      const CellId c = nl.pin(p).cell;
      const Vec2 off = nl.pin_offset(p);
      const double px = x[static_cast<size_t>(c)] + off.x;
      const double py = y[static_cast<size_t>(c)] + off.y;
      xl = std::min(xl, px);
      xh = std::max(xh, px);
      yl = std::min(yl, py);
      yh = std::max(yh, py);
    }
    if (weights == nullptr)
      total += (xh - xl) + (yh - yl);
    else
      total += weights[static_cast<size_t>(n)] * ((xh - xl) + (yh - yl));
  }
  return total;
}

std::vector<double> cell_incidence_weights(const netlist::Netlist& nl,
                                           const std::vector<NetId>& nets,
                                           std::span<const double> weights) {
  std::vector<double> out(nl.num_cells(), 0.0);
  for (NetId n : nets)
    for (PinId p : nl.net(n).pins)
      out[static_cast<size_t>(nl.pin(p).cell)] += weights[static_cast<size_t>(n)];
  return out;
}

}  // namespace ref

// A random ~500-cell miniblue design: preset structure, random seed.
netlist::Design random_miniblue(const liberty::CellLibrary& lib, Rng& rng,
                                size_t preset) {
  const auto& presets = workload::miniblue_presets();
  workload::WorkloadOptions opts = workload::miniblue_options(
      presets[preset % presets.size()], /*scale_divisor=*/4000);
  opts.seed = rng.next_u64();
  return workload::generate_design(lib, opts);
}

void jitter(const netlist::Design& design, Rng& rng, double step,
            std::vector<double>& x, std::vector<double>& y) {
  for (size_t c = 0; c < x.size(); ++c) {
    if (design.netlist.cell(static_cast<CellId>(c)).fixed) continue;
    x[c] += rng.uniform(-step, step);
    y[c] += rng.uniform(-step, step);
  }
}

struct AdjointCase {
  sta::WireDelayModel wire_model;
  bool hold;
};

class AdjointDifferential : public ::testing::TestWithParam<AdjointCase> {};

TEST_P(AdjointDifferential, CellGradientsMatchReferenceBitwise) {
  const AdjointCase tc = GetParam();
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  Rng rng(tc.hold ? 911 : 419);
  for (size_t design_idx = 0; design_idx < 3; ++design_idx) {
    const netlist::Design design = random_miniblue(lib, rng, design_idx * 3);
    const sta::TimingGraph graph(design.netlist);
    dtimer::DiffTimerOptions dopts;
    dopts.wire_model = tc.wire_model;
    dopts.enable_early = tc.hold;
    dopts.steiner_rebuild_period = 3;  // rebuild, drag, drag, rebuild, ...
    dtimer::DiffTimer dt(design, graph, dopts);

    const size_t nc = design.netlist.num_cells();
    std::vector<double> x(design.cell_x.begin(), design.cell_x.end());
    std::vector<double> y(design.cell_y.begin(), design.cell_y.end());
    int rebuilds = 0;
    for (int iter = 0; iter < 7; ++iter) {
      dt.forward(x, y);
      rebuilds += dt.last_forward().rebuilt ? 1 : 0;
      const double t1 = rng.uniform(0.2, 1.0), t2 = rng.uniform(0.2, 1.0);
      const double h1 = tc.hold ? rng.uniform(0.2, 1.0) : 0.0;
      const double h2 = tc.hold ? rng.uniform(0.2, 1.0) : 0.0;
      // Non-zero starting gradients: backward accumulates (+=).
      std::vector<double> gx(nc), gy(nc);
      for (size_t c = 0; c < nc; ++c) {
        gx[c] = rng.uniform(-1.0, 1.0);
        gy[c] = rng.uniform(-1.0, 1.0);
      }
      std::vector<double> rx = gx, ry = gy;
      dt.backward(t1, t2, h1, h2, gx, gy);
      ref::backward(dt, tc.wire_model, t1, t2, h1, h2, rx, ry);
      for (size_t c = 0; c < nc; ++c) {
        EXPECT_EQ(gx[c], rx[c]) << "design " << design_idx << " iter " << iter
                                << " cell " << c;
        EXPECT_EQ(gy[c], ry[c]) << "design " << design_idx << " iter " << iter
                                << " cell " << c;
      }
      jitter(design, rng, 1.5, x, y);
    }
    EXPECT_EQ(rebuilds, 3);  // iterations 0, 3, 6
  }
}

INSTANTIATE_TEST_SUITE_P(
    WireModelAndHold, AdjointDifferential,
    ::testing::Values(AdjointCase{sta::WireDelayModel::Elmore, false},
                      AdjointCase{sta::WireDelayModel::Elmore, true},
                      AdjointCase{sta::WireDelayModel::D2M, false},
                      AdjointCase{sta::WireDelayModel::D2M, true}),
    [](const ::testing::TestParamInfo<AdjointCase>& info) {
      return std::string(info.param.wire_model == sta::WireDelayModel::D2M
                             ? "D2M"
                             : "Elmore") +
             (info.param.hold ? "Hold" : "Setup");
    });

TEST(FlatGradients, AdjointGradientIsNonTrivial) {
  // Guards the comparison above against vacuous equality (all-zero output).
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  Rng rng(5);
  const netlist::Design design = random_miniblue(lib, rng, 0);
  const sta::TimingGraph graph(design.netlist);
  dtimer::DiffTimer dt(design, graph, {});
  dt.forward(design.cell_x, design.cell_y);
  const size_t nc = design.netlist.num_cells();
  std::vector<double> gx(nc, 0.0), gy(nc, 0.0);
  dt.backward(1.0, 1.0, gx, gy);
  size_t nonzero = 0;
  for (size_t c = 0; c < nc; ++c) nonzero += (gx[c] != 0.0 || gy[c] != 0.0);
  EXPECT_GT(nonzero, nc / 10);
}

TEST(WirelengthDifferential, PlaneMatchesAosReferenceBitwise) {
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  Rng rng(77);
  for (size_t design_idx = 0; design_idx < 4; ++design_idx) {
    const netlist::Design design = random_miniblue(lib, rng, design_idx * 2 + 1);
    const netlist::Netlist& nl = design.netlist;
    const size_t ignore_degree = design_idx % 2 == 0 ? 128 : 6;
    placer::WirelengthModel wl(design, ignore_degree);
    const std::vector<NetId> nets = ref::active_nets(nl, ignore_degree);
    ASSERT_EQ(wl.active_nets(), nets);
    for (double& w : wl.net_weights()) w = rng.uniform(0.5, 3.0);

    const size_t nc = nl.num_cells();
    std::vector<double> x(design.cell_x.begin(), design.cell_x.end());
    std::vector<double> y(design.cell_y.begin(), design.cell_y.end());
    for (int iter = 0; iter < 4; ++iter) {
      const double gamma = rng.uniform(0.3, 4.0);
      wl.set_gamma(gamma);
      std::vector<double> gx(nc), gy(nc);
      for (size_t c = 0; c < nc; ++c) {
        gx[c] = rng.uniform(-1.0, 1.0);
        gy[c] = rng.uniform(-1.0, 1.0);
      }
      std::vector<double> rx = gx, ry = gy;
      const double value = wl.value_and_gradient(x, y, gx, gy);
      const double ref_value = ref::wa_value_and_gradient(
          nl, nets, wl.net_weights(), gamma, x, y, rx, ry);
      EXPECT_EQ(value, ref_value);
      for (size_t c = 0; c < nc; ++c) {
        EXPECT_EQ(gx[c], rx[c]) << "cell " << c;
        EXPECT_EQ(gy[c], ry[c]) << "cell " << c;
      }
      EXPECT_EQ(wl.hpwl(x, y),
                ref::hpwl(nl, nets, wl.net_weights().data(), x, y));
      EXPECT_EQ(wl.hpwl_unweighted(x, y), ref::hpwl(nl, nets, nullptr, x, y));
      EXPECT_EQ(wl.cell_incidence_weights(),
                ref::cell_incidence_weights(nl, nets, wl.net_weights()));
      jitter(design, rng, 4.0, x, y);
    }
  }
}

}  // namespace
}  // namespace dtp
