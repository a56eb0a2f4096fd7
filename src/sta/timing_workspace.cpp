#include "sta/timing_workspace.h"

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>

namespace dtp::sta {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kPosInf = std::numeric_limits<double>::infinity();

double lookup_override(const std::unordered_map<std::string, double>& overrides,
                       const std::string& key, double fallback) {
  const auto it = overrides.find(key);
  return it == overrides.end() ? fallback : it->second;
}
}  // namespace

TimingWorkspace::TimingWorkspace(const netlist::Design& design,
                                 const TimingGraph& graph, bool enable_early,
                                 bool smooth,
                                 const rsmt::RsmtOptions& rsmt_opts,
                                 size_t num_slots) {
  const netlist::Netlist& nl = design.netlist;
  const netlist::Constraints& con = design.constraints;
  const size_t n_pins = nl.num_pins();
  const size_t n_nets = nl.num_nets();
  const size_t n_eps = graph.endpoints().size();

  // ---- Steiner forest + per-node arenas ----
  forest = rsmt::SteinerForest(n_nets);
  size_t max_degree = 0;
  for (NetId n : graph.timing_nets()) {
    const size_t deg = nl.net(n).pins.size();
    forest.set_capacity(n, rsmt::max_tree_nodes(deg, rsmt_opts));
    max_degree = std::max(max_degree, deg);
  }
  forest.finalize();
  const size_t total = forest.total_capacity();
  edge_len.assign(total, 0.0);
  edge_res.assign(total, 0.0);
  node_cap.assign(total, 0.0);
  load.assign(total, 0.0);
  delay.assign(total, 0.0);
  ldelay.assign(total, 0.0);
  beta.assign(total, 0.0);
  imp2.assign(total, 0.0);
  used_delay.assign(total, 0.0);
  imp2_clamped.assign(total, 0);
  d2m_degenerate.assign(total, 0);
  g_net_delay.assign(total, 0.0);
  g_net_imp2.assign(total, 0.0);
  for (size_t n = 0; n < n_nets; ++n) {
    max_net_nodes_ = std::max(
        max_net_nodes_,
        static_cast<size_t>(forest.node_capacity(static_cast<NetId>(n))));
  }

  // ---- per-net sink pin caps (PO pads add the constraint's output load) ----
  pin_cap_offsets.assign(n_nets + 1, 0);
  for (NetId n : graph.timing_nets())
    pin_cap_offsets[static_cast<size_t>(n) + 1] =
        static_cast<int>(nl.net(n).pins.size());
  for (size_t n = 0; n < n_nets; ++n)
    pin_cap_offsets[n + 1] += pin_cap_offsets[n];
  pin_caps.assign(static_cast<size_t>(pin_cap_offsets[n_nets]), 0.0);
  pin_ids.assign(pin_caps.size(), netlist::kInvalidId);
  for (NetId n : graph.timing_nets()) {
    const netlist::Net& net = nl.net(n);
    const size_t base =
        static_cast<size_t>(pin_cap_offsets[static_cast<size_t>(n)]);
    double* caps = pin_caps.data() + base;
    for (size_t k = 0; k < net.pins.size(); ++k) {
      const PinId p = net.pins[k];
      pin_ids[base + k] = p;
      double cap = nl.pin_cap(p);
      const CellId c = nl.pin(p).cell;
      if (nl.lib_cell_of(c).kind == liberty::CellKind::PortOut)
        cap += lookup_override(con.output_load_override, nl.cell(c).name,
                               con.output_load);
      caps[k] = cap;
    }
  }

  // ---- per-pin forward state ----
  pin_pos.resize(n_pins);
  at.assign(n_pins * 2, kNegInf);
  slew.assign(n_pins * 2, nl.library().default_slew);
  if (enable_early) {
    at_early.assign(n_pins * 2, kPosInf);
    slew_early.assign(n_pins * 2, nl.library().default_slew);
  }
  rat.assign(n_pins * 2, kPosInf);
  src_at.assign(n_pins * 2, kNegInf);
  src_slew.assign(n_pins * 2, nl.library().default_slew);

  // ---- candidate cache layout (static candidate count per transition) ----
  cand_base.assign(n_pins, -1);
  cand_tr_cap.assign(n_pins, 0);
  cand_count.assign(n_pins * 2, 0);
  size_t cand_total = 0;
  size_t max_fanin = 1;
  for (size_t p = 0; p < n_pins; ++p) {
    const auto fanin = graph.fanin(static_cast<PinId>(p));
    if (fanin.empty()) continue;
    if (graph.arcs()[static_cast<size_t>(fanin[0])].kind != ArcKind::CellArc)
      continue;
    int per_tr = 0;
    for (const int ai : fanin) {
      int trs[2];
      per_tr += input_transitions(
          graph.lib_arc(graph.arcs()[static_cast<size_t>(ai)].lib_arc).unate,
          kRise, trs);
    }
    max_fanin = std::max(max_fanin, fanin.size());
    cand_base[p] = static_cast<int>(cand_total);
    cand_tr_cap[p] = per_tr;
    cand_total += 2 * static_cast<size_t>(per_tr);
  }
  cand.resize(cand_total);
  if (smooth) {
    cand_w_at.assign(cand_total, 0.0);
    cand_w_slew.assign(cand_total, 0.0);
  }
  // The vector-appending gather reserves two slots per arc before trimming.
  max_candidates_ = 2 * max_fanin;

  // ---- load-axis classes, one per graph liberty arc ----
  // An arc's class is the first arc with an identical load axis; its
  // representative is the arc itself.
  load_axis_class.assign(graph.num_lib_arcs(), -1);
  for (size_t a = 0; a < load_axis_class.size(); ++a) {
    const liberty::TimingArc& lib = graph.lib_arc(static_cast<int>(a));
    if (!tables_share_axes(lib)) continue;
    int cls = static_cast<int>(a);
    for (size_t b = 0; b < a; ++b) {
      if (load_axis_class[b] == static_cast<int>(b) &&
          graph.lib_arc(static_cast<int>(b)).cell_rise.same_y_axis(lib.cell_rise)) {
        cls = static_cast<int>(b);
        break;
      }
    }
    load_axis_class[a] = cls;
  }

  // ---- static slot records ----
  const auto schedule = graph.level_pins();
  records.resize(schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) {
    const PinId v = schedule[i];
    SlotRecord& r = records[i];
    r.pin = v;
    r.driven = graph.driven_timing_net(v);
    const auto fanin = graph.fanin(v);
    if (fanin.empty()) continue;
    const Arc& first = graph.arcs()[static_cast<size_t>(fanin[0])];
    if (first.kind == ArcKind::NetArc) {
      r.kind = Fanin::Net;
      r.from = first.from;
      r.node = forest.node_offset(first.net) + first.sink_index;
    } else {
      r.kind = Fanin::Cell;
    }
  }

  // ---- adjoint state ----
  g_at.assign(n_pins * 2, 0.0);
  g_slew.assign(n_pins * 2, 0.0);
  if (enable_early) {
    g_at_early.assign(n_pins * 2, 0.0);
    g_slew_early.assign(n_pins * 2, 0.0);
  }
  g_load.assign(n_nets, 0.0);
  pin_gx.assign(n_pins, 0.0);
  pin_gy.assign(n_pins, 0.0);

  // ---- scratch (reserved; the hot loops resize within capacity only) ----
  rsmt_scratch.assign(num_slots, rsmt::RsmtScratch(max_degree, rsmt_opts));
  level_scratch.cands.reserve(max_candidates_);
  level_scratch.values.reserve(max_candidates_);
  level_scratch.weights.reserve(max_candidates_);
  values.reserve(max_candidates_);
  w_at.reserve(max_candidates_);
  w_slew.reserve(max_candidates_);
  cands.reserve(max_candidates_);
  ep_scratch.reserve(n_eps);
  ep_finite.reserve(n_eps);
  ep_weights.reserve(n_eps);
  ep_finite_idx.reserve(n_eps);
  ep_g.assign(n_eps, 0.0);
  el_gbeta.assign(max_net_nodes_, 0.0);
  el_gldelay.assign(max_net_nodes_, 0.0);
  el_gdelay.assign(max_net_nodes_, 0.0);
  el_gload.assign(max_net_nodes_, 0.0);
  scratch_gx.assign(max_net_nodes_, 0.0);
  scratch_gy.assign(max_net_nodes_, 0.0);
  scratch_gbeta.assign(max_net_nodes_, 0.0);
}

}  // namespace dtp::sta
