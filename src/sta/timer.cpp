#include "sta/timer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <queue>

#include "common/assert.h"
#include "common/smooth_math.h"
#include "common/thread_pool.h"
#include "obs/activity/activity_tracker.h"
#include "obs/trace.h"
#include "sta/cell_arc_eval.h"

namespace dtp::sta {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kPosInf = std::numeric_limits<double>::infinity();

// Estimated serial cost per timing-net pin of each tree kernel, from which
// the pool decides inline vs pooled and how many chunks the nets split into
// (ThreadPool::chunks_for).  Measured at one thread on the 3k- and 10k-cell
// flow benchmark designs (Release build, x86-64).
constexpr double kBuildNsPerPin = 480.0;
constexpr double kDragNsPerPin = 10.0;
constexpr double kElmoreNsPerPin = 42.0;

double lookup_override(const std::unordered_map<std::string, double>& overrides,
                       const std::string& key, double fallback) {
  const auto it = overrides.find(key);
  return it == overrides.end() ? fallback : it->second;
}
}  // namespace

Timer::Timer(const netlist::Design& design, const TimingGraph& graph,
             TimerOptions options)
    : design_(&design), graph_(&graph), options_(options) {
  const netlist::Netlist& nl = design.netlist;
  ws_ = std::make_unique<TimingWorkspace>(design, graph, options_.enable_early,
                                          options_.mode == AggMode::Smooth,
                                          options_.rsmt,
                                          ThreadPool::global().num_slots());

  // Source initial conditions.
  const netlist::Constraints& con = design.constraints;
  if (graph.num_levels() > 0) {
    for (PinId p : graph.level(0)) {
      double at0 = kNegInf;
      double slew0 = nl.library().default_slew;
      if (graph.pin_is_clock_source(p)) {
        at0 = 0.0;  // ideal clock: launch edge at t = 0
        slew0 = con.clock_slew;
      } else {
        const CellId c = nl.pin(p).cell;
        if (nl.lib_cell_of(c).kind == liberty::CellKind::PortIn) {
          const std::string& name = nl.cell(c).name;
          at0 = lookup_override(con.input_delay_override, name, con.input_delay);
          slew0 = lookup_override(con.input_slew_override, name, con.input_slew);
        }
      }
      for (int tr = 0; tr < 2; ++tr) {
        ws_->src_at[static_cast<size_t>(p) * 2 + static_cast<size_t>(tr)] = at0;
        ws_->src_slew[static_cast<size_t>(p) * 2 + static_cast<size_t>(tr)] =
            slew0;
      }
    }
  }

  level_profile_.resize(static_cast<size_t>(graph.num_levels()));
  for (const NetId n : graph.timing_nets())
    timing_net_pins_ += static_cast<double>(nl.net(n).pins.size());

  // Endpoint required arrival times (late/setup).
  const auto& endpoints = graph.endpoints();
  endpoint_rat_.resize(endpoints.size());
  for (size_t e = 0; e < endpoints.size(); ++e) {
    const Endpoint& ep = endpoints[e];
    double margin = ep.setup;
    if (ep.kind == EndpointKind::PrimaryOutput) {
      const std::string& name = nl.cell(nl.pin(ep.pin).cell).name;
      margin = lookup_override(con.output_delay_override, name, con.output_delay);
    }
    endpoint_rat_[e] = con.clock_period - margin;
  }
  endpoint_slack_.assign(endpoints.size(), kPosInf);
  endpoint_tr_weights_.assign(endpoints.size() * 2, 0.0);
  endpoint_hold_req_.resize(endpoints.size());
  for (size_t e = 0; e < endpoints.size(); ++e) {
    endpoint_hold_req_[e] =
        endpoints[e].kind == EndpointKind::FlopData ? endpoints[e].hold : 0.0;
  }
  endpoint_hold_slack_.assign(endpoints.size(), kPosInf);
  endpoint_hold_tr_weights_.assign(endpoints.size() * 2, 0.0);
  ep_setup_lut_.assign(endpoints.size(), nullptr);
  ep_hold_lut_.assign(endpoints.size(), nullptr);
  for (size_t e = 0; e < endpoints.size(); ++e) {
    if (endpoints[e].kind != EndpointKind::FlopData) continue;
    const liberty::LibCell& master = nl.lib_cell_of(nl.pin(endpoints[e].pin).cell);
    if (master.setup_lut.valid()) ep_setup_lut_[e] = &master.setup_lut;
    if (master.hold_lut.valid()) ep_hold_lut_[e] = &master.hold_lut;
  }
}

Timer::EndpointReq Timer::endpoint_setup_rat(size_t e, int tr) const {
  EndpointReq req;
  if (const liberty::Lut* lut = ep_setup_lut_[e]) {
    const PinId p = graph_->endpoints()[e].pin;
    const auto q = lut->lookup_grad(slew(p, tr), design_->constraints.clock_slew);
    // rat = T - setup(data slew, clock slew).
    req.value = design_->constraints.clock_period - q.value;
    req.d_dslew = -q.d_dx;
  } else {
    req.value = endpoint_rat_[e];
  }
  return req;
}

Timer::EndpointReq Timer::endpoint_hold_requirement(size_t e, int tr) const {
  EndpointReq req;
  if (const liberty::Lut* lut = ep_hold_lut_[e]) {
    const PinId p = graph_->endpoints()[e].pin;
    const double sl = ws_->slew_early.empty()
                          ? design_->netlist.library().default_slew
                          : ws_->slew_early[static_cast<size_t>(p) * 2 +
                                            static_cast<size_t>(tr)];
    const auto q = lut->lookup_grad(sl, design_->constraints.clock_slew);
    req.value = q.value;
    req.d_dslew = q.d_dx;
  } else {
    req.value = endpoint_hold_req_[e];
  }
  return req;
}

TimingMetrics Timer::evaluate(std::span<const double> cell_x,
                              std::span<const double> cell_y) {
  DTP_TRACE_SCOPE("sta_evaluate");
  update_positions(cell_x, cell_y);
  build_trees();
  run_elmore();
  propagate();
  update_slacks();
  return metrics_;
}

void Timer::update_positions(std::span<const double> cell_x,
                             std::span<const double> cell_y) {
  const netlist::Netlist& nl = design_->netlist;
  DTP_ASSERT(cell_x.size() == nl.num_cells() && cell_y.size() == nl.num_cells());
  for (size_t p = 0; p < nl.num_pins(); ++p) {
    const netlist::Pin& pin = nl.pin(static_cast<PinId>(p));
    const Vec2 off = nl.pin_offset(static_cast<PinId>(p));
    ws_->pin_pos[p] = {cell_x[static_cast<size_t>(pin.cell)] + off.x,
                       cell_y[static_cast<size_t>(pin.cell)] + off.y};
  }
}

void Timer::rebuild_tree(NetId n, size_t slot) {
  const netlist::Net& net = design_->netlist.net(n);
  rsmt::RsmtScratch& scratch = ws_->rsmt_scratch[slot];
  int driver_idx = 0;
  for (size_t k = 0; k < net.pins.size(); ++k) {
    scratch.pts[k] = ws_->pin_pos[static_cast<size_t>(net.pins[k])];
    if (net.pins[k] == net.driver) driver_idx = static_cast<int>(k);
  }
  ws_->forest.rebuild(n, scratch, static_cast<int>(net.pins.size()), driver_idx,
                      options_.rsmt);
}

void Timer::publish_rsmt_counts() {
  rsmt::RsmtCounts total;
  for (rsmt::RsmtScratch& scratch : ws_->rsmt_scratch) {
    total += scratch.counts;
    scratch.counts = {};
  }
  rsmt::publish_counts(total);
}

void Timer::build_trees() {
  DTP_TRACE_SCOPE("rsmt_build_trees");
  const auto& nets = graph_->timing_nets();
  ThreadPool& pool = ThreadPool::global();
  pool.parallel_for(0, nets.size(), pool.chunks_for(kBuildNsPerPin * timing_net_pins_),
                    [&](size_t slot, size_t i) { rebuild_tree(nets[i], slot); });
  publish_rsmt_counts();
  trees_built_ = true;
}

void Timer::drag_trees() {
  DTP_TRACE_SCOPE("rsmt_drag_trees");
  DTP_ASSERT_MSG(trees_built_, "drag_trees requires build_trees first");
  const netlist::Netlist& nl = design_->netlist;
  const auto& nets = graph_->timing_nets();
  ThreadPool& pool = ThreadPool::global();
  pool.parallel_for(
      0, nets.size(), pool.chunks_for(kDragNsPerPin * timing_net_pins_),
      [&](size_t, size_t i) {
        const NetId n = nets[i];
        const netlist::Net& net = nl.net(n);
        // In-place drag (paper §3.6): pin nodes take the fresh pin positions,
        // Steiner nodes copy their source pins' coordinates (Fig. 4).
        rsmt::SteinerTreeView t = ws_->forest.tree(n);
        for (int k = 0; k < t.num_pins; ++k)
          t.nodes[static_cast<size_t>(k)].pos =
              ws_->pin_pos[static_cast<size_t>(net.pins[static_cast<size_t>(k)])];
        for (size_t k = static_cast<size_t>(t.num_pins); k < t.nodes.size();
             ++k) {
          rsmt::SteinerNode& node = t.nodes[k];
          node.pos.x = t.nodes[static_cast<size_t>(node.x_src)].pos.x;
          node.pos.y = t.nodes[static_cast<size_t>(node.y_src)].pos.y;
        }
      });
}

void Timer::run_elmore() {
  DTP_TRACE_SCOPE("elmore_forward");
  const netlist::Constraints& con = design_->constraints;
  const auto& nets = graph_->timing_nets();
  ThreadPool& pool = ThreadPool::global();
  pool.parallel_for(0, nets.size(), pool.chunks_for(kElmoreNsPerPin * timing_net_pins_),
                    [&](size_t, size_t i) {
                      const NetId n = nets[i];
                      elmore_forward(ws_->net_view(n), ws_->net_pin_caps(n),
                                     con.wire_res, con.wire_cap,
                                     options_.wire_model);
                    });
}

void Timer::init_sources(bool early) {
  const size_t n = ws_->at.size();
  if (!early) {
    for (size_t i = 0; i < n; ++i) {
      ws_->at[i] = ws_->src_at[i];
      ws_->slew[i] = ws_->src_slew[i];
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      // Early arrival of a source equals its (single) arrival time; pins that
      // are not sources start at +inf so min-aggregation works.
      ws_->at_early[i] = std::isfinite(ws_->src_at[i]) ? ws_->src_at[i] : kPosInf;
      ws_->slew_early[i] = ws_->src_slew[i];
    }
  }
}

void Timer::set_activity_tracker(obs::ActivityTracker* tracker) {
  activity_ = tracker;
  if (tracker != nullptr && !tracker->configured())
    tracker->configure(graph_->level_offsets(), graph_->level_pins(),
                       design_->netlist.num_pins());
}

void Timer::propagate() {
  DTP_TRACE_SCOPE("sta_propagate");
  init_sources(/*early=*/false);
  sweep_levels(/*early=*/false);
  if (options_.enable_early) {
    init_sources(/*early=*/true);
    sweep_levels(/*early=*/true);
  }
  // Post-pass activity scan (late plane) — a read-only observer, so the
  // sweep results above are untouched.
  if (activity_ != nullptr)
    activity_->record_forward(ws_->at.data(), ws_->slew.data());
}

void Timer::sweep_levels(bool early) {
  // Level by level in flat (level-major, pin-ascending) schedule order,
  // serial on the calling thread; each level books its own wall-clock.
  DTP_PROF_SCOPE("sta_levels");
  for (int l = 1; l < graph_->num_levels(); ++l) {
    const auto start = std::chrono::steady_clock::now();
    for (const PinId p : graph_->level(l)) update_pin(p, early);
    level_profile_[static_cast<size_t>(l)].add_since(start);
  }
}

bool Timer::update_pin(PinId v, bool early) {
  TimingWorkspace& ws = *ws_;
  double* at = early ? ws.at_early.data() : ws.at.data();
  double* slew = early ? ws.slew_early.data() : ws.slew.data();
  const bool smooth = options_.mode == AggMode::Smooth;
  const double gamma = options_.gamma;

  const auto fanin = graph_->fanin(v);
  if (fanin.empty()) return false;  // sources keep their initial conditions
  const Arc& first = graph_->arcs()[static_cast<size_t>(fanin[0])];
  bool changed = false;
  auto store = [&](size_t idx, double value, double* array) {
    if (array[idx] != value) {
      array[idx] = value;
      changed = true;
    }
  };

  if (first.kind == ArcKind::NetArc) {
    // Exactly one fan-in net arc per pin (Eq. 9): no aggregation needed.
    DTP_ASSERT(fanin.size() == 1);
    // Tree pin index == net-pin index of the sink.
    const size_t node =
        static_cast<size_t>(ws.forest.node_offset(first.net)) +
        static_cast<size_t>(first.sink_index);
    const double d = ws.used_delay[node];
    const double imp2 = ws.imp2[node];
    for (int tr = 0; tr < 2; ++tr) {
      const size_t vi = static_cast<size_t>(v) * 2 + static_cast<size_t>(tr);
      const size_t ui = static_cast<size_t>(first.from) * 2 + static_cast<size_t>(tr);
      store(vi, at[ui] + d, at);                                    // Eq. 9a
      store(vi, std::sqrt(slew[ui] * slew[ui] + imp2), slew);       // Eq. 9b
    }
    return changed;
  }

  // Cell arcs: aggregate candidates per output transition (Eq. 11).  The late
  // corner writes its candidates into the workspace cache, where the backward
  // pass and the RAT sweep re-read them (in smooth mode the LSE writes its
  // softmax weights there too, for the backward pass); the early corner
  // gathers into the sweep scratch.
  // Live-stack-only label: per-pin, far too hot for the trace ring, but the
  // sampler sees the sweep inside the LUT-gather/aggregate section.
  DTP_PROF_SCOPE("lut_interp");
  const NetId out_net = graph_->driven_timing_net(v);
  const double load =
      out_net == netlist::kInvalidId ? 0.0 : ws.net_root_load(out_net);
  LevelScratch& scratch = ws.level_scratch;
  std::vector<double>& values = scratch.values;
  std::vector<double>& weights = scratch.weights;
  for (int tr_out = 0; tr_out < 2; ++tr_out) {
    const ArcCandidate* cands = nullptr;
    int count = 0;
    size_t cache_off = 0;
    if (!early) {
      cache_off = ws.cand_offset(v, tr_out);
      ArcCandidate* out = ws.cand.data() + cache_off;
      for (int ai : fanin) {
        const Arc& arc = graph_->arcs()[static_cast<size_t>(ai)];
        DTP_ASSERT(arc.kind == ArcKind::CellArc);
        gather_arc_candidates(graph_->lib_arc(arc.lib_arc), arc.from, tr_out,
                              at, slew, load, out, count);
      }
      ws.cand_count[static_cast<size_t>(v) * 2 + static_cast<size_t>(tr_out)] =
          count;
      cands = out;
    } else {
      scratch.cands.clear();
      for (int ai : fanin) {
        const Arc& arc = graph_->arcs()[static_cast<size_t>(ai)];
        DTP_ASSERT(arc.kind == ArcKind::CellArc);
        gather_arc_candidates(graph_->lib_arc(arc.lib_arc), arc.from, tr_out,
                              at, slew, load, scratch.cands);
      }
      cands = scratch.cands.data();
      count = static_cast<int>(scratch.cands.size());
    }
    const size_t vi = static_cast<size_t>(v) * 2 + static_cast<size_t>(tr_out);
    if (count == 0) {
      store(vi, early ? kPosInf : kNegInf, at);
      continue;
    }
    // Arrival time aggregation.
    const size_t n = static_cast<size_t>(count);
    values.resize(n);
    for (size_t k = 0; k < n; ++k) values[k] = cands[k].at_value;
    double agg;
    if (early)
      agg = smooth ? smooth_min(values, gamma, weights)
                   : hard_min(values, weights);
    else
      agg = smooth ? smooth_max(values.data(), n, gamma,
                                ws.cand_w_at.data() + cache_off)
                   : hard_max(values, weights);
    store(vi, agg, at);
    // Slew aggregation (Eq. 11d): late takes the worst (max) slew, early the
    // best (min).
    for (size_t k = 0; k < n; ++k) values[k] = cands[k].slew_q.value;
    if (early)
      agg = smooth ? smooth_min(values, gamma, weights)
                   : hard_min(values, weights);
    else
      agg = smooth ? smooth_max(values.data(), n, gamma,
                                ws.cand_w_slew.data() + cache_off)
                   : hard_max(values, weights);
    store(vi, agg, slew);
  }
  return changed;
}

TimingMetrics Timer::evaluate_incremental(std::span<const double> cell_x,
                                          std::span<const double> cell_y,
                                          std::span<const CellId> moved_cells) {
  DTP_ASSERT_MSG(trees_built_, "evaluate_incremental requires a prior evaluate()");
  const netlist::Netlist& nl = design_->netlist;
  const netlist::Constraints& con = design_->constraints;

  // 1. Refresh pin positions of the moved cells.
  for (const CellId c : moved_cells) {
    const netlist::Cell& cell = nl.cell(c);
    for (int k = 0; k < cell.num_pins; ++k) {
      const PinId p = cell.first_pin + k;
      const Vec2 off = nl.pin_offset(p);
      ws_->pin_pos[static_cast<size_t>(p)] = {
          cell_x[static_cast<size_t>(c)] + off.x,
          cell_y[static_cast<size_t>(c)] + off.y};
    }
  }

  // 2. Rebuild + re-time every affected timing net.
  thread_local std::vector<NetId> nets;
  nets.clear();
  for (const CellId c : moved_cells) {
    const netlist::Cell& cell = nl.cell(c);
    for (int k = 0; k < cell.num_pins; ++k) {
      const NetId n = nl.pin(cell.first_pin + k).net;
      if (n == netlist::kInvalidId || graph_->is_clock_net(n)) continue;
      if (!ws_->forest.has_tree(n)) continue;
      nets.push_back(n);
    }
  }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());

  // Level-ordered worklist of pins whose timing may have changed.
  using Entry = std::pair<int, PinId>;  // (level, pin)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> worklist;
  thread_local std::vector<char> queued;
  queued.assign(nl.num_pins(), 0);
  auto enqueue = [&](PinId p) {
    if (queued[static_cast<size_t>(p)]) return;
    queued[static_cast<size_t>(p)] = 1;
    worklist.emplace(graph_->level_of(p), p);
  };

  const size_t slot = ThreadPool::global().caller_slot();
  for (const NetId n : nets) {
    rebuild_tree(n, slot);
    elmore_forward(ws_->net_view(n), ws_->net_pin_caps(n), con.wire_res,
                   con.wire_cap, options_.wire_model);
    // Seeds: sinks (net delay changed) and the driver (its load changed).
    for (const PinId p : nl.net(n).pins)
      if (graph_->in_graph(p)) enqueue(p);
  }
  publish_rsmt_counts();

  // 3. Cone propagation in level order; unchanged pins cut the cone.  Every
  // recomputed pin refreshes its candidate-cache region, so the cache stays
  // consistent with the incremental state.
  size_t visited = 0;
  size_t num_changed = 0;
  while (!worklist.empty()) {
    const PinId v = worklist.top().second;
    worklist.pop();
    queued[static_cast<size_t>(v)] = 0;
    ++visited;
    bool changed = update_pin(v, /*early=*/false);
    if (options_.enable_early) changed |= update_pin(v, /*early=*/true);
    if (!changed) continue;
    ++num_changed;
    for (const int ai : graph_->fanout(v))
      enqueue(graph_->arcs()[static_cast<size_t>(ai)].to);
  }
  if (activity_ != nullptr) activity_->record_incremental(visited, num_changed);

  // 4. Refresh slacks/metrics (O(endpoints)).
  update_slacks();
  return metrics_;
}

void Timer::update_slacks() {
  DTP_TRACE_SCOPE("sta_update_slacks");
  const auto& endpoints = graph_->endpoints();
  const bool smooth = options_.mode == AggMode::Smooth;
  const double gamma = options_.gamma;

  TimingMetrics m;
  m.wns = kPosInf;
  m.wns_smooth = kPosInf;
  m.hold_wns = kPosInf;

  std::array<double, 2> slacks2;
  std::vector<double>& weights = ws_->w_at;
  std::vector<double>& smooth_ep_slacks = ws_->ep_scratch;
  smooth_ep_slacks.clear();

  for (size_t e = 0; e < endpoints.size(); ++e) {
    const Endpoint& ep = endpoints[e];
    bool reachable = false;
    for (int tr = 0; tr < 2; ++tr) {
      const double a = at(ep.pin, tr);
      slacks2[static_cast<size_t>(tr)] =
          std::isfinite(a) ? endpoint_setup_rat(e, tr).value - a : kPosInf;
      reachable |= std::isfinite(a);
    }
    if (!reachable) {
      endpoint_slack_[e] = kPosInf;
      endpoint_tr_weights_[e * 2] = endpoint_tr_weights_[e * 2 + 1] = 0.0;
      continue;
    }
    // Exact endpoint slack (worst transition) for reported metrics.
    const double hard_slack = std::min(slacks2[0], slacks2[1]);
    m.wns = std::min(m.wns, hard_slack);
    if (hard_slack < 0.0) {
      m.tns += hard_slack;
      ++m.num_violations;
    }
    if (smooth) {
      // +inf slack of an unreachable transition is fine: exp(-inf) = 0.
      const double s = smooth_min(slacks2, gamma, weights);
      endpoint_slack_[e] = s;
      endpoint_tr_weights_[e * 2] = weights[0];
      endpoint_tr_weights_[e * 2 + 1] = weights[1];
      smooth_ep_slacks.push_back(s);
    } else {
      endpoint_slack_[e] = hard_slack;
      endpoint_tr_weights_[e * 2] = slacks2[0] <= slacks2[1] ? 1.0 : 0.0;
      endpoint_tr_weights_[e * 2 + 1] = 1.0 - endpoint_tr_weights_[e * 2];
    }
  }
  if (!std::isfinite(m.wns)) m.wns = 0.0;  // no reachable endpoints

  if (smooth && !smooth_ep_slacks.empty()) {
    m.wns_smooth = smooth_min(smooth_ep_slacks, gamma, weights);
    m.tns_smooth = 0.0;
    for (double s : smooth_ep_slacks) m.tns_smooth += std::min(0.0, s);
  } else {
    m.wns_smooth = m.wns;
    m.tns_smooth = m.tns;
  }

  // Hold metrics from early arrivals (hold slack = at_early - requirement;
  // smooth mode also fills the smoothed aggregates and seed weights).  The
  // setup aggregates above are final, so the endpoint scratch is reused.
  if (options_.enable_early) {
    m.hold_wns = kPosInf;
    std::vector<double>& smooth_hold_slacks = ws_->ep_scratch;
    smooth_hold_slacks.clear();
    for (size_t e = 0; e < endpoints.size(); ++e) {
      const Endpoint& ep = endpoints[e];
      bool reachable = false;
      for (int tr = 0; tr < 2; ++tr) {
        const double a = at_early(ep.pin, tr);
        slacks2[static_cast<size_t>(tr)] =
            std::isfinite(a) ? a - endpoint_hold_requirement(e, tr).value
                             : kPosInf;
        reachable |= std::isfinite(a);
      }
      if (!reachable) {
        endpoint_hold_slack_[e] = kPosInf;
        endpoint_hold_tr_weights_[e * 2] = endpoint_hold_tr_weights_[e * 2 + 1] =
            0.0;
        continue;
      }
      const double hard_slack = std::min(slacks2[0], slacks2[1]);
      m.hold_wns = std::min(m.hold_wns, hard_slack);
      if (hard_slack < 0.0) m.hold_tns += hard_slack;
      if (smooth) {
        const double sv = smooth_min(slacks2, gamma, weights);
        endpoint_hold_slack_[e] = sv;
        endpoint_hold_tr_weights_[e * 2] = weights[0];
        endpoint_hold_tr_weights_[e * 2 + 1] = weights[1];
        smooth_hold_slacks.push_back(sv);
      } else {
        endpoint_hold_slack_[e] = hard_slack;
        endpoint_hold_tr_weights_[e * 2] = slacks2[0] <= slacks2[1] ? 1.0 : 0.0;
        endpoint_hold_tr_weights_[e * 2 + 1] =
            1.0 - endpoint_hold_tr_weights_[e * 2];
      }
    }
    if (!std::isfinite(m.hold_wns)) m.hold_wns = 0.0;
    if (smooth && !smooth_hold_slacks.empty()) {
      m.hold_wns_smooth = smooth_min(smooth_hold_slacks, gamma, weights);
      m.hold_tns_smooth = 0.0;
      for (double sv : smooth_hold_slacks)
        m.hold_tns_smooth += std::min(0.0, sv);
    } else {
      m.hold_wns_smooth = m.hold_wns;
      m.hold_tns_smooth = m.hold_tns;
    }
  } else {
    m.hold_wns = 0.0;
  }

  metrics_ = m;
}

void Timer::update_required() {
  TimingWorkspace& ws = *ws_;
  std::fill(ws.rat.begin(), ws.rat.end(), kPosInf);
  std::vector<double>& rat = ws.rat;

  // Seed endpoints.
  const auto& endpoints = graph_->endpoints();
  for (size_t e = 0; e < endpoints.size(); ++e) {
    const PinId p = endpoints[e].pin;
    for (int tr = 0; tr < 2; ++tr)
      rat[static_cast<size_t>(p) * 2 + static_cast<size_t>(tr)] =
          std::min(rat[static_cast<size_t>(p) * 2 + static_cast<size_t>(tr)],
                   endpoint_setup_rat(e, tr).value);
  }

  // Sweep levels in reverse, relaxing RAT(from) from each fan-in arc of the
  // current pin (every arc is visited exactly once this way).  Cell-arc
  // delays come from the candidate cache the forward sweep recorded.
  for (int l = graph_->num_levels() - 1; l >= 1; --l) {
    for (const PinId v : graph_->level(l)) {
      const auto fanin = graph_->fanin(v);
      if (fanin.empty()) continue;
      const Arc& first = graph_->arcs()[static_cast<size_t>(fanin[0])];
      if (first.kind == ArcKind::NetArc) {
        const size_t node =
            static_cast<size_t>(ws.forest.node_offset(first.net)) +
            static_cast<size_t>(first.sink_index);
        const double d = ws.used_delay[node];
        for (int tr = 0; tr < 2; ++tr) {
          const size_t vi = static_cast<size_t>(v) * 2 + static_cast<size_t>(tr);
          const size_t ui =
              static_cast<size_t>(first.from) * 2 + static_cast<size_t>(tr);
          rat[ui] = std::min(rat[ui], rat[vi] - d);
        }
      } else {
        for (int tr_out = 0; tr_out < 2; ++tr_out) {
          const size_t vi = static_cast<size_t>(v) * 2 + static_cast<size_t>(tr_out);
          if (!std::isfinite(rat[vi])) continue;
          const ArcCandidate* cands = ws.cand_ptr(v, tr_out);
          const int count =
              ws.cand_count[static_cast<size_t>(v) * 2 +
                            static_cast<size_t>(tr_out)];
          for (int k = 0; k < count; ++k) {
            const ArcCandidate& c = cands[k];
            const size_t ui =
                static_cast<size_t>(c.from) * 2 + static_cast<size_t>(c.tr_in);
            rat[ui] = std::min(rat[ui], rat[vi] - c.delay_q.value);
          }
        }
      }
    }
  }
}

double Timer::pin_slack(PinId p) const {
  double worst = kPosInf;
  for (int tr = 0; tr < 2; ++tr) {
    const size_t i = static_cast<size_t>(p) * 2 + static_cast<size_t>(tr);
    if (std::isfinite(ws_->rat[i]) && std::isfinite(ws_->at[i]))
      worst = std::min(worst, ws_->rat[i] - ws_->at[i]);
  }
  return worst;
}

std::vector<Timer::PathNode> Timer::trace_critical_path(PinId endpoint) const {
  std::vector<PathNode> path;
  // Worst transition at the endpoint.
  int tr = at(endpoint, kRise) >= at(endpoint, kFall) ? kRise : kFall;
  PinId p = endpoint;
  while (true) {
    path.push_back({p, tr, at(p, tr)});
    const auto fanin = graph_->fanin(p);
    if (fanin.empty()) break;
    const Arc& first = graph_->arcs()[static_cast<size_t>(fanin[0])];
    if (first.kind == ArcKind::NetArc) {
      p = first.from;  // same transition through the wire
      continue;
    }
    // Pick the cell-arc candidate with the largest arrival.
    const NetId out_net = graph_->driven_timing_net(p);
    const double load =
        out_net == netlist::kInvalidId ? 0.0 : ws_->net_root_load(out_net);
    std::vector<ArcCandidate> cands;
    for (int ai : fanin) {
      const Arc& arc = graph_->arcs()[static_cast<size_t>(ai)];
      gather_arc_candidates(graph_->lib_arc(arc.lib_arc), arc.from, tr,
                            ws_->at.data(), ws_->slew.data(), load, cands);
    }
    if (cands.empty()) break;
    size_t best = 0;
    for (size_t k = 1; k < cands.size(); ++k)
      if (cands[k].at_value > cands[best].at_value) best = k;
    p = cands[best].from;
    tr = cands[best].tr_in;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace dtp::sta
