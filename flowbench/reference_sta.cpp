#include "reference_sta.h"

#include <cmath>
#include <cstdio>
#include <limits>

namespace flowbench {

using dtp::netlist::Design;
using dtp::netlist::PinId;
using dtp::sta::Arc;
using dtp::sta::ArcKind;
using dtp::sta::TimingGraph;

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kPosInf = std::numeric_limits<double>::infinity();
constexpr int kRise = 0;

double override_or(const std::unordered_map<std::string, double>& m,
                   const std::string& key, double fallback) {
  const auto it = m.find(key);
  return it == m.end() ? fallback : it->second;
}

// Input transitions that drive output transition `tr_out` through an arc of
// the given unateness.
int driving_transitions(dtp::liberty::Unateness unate, int tr_out, int out[2]) {
  switch (unate) {
    case dtp::liberty::Unateness::Positive:
      out[0] = tr_out;
      return 1;
    case dtp::liberty::Unateness::Negative:
      out[0] = 1 - tr_out;
      return 1;
    case dtp::liberty::Unateness::NonUnate:
      out[0] = 0;
      out[1] = 1;
      return 2;
  }
  return 0;
}

class PullTimer {
 public:
  PullTimer(const Design& design, const TimingGraph& graph,
            const dtp::sta::Timer& elmore)
      : design_(design), graph_(graph), elmore_(elmore),
        memo_(design.netlist.num_pins()) {}

  struct Value {
    bool done = false;
    double at[2] = {kNegInf, kNegInf};
    double slew[2] = {0.0, 0.0};
  };

  const Value& eval(PinId p) {
    Value& memo = memo_[static_cast<size_t>(p)];
    if (memo.done) return memo;
    Value v;
    v.done = true;
    const dtp::netlist::Netlist& nl = design_.netlist;
    const auto fanin = graph_.fanin(p);
    if (fanin.empty()) {
      const dtp::netlist::Constraints& con = design_.constraints;
      double at0 = kNegInf, slew0 = nl.library().default_slew;
      if (graph_.pin_is_clock_source(p)) {
        at0 = 0.0;
        slew0 = con.clock_slew;
      } else if (nl.lib_cell_of(nl.pin(p).cell).kind ==
                 dtp::liberty::CellKind::PortIn) {
        const std::string& name = nl.cell(nl.pin(p).cell).name;
        at0 = override_or(con.input_delay_override, name, con.input_delay);
        slew0 = override_or(con.input_slew_override, name, con.input_slew);
      }
      v.at[0] = v.at[1] = at0;
      v.slew[0] = v.slew[1] = slew0;
      return memo_[static_cast<size_t>(p)] = v;
    }
    const Arc& first = graph_.arcs()[static_cast<size_t>(fanin[0])];
    if (first.kind == ArcKind::NetArc) {
      const Value u = eval(first.from);
      const auto nt = elmore_.net_timing(first.net);
      const size_t node = static_cast<size_t>(first.sink_index);
      for (int tr = 0; tr < 2; ++tr) {
        v.at[tr] = u.at[tr] + nt.delay[node];
        v.slew[tr] = std::sqrt(u.slew[tr] * u.slew[tr] + nt.imp2[node]);
      }
      return memo_[static_cast<size_t>(p)] = v;
    }
    const dtp::netlist::NetId out_net = graph_.driven_timing_net(p);
    const double load = out_net == dtp::netlist::kInvalidId
                            ? 0.0
                            : elmore_.net_timing(out_net).root_load();
    for (int tr_out = 0; tr_out < 2; ++tr_out) {
      double best_at = kNegInf, best_slew = kNegInf;
      for (const int ai : fanin) {
        const Arc& arc = graph_.arcs()[static_cast<size_t>(ai)];
        const dtp::liberty::TimingArc& lib = graph_.lib_arc(arc.lib_arc);
        const dtp::liberty::Lut& dlut =
            tr_out == kRise ? lib.cell_rise : lib.cell_fall;
        const dtp::liberty::Lut& slut =
            tr_out == kRise ? lib.rise_transition : lib.fall_transition;
        int trs[2];
        const int n = driving_transitions(lib.unate, tr_out, trs);
        const Value u = eval(arc.from);
        for (int k = 0; k < n; ++k) {
          const int tr_in = trs[k];
          if (!std::isfinite(u.at[tr_in])) continue;
          best_at = std::max(best_at,
                             u.at[tr_in] + dlut.lookup(u.slew[tr_in], load));
          best_slew = std::max(best_slew, slut.lookup(u.slew[tr_in], load));
        }
      }
      v.at[tr_out] = best_at;
      v.slew[tr_out] = std::isfinite(best_at) ? best_slew : 0.0;
    }
    return memo_[static_cast<size_t>(p)] = v;
  }

 private:
  const Design& design_;
  const TimingGraph& graph_;
  const dtp::sta::Timer& elmore_;
  std::vector<Value> memo_;
};

// Setup required time at endpoint `e` for transition slew `slew`.
double required_time(const Design& design, const TimingGraph& graph, size_t e,
                     double slew) {
  const dtp::netlist::Netlist& nl = design.netlist;
  const dtp::netlist::Constraints& con = design.constraints;
  const dtp::sta::Endpoint& ep = graph.endpoints()[e];
  if (ep.kind == dtp::sta::EndpointKind::PrimaryOutput) {
    const std::string& name = nl.cell(nl.pin(ep.pin).cell).name;
    return con.clock_period -
           override_or(con.output_delay_override, name, con.output_delay);
  }
  const dtp::liberty::LibCell& master = nl.lib_cell_of(nl.pin(ep.pin).cell);
  if (master.setup_lut.valid())
    return con.clock_period - master.setup_lut.lookup(slew, con.clock_slew);
  return con.clock_period - ep.setup;
}

bool close(double a, double b, double tol) {
  if (std::isinf(a) || std::isinf(b)) return a == b;
  return std::abs(a - b) <= tol * std::max(1.0, std::abs(b));
}

}  // namespace

ReferenceSlacks reference_slacks(const Design& design, const TimingGraph& graph,
                                 const dtp::sta::Timer& elmore_source) {
  PullTimer ref(design, graph, elmore_source);
  ReferenceSlacks out;
  out.endpoint_slack.assign(graph.endpoints().size(), kPosInf);
  double wns = kPosInf;
  for (size_t e = 0; e < graph.endpoints().size(); ++e) {
    const PullTimer::Value& v = ref.eval(graph.endpoints()[e].pin);
    double slack = kPosInf;
    for (int tr = 0; tr < 2; ++tr)
      if (std::isfinite(v.at[tr]))
        slack = std::min(slack,
                         required_time(design, graph, e, v.slew[tr]) - v.at[tr]);
    out.endpoint_slack[e] = slack;
    if (!std::isfinite(slack)) continue;
    wns = std::min(wns, slack);
    if (slack < 0.0) out.tns += slack;
  }
  out.wns = std::isfinite(wns) ? wns : 0.0;
  return out;
}

std::string compare_with_reference(const Design& design,
                                   const TimingGraph& graph,
                                   const dtp::sta::Timer& signoff,
                                   const dtp::sta::TimingMetrics& metrics) {
  constexpr double kTol = 1e-9;
  const ReferenceSlacks ref = reference_slacks(design, graph, signoff);
  char buf[256];
  const auto& slack = signoff.endpoint_slack();
  if (slack.size() != ref.endpoint_slack.size()) return "endpoint count differs";
  for (size_t e = 0; e < slack.size(); ++e) {
    if (!close(slack[e], ref.endpoint_slack[e], kTol)) {
      std::snprintf(buf, sizeof buf,
                    "endpoint %zu slack %.12g, reference %.12g", e, slack[e],
                    ref.endpoint_slack[e]);
      return buf;
    }
  }
  if (!close(metrics.wns, ref.wns, kTol)) {
    std::snprintf(buf, sizeof buf, "WNS %.12g, reference %.12g", metrics.wns,
                  ref.wns);
    return buf;
  }
  if (!close(metrics.tns, ref.tns, kTol)) {
    std::snprintf(buf, sizeof buf, "TNS %.12g, reference %.12g", metrics.tns,
                  ref.tns);
    return buf;
  }
  return {};
}

}  // namespace flowbench
