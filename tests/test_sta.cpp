// STA forward propagation: chain-circuit hand validation, smoothing
// properties, early/late consistency, slack bookkeeping.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>

#include "liberty/liberty_io.h"
#include "liberty/synth_library.h"
#include "sta/cell_arc_eval.h"
#include "sta/timer.h"
#include "workload/circuit_gen.h"

namespace dtp::sta {
namespace {

using netlist::CellId;
using netlist::Design;
using netlist::NetId;

// pi -> BUF u0 -> BUF u1 -> po : a single positive-unate path, so arrival
// times can be recomputed step by step in the test.
struct ChainDesign {
  liberty::CellLibrary lib = liberty::make_synthetic_library();
  Design design{&lib, "chain"};
  CellId pi, u0, u1, po;

  ChainDesign() {
    auto& nl = design.netlist;
    pi = nl.add_cell("pi", lib.find_cell(liberty::CellLibrary::kPortInName));
    u0 = nl.add_cell("u0", lib.find_cell("BUF_X1"));
    u1 = nl.add_cell("u1", lib.find_cell("BUF_X1"));
    po = nl.add_cell("po", lib.find_cell(liberty::CellLibrary::kPortOutName));
    const NetId n0 = nl.add_net("n0");
    nl.connect(n0, pi, "PAD");
    nl.connect(n0, u0, "A");
    const NetId n1 = nl.add_net("n1");
    nl.connect(n1, u0, "Z");
    nl.connect(n1, u1, "A");
    const NetId n2 = nl.add_net("n2");
    nl.connect(n2, u1, "Z");
    nl.connect(n2, po, "PAD");
    nl.validate();
    design.init_positions();
    // Spread the cells so wires have real length.
    design.cell_x = {0.0, 40.0, 90.0, 150.0};
    design.cell_y = {0.0, 10.0, 30.0, 0.0};
    design.constraints.clock_period = 0.4;
  }
};

TEST(Sta, ChainArrivalTimesHandComputed) {
  ChainDesign cd;
  auto& nl = cd.design.netlist;
  const TimingGraph graph(nl);
  Timer timer(cd.design, graph);
  timer.evaluate(cd.design.cell_x, cd.design.cell_y);

  const auto& con = cd.design.constraints;
  const liberty::LibCell& buf = cd.lib.cell(cd.lib.find_cell("BUF_X1"));
  const liberty::TimingArc& arc = buf.arcs[0];

  // Stage by stage, rise transition only (positive unate chain).
  const netlist::PinId pi_pad = nl.pin_of_cell(cd.pi, "PAD");
  EXPECT_DOUBLE_EQ(timer.at(pi_pad, kRise), con.input_delay);
  EXPECT_DOUBLE_EQ(timer.slew(pi_pad, kRise), con.input_slew);

  // Net n0: 2-pin Elmore.
  const NetId n0 = nl.find_net("n0");
  const auto nt0 = timer.net_timing(n0);
  const netlist::PinId u0_a = nl.pin_of_cell(cd.u0, "A");
  const size_t sink0 = nl.net(n0).pins[1] == u0_a ? 1 : 0;
  const double at_u0a = con.input_delay + nt0.delay[sink0];
  EXPECT_NEAR(timer.at(u0_a, kRise), at_u0a, 1e-12);
  const double slew_u0a =
      std::sqrt(con.input_slew * con.input_slew + nt0.imp2[sink0]);
  EXPECT_NEAR(timer.slew(u0_a, kRise), slew_u0a, 1e-12);

  // Cell u0: LUT query at (slew(A), load(n1)).
  const NetId n1 = nl.find_net("n1");
  const double load1 = timer.net_timing(n1).root_load();
  const double d_u0 = arc.cell_rise.lookup(slew_u0a, load1);
  const netlist::PinId u0_z = nl.pin_of_cell(cd.u0, "Z");
  EXPECT_NEAR(timer.at(u0_z, kRise), at_u0a + d_u0, 1e-12);
  EXPECT_NEAR(timer.slew(u0_z, kRise), arc.rise_transition.lookup(slew_u0a, load1),
              1e-12);

  // Endpoint slack: rat = period - output_delay; slack = rat - worst at(po).
  const netlist::PinId po_pad = nl.pin_of_cell(cd.po, "PAD");
  const double worst_at = std::max(timer.at(po_pad, kRise), timer.at(po_pad, kFall));
  const auto m = timer.metrics();
  EXPECT_NEAR(m.wns, con.clock_period - con.output_delay - worst_at, 1e-12);
  ASSERT_EQ(graph.endpoints().size(), 1u);
  EXPECT_NEAR(timer.endpoint_slack()[0], m.wns, 1e-12);
}

TEST(Sta, FallSlowerThanRiseOnInvertingStage) {
  // The synthetic library makes rise edges slower; through a buffer the
  // rise output derives from a rise input, so at(rise) > at(fall).
  ChainDesign cd;
  const TimingGraph graph(cd.design.netlist);
  Timer timer(cd.design, graph);
  timer.evaluate(cd.design.cell_x, cd.design.cell_y);
  const netlist::PinId po_pad = cd.design.netlist.pin_of_cell(cd.po, "PAD");
  EXPECT_GT(timer.at(po_pad, kRise), timer.at(po_pad, kFall));
}

TEST(Sta, SmoothUpperBoundsHardAndConverges) {
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  workload::WorkloadOptions opts;
  opts.num_cells = 300;
  opts.seed = 11;
  Design d = workload::generate_design(lib, opts);
  const TimingGraph graph(d.netlist);

  Timer hard(d, graph);
  const auto mh = hard.evaluate(d.cell_x, d.cell_y);

  double prev_gap = 1e100;
  for (double gamma : {0.05, 0.01, 0.002}) {
    TimerOptions sopts;
    sopts.mode = AggMode::Smooth;
    sopts.gamma = gamma;
    Timer smooth(d, graph, sopts);
    const auto ms = smooth.evaluate(d.cell_x, d.cell_y);
    // Smoothed max bounds hard max from above => smoothed ATs are later =>
    // smoothed WNS is no better (no larger) than hard WNS.
    EXPECT_LE(ms.wns_smooth, mh.wns + 1e-9);
    const double gap = std::abs(ms.wns_smooth - mh.wns);
    EXPECT_LE(gap, prev_gap + 1e-12);
    prev_gap = gap;
  }
  // Tight convergence at the smallest gamma.
  EXPECT_LT(prev_gap, 0.01 * std::abs(mh.wns) + 1e-3);
}

TEST(Sta, EarlyNeverLaterThanLate) {
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  workload::WorkloadOptions opts;
  opts.num_cells = 250;
  opts.seed = 19;
  Design d = workload::generate_design(lib, opts);
  const TimingGraph graph(d.netlist);
  TimerOptions topts;
  topts.enable_early = true;
  Timer timer(d, graph, topts);
  timer.evaluate(d.cell_x, d.cell_y);
  for (int l = 0; l < graph.num_levels(); ++l) {
    for (netlist::PinId p : graph.level(l)) {
      for (int tr = 0; tr < 2; ++tr) {
        const double late = timer.at(p, tr);
        const double early = timer.at_early(p, tr);
        if (std::isfinite(late) && std::isfinite(early)) {
          EXPECT_LE(early, late + 1e-9) << "pin " << p;
        }
      }
    }
  }
}

TEST(Sta, TnsAccumulatesOnlyViolations) {
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  workload::WorkloadOptions opts;
  opts.num_cells = 300;
  opts.seed = 23;
  opts.clock_scale = 0.5;  // force violations
  Design d = workload::generate_design(lib, opts);
  const TimingGraph graph(d.netlist);
  Timer timer(d, graph);
  const auto m = timer.evaluate(d.cell_x, d.cell_y);
  EXPECT_LT(m.wns, 0.0);
  EXPECT_LE(m.tns, m.wns);  // TNS includes at least the worst endpoint
  double tns = 0.0;
  size_t viol = 0;
  for (double s : timer.endpoint_slack()) {
    if (std::isfinite(s) && s < 0) {
      tns += s;
      ++viol;
    }
  }
  EXPECT_NEAR(m.tns, tns, 1e-9);
  EXPECT_EQ(m.num_violations, viol);
}

TEST(Sta, LongerClockPeriodRaisesSlack) {
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  workload::WorkloadOptions opts;
  opts.num_cells = 200;
  opts.seed = 29;
  Design d = workload::generate_design(lib, opts);
  const TimingGraph graph(d.netlist);
  Timer t1(d, graph);
  const double wns1 = t1.evaluate(d.cell_x, d.cell_y).wns;
  d.constraints.clock_period += 0.5;
  Timer t2(d, graph);
  const double wns2 = t2.evaluate(d.cell_x, d.cell_y).wns;
  EXPECT_NEAR(wns2 - wns1, 0.5, 1e-9);
}

TEST(Sta, CriticalPathTraceEndsAtSource) {
  const liberty::CellLibrary lib = liberty::make_synthetic_library();
  workload::WorkloadOptions opts;
  opts.num_cells = 300;
  opts.seed = 31;
  Design d = workload::generate_design(lib, opts);
  const TimingGraph graph(d.netlist);
  Timer timer(d, graph);
  timer.evaluate(d.cell_x, d.cell_y);

  // Find the worst endpoint and trace.
  size_t worst = 0;
  for (size_t e = 1; e < graph.endpoints().size(); ++e)
    if (timer.endpoint_slack()[e] < timer.endpoint_slack()[worst]) worst = e;
  const auto path = timer.trace_critical_path(graph.endpoints()[worst].pin);
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(graph.level_of(path.front().pin), 0);
  EXPECT_EQ(path.back().pin, graph.endpoints()[worst].pin);
  // Arrival times are non-decreasing along the path.
  for (size_t i = 1; i < path.size(); ++i)
    EXPECT_GE(path[i].at, path[i - 1].at - 1e-12);
}

TEST(Sta, DragMatchesRebuildWhenTopologyUnchanged) {
  // Tiny motion: drag and rebuild should produce identical timing when the
  // tree topology does not change.
  ChainDesign cd;
  const TimingGraph graph(cd.design.netlist);
  Timer timer(cd.design, graph);
  timer.evaluate(cd.design.cell_x, cd.design.cell_y);

  auto x = cd.design.cell_x;
  x[1] += 0.5;  // nudge u0
  timer.update_positions(x, cd.design.cell_y);
  timer.drag_trees();
  timer.run_elmore();
  timer.propagate();
  timer.update_slacks();
  const double wns_drag = timer.metrics().wns;

  Timer fresh(cd.design, graph);
  const double wns_rebuild = fresh.evaluate(x, cd.design.cell_y).wns;
  EXPECT_NEAR(wns_drag, wns_rebuild, 1e-12);
}

// The table with `lut`'s values over its axes scaled by (sx, sy).
liberty::Lut rescaled(const liberty::Lut& lut, double sx, double sy) {
  std::vector<double> xs(lut.x_axis().begin(), lut.x_axis().end());
  std::vector<double> ys(lut.y_axis().begin(), lut.y_axis().end());
  for (double& x : xs) x *= sx;
  for (double& y : ys) y *= sy;
  return liberty::Lut(xs, ys, {lut.values().begin(), lut.values().end()});
}

bool same_bits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// A Liberty-parsed library in which two cells' tables do not share their
// axes: NAND2_X1's transition tables have another slew axis than its delay
// tables, and INV_X1's fall tables another load axis than its rise tables.
// Their arcs take the per-table search fallback (load-axis class -1), every
// other arc the shared searches, and every cached LUT query equals two
// lookup_grad calls on the arc's own tables, bit for bit.
TEST(Sta, LutAxisFallbackMatchesPerTableQueries) {
  liberty::CellLibrary synth = liberty::make_synthetic_library();
  for (liberty::TimingArc& arc : synth.cell(synth.find_cell("NAND2_X1")).arcs) {
    arc.rise_transition = rescaled(arc.rise_transition, 1.25, 1.0);
    arc.fall_transition = rescaled(arc.fall_transition, 1.25, 1.0);
  }
  for (liberty::TimingArc& arc : synth.cell(synth.find_cell("INV_X1")).arcs) {
    arc.cell_fall = rescaled(arc.cell_fall, 1.0, 1.1);
    arc.fall_transition = rescaled(arc.fall_transition, 1.0, 1.1);
  }
  std::stringstream ss;
  liberty::write_liberty(synth, ss);
  const liberty::CellLibrary lib = liberty::parse_liberty(ss);
  const int nand = lib.find_cell("NAND2_X1");
  const int inv = lib.find_cell("INV_X1");

  workload::WorkloadOptions opts;
  opts.num_cells = 400;
  opts.seed = 515;
  const Design d = workload::generate_design(lib, opts);
  const TimingGraph graph(d.netlist);
  TimerOptions topts;
  topts.mode = AggMode::Smooth;
  Timer timer(d, graph, topts);
  timer.evaluate(d.cell_x, d.cell_y);
  const TimingWorkspace& ws = timer.workspace();

  ASSERT_EQ(ws.load_axis_class.size(), graph.num_lib_arcs());
  int shared_pins = 0, fallback_pins = 0;
  for (size_t p = 0; p < d.netlist.num_pins(); ++p) {
    const PinId v = static_cast<PinId>(p);
    if (ws.cand_base[p] < 0) continue;  // no cell-arc fan-in
    const int master = d.netlist.cell(d.netlist.pin(v).cell).lib_cell;
    const bool expect_shared = master != nand && master != inv;
    for (const int ai : graph.fanin(v)) {
      const int cls =
          ws.load_axis_class[static_cast<size_t>(graph.arcs()[static_cast<size_t>(ai)].lib_arc)];
      EXPECT_EQ(cls >= 0, expect_shared) << lib.cell(master).name;
      if (cls >= 0) {
        // The class representative has the same load axis.
        const auto& own = graph.lib_arc(graph.arcs()[static_cast<size_t>(ai)].lib_arc);
        EXPECT_TRUE(graph.lib_arc(cls).cell_rise.same_y_axis(own.cell_rise));
      }
    }
    (expect_shared ? shared_pins : fallback_pins) += 1;

    const NetId out_net = graph.driven_timing_net(v);
    const double load =
        out_net == netlist::kInvalidId ? 0.0 : ws.net_root_load(out_net);
    for (int tr_out = 0; tr_out < 2; ++tr_out) {
      const ArcCandidate* cands =
          ws.cand.data() + ws.cand_offset(v, tr_out);
      int k = 0;
      for (const int ai : graph.fanin(v)) {
        const Arc& arc = graph.arcs()[static_cast<size_t>(ai)];
        const liberty::TimingArc& la = graph.lib_arc(arc.lib_arc);
        const liberty::Lut& delay = tr_out == kRise ? la.cell_rise : la.cell_fall;
        const liberty::Lut& slew =
            tr_out == kRise ? la.rise_transition : la.fall_transition;
        int trs[2];
        const int n = input_transitions(la.unate, tr_out, trs);
        for (int t = 0; t < n; ++t) {
          if (!std::isfinite(timer.at(arc.from, trs[t]))) continue;
          ASSERT_LT(k, ws.cand_count[p * 2 + static_cast<size_t>(tr_out)]);
          const ArcCandidate& c = cands[k++];
          const double s_in = timer.slew(arc.from, trs[t]);
          const auto dq = delay.lookup_grad(s_in, load);
          const auto sq = slew.lookup_grad(s_in, load);
          EXPECT_TRUE(same_bits(c.delay_q.value, dq.value));
          EXPECT_TRUE(same_bits(c.delay_q.d_dx, dq.d_dx));
          EXPECT_TRUE(same_bits(c.delay_q.d_dy, dq.d_dy));
          EXPECT_TRUE(same_bits(c.slew_q.value, sq.value));
          EXPECT_TRUE(same_bits(c.slew_q.d_dx, sq.d_dx));
          EXPECT_TRUE(same_bits(c.slew_q.d_dy, sq.d_dy));
        }
      }
      EXPECT_EQ(k, ws.cand_count[p * 2 + static_cast<size_t>(tr_out)]);
    }
  }
  EXPECT_GT(shared_pins, 0);
  EXPECT_GT(fallback_pins, 0);
}

}  // namespace
}  // namespace dtp::sta
