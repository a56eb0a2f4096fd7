// Shared cell-arc candidate evaluation (forward and backward).
//
// A cell arc contributes, per output transition, one candidate per compatible
// input transition (decided by unateness).  The forward pass aggregates the
// candidates' arrival times and slews (hard max/min or LSE) and records the
// candidates (and, in smooth mode, the LSE weights) in the workspace cache;
// the backward pass and the RAT sweep reuse them — identical by
// construction — instead of re-running the LUT queries.  Keeping the
// enumeration in one helper guarantees every consumer sees identical
// candidate sets.
//
// Each candidate queries its arc's delay and transition tables at the same
// (input slew, load).  When the caller passes a located load interval
// (load_index, from Lut::locate_y on a table with the same load axis), the
// pair shares one slew search (Lut::lookup_grad_pair) and every candidate of
// the pin shares the load search.  That is valid only for arcs whose tables
// share their axes (tables_share_axes, checked once per liberty arc when the
// workspace is built); other arcs get kSearchLoad and each table searches its
// own axes.  Both ways give bitwise-identical queries.
//
// The liberty arc is passed resolved (the graph stores an index into its
// liberty-arc table, not a pointer), so callers write
//   gather_arc_candidates(graph.lib_arc(arc.lib_arc), arc.from, ...).
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "liberty/lut.h"
#include "sta/timing_graph.h"

namespace dtp::sta {

inline constexpr int kRise = 0;
inline constexpr int kFall = 1;

// Input transitions driving output transition `tr_out`; returns count (1 or 2).
inline int input_transitions(liberty::Unateness unate, int tr_out, int out[2]) {
  switch (unate) {
    case liberty::Unateness::Positive:
      out[0] = tr_out;
      return 1;
    case liberty::Unateness::Negative:
      out[0] = 1 - tr_out;
      return 1;
    case liberty::Unateness::NonUnate:
      out[0] = kRise;
      out[1] = kFall;
      return 2;
  }
  return 0;
}

// load_index value asking every table to search its own axes.
inline constexpr size_t kSearchLoad = SIZE_MAX;

// True when each output transition's delay and transition tables have
// identical axes and both transitions share one load axis, so one slew search
// per candidate and one load search serve all four tables of `lib`.
inline bool tables_share_axes(const liberty::TimingArc& lib) {
  return lib.cell_rise.same_axes(lib.rise_transition) &&
         lib.cell_fall.same_axes(lib.fall_transition) &&
         lib.cell_rise.same_y_axis(lib.cell_fall);
}

struct ArcCandidate {
  PinId from = netlist::kInvalidId;
  int tr_in = 0;
  liberty::Lut::Query delay_q;  // value + d/d(input slew) + d/d(load)
  liberty::Lut::Query slew_q;
  double at_value = 0.0;  // at(from, tr_in) + delay
};

// Appends the candidates of one cell arc for output transition `tr_out` into
// `out` starting at `out[count]`, advancing `count` (allocation-free; the
// caller guarantees room for the arc's static candidate count, i.e. what
// input_transitions() returns for its unateness).  `at` / `slew` are the
// [pin*2 + tr] state arrays; `load` is the driven net's root load and
// `load_index` its located interval, or kSearchLoad (see the file comment).
// Candidates whose source AT is non-finite (unreachable pin) are skipped.
inline void gather_arc_candidates(const liberty::TimingArc& lib, PinId from,
                                  int tr_out, const double* at,
                                  const double* slew, double load,
                                  size_t load_index, ArcCandidate* out,
                                  int& count) {
  const liberty::Lut& delay_lut = (tr_out == kRise) ? lib.cell_rise : lib.cell_fall;
  const liberty::Lut& slew_lut =
      (tr_out == kRise) ? lib.rise_transition : lib.fall_transition;
  int trs[2];
  const int n = input_transitions(lib.unate, tr_out, trs);
  for (int k = 0; k < n; ++k) {
    const int tr_in = trs[k];
    const size_t idx = static_cast<size_t>(from) * 2 + static_cast<size_t>(tr_in);
    const double at_u = at[idx];
    if (!std::isfinite(at_u)) continue;
    ArcCandidate& cand = out[count++];
    cand.from = from;
    cand.tr_in = tr_in;
    if (load_index != kSearchLoad) {
      liberty::Lut::lookup_grad_pair(delay_lut, slew_lut, slew[idx], load,
                                     load_index, cand.delay_q, cand.slew_q);
    } else {
      cand.delay_q = delay_lut.lookup_grad(slew[idx], load);
      cand.slew_q = slew_lut.lookup_grad(slew[idx], load);
    }
    cand.at_value = at_u + cand.delay_q.value;
  }
}

// Vector-appending convenience (cold paths: path tracing, tests).
inline void gather_arc_candidates(const liberty::TimingArc& lib, PinId from,
                                  int tr_out, const double* at,
                                  const double* slew, double load,
                                  std::vector<ArcCandidate>& out,
                                  size_t load_index = kSearchLoad) {
  const size_t base = out.size();
  out.resize(base + 2);
  int count = 0;
  gather_arc_candidates(lib, from, tr_out, at, slew, load, load_index,
                        out.data() + base, count);
  out.resize(base + static_cast<size_t>(count));
}

}  // namespace dtp::sta
