// Independent signoff reference for the flow benchmark.
//
// A memoized, recursive, pull-based traversal of the timing graph with hard
// max semantics: each pin asks its fan-in for arrival time and slew, so it
// shares no propagation code with the timer's level sweeps.  It reuses only
// the timer's per-net Elmore results (delay, impulse^2, root load) and the
// library LUTs; endpoint required times, slacks, WNS and TNS are derived here
// from the constraints.
#pragma once

#include <string>
#include <vector>

#include "sta/timer.h"

namespace flowbench {

struct ReferenceSlacks {
  std::vector<double> endpoint_slack;  // aligned with graph.endpoints()
  double wns = 0.0;
  double tns = 0.0;
};

// Computes setup slacks at every endpoint for the placement `elmore_source`
// was last evaluated at.
ReferenceSlacks reference_slacks(const dtp::netlist::Design& design,
                                 const dtp::sta::TimingGraph& graph,
                                 const dtp::sta::Timer& elmore_source);

// Compares a hard-mode Timer::evaluate result with the reference: WNS, TNS
// and every endpoint slack.  Returns an empty string on agreement, else a
// description of the first mismatch.
std::string compare_with_reference(const dtp::netlist::Design& design,
                                   const dtp::sta::TimingGraph& graph,
                                   const dtp::sta::Timer& signoff,
                                   const dtp::sta::TimingMetrics& metrics);

}  // namespace flowbench
