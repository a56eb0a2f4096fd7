// Property checks the flow benchmark runs on every placement.  Each returns an
// empty string when the property holds, else a one-line description of the
// first violation.  None of them calls the placer's own checkers.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "netlist/netlist.h"
#include "sta/timing_graph.h"

namespace flowbench {

// Legality by a scan of its own: every movable cell lies inside the core, on
// a row and a site, and no two movable cells of a row overlap.
std::string check_legal(const dtp::netlist::Design& design,
                        std::span<const double> x, std::span<const double> y);

// Half-perimeter wirelength from pin positions, over the nets the placer
// optimizes (2 to `max_degree` pins).
double hpwl_from_pins(const dtp::netlist::Design& design,
                      std::span<const double> x, std::span<const double> y,
                      size_t max_degree = 128);

struct GradCheckResult {
  std::string error;  // empty when every compared sample agrees
  int compared = 0;   // samples compared (kink samples are skipped)
  int skipped = 0;
};

// DiffTimer::backward against central finite differences of the smoothed loss
// t1*(-TNS_gamma) + t2*(-WNS_gamma) with the Steiner topology held fixed, on
// the cells with the largest gradients plus `random_cells` drawn from `seed`.
GradCheckResult check_timing_gradient(const dtp::netlist::Design& design,
                                      const dtp::sta::TimingGraph& graph,
                                      std::span<const double> x,
                                      std::span<const double> y, double gamma,
                                      double t1, double t2, uint64_t seed);

}  // namespace flowbench
