// Weighted-average (WA) smooth wirelength model with per-net weights.
//
// For each net and axis, the WA estimator of max(x) - min(x) is
//
//   WA_x = sum(x_i e^{x_i/g}) / sum(e^{x_i/g})
//        - sum(x_i e^{-x_i/g}) / sum(e^{-x_i/g})
//
// which converges to HPWL as g -> 0 and is smooth everywhere — the standard
// wirelength objective of ePlace/DREAMPlace (the paper's WL term in Eq. 6).
// Gradients flow to pin coordinates and fold into cell coordinates through
// the rigid pin offsets.  Per-net weights w_e scale both value and gradient,
// which is exactly the hook the net-weighting baseline [24] drives.
//
// Nets above `ignore_degree` (e.g. the clock net) are skipped, matching
// standard placer practice.
//
// The active nets are flattened once, at construction, into a net -> (cell,
// pin offset) CSR plane, 8 bytes per pin: the cell and an index into a table
// of the library's pin offsets.  The WA gradient, HPWL and the incidence
// weights all stream it instead of resolving pin -> cell -> lib pin per pin.  The per-net
// WA scratch is sized to the largest active degree at construction, so a
// steady-state call allocates nothing (tests/test_zero_alloc.cpp).  That
// scratch is per model: one model must not be evaluated from two threads at
// once.
#pragma once

#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace dtp::placer {

class WirelengthModel {
 public:
  WirelengthModel(const netlist::Design& design, size_t ignore_degree = 128);

  // Smoothing parameter in microns (same scale as coordinates).
  void set_gamma(double gamma) { gamma_ = gamma; }
  double gamma() const { return gamma_; }

  std::span<double> net_weights() { return net_weights_; }
  std::span<const double> net_weights() const { return net_weights_; }

  // Exact weighted HPWL at the given cell positions.
  double hpwl(std::span<const double> x, std::span<const double> y) const {
    return hpwl_sum(x, y, net_weights_.data());
  }
  // Unweighted exact HPWL (reporting; the paper's Table 3 HPWL column).
  double hpwl_unweighted(std::span<const double> x,
                         std::span<const double> y) const {
    return hpwl_sum(x, y, nullptr);
  }

  // Smooth WA wirelength; accumulates (+=) its gradient into gx/gy.
  double value_and_gradient(std::span<const double> x, std::span<const double> y,
                            std::span<double> gx, std::span<double> gy) const;

  // Sum of weights of nets incident to each cell — the wirelength part of the
  // gradient preconditioner (DREAMPlace's pin-weight preconditioning).
  std::vector<double> cell_incidence_weights() const;

  const std::vector<netlist::NetId>& active_nets() const { return nets_; }

 private:
  // One pin of the plane: its cell and its entry in offsets_ (the rigid
  // offset from the cell origin).
  struct PlanePin {
    netlist::CellId cell = netlist::kInvalidId;
    int offset = 0;
  };

  // Sum over active nets of weight * HPWL; weight 1 when `weights` is null.
  double hpwl_sum(std::span<const double> x, std::span<const double> y,
                  const double* weights) const;

  size_t num_cells_ = 0;
  std::vector<netlist::NetId> nets_;  // placement nets (degree filter applied)
  std::vector<double> net_weights_;   // indexed by NetId (all nets)
  std::vector<int> net_begin_;        // CSR offsets into pins_ (nets_ order)
  std::vector<PlanePin> pins_;
  std::vector<Vec2> offsets_;         // per library pin
  // Per-net WA scratch (pin coordinates, gradients, exp terms), sized to the
  // largest active degree.
  mutable std::vector<double> px_, py_, dgx_, dgy_, ep_, em_;
  double gamma_ = 1.0;
};

}  // namespace dtp::placer
