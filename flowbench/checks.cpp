#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "dtimer/diff_timer.h"

namespace flowbench {

using dtp::netlist::CellId;

std::string check_legal(const dtp::netlist::Design& design,
                        std::span<const double> x, std::span<const double> y) {
  const dtp::netlist::Netlist& nl = design.netlist;
  const dtp::netlist::Floorplan& fp = design.floorplan;
  constexpr double kEps = 1e-6;
  struct Slot {
    long row;
    double xl, xh;
    CellId cell;
  };
  std::vector<Slot> slots;
  char buf[200];
  for (size_t c = 0; c < nl.num_cells(); ++c) {
    const CellId id = static_cast<CellId>(c);
    if (nl.cell(id).fixed) continue;
    const double w = nl.lib_cell_of(id).width;
    const double h = nl.lib_cell_of(id).height;
    if (!std::isfinite(x[c]) || !std::isfinite(y[c]) ||
        x[c] < fp.core.xl - kEps || x[c] + w > fp.core.xh + kEps ||
        y[c] < fp.core.yl - kEps || y[c] + h > fp.core.yh + kEps) {
      std::snprintf(buf, sizeof buf, "cell %zu at (%g, %g) outside the core",
                    c, x[c], y[c]);
      return buf;
    }
    const double row = (y[c] - fp.core.yl) / fp.row_height;
    const double site = (x[c] - fp.core.xl) / fp.site_width;
    if (std::abs(row - std::round(row)) > kEps ||
        std::abs(site - std::round(site)) > kEps) {
      std::snprintf(buf, sizeof buf, "cell %zu at (%g, %g) off the row/site grid",
                    c, x[c], y[c]);
      return buf;
    }
    slots.push_back({std::lround(row), x[c], x[c] + w, id});
  }
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    return a.row != b.row ? a.row < b.row : a.xl < b.xl;
  });
  for (size_t i = 1; i < slots.size(); ++i) {
    const Slot& a = slots[i - 1];
    const Slot& b = slots[i];
    if (a.row == b.row && b.xl < a.xh - kEps) {
      std::snprintf(buf, sizeof buf, "cells %d and %d overlap in row %ld",
                    a.cell, b.cell, a.row);
      return buf;
    }
  }
  return {};
}

double hpwl_from_pins(const dtp::netlist::Design& design,
                      std::span<const double> x, std::span<const double> y,
                      size_t max_degree) {
  const dtp::netlist::Netlist& nl = design.netlist;
  double total = 0.0;
  for (size_t n = 0; n < nl.num_nets(); ++n) {
    const auto& pins = nl.net(static_cast<dtp::netlist::NetId>(n)).pins;
    if (pins.size() < 2 || pins.size() > max_degree) continue;
    double xl = INFINITY, xh = -INFINITY, yl = INFINITY, yh = -INFINITY;
    for (const dtp::netlist::PinId p : pins) {
      const size_t c = static_cast<size_t>(nl.pin(p).cell);
      const dtp::Vec2 off = nl.pin_offset(p);
      xl = std::min(xl, x[c] + off.x);
      xh = std::max(xh, x[c] + off.x);
      yl = std::min(yl, y[c] + off.y);
      yh = std::max(yh, y[c] + off.y);
    }
    total += (xh - xl) + (yh - yl);
  }
  return total;
}

GradCheckResult check_timing_gradient(const dtp::netlist::Design& design,
                                      const dtp::sta::TimingGraph& graph,
                                      std::span<const double> x0,
                                      std::span<const double> y0, double gamma,
                                      double t1, double t2, uint64_t seed) {
  dtp::dtimer::DiffTimerOptions opts;
  opts.gamma = gamma;
  opts.steiner_rebuild_period = 0;  // topology frozen after the first build
  dtp::dtimer::DiffTimer dt(design, graph, opts);
  std::vector<double> x(x0.begin(), x0.end()), y(y0.begin(), y0.end());
  auto loss = [&](const dtp::sta::TimingMetrics& m) {
    return t1 * (-m.tns_smooth) + t2 * (-m.wns_smooth);
  };
  dt.forward(x, y, /*force_rebuild=*/true);
  std::vector<double> gx(x.size(), 0.0), gy(y.size(), 0.0);
  dt.backward(t1, t2, gx, gy);

  const dtp::netlist::Netlist& nl = design.netlist;
  std::vector<size_t> movable;
  for (size_t c = 0; c < x.size(); ++c)
    if (!nl.cell(static_cast<CellId>(c)).fixed) movable.push_back(c);
  std::vector<size_t> sample = movable;
  const size_t top = std::min<size_t>(8, sample.size());
  std::partial_sort(sample.begin(), sample.begin() + static_cast<long>(top),
                    sample.end(), [&](size_t a, size_t b) {
                      return std::abs(gx[a]) + std::abs(gy[a]) >
                             std::abs(gx[b]) + std::abs(gy[b]);
                    });
  sample.resize(top);
  dtp::Rng rng(seed * 7919 + 17);
  for (int k = 0; k < 4 && !movable.empty(); ++k)
    sample.push_back(movable[static_cast<size_t>(rng.uniform_int(
        0, static_cast<int64_t>(movable.size()) - 1))]);

  GradCheckResult out;
  const double f0 = loss(dt.forward(x, y));
  constexpr double kStep = 2e-4;  // microns
  for (const size_t c : sample) {
    for (int axis = 0; axis < 2; ++axis) {
      std::vector<double>& coords = axis == 0 ? x : y;
      const double saved = coords[c];
      coords[c] = saved + kStep;
      const double fp = loss(dt.forward(x, y));
      coords[c] = saved - kStep;
      const double fm = loss(dt.forward(x, y));
      coords[c] = saved;
      const double fd = (fp - fm) / (2 * kStep);
      // A cell sitting on a rectilinear kink has one-sided slopes that
      // disagree; central differences are meaningless there.
      const double curvature = std::abs(fp + fm - 2 * f0) / kStep;
      if (curvature > 1e-3 * (std::abs(fd) + 1e-6)) {
        ++out.skipped;
        continue;
      }
      const double an = axis == 0 ? gx[c] : gy[c];
      const double tol = 2e-4 * std::max(1.0, std::abs(fd)) + 1e-7;
      ++out.compared;
      if (std::abs(an - fd) > tol && out.error.empty()) {
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "cell %zu axis %d: backward %.9g, finite difference %.9g",
                      c, axis, an, fd);
        out.error = buf;
      }
    }
  }
  if (out.error.empty() && out.compared < 6)
    out.error = "fewer than 6 kink-free gradient samples";
  return out;
}

}  // namespace flowbench
