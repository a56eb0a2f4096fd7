#include "placer/wirelength.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "kernels/kernels.h"
#include "obs/trace.h"

namespace dtp::placer {

using netlist::CellId;
using netlist::NetId;
using netlist::PinId;

WirelengthModel::WirelengthModel(const netlist::Design& design,
                                 size_t ignore_degree)
    : num_cells_(design.netlist.num_cells()) {
  const netlist::Netlist& nl = design.netlist;
  net_weights_.assign(nl.num_nets(), 1.0);
  size_t max_degree = 0, num_pins = 0;
  for (size_t n = 0; n < nl.num_nets(); ++n) {
    const size_t deg = nl.net(static_cast<NetId>(n)).pins.size();
    if (deg < 2 || deg > ignore_degree) continue;
    nets_.push_back(static_cast<NetId>(n));
    num_pins += deg;
    max_degree = std::max(max_degree, deg);
  }
  // Pin offsets live in a per-library table (one entry per lib pin); the
  // plane stores each pin's cell and its entry there.
  const liberty::CellLibrary& lib = nl.library();
  std::vector<int> lib_base(lib.size());
  for (size_t m = 0; m < lib.size(); ++m) {
    lib_base[m] = static_cast<int>(offsets_.size());
    for (const liberty::LibPin& lp : lib.cell(static_cast<int>(m)).pins)
      offsets_.push_back({lp.offset_x, lp.offset_y});
  }
  // Resolve every pin once in cell order (pins are contiguous per cell, so
  // this pass reads the netlist sequentially), then lay the plane out net by
  // net from that compact table.
  std::vector<PlanePin> by_pin(nl.num_pins());
  for (size_t c = 0; c < nl.num_cells(); ++c) {
    const netlist::Cell& cell = nl.cell(static_cast<CellId>(c));
    for (int k = 0; k < cell.num_pins; ++k) {
      const PinId p = cell.first_pin + k;
      by_pin[static_cast<size_t>(p)] = {
          static_cast<CellId>(c),
          lib_base[static_cast<size_t>(cell.lib_cell)] + nl.pin(p).lib_pin};
    }
  }
  net_begin_.reserve(nets_.size() + 1);
  net_begin_.push_back(0);
  pins_.reserve(num_pins);
  for (const NetId n : nets_) {
    for (const PinId p : nl.net(n).pins)
      pins_.push_back(by_pin[static_cast<size_t>(p)]);
    net_begin_.push_back(static_cast<int>(pins_.size()));
  }
  for (std::vector<double>* v : {&px_, &py_, &dgx_, &dgy_, &ep_, &em_})
    v->assign(max_degree, 0.0);
}

double WirelengthModel::hpwl_sum(std::span<const double> x,
                                 std::span<const double> y,
                                 const double* weights) const {
  double total = 0.0;
  for (size_t k = 0; k < nets_.size(); ++k) {
    double xl = 1e300, xh = -1e300, yl = 1e300, yh = -1e300;
    for (size_t i = static_cast<size_t>(net_begin_[k]);
         i < static_cast<size_t>(net_begin_[k + 1]); ++i) {
      const PlanePin& pin = pins_[i];
      const Vec2& off = offsets_[static_cast<size_t>(pin.offset)];
      const double px = x[static_cast<size_t>(pin.cell)] + off.x;
      const double py = y[static_cast<size_t>(pin.cell)] + off.y;
      xl = std::min(xl, px);
      xh = std::max(xh, px);
      yl = std::min(yl, py);
      yh = std::max(yh, py);
    }
    // A unit weight multiplies exactly, so both HPWL flavours share this sum.
    const double w =
        weights == nullptr ? 1.0 : weights[static_cast<size_t>(nets_[k])];
    total += w * ((xh - xl) + (yh - yl));
  }
  return total;
}

double WirelengthModel::value_and_gradient(std::span<const double> x,
                                           std::span<const double> y,
                                           std::span<double> gx,
                                           std::span<double> gy) const {
  DTP_TRACE_SCOPE("wirelength_grad");
  double total = 0.0;
  for (size_t k = 0; k < nets_.size(); ++k) {
    const size_t begin = static_cast<size_t>(net_begin_[k]);
    const size_t deg = static_cast<size_t>(net_begin_[k + 1]) - begin;
    const PlanePin* pins = pins_.data() + begin;
    const double w = net_weights_[static_cast<size_t>(nets_[k])];
    for (size_t i = 0; i < deg; ++i) {
      const Vec2& off = offsets_[static_cast<size_t>(pins[i].offset)];
      px_[i] = x[static_cast<size_t>(pins[i].cell)] + off.x;
      py_[i] = y[static_cast<size_t>(pins[i].cell)] + off.y;
    }
    total += w * kernels::wa_axis(px_.data(), deg, gamma_, dgx_.data(),
                                  ep_.data(), em_.data());
    total += w * kernels::wa_axis(py_.data(), deg, gamma_, dgy_.data(),
                                  ep_.data(), em_.data());
    for (size_t i = 0; i < deg; ++i) {
      gx[static_cast<size_t>(pins[i].cell)] += w * dgx_[i];
      gy[static_cast<size_t>(pins[i].cell)] += w * dgy_[i];
    }
  }
  return total;
}

std::vector<double> WirelengthModel::cell_incidence_weights() const {
  std::vector<double> out(num_cells_, 0.0);
  for (size_t k = 0; k < nets_.size(); ++k) {
    const double w = net_weights_[static_cast<size_t>(nets_[k])];
    for (size_t i = static_cast<size_t>(net_begin_[k]);
         i < static_cast<size_t>(net_begin_[k + 1]); ++i)
      out[static_cast<size_t>(pins_[i].cell)] += w;
  }
  return out;
}

}  // namespace dtp::placer
