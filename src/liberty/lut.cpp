#include "liberty/lut.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/assert.h"

namespace dtp::liberty {

Lut::Lut(std::vector<double> xs, std::vector<double> ys, std::vector<double> values)
    : xs_(std::move(xs)), ys_(std::move(ys)), values_(std::move(values)) {
  DTP_ASSERT_MSG(!xs_.empty() && !ys_.empty(), "LUT axes must be non-empty");
  DTP_ASSERT_MSG(values_.size() == xs_.size() * ys_.size(),
                 "LUT value count must be nx*ny");
  DTP_ASSERT_MSG(std::is_sorted(xs_.begin(), xs_.end()),
                 "LUT x axis must be ascending");
  DTP_ASSERT_MSG(std::is_sorted(ys_.begin(), ys_.end()),
                 "LUT y axis must be ascending");
}

Lut Lut::constant(double c) { return Lut({0.0}, {0.0}, {c}); }

size_t Lut::lower_index(std::span<const double> axis, double q) {
  if (axis.size() <= 1) return 0;
  // First breakpoint strictly greater than q, then step back to the interval
  // start; clamp to [0, n-2] so out-of-range queries extrapolate on the edge
  // interval.
  const auto it = std::upper_bound(axis.begin(), axis.end(), q);
  size_t i = static_cast<size_t>(it - axis.begin());
  if (i > 0) --i;
  if (i > axis.size() - 2) i = axis.size() - 2;
  return i;
}

namespace {

// Breakpoint-for-breakpoint identity, bit patterns included: two axes that
// compare equal here locate every query in the same interval and feed the
// interpolation the same operands.
bool identical(std::span<const double> a, std::span<const double> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double u, double v) {
                      return std::bit_cast<uint64_t>(u) ==
                             std::bit_cast<uint64_t>(v);
                    });
}

// Value and slopes of the bilinear surface over cell (i, j) of `lut` at the
// normalized offsets (tx, ty); dx, dy are the cell's extents.
Lut::Query bilinear(const Lut& lut, size_t i, size_t j, double tx, double ty,
                    double dx, double dy) {
  const double v00 = lut.value_at(i, j), v01 = lut.value_at(i, j + 1);
  const double v10 = lut.value_at(i + 1, j), v11 = lut.value_at(i + 1, j + 1);
  // Bilinear surface v(tx, ty); also valid as extrapolation for tx/ty outside
  // [0, 1] (the surface extends linearly, matching Liberty semantics).
  const double a = v00;
  const double b = v10 - v00;
  const double c = v01 - v00;
  const double d = v11 - v10 - v01 + v00;
  Lut::Query q;
  q.value = a + b * tx + c * ty + d * tx * ty;
  q.d_dx = (b + d * ty) / dx;
  q.d_dy = (c + d * tx) / dy;
  return q;
}

}  // namespace

bool Lut::same_axes(const Lut& other) const {
  return identical(xs_, other.xs_) && identical(ys_, other.ys_);
}

bool Lut::same_y_axis(const Lut& other) const {
  return identical(ys_, other.ys_);
}

double Lut::lookup(double x, double y) const { return lookup_grad(x, y).value; }

Lut::Query Lut::lookup_grad(double x, double y) const {
  return interpolate(x, y, locate_x(x), locate_y(y));
}

Lut::Query Lut::interpolate(double x, double y, size_t i, size_t j) const {
  Query q;
  const size_t nx = xs_.size(), ny = ys_.size();
  if (nx == 1 && ny == 1) {
    q.value = values_[0];
    return q;
  }
  if (nx == 1) {
    // 1-D interpolation along y.
    const double t = (y - ys_[j]) / (ys_[j + 1] - ys_[j]);
    const double v0 = values_[j], v1 = values_[j + 1];
    q.value = v0 + t * (v1 - v0);
    q.d_dy = (v1 - v0) / (ys_[j + 1] - ys_[j]);
    return q;
  }
  if (ny == 1) {
    const double t = (x - xs_[i]) / (xs_[i + 1] - xs_[i]);
    const double v0 = values_[i], v1 = values_[i + 1];
    q.value = v0 + t * (v1 - v0);
    q.d_dx = (v1 - v0) / (xs_[i + 1] - xs_[i]);
    return q;
  }
  const double x0 = xs_[i], x1 = xs_[i + 1];
  const double y0 = ys_[j], y1 = ys_[j + 1];
  const double tx = (x - x0) / (x1 - x0);
  const double ty = (y - y0) / (y1 - y0);
  return bilinear(*this, i, j, tx, ty, x1 - x0, y1 - y0);
}

void Lut::lookup_grad_pair(const Lut& a, const Lut& b, double x, double y,
                           size_t j, Query& qa, Query& qb) {
  const size_t i = a.locate_x(x);
  if (a.xs_.size() == 1 || a.ys_.size() == 1) {
    qa = a.interpolate(x, y, i, j);
    qb = b.interpolate(x, y, i, j);
    return;
  }
  const double x0 = a.xs_[i], x1 = a.xs_[i + 1];
  const double y0 = a.ys_[j], y1 = a.ys_[j + 1];
  const double tx = (x - x0) / (x1 - x0);
  const double ty = (y - y0) / (y1 - y0);
  qa = bilinear(a, i, j, tx, ty, x1 - x0, y1 - y0);
  qb = bilinear(b, i, j, tx, ty, x1 - x0, y1 - y0);
}

}  // namespace dtp::liberty
