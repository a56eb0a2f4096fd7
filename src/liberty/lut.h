// Non-linear delay model (NLDM) look-up table with differentiable queries.
//
// A Lut is an Nx x Ny matrix of values v(i,j) with axis breakpoints
// x_0..x_{Nx-1} (input slew) and y_0..y_{Ny-1} (output load), per the Liberty
// NLDM convention (index_1 = input transition, index_2 = total output net
// capacitance).  A query at (x, y) bilinearly interpolates inside the
// surrounding 2x2 cell and linearly extrapolates outside the table, exactly as
// commercial STA tools do.
//
// The paper's cell-arc backward pass (Eq. 12, Fig. 6) needs d(value)/dx and
// d(value)/dy of the query.  Because bilinear interpolation is piecewise
// differentiable, those are the slopes of the interpolating surface within the
// selected cell; lookup_grad() returns them together with the value.
//
// A query is an axis search per dimension (locate_x / locate_y: the lower
// breakpoint of the interpolation interval) followed by the interpolation
// arithmetic.  The timer's hot path splits the two: a cell arc's delay and
// transition tables usually share both axes (same_axes), so one x search
// serves the pair (lookup_grad_pair) and one y search serves every table of a
// pin that share the load axis.  Every split query is bitwise equal to
// lookup_grad(x, y) on each table: the interval found is the same, and the
// arithmetic after it is the same, operation for operation.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace dtp::liberty {

class Lut {
 public:
  Lut() = default;

  // `values` is row-major over x: values[i * ny + j] = v(x_i, y_j).
  Lut(std::vector<double> xs, std::vector<double> ys, std::vector<double> values);

  // Constant table (0-dimensional): every query returns `c` with zero gradient.
  static Lut constant(double c);

  size_t nx() const { return xs_.size(); }
  size_t ny() const { return ys_.size(); }
  std::span<const double> x_axis() const { return xs_; }
  std::span<const double> y_axis() const { return ys_; }
  std::span<const double> values() const { return values_; }
  double value_at(size_t i, size_t j) const { return values_[i * ys_.size() + j]; }

  bool is_constant() const { return xs_.size() <= 1 && ys_.size() <= 1; }
  // False for a default-constructed (empty) table; queries require valid().
  bool valid() const { return !values_.empty(); }

  // Interpolated/extrapolated query.
  double lookup(double x, double y) const;

  struct Query {
    double value = 0.0;
    double d_dx = 0.0;  // d(value)/d(input slew)
    double d_dy = 0.0;  // d(value)/d(output load)
  };
  Query lookup_grad(double x, double y) const;

  // Lower breakpoint index of the interpolation interval of a query on the x
  // (resp. y) axis, clamped to [0, n-2] so that out-of-range queries
  // extrapolate on the edge interval; 0 on a single-breakpoint axis.
  size_t locate_x(double x) const { return lower_index(xs_, x); }
  size_t locate_y(double y) const { return lower_index(ys_, y); }

  // True when both tables have identical x axes and identical y axes, so one
  // search per axis locates a query in both.
  bool same_axes(const Lut& other) const;
  bool same_y_axis(const Lut& other) const;

  // lookup_grad(x, y) of two tables with same_axes(), given j = locate_y(y)
  // (of either table): one x search serves both, and the interval geometry
  // is computed once.  Bitwise equal to a.lookup_grad(x, y) and
  // b.lookup_grad(x, y).
  static void lookup_grad_pair(const Lut& a, const Lut& b, double x, double y,
                               size_t j, Query& qa, Query& qb);

 private:
  // Index of the lower breakpoint of the interpolation interval for query q on
  // `axis` (clamped so extrapolation reuses the edge interval slope).
  static size_t lower_index(std::span<const double> axis, double q);
  // The interpolation after the axis searches: i = locate_x(x), j =
  // locate_y(y).
  Query interpolate(double x, double y, size_t i, size_t j) const;

  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<double> values_;
};

}  // namespace dtp::liberty
