// Iterative radix-2 complex FFT plan — the primitive under the kernel-layer
// half-sample transforms (DESIGN.md §15).
//
// Nothing outside src/kernels/ calls Fft directly; the placer reaches the
// spectral kernels through kernels.h.  The plan operates on caller-owned
// re/im arrays so the row kernels can reuse preallocated scratch (the
// zero-steady-state-allocation contract, DESIGN.md §10).
#pragma once

#include <cstddef>
#include <vector>

namespace dtp::kernels {

using std::size_t;

inline bool is_power_of_two(size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// Radix-2 complex FFT plan for a fixed power-of-two size (size 1 is the
// identity, so half-size plans of tiny grids stay well-defined).
class Fft {
 public:
  explicit Fft(size_t n);  // n must be a power of two

  size_t size() const { return n_; }

  // In-place forward DFT: X_k = sum_n x_n e^{-i 2 pi k n / N}.
  void forward(double* re, double* im) const { transform(re, im, false); }
  // In-place inverse DFT *without* the 1/N factor.
  void inverse(double* re, double* im) const { transform(re, im, true); }

 private:
  void transform(double* re, double* im, bool invert) const;

  size_t n_;
  std::vector<size_t> bit_reverse_;
  std::vector<double> tw_re_, tw_im_;  // e^{-i 2 pi k / N}, k < N/2
};

}  // namespace dtp::kernels
