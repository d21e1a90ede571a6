// Three-dimensional complex FFT on a row-major (n0, n1, n2) grid.
//
// The plane-wave code transforms orbital pair products between real space
// and reciprocal space on the simulation grid; Fft3D caches one 1-D plan
// per axis and reuses gather buffers. Element (i0, i1, i2) lives at flat
// index (i0 * n1 + i1) * n2 + i2.
//
// Called inside an active OpenMP team (the kernel's loop over column
// pairs), a transform runs on the calling thread alone and records no
// spans: team threads carry no rank, and the caller's span covers them.
#pragma once

#include <array>
#include <vector>

#include "fft/fft1d.hpp"

namespace lrt::fft {

class Fft3D {
 public:
  Fft3D(Index n0, Index n1, Index n2);

  Index size() const { return n_[0] * n_[1] * n_[2]; }
  std::array<Index, 3> shape() const { return n_; }

  /// In-place forward transform (real space -> reciprocal, unnormalized).
  void forward(Complex* x) const;

  /// In-place inverse transform (normalized by 1/(n0*n1*n2)).
  void inverse(Complex* x) const;

  /// Real-array conveniences: forward copies `real_in` into the complex
  /// work array; inverse_real transforms `x` in place (its spectrum is
  /// consumed) and writes the real part, discarding the (numerically
  /// zero) imaginary part.
  void forward(const Real* real_in, Complex* out) const;
  void inverse_real(Complex* x, Real* real_out) const;

 private:
  void transform(Complex* x, bool inverse) const;

  std::array<Index, 3> n_;
  Fft1D plan0_, plan1_, plan2_;
};

}  // namespace lrt::fft
