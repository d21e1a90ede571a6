// One-dimensional complex FFT.
//
// Lengths whose prime factors are all in {2, 3, 5, 7} run as a
// self-sorting (Stockham) sequence of radix-4/2/3/5/7 passes; lengths
// with a larger prime factor fall back to Bluestein's chirp-z algorithm,
// whose convolution runs on the same passes at a padded smooth length.
// This mirrors the mixed-radix FFTW the paper's code uses: plane-wave
// grids are rarely powers of two (14, 21, 104 = 8·13, 166 = 2·83, ...),
// and only factors such as 13 and 83 still need Bluestein.
//
// Every transform, single line or batch, runs the same passes on a
// split-complex tile of lines, so forward() equals forward_many() on one
// line bit for bit.
//
// Normalization: forward is unnormalized, inverse divides by n, so
// inverse(forward(x)) == x.
#pragma once

#include <complex>
#include <memory>
#include <vector>

#include "common/config.hpp"

namespace lrt::fft {

using Complex = std::complex<Real>;

/// Reusable transform plan for a fixed length (pass twiddles and, for
/// lengths with a prime factor above 7, the Bluestein chirp spectra are
/// precomputed).
class Fft1D {
 public:
  explicit Fft1D(Index n);
  ~Fft1D();

  Fft1D(Fft1D&&) noexcept;
  Fft1D& operator=(Fft1D&&) noexcept;
  Fft1D(const Fft1D&) = delete;
  Fft1D& operator=(const Fft1D&) = delete;

  Index size() const;

  /// In-place forward transform of n contiguous values (the one-line
  /// case of forward_many).
  void forward(Complex* x) const;

  /// In-place inverse transform (normalized by 1/n).
  void inverse(Complex* x) const;

  /// In-place forward transform of `count` lines sharing this plan.
  /// Line t starts at base + t*dist; element j of a line is at offset
  /// j*stride. Lines must not overlap. The batch is gathered into
  /// cache-blocked tile-transposed contiguous buffers so the strided
  /// access cost is paid once per element, and the butterflies run
  /// across lines with unit stride (SIMD); each line sees the operations
  /// of forward() in the same order, so the results are bitwise equal.
  /// Threads over tiles with OpenMP unless already inside a parallel
  /// region. Lines that take the Bluestein path add to the
  /// fft.fft1d.bluestein_lines counter.
  void forward_many(Complex* base, Index count, Index stride,
                    Index dist) const;

  /// Batched inverse transform; same layout contract as forward_many,
  /// bitwise identical to calling inverse() per line.
  void inverse_many(Complex* base, Index count, Index stride,
                    Index dist) const;

  /// `groups` batches in one call: group g is the batch above starting
  /// at base + g*group_dist (e.g. the strided lines of every slab of a
  /// 3-D grid). One OpenMP team and one scratch tile per thread serve
  /// all groups; a tile never spans two groups.
  void forward_many(Complex* base, Index count, Index stride, Index dist,
                    Index groups, Index group_dist) const;
  void inverse_many(Complex* base, Index count, Index stride, Index dist,
                    Index groups, Index group_dist) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;

  void transform_many(Complex* base, Index count, Index stride, Index dist,
                      Index groups, Index group_dist, bool inverse) const;
};

/// One-shot convenience transforms.
void fft_forward(Complex* x, Index n);
void fft_inverse(Complex* x, Index n);

}  // namespace lrt::fft
