#include "fft/fft1d.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/omp.hpp"
#include "obs/counters.hpp"

namespace lrt::fft {
namespace {

using constants::kPi;

// ---------------------------------------------------------------------------
// Mixed-radix Stockham passes on a tile (docs/PERFORMANCE.md §2).
//
// A tile of nt lines lives split-complex and element-major: re[j*nt + t]
// is element j of line t. A pass of radix p over a length-L sub-transform
// with stride s (s*L == n) reads the p inputs x[q + s*(j + r*L/p)] of each
// butterfly, takes their length-p DFT and writes output k, times the
// twiddle w_L^{jk}, to y[q + s*(p*j + k)] (self-sorting, no digit
// reversal). For fixed (j, r) the rows q = 0..s-1 are adjacent, so every
// butterfly runs over s*nt contiguous reals that are independent lanes:
// the loops vectorize across lines, and a single line (nt = 1) takes
// exactly the same operations in the same order, which is what makes the
// batched and per-line transforms bitwise equal.
// ---------------------------------------------------------------------------

/// One pass of the plan: radix p applied to sub-transforms of length L.
struct Pass {
  int radix = 0;
  Index m = 0;  ///< butterflies per sub-transform, L / radix
  Index s = 0;  ///< stride of the sub-transforms, n / L
  /// Forward twiddles w_L^{jk} = exp(-2πi jk/L) at [j*(radix-1) + k-1],
  /// 0 < j < m, 1 <= k < radix (j = 0 needs none). The inverse uses the
  /// conjugates.
  std::vector<Real> twr, twi;
  /// cos and sin of 2π q/radix, q < radix (the odd butterflies' weights).
  std::vector<Real> cs, sn;
};

/// Length-p DFT of the lanes a_r = (xr, xi)[r*in_step + u], scaled by
/// the twiddles w[k] when `kTwiddle`, written to (yr, yi)[k*len + u].
/// `sign` is -1 forward and +1 inverse; odd radices take cos/sin of
/// 2π q/p from `cs`/`sn` (q < p).
template <int P, bool kTwiddle>
void butterfly(const Real* xr, const Real* xi, Index in_step, Real* yr,
               Real* yi, Index len, const Real* wr, const Real* wi,
               const Real* cs, const Real* sn, Real sign) {
  if constexpr (P == 2) {
#pragma omp simd
    for (Index u = 0; u < len; ++u) {
      const Real a0r = xr[u], a0i = xi[u];
      const Real a1r = xr[in_step + u], a1i = xi[in_step + u];
      yr[u] = a0r + a1r;
      yi[u] = a0i + a1i;
      const Real dr = a0r - a1r, di = a0i - a1i;
      if constexpr (kTwiddle) {
        yr[len + u] = dr * wr[1] - di * wi[1];
        yi[len + u] = dr * wi[1] + di * wr[1];
      } else {
        yr[len + u] = dr;
        yi[len + u] = di;
      }
    }
  } else if constexpr (P == 4) {
#pragma omp simd
    for (Index u = 0; u < len; ++u) {
      const Real a0r = xr[u], a0i = xi[u];
      const Real a1r = xr[in_step + u], a1i = xi[in_step + u];
      const Real a2r = xr[2 * in_step + u], a2i = xi[2 * in_step + u];
      const Real a3r = xr[3 * in_step + u], a3i = xi[3 * in_step + u];
      const Real s02r = a0r + a2r, s02i = a0i + a2i;
      const Real d02r = a0r - a2r, d02i = a0i - a2i;
      const Real s13r = a1r + a3r, s13i = a1i + a3i;
      // sign·i·(a1 - a3)
      const Real rotr = -sign * (a1i - a3i), roti = sign * (a1r - a3r);
      const Real br[4] = {s02r + s13r, d02r + rotr, s02r - s13r, d02r - rotr};
      const Real bi[4] = {s02i + s13i, d02i + roti, s02i - s13i, d02i - roti};
      yr[u] = br[0];
      yi[u] = bi[0];
      for (int k = 1; k < 4; ++k) {
        if constexpr (kTwiddle) {
          yr[k * len + u] = br[k] * wr[k] - bi[k] * wi[k];
          yi[k * len + u] = br[k] * wi[k] + bi[k] * wr[k];
        } else {
          yr[k * len + u] = br[k];
          yi[k * len + u] = bi[k];
        }
      }
    }
  } else {
    // Odd p: with s_r = a_r + a_{p-r} and d_r = a_r - a_{p-r},
    //   b_k     = T_k + sign·i·U_k,  b_{p-k} = T_k - sign·i·U_k,
    //   T_k = a_0 + Σ_r s_r cos(2π rk/p),  U_k = Σ_r d_r sin(2π rk/p).
    constexpr int kH = (P - 1) / 2;
    Real c[kH][kH] = {}, sg[kH][kH] = {};
    for (int k = 1; k <= kH; ++k) {
      for (int r = 1; r <= kH; ++r) {
        c[k - 1][r - 1] = cs[(r * k) % P];
        sg[k - 1][r - 1] = sign * sn[(r * k) % P];
      }
    }
#pragma omp simd
    for (Index u = 0; u < len; ++u) {
      const Real a0r = xr[u], a0i = xi[u];
      Real sr[kH] = {}, si[kH] = {}, dr[kH] = {}, di[kH] = {};
      Real b0r = a0r, b0i = a0i;
      for (int r = 1; r <= kH; ++r) {
        const Real pr = xr[r * in_step + u], pi = xi[r * in_step + u];
        const Real qr = xr[(P - r) * in_step + u];
        const Real qi = xi[(P - r) * in_step + u];
        sr[r - 1] = pr + qr;
        si[r - 1] = pi + qi;
        dr[r - 1] = pr - qr;
        di[r - 1] = pi - qi;
        b0r += sr[r - 1];
        b0i += si[r - 1];
      }
      yr[u] = b0r;
      yi[u] = b0i;
      for (int k = 1; k <= kH; ++k) {
        Real tr = a0r, ti = a0i, vr = 0, vi = 0;
        for (int r = 0; r < kH; ++r) {
          tr += sr[r] * c[k - 1][r];
          ti += si[r] * c[k - 1][r];
          vr += dr[r] * sg[k - 1][r];
          vi += di[r] * sg[k - 1][r];
        }
        // b_k = T + i·V, b_{p-k} = T - i·V with V = sign·U.
        const Real bkr = tr - vi, bki = ti + vr;
        const Real bmr = tr + vi, bmi = ti - vr;
        if constexpr (kTwiddle) {
          yr[k * len + u] = bkr * wr[k] - bki * wi[k];
          yi[k * len + u] = bkr * wi[k] + bki * wr[k];
          yr[(P - k) * len + u] = bmr * wr[P - k] - bmi * wi[P - k];
          yi[(P - k) * len + u] = bmr * wi[P - k] + bmi * wr[P - k];
        } else {
          yr[k * len + u] = bkr;
          yi[k * len + u] = bki;
          yr[(P - k) * len + u] = bmr;
          yi[(P - k) * len + u] = bmi;
        }
      }
    }
  }
}

/// Runs one pass from (xr, xi) into (yr, yi) over a tile of nt lines of
/// length n.
template <int P>
void run_pass(const Pass& ps, const Real* xr, const Real* xi, Real* yr,
              Real* yi, Index n, Index nt, Real sign) {
  const Index len = ps.s * nt;
  const Index in_step = (n / P) * nt;
  const Real* cs = ps.cs.data();
  const Real* sn = ps.sn.data();
  butterfly<P, false>(xr, xi, in_step, yr, yi, len, nullptr, nullptr, cs, sn,
                      sign);
  Real wr[P] = {}, wi[P] = {};
  for (Index j = 1; j < ps.m; ++j) {
    const std::size_t base = static_cast<std::size_t>(j * (P - 1));
    for (int k = 1; k < P; ++k) {
      wr[k] = ps.twr[base + static_cast<std::size_t>(k - 1)];
      wi[k] = -sign * ps.twi[base + static_cast<std::size_t>(k - 1)];
    }
    butterfly<P, true>(xr + j * len, xi + j * len, in_step,
                       yr + j * P * len, yi + j * P * len, len, wr, wi, cs,
                       sn, sign);
  }
}

/// A self-sorting {2, 3, 4, 5, 7} plan of one length.
struct Stockham {
  Index n = 0;
  std::vector<Pass> passes;

  /// Factors n into radices 4, 2, 3, 5, 7 (in that order); returns false
  /// if n has a larger prime factor.
  bool plan(Index length) {
    n = length;
    passes.clear();
    std::vector<int> radices;
    radices.reserve(64);  // at most log2(n) factors
    Index rest = n;
    for (const int p : {4, 2, 3, 5, 7}) {
      while (rest % p == 0) {
        radices.push_back(p);
        rest /= p;
      }
    }
    if (rest != 1) return false;
    passes.reserve(radices.size());
    Index len = n;
    for (const int p : radices) {
      const Index m = len / p;
      std::vector<Real> twr(static_cast<std::size_t>(m * (p - 1)));
      std::vector<Real> twi(twr.size());
      for (Index j = 0; j < m; ++j) {
        for (int k = 1; k < p; ++k) {
          const Real angle = -2 * kPi * static_cast<Real>((j * k) % len) /
                             static_cast<Real>(len);
          const auto at = static_cast<std::size_t>(j * (p - 1) + k - 1);
          twr[at] = std::cos(angle);
          twi[at] = std::sin(angle);
        }
      }
      std::vector<Real> cs(static_cast<std::size_t>(p));
      std::vector<Real> sn(cs.size());
      for (int q = 0; q < p; ++q) {
        const Real angle = 2 * kPi * static_cast<Real>(q) / p;
        cs[static_cast<std::size_t>(q)] = std::cos(angle);
        sn[static_cast<std::size_t>(q)] = std::sin(angle);
      }
      passes.push_back(Pass{p, m, n / len, std::move(twr), std::move(twi),
                            std::move(cs), std::move(sn)});
      len = m;
    }
    return true;
  }

  /// Unnormalized transform (sign -1 forward, +1 backward) of the tile in
  /// (re, im), ping-ponging through (wr, wi); returns the buffer pair
  /// that holds the result.
  std::pair<Real*, Real*> run(Real* re, Real* im, Real* wr, Real* wi,
                              Index nt, Real sign) const {
    for (const Pass& ps : passes) {
      switch (ps.radix) {
        case 2: run_pass<2>(ps, re, im, wr, wi, n, nt, sign); break;
        case 3: run_pass<3>(ps, re, im, wr, wi, n, nt, sign); break;
        case 4: run_pass<4>(ps, re, im, wr, wi, n, nt, sign); break;
        case 5: run_pass<5>(ps, re, im, wr, wi, n, nt, sign); break;
        default: run_pass<7>(ps, re, im, wr, wi, n, nt, sign); break;
      }
      std::swap(re, wr);
      std::swap(im, wi);
    }
    return {re, im};
  }
};

/// (xr, xi)[k*nt + t] = (ar, ai)[k*nt + t] · c[k] for k < n; the input
/// and output rows may be the same.
void multiply_rows(const Real* ar, const Real* ai, const Complex* c, Index n,
                   Index nt, Real* xr, Real* xi) {
  for (Index k = 0; k < n; ++k) {
    const Real cr = c[k].real(), ci = c[k].imag();
    const Real* pr = ar + k * nt;
    const Real* pi = ai + k * nt;
    Real* qr = xr + k * nt;
    Real* qi = xi + k * nt;
#pragma omp simd
    for (Index t = 0; t < nt; ++t) {
      const Real r = pr[t] * cr - pi[t] * ci;
      const Real i = pr[t] * ci + pi[t] * cr;
      qr[t] = r;
      qi[t] = i;
    }
  }
}

/// Cache-blocked strided gather into the element-major split-complex
/// tile: re/im[j*nt + t] = src[t*dist + j*stride].
void gather_tile(const Complex* src, Index nt, Index n, Index stride,
                 Index dist, Real* re, Real* im) {
  constexpr Index kBlk = 16;
  for (Index j0 = 0; j0 < n; j0 += kBlk) {
    const Index j1 = std::min(j0 + kBlk, n);
    for (Index t0 = 0; t0 < nt; t0 += kBlk) {
      const Index t1 = std::min(t0 + kBlk, nt);
      for (Index j = j0; j < j1; ++j) {
        const Complex* s = src + j * stride;
        Real* rrow = re + j * nt;
        Real* irow = im + j * nt;
        for (Index t = t0; t < t1; ++t) {
          const Complex v = s[t * dist];
          rrow[t] = v.real();
          irow[t] = v.imag();
        }
      }
    }
  }
}

void scatter_tile(Complex* dst, Index nt, Index n, Index stride, Index dist,
                  const Real* re, const Real* im) {
  constexpr Index kBlk = 16;
  for (Index j0 = 0; j0 < n; j0 += kBlk) {
    const Index j1 = std::min(j0 + kBlk, n);
    for (Index t0 = 0; t0 < nt; t0 += kBlk) {
      const Index t1 = std::min(t0 + kBlk, nt);
      for (Index j = j0; j < j1; ++j) {
        Complex* d = dst + j * stride;
        const Real* rrow = re + j * nt;
        const Real* irow = im + j * nt;
        for (Index t = t0; t < t1; ++t) {
          d[t * dist] = Complex(rrow[t], irow[t]);
        }
      }
    }
  }
}

/// Smallest {2, 3, 5, 7}-smooth integer >= n.
Index next_smooth(Index n) {
  for (Index m = std::max<Index>(n, 1);; ++m) {
    Index rest = m;
    for (const Index p : {2, 3, 5, 7}) {
      while (rest % p == 0) rest /= p;
    }
    if (rest == 1) return m;
  }
}

}  // namespace

struct Fft1D::Impl {
  Index n = 0;
  /// Plan of length n, or of the padded Bluestein length m when n has a
  /// prime factor above 7.
  Stockham plan;

  // Bluestein path (empty when n is {2, 3, 5, 7}-smooth).
  Index m = 0;                      // padded smooth length >= 2n-1
  std::vector<Complex> chirp;       // w_k = exp(-i π k² / n)
  std::vector<Complex> b_spectrum;  // FFT_m of the chirp kernel, times 1/m

  /// Reals of work space per line besides the tile itself: the
  /// ping-pong pair of the tile, or the padded Bluestein lines and theirs.
  Index work_per_line() const { return m == 0 ? 2 * n : 4 * m; }

  /// Bluestein forward transform of a tile:
  ///   X_k = w_k · IFFT_m(FFT_m(x·w) · B)_k,
  /// with the 1/m of the inverse folded into B.
  void forward_bluestein(Real* re, Real* im, Index nt, Real* work) const {
    const Index total = m * nt;
    Real* ar = work;
    Real* ai = work + total;
    Real* br = work + 2 * total;
    Real* bi = work + 3 * total;
    std::fill(ar + n * nt, ar + total, Real{0});
    std::fill(ai + n * nt, ai + total, Real{0});
    multiply_rows(re, im, chirp.data(), n, nt, ar, ai);
    const auto [fr, fi] = plan.run(ar, ai, br, bi, nt, -1);
    multiply_rows(fr, fi, b_spectrum.data(), m, nt, fr, fi);
    const bool in_a = fr == ar;
    const auto [hr, hi] =
        plan.run(fr, fi, in_a ? br : ar, in_a ? bi : ai, nt, +1);
    multiply_rows(hr, hi, chirp.data(), n, nt, re, im);
  }

  /// One element-major tile in (re, im), forward or inverse; `work` holds
  /// work_per_line() * nt reals. Returns the buffer pair with the result:
  /// (re, im) or the first two n*nt blocks of `work`.
  std::pair<Real*, Real*> transform_tile(Real* re, Real* im, Index nt,
                                         bool inverse, Real* work) const {
    const Index total = n * nt;
    if (m == 0) {
      const auto out =
          plan.run(re, im, work, work + total, nt, inverse ? 1 : -1);
      if (inverse) {
        const Real scale = Real{1} / static_cast<Real>(n);
        Real* outr = out.first;
        Real* outi = out.second;
#pragma omp simd
        for (Index i = 0; i < total; ++i) outr[i] *= scale;
#pragma omp simd
        for (Index i = 0; i < total; ++i) outi[i] *= scale;
      }
      return out;
    }
    if (!inverse) {
      forward_bluestein(re, im, nt, work);
      return {re, im};
    }
    // IFFT(x) = conj(FFT(conj(x))) / n.
#pragma omp simd
    for (Index i = 0; i < total; ++i) im[i] = -im[i];
    forward_bluestein(re, im, nt, work);
    const Real inv = Real{1} / static_cast<Real>(n);
#pragma omp simd
    for (Index i = 0; i < total; ++i) re[i] *= inv;
#pragma omp simd
    for (Index i = 0; i < total; ++i) im[i] = -im[i] * inv;
    return {re, im};
  }
};

Fft1D::Fft1D(Index n) : impl_(std::make_unique<Impl>()) {
  LRT_CHECK(n >= 1, "FFT length must be >= 1, got " << n);
  Impl& p = *impl_;
  p.n = n;
  if (p.plan.plan(n)) return;
  // Bluestein setup: a smooth padded length, so the convolution runs on
  // the same passes.
  const Index m = next_smooth(2 * n - 1);
  p.m = m;
  p.plan.plan(m);
  p.chirp.resize(static_cast<std::size_t>(n));
  for (Index k = 0; k < n; ++k) {
    // Reduce k² mod 2n before the trig call to keep the argument small for
    // large n (k² overflows Real precision around n ~ 1e8 otherwise).
    const long long k2 = (static_cast<long long>(k) * k) % (2 * n);
    const Real angle = -kPi * static_cast<Real>(k2) / static_cast<Real>(n);
    p.chirp[static_cast<std::size_t>(k)] =
        Complex(std::cos(angle), std::sin(angle));
  }
  // B = FFT_m(b) / m with b_k = conj(w_|k|) wrapped around m.
  std::vector<Real> br(static_cast<std::size_t>(4 * m), Real{0});
  Real* bi = br.data() + m;
  for (Index k = 0; k < n; ++k) {
    const Complex value = std::conj(p.chirp[static_cast<std::size_t>(k)]);
    br[static_cast<std::size_t>(k)] = value.real();
    bi[k] = value.imag();
    if (k > 0) {
      br[static_cast<std::size_t>(m - k)] = value.real();
      bi[m - k] = value.imag();
    }
  }
  const auto [fr, fi] =
      p.plan.run(br.data(), bi, bi + m, bi + 2 * m, /*nt=*/1, -1);
  const Real inv_m = Real{1} / static_cast<Real>(m);
  p.b_spectrum.resize(static_cast<std::size_t>(m));
  for (Index k = 0; k < m; ++k) {
    p.b_spectrum[static_cast<std::size_t>(k)] =
        Complex(fr[k] * inv_m, fi[k] * inv_m);
  }
}

Fft1D::~Fft1D() = default;
Fft1D::Fft1D(Fft1D&&) noexcept = default;
Fft1D& Fft1D::operator=(Fft1D&&) noexcept = default;

Index Fft1D::size() const { return impl_->n; }

void Fft1D::forward(Complex* x) const {
  transform_many(x, 1, 1, impl_->n, 1, 0, /*inverse=*/false);
}

void Fft1D::inverse(Complex* x) const {
  transform_many(x, 1, 1, impl_->n, 1, 0, /*inverse=*/true);
}

void Fft1D::transform_many(Complex* base, Index count, Index stride,
                           Index dist, Index groups, Index group_dist,
                           bool inverse) const {
  const Impl& p = *impl_;
  const Index n = p.n;
  LRT_CHECK(count >= 0 && groups >= 0,
            "bad batch count " << count << " x " << groups);
  LRT_CHECK(stride >= 1, "bad element stride " << stride);
  LRT_CHECK(count <= 1 || dist >= 1, "bad line distance " << dist);
  LRT_CHECK(groups <= 1 || group_dist >= 1,
            "bad group distance " << group_dist);
  if (count == 0 || groups == 0 || n == 1) return;  // length 1: identity

  static obs::Counter& batches = obs::counter("fft.fft1d.batches");
  static obs::Counter& lines = obs::counter("fft.fft1d.lines");
  static obs::Counter& bluestein = obs::counter("fft.fft1d.bluestein_lines");
  batches.add(1);
  lines.add(count * groups);
  if (p.m != 0) bluestein.add(count * groups);

  // Tile so one split-complex tile and its work space stay
  // cache-resident: ~8 bytes * tile * (2n + work_per_line()) <= 128 KiB.
  const Index reals = 2 * n + p.work_per_line();
  const Index tile = std::min(
      count, std::clamp<Index>(Index{16384} / reals, Index{4}, Index{32}));
  const Index tiles_per_group = (count + tile - 1) / tile;
  const Index items = groups * tiles_per_group;
  [[maybe_unused]] const bool par =
      !in_omp_parallel() && items > 1 &&
      double(count * groups) * double(n) > 16384.0;

#pragma omp parallel if (par)
  {
    // Every element is written before it is read: no zero fill.
    const auto scratch = std::make_unique_for_overwrite<Real[]>(
        static_cast<std::size_t>(tile * reals));
    Real* re = scratch.get();
    Real* im = re + tile * n;
    Real* work = im + tile * n;
#pragma omp for schedule(static)
    for (Index item = 0; item < items; ++item) {
      const Index l0 = (item % tiles_per_group) * tile;
      const Index nt = std::min(tile, count - l0);
      Complex* src = base + (item / tiles_per_group) * group_dist + l0 * dist;
      gather_tile(src, nt, n, stride, dist, re, im);
      const std::pair<Real*, Real*> out =
          p.transform_tile(re, im, nt, inverse, work);
      scatter_tile(src, nt, n, stride, dist, out.first, out.second);
    }
  }
}

void Fft1D::forward_many(Complex* base, Index count, Index stride,
                         Index dist) const {
  transform_many(base, count, stride, dist, 1, 0, /*inverse=*/false);
}

void Fft1D::inverse_many(Complex* base, Index count, Index stride,
                         Index dist) const {
  transform_many(base, count, stride, dist, 1, 0, /*inverse=*/true);
}

void Fft1D::forward_many(Complex* base, Index count, Index stride, Index dist,
                         Index groups, Index group_dist) const {
  transform_many(base, count, stride, dist, groups, group_dist,
                 /*inverse=*/false);
}

void Fft1D::inverse_many(Complex* base, Index count, Index stride, Index dist,
                         Index groups, Index group_dist) const {
  transform_many(base, count, stride, dist, groups, group_dist,
                 /*inverse=*/true);
}

void fft_forward(Complex* x, Index n) { Fft1D(n).forward(x); }

void fft_inverse(Complex* x, Index n) { Fft1D(n).inverse(x); }

}  // namespace lrt::fft
