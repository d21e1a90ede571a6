// FFT tests: delta/plane-wave closed forms, round trips, Parseval,
// linearity, mixed-radix and Bluestein paths against a direct DFT,
// 3-D transforms, and the Bluestein line counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/random.hpp"
#include "fft/fft3d.hpp"
#include "obs/counters.hpp"

namespace lrt::fft {
namespace {

using constants::kTwoPi;

TEST(Fft1D, DeltaTransformsToConstant) {
  for (const Index n : {8, 12, 17, 104}) {
    std::vector<Complex> x(static_cast<std::size_t>(n), Complex{0, 0});
    x[0] = Complex{1, 0};
    Fft1D(n).forward(x.data());
    for (Index k = 0; k < n; ++k) {
      EXPECT_NEAR(x[static_cast<std::size_t>(k)].real(), 1.0, 1e-12) << n;
      EXPECT_NEAR(x[static_cast<std::size_t>(k)].imag(), 0.0, 1e-12);
    }
  }
}

TEST(Fft1D, PlaneWaveTransformsToDelta) {
  // x_j = exp(2πi m j / n) -> X_k = n δ_{k, -m mod n} for forward
  // convention exp(-2πi jk/n).
  for (const Index n : {16, 15}) {
    const Index m = 3;
    std::vector<Complex> x(static_cast<std::size_t>(n));
    for (Index j = 0; j < n; ++j) {
      const Real angle = kTwoPi * m * j / static_cast<Real>(n);
      x[static_cast<std::size_t>(j)] = Complex(std::cos(angle), std::sin(angle));
    }
    Fft1D(n).forward(x.data());
    for (Index k = 0; k < n; ++k) {
      const Real expected = (k == m) ? static_cast<Real>(n) : 0.0;
      EXPECT_NEAR(x[static_cast<std::size_t>(k)].real(), expected, 1e-9)
          << "n=" << n << " k=" << k;
    }
  }
}

class FftRoundTrip : public ::testing::TestWithParam<Index> {};

TEST_P(FftRoundTrip, InverseOfForwardIsIdentity) {
  const Index n = GetParam();
  lrt::Rng rng(static_cast<unsigned>(n));
  std::vector<Complex> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = Complex(rng.normal(), rng.normal());
  const std::vector<Complex> original = x;
  const Fft1D plan(n);
  plan.forward(x.data());
  plan.inverse(x.data());
  for (Index i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)].real(),
                original[static_cast<std::size_t>(i)].real(), 1e-10);
    EXPECT_NEAR(x[static_cast<std::size_t>(i)].imag(),
                original[static_cast<std::size_t>(i)].imag(), 1e-10);
  }
}

// Mix of radix sizes and Bluestein sizes, including the paper's
// non-power-of-two grid dimensions 104 and 166.
INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values<Index>(1, 2, 4, 8, 64, 3, 5, 7, 12,
                                                  17, 104, 166, 1000));

/// max_k |X_k - DFT(x)_k| / max_k |DFT(x)_k|, with the direct O(n²) DFT
/// summed in long double (inverse: normalized by 1/n).
Real dft_error(Index n, bool inverse) {
  lrt::Rng rng(static_cast<unsigned>(n * 2 + (inverse ? 1 : 0)));
  std::vector<Complex> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = Complex(rng.normal(), rng.normal());
  std::vector<Complex> got = x;
  const Fft1D plan(n);
  if (inverse) {
    plan.inverse(got.data());
  } else {
    plan.forward(got.data());
  }
  const long double sign = inverse ? 1.0L : -1.0L;
  const long double two_pi = 6.283185307179586476925286766559L;
  Real err = 0, scale = 0;
  for (Index k = 0; k < n; ++k) {
    long double re = 0, im = 0;
    for (Index j = 0; j < n; ++j) {
      const long double a = sign * two_pi *
                            static_cast<long double>((j * k) % n) /
                            static_cast<long double>(n);
      const long double c = std::cos(a), s = std::sin(a);
      const Complex v = x[static_cast<std::size_t>(j)];
      re += v.real() * c - v.imag() * s;
      im += v.real() * s + v.imag() * c;
    }
    if (inverse) {
      re /= static_cast<long double>(n);
      im /= static_cast<long double>(n);
    }
    const Complex want(static_cast<Real>(re), static_cast<Real>(im));
    err = std::max(err, std::abs(got[static_cast<std::size_t>(k)] - want));
    scale = std::max(scale, std::abs(want));
  }
  return err / scale;
}

// {2, 3, 5, 7}-smooth lengths run as radix passes. The bound is about
// 5 ulp; the measured worst case over these sizes is 6e-16
// (docs/PERFORMANCE.md §2).
TEST(Fft1D, MixedRadixMatchesDirectDft) {
  for (const Index n : {3, 5, 6, 7, 9, 10, 12, 14, 15, 21, 35, 49, 60}) {
    EXPECT_LE(dft_error(n, false), 1e-15) << "forward n=" << n;
    EXPECT_LE(dft_error(n, true), 1e-15) << "inverse n=" << n;
  }
}

// Lengths with a prime factor above 7 keep Bluestein, whose chirp
// products and padded convolution cost accuracy: the bound is 3x the
// radix one (measured worst case 9e-16).
TEST(Fft1D, BluesteinMatchesDirectDft) {
  for (const Index n : {11, 13, 26, 104}) {
    EXPECT_LE(dft_error(n, false), 3e-15) << "forward n=" << n;
    EXPECT_LE(dft_error(n, true), 3e-15) << "inverse n=" << n;
  }
}

// fft.fft1d.bluestein_lines counts the lines that take the Bluestein
// path, so "no Bluestein at the benchmark grids" is a checked fact.
TEST(Fft1D, BluesteinLinesCounterSeesOnlyLargePrimeFactors) {
  obs::Counter& bluestein = obs::counter("fft.fft1d.bluestein_lines");
  for (const Index n : {14, 16}) {
    const Fft3D fft(n, n, n);
    std::vector<Complex> x(static_cast<std::size_t>(fft.size()),
                           Complex{1, 2});
    const long long before = bluestein.value();
    fft.forward(x.data());
    fft.inverse(x.data());
    EXPECT_EQ(bluestein.value() - before, 0) << n << "^3 round trip";
  }
  const Index count = 37;
  std::vector<Complex> lines(static_cast<std::size_t>(13 * count),
                             Complex{1, 0});
  const long long before = bluestein.value();
  Fft1D(13).forward_many(lines.data(), count, 1, 13);
  EXPECT_EQ(bluestein.value() - before, count);
}

TEST(Fft1D, ParsevalHolds) {
  const Index n = 60;
  lrt::Rng rng(2);
  std::vector<Complex> x(static_cast<std::size_t>(n));
  Real time_energy = 0;
  for (auto& v : x) {
    v = Complex(rng.normal(), rng.normal());
    time_energy += std::norm(v);
  }
  Fft1D(n).forward(x.data());
  Real freq_energy = 0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * n, 1e-8 * time_energy * n);
}

TEST(Fft1D, LinearityOfTransform) {
  const Index n = 24;
  lrt::Rng rng(3);
  std::vector<Complex> a(static_cast<std::size_t>(n)), b = a, sum = a;
  for (Index i = 0; i < n; ++i) {
    a[static_cast<std::size_t>(i)] = Complex(rng.normal(), rng.normal());
    b[static_cast<std::size_t>(i)] = Complex(rng.normal(), rng.normal());
    sum[static_cast<std::size_t>(i)] = a[static_cast<std::size_t>(i)] +
                                       Real{2} * b[static_cast<std::size_t>(i)];
  }
  const Fft1D plan(n);
  plan.forward(a.data());
  plan.forward(b.data());
  plan.forward(sum.data());
  for (Index i = 0; i < n; ++i) {
    const Complex expected = a[static_cast<std::size_t>(i)] +
                             Real{2} * b[static_cast<std::size_t>(i)];
    EXPECT_NEAR(std::abs(sum[static_cast<std::size_t>(i)] - expected), 0.0,
                1e-10);
  }
}

TEST(Fft3D, RoundTripMixedSizes) {
  const Fft3D fft(4, 6, 5);
  lrt::Rng rng(4);
  std::vector<Complex> x(static_cast<std::size_t>(fft.size()));
  for (auto& v : x) v = Complex(rng.normal(), rng.normal());
  const std::vector<Complex> original = x;
  fft.forward(x.data());
  fft.inverse(x.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(x[i] - original[i]), 0.0, 1e-10);
  }
}

TEST(Fft3D, PlaneWaveLandsOnSingleFrequency) {
  const Index n0 = 6, n1 = 4, n2 = 8;
  const Fft3D fft(n0, n1, n2);
  const Index m0 = 2, m1 = 1, m2 = 5;
  std::vector<Complex> x(static_cast<std::size_t>(n0 * n1 * n2));
  for (Index i0 = 0; i0 < n0; ++i0) {
    for (Index i1 = 0; i1 < n1; ++i1) {
      for (Index i2 = 0; i2 < n2; ++i2) {
        const Real angle = kTwoPi * (Real(m0 * i0) / n0 + Real(m1 * i1) / n1 +
                                     Real(m2 * i2) / n2);
        x[static_cast<std::size_t>((i0 * n1 + i1) * n2 + i2)] =
            Complex(std::cos(angle), std::sin(angle));
      }
    }
  }
  fft.forward(x.data());
  const Index hot = (m0 * n1 + m1) * n2 + m2;
  for (Index i = 0; i < n0 * n1 * n2; ++i) {
    const Real expected = (i == hot) ? static_cast<Real>(n0 * n1 * n2) : 0.0;
    EXPECT_NEAR(x[static_cast<std::size_t>(i)].real(), expected, 1e-8);
    EXPECT_NEAR(x[static_cast<std::size_t>(i)].imag(), 0.0, 1e-8);
  }
}

TEST(Fft3D, RealConvenienceWrappers) {
  const Fft3D fft(4, 4, 4);
  lrt::Rng rng(5);
  std::vector<Real> input(static_cast<std::size_t>(fft.size()));
  for (auto& v : input) v = rng.normal();
  std::vector<Complex> freq(static_cast<std::size_t>(fft.size()));
  fft.forward(input.data(), freq.data());
  std::vector<Real> output(static_cast<std::size_t>(fft.size()));
  fft.inverse_real(freq.data(), output.data());
  for (std::size_t i = 0; i < input.size(); ++i) {
    EXPECT_NEAR(output[i], input[i], 1e-10);
  }
}

TEST(Fft1D, RejectsBadLength) {
  EXPECT_THROW(Fft1D(0), lrt::Error);
}

}  // namespace
}  // namespace lrt::fft
