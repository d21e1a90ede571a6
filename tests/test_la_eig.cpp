// Symmetric and generalized eigensolver tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "la/blas.hpp"
#include "la/eig.hpp"
#include "la/ortho.hpp"

namespace lrt::la {
namespace {

// Frozen oracle: the textbook row-major port of the Algol tred2/tql2
// pair, on the EISPACK working matrix V itself (eigenvectors in
// columns). la::syev runs the same arithmetic in the same order on Vᵀ,
// so its eigenvalues and eigenvectors must equal this bit for bit.
namespace rowmajor {

void tred2(RealMatrix& v, std::vector<Real>& d, std::vector<Real>& e) {
  const Index n = v.rows();
  for (Index j = 0; j < n; ++j) d[j] = v(n - 1, j);

  for (Index i = n - 1; i > 0; --i) {
    Real scale = 0.0;
    Real h = 0.0;
    for (Index k = 0; k < i; ++k) scale += std::abs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (Index j = 0; j < i; ++j) {
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
        v(j, i) = 0.0;
      }
    } else {
      for (Index k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      Real f = d[i - 1];
      Real g = std::sqrt(h);
      if (f > 0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (Index j = 0; j < i; ++j) e[j] = 0.0;

      for (Index j = 0; j < i; ++j) {
        f = d[j];
        v(j, i) = f;
        g = e[j] + v(j, j) * f;
        for (Index k = j + 1; k <= i - 1; ++k) {
          g += v(k, j) * d[k];
          e[k] += v(k, j) * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (Index j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const Real hh = f / (h + h);
      for (Index j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (Index j = 0; j < i; ++j) {
        f = d[j];
        g = e[j];
        for (Index k = j; k <= i - 1; ++k) {
          v(k, j) -= (f * e[k] + g * d[k]);
        }
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate transformations.
  for (Index i = 0; i < n - 1; ++i) {
    v(n - 1, i) = v(i, i);
    v(i, i) = 1.0;
    const Real h = d[i + 1];
    if (h != 0.0) {
      for (Index k = 0; k <= i; ++k) d[k] = v(k, i + 1) / h;
      for (Index j = 0; j <= i; ++j) {
        Real g = 0.0;
        for (Index k = 0; k <= i; ++k) g += v(k, i + 1) * v(k, j);
        for (Index k = 0; k <= i; ++k) v(k, j) -= g * d[k];
      }
    }
    for (Index k = 0; k <= i; ++k) v(k, i + 1) = 0.0;
  }
  for (Index j = 0; j < n; ++j) {
    d[j] = v(n - 1, j);
    v(n - 1, j) = 0.0;
  }
  v(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

void tql2(RealMatrix& v, std::vector<Real>& d, std::vector<Real>& e) {
  const Index n = v.rows();
  for (Index i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  Real f = 0.0;
  Real tst1 = 0.0;
  const Real eps = std::numeric_limits<Real>::epsilon();

  for (Index l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
    Index m = l;
    while (m < n) {
      if (std::abs(e[m]) <= eps * tst1) break;
      ++m;
    }

    if (m > l) {
      int iter = 0;
      do {
        ++iter;
        LRT_CHECK(iter <= 60, "tql2 failed to converge at eigenvalue " << l);

        Real g = d[l];
        Real p = (d[l + 1] - g) / (2.0 * e[l]);
        Real r = std::hypot(p, Real{1});
        if (p < 0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const Real dl1 = d[l + 1];
        Real h = g - d[l];
        for (Index i = l + 2; i < n; ++i) d[i] -= h;
        f += h;

        p = d[m];
        Real c = 1.0;
        Real c2 = c;
        Real c3 = c;
        const Real el1 = e[l + 1];
        Real s = 0.0;
        Real s2 = 0.0;
        for (Index i = m - 1; i >= l; --i) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = std::hypot(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          for (Index k = 0; k < n; ++k) {
            h = v(k, i + 1);
            v(k, i + 1) = s * v(k, i) + c * h;
            v(k, i) = c * v(k, i) - s * h;
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::abs(e[l]) > eps * tst1);
    }
    d[l] += f;
    e[l] = 0.0;
  }

  // Sort eigenvalues ascending, permuting eigenvector columns alongside.
  for (Index i = 0; i < n - 1; ++i) {
    Index k = i;
    Real p = d[i];
    for (Index j = i + 1; j < n; ++j) {
      if (d[j] < p) {
        k = j;
        p = d[j];
      }
    }
    if (k != i) {
      d[k] = d[i];
      d[i] = p;
      for (Index j = 0; j < n; ++j) std::swap(v(j, i), v(j, k));
    }
  }
}

EigResult syev(const RealMatrix& a) {
  const Index n = a.rows();
  EigResult result;
  result.values.assign(static_cast<std::size_t>(n), Real{0});
  result.vectors = RealMatrix(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j <= i; ++j) {
      const Real avg = 0.5 * (a(i, j) + a(j, i));
      result.vectors(i, j) = avg;
      result.vectors(j, i) = avg;
    }
  }
  std::vector<Real> e(static_cast<std::size_t>(n), Real{0});
  tred2(result.vectors, result.values, e);
  tql2(result.vectors, result.values, e);
  return result;
}

}  // namespace rowmajor

TEST(Syev, DiagonalMatrix) {
  RealMatrix a{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}};
  const EigResult r = syev(a.view());
  ASSERT_EQ(r.values.size(), 3u);
  EXPECT_NEAR(r.values[0], 1.0, 1e-12);
  EXPECT_NEAR(r.values[1], 2.0, 1e-12);
  EXPECT_NEAR(r.values[2], 3.0, 1e-12);
}

TEST(Syev, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  RealMatrix a{{2, 1}, {1, 2}};
  const EigResult r = syev(a.view());
  EXPECT_NEAR(r.values[0], 1.0, 1e-12);
  EXPECT_NEAR(r.values[1], 3.0, 1e-12);
}

TEST(Syev, OneByOneAndEmpty) {
  RealMatrix a{{5}};
  const EigResult r = syev(a.view());
  EXPECT_NEAR(r.values[0], 5.0, 1e-14);
  EXPECT_NEAR(r.vectors(0, 0), 1.0, 1e-14);
}

class SyevSizes : public ::testing::TestWithParam<Index> {};

TEST_P(SyevSizes, ResidualAndOrthogonality) {
  const Index n = GetParam();
  Rng rng(static_cast<unsigned>(n));
  RealMatrix a = RealMatrix::random_normal(n, n, rng);
  // Symmetrize.
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < i; ++j) {
      a(j, i) = a(i, j);
    }
  }
  const EigResult r = syev(a.view());
  EXPECT_LT(eig_residual(a.view(), r), 1e-9 * n);
  EXPECT_LT(orthogonality_error(r.vectors.view()), 1e-11);
  // Ascending.
  for (Index i = 1; i < n; ++i) {
    EXPECT_LE(r.values[static_cast<std::size_t>(i - 1)],
              r.values[static_cast<std::size_t>(i)] + 1e-12);
  }
  // Trace preservation.
  Real trace = 0, sum = 0;
  for (Index i = 0; i < n; ++i) {
    trace += a(i, i);
    sum += r.values[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(trace, sum, 1e-8 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SyevSizes,
                         ::testing::Values<Index>(2, 3, 5, 10, 33, 64, 100, 257,
                                                   512));

TEST(Syev, DegenerateEigenvaluesHandled) {
  // Identity block plus shifted block: eigenvalues {1,1,1,4,4}.
  RealMatrix a(5, 5);
  for (Index i = 0; i < 3; ++i) a(i, i) = 1.0;
  for (Index i = 3; i < 5; ++i) a(i, i) = 4.0;
  const EigResult r = syev(a.view());
  EXPECT_NEAR(r.values[0], 1.0, 1e-12);
  EXPECT_NEAR(r.values[2], 1.0, 1e-12);
  EXPECT_NEAR(r.values[3], 4.0, 1e-12);
  EXPECT_LT(orthogonality_error(r.vectors.view()), 1e-12);
}

// Asserts la::syev equals the row-major oracle bit for bit: every
// eigenvalue and every eigenvector entry.
void expect_bitwise_equal_to_oracle(const RealMatrix& a) {
  const EigResult got = syev(a.view());
  const EigResult want = rowmajor::syev(a);
  ASSERT_EQ(got.values.size(), want.values.size());
  for (std::size_t k = 0; k < want.values.size(); ++k) {
    EXPECT_EQ(got.values[k], want.values[k]) << "eigenvalue " << k;
  }
  ASSERT_EQ(got.vectors.rows(), want.vectors.rows());
  ASSERT_EQ(got.vectors.cols(), want.vectors.cols());
  Index mismatches = 0;
  for (Index i = 0; i < want.vectors.rows(); ++i) {
    for (Index j = 0; j < want.vectors.cols(); ++j) {
      if (got.vectors(i, j) != want.vectors(i, j)) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0) << "eigenvector entries differ from the oracle";
}

class SyevOracleSizes : public ::testing::TestWithParam<Index> {};

TEST_P(SyevOracleSizes, BitwiseEqualToRowMajorOracle) {
  const Index n = GetParam();
  Rng rng(static_cast<unsigned>(1000 + n));
  // Deliberately unsymmetric: syev symmetrizes, and so does the oracle.
  const RealMatrix a = RealMatrix::random_normal(n, n, rng);
  expect_bitwise_equal_to_oracle(a);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SyevOracleSizes,
                         ::testing::Values<Index>(2, 3, 17, 64, 200, 512));

TEST(SyevOracle, BlockDiagonalHitsZeroScaleBranch) {
  // The trailing 1x1 block is decoupled, so the first Householder step
  // sees an all-zero row (tred2's scale == 0 branch); the two leading
  // blocks are decoupled from each other as well.
  const Index n = 9;
  Rng rng(77);
  const RealMatrix r = RealMatrix::random_normal(n, n, rng);
  RealMatrix a(n, n);
  const Index blocks[][2] = {{0, 5}, {5, 8}, {8, 9}};
  for (const auto& blk : blocks) {
    for (Index i = blk[0]; i < blk[1]; ++i) {
      for (Index j = blk[0]; j < blk[1]; ++j) a(i, j) = r(i, j) + r(j, i);
    }
  }
  expect_bitwise_equal_to_oracle(a);
}

TEST(SyevOracle, DegenerateSpectrum) {
  // Eigenvalues {1,1,1,4,4} after a dense orthogonal similarity, so the
  // QL iteration has to separate repeated eigenvalues.
  const Index n = 5;
  Rng rng(5);
  RealMatrix q = RealMatrix::random_normal(n, n, rng);
  ortho_qr(q.view());
  RealMatrix lam(n, n);
  for (Index i = 0; i < n; ++i) lam(i, i) = i < 3 ? 1.0 : 4.0;
  const RealMatrix ql = gemm(Trans::kNo, Trans::kNo, q.view(), lam.view());
  const RealMatrix a = gemm(Trans::kNo, Trans::kYes, ql.view(), q.view());
  expect_bitwise_equal_to_oracle(a);
  // The diagonal (already tridiagonal, all-zero off-diagonal) case too.
  expect_bitwise_equal_to_oracle(lam);
}

TEST(Sygv, MatchesDirectSubstitution) {
  Rng rng(9);
  const Index n = 12;
  // A symmetric, B SPD.
  RealMatrix a = RealMatrix::random_normal(n, n, rng);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < i; ++j) a(j, i) = a(i, j);
  }
  const RealMatrix c = RealMatrix::random_normal(n, n, rng);
  RealMatrix b = gram(c.view());
  for (Index i = 0; i < n; ++i) b(i, i) += n;

  const EigResult r = sygv(a.view(), b.view());
  // Check A x = λ B x for each pair.
  const RealMatrix ax = gemm(Trans::kNo, Trans::kNo, a.view(),
                             r.vectors.view());
  const RealMatrix bx = gemm(Trans::kNo, Trans::kNo, b.view(),
                             r.vectors.view());
  for (Index j = 0; j < n; ++j) {
    Real err = 0;
    for (Index i = 0; i < n; ++i) {
      const Real d =
          ax(i, j) - r.values[static_cast<std::size_t>(j)] * bx(i, j);
      err += d * d;
    }
    EXPECT_LT(std::sqrt(err), 1e-8);
  }
  // B-orthonormality: XᵀBX = I.
  const RealMatrix xtbx =
      gemm(Trans::kYes, Trans::kNo, r.vectors.view(), bx.view());
  EXPECT_LT(max_abs_diff(xtbx.view(), RealMatrix::identity(n).view()), 1e-9);
}

TEST(Sygv, IdentityBReducesToSyev) {
  Rng rng(10);
  RealMatrix a = RealMatrix::random_normal(6, 6, rng);
  for (Index i = 0; i < 6; ++i) {
    for (Index j = 0; j < i; ++j) a(j, i) = a(i, j);
  }
  const EigResult general = sygv(a.view(), RealMatrix::identity(6).view());
  const EigResult plain = syev(a.view());
  for (Index i = 0; i < 6; ++i) {
    EXPECT_NEAR(general.values[static_cast<std::size_t>(i)],
                plain.values[static_cast<std::size_t>(i)], 1e-10);
  }
}

}  // namespace
}  // namespace lrt::la
