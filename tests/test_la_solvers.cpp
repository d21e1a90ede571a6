// Cholesky, LU, and least-squares solver tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/lstsq.hpp"
#include "la/lu.hpp"
#include "la/qr.hpp"

namespace lrt::la {
namespace {

RealMatrix random_spd(Index n, Rng& rng) {
  const RealMatrix a = RealMatrix::random_normal(n, n, rng);
  RealMatrix g = gram(a.view());
  for (Index i = 0; i < n; ++i) g(i, i) += static_cast<Real>(n);
  return g;
}

TEST(Cholesky, FactorReconstructs) {
  Rng rng(1);
  const RealMatrix a = random_spd(8, rng);
  const RealMatrix l = cholesky(a.view());
  const RealMatrix llt = gemm(Trans::kNo, Trans::kYes, l.view(), l.view());
  EXPECT_LT(max_abs_diff(llt.view(), a.view()), 1e-10);
  // Strict upper triangle is zero.
  for (Index i = 0; i < 8; ++i) {
    for (Index j = i + 1; j < 8; ++j) EXPECT_DOUBLE_EQ(l(i, j), 0.0);
  }
}

TEST(Cholesky, IndefiniteThrows) {
  RealMatrix a{{1, 0}, {0, -1}};
  EXPECT_THROW(cholesky(a.view()), Error);
  RealMatrix l;
  EXPECT_FALSE(try_cholesky(a.view(), l));
}

TEST(Cholesky, SolveSpd) {
  Rng rng(2);
  const RealMatrix a = random_spd(10, rng);
  const RealMatrix x_true = RealMatrix::random_normal(10, 3, rng);
  const RealMatrix b = gemm(Trans::kNo, Trans::kNo, a.view(), x_true.view());
  const RealMatrix x = solve_spd(a.view(), b.view());
  EXPECT_LT(max_abs_diff(x.view(), x_true.view()), 1e-9);
}

TEST(Cholesky, SpdInverse) {
  Rng rng(3);
  const RealMatrix a = random_spd(6, rng);
  const RealMatrix inv = spd_inverse(a.view());
  const RealMatrix prod = gemm(Trans::kNo, Trans::kNo, a.view(), inv.view());
  EXPECT_LT(max_abs_diff(prod.view(), RealMatrix::identity(6).view()), 1e-10);
}

TEST(Lu, SolveGeneral) {
  Rng rng(4);
  const RealMatrix a = RealMatrix::random_normal(12, 12, rng);
  const RealMatrix x_true = RealMatrix::random_normal(12, 2, rng);
  const RealMatrix b = gemm(Trans::kNo, Trans::kNo, a.view(), x_true.view());
  const RealMatrix x = solve(a.view(), b.view());
  EXPECT_LT(max_abs_diff(x.view(), x_true.view()), 1e-8);
}

TEST(Lu, SingularThrows) {
  RealMatrix a{{1, 2}, {2, 4}};
  EXPECT_THROW(lu_factor(a.view()), Error);
}

TEST(Lu, DeterminantKnownValues) {
  RealMatrix a{{2, 0}, {0, 3}};
  EXPECT_NEAR(determinant(a.view()), 6.0, 1e-12);
  RealMatrix b{{0, 1}, {1, 0}};  // permutation, det = -1
  EXPECT_NEAR(determinant(b.view()), -1.0, 1e-12);
}

TEST(Lstsq, QrSolvesConsistentSystemExactly) {
  Rng rng(5);
  const RealMatrix a = RealMatrix::random_normal(20, 6, rng);
  const RealMatrix x_true = RealMatrix::random_normal(6, 2, rng);
  const RealMatrix b = gemm(Trans::kNo, Trans::kNo, a.view(), x_true.view());
  const RealMatrix x = lstsq_qr(a.view(), b.view());
  EXPECT_LT(max_abs_diff(x.view(), x_true.view()), 1e-10);
}

TEST(Lstsq, ResidualIsOrthogonalToRange) {
  // Least-squares optimality: Aᵀ(Ax - b) = 0.
  Rng rng(6);
  const RealMatrix a = RealMatrix::random_normal(15, 4, rng);
  const RealMatrix b = RealMatrix::random_normal(15, 1, rng);
  const RealMatrix x = lstsq_qr(a.view(), b.view());
  RealMatrix residual = b;
  gemm(Trans::kNo, Trans::kNo, -1.0, a.view(), x.view(), 1.0,
       residual.view());
  const RealMatrix atr =
      gemm(Trans::kYes, Trans::kNo, a.view(), residual.view());
  EXPECT_LT(max_abs(atr.view()), 1e-10);
}

TEST(Lstsq, SolveGramFromRightMatchesDirect) {
  // X (C Cᵀ) = B with well-conditioned C.
  Rng rng(7);
  const RealMatrix c = RealMatrix::random_normal(5, 30, rng);
  const RealMatrix cct = gemm(Trans::kNo, Trans::kYes, c.view(), c.view());
  const RealMatrix x_true = RealMatrix::random_normal(8, 5, rng);
  const RealMatrix b =
      gemm(Trans::kNo, Trans::kNo, x_true.view(), cct.view());
  const RealMatrix x = solve_gram_from_right(b.view(), cct.view());
  EXPECT_LT(max_abs_diff(x.view(), x_true.view()), 1e-8);
}

TEST(Lstsq, SolveGramSurvivesRankDeficiency) {
  // Singular Gram matrix: the ridge fallback must not throw and must
  // satisfy the normal equations approximately.
  RealMatrix cct{{1, 1}, {1, 1}};  // rank 1
  RealMatrix b{{2, 2}};
  const RealMatrix x = solve_gram_from_right(b.view(), cct.view());
  const RealMatrix back =
      gemm(Trans::kNo, Trans::kNo, x.view(), cct.view());
  EXPECT_NEAR(back(0, 0), 2.0, 1e-5);
  EXPECT_NEAR(back(0, 1), 2.0, 1e-5);
}

// ----- right-side triangular solve ------------------------------------------

/// Lower-triangular factor of a well-conditioned SPD matrix.
RealMatrix random_lower(Index n, Rng& rng) {
  return cholesky(random_spd(n, rng).view());
}

/// The transpose-based solve trsm_right_lower replaced, kept here as the
/// oracle: B op(L)⁻¹ = (op(L)⁻ᵀ Bᵀ)ᵀ, solved column-wise on Bᵀ.
RealMatrix transposed_trsm_oracle(Trans t, RealConstView l, RealConstView b) {
  RealMatrix bt = transpose(b);
  if (t == Trans::kYes) {
    solve_lower_triangular(l, bt.view());
  } else {
    solve_lower_transposed(l, bt.view());
  }
  return transpose<Real>(bt.view());
}

/// The transpose + cholesky_solve form of solve_gram_from_right,
/// including its ridge fallback, kept here as the oracle.
RealMatrix transposed_gram_oracle(RealConstView b, RealConstView gram_matrix,
                                  Real ridge = 1e-12) {
  const Index n = gram_matrix.rows();
  RealMatrix g = to_matrix(gram_matrix);
  RealMatrix l;
  if (!try_cholesky(g.view(), l)) {
    Real trace = 0.0;
    for (Index i = 0; i < n; ++i) trace += g(i, i);
    const Real shift = ridge * (trace > Real{0} ? trace / Real(n) : Real{1});
    for (Index i = 0; i < n; ++i) g(i, i) += shift;
    l = cholesky(g.view());
  }
  RealMatrix xt = transpose(b);
  cholesky_solve(l.view(), xt.view());
  return transpose<Real>(xt.view());
}

/// max |x - ref| / max |ref| (0 when both are empty or zero).
Real relative_diff(RealConstView x, RealConstView ref) {
  const Real scale = max_abs(ref);
  const Real diff = max_abs_diff(x, ref);
  return scale > Real{0} ? diff / scale : diff;
}

void expect_bitwise_equal(RealConstView a, RealConstView b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(a(i, j), b(i, j)) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(TrsmRightLower, MatchesTransposedOracleAcrossBlockBoundaries) {
  Rng rng(11);
  for (const Index n : {Index{1}, kTrsmBlock - 1, kTrsmBlock, kTrsmBlock + 1,
                        Index{288}}) {
    const RealMatrix l = random_lower(n, rng);
    for (const Index m : {Index{0}, Index{1}, Index{1000}}) {
      const RealMatrix b = RealMatrix::random_normal(m, n, rng);
      for (const Trans t : {Trans::kYes, Trans::kNo}) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " m=" << m
                     << " op=" << (t == Trans::kYes ? "Lt" : "L"));
        RealMatrix x = b;
        trsm_right_lower(t, l.view(), x.view());
        const RealMatrix ref = transposed_trsm_oracle(t, l.view(), b.view());
        EXPECT_LE(relative_diff(x.view(), ref.view()), 1e-12);
        // And it solves the system: X op(L) = B.
        const RealMatrix back = gemm(Trans::kNo, t, x.view(), l.view());
        EXPECT_LE(relative_diff(back.view(), b.view()), 1e-12);
      }
    }
  }
}

TEST(TrsmRightLower, StridedViewsReadOnlyTheLowerTriangle) {
  // L and B are windows into wider matrices (ld > cols). L's strict upper
  // triangle and the padding around both windows hold NaN: a read of any
  // of them would poison the result, a write outside B would show up.
  Rng rng(12);
  const Index n = 2 * kTrsmBlock + 5;
  const Index m = 37;
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  const RealMatrix l = random_lower(n, rng);
  const RealMatrix b = RealMatrix::random_normal(m, n, rng);
  for (const Trans t : {Trans::kYes, Trans::kNo}) {
    RealMatrix l_store(n + 3, n + 7);
    l_store.fill(nan);
    RealView l_view = l_store.view().block(2, 3, n, n);
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j <= i; ++j) l_view(i, j) = l(i, j);
    }
    RealMatrix b_store(m + 2, n + 9);
    b_store.fill(nan);
    RealView b_view = b_store.view().block(1, 4, m, n);
    copy<Real>(b.view(), b_view);

    trsm_right_lower(t, l_view, b_view);

    const RealMatrix ref = transposed_trsm_oracle(t, l.view(), b.view());
    EXPECT_LE(relative_diff(b_view, ref.view()), 1e-12);
    for (Index i = 0; i < b_store.rows(); ++i) {
      for (Index j = 0; j < b_store.cols(); ++j) {
        const bool inside = i >= 1 && i < 1 + m && j >= 4 && j < 4 + n;
        if (!inside) {
          EXPECT_TRUE(std::isnan(b_store(i, j)));
        }
      }
    }
  }
}

TEST(TrsmRightLower, RejectsSingularFactorAndBadShapes) {
  Rng rng(13);
  const Index n = kTrsmBlock + 3;
  RealMatrix l = random_lower(n, rng);
  RealMatrix b = RealMatrix::random_normal(4, n, rng);
  RealMatrix narrow = RealMatrix::random_normal(4, n - 1, rng);
  EXPECT_THROW(trsm_right_lower(Trans::kYes, l.view(), narrow.view()), Error);
  l(n - 2, n - 2) = 0.0;
  EXPECT_THROW(trsm_right_lower(Trans::kYes, l.view(), b.view()), Error);
  EXPECT_THROW(trsm_right_lower(Trans::kNo, l.view(), b.view()), Error);
}

/// The per-row scalar diagonal solve trsm_right_lower ran before it put
/// rows in SIMD lanes, kept here as the bitwise oracle: b := b op(d)⁻¹,
/// one row at a time, products and differences rounded separately.
void scalar_diagonal_solve(Trans t, RealConstView d, RealView b) {
  const Index nb = d.rows();
  for (Index r = 0; r < b.rows(); ++r) {
    Real* x = b.row_ptr(r);
    if (t == Trans::kYes) {
      // x dᵀ = b_r: x_j = (b_j - sum_{k<j} x_k d(j,k)) / d(j,j).
      for (Index j = 0; j < nb; ++j) {
        const Real* dj = d.row_ptr(j);
        Real sum = x[j];
        for (Index k = 0; k < j; ++k) sum -= x[k] * dj[k];
        x[j] = sum / dj[j];
      }
    } else {
      // x d = b_r: x_j = (b_j - sum_{k>j} x_k d(k,j)) / d(j,j).
      for (Index j = nb - 1; j >= 0; --j) {
        Real sum = x[j];
        for (Index k = j + 1; k < nb; ++k) sum -= x[k] * d.row_ptr(k)[j];
        x[j] = sum / d.row_ptr(j)[j];
      }
    }
  }
}

/// trsm_right_lower's block schedule with the scalar diagonal solve.
void scalar_diagonal_trsm(Trans t, RealConstView l, RealView b) {
  const Index n = l.rows();
  const Index nblocks = (n + kTrsmBlock - 1) / kTrsmBlock;
  for (Index s = 0; s < nblocks; ++s) {
    const Index blk = (t == Trans::kYes) ? s : nblocks - 1 - s;
    const Index j0 = blk * kTrsmBlock;
    const Index nb = std::min(kTrsmBlock, n - j0);
    const Index j1 = j0 + nb;
    const RealView bj = b.cols_block(j0, nb);
    if (t == Trans::kYes && j0 > 0) {
      gemm(Trans::kNo, Trans::kYes, Real{-1}, b.cols_block(0, j0),
           l.block(j0, 0, nb, j0), Real{1}, bj);
    } else if (t == Trans::kNo && j1 < n) {
      gemm(Trans::kNo, Trans::kNo, Real{-1}, b.cols_block(j1, n - j1),
           l.block(j1, j0, n - j1, nb), Real{1}, bj);
    }
    scalar_diagonal_solve(t, l.block(j0, j0, nb, nb), bj);
  }
}

TEST(TrsmRightLower, DiagonalSolveBitwiseEqualsScalarRows) {
  // Row counts off the lane width, widths inside one block and across
  // several, and B as a window into a wider matrix.
  Rng rng(17);
  for (const Index n : {Index{1}, Index{5}, kTrsmBlock, kTrsmBlock + 3,
                        Index{3} * kTrsmBlock}) {
    const RealMatrix l = random_lower(n, rng);
    for (const Index m : {Index{1}, Index{7}, Index{31}, Index{33},
                          Index{100}, Index{1000}}) {
      const RealMatrix b = RealMatrix::random_normal(m, n, rng);
      for (const Trans t : {Trans::kYes, Trans::kNo}) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " m=" << m
                     << " op=" << (t == Trans::kYes ? "Lt" : "L"));
        RealMatrix want = b;
        scalar_diagonal_trsm(t, l.view(), want.view());
        RealMatrix got = b;
        trsm_right_lower(t, l.view(), got.view());
        expect_bitwise_equal(got.view(), want.view());

        RealMatrix store = RealMatrix::random_normal(m + 3, n + 5, rng);
        const RealView window = store.view().block(2, 3, m, n);
        copy<Real>(b.view(), window);
        trsm_right_lower(t, l.view(), window);
        expect_bitwise_equal(window, want.view());
      }
    }
  }
}

TEST(Lstsq, SolveGramFromRightMatchesTransposedOracle) {
  // ISDF shape: Θ (Nr x Nμ) from Z Cᵀ and C Cᵀ, Nμ spanning many blocks.
  Rng rng(14);
  const Index nmu = 288;
  const Index nr = 1000;
  const RealMatrix c = RealMatrix::random_normal(nmu, 2 * nmu, rng);
  const RealMatrix cct = gemm(Trans::kNo, Trans::kYes, c.view(), c.view());
  const RealMatrix b = RealMatrix::random_normal(nr, nmu, rng);
  const RealMatrix x = solve_gram_from_right(b.view(), cct.view());
  const RealMatrix ref = transposed_gram_oracle(b.view(), cct.view());
  EXPECT_LE(relative_diff(x.view(), ref.view()), 1e-12);
  const RealMatrix back = gemm(Trans::kNo, Trans::kNo, x.view(), cct.view());
  EXPECT_LE(relative_diff(back.view(), b.view()), 1e-10);
}

TEST(Lstsq, SolveGramRidgeFallbackBeyondOneBlock) {
  // A Gram matrix with an all-zero row/column past the first block: the
  // Cholesky pivot there is exactly zero, so the ridge path must run.
  Rng rng(15);
  const Index n = 3 * kTrsmBlock + 2;
  const Index dead = 2 * kTrsmBlock + 1;
  RealMatrix cct = random_spd(n, rng);
  for (Index i = 0; i < n; ++i) {
    cct(i, dead) = 0.0;
    cct(dead, i) = 0.0;
  }
  RealMatrix unused;
  ASSERT_FALSE(try_cholesky(cct.view(), unused));

  const RealMatrix x_true = RealMatrix::random_normal(50, n, rng);
  const RealMatrix b =
      gemm(Trans::kNo, Trans::kNo, x_true.view(), cct.view());
  const RealMatrix x = solve_gram_from_right(b.view(), cct.view());
  const RealMatrix ref = transposed_gram_oracle(b.view(), cct.view());
  EXPECT_LE(relative_diff(x.view(), ref.view()), 1e-12);
  const RealMatrix back = gemm(Trans::kNo, Trans::kNo, x.view(), cct.view());
  EXPECT_LE(relative_diff(back.view(), b.view()), 1e-10);
}

#ifdef _OPENMP
TEST(TrsmRightLower, BitwiseEqualAtOneAndFourThreads) {
  Rng rng(16);
  const Index n = 288;
  const RealMatrix l = random_lower(n, rng);
  const RealMatrix b = RealMatrix::random_normal(1000, n, rng);
  const RealMatrix gram_matrix = random_spd(n, rng);
  const int saved = omp_get_max_threads();
  std::vector<RealMatrix> trsm_out;
  std::vector<RealMatrix> gram_out;
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    for (const Trans t : {Trans::kYes, Trans::kNo}) {
      RealMatrix x = b;
      trsm_right_lower(t, l.view(), x.view());
      trsm_out.push_back(x);
    }
    gram_out.push_back(solve_gram_from_right(b.view(), gram_matrix.view()));
  }
  omp_set_num_threads(saved);
  expect_bitwise_equal(trsm_out[0].view(), trsm_out[2].view());
  expect_bitwise_equal(trsm_out[1].view(), trsm_out[3].view());
  expect_bitwise_equal(gram_out[0].view(), gram_out[1].view());
}
#endif

}  // namespace
}  // namespace lrt::la
