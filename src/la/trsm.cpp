#include <algorithm>
#include <cmath>

#include "la/blas.hpp"

namespace lrt::la {
namespace {

/// Dimension product (rows x nb²) above which the diagonal solve spawns
/// an OpenMP team.
constexpr Index kParallelWorkThreshold = Index{1} << 16;

/// b := b op(d)⁻¹ for an nb x nb lower-triangular diagonal block d, one
/// row of b at a time. Rows are independent, so the result does not
/// depend on how the rows are split across threads.
void solve_diagonal_block(Trans t, RealConstView d, RealView b) {
  const Index m = b.rows();
  const Index nb = d.rows();
  [[maybe_unused]] const bool parallel =
      m * nb * nb > kParallelWorkThreshold;
#pragma omp parallel for schedule(static) if (parallel)
  for (Index r = 0; r < m; ++r) {
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

}  // namespace

void trsm_right_lower(Trans t, RealConstView l, RealView b) {
  const Index n = l.rows();
  LRT_CHECK(l.cols() == n, "trsm_right_lower needs a square factor");
  LRT_CHECK(b.cols() == n, "trsm_right_lower shape mismatch: b has "
                               << b.cols() << " columns, L is " << n);
  for (Index i = 0; i < n; ++i) {
    LRT_CHECK(std::abs(l(i, i)) > Real{0},
              "singular triangular factor at " << i);
  }
  if (b.rows() == 0 || n == 0) return;

  const Index nblocks = (n + kTrsmBlock - 1) / kTrsmBlock;
  for (Index s = 0; s < nblocks; ++s) {
    // Forward over column blocks for X Lᵀ = B, backward for X L = B.
    const Index blk = (t == Trans::kYes) ? s : nblocks - 1 - s;
    const Index j0 = blk * kTrsmBlock;
    const Index nb = std::min(kTrsmBlock, n - j0);
    const Index j1 = j0 + nb;
    const RealView bj = b.cols_block(j0, nb);
    // Subtract the contribution of the already-solved columns; only the
    // strictly lower part of L is read.
    if (t == Trans::kYes && j0 > 0) {
      gemm(Trans::kNo, Trans::kYes, Real{-1}, b.cols_block(0, j0),
           l.block(j0, 0, nb, j0), Real{1}, bj);
    } else if (t == Trans::kNo && j1 < n) {
      gemm(Trans::kNo, Trans::kNo, Real{-1}, b.cols_block(j1, n - j1),
           l.block(j1, j0, n - j1, nb), Real{1}, bj);
    }
    solve_diagonal_block(t, l.block(j0, j0, nb, nb), bj);
  }
}

}  // namespace lrt::la
