#include <algorithm>
#include <cmath>

#include "la/blas.hpp"

namespace lrt::la {
namespace {

/// Dimension product (rows x nb²) above which the diagonal solve spawns
/// an OpenMP team.
constexpr Index kParallelWorkThreshold = Index{1} << 16;

/// Rows of b solved together, one per SIMD lane.
constexpr Index kLanes = 32;

/// b := b op(d)⁻¹ for rows [r0, r0 + rows) of b, rows <= kLanes, for an
/// nb x nb lower-triangular diagonal block d. The rows sit in SIMD lanes
/// of a transposed copy; each row gets the per-row solve's operations in
/// its order,
///   x dᵀ = b_r: x_j = (b_j - sum_{k<j} x_k d(j,k)) / d(j,j), forward;
///   x d   = b_r: x_j = (b_j - sum_{k>j} x_k d(k,j)) / d(j,j), backward,
/// each product and difference rounded on its own (this file is built
/// with -ffp-contract=off), so the bits do not depend on the lane width.
[[gnu::always_inline]] inline void solve_rows(Trans t, RealConstView d,
                                              RealView b, Index r0,
                                              Index rows) {
  const Index nb = d.rows();
  alignas(64) Real x[kTrsmBlock][kLanes] = {};
  for (Index r = 0; r < rows; ++r) {
    const Real* src = b.row_ptr(r0 + r);
    for (Index j = 0; j < nb; ++j) x[j][r] = src[j];
  }
  for (Index s = 0; s < nb; ++s) {
    const Index j = (t == Trans::kYes) ? s : nb - 1 - s;
    const Index k0 = (t == Trans::kYes) ? 0 : j + 1;
    const Index k1 = (t == Trans::kYes) ? j : nb;
    Real* xj = x[j];
    for (Index k = k0; k < k1; ++k) {
      const Real coef = (t == Trans::kYes) ? d(j, k) : d(k, j);
      const Real* xk = x[k];
#pragma omp simd
      for (Index lane = 0; lane < kLanes; ++lane) xj[lane] -= xk[lane] * coef;
    }
    const Real djj = d(j, j);
#pragma omp simd
    for (Index lane = 0; lane < kLanes; ++lane) xj[lane] /= djj;
  }
  for (Index r = 0; r < rows; ++r) {
    Real* dst = b.row_ptr(r0 + r);
    for (Index j = 0; j < nb; ++j) dst[j] = x[j][r];
  }
}

using SolveRowsFn = void (*)(Trans, RealConstView, RealView, Index, Index);

void solve_rows_baseline(Trans t, RealConstView d, RealView b, Index r0,
                         Index rows) {
  solve_rows(t, d, b, r0, rows);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void solve_rows_avx2(
    Trans t, RealConstView d, RealView b, Index r0, Index rows) {
  solve_rows(t, d, b, r0, rows);
}

__attribute__((target("avx512f"))) void solve_rows_avx512(
    Trans t, RealConstView d, RealView b, Index r0, Index rows) {
  solve_rows(t, d, b, r0, rows);
}
#endif

SolveRowsFn pick_solve_rows() {
#if defined(__x86_64__)
  switch (host_isa()) {
    case Isa::kAvx512: return solve_rows_avx512;
    case Isa::kAvx2Fma: return solve_rows_avx2;
    case Isa::kBaseline: break;
  }
#endif
  return solve_rows_baseline;
}

/// b := b op(d)⁻¹, kLanes rows at a time. Rows are independent, so the
/// result does not depend on how the row groups are split across threads.
void solve_diagonal_block(Trans t, RealConstView d, RealView b) {
  static const SolveRowsFn solve = pick_solve_rows();
  const Index m = b.rows();
  const Index nb = d.rows();
  [[maybe_unused]] const bool parallel =
      m * nb * nb > kParallelWorkThreshold;
#pragma omp parallel for schedule(static) if (parallel)
  for (Index r0 = 0; r0 < m; r0 += kLanes) {
    solve(t, d, b, r0, std::min(kLanes, m - r0));
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
