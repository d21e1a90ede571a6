// Symmetric eigensolver inputs that reach tred2/tql2's special branches,
// shared by the serial (test_la_eig) and distributed (test_par_dist)
// bitwise tests.
#pragma once

#include "la/blas.hpp"
#include "la/matrix.hpp"
#include "la/ortho.hpp"

namespace lrt::la::eig_inputs {

/// The trailing 1x1 block is decoupled, so the first Householder step
/// sees an all-zero row (tred2's scale == 0 branch); the two leading
/// blocks are decoupled from each other as well.
inline RealMatrix block_diagonal_zero_scale() {
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
  return a;
}

/// diag(1, 1, 1, 4, 4): already tridiagonal, all-zero off-diagonal.
inline RealMatrix degenerate_diagonal() {
  const Index n = 5;
  RealMatrix lam(n, n);
  for (Index i = 0; i < n; ++i) lam(i, i) = i < 3 ? 1.0 : 4.0;
  return lam;
}

/// Eigenvalues {1,1,1,4,4} after a dense orthogonal similarity, so the
/// QL iteration has to separate repeated eigenvalues.
inline RealMatrix degenerate_spectrum() {
  const Index n = 5;
  Rng rng(5);
  RealMatrix q = RealMatrix::random_normal(n, n, rng);
  ortho_qr(q.view());
  const RealMatrix lam = degenerate_diagonal();
  const RealMatrix ql = gemm(Trans::kNo, Trans::kNo, q.view(), lam.view());
  return gemm(Trans::kNo, Trans::kYes, ql.view(), q.view());
}

}  // namespace lrt::la::eig_inputs
