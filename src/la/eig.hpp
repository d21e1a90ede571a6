// Symmetric (and generalized symmetric-definite) dense eigensolvers.
//
// syev reduces the matrix to tridiagonal form with Householder reflections
// and diagonalizes with the implicit-shift QL iteration (the classic
// tred2/tql2 pair, as in EISPACK/LAPACK steqr). This is the serial
// equivalent of the ScaLAPACK SYEVD call the paper's naive code uses.
//
// Eigenvalues are returned in ascending order; eigenvectors are the
// *columns* of `vectors`, matching x_k = vectors(:, k).
//
// Working layout: tred2/tql2 run on the transpose of the EISPACK working
// matrix, so each eigenvector being built is a contiguous row and every
// O(n³) inner loop is a unit-stride sweep. One in-place transpose at the
// end restores the column convention. Only the layout differs from the
// textbook port: the arithmetic and its order are the same, so results
// are bitwise identical to it (see docs/PERFORMANCE.md §7).
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace lrt::la {

struct EigResult {
  std::vector<Real> values;  ///< ascending eigenvalues
  RealMatrix vectors;        ///< orthonormal eigenvectors in columns
};

/// Full eigendecomposition of a symmetric matrix (symmetry is assumed; only
/// the lower triangle needs to be meaningful after symmetrization upstream).
EigResult syev(RealConstView a);

/// Generalized problem A x = λ B x with SPD B, via Cholesky reduction.
EigResult sygv(RealConstView a, RealConstView b);

/// Residual max_k ||A x_k - λ_k x_k||_2 — test/diagnostic helper.
Real eig_residual(RealConstView a, const EigResult& result);

}  // namespace lrt::la
