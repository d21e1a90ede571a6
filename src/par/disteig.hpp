// Distributed symmetric eigensolve (ScaLAPACK SYEVD stand-in).
//
// The paper's naive LR-TDDFT path diagonalizes the explicit Ncv×Ncv
// Hamiltonian with distributed SYEVD. The default path here runs la::syev's
// own pieces (la/eig_parts.hpp) across the ranks: rank 0 reduces the matrix
// to tridiagonal form and broadcasts it, every rank accumulates the
// Householder transformations into the eigenvector rows it owns, one
// alltoallv turns those row slices into column slices, and every rank runs
// the QL iteration on its slice. Every floating-point operation is the one
// la::syev performs, in the same order, so values and vectors are bitwise
// equal to la::syev at any rank count (docs/PERFORMANCE.md §7).
#pragma once

#include "la/eig.hpp"
#include "par/distmatrix.hpp"

namespace lrt::par {

struct DistEigResult {
  std::vector<Real> values;  ///< replicated on all ranks, ascending
  DistMatrix vectors;        ///< eigenvector columns in the input layout
};

enum class DistEigMethod {
  /// la::syev split across ranks, bitwise equal to it: the Householder
  /// reduction on rank 0 (about a fifth of the work), the accumulation by
  /// cyclically owned eigenvector rows and the QL rotations by column
  /// blocks on all ranks. Vectors land in a block-row layout with no
  /// further exchange.
  kGathered,
  /// Fully distributed one-sided Jacobi (par/jacobi_eig) — no serial
  /// bottleneck, more flops.
  kJacobi,
};

/// Solves the symmetric eigenproblem of a distributed matrix. `a` may be in
/// any layout; the vectors come back in `a`'s layout (a block-row `a` needs
/// no redistribution) and the ascending values on every rank.
DistEigResult dist_syev(Comm& comm, const DistMatrix& a,
                        DistEigMethod method = DistEigMethod::kGathered);

}  // namespace lrt::par
