// Distributed symmetric eigensolve (ScaLAPACK SYEVD stand-in).
//
// The naive LR-TDDFT path redistributes the explicit Hamiltonian to a 2-D
// block-cyclic layout and calls SYEVD. Our stand-in reproduces the data
// movement (redistribute -> solve -> redistribute back) while the numeric
// factorization itself is gathered to rank 0 — on a single-core container
// a truly distributed tridiagonalization would be pure ceremony; the
// communication pattern and interfaces are what the scaling benches need.
#pragma once

#include "la/eig.hpp"
#include "par/distmatrix.hpp"

namespace lrt::par {

struct DistEigResult {
  std::vector<Real> values;  ///< replicated on all ranks, ascending
  DistMatrix vectors;        ///< eigenvector columns in the input layout
};

enum class DistEigMethod {
  /// Redistribute to 2-D block-cyclic, gather, factor on rank 0 with
  /// la::syev. Its O(n³) factorization is serial: on the si27 naive
  /// benchmark (n = 512, 4 ranks) it is about 0.23 s of a 0.39 s solve
  /// while the other ranks wait (docs/PERFORMANCE.md §7).
  kGathered,
  /// Fully distributed one-sided Jacobi (par/jacobi_eig) — no serial
  /// bottleneck, more flops.
  kJacobi,
};

/// Solves the symmetric eigenproblem of a distributed matrix. `a` may be in
/// any layout; internally converts to 2-D block-cyclic (as the paper does
/// before SYEVD), factorizes, and returns vectors in `a`'s layout.
DistEigResult dist_syev(Comm& comm, const DistMatrix& a,
                        DistEigMethod method = DistEigMethod::kGathered);

}  // namespace lrt::par
