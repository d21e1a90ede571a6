// Distributed one-sided Jacobi symmetric eigensolver.
//
// A fully distributed alternative to the split SYEVD stand-in of
// dist_syev: columns of the (Gershgorin-shifted, hence SPD) matrix are
// block-partitioned over ranks; plane rotations orthogonalize column
// pairs of W = (A + σI) V while the same rotations accumulate into V.
// At convergence W's columns are mutually orthogonal, so
//   A + σI = U Σ Vᵀ  with U = V   (SPD ⇒ SVD = eigendecomposition),
// giving eigenpairs (Σ - σ, V). Cross-rank column pairs are handled with
// a round-robin block tournament: every sweep, each rank rotates its own
// block internally, then exchanges blocks with a sequence of partners so
// every column pair meets (the classic parallel Jacobi ordering).
//
// Jacobi is the textbook "embarrassingly parallelizable" eigensolver —
// slower serially than tridiagonalization but with no serial bottleneck,
// which is exactly the trade the scaling benches probe.
#pragma once

#include "la/matrix.hpp"
#include "par/comm.hpp"

namespace lrt::par {

struct JacobiEigOptions {
  Index max_sweeps = 30;
  /// Converged when every |w_p · w_q| <= tol * ||w_p|| ||w_q||.
  Real tolerance = 1e-10;
};

struct JacobiEigResult {
  std::vector<Real> values;  ///< ascending, replicated
  la::RealMatrix vectors;    ///< n x n, replicated, columns ascending
  Index sweeps = 0;
  bool converged = false;
};

/// Solves the full symmetric eigenproblem of the replicated input matrix
/// `a` (every rank passes the same matrix); work and column storage are
/// distributed, results replicated. Collective.
JacobiEigResult dist_jacobi_syev(Comm& comm, la::RealConstView a,
                                 const JacobiEigOptions& options = {});

}  // namespace lrt::par
