// Distributed LR-TDDFT driver (paper §5).
//
// Reproduces the parallel data flow of the paper on the thread-backed
// runtime:
//  - wavefunctions and pair products are ROW-BLOCK partitioned over the
//    real-space grid (Fig 3b) for face-splitting products and GEMMs;
//  - MPI_Alltoall converts to COLUMN blocks (Fig 3a) so each rank runs
//    its FFTs (the f_Hxc kernel) on whole pair columns, then converts
//    back;
//  - Vhxc is assembled with local GEMM + Allreduce, or the pipelined
//    GEMM + MPI_Reduce of §5.3 (Fig 4-5);
//  - the naive path redistributes H to 2-D block-cyclic and calls the
//    dense eigensolver (Fig 3c); the ISDF paths run distributed K-Means
//    and keep the small factored Hamiltonian replicated for LOBPCG.
//
// Each rank accumulates wall time into the paper's Figure-8 phases
// (kmeans / fft / mpi / gemm); the returned stats carry the max across
// ranks plus the busy-time proxy used by the scaling benches (wall minus
// time blocked in communication; see DESIGN.md).
#pragma once

#include <string>

#include "kmeans/kmeans.hpp"
#include "par/comm.hpp"
#include "par/disteig.hpp"
#include "tddft/driver.hpp"

namespace lrt::tddft {

struct DistDriverOptions {
  /// kNaive or kImplicit (the end points of Table 4; the intermediate
  /// versions only differ serially).
  Version version = Version::kImplicit;
  Index num_states = 3;
  Index nmu = 0;
  Real nmu_ratio = 6.0;
  bool include_xc = true;
  TddftEigenOptions eigen;
  kmeans::KMeansOptions kmeans;
  /// Vhxc assembly: pipelined GEMM+Reduce (true) vs monolithic
  /// GEMM+Allreduce (false).
  bool pipelined_reduce = false;
  Index pipeline_chunk = 64;
  /// Dense eigensolver for the naive path: la::syev split across the ranks
  /// (bitwise equal to the serial solve) or the fully distributed
  /// one-sided Jacobi.
  par::DistEigMethod eig_method = par::DistEigMethod::kGathered;
  /// Phase-granular restart (docs/RESILIENCE.md): when non-empty and the
  /// file exists, the implicit path loads the distributed K-Means result
  /// from it and skips the whole K-Means phase; otherwise rank 0 writes
  /// the result there after the phase completes. Must be uniform across
  /// ranks (like every other option — the existence check is a branch
  /// around collectives).
  std::string checkpoint_path;
};

struct DistDriverStats {
  std::vector<Real> energies;   ///< replicated on every rank
  double wall_seconds = 0;      ///< max over ranks
  double comm_seconds = 0;      ///< max over ranks (blocked in comm calls)
  double busy_seconds = 0;      ///< max over ranks of thread CPU time
  /// Phase seconds (max over ranks): kmeans, fft, mpi, gemm, diag,
  /// pair_product.
  std::vector<std::pair<std::string, double>> phases;
};

DistDriverStats solve_casida_distributed(par::Comm& comm,
                                         const CasidaProblem& problem,
                                         const DistDriverOptions& options);

}  // namespace lrt::tddft
