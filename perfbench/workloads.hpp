// The benchmark's workloads, with the reason each exists and the
// layer -> metric predictions later changes are measured against.
//
// Every problem comes from bench::make_workload(spec, seed). The seed
// jitters the synthetic atom centres and draws the orbitals' random
// coefficients and phases. It never changes a shape, so every seed runs
// the same kernels at the same sizes; iteration counts may differ.
#pragma once

#include <string>
#include <vector>

#include "bench/bench_util.hpp"

namespace perfbench {

enum class Solver {
  kDistImplicit,  ///< tddft::solve_casida_distributed, Version::kImplicit
  kSerialImplicit,  ///< tddft::solve_casida, Version::kImplicit
  kDistNaive,  ///< tddft::solve_casida_distributed, Version::kNaive
};

/// One predicted effect: a layer metric and the end-to-end metric it
/// should move on this workload.
struct Prediction {
  const char* layer_metric;
  const char* effect;
};

struct WorkloadSpec {
  const char* name;
  lrt::bench::Workload problem;
  Solver solver;
  int ranks;
  /// OpenMP threads per rank; 0 means min(4, nproc).
  int threads_per_rank;
  lrt::Index num_states;
  /// Nμ = nmu_ratio * (Nv + Nc); ignored by the naive solver.
  lrt::Index nmu_ratio;
  /// Largest accepted max_k |E_k - E_ref| / |E_ref| of one solve against
  /// the dense reference (the serial dense solve on the naive workload).
  double energy_tolerance;
  const char* why;
  std::vector<Prediction> predictions;
};

inline lrt::bench::Workload si64() {
  return lrt::bench::silicon_ladder().at(3);  // Nv=48 Nc=24, 16^3, 64 centres
}
inline lrt::bench::Workload si27() {
  return lrt::bench::silicon_ladder().at(2);  // Nv=32 Nc=16, 14^3, 27 centres
}

inline const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"si64-isdf-4rank",
       si64(),
       Solver::kDistImplicit,
       4,
       1,
       4,
       4,
       5e-2,
       "The paper's headline configuration: distributed Implicit-K-Means-"
       "ISDF-LOBPCG. The only ISDF workload with par on the critical path "
       "(alltoallv transposes, sample/Gram allreduces, dist_lobpcg "
       "reductions, straggler wait).",
       {{"isdf.theta_solve_s", "solve_s (second-largest layer per rank)"},
        {"par.transpose_s", "solve_s"},
        {"par.gram_reduce_s", "solve_s"},
        {"par.imbalance_s", "solve_s"},
        {"kmeans.s", "solve_s (1-2% share) and energy error"},
        {"lobpcg.s", "solve_s and energy error"},
        {"tddft.kernel_build_s", "solve_s; setup_s if hoisted"},
        {"la.dense_eig_s", "absent"}}},
      {"si64-isdf-threads",
       si64(),
       Solver::kSerialImplicit,
       1,
       0,
       4,
       4,
       5e-2,
       "The same arithmetic as si64-isdf-4rank with no comm layer: serial "
       "solve_casida(kImplicit), one rank x OpenMP threads. Isolates the "
       "OpenMP kernels and the unthreaded Theta solve; a par change should "
       "not move it.",
       {{"isdf.theta_solve_s", "solve_s (largest layer today)"},
        {"la.gemm_s", "solve_s once the Theta solve is fixed"},
        {"tddft.kernel_apply_s", "solve_s (FFT threading fixes show here)"},
        {"kmeans.s", "solve_s (1-2% share) and energy error"},
        {"lobpcg.s", "solve_s and energy error"},
        {"par.*", "zero"}}},
      {"si64-isdf-serial",
       si64(),
       Solver::kSerialImplicit,
       1,
       1,
       4,
       4,
       5e-2,
       "The ISDF arithmetic of si64-isdf-threads on one thread: serial "
       "solve_casida(kImplicit). At this shape four threads solve no faster "
       "than one, so it measures the same time to the energies without "
       "OpenMP barriers, and it is the ISDF workload least moved by other "
       "guests of a shared host. K-Means runs in a fixed order here.",
       {{"isdf.theta_solve_s", "solve_s (largest layer today)"},
        {"lobpcg.s", "solve_s and energy error"},
        {"kmeans.s", "solve_s (1-2% share) and energy error"},
        {"tddft.kernel_apply_s", "solve_s"},
        {"tddft.kernel_build_s", "solve_s; setup_s if hoisted"},
        {"la.gemm_s", "solve_s once the Theta solve is fixed"},
        {"par.*", "zero"}}},
      {"si27-dense-4rank",
       si27(),
       Solver::kDistNaive,
       4,
       1,
       4,
       0,
       1e-9,
       "The distributed naive driver: explicit pair products, the kernel FFT "
       "on all 512 pair columns, Ncv x Ncv Gram GEMM + allreduce and the "
       "gathered dense eigensolve. Skips K-Means, Theta and LOBPCG, so every "
       "ISDF-side optimisation predicts no change here.",
       {{"la.dense_eig_s", "solve_s (about 90% today)"},
        {"tddft.kernel_apply_s", "solve_s (largest FFT share: 512 columns)"},
        {"la.gemm_s", "solve_s"},
        {"par.imbalance_s", "solve_s (ranks wait while rank 0 diagonalises)"},
        {"isdf.theta_solve_s", "absent"},
        {"kmeans.s", "absent"},
        {"lobpcg.s", "absent"}}},
  };
  return specs;
}

inline const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

}  // namespace perfbench
