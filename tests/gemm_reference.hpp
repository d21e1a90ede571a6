// The blocked scalar gemm the library ran before the packed micro-kernel,
// kept verbatim (including its per-element zero test) as the tolerance
// oracle of test_perf_kernels and the `bench_micro_substrates --compare`
// baseline. Same contract as la::gemm.
#pragma once

#include <algorithm>

#include "la/blas.hpp"
#include "la/matrix.hpp"

namespace lrt::la {
namespace reference_detail {

constexpr Index kRefKBlock = 256;
constexpr Index kRefIBlock = 64;
/// Flop count (2mnk) above which the reference spawns an OpenMP team.
constexpr double kRefParallelFlops = 1e6;

inline void ref_nn(Real alpha, RealConstView a, RealConstView b, RealView c) {
  const Index m = c.rows(), n = c.cols(), k = a.cols();
  [[maybe_unused]] const bool parallel = gemm_flops(m, n, k) > kRefParallelFlops;
#pragma omp parallel for schedule(dynamic) if (parallel)
  for (Index i0 = 0; i0 < m; i0 += kRefIBlock) {
    const Index i1 = std::min(i0 + kRefIBlock, m);
    for (Index k0 = 0; k0 < k; k0 += kRefKBlock) {
      const Index k1 = std::min(k0 + kRefKBlock, k);
      for (Index i = i0; i < i1; ++i) {
        Real* ci = c.row_ptr(i);
        const Real* ai = a.row_ptr(i);
        for (Index kk = k0; kk < k1; ++kk) {
          const Real aik = alpha * ai[kk];
          if (aik == Real{0}) continue;
          const Real* bk = b.row_ptr(kk);
          for (Index j = 0; j < n; ++j) ci[j] += aik * bk[j];
        }
      }
    }
  }
}

inline void ref_tn(Real alpha, RealConstView a, RealConstView b, RealView c) {
  const Index m = c.rows(), n = c.cols(), k = a.rows();
  [[maybe_unused]] const bool parallel = gemm_flops(m, n, k) > kRefParallelFlops;
#pragma omp parallel for schedule(dynamic) if (parallel)
  for (Index i0 = 0; i0 < m; i0 += kRefIBlock) {
    const Index i1 = std::min(i0 + kRefIBlock, m);
    for (Index k0 = 0; k0 < k; k0 += kRefKBlock) {
      const Index k1 = std::min(k0 + kRefKBlock, k);
      for (Index kk = k0; kk < k1; ++kk) {
        const Real* ak = a.row_ptr(kk);
        const Real* bk = b.row_ptr(kk);
        for (Index i = i0; i < i1; ++i) {
          const Real aki = alpha * ak[i];
          if (aki == Real{0}) continue;
          Real* ci = c.row_ptr(i);
          for (Index j = 0; j < n; ++j) ci[j] += aki * bk[j];
        }
      }
    }
  }
}

inline void ref_nt(Real alpha, RealConstView a, RealConstView b, RealView c) {
  const Index m = c.rows(), n = c.cols(), k = a.cols();
  [[maybe_unused]] const bool parallel = gemm_flops(m, n, k) > kRefParallelFlops;
#pragma omp parallel for schedule(dynamic) if (parallel)
  for (Index i = 0; i < m; ++i) {
    const Real* ai = a.row_ptr(i);
    Real* ci = c.row_ptr(i);
    for (Index j = 0; j < n; ++j) {
      ci[j] += alpha * dot(ai, b.row_ptr(j), k);
    }
  }
}

}  // namespace reference_detail

/// C = alpha * op(A) * op(B) + beta * C by the pre-packing kernels.
inline void gemm_reference(Trans ta, Trans tb, Real alpha, RealConstView a,
                           RealConstView b, Real beta, RealView c) {
  using namespace reference_detail;
  const Index m = (ta == Trans::kNo) ? a.rows() : a.cols();
  const Index k = (ta == Trans::kNo) ? a.cols() : a.rows();
  const Index n = (tb == Trans::kNo) ? b.cols() : b.rows();
  LRT_CHECK(k == ((tb == Trans::kNo) ? b.rows() : b.cols()),
            "gemm_reference inner dimension mismatch");
  LRT_CHECK(c.rows() == m && c.cols() == n,
            "gemm_reference output shape mismatch");
  if (beta == Real{0}) {
    c.fill(Real{0});
  } else if (beta != Real{1}) {
    for (Index i = 0; i < m; ++i) scal(beta, c.row_ptr(i), n);
  }
  if (m == 0 || n == 0 || k == 0 || alpha == Real{0}) return;
  if (ta == Trans::kNo && tb == Trans::kNo) {
    ref_nn(alpha, a, b, c);
  } else if (ta == Trans::kYes && tb == Trans::kNo) {
    ref_tn(alpha, a, b, c);
  } else if (ta == Trans::kNo && tb == Trans::kYes) {
    ref_nt(alpha, a, b, c);
  } else {
    const RealMatrix bt = transpose(b);
    ref_tn(alpha, a, bt.view(), c);
  }
}

}  // namespace lrt::la
