// Dense BLAS-style kernels (levels 1-3) on row-major views.
//
// These stand in for the MKL calls the paper's implementation makes.
// gemm runs a packed, register-tiled micro-kernel (BLIS-style blocking,
// OpenMP-threaded, tile and SIMD width picked once per process by CPU
// feature) above a small flop threshold and a branch-free scalar
// fallback below it. See docs/PERFORMANCE.md.
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace lrt::la {

enum class Trans { kNo, kYes };

// ----- level 1 ------------------------------------------------------------

/// <x, y> over n contiguous elements.
Real dot(const Real* x, const Real* y, Index n);

/// Euclidean norm of n contiguous elements (no overflow guard; values in
/// this library are O(1) by construction).
Real nrm2(const Real* x, Index n);

/// y += alpha * x.
void axpy(Real alpha, const Real* x, Real* y, Index n);

/// x *= alpha.
void scal(Real alpha, Real* x, Index n);

// ----- level 2 ------------------------------------------------------------

/// y = alpha * op(A) * x + beta * y.
void gemv(Trans trans, Real alpha, RealConstView a, const Real* x, Real beta,
          Real* y);

// ----- level 3 ------------------------------------------------------------

/// C = alpha * op(A) * op(B) + beta * C.
void gemm(Trans ta, Trans tb, Real alpha, RealConstView a, RealConstView b,
          Real beta, RealView c);

/// Convenience: returns op(A) * op(B).
RealMatrix gemm(Trans ta, Trans tb, RealConstView a, RealConstView b);

/// One (A_i, C_i) pair of a gemm_many batch; every item shares op(B).
struct GemmBatchItem {
  RealConstView a;
  RealView c;
};

/// C_i = alpha * op(A_i) * op(B) + beta * C_i for every item. op(B) is
/// packed once per cache block and all A panels stream through the packed
/// micro-kernel, amortizing the packing cost that sends individually
/// small gemm calls to the scalar fallback. Always takes the packed path;
/// each item's result is bitwise identical to a packed gemm() of the same
/// shapes (identical blocking, packing, and accumulation order).
void gemm_many(Trans ta, Trans tb, Real alpha,
               const std::vector<GemmBatchItem>& items, RealConstView b,
               Real beta);

/// SIMD instruction sets the hot kernels carry code for, narrowest first.
enum class Isa { kBaseline, kAvx2Fma, kAvx512 };

/// The widest Isa this CPU runs, probed once per process.
Isa host_isa();

/// Reduction depth of one packed gemm pass: each C element adds one
/// chain of at most kGemmKc products per pass.
inline constexpr Index kGemmKc = 256;

/// A register-tiled micro-kernel of the packed gemm.
struct GemmKernel {
  Isa isa;
  Index mr;  ///< rows of the C tile held in registers
  Index nr;  ///< columns of the C tile held in registers
  bool fma;  ///< chains by fused multiply-add (else multiply, then add)
};

/// The kernel gemm and gemm_many run: the first of gemm_kernels() that
/// host_isa() supports, picked once per process.
const GemmKernel& gemm_kernel();

/// Every micro-kernel compiled into this build, widest ISA first.
std::vector<GemmKernel> gemm_kernels();

/// Column block width of trsm_right_lower.
inline constexpr Index kTrsmBlock = 16;

/// Right-side triangular solve in place: B := B op(L)⁻¹ for an n x n
/// lower-triangular L (only its lower triangle is read) and an m x n B.
/// Blocked over kTrsmBlock columns: each block's off-diagonal update is
/// one gemm, and its diagonal block is solved with rows in SIMD lanes,
/// each row by the scalar per-row operation sequence, row groups split
/// across OpenMP threads, so the result is independent of the thread
/// count. Throws lrt::Error on a zero diagonal entry.
void trsm_right_lower(Trans t, RealConstView l, RealView b);

/// Gram matrix Aᵀ A (n x n for an m x n input); exploits symmetry.
RealMatrix gram(RealConstView a);

// ----- norms / comparisons -------------------------------------------------

Real frobenius_norm(RealConstView a);

/// max_ij |a_ij - b_ij|; shapes must match.
Real max_abs_diff(RealConstView a, RealConstView b);

/// max_ij |a_ij|.
Real max_abs(RealConstView a);

/// Number of flops of a gemm with these shapes (2 m n k), for bench reports.
double gemm_flops(Index m, Index n, Index k);

}  // namespace lrt::la
