#include "la/blas.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/counters.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif
#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif
#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace lrt::la {
namespace {

/// Flop count (2mnk) above which gemm spawns an OpenMP team.
constexpr double kParallelFlopThreshold = 1e6;

/// Below this flop count the packed path's pack/unpack overhead is not
/// amortized; a branch-free scalar fallback runs instead.
constexpr double kPackedFlopThreshold = 2.0 * 24 * 24 * 24;

// ---------------------------------------------------------------------------
// Packed micro-kernel GEMM (docs/PERFORMANCE.md §1).
//
// BLIS-style blocking: op(B) panels of kc x nc are packed once into
// column micro-panels of width nr, op(A) blocks of mc x kc are packed
// (alpha folded in) into row micro-panels of height mr, and a register-
// tiled mr x nr micro-kernel accumulates one kc pass of C in registers,
// then adds it to C. Packing absorbs all four transpose cases, so
// nn/tn/nt/tt share one inner kernel. The tile is the micro-kernel's,
// picked once per process by CPU feature; block sizes are picked once
// from the machine's cache sizes.
//
// Every C element gets the same roundings from every kernel: per kc pass
// a chain from 0 over the pass's products (fused multiply-add on the
// FMA kernels, multiply then add on the baseline one), then C += chain.
// The tile and mc/nc only decide which elements share a kernel call, so
// the bits do not depend on them.
// ---------------------------------------------------------------------------

/// Signature of a micro-kernel: C[0:mr, 0:nr] += one kc pass of an A
/// panel and the packed B panel bp (kcur groups of Nr); c has leading
/// dimension ldc, and mr <= Mr, nr <= Nr. Element (i, p) of the A panel
/// is ap[i * rs + p * ps]: rs = 1, ps = Mr for a packed panel, or the
/// strides of op(A) read in place.
using MicroKernelFn = void (*)(Index kcur, const Real* ap, Index rs, Index ps,
                               const Real* bp, Real* c, Index ldc, Index mr,
                               Index nr);

/// C[0:mr, 0:nr] += acc, an accumulator tile with rows of width nr_tile.
void add_tile(const Real* acc, Index nr_tile, Real* c, Index ldc, Index mr,
              Index nr) {
  for (Index i = 0; i < mr; ++i) {
    for (Index j = 0; j < nr; ++j) c[i * ldc + j] += acc[i * nr_tile + j];
  }
}

/// Any ISA: a 6 x 8 tile, each product rounded, then added.
void kernel_baseline(Index kcur, const Real* __restrict ap, Index rs, Index ps,
                     const Real* __restrict bp, Real* c, Index ldc, Index mr,
                     Index nr) {
  constexpr Index kMr = 6, kNr = 8;
  Real acc[kMr * kNr] = {};
  for (Index p = 0; p < kcur; ++p, ap += ps, bp += kNr) {
    for (Index i = 0; i < kMr; ++i) {
      const Real a = ap[i * rs];
#pragma omp simd
      for (Index j = 0; j < kNr; ++j) acc[i * kNr + j] += a * bp[j];
    }
  }
  add_tile(acc, kNr, c, ldc, mr, nr);
}

#if defined(__x86_64__)
// The x86 kernels hold the Mr x Nv accumulator vectors in registers for
// the whole kc pass (24 of 32 zmm for avx512f, 12 of 16 ymm for avx2) and
// touch C once at the end. Each carries its own target attribute and is
// picked by a CPU query, not by target_clones: an IFUNC resolver runs
// before the TSan runtime is up, and the packing must know the tile.

/// avx512f: Mr rows x Nv zmm vectors (8 doubles each), fused multiply-add.
template <int Mr, int Nv>
__attribute__((target("avx512f"))) void kernel_avx512(
    Index kcur, const Real* __restrict ap, Index rs, Index ps,
    const Real* __restrict bp, Real* c, Index ldc, Index mr, Index nr) {
  constexpr Index kNr = 8 * Nv;
  // Every loop over the tile is unrolled, so acc is named registers.
  __m512d acc[Mr][Nv];
#pragma GCC unroll 16
  for (int i = 0; i < Mr; ++i) {
#pragma GCC unroll 4
    for (int v = 0; v < Nv; ++v) acc[i][v] = _mm512_setzero_pd();
  }
  for (Index p = 0; p < kcur; ++p, ap += ps, bp += kNr) {
    __m512d b[Nv];
#pragma GCC unroll 4
    for (int v = 0; v < Nv; ++v) b[v] = _mm512_loadu_pd(bp + 8 * v);
#pragma GCC unroll 16
    for (int i = 0; i < Mr; ++i) {
      const __m512d a = _mm512_set1_pd(ap[i * rs]);
#pragma GCC unroll 4
      for (int v = 0; v < Nv; ++v) acc[i][v] = _mm512_fmadd_pd(a, b[v], acc[i][v]);
    }
  }
  if (mr == Mr && nr == kNr) {
#pragma GCC unroll 16
    for (int i = 0; i < Mr; ++i) {
#pragma GCC unroll 4
      for (int v = 0; v < Nv; ++v) {
        Real* ci = c + i * ldc + 8 * v;
        _mm512_storeu_pd(ci, _mm512_add_pd(_mm512_loadu_pd(ci), acc[i][v]));
      }
    }
    return;
  }
  alignas(64) Real buf[Mr * kNr];
#pragma GCC unroll 16
  for (int i = 0; i < Mr; ++i) {
#pragma GCC unroll 4
    for (int v = 0; v < Nv; ++v) _mm512_store_pd(buf + i * kNr + 8 * v, acc[i][v]);
  }
  add_tile(buf, kNr, c, ldc, mr, nr);
}

/// avx2+fma: Mr rows x Nv ymm vectors (4 doubles each), fused multiply-add.
template <int Mr, int Nv>
__attribute__((target("avx2,fma"))) void kernel_avx2(
    Index kcur, const Real* __restrict ap, Index rs, Index ps,
    const Real* __restrict bp, Real* c, Index ldc, Index mr, Index nr) {
  constexpr Index kNr = 4 * Nv;
  // Every loop over the tile is unrolled, so acc is named registers.
  __m256d acc[Mr][Nv];
#pragma GCC unroll 16
  for (int i = 0; i < Mr; ++i) {
#pragma GCC unroll 4
    for (int v = 0; v < Nv; ++v) acc[i][v] = _mm256_setzero_pd();
  }
  for (Index p = 0; p < kcur; ++p, ap += ps, bp += kNr) {
    __m256d b[Nv];
#pragma GCC unroll 4
    for (int v = 0; v < Nv; ++v) b[v] = _mm256_loadu_pd(bp + 4 * v);
#pragma GCC unroll 16
    for (int i = 0; i < Mr; ++i) {
      const __m256d a = _mm256_set1_pd(ap[i * rs]);
#pragma GCC unroll 4
      for (int v = 0; v < Nv; ++v) acc[i][v] = _mm256_fmadd_pd(a, b[v], acc[i][v]);
    }
  }
  if (mr == Mr && nr == kNr) {
#pragma GCC unroll 16
    for (int i = 0; i < Mr; ++i) {
#pragma GCC unroll 4
      for (int v = 0; v < Nv; ++v) {
        Real* ci = c + i * ldc + 4 * v;
        _mm256_storeu_pd(ci, _mm256_add_pd(_mm256_loadu_pd(ci), acc[i][v]));
      }
    }
    return;
  }
  alignas(32) Real buf[Mr * kNr];
#pragma GCC unroll 16
  for (int i = 0; i < Mr; ++i) {
#pragma GCC unroll 4
    for (int v = 0; v < Nv; ++v) _mm256_store_pd(buf + i * kNr + 4 * v, acc[i][v]);
  }
  add_tile(buf, kNr, c, ldc, mr, nr);
}
#endif

struct MicroKernel {
  GemmKernel info;
  MicroKernelFn fn;
};

/// Widest ISA first; the first one the CPU runs is used.
constexpr MicroKernel kMicroKernels[] = {
#if defined(__x86_64__)
    {{Isa::kAvx512, 12, 16, true}, kernel_avx512<12, 2>},
    {{Isa::kAvx2Fma, 6, 8, true}, kernel_avx2<6, 2>},
#endif
    {{Isa::kBaseline, 6, 8, false}, kernel_baseline},
};

const MicroKernel& micro_kernel() {
  static const MicroKernel* const k = [] {
    const MicroKernel* mk = kMicroKernels;
    while (mk->info.isa > host_isa()) ++mk;  // the baseline ends the list
    return mk;
  }();
  return *k;
}

struct Blocking {
  Index mc;  ///< rows of the packed A block (held in L2)
  Index kc;  ///< reduction depth of one packing pass
  Index nc;  ///< cols of the packed B panel (held in L3)
};

Index round_down_multiple(Index v, Index m) { return std::max(m, v - v % m); }

/// One-time runtime pick of the L2/L3 block parameters for an mr x nr
/// tile. Falls back to conservative defaults when the cache hierarchy is
/// not reported.
Blocking pick_blocking(Index mr, Index nr) {
  long long l2 = 0, l3 = 0;
#if defined(_SC_LEVEL2_CACHE_SIZE)
  l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
#if defined(_SC_LEVEL3_CACHE_SIZE)
  l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
  if (l2 <= 0) l2 = 512 * 1024;
  if (l3 <= 0) l3 = 8 * 1024 * 1024;
  Blocking b;
  b.kc = kGemmKc;
  // The packed A block (mc x kc doubles) should fill about half of L2,
  // leaving room for the streaming B micro-panel and C rows.
  const Index mc_fit = static_cast<Index>(
      l2 / 2 / (b.kc * static_cast<Index>(sizeof(Real))));
  b.mc = std::clamp(round_down_multiple(mc_fit, mr), mr, Index{512});
  // The packed B panel (kc x nc) targets half of L3.
  const Index nc_fit = static_cast<Index>(
      l3 / 2 / (b.kc * static_cast<Index>(sizeof(Real))));
  b.nc = std::clamp(round_down_multiple(nc_fit, nr), nr, Index{8192});
  return b;
}

const Blocking& blocking() {
  static const Blocking b =
      pick_blocking(micro_kernel().info.mr, micro_kernel().info.nr);
  return b;
}

/// Packs one mr x kcur micro-panel of alpha * op(A) (zero-padded to
/// tile_mr rows) as kcur groups of tile_mr consecutive values.
void pack_a_panel(RealConstView a, bool trans, Index i0, Index mr, Index p0,
                  Index kcur, Real alpha, Index tile_mr, Real* dst) {
  if (!trans) {
    for (Index i = 0; i < mr; ++i) {
      const Real* src = a.row_ptr(i0 + i) + p0;
      for (Index p = 0; p < kcur; ++p) dst[p * tile_mr + i] = alpha * src[p];
    }
    for (Index i = mr; i < tile_mr; ++i) {
      for (Index p = 0; p < kcur; ++p) dst[p * tile_mr + i] = Real{0};
    }
  } else {
    for (Index p = 0; p < kcur; ++p) {
      const Real* src = a.row_ptr(p0 + p) + i0;
      Real* d = dst + p * tile_mr;
      for (Index i = 0; i < mr; ++i) d[i] = alpha * src[i];
      for (Index i = mr; i < tile_mr; ++i) d[i] = Real{0};
    }
  }
}

/// Packs one kcur x nr micro-panel of scale * op(B) (zero-padded to
/// tile_nr cols) as kcur groups of tile_nr consecutive values.
void pack_b_panel(RealConstView b, bool trans, Index p0, Index kcur, Index j0,
                  Index nr, Real scale, Index tile_nr, Real* dst) {
  if (!trans) {
    for (Index p = 0; p < kcur; ++p) {
      const Real* src = b.row_ptr(p0 + p) + j0;
      Real* d = dst + p * tile_nr;
      for (Index j = 0; j < nr; ++j) d[j] = scale * src[j];
      for (Index j = nr; j < tile_nr; ++j) d[j] = Real{0};
    }
  } else {
    for (Index j = 0; j < nr; ++j) {
      const Real* src = b.row_ptr(j0 + j) + p0;
      for (Index p = 0; p < kcur; ++p) dst[p * tile_nr + j] = scale * src[p];
    }
    for (Index j = nr; j < tile_nr; ++j) {
      for (Index p = 0; p < kcur; ++p) dst[p * tile_nr + j] = Real{0};
    }
  }
}

/// C_i += alpha * op(A_i) * op(B) for every item, on the packed path.
/// gemm is the one-item case. op(B) is packed once per (nc, kc) block
/// and shared; the (item, mc-block) pairs form one task list, so small
/// items never serialize the team.
void gemm_packed(bool ta, bool tb, Real alpha, const GemmBatchItem* items,
                 std::size_t count, RealConstView b, double flops) {
  const MicroKernel& uk = micro_kernel();
  const Index kmr = uk.info.mr, knr = uk.info.nr;
  const Blocking& blk = blocking();
  const Index n = tb ? b.rows() : b.cols();
  const Index k = tb ? b.cols() : b.rows();

  struct Task {
    std::size_t item;
    Index ic;
  };
  std::size_t ntasks = 0;
  Index m_max = 0;
  for (std::size_t t = 0; t < count; ++t) {
    const Index m = items[t].c.rows();
    ntasks += static_cast<std::size_t>((m + blk.mc - 1) / blk.mc);
    m_max = std::max(m_max, m);
  }
  std::vector<Task> tasks;
  tasks.reserve(ntasks);
  for (std::size_t t = 0; t < count; ++t) {
    for (Index ic = 0; ic < items[t].c.rows(); ic += blk.mc) {
      tasks.push_back({t, ic});
    }
  }
  [[maybe_unused]] const bool parallel = flops > kParallelFlopThreshold;
  // When op(B) is at most two micro-panels wide, a packed A panel would
  // serve one or two kernel calls, so full A panels are read in place.
  // That needs alpha = ±1, which then goes into the B pack: the product
  // a * (-b) is exactly (-a) * b, so every rounding stays the same.
  const bool direct = n <= 2 * knr && (alpha == Real{1} || alpha == Real{-1});
  const Real a_scale = direct ? Real{1} : alpha;
  const Real b_scale = direct ? alpha : Real{1};
  const Index nc_max = std::min(((n + knr - 1) / knr) * knr, blk.nc);
  const Index mc_max = std::min(((m_max + kmr - 1) / kmr) * kmr, blk.mc);
  const Index kc_max = std::min(k, blk.kc);
  std::vector<Real> bpack(static_cast<std::size_t>(nc_max * kc_max));

#pragma omp parallel if (parallel)
  {
    std::vector<Real> apack(static_cast<std::size_t>(mc_max * kc_max));
    for (Index jc = 0; jc < n; jc += blk.nc) {
      const Index ncur = std::min(blk.nc, n - jc);
      const Index npanels = (ncur + knr - 1) / knr;
      for (Index pc = 0; pc < k; pc += blk.kc) {
        const Index kcur = std::min(blk.kc, k - pc);
        // Pack the B panel cooperatively; the implicit barrier of the
        // worksharing loop publishes it to every thread.
#pragma omp for schedule(static)
        for (Index jp = 0; jp < npanels; ++jp) {
          const Index j0 = jc + jp * knr;
          pack_b_panel(b, tb, pc, kcur, j0, std::min(knr, n - j0), b_scale,
                       knr, bpack.data() + jp * kcur * knr);
        }
#pragma omp for schedule(dynamic)
        for (std::size_t t = 0; t < tasks.size(); ++t) {
          const GemmBatchItem& item = items[tasks[t].item];
          const Index m = item.c.rows();
          const Index ic = tasks[t].ic;
          const Index mpanels = (std::min(blk.mc, m - ic) + kmr - 1) / kmr;
          for (Index ip = 0; ip < mpanels; ++ip) {
            const Index i0 = ic + ip * kmr;
            const Index mr = std::min(kmr, m - i0);
            if (!direct || mr < kmr) {
              pack_a_panel(item.a, ta, i0, mr, pc, kcur, a_scale, kmr,
                           apack.data() + ip * kcur * kmr);
            }
          }
          for (Index jp = 0; jp < npanels; ++jp) {
            const Index j0 = jc + jp * knr;
            for (Index ip = 0; ip < mpanels; ++ip) {
              const Index i0 = ic + ip * kmr;
              const Index mr = std::min(kmr, m - i0);
              const Real* ap = apack.data() + ip * kcur * kmr;
              Index rs = 1, ps = kmr;
              if (direct && mr == kmr) {
                ap = ta ? item.a.row_ptr(pc) + i0 : item.a.row_ptr(i0) + pc;
                rs = ta ? 1 : item.a.ld();
                ps = ta ? item.a.ld() : 1;
              }
              uk.fn(kcur, ap, rs, ps, bpack.data() + jp * kcur * knr,
                    item.c.row_ptr(i0) + j0, item.c.ld(), mr,
                    std::min(knr, n - j0));
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Branch-free scalar fallback for shapes too small to amortize packing.
// alpha is applied once per (i, kk) pair, never in the innermost loop,
// and there is no data-dependent branch in any loop body.
// ---------------------------------------------------------------------------

void gemm_small_nn(Real alpha, RealConstView a, RealConstView b, RealView c) {
  const Index m = c.rows(), n = c.cols(), k = a.cols();
  for (Index i = 0; i < m; ++i) {
    Real* ci = c.row_ptr(i);
    const Real* ai = a.row_ptr(i);
    for (Index kk = 0; kk < k; ++kk) {
      const Real aik = alpha * ai[kk];
      const Real* bk = b.row_ptr(kk);
#pragma omp simd
      for (Index j = 0; j < n; ++j) ci[j] += aik * bk[j];
    }
  }
}

void gemm_small_tn(Real alpha, RealConstView a, RealConstView b, RealView c) {
  // C = Aᵀ B: C[i,:] += A[kk,i] * B[kk,:]
  const Index m = c.rows(), n = c.cols(), k = a.rows();
  for (Index kk = 0; kk < k; ++kk) {
    const Real* ak = a.row_ptr(kk);
    const Real* bk = b.row_ptr(kk);
    for (Index i = 0; i < m; ++i) {
      const Real aki = alpha * ak[i];
      Real* ci = c.row_ptr(i);
#pragma omp simd
      for (Index j = 0; j < n; ++j) ci[j] += aki * bk[j];
    }
  }
}

void gemm_small_nt(Real alpha, RealConstView a, RealConstView b, RealView c) {
  // C[i,j] += alpha * dot(A[i,:], B[j,:]) — both rows contiguous; alpha
  // multiplies the finished dot product, outside the reduction loop.
  const Index m = c.rows(), n = c.cols(), k = a.cols();
  for (Index i = 0; i < m; ++i) {
    const Real* ai = a.row_ptr(i);
    Real* ci = c.row_ptr(i);
    for (Index j = 0; j < n; ++j) {
      ci[j] += alpha * dot(ai, b.row_ptr(j), k);
    }
  }
}

void gemm_small_tt(Real alpha, RealConstView a, RealConstView b, RealView c) {
  // Rare and only hit at tiny sizes: materialize Bᵀ and reuse TN.
  const RealMatrix bt = transpose(b);
  gemm_small_tn(alpha, a, bt.view(), c);
}

void check_gemm_shapes(Trans ta, Trans tb, RealConstView a, RealConstView b,
                       RealView c, Index& m, Index& n, Index& k) {
  m = (ta == Trans::kNo) ? a.rows() : a.cols();
  const Index ka = (ta == Trans::kNo) ? a.cols() : a.rows();
  const Index kb = (tb == Trans::kNo) ? b.rows() : b.cols();
  n = (tb == Trans::kNo) ? b.cols() : b.rows();
  LRT_CHECK(ka == kb, "gemm inner dimension mismatch: " << ka << " vs " << kb);
  LRT_CHECK(c.rows() == m && c.cols() == n,
            "gemm output shape mismatch: want " << m << "x" << n << ", got "
                                                << c.rows() << "x" << c.cols());
  k = ka;
}

void scale_c(Real beta, RealView c) {
  if (beta == Real{0}) {
    c.fill(Real{0});
  } else if (beta != Real{1}) {
    for (Index i = 0; i < c.rows(); ++i) scal(beta, c.row_ptr(i), c.cols());
  }
}

}  // namespace

Real dot(const Real* x, const Real* y, Index n) {
  Real sum = 0.0;
  // A pure simd reduction runs on one thread; its lanes combine in an
  // order fixed when the binary is built, so the bits do not depend on
  // the thread count (exempt from lrt-analyze's fp-reduction pass).
#pragma omp simd reduction(+ : sum)
  for (Index i = 0; i < n; ++i) sum += x[i] * y[i];
  return sum;
}

Real nrm2(const Real* x, Index n) { return std::sqrt(dot(x, x, n)); }

void axpy(Real alpha, const Real* x, Real* y, Index n) {
#pragma omp simd
  for (Index i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scal(Real alpha, Real* x, Index n) {
#pragma omp simd
  for (Index i = 0; i < n; ++i) x[i] *= alpha;
}

void gemv(Trans trans, Real alpha, RealConstView a, const Real* x, Real beta,
          Real* y) {
  if (trans == Trans::kNo) {
    const Index m = a.rows(), n = a.cols();
    for (Index i = 0; i < m; ++i) {
      y[i] = beta * y[i] + alpha * dot(a.row_ptr(i), x, n);
    }
  } else {
    const Index m = a.rows(), n = a.cols();
    for (Index j = 0; j < n; ++j) y[j] *= beta;
    for (Index i = 0; i < m; ++i) {
      axpy(alpha * x[i], a.row_ptr(i), y, n);
    }
  }
}

void gemm(Trans ta, Trans tb, Real alpha, RealConstView a, RealConstView b,
          Real beta, RealView c) {
  Index m, n, k;
  check_gemm_shapes(ta, tb, a, b, c, m, n, k);
  scale_c(beta, c);
  if (m == 0 || n == 0 || k == 0 || alpha == Real{0}) return;

  // No span here — gemm is called far too often for per-call trace
  // events; the FLOP counter gives the aggregate view instead.
  static obs::Counter& calls = obs::counter("la.gemm.calls");
  static obs::Counter& flops = obs::counter("la.gemm.flops");
  calls.add(1);
  flops.add(2ll * m * n * k);

  if (gemm_flops(m, n, k) >= kPackedFlopThreshold) {
    static obs::Counter& packed = obs::counter("la.gemm.packed_calls");
    packed.add(1);
    const GemmBatchItem item{a, c};
    gemm_packed(ta == Trans::kYes, tb == Trans::kYes, alpha, &item, 1, b,
                gemm_flops(m, n, k));
    return;
  }
  static obs::Counter& fallback = obs::counter("la.gemm.fallback_calls");
  fallback.add(1);
  if (ta == Trans::kNo && tb == Trans::kNo) {
    gemm_small_nn(alpha, a, b, c);
  } else if (ta == Trans::kYes && tb == Trans::kNo) {
    gemm_small_tn(alpha, a, b, c);
  } else if (ta == Trans::kNo && tb == Trans::kYes) {
    gemm_small_nt(alpha, a, b, c);
  } else {
    gemm_small_tt(alpha, a, b, c);
  }
}

void gemm_many(Trans ta, Trans tb, Real alpha,
               const std::vector<GemmBatchItem>& items, RealConstView b,
               Real beta) {
  if (items.empty()) return;
  const bool tab = ta == Trans::kYes;
  const bool tbb = tb == Trans::kYes;
  const Index n = tbb ? b.rows() : b.cols();
  const Index k = tbb ? b.cols() : b.rows();

  double total_flops = 0;
  for (const GemmBatchItem& item : items) {
    Index m, ni, ki;
    check_gemm_shapes(ta, tb, item.a, b, item.c, m, ni, ki);
    scale_c(beta, item.c);
    total_flops += gemm_flops(m, n, k);
  }

  static obs::Counter& batched_calls = obs::counter("la.gemm.batched_calls");
  static obs::Counter& batched_items = obs::counter("la.gemm.batched_items");
  static obs::Counter& calls = obs::counter("la.gemm.calls");
  static obs::Counter& flops = obs::counter("la.gemm.flops");
  static obs::Counter& packed = obs::counter("la.gemm.packed_calls");
  batched_calls.add(1);
  batched_items.add(static_cast<long long>(items.size()));
  calls.add(static_cast<long long>(items.size()));
  flops.add(static_cast<long long>(total_flops));
  packed.add(static_cast<long long>(items.size()));
  if (total_flops == 0 || alpha == Real{0}) return;
  gemm_packed(tab, tbb, alpha, items.data(), items.size(), b, total_flops);
}

Isa host_isa() {
  static const Isa isa = [] {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) return Isa::kAvx512;
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return Isa::kAvx2Fma;
    }
#endif
    return Isa::kBaseline;
  }();
  return isa;
}

const GemmKernel& gemm_kernel() { return micro_kernel().info; }

std::vector<GemmKernel> gemm_kernels() {
  std::vector<GemmKernel> out;
  out.reserve(std::size(kMicroKernels));
  for (const MicroKernel& mk : kMicroKernels) out.push_back(mk.info);
  return out;
}

RealMatrix gemm(Trans ta, Trans tb, RealConstView a, RealConstView b) {
  const Index m = (ta == Trans::kNo) ? a.rows() : a.cols();
  const Index n = (tb == Trans::kNo) ? b.cols() : b.rows();
  RealMatrix c(m, n);
  gemm(ta, tb, Real{1}, a, b, Real{0}, c.view());
  return c;
}

RealMatrix gram(RealConstView a) {
  const Index n = a.cols();
  RealMatrix g(n, n);
  gemm(Trans::kYes, Trans::kNo, Real{1}, a, a, Real{0}, g.view());
  // Symmetrize to kill roundoff asymmetry from the blocked kernel.
  for (Index i = 0; i < n; ++i) {
    for (Index j = i + 1; j < n; ++j) {
      const Real avg = 0.5 * (g(i, j) + g(j, i));
      g(i, j) = avg;
      g(j, i) = avg;
    }
  }
  return g;
}

Real frobenius_norm(RealConstView a) {
  Real sum = 0.0;
  for (Index i = 0; i < a.rows(); ++i) {
    const Real* r = a.row_ptr(i);
    for (Index j = 0; j < a.cols(); ++j) sum += r[j] * r[j];
  }
  return std::sqrt(sum);
}

Real max_abs_diff(RealConstView a, RealConstView b) {
  LRT_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
            "max_abs_diff shape mismatch");
  Real best = 0.0;
  for (Index i = 0; i < a.rows(); ++i) {
    const Real* ra = a.row_ptr(i);
    const Real* rb = b.row_ptr(i);
    for (Index j = 0; j < a.cols(); ++j) {
      best = std::max(best, std::abs(ra[j] - rb[j]));
    }
  }
  return best;
}

Real max_abs(RealConstView a) {
  Real best = 0.0;
  for (Index i = 0; i < a.rows(); ++i) {
    const Real* r = a.row_ptr(i);
    for (Index j = 0; j < a.cols(); ++j) best = std::max(best, std::abs(r[j]));
  }
  return best;
}

double gemm_flops(Index m, Index n, Index k) {
  return 2.0 * double(m) * double(n) * double(k);
}

}  // namespace lrt::la
