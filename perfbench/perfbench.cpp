// Repository benchmark: time to the k lowest Casida excitation energies.
//
//   perfbench --mode run --workload W --seed N --seconds S --trace 0|1
//             --ref FILE [--trace-out FILE]
//   perfbench --mode setup --workload W --seed N
//   perfbench --mode reference --workload W --seed N --out FILE
//
// `run` builds the workload, times a cold warm-up solve (setup), then
// repeats warm solves of the real driver for S seconds and checks every
// solve's energies against the dense reference in FILE. With --trace 1 it
// alternates driver solves with a traced rebuild of the same solve from
// the layers' public calls (see traced_*), which gives per-layer self
// times and counts. `setup` only measures set-up; `reference` writes the
// dense-Casida energies for a seed. Each mode prints one JSON line.
// perfbench/run.py drives all three; see perfbench/README.md.
#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "isdf/pairproduct.hpp"
#include "kmeans/dist_kmeans.hpp"
#include "la/blas.hpp"
#include "la/lstsq.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "par/disteig.hpp"
#include "par/runtime.hpp"
#include "par/transpose.hpp"
#include "perfbench/host.hpp"
#include "perfbench/trace.hpp"
#include "perfbench/workloads.hpp"
#include "tddft/dist_driver.hpp"
#include "tddft/dist_implicit.hpp"

namespace perfbench {
namespace {

using lrt::Index;
using lrt::Real;
namespace la = lrt::la;
namespace par = lrt::par;
namespace tddft = lrt::tddft;

constexpr long long kMaxTriadBytes = 2LL << 30;
constexpr int kMinSolves = 5;

struct Args {
  std::string mode = "run";
  std::string workload;
  unsigned seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string ref_path;
  std::string out_path;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--mode") a.mode = value;
    else if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = static_cast<unsigned>(std::stoul(value));
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = std::stoi(value);
    else if (key == "--ref") a.ref_path = value;
    else if (key == "--out") a.out_path = value;
    else if (key == "--trace-out") a.trace_out = value;
    else throw std::runtime_error("unknown argument " + key);
  }
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double seconds_since(long long t0) {
  return 1e-9 * static_cast<double>(now_ns() - t0);
}

/// Restarts VmHWM at the current RSS; false when the kernel refuses.
bool reset_vm_hwm() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------
// Library counters read around each solve. The library keeps them always
// on; process-wide, so values are summed over ranks.

struct Counts {
  long long fft_points = 0;
  long long comm_bytes = 0;
  long long comm_calls = 0;
  long long assign_full = 0;
  long long assign_skipped = 0;
  long long dist_kmeans_iterations = 0;
  long long dist_lobpcg_iterations = 0;
  long long minor_faults = 0;  ///< page faults without I/O, whole process
};

Counts read_counts() {
  Counts c;
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) c.minor_faults = usage.ru_minflt;
  for (const auto& [name, value] : lrt::obs::snapshot_counters()) {
    const auto ends_with = [&](const char* suffix) {
      const std::string s = suffix;
      return name.size() > s.size() &&
             name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    const bool comm = name.rfind("comm.", 0) == 0 &&
                      name.rfind("comm.retry.", 0) != 0;
    if (name == "fft.fft3d.points") c.fft_points = value;
    else if (name == "kmeans.assign.full") c.assign_full = value;
    else if (name == "kmeans.assign.skipped") c.assign_skipped = value;
    else if (name == "kmeans.dist.iterations") c.dist_kmeans_iterations = value;
    else if (name == "par.dist_lobpcg.iterations")
      c.dist_lobpcg_iterations = value;
    else if (comm && ends_with(".bytes")) c.comm_bytes += value;
    else if (comm && ends_with(".calls")) c.comm_calls += value;
  }
  return c;
}

Counts operator-(const Counts& a, const Counts& b) {
  Counts d;
  d.fft_points = a.fft_points - b.fft_points;
  d.comm_bytes = a.comm_bytes - b.comm_bytes;
  d.comm_calls = a.comm_calls - b.comm_calls;
  d.assign_full = a.assign_full - b.assign_full;
  d.assign_skipped = a.assign_skipped - b.assign_skipped;
  d.dist_kmeans_iterations = a.dist_kmeans_iterations - b.dist_kmeans_iterations;
  d.dist_lobpcg_iterations = a.dist_lobpcg_iterations - b.dist_lobpcg_iterations;
  d.minor_faults = a.minor_faults - b.minor_faults;
  return d;
}

// ---------------------------------------------------------------------------
// Workload context and the two ways to solve it.

struct Context {
  const WorkloadSpec* spec = nullptr;
  tddft::CasidaProblem problem;
  int ranks = 1;
  int threads = 1;  ///< OpenMP threads per rank
  Index nmu = 0;
  /// Grid points that survive K-Means weight pruning (serial solver); one
  /// serial Lloyd iteration assigns exactly this many points.
  Index kmeans_kept = 0;
};

struct SolveOutcome {
  std::vector<Real> energies;
  double wall_s = 0;
  Counts counts;
  Index kmeans_iterations = 0;
  Index lobpcg_iterations = 0;
};

Index derived_nmu(const Context& ctx) {
  const Index nmu =
      ctx.spec->nmu_ratio * (ctx.problem.nv() + ctx.problem.nc());
  return std::min({nmu, ctx.problem.ncv(), ctx.problem.nr()});
}

tddft::DistDriverOptions dist_options(const Context& ctx) {
  tddft::DistDriverOptions o;
  o.version = ctx.spec->solver == Solver::kDistNaive ? tddft::Version::kNaive
                                                     : tddft::Version::kImplicit;
  o.num_states = ctx.spec->num_states;
  o.nmu = ctx.nmu;
  return o;
}

tddft::DriverOptions serial_options(const Context& ctx) {
  tddft::DriverOptions o;
  o.version = tddft::Version::kImplicit;
  o.num_states = ctx.spec->num_states;
  o.nmu = ctx.nmu;
  return o;
}

/// One untraced solve through the real driver.
SolveOutcome driver_solve(const Context& ctx) {
  SolveOutcome out;
  const Counts before = read_counts();
  const long long t0 = now_ns();
  if (ctx.spec->solver == Solver::kSerialImplicit) {
    const tddft::DriverResult r =
        tddft::solve_casida(ctx.problem, serial_options(ctx));
    out.energies = r.energies;
    out.lobpcg_iterations = r.eigen_iterations;
  } else {
    const tddft::DistDriverOptions options = dist_options(ctx);
    par::run(ctx.ranks, [&](par::Comm& comm) {
      omp_set_num_threads(ctx.threads);
      tddft::DistDriverStats stats =
          tddft::solve_casida_distributed(comm, ctx.problem, options);
      if (comm.rank() == 0) out.energies = std::move(stats.energies);
    });
  }
  out.wall_s = seconds_since(t0);
  out.counts = read_counts() - before;
  if (ctx.spec->solver == Solver::kSerialImplicit) {
    const long long assigned =
        out.counts.assign_full + out.counts.assign_skipped;
    out.kmeans_iterations = ctx.kmeans_kept > 0 ? assigned / ctx.kmeans_kept : 0;
  } else {
    out.kmeans_iterations = out.counts.dist_kmeans_iterations / ctx.ranks;
    out.lobpcg_iterations = out.counts.dist_lobpcg_iterations / ctx.ranks;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Traced rebuilds. Each mirrors its driver call for call (same public
// functions, same order, same arguments), so its energies must equal the
// driver's to rounding; a span wraps every call into a layer.

la::RealConstView my_rows(la::RealConstView full,
                          const par::BlockPartition& part, int rank) {
  return full.rows_block(part.offset(rank), part.count(rank));
}

/// The f_Hxc kernel and the G-vectors it is built on, as each driver
/// builds them at the start of every solve.
struct KernelParts {
  KernelParts(const tddft::CasidaProblem& problem, bool include_xc)
      : gvectors(problem.grid),
        kernel(problem.grid, gvectors, problem.ground_density, include_xc) {}
  lrt::grid::GVectors gvectors;
  tddft::HxcKernel kernel;
};

/// la::gemm inside a span that carries the call's flop count.
la::RealMatrix traced_gemm(RankTrace& tr, la::Trans ta, la::Trans tb,
                           la::RealConstView a, la::RealConstView b) {
  Span s(tr, "la.gemm");
  la::RealMatrix c = la::gemm(ta, tb, a, b);
  const Index k = ta == la::Trans::kNo ? a.cols() : a.rows();
  s.add_work(la::gemm_flops(c.rows(), c.cols(), k));
  return c;
}

/// H = D + 2 dv sym(V) in place, as the distributed driver finalises.
void finalize_hamiltonian(la::RealMatrix& h, const std::vector<Real>& d,
                          Real dv) {
  const Index n = h.rows();
  for (Index i = 0; i < n; ++i) {
    for (Index j = i; j < n; ++j) {
      const Real v = dv * (h(i, j) + h(j, i));
      h(i, j) = v;
      h(j, i) = v;
    }
    h(i, i) += d[static_cast<std::size_t>(i)];
  }
}

/// M <- dv sym(M), the kernel projection's symmetrisation.
void symmetrize_projection(la::RealMatrix& m, Real dv) {
  for (Index i = 0; i < m.rows(); ++i) {
    for (Index j = i; j < m.cols(); ++j) {
      const Real avg = Real{0.5} * dv * (m(i, j) + m(j, i));
      m(i, j) = avg;
      m(j, i) = avg;
    }
  }
}

/// Kernel sandwich of the distributed driver: transpose to pair columns,
/// apply f_Hxc, transpose back.
la::RealMatrix traced_kernel_apply(RankTrace& tr, par::Comm& comm,
                                   const tddft::HxcKernel& kernel,
                                   la::RealConstView local_rows, Index n_rows,
                                   Index n_cols) {
  la::RealMatrix cols;
  {
    Span s(tr, "par.transpose");
    cols = par::row_block_to_col_block_overlapped(comm, local_rows, n_rows,
                                                  n_cols);
  }
  la::RealMatrix kcols(cols.rows(), cols.cols());
  {
    Span s(tr, "tddft.kernel_apply");
    kernel.apply(cols.view(), kcols.view(), nullptr);
  }
  Span s(tr, "par.transpose");
  return par::col_block_to_row_block_overlapped(comm, kcols.view(), n_rows,
                                                n_cols);
}

/// Gram product AᵀB over row blocks, summed over ranks (the driver's
/// par::gram_reduce_monolithic, split into its GEMM and its allreduce).
la::RealMatrix traced_gram_reduce(RankTrace& tr, par::Comm& comm,
                                  la::RealConstView a, la::RealConstView b) {
  la::RealMatrix c = traced_gemm(tr, la::Trans::kYes, la::Trans::kNo, a, b);
  Span s(tr, "par.gram_reduce");
  comm.allreduce(c.data(), c.size(), par::ReduceOp::kSum);
  return c;
}

struct TracedResult {
  std::vector<Real> energies;
  Index kmeans_iterations = 0;
  Index lobpcg_iterations = 0;
};

/// Mirrors tddft::solve_casida_distributed(kImplicit).
TracedResult traced_dist_implicit(RankTrace& tr, par::Comm& comm,
                                  const Context& ctx) {
  const tddft::CasidaProblem& problem = ctx.problem;
  const tddft::DistDriverOptions options = dist_options(ctx);
  Span root(tr, "solve");
  std::unique_ptr<KernelParts> kp;
  {
    Span s(tr, "tddft.kernel_build");
    kp = std::make_unique<KernelParts>(problem, options.include_xc);
  }
  const tddft::HxcKernel& kernel = kp->kernel;
  const int me = comm.rank();
  const Index nr = problem.nr();
  const Index nv = problem.nv();
  const Index nc = problem.nc();
  const Index nmu = ctx.nmu;
  const par::BlockPartition rows(nr, comm.size());
  const Index my_count = rows.count(me);
  const Index my_offset = rows.offset(me);
  const la::RealConstView psi_v_loc = my_rows(problem.psi_v.view(), rows, me);
  const la::RealConstView psi_c_loc = my_rows(problem.psi_c.view(), rows, me);

  TracedResult out;
  lrt::kmeans::DistKMeansResult km;
  {
    std::vector<Real> weights;
    std::vector<lrt::grid::Vec3> points(static_cast<std::size_t>(my_count));
    {
      Span s(tr, "kmeans.weights");
      weights = lrt::kmeans::pair_weights(psi_v_loc, psi_c_loc);
      for (Index i = 0; i < my_count; ++i) {
        points[static_cast<std::size_t>(i)] =
            problem.grid.position(my_offset + i);
      }
    }
    Span s(tr, "kmeans.lloyd");
    km = lrt::kmeans::dist_weighted_kmeans(comm, points, weights, my_offset,
                                           nmu, options.kmeans);
  }
  out.kmeans_iterations = km.iterations;

  la::RealMatrix samp(nmu, nv + nc);
  {
    Span s(tr, "isdf.sample");
    for (Index m = 0; m < nmu; ++m) {
      const Index gp = km.interpolation_points[static_cast<std::size_t>(m)];
      if (gp >= my_offset && gp < my_offset + my_count) {
        Real* row = samp.row_ptr(m);
        for (Index j = 0; j < nv; ++j) row[j] = psi_v_loc(gp - my_offset, j);
        for (Index j = 0; j < nc; ++j)
          row[nv + j] = psi_c_loc(gp - my_offset, j);
      }
    }
  }
  {
    Span s(tr, "par.gram_reduce");
    comm.allreduce(samp.data(), samp.size(), par::ReduceOp::kSum);
  }
  la::RealMatrix psi_v_mu, psi_c_mu;
  {
    Span s(tr, "isdf.sample");
    psi_v_mu = la::to_matrix<Real>(samp.view().cols_block(0, nv));
    psi_c_mu = la::to_matrix<Real>(samp.view().cols_block(nv, nc));
  }

  const la::RealMatrix av = traced_gemm(tr, la::Trans::kNo, la::Trans::kYes,
                                        psi_v_loc, psi_v_mu.view());
  const la::RealMatrix ac = traced_gemm(tr, la::Trans::kNo, la::Trans::kYes,
                                        psi_c_loc, psi_c_mu.view());
  la::RealMatrix zct_loc(my_count, nmu);
  {
    Span s(tr, "isdf.hadamard");
    for (Index r = 0; r < my_count; ++r) {
      const Real* a = av.row_ptr(r);
      const Real* b = ac.row_ptr(r);
      Real* o = zct_loc.row_ptr(r);
      for (Index m = 0; m < nmu; ++m) o[m] = a[m] * b[m];
    }
  }
  const la::RealMatrix gv = traced_gemm(tr, la::Trans::kNo, la::Trans::kYes,
                                        psi_v_mu.view(), psi_v_mu.view());
  const la::RealMatrix gc = traced_gemm(tr, la::Trans::kNo, la::Trans::kYes,
                                        psi_c_mu.view(), psi_c_mu.view());
  la::RealMatrix cct(nmu, nmu);
  {
    Span s(tr, "isdf.hadamard");
    for (Index m = 0; m < nmu; ++m) {
      for (Index l = 0; l < nmu; ++l) cct(m, l) = gv(m, l) * gc(m, l);
    }
  }
  la::RealMatrix theta_loc;
  {
    Span s(tr, "isdf.theta_solve");
    theta_loc = la::solve_gram_from_right(zct_loc.view(), cct.view());
  }

  const la::RealMatrix ktheta_loc =
      traced_kernel_apply(tr, comm, kernel, theta_loc.view(), nr, nmu);
  la::RealMatrix m_mat =
      traced_gram_reduce(tr, comm, theta_loc.view(), ktheta_loc.view());
  {
    Span s(tr, "tddft.assemble");
    symmetrize_projection(m_mat, problem.grid.dv());
  }

  std::unique_ptr<tddft::DistImplicitHamiltonian> h;
  {
    Span s(tr, "tddft.assemble");
    h = std::make_unique<tddft::DistImplicitHamiltonian>(
        comm, tddft::energy_differences(problem), std::move(m_mat),
        psi_v_mu.view(), psi_c_mu.view());
  }
  tddft::TddftEigenOptions eig = options.eigen;
  eig.num_states = options.num_states;
  Span s(tr, "lobpcg");
  const tddft::DistCasidaSolution sol =
      tddft::solve_casida_lobpcg_distributed(comm, *h, eig);
  out.energies = sol.energies;
  out.lobpcg_iterations = sol.iterations;
  return out;
}

/// Mirrors tddft::solve_casida_distributed(kNaive).
TracedResult traced_dist_naive(RankTrace& tr, par::Comm& comm,
                               const Context& ctx) {
  const tddft::CasidaProblem& problem = ctx.problem;
  const tddft::DistDriverOptions options = dist_options(ctx);
  Span root(tr, "solve");
  std::unique_ptr<KernelParts> kp;
  {
    Span s(tr, "tddft.kernel_build");
    kp = std::make_unique<KernelParts>(problem, options.include_xc);
  }
  const int me = comm.rank();
  const Index nr = problem.nr();
  const Index ncv = problem.ncv();
  const par::BlockPartition rows(nr, comm.size());

  la::RealMatrix p_loc;
  {
    Span s(tr, "isdf.pair_product");
    p_loc = lrt::isdf::pair_product_matrix(
        my_rows(problem.psi_v.view(), rows, me),
        my_rows(problem.psi_c.view(), rows, me));
  }
  const la::RealMatrix kp_loc =
      traced_kernel_apply(tr, comm, kp->kernel, p_loc.view(), nr, ncv);
  la::RealMatrix h = traced_gram_reduce(tr, comm, p_loc.view(), kp_loc.view());
  {
    Span s(tr, "tddft.assemble");
    finalize_hamiltonian(h, tddft::energy_differences(problem),
                         problem.grid.dv());
  }
  TracedResult out;
  Span s(tr, "la.dense_eig");
  const par::Layout row_layout = par::Layout::block_row(ncv, ncv, comm.size());
  par::DistMatrix h_dist(row_layout, me);
  h_dist.fill_global([&](Index i, Index j) { return h(i, j); });
  par::DistEigResult eig = par::dist_syev(comm, h_dist, options.eig_method);
  out.energies.assign(eig.values.begin(),
                      eig.values.begin() + options.num_states);
  return out;
}

/// Mirrors tddft::solve_casida(kImplicit): isdf_decompose (K-Means points,
/// interpolation_vectors), build_kernel_projection, LOBPCG.
TracedResult traced_serial_implicit(RankTrace& tr, const Context& ctx) {
  const tddft::CasidaProblem& problem = ctx.problem;
  const tddft::DriverOptions options = serial_options(ctx);
  Span root(tr, "solve");
  std::unique_ptr<KernelParts> kp;
  {
    Span s(tr, "tddft.kernel_build");
    kp = std::make_unique<KernelParts>(problem, options.include_xc);
  }
  const Index nr = problem.nr();
  const Index nmu = ctx.nmu;
  const la::RealConstView psi_v = problem.psi_v.view();
  const la::RealConstView psi_c = problem.psi_c.view();

  TracedResult out;
  lrt::kmeans::KMeansResult km;
  {
    std::vector<Real> weights;
    std::vector<lrt::grid::Vec3> points;
    {
      Span s(tr, "kmeans.weights");
      weights = lrt::kmeans::pair_weights(psi_v, psi_c);
      points = problem.grid.positions();
    }
    Span s(tr, "kmeans.lloyd");
    km = lrt::kmeans::weighted_kmeans(points, weights, nmu,
                                      options.isdf.kmeans);
  }
  out.kmeans_iterations = km.iterations;
  const std::vector<Index>& pts = km.interpolation_points;

  la::RealMatrix psi_v_mu, psi_c_mu;
  {
    Span s(tr, "isdf.sample");
    psi_v_mu = lrt::isdf::sample_rows(psi_v, pts);
    psi_c_mu = lrt::isdf::sample_rows(psi_c, pts);
  }
  const la::RealMatrix av = traced_gemm(tr, la::Trans::kNo, la::Trans::kYes,
                                        psi_v, psi_v_mu.view());
  const la::RealMatrix ac = traced_gemm(tr, la::Trans::kNo, la::Trans::kYes,
                                        psi_c, psi_c_mu.view());
  la::RealMatrix zct(nr, nmu);
  {
    Span s(tr, "isdf.hadamard");
#pragma omp parallel for schedule(static)
    for (Index r = 0; r < nr; ++r) {
      const Real* v = av.row_ptr(r);
      const Real* c = ac.row_ptr(r);
      Real* o = zct.row_ptr(r);
      for (Index m = 0; m < nmu; ++m) o[m] = v[m] * c[m];
    }
  }
  const la::RealMatrix gv = traced_gemm(tr, la::Trans::kNo, la::Trans::kYes,
                                        psi_v_mu.view(), psi_v_mu.view());
  const la::RealMatrix gc = traced_gemm(tr, la::Trans::kNo, la::Trans::kYes,
                                        psi_c_mu.view(), psi_c_mu.view());
  la::RealMatrix cct(nmu, nmu);
  {
    Span s(tr, "isdf.hadamard");
    for (Index m = 0; m < nmu; ++m) {
      for (Index l = 0; l < nmu; ++l) cct(m, l) = gv(m, l) * gc(m, l);
    }
  }
  la::RealMatrix theta;
  {
    Span s(tr, "isdf.theta_solve");
    theta = la::solve_gram_from_right(zct.view(), cct.view());
  }
  la::RealMatrix ktheta(theta.rows(), theta.cols());
  {
    Span s(tr, "tddft.kernel_apply");
    kp->kernel.apply(theta.view(), ktheta.view(), nullptr);
  }
  la::RealMatrix m = traced_gemm(tr, la::Trans::kYes, la::Trans::kNo,
                                 theta.view(), ktheta.view());
  std::unique_ptr<tddft::ImplicitHamiltonian> h;
  {
    Span s(tr, "tddft.assemble");
    symmetrize_projection(m, kp->kernel.dv());
    h = std::make_unique<tddft::ImplicitHamiltonian>(
        tddft::energy_differences(problem), std::move(m), std::move(psi_v_mu),
        std::move(psi_c_mu));
  }
  tddft::TddftEigenOptions eig = options.eigen;
  eig.num_states = options.num_states;
  Span s(tr, "lobpcg");
  const la::LobpcgResult sol = tddft::solve_casida_lobpcg(*h, eig);
  out.energies = sol.eigenvalues;
  out.lobpcg_iterations = sol.iterations;
  return out;
}

/// One traced solve; appends each rank's spans to `traces`.
SolveOutcome traced_solve(const Context& ctx, std::vector<RankTrace>& traces,
                          long long solve_id) {
  SolveOutcome out;
  for (RankTrace& t : traces) t.solve_id = solve_id;
  const Counts before = read_counts();
  const long long t0 = now_ns();
  TracedResult r;
  if (ctx.spec->solver == Solver::kSerialImplicit) {
    r = traced_serial_implicit(traces[0], ctx);
  } else {
    par::run(ctx.ranks, [&](par::Comm& comm) {
      omp_set_num_threads(ctx.threads);
      RankTrace& tr = traces[static_cast<std::size_t>(comm.rank())];
      TracedResult mine = ctx.spec->solver == Solver::kDistNaive
                              ? traced_dist_naive(tr, comm, ctx)
                              : traced_dist_implicit(tr, comm, ctx);
      if (comm.rank() == 0) r = std::move(mine);
    });
  }
  out.wall_s = seconds_since(t0);
  out.counts = read_counts() - before;
  out.energies = r.energies;
  out.kmeans_iterations = r.kmeans_iterations;
  out.lobpcg_iterations = r.lobpcg_iterations;
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer aggregation of one traced solve.

/// Span name -> per-layer self-time metric.
const std::map<std::string, std::string>& layer_of_span() {
  static const std::map<std::string, std::string> m = {
      {"tddft.kernel_build", "tddft.kernel_build_s"},
      {"tddft.kernel_apply", "tddft.kernel_apply_s"},
      {"tddft.assemble", "tddft.assemble_s"},
      {"kmeans.weights", "kmeans.s"},
      {"kmeans.lloyd", "kmeans.s"},
      {"isdf.sample", "isdf.assemble_s"},
      {"isdf.hadamard", "isdf.assemble_s"},
      {"isdf.pair_product", "isdf.pair_product_s"},
      {"isdf.theta_solve", "isdf.theta_solve_s"},
      {"la.gemm", "la.gemm_s"},
      {"la.dense_eig", "la.dense_eig_s"},
      {"par.transpose", "par.transpose_s"},
      {"par.gram_reduce", "par.gram_reduce_s"},
      {"lobpcg", "lobpcg.s"},
  };
  return m;
}

std::vector<std::string> layer_time_metrics() {
  std::set<std::string> names;
  for (const auto& [span, metric] : layer_of_span()) names.insert(metric);
  return {names.begin(), names.end()};
}

struct SolveLayers {
  std::map<std::string, double> seconds;  ///< mean over ranks of self time
  double covered_s = 0;                   ///< mean over ranks
  double imbalance_s = 0;
  double gemm_flops = 0;  ///< la.gemm spans, summed over ranks
};

/// Aggregates the spans of `solve_id` on every rank.
SolveLayers aggregate(const std::vector<RankTrace>& traces, long long solve_id) {
  SolveLayers out;
  const double nranks = static_cast<double>(traces.size());
  std::vector<std::vector<double>> durations(traces.size());
  for (std::size_t r = 0; r < traces.size(); ++r) {
    const RankTrace& tr = traces[r];
    const std::vector<double> self = self_seconds(tr);
    for (std::size_t i = 0; i < tr.spans.size(); ++i) {
      const SpanRecord& s = tr.spans[i];
      if (s.solve_id != solve_id || s.parent < 0) continue;
      const auto it = layer_of_span().find(s.name);
      if (it == layer_of_span().end()) {
        throw std::logic_error(std::string("unmapped span ") + s.name);
      }
      out.seconds[it->second] += self[i] / nranks;
      out.covered_s += self[i] / nranks;
      if (it->second == "la.gemm_s") out.gemm_flops += s.work;
      durations[r].push_back(1e-9 * static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  // Ranks run the same span sequence; pair spans by ordinal.
  for (std::size_t i = 0; i < durations[0].size(); ++i) {
    double lo = durations[0][i], hi = durations[0][i];
    for (const auto& d : durations) {
      if (d.size() != durations[0].size()) {
        throw std::logic_error("ranks recorded different span sequences");
      }
      lo = std::min(lo, d[i]);
      hi = std::max(hi, d[i]);
    }
    out.imbalance_s += hi - lo;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Correctness.

double max_rel_err(const std::vector<Real>& e, const std::vector<Real>& ref) {
  if (e.size() != ref.size()) return INFINITY;
  double worst = 0;
  for (std::size_t i = 0; i < e.size(); ++i) {
    const double err = std::abs(e[i] - ref[i]) / std::abs(ref[i]);
    if (!(err <= worst)) worst = std::isnan(err) ? INFINITY : err;
  }
  return worst;
}

std::vector<Real> read_energies(const std::string& path) {
  std::ifstream in(path);
  std::vector<Real> e;
  Real v;
  while (in >> v) e.push_back(v);
  if (e.empty()) throw std::runtime_error("no reference energies in " + path);
  return e;
}

// ---------------------------------------------------------------------------
// JSON output (one line, flat objects).

class JsonLine {
 public:
  void num(const std::string& key, double v) {
    raw(key, lrt::obs::json::number(v));
  }
  void str(const std::string& key, const std::string& v) {
    raw(key, lrt::obs::json::quote(v));
  }
  void raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + lrt::obs::json::quote(key) + ":" +
             json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string num_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    s += (i ? "," : "") + lrt::obs::json::number(v[i]);
  }
  return s + "]";
}

// ---------------------------------------------------------------------------
// Modes.

int threads_per_rank(const WorkloadSpec& spec, int nproc) {
  if (spec.threads_per_rank > 0) return spec.threads_per_rank;
  return std::max(1, std::min(4, nproc));
}

/// Sets the thread budget, builds the workload and runs the cold warm-up
/// solve. Returns set-up seconds; `ctx` is ready for warm solves after.
/// `warmup` stays empty when the warm-up solve throws.
double set_up(Context& ctx, const WorkloadSpec& spec, unsigned seed, int nproc,
              std::optional<SolveOutcome>* warmup) {
  const long long t0 = now_ns();
  ctx.ranks = spec.ranks;
  ctx.threads = threads_per_rank(spec, nproc);
  if (spec.solver == Solver::kSerialImplicit) omp_set_num_threads(ctx.threads);
  ctx.spec = &spec;
  ctx.problem = lrt::bench::make_workload(spec.problem, seed);
  ctx.nmu = derived_nmu(ctx);
  try {
    *warmup = driver_solve(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: warm-up solve failed: %s\n", e.what());
  }
  return seconds_since(t0);
}

int mode_reference(const Args& args, const WorkloadSpec& spec, int nproc) {
  omp_set_num_threads(std::max(1, std::min(4, nproc)));
  const long long t0 = now_ns();
  const tddft::CasidaProblem problem =
      lrt::bench::make_workload(spec.problem, args.seed);
  tddft::DriverOptions o;
  o.version = tddft::Version::kNaive;
  o.num_states = spec.num_states;
  const tddft::DriverResult r = tddft::solve_casida(problem, o);
  std::ofstream out(args.out_path);
  out.precision(17);
  for (Real e : r.energies) out << e << "\n";
  out.close();
  if (!out) throw std::runtime_error("cannot write " + args.out_path);
  JsonLine j;
  j.num("reference_s", seconds_since(t0));
  j.raw("energies", num_list({r.energies.begin(), r.energies.end()}));
  std::printf("%s\n", j.str().c_str());
  return 0;
}

int mode_setup(const Args& args, const WorkloadSpec& spec, int nproc) {
  Context ctx;
  std::optional<SolveOutcome> warmup;
  const double setup_s = set_up(ctx, spec, args.seed, nproc, &warmup);
  JsonLine j;
  j.num("setup_s", setup_s);
  j.num("failed", warmup ? 0 : 1);
  std::printf("%s\n", j.str().c_str());
  return 0;
}

int mode_run(const Args& args, const WorkloadSpec& spec, const HostInfo& host) {
  Context ctx;
  std::optional<SolveOutcome> warmup;
  const double setup_s = set_up(ctx, spec, args.seed, host.nproc, &warmup);

  // Outside every timed region: reference energies and the pruned point
  // count that converts the serial K-Means counters into iterations.
  const std::vector<Real> ref = read_energies(args.ref_path);
  if (spec.solver == Solver::kSerialImplicit) {
    const lrt::kmeans::KMeansResult km = lrt::kmeans::weighted_kmeans(
        ctx.problem.grid.positions(),
        lrt::kmeans::pair_weights(ctx.problem.psi_v.view(),
                                  ctx.problem.psi_c.view()),
        ctx.nmu, serial_options(ctx).isdf.kmeans);
    ctx.kmeans_kept = static_cast<Index>(km.kept_points.size());
    if (warmup) {
      warmup->kmeans_iterations =
          (warmup->counts.assign_full + warmup->counts.assign_skipped) /
          ctx.kmeans_kept;
    }
  }

  long long attempted = 0, failed = 0;
  double worst_err = 0;
  std::vector<double> errs;
  std::set<Index> kmeans_iters, lobpcg_iters;
  std::set<std::vector<Real>> distinct_energies;
  const auto check = [&](const SolveOutcome& s) {
    ++attempted;
    // Capped so a broken solve still prints as a number.
    const double err = std::min(max_rel_err(s.energies, ref), 1e300);
    errs.push_back(err);
    if (!(err <= spec.energy_tolerance)) ++failed;
    worst_err = std::max(worst_err, err);
    kmeans_iters.insert(s.kmeans_iterations);
    lobpcg_iters.insert(s.lobpcg_iterations);
    distinct_energies.insert(s.energies);
  };
  if (warmup) {
    check(*warmup);
  } else {
    ++attempted;
    ++failed;
  }

  const bool hwm_reset = reset_vm_hwm();
  std::vector<double> walls, traced_walls;
  std::vector<double> overhead;  ///< traced / untraced - 1, adjacent pairs
  std::vector<RankTrace> traces(static_cast<std::size_t>(ctx.ranks));
  for (int r = 0; r < ctx.ranks; ++r) traces[static_cast<std::size_t>(r)].rank = r;
  std::vector<SolveLayers> layers;
  std::vector<Counts> traced_counts;
  double repro_err = 0;
  bool trace_valid = true;
  std::vector<SolveOutcome> driver_runs;

  // A solve that throws counts as attempted and failed.
  const auto attempt = [&](auto&& solve) -> std::optional<SolveOutcome> {
    try {
      return solve();
    } catch (const std::exception& e) {
      ++attempted;
      ++failed;
      std::fprintf(stderr, "perfbench: solve failed: %s\n", e.what());
      return std::nullopt;
    }
  };

  const long long t_loop = now_ns();
  const double steal0 = steal_seconds();
  long long solve_id = 0;
  for (int round = 0; seconds_since(t_loop) < args.seconds || round < kMinSolves;
       ++round) {
    const std::optional<SolveOutcome> s =
        attempt([&] { return driver_solve(ctx); });
    if (s) {
      walls.push_back(s->wall_s);
      check(*s);
      driver_runs.push_back(*s);
    }
    if (!args.trace) continue;
    ++solve_id;
    const std::optional<SolveOutcome> t =
        attempt([&] { return traced_solve(ctx, traces, solve_id); });
    if (!t) {
      trace_valid = false;
      continue;
    }
    traced_walls.push_back(t->wall_s);
    if (s) overhead.push_back(t->wall_s / s->wall_s - 1.0);
    check(*t);
    // The rebuild must reproduce a driver solve of this run. Driver solves
    // can differ between themselves only through the K-Means iteration
    // count (the serial objective is an OpenMP reduction in unspecified
    // order).
    double best = INFINITY;
    for (const SolveOutcome& d : driver_runs) {
      best = std::min(best, max_rel_err(t->energies, d.energies));
    }
    repro_err = std::max(repro_err, best);
    if (!(best <= 1e-10)) trace_valid = false;
    layers.push_back(aggregate(traces, solve_id));
    traced_counts.push_back(t->counts);
  }
  // Share of the machine's CPU time the hypervisor gave to other guests
  // during the timed loop: how busy the host was while this run measured.
  const double steal_share = (steal_seconds() - steal0) /
                             (seconds_since(t_loop) * host.nproc);
  const double peak_rss_mb = 1e-6 * static_cast<double>(lrt::obs::vm_hwm_bytes());

  JsonLine j;
  j.str("workload", spec.name);
  j.num("seed", args.seed);
  j.num("ranks", ctx.ranks);
  j.num("threads_per_rank", ctx.threads);
  j.num("nproc", host.nproc);
  j.str("cpu_model", host.cpu_model);
  j.str("isa", host.isa);
  j.str("compiler", host.compiler);
  j.str("build_type", host.build_type);
  j.num("nmu", spec.solver == Solver::kDistNaive ? 0 : ctx.nmu);
  j.num("attempted", static_cast<double>(attempted));
  j.num("failed", static_cast<double>(failed));
  j.num("setup_s", setup_s);
  j.num("warmup_solve_s", warmup ? warmup->wall_s : 0.0);
  j.raw("solve_s_samples", num_list(walls));
  j.num("steal_share", steal_share);
  j.num("peak_rss_mb", peak_rss_mb);
  j.num("peak_rss_since_start", hwm_reset ? 0 : 1);
  j.num("energy_err_rel", median(errs));
  j.num("energy_err_rel_max", worst_err);
  j.num("energy_tolerance", spec.energy_tolerance);
  j.num("energies_distinct", static_cast<double>(distinct_energies.size()));
  {
    std::vector<double> ki(kmeans_iters.begin(), kmeans_iters.end());
    std::vector<double> li(lobpcg_iters.begin(), lobpcg_iters.end());
    j.raw("kmeans_iteration_values", num_list(ki));
    j.raw("lobpcg_iteration_values", num_list(li));
  }

  if (args.trace) {
    const Ceilings ceil = measure_ceilings(ctx.ranks * ctx.threads,
                                           host.llc_bytes, kMaxTriadBytes);
    j.num("ceil.threads", ceil.threads);
    j.num("ceil.fma_peak_gflops", ceil.fma_peak_gflops);
    j.num("ceil.triad_gbs", ceil.triad_gbs);
    j.num("ceil.triad_bytes", static_cast<double>(ceil.triad_bytes));
    j.num("ceil.llc_bytes", static_cast<double>(host.llc_bytes));

    std::map<std::string, std::vector<double>> per;  // metric -> per solve
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const SolveLayers& L = layers[i];
      const Counts& c = traced_counts[i];
      for (const std::string& m : layer_time_metrics()) {
        const auto it = L.seconds.find(m);
        per[m].push_back(it == L.seconds.end() ? 0.0 : it->second);
      }
      const double gemm_s = per["la.gemm_s"].back();
      const double apply_s = per["tddft.kernel_apply_s"].back();
      per["la.gemm.flops"].push_back(L.gemm_flops);
      per["la.gemm_pct_peak"].push_back(
          gemm_s > 0 ? 100.0 * 1e-9 * L.gemm_flops / gemm_s /
                           ceil.fma_peak_gflops
                     : 0.0);
      per["fft.fft3d.points"].push_back(static_cast<double>(c.fft_points));
      // Computed bytes: three axis passes, each reading and writing every
      // 16-byte complex point once.
      per["fft.pct_bw"].push_back(
          apply_s > 0 ? 100.0 * 1e-9 * 96.0 * double(c.fft_points) / apply_s /
                            ceil.triad_gbs
                      : 0.0);
      const double assigned = double(c.assign_full + c.assign_skipped);
      per["kmeans.prune_ratio"].push_back(
          assigned > 0 ? double(c.assign_skipped) / assigned : 0.0);
      per["par.comm_bytes"].push_back(static_cast<double>(c.comm_bytes));
      per["par.comm_calls"].push_back(static_cast<double>(c.comm_calls));
      per["par.imbalance_s"].push_back(L.imbalance_s);
      per["trace.coverage_pct"].push_back(100.0 * L.covered_s /
                                          traced_walls[i]);
    }
    // Iteration counts (per solve, not summed over ranks) and page faults
    // of the driver solves.
    std::vector<double> kit, lit, faults;
    for (const SolveOutcome& d : driver_runs) {
      kit.push_back(static_cast<double>(d.kmeans_iterations));
      lit.push_back(static_cast<double>(d.lobpcg_iterations));
      faults.push_back(static_cast<double>(d.counts.minor_faults));
    }
    JsonLine layer;
    for (const auto& [name, values] : per) layer.num(name, median(values));
    layer.num("kmeans.iterations", median(kit));
    layer.num("lobpcg.iterations", median(lit));
    layer.num("mem.minor_faults", median(faults));
    layer.num("kmeans.iterations_distinct",
              static_cast<double>(kmeans_iters.size()));
    layer.num("lobpcg.iterations_distinct",
              static_cast<double>(lobpcg_iters.size()));
    layer.num("trace.overhead_pct", 100.0 * median(overhead));
    layer.num("trace.repro_err_rel", repro_err);
    layer.num("trace.valid", trace_valid ? 1 : 0);
    layer.num("trace.solves", static_cast<double>(traced_walls.size()));
    layer.num("accuracy.energy_err_rel", median(errs));
    j.raw("layers", layer.str());
    j.raw("traced_solve_s_samples", num_list(traced_walls));
    if (!args.trace_out.empty() &&
        !write_chrome_trace(args.trace_out, traces, spec.name)) {
      throw std::runtime_error("cannot write " + args.trace_out);
    }
  }
  std::printf("%s\n", j.str().c_str());
  return 0;
}

int main_impl(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    throw std::runtime_error("unknown workload '" + args.workload + "'");
  }
  lrt::obs::set_tracing_enabled(false);
  const HostInfo host = host_info();
  if (args.mode == "reference") return mode_reference(args, *spec, host.nproc);
  if (args.mode == "setup") return mode_setup(args, *spec, host.nproc);
  if (args.mode == "run") return mode_run(args, *spec, host);
  throw std::runtime_error("unknown mode '" + args.mode + "'");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
