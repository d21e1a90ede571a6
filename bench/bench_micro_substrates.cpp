// Hot-kernel micro substrates: packed GEMM, batched 3-D FFT, pruned
// K-Means, dense symmetric eigensolver (serial and across ranks) —
// seconds, GFLOP/s, and bytes/point per kernel, emitted as
// BENCH_micro.json (schema lrt.bench/1).
//
// Flags:
//   --compare   also time the pre-PR baselines (gemm_reference, the old
//               per-line Fft3D algorithm, exact K-Means assignment) and
//               report speedup_vs_ref on each new-path record — this is
//               the committed evidence for the PR-4 acceptance numbers;
//   --smoke     tiny sizes for the CI bench-smoke stage (seconds total);
//   --reps N    best-of-N timing (default 3, smoke 2); the eigensolver
//               records report the median of N instead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/random.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "fft/fft1d.hpp"
#include "fft/fft3d.hpp"
#include "kmeans/kmeans.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"
#include "obs/bench_report.hpp"
#include "obs/counters.hpp"
#include "par/disteig.hpp"
#include "par/runtime.hpp"

using namespace lrt;

namespace {

struct Options {
  bool compare = false;
  bool smoke = false;
  int reps = 0;  // 0 = pick by mode
};

void set_threads([[maybe_unused]] int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#endif
}

template <typename F>
double best_of(int reps, F&& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    body();
    best = std::min(best, timer.seconds());
  }
  return best;
}

template <typename F>
double median_of(int reps, F&& body) {
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    body();
    seconds.push_back(timer.seconds());
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

// ----- GEMM ----------------------------------------------------------------

void bench_gemm(const Options& opt, Table& table, obs::BenchReport& report) {
  struct Case {
    Index m, n, k;
    la::Trans ta, tb;
    const char* label;
  };
  std::vector<Case> cases;
  if (opt.smoke) {
    cases = {{48, 48, 48, la::Trans::kNo, la::Trans::kNo, "gemm.nn.48"},
             {64, 64, 64, la::Trans::kNo, la::Trans::kNo, "gemm.nn.64"}};
  } else {
    cases = {{128, 128, 128, la::Trans::kNo, la::Trans::kNo, "gemm.nn.128"},
             {256, 256, 256, la::Trans::kNo, la::Trans::kNo, "gemm.nn.256"},
             {512, 512, 512, la::Trans::kNo, la::Trans::kNo, "gemm.nn.512"},
             {256, 256, 256, la::Trans::kYes, la::Trans::kNo, "gemm.tn.256"},
             {256, 256, 256, la::Trans::kNo, la::Trans::kYes, "gemm.nt.256"}};
  }
  const int reps = opt.reps > 0 ? opt.reps : (opt.smoke ? 2 : 3);
  set_threads(1);  // the acceptance claim is single-thread throughput

  for (const Case& c : cases) {
    Rng rng(static_cast<unsigned>(c.m + 2 * c.k));
    const la::RealMatrix a =
        (c.ta == la::Trans::kNo)
            ? la::RealMatrix::random_uniform(c.m, c.k, rng)
            : la::RealMatrix::random_uniform(c.k, c.m, rng);
    const la::RealMatrix b =
        (c.tb == la::Trans::kNo)
            ? la::RealMatrix::random_uniform(c.k, c.n, rng)
            : la::RealMatrix::random_uniform(c.n, c.k, rng);
    la::RealMatrix out(c.m, c.n);

    const double flops = la::gemm_flops(c.m, c.n, c.k);
    // Compulsory traffic per output element: read A and B once, read and
    // write C, amortized over the m*n outputs.
    const double bytes_per_point =
        8.0 *
        (static_cast<double>(c.m) * static_cast<double>(c.k) +
         static_cast<double>(c.k) * static_cast<double>(c.n) +
         2.0 * static_cast<double>(c.m) * static_cast<double>(c.n)) /
        (static_cast<double>(c.m) * static_cast<double>(c.n));

    const double sec_new = best_of(reps, [&] {
      la::gemm(c.ta, c.tb, 1.0, a.view(), b.view(), 0.0, out.view());
    });
    double sec_ref = 0;
    if (opt.compare) {
      sec_ref = best_of(reps, [&] {
        la::gemm_reference(c.ta, c.tb, 1.0, a.view(), b.view(), 0.0,
                           out.view());
      });
    }

    const double gflops_new = flops / sec_new / 1e9;
    table.row()
        .cell(c.label)
        .cell(Index{1})
        .cell(sec_new, 5)
        .cell(gflops_new, 2)
        .cell(bytes_per_point, 1)
        .cell(opt.compare ? format_real(sec_ref / sec_new, 2) + "x" : "-");

    obs::BenchReport::Record& rec = report.record(c.label);
    rec.param("kernel", "gemm")
        .param("path", "new")
        .param("m", static_cast<long long>(c.m))
        .param("n", static_cast<long long>(c.n))
        .param("k", static_cast<long long>(c.k))
        .param("threads", 1LL)
        .metric("seconds_best", sec_new)
        .metric("gflops", gflops_new)
        .metric("bytes_per_point", bytes_per_point);
    if (opt.compare) {
      rec.metric("speedup_vs_ref", sec_ref / sec_new);
      report.record(std::string(c.label) + ".ref")
          .param("kernel", "gemm")
          .param("path", "ref")
          .param("m", static_cast<long long>(c.m))
          .param("n", static_cast<long long>(c.n))
          .param("k", static_cast<long long>(c.k))
          .param("threads", 1LL)
          .metric("seconds_best", sec_ref)
          .metric("gflops", flops / sec_ref / 1e9)
          .metric("bytes_per_point", bytes_per_point);
    }
  }
}

// ----- 3-D FFT -------------------------------------------------------------

/// The pre-PR Fft3D algorithm (scalar per-line transforms, per-element
/// strided gather), kept as the --compare baseline.
void reference_fft3d(const fft::Fft1D& plan, Index n, fft::Complex* x,
                     bool inverse) {
  for (Index i0 = 0; i0 < n; ++i0) {
    for (Index i1 = 0; i1 < n; ++i1) {
      fft::Complex* line = x + (i0 * n + i1) * n;
      if (inverse) {
        plan.inverse(line);
      } else {
        plan.forward(line);
      }
    }
  }
  std::vector<fft::Complex> buffer(static_cast<std::size_t>(n));
  for (Index i0 = 0; i0 < n; ++i0) {
    fft::Complex* slab = x + i0 * n * n;
    for (Index i2 = 0; i2 < n; ++i2) {
      for (Index i1 = 0; i1 < n; ++i1) {
        buffer[static_cast<std::size_t>(i1)] = slab[i1 * n + i2];
      }
      if (inverse) {
        plan.inverse(buffer.data());
      } else {
        plan.forward(buffer.data());
      }
      for (Index i1 = 0; i1 < n; ++i1) {
        slab[i1 * n + i2] = buffer[static_cast<std::size_t>(i1)];
      }
    }
  }
  const Index stride0 = n * n;
  for (Index rem = 0; rem < stride0; ++rem) {
    for (Index i0 = 0; i0 < n; ++i0) {
      buffer[static_cast<std::size_t>(i0)] = x[i0 * stride0 + rem];
    }
    if (inverse) {
      plan.inverse(buffer.data());
    } else {
      plan.forward(buffer.data());
    }
    for (Index i0 = 0; i0 < n; ++i0) {
      x[i0 * stride0 + rem] = buffer[static_cast<std::size_t>(i0)];
    }
  }
}

void bench_fft(const Options& opt, Table& table, obs::BenchReport& report) {
  struct Case {
    Index n;
    int threads;
  };
  std::vector<Case> cases;
  if (opt.smoke) {
    cases = {{16, 1}, {12, 1}};
  } else {
    // 64^3 x 8 threads is the PR-4 acceptance configuration; 21 covers
    // the Bluestein (non-power-of-two) path the paper's grids hit.
    cases = {{32, 1}, {64, 1}, {64, 8}, {21, 1}};
  }
  const int reps = opt.reps > 0 ? opt.reps : (opt.smoke ? 2 : 3);

  for (const Case& c : cases) {
    set_threads(c.threads);
    const Index total = c.n * c.n * c.n;
    Rng rng(static_cast<unsigned>(c.n));
    std::vector<fft::Complex> grid(static_cast<std::size_t>(total));
    for (auto& v : grid) {
      v = fft::Complex(rng.uniform() * 2 - 1, rng.uniform() * 2 - 1);
    }
    const fft::Fft3D fft3(c.n, c.n, c.n);
    std::vector<fft::Complex> work = grid;

    // One forward + one inverse per rep (round-trip, like the Hartree
    // kernel); radix-2 flop model 5 N log2 N per transform.
    const double flops = 2.0 * 5.0 * static_cast<double>(total) *
                         std::log2(static_cast<double>(total));
    // Ideal traffic: 3 axis passes x read+write x 16 bytes, twice.
    const double bytes_per_point = 2.0 * 3.0 * 2.0 * 16.0;

    const double sec_new = best_of(reps, [&] {
      work = grid;
      fft3.forward(work.data());
      fft3.inverse(work.data());
    });
    double sec_ref = 0;
    if (opt.compare) {
      const fft::Fft1D plan(c.n);
      sec_ref = best_of(reps, [&] {
        work = grid;
        reference_fft3d(plan, c.n, work.data(), false);
        reference_fft3d(plan, c.n, work.data(), true);
      });
    }

    const std::string label = "fft.fft3d." + std::to_string(c.n) + ".t" +
                              std::to_string(c.threads);
    table.row()
        .cell(label)
        .cell(static_cast<Index>(c.threads))
        .cell(sec_new, 5)
        .cell(flops / sec_new / 1e9, 2)
        .cell(bytes_per_point, 1)
        .cell(opt.compare ? format_real(sec_ref / sec_new, 2) + "x" : "-");

    obs::BenchReport::Record& rec = report.record(label);
    rec.param("kernel", "fft3d")
        .param("path", "new")
        .param("n", static_cast<long long>(c.n))
        .param("threads", static_cast<long long>(c.threads))
        .metric("seconds_best", sec_new)
        .metric("gflops", flops / sec_new / 1e9)
        .metric("bytes_per_point", bytes_per_point);
    if (opt.compare) {
      rec.metric("speedup_vs_ref", sec_ref / sec_new);
      report.record(label + ".ref")
          .param("kernel", "fft3d")
          .param("path", "ref")
          .param("n", static_cast<long long>(c.n))
          .param("threads", static_cast<long long>(c.threads))
          .metric("seconds_best", sec_ref)
          .metric("gflops", flops / sec_ref / 1e9)
          .metric("bytes_per_point", bytes_per_point);
    }
  }
  set_threads(1);
}

// ----- K-Means -------------------------------------------------------------

int bench_kmeans(const Options& opt, Table& table, obs::BenchReport& report) {
  const Index n = opt.smoke ? 1500 : 20000;
  const Index k = opt.smoke ? 8 : 48;
  const int reps = opt.reps > 0 ? opt.reps : (opt.smoke ? 2 : 3);

  // Clustered weights: the regime the paper's pair-product weights are
  // in, and the one pruning exploits.
  Rng rng(9);
  std::vector<grid::Vec3> points;
  std::vector<Real> weights;
  points.reserve(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    const Real cx = static_cast<Real>(2 + 3 * (i % 3));
    const Real cy = static_cast<Real>(2 + 3 * ((i / 3) % 3));
    const Real cz = static_cast<Real>(2 + 3 * ((i / 9) % 3));
    points.push_back({cx + rng.uniform() - 0.5, cy + rng.uniform() - 0.5,
                      cz + rng.uniform() - 0.5});
    weights.push_back(rng.uniform() + 1e-3);
  }

  kmeans::KMeansOptions opts;
  opts.seeding = kmeans::Seeding::kTopWeight;
  set_threads(1);

  opts.pruned_assignment = false;
  kmeans::KMeansResult exact;
  const double sec_ref = best_of(
      reps, [&] { exact = kmeans::weighted_kmeans(points, weights, k, opts); });

  opts.pruned_assignment = true;
  const long long full_before = obs::counter("kmeans.assign.full").value();
  const long long skip_before = obs::counter("kmeans.assign.skipped").value();
  kmeans::KMeansResult pruned;
  const double sec_new = best_of(
      reps, [&] { pruned = kmeans::weighted_kmeans(points, weights, k, opts); });
  const double full_scans = static_cast<double>(
      obs::counter("kmeans.assign.full").value() - full_before);
  const double skips = static_cast<double>(
      obs::counter("kmeans.assign.skipped").value() - skip_before);
  const double skip_fraction =
      (full_scans + skips) > 0 ? skips / (full_scans + skips) : 0.0;

  if (exact.assignment != pruned.assignment ||
      exact.interpolation_points != pruned.interpolation_points) {
    std::fprintf(stderr,
                 "FATAL: pruned K-Means diverged from the exact path\n");
    return 1;
  }

  // Distance flops: 8 per point-center pair (3 sub, 3 mul, 2 add); the
  // pruned path replaces a k-scan with one distance for skipped points.
  const double pairs_exact = static_cast<double>(exact.iterations) *
                             static_cast<double>(n) * static_cast<double>(k);
  // Effective centroid traffic per point per iteration.
  const double bytes_ref = 24.0 * static_cast<double>(k);
  const double bytes_new = bytes_ref * (1.0 - skip_fraction) + 24.0;

  const std::string label =
      "kmeans.assign." + std::to_string(n) + "x" + std::to_string(k);
  table.row()
      .cell(label)
      .cell(Index{1})
      .cell(sec_new, 5)
      .cell(8.0 * pairs_exact * (1 - skip_fraction) / sec_new / 1e9, 2)
      .cell(bytes_new, 1)
      .cell(format_real(sec_ref / sec_new, 2) + "x");

  obs::BenchReport::Record& rec = report.record(label);
  rec.param("kernel", "kmeans")
      .param("path", "new")
      .param("points", static_cast<long long>(n))
      .param("clusters", static_cast<long long>(k))
      .param("threads", 1LL)
      .metric("seconds_best", sec_new)
      .metric("skip_fraction", skip_fraction)
      .metric("bytes_per_point", bytes_new)
      .metric("iterations", static_cast<double>(pruned.iterations))
      .metric("speedup_vs_ref", sec_ref / sec_new);
  report.record(label + ".ref")
      .param("kernel", "kmeans")
      .param("path", "ref")
      .param("points", static_cast<long long>(n))
      .param("clusters", static_cast<long long>(k))
      .param("threads", 1LL)
      .metric("seconds_best", sec_ref)
      .metric("skip_fraction", 0.0)
      .metric("bytes_per_point", bytes_ref)
      .metric("iterations", static_cast<double>(exact.iterations));
  return 0;
}

// ----- Dense symmetric eigensolver ----------------------------------------

// la::syev (tred2 + tql2 with eigenvectors) on a random symmetric matrix.
// 512 is the Ncv of the si27 naive-Casida benchmark workload.
void bench_syev(const Options& opt, Table& table, obs::BenchReport& report) {
  std::vector<Index> sizes = {128};
  if (!opt.smoke) sizes.push_back(512);
  const int reps = opt.reps > 0 ? opt.reps : (opt.smoke ? 2 : 3);
  set_threads(1);

  for (const Index n : sizes) {
    Rng rng(static_cast<unsigned>(n));
    la::RealMatrix a = la::RealMatrix::random_normal(n, n, rng);
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j < i; ++j) a(j, i) = a(i, j);
    }
    la::EigResult result;
    const double sec = median_of(reps, [&] { result = la::syev(a.view()); });

    const std::string label = "la.syev." + std::to_string(n);
    table.row()
        .cell(label)
        .cell(Index{1})
        .cell(sec, 5)
        .cell("-")
        .cell("-")
        .cell("-");
    report.record(label)
        .param("kernel", "syev")
        .param("path", "new")
        .param("n", static_cast<long long>(n))
        .param("threads", 1LL)
        .metric("seconds_median", sec);
  }
}

// par::dist_syev (its default path) on the same input at 1, 2 and 4
// ranks: the tred2 accumulation and the tql2 rotations split across ranks,
// bitwise equal to la::syev. Each rep spawns the rank threads.
void bench_dist_syev(const Options& opt, Table& table,
                     obs::BenchReport& report) {
  std::vector<Index> sizes = {128};
  if (!opt.smoke) sizes.push_back(512);
  const int reps = opt.reps > 0 ? opt.reps : (opt.smoke ? 2 : 3);
  set_threads(1);

  for (const Index n : sizes) {
    Rng rng(static_cast<unsigned>(n));
    la::RealMatrix a = la::RealMatrix::random_normal(n, n, rng);
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j < i; ++j) a(j, i) = a(i, j);
    }
    for (const int p : {1, 2, 4}) {
      const double sec = median_of(reps, [&] {
        par::run(p, [&](par::Comm& comm) {
          par::DistMatrix dist(par::Layout::block_row(n, n, p), comm.rank());
          dist.fill_global([&a](Index i, Index j) { return a(i, j); });
          par::dist_syev(comm, dist);
        });
      });

      const std::string label =
          "par.dist_syev." + std::to_string(n) + ".p" + std::to_string(p);
      table.row()
          .cell(label)
          .cell(Index{1})
          .cell(sec, 5)
          .cell("-")
          .cell("-")
          .cell("-");
      report.record(label)
          .param("kernel", "dist_syev")
          .param("path", "new")
          .param("n", static_cast<long long>(n))
          .param("ranks", static_cast<long long>(p))
          .param("threads", 1LL)
          .metric("seconds_median", sec);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--compare") == 0) {
      opt.compare = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      opt.reps = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--compare] [--smoke] [--reps N]\n",
                   argv[0]);
      return 2;
    }
  }

  obs::BenchReport report("micro");
  report.meta("mode", opt.smoke ? "smoke" : "full");
  report.meta("compare", opt.compare ? "true" : "false");

  Table table("micro substrates (best-of-reps; eigensolvers median-of-reps)",
              {"kernel", "threads", "seconds", "GFLOP/s", "bytes/pt",
               "speedup"});
  bench_gemm(opt, table, report);
  bench_fft(opt, table, report);
  // K-Means always compares (the exact path is its reference by
  // definition) and doubles as an exactness assertion.
  if (bench_kmeans(opt, table, report) != 0) return 1;
  bench_syev(opt, table, report);
  bench_dist_syev(opt, table, report);

  table.print();
  if (report.write()) {
    std::printf("\nwrote %s\n", report.default_path().c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n",
                 report.default_path().c_str());
    return 1;
  }
  return 0;
}
