// Compiled with -ffp-contract=fast so a * b + c becomes one FMA, the
// instruction the peak is quoted in.
#include "perfbench/host.hpp"

#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "perfbench/trace.hpp"

namespace perfbench {
namespace {

typedef double v8d __attribute__((vector_size(64)));

constexpr long long kFmaIterations = 50'000'000;
constexpr int kChains = 8;

/// kChains independent FMA chains of 8-wide vectors, held in named locals
/// so they stay in registers; returns a value that depends on every chain
/// so nothing is optimised away.
#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
__attribute__((target_clones("avx512f", "avx2,fma", "default")))
#endif
#endif
__attribute__((noinline)) double fma_chains(long long iterations, double seed) {
  const v8d mul = {0.999999, 0.999999, 0.999999, 0.999999,
                   0.999999, 0.999999, 0.999999, 0.999999};
  const v8d add = {1e-7, 1e-7, 1e-7, 1e-7, 1e-7, 1e-7, 1e-7, 1e-7};
  v8d a0 = add * seed, a1 = a0 + 1, a2 = a0 + 2, a3 = a0 + 3;
  v8d a4 = a0 + 4, a5 = a0 + 5, a6 = a0 + 6, a7 = a0 + 7;
  for (long long i = 0; i < iterations; ++i) {
    a0 = a0 * mul + add;
    a1 = a1 * mul + add;
    a2 = a2 * mul + add;
    a3 = a3 * mul + add;
    a4 = a4 * mul + add;
    a5 = a5 * mul + add;
    a6 = a6 * mul + add;
    a7 = a7 * mul + add;
  }
  const v8d sum = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7;
  double total = 0;
  for (int l = 0; l < 8; ++l) total += sum[l];
  return total;
}

std::string read_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

long long read_llc_bytes() {
  for (int index = 4; index >= 0; --index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(index) + "/size");
    std::string text;
    if (!(in >> text) || text.empty()) continue;
    long long value = std::atoll(text.c_str());
    const char unit = text.back();
    if (unit == 'K') value *= 1024;
    if (unit == 'M') value *= 1024 * 1024;
    if (value > 0) return value;
  }
  const long sys = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return sys > 0 ? sys : 32LL * 1024 * 1024;
}

}  // namespace

HostInfo host_info() {
  HostInfo info;
  info.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  info.cpu_model = read_cpu_model();
  __builtin_cpu_init();
  info.isa = __builtin_cpu_supports("avx512f") ? "avx512f"
             : (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
                 ? "avx2,fma"
                 : "default";
  info.compiler = PERFBENCH_COMPILER;
  info.build_type = PERFBENCH_BUILD_TYPE;
  info.llc_bytes = read_llc_bytes();
  return info;
}

double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
            softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  if (!in || cpu != "cpu") return 0;
  return static_cast<double>(steal) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

Ceilings measure_ceilings(int threads, long long llc_bytes,
                          long long max_triad_bytes) {
  Ceilings out;
  out.threads = threads;

  // FMA peak: every thread runs the same chains; the slowest thread
  // sets the aggregate rate.
  double best_fma = 0;
  for (int rep = 0; rep < 3; ++rep) {
    double sink = 0;
    const long long t0 = now_ns();
#pragma omp parallel num_threads(threads) reduction(+ : sink)
    sink += fma_chains(kFmaIterations, 1.0 + omp_get_thread_num());
    const double s = 1e-9 * static_cast<double>(now_ns() - t0);
    const double flops = 2.0 * 8 * kChains * double(kFmaIterations) * threads;
    if (sink != 0) best_fma = std::max(best_fma, 1e-9 * flops / s);
  }
  out.fma_peak_gflops = best_fma;

  // Triad over arrays well beyond the last-level cache.
  const long long want = std::min(4 * llc_bytes, max_triad_bytes);
  const std::size_t n = static_cast<std::size_t>(want / 24 + 1);
  out.triad_bytes = static_cast<long long>(24 * n);
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  const long long nn = static_cast<long long>(n);
#pragma omp parallel for num_threads(threads) schedule(static)
  for (long long i = 0; i < nn; ++i) {
    a[i] = 0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  double best_triad = 0;
  for (int rep = 0; rep < 4; ++rep) {
    const double s3 = 0.5 + rep;
    const long long t0 = now_ns();
#pragma omp parallel for num_threads(threads) schedule(static)
    for (long long i = 0; i < nn; ++i) a[i] = b[i] + s3 * c[i];
    const double s = 1e-9 * static_cast<double>(now_ns() - t0);
    best_triad = std::max(best_triad, 1e-9 * 24.0 * double(n) / s);
  }
  if (a[n / 2] != 1.0 + 3.5 * 2.0) best_triad = 0;  // result check
  out.triad_gbs = best_triad;
  return out;
}

}  // namespace perfbench
