// Host fingerprint and same-run hardware ceilings.
#pragma once

#include <string>

namespace perfbench {

struct HostInfo {
  int nproc = 0;
  std::string cpu_model;
  std::string isa;  ///< the ISA target_clones resolves to on this CPU
  std::string compiler;
  std::string build_type;
  long long llc_bytes = 0;  ///< last-level cache size as the OS reports it
};

HostInfo host_info();

/// CPU seconds the hypervisor has given to other guests while this
/// machine's CPUs wanted to run (the `steal` column of /proc/stat, summed
/// over CPUs) since boot; 0 where the kernel does not report it. Read at
/// 1/_SC_CLK_TCK resolution.
double steal_seconds();

struct Ceilings {
  int threads = 0;
  /// Dependent-free FMA chains on every thread at once, 2 flops per FMA.
  double fma_peak_gflops = 0;
  /// STREAM triad a = b + s c over arrays totalling `triad_bytes`;
  /// 24 bytes per element are counted (no write-allocate traffic).
  double triad_gbs = 0;
  long long triad_bytes = 0;
};

/// Measures both ceilings with `threads` OpenMP threads. The triad arrays
/// total at least 4x the last-level cache, capped at `max_triad_bytes`.
Ceilings measure_ceilings(int threads, long long llc_bytes,
                          long long max_triad_bytes);

}  // namespace perfbench
