// The project-specific analysis passes.
//
// Each pass walks lexed token streams (analyze/lexer.hpp) and appends
// findings; pass names are the vocabulary used by suppression comments,
// the baseline file, and --pass selection:
//
//   layer-dag              module include order + cycle detection
//   collective-divergence  Comm collectives under rank-dependent control
//   omp-race               writes to shared variables inside omp regions
//                          (scope-aware; see analyze/scope.hpp)
//   fp-reduction           OpenMP +/*/- reductions on floating-point
//                          variables in parallel/worksharing directives
//   hot-path-purity        no allocation/locks/IO in -O3 TUs and
//                          omp-containing functions
//   phase-registry         Span/ScopedPhase/PhaseTimer names and
//                          --require-phase args must be registered
//   phase-registry-sync    committed registry header matches generator
//   counter-registry       obs::counter("...") literals must be listed
//                          in src/obs/counters.def
//   counter-registry-sync  committed counter header matches generator
//   naked-new-delete       RAII codebase: no naked new/delete in src/
//   banned-volatile        volatile is not a synchronization primitive
//   banned-thread          std::thread outside par/runtime + par/check
//   banned-sleep           no sleep_for/sleep_until waiting in src/
//   parent-include         no `#include "../..."` anywhere
//   pragma-once            every src/ header starts with #pragma once
//
// See docs/STATIC_ANALYSIS.md for the rationale behind each.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "analyze/lexer.hpp"

namespace lrt::analyze {

class CallGraph;

/// Shared input for one analysis run.
struct PassContext {
  const Config* config = nullptr;
  const std::vector<LexedFile>* files = nullptr;
  std::vector<Finding>* findings = nullptr;
  /// Project call graph + function summaries (analyze/callgraph.hpp);
  /// null in reduced test setups — passes then skip the interprocedural
  /// checks and degrade to their PR-5 lexical behavior.
  const CallGraph* graph = nullptr;

  bool enabled(const std::string& pass) const {
    return config->passes.empty() || config->passes.count(pass) != 0;
  }
};

/// Shared token vocabulary. The scoped passes and the call-graph summary
/// builder must agree on what counts as a write, an allocation, I/O, a
/// lock, or a collective, so the sets live here rather than per-pass.
const std::set<std::string>& assign_ops();        ///< =, +=, ..., >>=
const std::set<std::string>& mutating_methods();  ///< push_back, resize, ...
const std::set<std::string>& heap_fns();          ///< malloc, free, ...
const std::set<std::string>& lock_types();        ///< mutex, lock_guard, ...
const std::set<std::string>& io_fns();            ///< printf, fopen, ...
const std::set<std::string>& io_streams();        ///< cout, ofstream, ...
const std::set<std::string>& collective_names();  ///< barrier, allreduce, ...

/// Identifiers that mark a condition as rank-dependent (rank, my_rank,
/// is_root, ...), shared by collective-divergence and its tests.
bool is_rank_marker(const Token& tok);

/// The bottom-up module layering of src/ enforced by layer-dag. A module
/// may include itself and anything at the same or a lower index.
const std::vector<std::string>& layer_order();

void run_layer_dag(const PassContext& ctx);
void run_collective_divergence(const PassContext& ctx);
void run_phase_registry(const PassContext& ctx);
void run_pattern_gates(const PassContext& ctx);

/// Scope-aware passes (analyze/scoped_passes.cpp, built on
/// analyze/scope.hpp). omp-race flags writes to shared variables inside
/// `#pragma omp parallel/for/simd` regions; hot-path-purity flags heap
/// allocation, locking, and I/O in -O3-promoted TUs (Config::hot_files)
/// and in functions containing an omp region; counter-registry requires
/// every obs::counter("...") literal to name a Config::counter_registry
/// entry.
void run_omp_race(const PassContext& ctx);
/// fp-reduction flags `reduction(+|*|-: v)` on a floating-point `v` in a
/// parallel or worksharing directive (pure `omp simd` is exempt: its
/// combine order is fixed per binary).
void run_fp_reduction(const PassContext& ctx);
void run_hot_path_purity(const PassContext& ctx);
void run_counter_registry(const PassContext& ctx);

/// Compares the committed src/obs/counter_registry.hpp against what the
/// generator produces from src/obs/counters.def.
void run_counter_registry_sync(const PassContext& ctx);

/// Scans one shell script for `--require-phase NAME` arguments (the
/// validate_trace CI gate) and `--gate METRIC:PCT` arguments (the
/// lrt-report regression gate) and flags names that reference no
/// registered phase, registered counter, or known bench metric.
/// Separate entry point because shell scripts don't go through the C++
/// lexer.
void run_phase_registry_shell(const PassContext& ctx, const std::string& path,
                              const std::string& text);

/// Compares the committed src/obs/phase_registry.hpp against what the
/// generator produces from src/obs/phases.def.
void run_phase_registry_sync(const PassContext& ctx);

}  // namespace lrt::analyze
