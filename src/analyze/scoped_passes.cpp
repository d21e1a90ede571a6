// The scope-aware passes: omp-race, fp-reduction, hot-path-purity,
// counter-registry.
//
// These build on analyze/scope.hpp (block extents, declaration sites,
// parsed omp directives) instead of the flat token scans in passes.cpp.
// All of them err toward exemption — docs/STATIC_ANALYSIS.md lists the
// false-negative shapes — because a static race/purity gate that cries
// wolf gets baselined into uselessness.
#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/callgraph.hpp"
#include "analyze/passes.hpp"
#include "analyze/registry_gen.hpp"
#include "analyze/scope.hpp"

namespace lrt::analyze {

// Shared write/purity vocabulary (declared in passes.hpp): the call-graph
// summary builder (callgraph.cpp) detects the same token shapes inside
// callees that the scoped passes detect inside regions, so the sets live
// in one place.

const std::set<std::string>& assign_ops() {
  static const std::set<std::string> kOps = {
      "=",  "+=", "-=", "*=",  "/=", "%=",
      "&=", "|=", "^=", "<<=", ">>="};
  return kOps;
}

const std::set<std::string>& mutating_methods() {
  static const std::set<std::string> kNames = {
      "push_back", "emplace_back", "resize", "reserve", "insert",
      "erase",     "clear",        "assign", "pop_back", "emplace"};
  return kNames;
}

const std::set<std::string>& heap_fns() {
  static const std::set<std::string> kNames = {
      "malloc", "calloc", "realloc", "free", "aligned_alloc",
      "posix_memalign"};
  return kNames;
}

const std::set<std::string>& lock_types() {
  static const std::set<std::string> kNames = {
      "mutex",       "recursive_mutex", "shared_mutex",
      "lock_guard",  "unique_lock",     "scoped_lock",
      "shared_lock", "condition_variable", "condition_variable_any"};
  return kNames;
}

const std::set<std::string>& io_fns() {
  static const std::set<std::string> kNames = {
      "printf", "fprintf", "puts",   "fputs",  "fputc",  "putchar",
      "fwrite", "fread",   "fopen",  "fclose", "fflush", "fscanf",
      "scanf",  "fgets",   "getchar"};
  return kNames;
}

const std::set<std::string>& io_streams() {
  static const std::set<std::string> kNames = {
      "cout", "cerr", "clog", "ofstream", "ifstream", "fstream"};
  return kNames;
}

namespace {

using Tokens = std::vector<Token>;

bool is_punct(const Token& tok, const char* text) {
  return tok.kind == TokKind::kPunct && tok.text == text;
}

bool is_ident(const Token& tok, const char* text) {
  return tok.kind == TokKind::kIdentifier && tok.text == text;
}

bool in_dir(const std::string& path, const std::string& dir) {
  return path.compare(0, dir.size() + 1, dir + "/") == 0;
}

void add_finding(const PassContext& ctx, std::string pass, std::string file,
                 int line, std::string message) {
  Finding f;
  f.pass = std::move(pass);
  f.file = std::move(file);
  f.line = line;
  f.message = std::move(message);
  ctx.findings->push_back(std::move(f));
}

// ----- omp-race ---------------------------------------------------------------

bool checkable_region(const OmpDirective& d) {
  return (d.has_kind("parallel") || d.has_kind("for") || d.has_kind("simd")) &&
         !d.has_kind("declare") && d.region.end > d.region.begin;
}

bool guard_region(const OmpDirective& d) {
  return d.has_kind("atomic") || d.has_kind("critical") ||
         d.has_kind("single") || d.has_kind("master") ||
         d.has_kind("masked") || d.has_kind("ordered");
}

/// Exempts identifiers ASSIGNED (not declared) in a for-init directly
/// after an omp looping construct: the spec privatizes the iteration
/// variable of the associated loop even without a private clause.
void exempt_for_init_vars(const Tokens& t, const OmpDirective& d,
                          std::set<std::string>* exempt) {
  std::size_t i = d.region.begin;
  if (i >= t.size() || !is_ident(t[i], "for") || i + 1 >= t.size() ||
      !is_punct(t[i + 1], "(")) {
    return;
  }
  for (std::size_t j = i + 2; j < t.size() && !is_punct(t[j], ";"); ++j) {
    if (t[j].kind == TokKind::kIdentifier && j + 1 < t.size() &&
        is_punct(t[j + 1], "=")) {
      exempt->insert(t[j].text);
    }
  }
}

/// One region's shared-write scan state.
struct RegionScan {
  TokenRange region;
  std::set<std::string> exempt;      ///< privatized + declared-in-region
  std::vector<TokenRange> skips;     ///< atomic/critical/... sub-regions
  std::vector<TokenRange> extents;   ///< directive token extents
};

bool in_ranges(const std::vector<TokenRange>& ranges, std::size_t i,
               std::size_t* resume) {
  for (const TokenRange& r : ranges) {
    if (r.contains(i)) {
      *resume = r.end;
      return true;
    }
  }
  return false;
}

/// A subscript/call group in the lvalue chain mentions a privatized name
/// or the thread id: per-thread/per-iteration indexing, assumed disjoint.
bool index_exempt(const Tokens& t, const Lvalue& lv,
                  const std::set<std::string>& exempt) {
  for (const TokenRange& g : lv.groups) {
    for (std::size_t j = g.begin; j < g.end; ++j) {
      if (t[j].kind != TokKind::kIdentifier) continue;
      if (exempt.count(t[j].text) != 0 ||
          t[j].text == "omp_get_thread_num") {
        return true;
      }
    }
  }
  return false;
}

/// `NAME = ORIGIN.data()` assignments in [begin, end): NAME aliases the
/// storage of ORIGIN, so a write through NAME is a write to ORIGIN.
std::map<std::string, std::string> build_alias_map(const Tokens& t,
                                                   std::size_t begin,
                                                   std::size_t end) {
  std::map<std::string, std::string> alias;
  for (std::size_t w = begin + 2; w + 2 < end; ++w) {
    if (!is_ident(t[w], "data") ||
        !(is_punct(t[w - 1], ".") || is_punct(t[w - 1], "->")) ||
        !is_punct(t[w + 1], "(") || !is_punct(t[w + 2], ")")) {
      continue;
    }
    const Lvalue origin = walk_lvalue_back(t, w - 2, begin);
    if (!origin.ok || origin.chain_begin < begin + 2) continue;
    if (!is_punct(t[origin.chain_begin - 1], "=")) continue;
    const Token& named = t[origin.chain_begin - 2];
    if (named.kind != TokKind::kIdentifier) continue;
    if (named.text == origin.base) continue;
    alias[named.text] = origin.base;
  }
  return alias;
}

/// Final origin of `name` through the alias map; empty when `name` is not
/// an alias. Visited guard: `a = b.data(); b = a.data();` is legal C++.
std::string resolve_alias(const std::map<std::string, std::string>& alias,
                          const std::string& name) {
  std::set<std::string> visited;
  std::string cur = name;
  while (visited.insert(cur).second) {
    const auto it = alias.find(cur);
    if (it == alias.end()) break;
    cur = it->second;
  }
  return cur == name ? std::string{} : cur;
}

/// The argument as a plain forwarded lvalue (`name`, `&name`, `*name`);
/// empty otherwise. Mirrors the propagation rule in callgraph.cpp.
std::string plain_arg(const Tokens& t, const TokenRange& r) {
  if (r.end == r.begin + 1 && t[r.begin].kind == TokKind::kIdentifier) {
    return t[r.begin].text;
  }
  if (r.end == r.begin + 2 &&
      (is_punct(t[r.begin], "&") || is_punct(t[r.begin], "*")) &&
      t[r.begin + 1].kind == TokKind::kIdentifier) {
    return t[r.begin + 1].text;
  }
  return {};
}

std::string region_hint() {
  return " (make it private/reduction, declare it inside the region, "
         "index it per-thread, or guard with omp atomic/critical; "
         "suppress with `lrt-analyze: allow(omp-race)` if provably safe)";
}

void omp_race_scan(const PassContext& ctx, const LexedFile& file,
                   std::size_t file_index) {
  const Tokens& t = file.tokens;
  const std::vector<OmpDirective> dirs = parse_omp_directives(file);
  if (dirs.empty()) return;
  const std::vector<TokenRange> fns = function_bodies(t);

  std::size_t scanned_until = 0;
  for (std::size_t di = 0; di < dirs.size(); ++di) {
    const OmpDirective& d = dirs[di];
    if (!checkable_region(d) || d.begin < scanned_until) continue;

    RegionScan rs;
    rs.region = d.region;
    rs.exempt = d.privatized;
    rs.extents.push_back(TokenRange{d.begin, d.end});
    exempt_for_init_vars(t, d, &rs.exempt);
    // Alias assignments anywhere in the enclosing function up to the
    // region's end: `double* p = out.data();` saved before the pragma
    // still aliases `out` inside the region.
    std::size_t alias_begin = rs.region.begin;
    for (const TokenRange& fn : fns) {
      if (fn.contains(d.begin)) {
        alias_begin = fn.begin;
        break;
      }
    }
    const std::map<std::string, std::string> alias =
        build_alias_map(t, alias_begin, rs.region.end);
    for (std::size_t dj = di + 1;
         dj < dirs.size() && dirs[dj].begin < rs.region.end; ++dj) {
      const OmpDirective& n = dirs[dj];
      rs.extents.push_back(TokenRange{n.begin, n.end});
      rs.exempt.insert(n.privatized.begin(), n.privatized.end());
      exempt_for_init_vars(t, n, &rs.exempt);
      if (guard_region(n) && n.region.end > n.region.begin) {
        rs.skips.push_back(n.region);
      }
    }
    const std::set<std::string> decls =
        collect_declarations(t, rs.region.begin, rs.region.end);
    rs.exempt.insert(decls.begin(), decls.end());

    for (std::size_t w = rs.region.begin; w < rs.region.end; ++w) {
      std::size_t resume = 0;
      if (in_ranges(rs.extents, w, &resume) ||
          in_ranges(rs.skips, w, &resume)) {
        w = resume - 1;
        continue;
      }
      const Token& tok = t[w];
      Lvalue lv;
      std::string what;
      if (tok.kind == TokKind::kPunct && assign_ops().count(tok.text) != 0) {
        if (w == rs.region.begin) continue;
        if (is_ident(t[w - 1], "operator")) continue;
        lv = walk_lvalue_back(t, w - 1, rs.region.begin);
        what = "write ('" + tok.text + "') to";
      } else if (is_punct(tok, "++") || is_punct(tok, "--")) {
        if (w > rs.region.begin &&
            (t[w - 1].kind == TokKind::kIdentifier ||
             is_punct(t[w - 1], "]") || is_punct(t[w - 1], ")"))) {
          lv = walk_lvalue_back(t, w - 1, rs.region.begin);
        } else if (w + 1 < rs.region.end &&
                   t[w + 1].kind == TokKind::kIdentifier) {
          lv.ok = true;
          lv.base = t[w + 1].text;
          lv.chain_begin = w + 1;
          lv.chain_end = w + 2;
        }
        what = "increment ('" + tok.text + "') of";
      } else if (tok.kind == TokKind::kIdentifier &&
                 mutating_methods().count(tok.text) != 0 &&
                 w > rs.region.begin + 1 &&
                 (is_punct(t[w - 1], ".") || is_punct(t[w - 1], "->")) &&
                 w + 1 < rs.region.end && is_punct(t[w + 1], "(")) {
        lv = walk_lvalue_back(t, w - 2, rs.region.begin);
        what = "mutating call '." + tok.text + "' on";
      } else if (is_punct(tok, "&") && w > rs.region.begin &&
                 (is_punct(t[w - 1], "(") || is_punct(t[w - 1], ",")) &&
                 w + 1 < rs.region.end &&
                 t[w + 1].kind == TokKind::kIdentifier) {
        lv.ok = true;
        lv.base = t[w + 1].text;
        lv.chain_begin = w + 1;
        lv.chain_end = w + 2;
        what = "address of";
      } else if (ctx.graph != nullptr && tok.kind == TokKind::kIdentifier &&
                 w + 1 < rs.region.end && is_punct(t[w + 1], "(") &&
                 !(w > rs.region.begin && (is_punct(t[w - 1], ".") ||
                                           is_punct(t[w - 1], "->")))) {
        // A call that forwards a shared variable to a callee writing its
        // by-ref parameter races exactly like an in-region assignment.
        const std::size_t callee = ctx.graph->resolve_call(t, w, file_index);
        if (callee != kNoFunction) {
          const FunctionInfo& cf = ctx.graph->functions()[callee];
          if (!cf.writes.empty()) {
            const std::vector<TokenRange> args = CallGraph::call_args(t, w);
            for (const auto& [k, pw] : cf.writes) {
              (void)pw;
              if (k >= args.size()) continue;
              const std::string arg = plain_arg(t, args[k]);
              if (arg.empty()) continue;
              std::string shown = arg;
              std::string note;
              if (arg == "this" || rs.exempt.count(arg) != 0) {
                const std::string origin = resolve_alias(alias, arg);
                if (origin.empty() || origin == "this" ||
                    rs.exempt.count(origin) != 0) {
                  continue;
                }
                shown = origin;
                note = " forwarded as alias '" + arg + "'";
              }
              add_finding(
                  ctx, "omp-race", file.path, tok.line,
                  "call to '" + tok.text + "' writes shared '" + shown +
                      "'" + note + " through parameter '" +
                      cf.params[k].name + "' (" +
                      ctx.graph->write_chain(callee, k) +
                      ") inside an omp parallel region" + region_hint());
            }
          }
        }
        continue;
      } else {
        continue;
      }
      if (!lv.ok || index_exempt(t, lv, rs.exempt)) continue;
      if (lv.base != "this" && rs.exempt.count(lv.base) == 0) {
        add_finding(ctx, "omp-race", file.path, tok.line,
                    what + " shared '" + lv.base +
                        "' inside an omp parallel region" + region_hint());
        continue;
      }
      // The base is exempt, but a region-local pointer saved from
      // `.data()` is a window onto shared storage, not private state.
      // Only dereferencing writes count (`p[0] = x`, `*p += y`) —
      // reassigning or advancing the pointer itself touches nothing
      // shared, and the saving declaration must not flag itself.
      bool deref = !lv.groups.empty();
      if (!deref && lv.chain_begin > rs.region.begin &&
          is_punct(t[lv.chain_begin - 1], "*")) {
        // `*p = x` dereferences; `Real* p = x.data()` declares. A star
        // preceded by a type-ish token (identifier, '>', ')', ']') is
        // part of a declarator, not a dereference.
        const std::size_t before = lv.chain_begin - 1;
        deref = before == rs.region.begin ||
                !(t[before - 1].kind == TokKind::kIdentifier ||
                  is_punct(t[before - 1], ">") ||
                  is_punct(t[before - 1], ")") ||
                  is_punct(t[before - 1], "]"));
      }
      if (!deref) continue;
      const std::string origin = resolve_alias(alias, lv.base);
      if (!origin.empty() && origin != "this" &&
          rs.exempt.count(origin) == 0) {
        add_finding(ctx, "omp-race", file.path, tok.line,
                    what + " '" + lv.base + "', an alias of shared '" +
                        origin + "' (saved from .data()), inside an omp "
                        "parallel region" + region_hint());
      }
    }
    scanned_until = rs.region.end;
  }
}

// ----- hot-path-purity --------------------------------------------------------

const std::set<std::string>& growth_methods() {
  static const std::set<std::string> kNames = {"push_back", "emplace_back",
                                               "resize"};
  return kNames;
}

std::string purity_hint() {
  return " (docs/PERFORMANCE.md hot-path rules; hoist it out of the hot "
         "path or suppress with `lrt-analyze: allow(hot-path-purity)`)";
}

void purity_scan(const PassContext& ctx, const LexedFile& file,
                 std::size_t file_index) {
  if (!in_dir(file.path, "src")) return;
  const Tokens& t = file.tokens;
  const bool hot_tu = ctx.config->hot_files.count(file.path) != 0;
  const std::vector<OmpDirective> dirs = parse_omp_directives(file);
  if (!hot_tu && dirs.empty()) return;

  // Regions with their declaration sets, for the per-thread-scratch
  // exemption (a vector declared inside the parallel region may grow).
  std::vector<std::pair<TokenRange, std::set<std::string>>> regions;
  for (const OmpDirective& d : dirs) {
    if (d.region.end > d.region.begin) {
      regions.emplace_back(
          d.region, collect_declarations(t, d.region.begin, d.region.end));
    }
  }

  std::vector<TokenRange> checked;
  for (const TokenRange& fn : function_bodies(t)) {
    if (hot_tu) {
      checked.push_back(fn);
      continue;
    }
    for (const OmpDirective& d : dirs) {
      if (fn.contains(d.begin)) {
        checked.push_back(fn);
        break;
      }
    }
  }

  for (const TokenRange& fn : checked) {
    // First `.reserve(` site per object chain in this function.
    std::map<std::string, std::size_t> reserved_at;
    for (std::size_t w = fn.begin + 2; w + 1 < fn.end; ++w) {
      if (!is_ident(t[w], "reserve") ||
          !(is_punct(t[w - 1], ".") || is_punct(t[w - 1], "->")) ||
          !is_punct(t[w + 1], "(")) {
        continue;
      }
      const Lvalue lv = walk_lvalue_back(t, w - 2, fn.begin);
      if (!lv.ok) continue;
      const std::string key = chain_key(t, lv);
      if (reserved_at.count(key) == 0) reserved_at[key] = w;
    }
    const std::vector<TokenRange> loops = loop_ranges(t, fn.begin, fn.end);

    for (std::size_t w = fn.begin; w < fn.end; ++w) {
      const Token& tok = t[w];
      if (tok.kind != TokKind::kIdentifier) continue;
      const bool member_call =
          w > fn.begin &&
          (is_punct(t[w - 1], ".") || is_punct(t[w - 1], "->"));
      const bool called = w + 1 < fn.end && is_punct(t[w + 1], "(");

      if (tok.text == "new") {
        add_finding(ctx, "hot-path-purity", file.path, tok.line,
                    "heap allocation (new) on a hot path" + purity_hint());
        continue;
      }
      if (heap_fns().count(tok.text) != 0 && called && !member_call) {
        add_finding(ctx, "hot-path-purity", file.path, tok.line,
                    "C heap call '" + tok.text + "' on a hot path" +
                        purity_hint());
        continue;
      }
      if (lock_types().count(tok.text) != 0 && w > fn.begin &&
          is_punct(t[w - 1], "::")) {
        add_finding(ctx, "hot-path-purity", file.path, tok.line,
                    "lock/synchronization type 'std::" + tok.text +
                        "' on a hot path" + purity_hint());
        continue;
      }
      if ((tok.text == "lock" || tok.text == "unlock" ||
           tok.text == "try_lock") &&
          member_call && called) {
        add_finding(ctx, "hot-path-purity", file.path, tok.line,
                    "explicit '." + tok.text + "()' on a hot path" +
                        purity_hint());
        continue;
      }
      if (io_fns().count(tok.text) != 0 && called && !member_call) {
        add_finding(ctx, "hot-path-purity", file.path, tok.line,
                    "I/O call '" + tok.text + "' on a hot path" +
                        purity_hint());
        continue;
      }
      if (io_streams().count(tok.text) != 0 && w > fn.begin &&
          is_punct(t[w - 1], "::")) {
        add_finding(ctx, "hot-path-purity", file.path, tok.line,
                    "stream I/O 'std::" + tok.text + "' on a hot path" +
                        purity_hint());
        continue;
      }
      if (growth_methods().count(tok.text) != 0 && member_call && called) {
        bool in_loop = false;
        for (const TokenRange& l : loops) in_loop = in_loop || l.contains(w);
        const std::pair<TokenRange, std::set<std::string>>* region = nullptr;
        for (const auto& r : regions) {
          if (r.first.contains(w)) {
            region = &r;
            break;
          }
        }
        if (!in_loop && region == nullptr) continue;  // setup-time growth
        const Lvalue lv = walk_lvalue_back(t, w - 2, fn.begin);
        if (!lv.ok) continue;
        // Per-thread scratch declared inside the region may grow.
        if (region != nullptr && region->second.count(lv.base) != 0) {
          continue;
        }
        const auto it = reserved_at.find(chain_key(t, lv));
        if (it != reserved_at.end() && it->second < w) continue;
        add_finding(ctx, "hot-path-purity", file.path, tok.line,
                    "'." + tok.text + "' on '" + lv.base +
                        "' inside a loop without a prior reserve()" +
                        purity_hint());
        continue;
      }
      // Transitive: a resolvable call whose callee (through any depth)
      // allocates, locks, or does I/O, sitting inside a hot-TU loop or an
      // omp region. Setup-time calls at function scope (obs counters,
      // spans) stay exempt — the impurity has to be *in the iteration*.
      if (ctx.graph != nullptr && called && !member_call) {
        bool in_loop = false;
        for (const TokenRange& l : loops) in_loop = in_loop || l.contains(w);
        bool in_region = false;
        for (const auto& r : regions) {
          in_region = in_region || r.first.contains(w);
        }
        if (!((hot_tu && in_loop) || in_region)) continue;
        const std::size_t callee = ctx.graph->resolve_call(t, w, file_index);
        if (callee == kNoFunction) continue;
        const FunctionInfo& cf = ctx.graph->functions()[callee];
        const struct {
          Fact FunctionInfo::*fact;
          const char* label;
        } kChecks[] = {
            {&FunctionInfo::allocates, "allocates ('"},
            {&FunctionInfo::locks, "locks ('"},
            {&FunctionInfo::does_io, "does I/O ('"},
        };
        for (const auto& c : kChecks) {
          const Fact& fact = cf.*(c.fact);
          if (!fact.holds) continue;
          add_finding(ctx, "hot-path-purity", file.path, tok.line,
                      "call to '" + tok.text + "' " + c.label + fact.what +
                          "' via " +
                          ctx.graph->fact_chain(callee, c.fact) +
                          ") on a hot path" + purity_hint());
        }
      }
    }
  }
}

// ----- counter-registry -------------------------------------------------------

/// Counter names feed bench reports and CI gates from src/ and bench/;
/// tests exercise the counter registry itself with synthetic names.
bool counter_checked_file(const std::string& path) {
  return in_dir(path, "src") || in_dir(path, "bench");
}

// ----- fp-reduction -----------------------------------------------------------

bool floating_type_name(const std::string& s) {
  static const std::set<std::string> kNames = {"double", "float", "Real",
                                               "Complex", "complex"};
  return kNames.count(s) != 0;
}

bool statement_keyword(const std::string& s) {
  static const std::set<std::string> kNames = {
      "return", "else", "case",   "goto",      "throw",
      "delete", "new",  "sizeof", "co_return", "co_yield"};
  return kNames.count(s) != 0;
}

/// Whether any token in [begin, end) names a floating-point type.
bool names_floating_type(const Tokens& t, std::size_t begin, std::size_t end) {
  for (std::size_t k = begin; k < end; ++k) {
    if (t[k].kind == TokKind::kIdentifier && floating_type_name(t[k].text)) {
      return true;
    }
  }
  return false;
}

/// Whether the nearest declaration of `name` before token `before` has a
/// floating-point type (double, float, Real, Complex, std::complex<...>).
/// Only `T name` and `T a = ..., name` shapes count as declarations;
/// pointer and reference declarators are skipped (a reduction on them is
/// rare and `a * name` reads the same). No declaration found means not
/// floating: like the other scoped passes this one errs toward silence.
bool declared_floating(const Tokens& t, const std::string& name,
                       std::size_t before) {
  for (std::size_t i = std::min(before, t.size()); i-- > 1;) {
    if (t[i].kind != TokKind::kIdentifier || t[i].text != name ||
        i + 1 >= t.size()) {
      continue;
    }
    const Token& next = t[i + 1];
    if (!is_punct(next, "=") && !is_punct(next, ";") && !is_punct(next, ",") &&
        !is_punct(next, "{") && !is_punct(next, ")") && !is_punct(next, "[")) {
      continue;
    }
    const Token& prev = t[i - 1];
    const bool direct = (prev.kind == TokKind::kIdentifier &&
                         !statement_keyword(prev.text)) ||
                        is_punct(prev, ">");
    if (!direct && !is_punct(prev, ",")) continue;
    // Walk back to where this declarator's type starts: the statement
    // start (a ';', ':' or brace), or for a direct declarator also a
    // parameter-list comma. Parentheses, subscripts and template angles
    // in between are skipped.
    int depth = 0;
    std::size_t start = i - 1;
    bool in_params = false;
    for (;; --start) {
      const Token& tok = t[start];
      if (is_punct(tok, ")") || is_punct(tok, "]") || is_punct(tok, ">")) {
        ++depth;
      } else if (is_punct(tok, "(") || is_punct(tok, "[") ||
                 is_punct(tok, "<")) {
        if (depth == 0) {
          in_params = is_punct(tok, "(");
          break;
        }
        --depth;
      } else if (depth == 0 &&
                 (is_punct(tok, ";") || is_punct(tok, ":") ||
                  is_punct(tok, "{") || is_punct(tok, "}") ||
                  (direct && is_punct(tok, ",")))) {
        break;
      }
      if (start == 0) break;
    }
    if (direct) return names_floating_type(t, start + 1, i);
    // `T a = x, name`: a comma inside a parameter list is no declaration.
    if (in_params) return false;
    std::size_t type_end = start + 1;
    while (type_end < i && !is_punct(t[type_end], "=") &&
           !is_punct(t[type_end], ",")) {
      ++type_end;
    }
    return names_floating_type(t, start + 1, type_end);
  }
  return false;
}

bool fp_reduction_construct(const OmpDirective& d) {
  return d.has_kind("parallel") || d.has_kind("for") ||
         d.has_kind("taskloop") || d.has_kind("sections") ||
         d.has_kind("teams") || d.has_kind("distribute");
}

void fp_reduction_scan(const PassContext& ctx, const LexedFile& file) {
  const Tokens& t = file.tokens;
  for (const OmpDirective& d : parse_omp_directives(file)) {
    // A pure `omp simd` reduction is exempt: its lanes combine in an
    // order fixed by the compiled binary, whatever the thread count.
    if (!fp_reduction_construct(d)) continue;
    for (const OmpDirective::Reduction& red : d.reductions) {
      if (red.op != "+" && red.op != "*" && red.op != "-") continue;
      for (const std::string& name : red.names) {
        if (!declared_floating(t, name, d.begin)) continue;
        add_finding(
            ctx, "fp-reduction", file.path, red.line,
            "OpenMP reduction('" + red.op + "') on floating-point '" + name +
                "' combines per-thread partials in an unspecified order, so "
                "its last bits vary from run to run and with the thread "
                "count; sum fixed index-ordered chunks and combine them "
                "serially (kmeans.cpp kObjectiveChunks), or suppress with "
                "`lrt-analyze: allow(fp-reduction)` if the bits may vary");
      }
    }
  }
}

}  // namespace

void run_omp_race(const PassContext& ctx) {
  for (std::size_t i = 0; i < ctx.files->size(); ++i) {
    const LexedFile& file = (*ctx.files)[i];
    if (in_dir(file.path, "tests")) continue;
    omp_race_scan(ctx, file, i);
  }
}

void run_fp_reduction(const PassContext& ctx) {
  for (const LexedFile& file : *ctx.files) {
    if (in_dir(file.path, "tests")) continue;
    fp_reduction_scan(ctx, file);
  }
}

void run_hot_path_purity(const PassContext& ctx) {
  for (std::size_t i = 0; i < ctx.files->size(); ++i) {
    purity_scan(ctx, (*ctx.files)[i], i);
  }
}

void run_counter_registry(const PassContext& ctx) {
  if (ctx.config->counter_registry.empty()) {
    add_finding(ctx, "counter-registry", "src/obs/counters.def", 1,
                "counter registry is empty or missing; the "
                "counter-registry pass has nothing to check against");
    return;
  }
  for (const LexedFile& file : *ctx.files) {
    if (!counter_checked_file(file.path)) continue;
    const Tokens& t = file.tokens;
    for (std::size_t i = 2; i + 2 < t.size(); ++i) {
      if (!is_ident(t[i], "counter") || !is_punct(t[i - 1], "::") ||
          !is_ident(t[i - 2], "obs") || !is_punct(t[i + 1], "(")) {
        continue;
      }
      const Token& arg = t[i + 2];
      // Non-literal or concatenated names are built at runtime; the
      // registry pass cannot see them (documented false negative).
      if (arg.kind != TokKind::kString) continue;
      if (i + 3 < t.size() && is_punct(t[i + 3], "+")) continue;
      if (ctx.config->counter_registry.count(arg.text) != 0) continue;
      add_finding(ctx, "counter-registry", file.path, arg.line,
                  "obs::counter name \"" + arg.text +
                      "\" is not registered in src/obs/counters.def "
                      "(add it there and run `lrt-analyze gen-counters "
                      "--write`, or use a registered name)");
    }
  }
}

void run_counter_registry_sync(const PassContext& ctx) {
  const std::string def_path = ctx.config->root + "/src/obs/counters.def";
  const std::string header_path =
      ctx.config->root + "/src/obs/counter_registry.hpp";
  std::string def_text;
  std::string header_text;
  try {
    def_text = read_file(def_path);
  } catch (const std::exception&) {
    add_finding(ctx, "counter-registry-sync", "src/obs/counters.def", 1,
                "missing counter definition file");
    return;
  }
  try {
    header_text = read_file(header_path);
  } catch (const std::exception&) {
    add_finding(ctx, "counter-registry-sync", "src/obs/counter_registry.hpp",
                1,
                "missing generated registry header; run "
                "`lrt-analyze gen-counters --write`");
    return;
  }
  const std::string expected =
      generate_counter_registry_header(parse_phases_def_entries(def_text));
  if (header_text != expected) {
    add_finding(ctx, "counter-registry-sync", "src/obs/counter_registry.hpp",
                1,
                "out of sync with src/obs/counters.def; run "
                "`lrt-analyze gen-counters --write`");
  }
}

}  // namespace lrt::analyze
