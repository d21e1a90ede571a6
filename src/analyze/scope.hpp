// Lightweight scope and symbol information on top of the lexer.
//
// This is deliberately NOT a C++ parse. The scoped passes (omp-race,
// hot-path-purity) need exactly four things, all recoverable from a
// brace/paren-matched token walk:
//
//   - function body extents (which block of tokens is "one function"),
//   - loop body extents (is this call site inside a for/while/do?),
//   - declaration sites (was this name introduced inside this range?),
//   - parsed `#pragma omp` directives (kinds, privatization clauses, and
//     the token range of the associated construct).
//
// Every helper is heuristic by design; docs/STATIC_ANALYSIS.md documents
// the known false-negative shapes (writes through pointers obtained via
// .data(), pass-by-reference mutation, macro-hidden code). The heuristics
// err toward exemption: a missed finding is recoverable by review, a
// noisy gate gets disabled.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "analyze/lexer.hpp"

namespace lrt::analyze {

/// Half-open token index range.
struct TokenRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  bool contains(std::size_t i) const { return i >= begin && i < end; }
};

/// One parsed `#pragma omp ...` directive.
struct OmpDirective {
  std::size_t begin = 0;  ///< token index of the '#'
  std::size_t end = 0;    ///< one past the last directive token
  int line = 0;
  /// Construct names at the directive's top level: parallel, for, simd,
  /// atomic, critical, single, barrier, ...
  std::set<std::string> kinds;
  /// Variables named in private/firstprivate/lastprivate clauses, after
  /// the ':' of reduction clauses, and before the ':' of linear clauses.
  std::set<std::string> privatized;
  /// reduction(op : list) clauses: the operator (after any modifier, e.g.
  /// "+" for `reduction(inscan, + : x)`) and the list names, in order.
  struct Reduction {
    std::string op;
    std::vector<std::string> names;
    int line = 0;
  };
  std::vector<Reduction> reductions;
  /// Token range of the associated construct (the following block, for
  /// statement, or plain statement); empty for standalone directives
  /// (barrier, taskwait, flush, declare ...).
  TokenRange region;

  bool has_kind(const char* k) const { return kinds.count(k) != 0; }
};

/// Index one past the matching close brace for the open brace at `open`
/// (i.e. a half-open range end); tokens.size() when unbalanced.
std::size_t match_brace_end(const std::vector<Token>& tokens,
                            std::size_t open);

/// One past the end of the statement starting at token `i`: a `{...}`
/// block, a control statement including its body (and any else chain), or
/// a plain statement through its ';'. Nested braces/parens are skipped.
std::size_t statement_end(const std::vector<Token>& tokens, std::size_t i);

/// Parses every `#pragma omp` directive of `file` (using the lexer's
/// DirectiveExtent table, so clause lists continued with backslash
/// splices parse as one directive).
std::vector<OmpDirective> parse_omp_directives(const LexedFile& file);

/// Names declared in tokens [begin, end): the per-function (or
/// per-region) symbol table. Heuristic: an identifier is a declared name
/// when it is preceded by a type-ish token (identifier, '>', '*', '&',
/// '&&') and followed by a declarator-ish token ('=', ';', ',', '(',
/// '[', ')', '{', ':'); multi-declarator statements follow their comma
/// chain. Over-approximates (an expression like `a * b;` reads as a
/// declaration) — acceptable because callers use the result to EXEMPT.
std::set<std::string> collect_declarations(const std::vector<Token>& tokens,
                                           std::size_t begin,
                                           std::size_t end);

/// Function-like body extents (functions, lambdas and constructors at
/// namespace/class scope), outermost only. Namespace/class/enum braces
/// are descended into, not reported.
std::vector<TokenRange> function_bodies(const std::vector<Token>& tokens);

/// Extents of for/while/do statements (header + body) inside
/// [begin, end).
std::vector<TokenRange> loop_ranges(const std::vector<Token>& tokens,
                                    std::size_t begin, std::size_t end);

/// A parsed lvalue expression ending at some token: the leftmost base
/// identifier, the member/qualifier chain extent, and every subscript or
/// call-operator argument group along the way. Shared by the scoped
/// passes (omp-race write targets) and the call graph (parameter-write
/// summaries).
struct Lvalue {
  bool ok = false;
  std::string base;             ///< leftmost identifier
  std::size_t chain_begin = 0;  ///< token index of the base identifier
  std::size_t chain_end = 0;    ///< one past the lvalue's final token
  std::vector<TokenRange> groups;  ///< [...] and (...) argument extents
};

/// Walks backward from `last` (the lvalue's final token) to its leftmost
/// base identifier, collecting subscript/call groups; never looks below
/// `floor`. Fails (ok=false) on anything it does not understand; callers
/// stay silent then.
Lvalue walk_lvalue_back(const std::vector<Token>& tokens, std::size_t last,
                        std::size_t floor);

/// The member chain as written ("result.kept_points"), used to pair
/// growth calls with earlier reserve() calls on the same object.
std::string chain_key(const std::vector<Token>& tokens, const Lvalue& lv);

}  // namespace lrt::analyze
