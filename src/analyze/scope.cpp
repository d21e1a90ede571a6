#include "analyze/scope.hpp"

namespace lrt::analyze {

namespace {

using Tokens = std::vector<Token>;

bool is_punct(const Token& tok, const char* text) {
  return tok.kind == TokKind::kPunct && tok.text == text;
}

bool is_ident(const Token& tok, const char* text) {
  return tok.kind == TokKind::kIdentifier && tok.text == text;
}

bool is_open(const Token& tok) {
  return tok.kind == TokKind::kPunct &&
         (tok.text == "(" || tok.text == "[" || tok.text == "{");
}

bool is_close(const Token& tok) {
  return tok.kind == TokKind::kPunct &&
         (tok.text == ")" || tok.text == "]" || tok.text == "}");
}

std::size_t match_paren_end(const Tokens& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (is_punct(t[i], "(")) ++depth;
    if (is_punct(t[i], ")")) {
      --depth;
      if (depth == 0) return i + 1;
    }
  }
  return t.size();
}

bool control_keyword(const Token& tok) {
  return tok.kind == TokKind::kIdentifier &&
         (tok.text == "if" || tok.text == "for" || tok.text == "while" ||
          tok.text == "switch");
}

/// Keywords that can never BE a declared name.
bool name_keyword_banned(const std::string& s) {
  static const std::set<std::string> kBan = {
      "return",   "new",      "delete",  "else",     "case",     "goto",
      "break",    "continue", "sizeof",  "typedef",  "using",    "namespace",
      "throw",    "operator", "if",      "while",    "for",      "switch",
      "do",       "const",    "static",  "auto",     "struct",   "class",
      "union",    "enum",     "public",  "private",  "protected","template",
      "typename", "inline",   "constexpr","virtual", "override", "final",
      "noexcept", "this",     "true",    "false",    "nullptr",  "void",
      "try",      "catch",    "default", "explicit", "friend",   "mutable",
      "extern"};
  return kBan.count(s) != 0;
}

/// Identifiers that cannot act as the TYPE preceding a declared name.
bool type_position_banned(const std::string& s) {
  static const std::set<std::string> kBan = {
      "return", "new",   "delete",    "else",     "case",   "goto",
      "sizeof", "throw", "operator",  "typedef",  "using",  "namespace",
      "break",  "continue", "co_return", "co_await", "co_yield"};
  return kBan.count(s) != 0;
}

}  // namespace

std::size_t match_brace_end(const Tokens& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (is_punct(t[i], "{")) ++depth;
    if (is_punct(t[i], "}")) {
      --depth;
      if (depth == 0) return i + 1;
    }
  }
  return t.size();
}

std::size_t statement_end(const Tokens& t, std::size_t i) {
  if (i >= t.size()) return t.size();
  if (is_punct(t[i], "{")) return match_brace_end(t, i);
  if (control_keyword(t[i]) && i + 1 < t.size() && is_punct(t[i + 1], "(")) {
    const std::size_t after = match_paren_end(t, i + 1);
    std::size_t e = statement_end(t, after);
    if (is_ident(t[i], "if") && e < t.size() && is_ident(t[e], "else")) {
      e = statement_end(t, e + 1);
    }
    return e;
  }
  if (is_ident(t[i], "do")) {
    std::size_t e = statement_end(t, i + 1);  // the body
    if (e < t.size() && is_ident(t[e], "while") && e + 1 < t.size() &&
        is_punct(t[e + 1], "(")) {
      e = match_paren_end(t, e + 1);
      if (e < t.size() && is_punct(t[e], ";")) ++e;
    }
    return e;
  }
  // Plain statement: scan to the ';' at the current nesting depth.
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (is_open(t[j])) ++depth;
    if (is_close(t[j])) {
      --depth;
      if (depth < 0) return j;  // hit an enclosing close; malformed input
    }
    if (depth == 0 && is_punct(t[j], ";")) return j + 1;
  }
  return t.size();
}

std::vector<OmpDirective> parse_omp_directives(const LexedFile& file) {
  const Tokens& t = file.tokens;
  std::vector<OmpDirective> out;
  for (const DirectiveExtent& d : file.directives) {
    if (d.begin + 2 >= d.end || !is_punct(t[d.begin], "#") ||
        !is_ident(t[d.begin + 1], "pragma") ||
        !is_ident(t[d.begin + 2], "omp")) {
      continue;
    }
    OmpDirective dir;
    dir.begin = d.begin;
    dir.end = d.end;
    dir.line = t[d.begin].line;
    std::size_t i = d.begin + 3;
    while (i < d.end) {
      if (t[i].kind == TokKind::kIdentifier && i + 1 < d.end &&
          is_punct(t[i + 1], "(")) {
        // A clause with arguments. Collect the privatizing ones.
        const std::string& clause = t[i].text;
        const std::size_t close = match_paren_end(t, i + 1);  // one past ')'
        const std::size_t arg_begin = i + 2;
        const std::size_t arg_end = close > 0 ? close - 1 : close;
        std::size_t colon = arg_end;
        for (std::size_t j = arg_begin; j < arg_end; ++j) {
          if (is_punct(t[j], ":")) {
            colon = j;
            break;
          }
        }
        std::size_t from = arg_end;
        std::size_t to = arg_end;
        if (clause == "private" || clause == "firstprivate" ||
            clause == "lastprivate") {
          from = arg_begin;
          to = arg_end;
        } else if (clause == "reduction") {
          // reduction(op : list) — only the list names are private.
          from = colon < arg_end ? colon + 1 : arg_begin;
          to = arg_end;
          OmpDirective::Reduction red;
          red.line = t[i].line;
          for (std::size_t j = arg_begin; j < colon && colon < arg_end; ++j) {
            if (is_punct(t[j], ",")) {
              red.op.clear();  // a modifier came first
            } else {
              red.op += t[j].text;
            }
          }
          for (std::size_t j = from; j < to; ++j) {
            if (t[j].kind == TokKind::kIdentifier) {
              red.names.push_back(t[j].text);
            }
          }
          dir.reductions.push_back(std::move(red));
        } else if (clause == "linear") {
          // linear(list : step) — only the list names.
          from = arg_begin;
          to = colon;
        }
        for (std::size_t j = from; j < to; ++j) {
          if (t[j].kind == TokKind::kIdentifier) {
            dir.privatized.insert(t[j].text);
          }
        }
        i = close;
      } else {
        if (t[i].kind == TokKind::kIdentifier) dir.kinds.insert(t[i].text);
        ++i;
      }
    }
    // Standalone directives have no associated construct.
    const bool standalone =
        dir.has_kind("barrier") || dir.has_kind("taskwait") ||
        dir.has_kind("taskyield") || dir.has_kind("flush") ||
        dir.has_kind("threadprivate") || dir.has_kind("declare");
    if (!standalone && d.end < t.size()) {
      dir.region.begin = d.end;
      dir.region.end = statement_end(t, d.end);
    }
    out.push_back(std::move(dir));
  }
  return out;
}

std::set<std::string> collect_declarations(const Tokens& t, std::size_t begin,
                                           std::size_t end) {
  std::set<std::string> out;
  if (end > t.size()) end = t.size();
  for (std::size_t i = begin; i < end; ++i) {
    if (t[i].kind != TokKind::kIdentifier || name_keyword_banned(t[i].text)) {
      continue;
    }
    if (i == 0 || i + 1 >= end) continue;
    const Token& prev = t[i - 1];
    const bool type_before =
        (prev.kind == TokKind::kIdentifier &&
         !type_position_banned(prev.text)) ||
        is_punct(prev, ">") || is_punct(prev, "*") || is_punct(prev, "&") ||
        is_punct(prev, "&&");
    if (!type_before) continue;
    const Token& next = t[i + 1];
    const bool declarator_after =
        is_punct(next, "=") || is_punct(next, ";") || is_punct(next, ",") ||
        is_punct(next, "(") || is_punct(next, "[") || is_punct(next, ")") ||
        is_punct(next, "{") || is_punct(next, ":");
    if (!declarator_after) continue;
    out.insert(t[i].text);
    // Follow the declarator comma chain: `std::vector<Real> wr, wi;` also
    // declares wi. Depth-track so call/subscript commas don't leak in.
    int depth = 0;
    for (std::size_t j = i + 1; j < end; ++j) {
      if (is_open(t[j])) ++depth;
      if (is_close(t[j])) {
        --depth;
        if (depth < 0) break;
      }
      if (depth != 0) continue;
      if (is_punct(t[j], ";")) break;
      if (is_punct(t[j], ",") && j + 1 < end &&
          t[j + 1].kind == TokKind::kIdentifier &&
          !name_keyword_banned(t[j + 1].text)) {
        out.insert(t[j + 1].text);
      }
    }
  }
  return out;
}

std::vector<TokenRange> function_bodies(const Tokens& t) {
  std::vector<TokenRange> out;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_punct(t[i], "{")) continue;
    // Statement head: tokens since the previous ';', '{', or '}'.
    std::size_t head = i;
    while (head > 0 && !is_punct(t[head - 1], ";") &&
           !is_punct(t[head - 1], "{") && !is_punct(t[head - 1], "}")) {
      --head;
    }
    bool container = false;
    bool has_paren = false;
    for (std::size_t j = head; j < i; ++j) {
      if (t[j].kind == TokKind::kIdentifier &&
          (t[j].text == "namespace" || t[j].text == "struct" ||
           t[j].text == "class" || t[j].text == "union" ||
           t[j].text == "enum")) {
        container = true;
      }
      if (is_punct(t[j], "(")) has_paren = true;
    }
    if (container && !has_paren) continue;  // descend, don't record
    const std::size_t body_end = match_brace_end(t, i);
    out.push_back(TokenRange{i, body_end});
    i = body_end - 1;  // outermost only: skip the whole body
  }
  return out;
}

namespace {

/// Index of the open token matching the close token at `close`, scanning
/// backward but not below `floor`; npos when unmatched.
std::size_t match_group_back(const Tokens& t, std::size_t close,
                             std::size_t floor, const char* open_text,
                             const char* close_text) {
  int depth = 0;
  for (std::size_t j = close + 1; j-- > floor;) {
    if (is_punct(t[j], close_text)) ++depth;
    if (is_punct(t[j], open_text)) {
      --depth;
      if (depth == 0) return j;
    }
  }
  return static_cast<std::size_t>(-1);
}

}  // namespace

Lvalue walk_lvalue_back(const Tokens& t, std::size_t last,
                        std::size_t floor) {
  Lvalue lv;
  if (last >= t.size() || last < floor) return lv;
  std::size_t j = last;
  const std::size_t npos = static_cast<std::size_t>(-1);
  // Trailing subscript/call groups: v[i][j], m(r, c).
  while (j > floor) {
    std::size_t open = npos;
    if (is_punct(t[j], "]")) {
      open = match_group_back(t, j, floor, "[", "]");
    } else if (is_punct(t[j], ")")) {
      open = match_group_back(t, j, floor, "(", ")");
    } else {
      break;
    }
    if (open == npos || open == 0) return lv;
    lv.groups.push_back(TokenRange{open + 1, j});
    j = open - 1;
  }
  if (t[j].kind != TokKind::kIdentifier) return lv;
  // Qualifier/member chain: a.b, p->c, ns::x, f(...).m, v[i].w.
  while (j >= floor + 2 &&
         (is_punct(t[j - 1], ".") || is_punct(t[j - 1], "->") ||
          is_punct(t[j - 1], "::"))) {
    const std::size_t before = j - 2;
    if (t[before].kind == TokKind::kIdentifier) {
      j = before;
      continue;
    }
    std::size_t open = npos;
    if (is_punct(t[before], "]")) {
      open = match_group_back(t, before, floor, "[", "]");
    } else if (is_punct(t[before], ")")) {
      open = match_group_back(t, before, floor, "(", ")");
    }
    if (open == npos || open <= floor ||
        t[open - 1].kind != TokKind::kIdentifier) {
      break;
    }
    lv.groups.push_back(TokenRange{open + 1, before});
    j = open - 1;
  }
  lv.base = t[j].text;
  lv.chain_begin = j;
  lv.chain_end = last + 1;
  lv.ok = true;
  return lv;
}

std::string chain_key(const Tokens& t, const Lvalue& lv) {
  std::string key;
  for (std::size_t j = lv.chain_begin; j < lv.chain_end; ++j) {
    key += t[j].text;
  }
  return key;
}

std::vector<TokenRange> loop_ranges(const Tokens& t, std::size_t begin,
                                    std::size_t end) {
  std::vector<TokenRange> out;
  if (end > t.size()) end = t.size();
  for (std::size_t i = begin; i < end; ++i) {
    const bool head =
        (is_ident(t[i], "for") || is_ident(t[i], "while")) && i + 1 < end &&
        is_punct(t[i + 1], "(");
    const bool do_head = is_ident(t[i], "do");
    if (!head && !do_head) continue;
    // `while (...)` of a do-while tail was already covered by the `do`.
    if (head && is_ident(t[i], "while") && !out.empty() &&
        out.back().contains(i)) {
      continue;
    }
    out.push_back(TokenRange{i, statement_end(t, i)});
  }
  return out;
}

}  // namespace lrt::analyze
