#include "rules.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <optional>
#include <set>
#include <utility>

namespace hmn::lint {
namespace {

constexpr std::string_view kUnorderedIter = "unordered-iter";
constexpr std::string_view kRawRandom = "raw-random";
constexpr std::string_view kFloatEq = "float-eq";
constexpr std::string_view kRawOutput = "raw-output";
constexpr std::string_view kHeaderHygiene = "header-hygiene";
constexpr std::string_view kTxnDiscipline = "txn-discipline";
constexpr std::string_view kHotPathAlloc = "hot-path-alloc";
constexpr std::string_view kExhaustiveSwitch = "exhaustive-switch";
constexpr std::string_view kIncludeLayering = "include-layering";
constexpr std::string_view kBadSuppression = "bad-suppression";
constexpr std::string_view kUnusedSuppression = "unused-suppression";

/// The transaction vocabulary (DESIGN.md §6a): begin stages work that the
/// TenancyManager has not yet seen; commit lands it atomically; rollback
/// renounces it (eviction/parking counts — the tenant's old state is
/// released, which IS the documented drop path).  txn_begin/txn_commit/
/// txn_abort are the generic spellings for future transactional APIs.
constexpr std::array<std::string_view, 2> kTxnBegin = {
    "residual_cluster_excluding", "txn_begin"};
constexpr std::array<std::string_view, 3> kTxnCommit = {
    "update_mappings", "txn_commit", "admit"};
constexpr std::array<std::string_view, 3> kTxnRollback = {
    "release", "evict_and_park", "txn_abort"};

bool contains(const std::set<std::string, std::less<>>& s,
              std::string_view v) {
  return s.find(v) != s.end();
}

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

constexpr std::array<std::string_view, 4> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

constexpr std::array<std::string_view, 13> kBannedRandom = {
    "random_device", "srand",        "mt19937",
    "mt19937_64",    "minstd_rand",  "minstd_rand0",
    "default_random_engine",         "knuth_b",
    "ranlux24",      "ranlux48",     "system_clock",
    "steady_clock",  "high_resolution_clock"};

constexpr std::array<std::string_view, 6> kBannedOutput = {
    "cout", "printf", "fprintf", "vprintf", "puts", "putchar"};

constexpr std::array<std::string_view, 4> kBeginNames = {"begin", "cbegin",
                                                         "rbegin", "crbegin"};

template <typename Arr>
bool in(const Arr& arr, std::string_view v) {
  return std::find(arr.begin(), arr.end(), v) != arr.end();
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

struct Suppression {
  std::string rule;
  std::string reason;
  std::size_t target_line = 0;   // line of code it covers
  std::size_t comment_line = 0;  // where the annotation itself lives
  bool used = false;
};

class Analyzer {
 public:
  Analyzer(std::string file, std::string_view source, const FileContext& ctx,
           const RepoContext* repo)
      : file_(std::move(file)), ctx_(ctx), repo_(repo), lex_(lex(source)) {}

  std::vector<Finding> run() {
    const bool relaxed = ctx_.profile == LintProfile::kRelaxed;
    collect_suppressions();
    collect_unordered_names();
    if (!relaxed) collect_float_vars();
    rule_unordered_iter();
    if (!relaxed) {
      rule_raw_random();
      rule_float_eq();
      rule_raw_output();
    }
    rule_header_hygiene();
    functions_ = scan_functions(lex_);
    if (!relaxed) {
      rule_txn_discipline();
      rule_hot_path_alloc();
    }
    rule_exhaustive_switch();
    apply_suppressions();
    std::stable_sort(findings_.begin(), findings_.end(),
                     [](const Finding& a, const Finding& b) {
                       return a.line != b.line ? a.line < b.line
                                               : a.col < b.col;
                     });
    return std::move(findings_);
  }

 private:
  const std::vector<Token>& toks() const { return lex_.tokens; }

  const Token* at(std::size_t i) const {
    return i < toks().size() ? &toks()[i] : nullptr;
  }

  void report(std::string_view rule, const Token& t, std::string message) {
    Finding f;
    f.file = file_;
    f.line = t.line;
    f.col = t.col;
    f.rule = std::string(rule);
    f.message = std::move(message);
    findings_.push_back(std::move(f));
  }

  // ---- suppressions -----------------------------------------------------

  /// First code line at or after (line, col); used to attach an own-line
  /// annotation to the statement below it.
  std::size_t next_code_line(std::size_t line, std::size_t col) const {
    for (const Token& t : toks()) {
      if (t.line > line || (t.line == line && t.col > col)) return t.line;
    }
    return line;
  }

  void collect_suppressions() {
    for (const Comment& c : lex_.comments) {
      const std::size_t marker = live_marker_pos(c.text);
      if (marker == std::string_view::npos) continue;
      std::string_view rest = c.text.substr(marker + 9);
      // `hot-path` is the function annotation, not a suppression; it is
      // consumed by scan_functions.
      if (trim(rest).substr(0, 8) == "hot-path") continue;
      bool any = false;
      while (true) {
        const std::size_t a = rest.find("allow");
        if (a == std::string_view::npos) break;
        rest.remove_prefix(a + 5);
        const std::size_t open = rest.find('(');
        if (open == std::string_view::npos) break;
        rest.remove_prefix(open + 1);
        // Depth-aware close: reasons legitimately mention calls — the
        // clause ends at the paren balancing the allow( itself.
        std::size_t close = std::string_view::npos;
        int depth = 0;
        for (std::size_t k = 0; k < rest.size(); ++k) {
          if (rest[k] == '(') {
            ++depth;
          } else if (rest[k] == ')') {
            if (depth == 0) {
              close = k;
              break;
            }
            --depth;
          }
        }
        if (close == std::string_view::npos) {
          report_bad(c, "unterminated allow(...) clause");
          return;
        }
        const std::string_view body = rest.substr(0, close);
        rest.remove_prefix(close + 1);
        any = true;

        const std::size_t comma = body.find(',');
        const std::string_view rule =
            trim(comma == std::string_view::npos ? body
                                                 : body.substr(0, comma));
        const std::string_view reason =
            comma == std::string_view::npos
                ? std::string_view{}
                : trim(body.substr(comma + 1));
        if (!is_known_rule(rule) || rule == kBadSuppression ||
            rule == kUnusedSuppression) {
          report_bad(c, "unknown rule '" + std::string(rule) + "'");
          continue;
        }
        if (reason.empty()) {
          report_bad(c, "missing reason for allow(" + std::string(rule) +
                            ", <reason>) — a suppression is a reviewed "
                            "claim, not a mute button");
          continue;
        }
        Suppression s;
        s.rule = std::string(rule);
        s.reason = std::string(reason);
        s.comment_line = c.line;
        s.target_line =
            c.own_line ? next_code_line(c.line, c.col) : c.line;
        suppressions_.push_back(std::move(s));
      }
      if (!any) report_bad(c, "hmn-lint marker without an allow(...) clause");
    }
  }

  void report_bad(const Comment& c, std::string detail) {
    Finding f;
    f.file = file_;
    f.line = c.line;
    f.col = c.col;
    f.rule = std::string(kBadSuppression);
    f.message = "malformed suppression: " + std::move(detail);
    findings_.push_back(std::move(f));
  }

  void apply_suppressions() {
    for (Finding& f : findings_) {
      if (f.rule == kBadSuppression || f.rule == kUnusedSuppression) continue;
      for (Suppression& s : suppressions_) {
        if (s.rule == f.rule && s.target_line == f.line) {
          f.suppressed = true;
          f.suppression_reason = s.reason;
          s.used = true;
        }
      }
    }
    for (const Suppression& s : suppressions_) {
      if (s.used) continue;
      Finding f;
      f.file = file_;
      f.line = s.comment_line;
      f.col = 1;
      f.rule = std::string(kUnusedSuppression);
      f.message = "allow(" + s.rule +
                  ", ...) matches no finding on line " +
                  std::to_string(s.target_line) +
                  " — delete the stale annotation";
      findings_.push_back(std::move(f));
    }
  }

  // ---- shared token scans ----------------------------------------------

  /// Skips a balanced template argument list starting at `i` (which must
  /// point at '<').  Returns the index one past the closing '>'.  `>>` pops
  /// two levels (C++11 closing of nested templates).  Bails at ';' or '{'
  /// so a stray comparison '<' cannot swallow the file.
  std::size_t skip_template_args(std::size_t i) const {
    int depth = 0;
    while (const Token* t = at(i)) {
      if (is_punct(*t, "<") || is_punct(*t, "<<")) {
        depth += is_punct(*t, "<<") ? 2 : 1;
      } else if (is_punct(*t, ">") || is_punct(*t, ">>")) {
        depth -= is_punct(*t, ">>") ? 2 : 1;
        if (depth <= 0) return i + 1;
      } else if (is_punct(*t, ";") || is_punct(*t, "{")) {
        return i;  // malformed / not actually a template — give up
      }
      ++i;
    }
    return i;
  }

  /// After a type spelling, declarators can be wrapped in cv/ref noise.
  std::size_t skip_declarator_noise(std::size_t i) const {
    while (const Token* t = at(i)) {
      if (is_punct(*t, "&") || is_punct(*t, "*") || is_punct(*t, "&&") ||
          is_ident(*t, "const") || is_ident(*t, "volatile")) {
        ++i;
        continue;
      }
      break;
    }
    return i;
  }

  /// Records names declared with std::unordered_* types (variables, members,
  /// parameters) plus `using`/`typedef` aliases of such types, so iteration
  /// checks see through both direct declarations and project-local aliases.
  void collect_unordered_names() {
    const auto& T = toks();
    for (std::size_t i = 0; i < T.size(); ++i) {
      const bool base = T[i].kind == TokenKind::kIdentifier &&
                        in(kUnorderedTypes, T[i].text);
      const bool alias = T[i].kind == TokenKind::kIdentifier &&
                         contains(unordered_aliases_, T[i].text);
      if (!base && !alias) continue;
      const Token& type_tok = T[i];

      // Index where the type spelling starts (absorb a `std::` qualifier).
      std::size_t type_start = i;
      if (i >= 2 && is_punct(T[i - 1], "::") && is_ident(T[i - 2], "std")) {
        type_start = i - 2;
      }
      // `using Name = [std::]unordered_map<...>;` — record the alias so a
      // later `Name cache;` declaration is still recognized.
      if (type_start >= 3 && is_punct(T[type_start - 1], "=") &&
          T[type_start - 2].kind == TokenKind::kIdentifier &&
          is_ident(T[type_start - 3], "using")) {
        unordered_aliases_.insert(std::string(T[type_start - 2].text));
        if (ctx_.is_decision_module) decl_sites_.push_back(&type_tok);
        if (base && at(i + 1) != nullptr && is_punct(*at(i + 1), "<")) {
          i = skip_template_args(i + 1);
        }
        continue;
      }

      std::size_t j = i + 1;
      if (base) {
        if (at(j) == nullptr || !is_punct(*at(j), "<")) {
          continue;  // bare mention without template args — not a decl
        }
        j = skip_template_args(j);
      }
      j = skip_declarator_noise(j);
      const Token* name = at(j);
      if (name == nullptr || name->kind != TokenKind::kIdentifier) {
        i = j;
        continue;
      }
      const Token* after = at(j + 1);
      if (after != nullptr && is_punct(*after, "(")) {
        // Function returning an unordered container: remember the name so
        // `for (auto& x : make_index())` is still caught, but it is not a
        // declaration site.
        unordered_names_.insert(std::string(name->text));
        i = j;
        continue;
      }
      unordered_names_.insert(std::string(name->text));
      decl_sites_.push_back(&type_tok);
      i = j;
    }
  }

  /// Records identifiers declared `double x` / `float x` (including
  /// multi-declarator lists and cv/ref-qualified spellings).  Function
  /// declarations (`double f(...)`) are deliberately not recorded: the name
  /// alone says nothing about a later comparison.
  void collect_float_vars() {
    const auto& T = toks();
    for (std::size_t i = 0; i < T.size(); ++i) {
      if (!is_ident(T[i], "double") && !is_ident(T[i], "float")) continue;
      std::size_t j = skip_declarator_noise(i + 1);
      while (true) {
        // `double Foo::bar(...)` or `double Foo::x = ...`: the declarator
        // is the name after the qualifiers, not `Foo`.
        while (at(j) != nullptr && at(j)->kind == TokenKind::kIdentifier &&
               at(j + 1) != nullptr && is_punct(*at(j + 1), "::")) {
          j += 2;
        }
        const Token* name = at(j);
        if (name == nullptr || name->kind != TokenKind::kIdentifier) break;
        const Token* after = at(j + 1);
        if (after != nullptr && is_punct(*after, "(")) break;  // function
        float_vars_.insert(std::string(name->text));
        // `double a = .., b = ..;` — hop the initializer to the next comma.
        std::size_t k = j + 1;
        int depth = 0;
        while (const Token* t = at(k)) {
          if (is_punct(*t, "(") || is_punct(*t, "{") || is_punct(*t, "[")) {
            ++depth;
          } else if (is_punct(*t, ")") || is_punct(*t, "}") ||
                     is_punct(*t, "]")) {
            if (depth == 0) break;
            --depth;
          } else if (depth == 0 &&
                     (is_punct(*t, ";") || is_punct(*t, ","))) {
            break;
          }
          ++k;
        }
        if (at(k) == nullptr || !is_punct(*at(k), ",")) break;
        j = skip_declarator_noise(k + 1);
      }
      i = j;
    }
  }

  // ---- R1: unordered-iter ----------------------------------------------

  void rule_unordered_iter() {
    const auto& T = toks();

    // Declaration sites inside decision-affecting modules must justify
    // themselves even when never iterated *today* — the next edit is one
    // range-for away from a nondeterministic decision log.
    if (ctx_.is_decision_module) {
      for (const Token* t : decl_sites_) {
        const bool base_type = in(kUnorderedTypes, t->text);
        report(kUnorderedIter, *t,
               (base_type ? "std::" + std::string(t->text)
                          : std::string(t->text) + " (unordered alias)") +
                   " declared in a decision-affecting module; iteration "
                   "order is seed-dependent — use std::map/std::set, or "
                   "suppress with proof the container is lookup-only or "
                   "canonicalized before any commit/log/hash");
      }
    }

    for (std::size_t i = 0; i + 1 < T.size(); ++i) {
      // for ( decl : range-expr )
      if (is_ident(T[i], "for") && is_punct(T[i + 1], "(")) {
        check_range_for(i + 1);
        continue;
      }
      // var.begin() / std::begin(var) — iterator-based traversal.
      if (T[i].kind == TokenKind::kIdentifier &&
          contains(unordered_names_, T[i].text)) {
        const Token* dot = at(i + 1);
        const Token* fn = at(i + 2);
        const Token* paren = at(i + 3);
        if (dot != nullptr && fn != nullptr && paren != nullptr &&
            (is_punct(*dot, ".") || is_punct(*dot, "->")) &&
            fn->kind == TokenKind::kIdentifier &&
            in(kBeginNames, fn->text) && is_punct(*paren, "(")) {
          report(kUnorderedIter, T[i],
                 "'" + std::string(T[i].text) + "." +
                     std::string(fn->text) +
                     "()' starts an unordered traversal; the visit order "
                     "is not deterministic");
        }
      }
      if (T[i].kind == TokenKind::kIdentifier && in(kBeginNames, T[i].text) &&
          at(i + 1) != nullptr && is_punct(*at(i + 1), "(") &&
          at(i + 2) != nullptr &&
          at(i + 2)->kind == TokenKind::kIdentifier &&
          contains(unordered_names_, at(i + 2)->text)) {
        report(kUnorderedIter, T[i],
               "'std::" + std::string(T[i].text) + "(" +
                   std::string(at(i + 2)->text) +
                   ")' starts an unordered traversal; the visit order is "
                   "not deterministic");
      }
    }
  }

  void check_range_for(std::size_t open_paren) {
    const auto& T = toks();
    int depth = 0;
    std::optional<std::size_t> colon;
    std::size_t close = open_paren;
    for (std::size_t i = open_paren; i < T.size(); ++i) {
      if (is_punct(T[i], "(")) {
        ++depth;
      } else if (is_punct(T[i], ")")) {
        --depth;
        if (depth == 0) {
          close = i;
          break;
        }
      } else if (depth == 1 && is_punct(T[i], ";")) {
        return;  // classic three-clause for — ordered by construction
      } else if (depth == 1 && is_punct(T[i], ":") && !colon) {
        colon = i;
      }
    }
    if (!colon) return;
    for (std::size_t i = *colon + 1; i < close; ++i) {
      if (T[i].kind == TokenKind::kIdentifier &&
          contains(unordered_names_, T[i].text)) {
        report(kUnorderedIter, T[i],
               "range-for over unordered container '" +
                   std::string(T[i].text) +
                   "'; iteration order is seed-dependent");
        return;
      }
    }
  }

  // ---- R2: raw-random ---------------------------------------------------

  void rule_raw_random() {
    if (ctx_.is_util_module) return;  // the sanctioned wrapper lives here
    const auto& T = toks();
    for (std::size_t i = 0; i < T.size(); ++i) {
      if (T[i].kind != TokenKind::kIdentifier) continue;
      const Token* prev = i > 0 ? &T[i - 1] : nullptr;
      const bool member_access =
          prev != nullptr && (is_punct(*prev, ".") || is_punct(*prev, "->"));
      if (in(kBannedRandom, T[i].text) && !member_access) {
        report(kRawRandom, T[i],
               "'" + std::string(T[i].text) +
                   "' outside src/util — all randomness and clocks flow "
                   "through the seedable util::Rng / util::Timer facades");
        continue;
      }
      const Token* next = at(i + 1);
      const bool call = next != nullptr && is_punct(*next, "(");
      if (call && !member_access &&
          (T[i].text == "rand" || T[i].text == "time" ||
           T[i].text == "clock" || T[i].text == "getpid")) {
        report(kRawRandom, T[i],
               "'" + std::string(T[i].text) +
                   "()' outside src/util — nondeterministic seed source");
      }
    }
  }

  // ---- R3: float-eq -----------------------------------------------------

  bool is_float_operand(const Token* t) const {
    if (t == nullptr) return false;
    if (t->kind == TokenKind::kNumber) return t->is_float;
    return t->kind == TokenKind::kIdentifier &&
           contains(float_vars_, t->text);
  }

  void rule_float_eq() {
    const auto& T = toks();
    for (std::size_t i = 0; i < T.size(); ++i) {
      if (!is_punct(T[i], "==") && !is_punct(T[i], "!=")) continue;
      const Token* lhs = i > 0 ? &T[i - 1] : nullptr;
      const Token* rhs = at(i + 1);
      // `p == nullptr` is a pointer comparison even when `p` shadows a
      // double elsewhere in the file — name tracking is file-scoped, so
      // let the unambiguous operand win.
      if ((lhs != nullptr &&
           (is_ident(*lhs, "nullptr") || is_ident(*lhs, "NULL"))) ||
          (rhs != nullptr &&
           (is_ident(*rhs, "nullptr") || is_ident(*rhs, "NULL")))) {
        continue;
      }
      if (is_float_operand(lhs) || is_float_operand(rhs)) {
        report(kFloatEq, T[i],
               "raw floating-point '" + std::string(T[i].text) +
                   "' — compare against a tolerance, or suppress with why "
                   "exact equality is sound here");
      }
    }
  }

  // ---- R4: raw-output ---------------------------------------------------

  void rule_raw_output() {
    const auto& T = toks();
    for (std::size_t i = 0; i < T.size(); ++i) {
      if (T[i].kind != TokenKind::kIdentifier ||
          !in(kBannedOutput, T[i].text)) {
        continue;
      }
      const Token* prev = i > 0 ? &T[i - 1] : nullptr;
      if (prev != nullptr && (is_punct(*prev, ".") || is_punct(*prev, "->"))) {
        continue;  // member named e.g. `puts` on some object — not stdio
      }
      if (T[i].text != "cout") {
        const Token* next = at(i + 1);
        if (next == nullptr || !is_punct(*next, "(")) continue;
      }
      report(kRawOutput, T[i],
             "'" + std::string(T[i].text) +
                 "' in library code — route output through the CSV/table "
                 "writers or a caller-supplied std::ostream");
    }
  }

  // ---- R5: header-hygiene ----------------------------------------------

  void rule_header_hygiene() {
    if (!ctx_.is_header) return;
    const auto& T = toks();

    bool pragma_once = false;
    for (const Token& t : T) {
      if (t.kind != TokenKind::kPreprocessor) continue;
      std::string_view text = t.text;
      text.remove_prefix(1);  // '#'
      if (trim(text).substr(0, 6) == "pragma" &&
          trim(trim(text).substr(6)).substr(0, 4) == "once") {
        pragma_once = true;
        break;
      }
    }
    if (!pragma_once) {
      Token anchor;
      anchor.line = 1;
      anchor.col = 1;
      report(kHeaderHygiene, anchor,
             "header is missing '#pragma once'");
    }

    // `using namespace` is a finding only at namespace scope: inside a
    // function body it pollutes nothing beyond that body.
    std::vector<bool> ns_scope;  // true: brace opened by `namespace ... {`
    for (std::size_t i = 0; i < T.size(); ++i) {
      if (is_punct(T[i], "{")) {
        ns_scope.push_back(opened_by_namespace(i));
        continue;
      }
      if (is_punct(T[i], "}")) {
        if (!ns_scope.empty()) ns_scope.pop_back();
        continue;
      }
      if (is_ident(T[i], "using") && at(i + 1) != nullptr &&
          is_ident(*at(i + 1), "namespace")) {
        const bool at_ns_scope =
            std::all_of(ns_scope.begin(), ns_scope.end(),
                        [](bool b) { return b; });
        if (at_ns_scope) {
          report(kHeaderHygiene, T[i],
                 "'using namespace' at namespace scope in a header leaks "
                 "into every includer");
        }
      }
    }
  }

  // ---- R6: txn-discipline ----------------------------------------------

  /// True when token i spells a call (or member call) of one of `names`.
  template <typename Arr>
  bool is_call_of(std::size_t i, const Arr& names) const {
    const Token& t = toks()[i];
    if (t.kind != TokenKind::kIdentifier || !in(names, t.text)) return false;
    const Token* next = at(i + 1);
    return next != nullptr && is_punct(*next, "(");
  }

  void rule_txn_discipline() {
    for (const FunctionBody& fn : functions_) {
      check_txn_body(fn);
    }
  }

  /// Linear brace-aware walk: `open` is true while a transaction is
  /// pending in the *current* scope.  Entering a brace saves the state;
  /// leaving restores it, so a commit inside one branch does not excuse
  /// the other branch or the code after the conditional.  A commit in a
  /// branch followed by `return` inside that same branch is fine — the
  /// state is branch-local in both directions.
  void check_txn_body(const FunctionBody& fn) {
    const auto& T = toks();
    bool open = false;
    const Token* begin_tok = nullptr;
    std::vector<bool> saved;
    for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      const Token& t = T[i];
      if (is_punct(t, "{")) {
        saved.push_back(open);
        continue;
      }
      if (is_punct(t, "}")) {
        if (!saved.empty()) {
          open = saved.back();
          saved.pop_back();
        }
        continue;
      }
      if (is_call_of(i, kTxnBegin)) {
        open = true;
        begin_tok = &t;
        continue;
      }
      if (is_call_of(i, kTxnCommit) || is_call_of(i, kTxnRollback)) {
        open = false;
        continue;
      }
      if (is_ident(t, "return") && open) {
        // `return commit(...)` closes on the way out: scan the return
        // statement itself before judging.
        bool closes = false;
        for (std::size_t j = i + 1; j < fn.body_end && !is_punct(T[j], ";");
             ++j) {
          if (is_call_of(j, kTxnCommit) || is_call_of(j, kTxnRollback)) {
            closes = true;
            break;
          }
        }
        if (!closes) {
          report(kTxnDiscipline, t,
                 "'" + std::string(fn.name) + "' begins a transaction ('" +
                     std::string(begin_tok ? begin_tok->text : "txn_begin") +
                     "') but this return path neither commits nor rolls "
                     "back — every exit must update_mappings/txn_commit or "
                     "release/evict_and_park/txn_abort");
        }
      }
    }
    if (open) {
      // A function whose final top-level statement is `return ...;` cannot
      // also fall off the end — that return already got its own finding.
      bool ends_in_return = false;
      if (fn.body_end > fn.body_begin + 1 &&
          is_punct(T[fn.body_end - 1], ";")) {
        std::size_t j = fn.body_end - 1;
        while (j > fn.body_begin) {
          --j;
          if (is_punct(T[j], ";") || is_punct(T[j], "{") ||
              is_punct(T[j], "}")) {
            ++j;
            break;
          }
        }
        ends_in_return = is_ident(T[j], "return");
      }
      if (!ends_in_return) {
        report(kTxnDiscipline, T[fn.body_end],
               "'" + std::string(fn.name) +
                   "' begins a transaction ('" +
                   std::string(begin_tok ? begin_tok->text : "txn_begin") +
                   "') and falls off the end without commit or rollback");
      }
    }
  }

  // ---- R7: hot-path-alloc ----------------------------------------------

  void rule_hot_path_alloc() {
    for (const FunctionBody& fn : functions_) {
      if (fn.hot_path) check_hot_body(fn);
    }
  }

  static bool is_container_type(std::string_view s) {
    constexpr std::array<std::string_view, 6> kGrowable = {
        "vector", "deque", "string", "basic_string", "list", "forward_list"};
    return in(kGrowable, s);
  }

  static bool is_node_container_type(std::string_view s) {
    constexpr std::array<std::string_view, 8> kNodeBased = {
        "map",           "set",           "multimap",      "multiset",
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    return in(kNodeBased, s);
  }

  void check_hot_body(const FunctionBody& fn) {
    const auto& T = toks();
    // Pass 1 over the body: locals declared with growable container types,
    // and names that are reserve()d anywhere in the body.
    std::set<std::string, std::less<>> growable_locals;
    std::set<std::string, std::less<>> reserved;
    for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      const Token& t = T[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (is_container_type(t.text)) {
        std::size_t j = i + 1;
        if (at(j) != nullptr && is_punct(*at(j), "<")) {
          j = skip_template_args(j);
        }
        j = skip_declarator_noise(j);
        const Token* name = at(j);
        if (name != nullptr && name->kind == TokenKind::kIdentifier &&
            j < fn.body_end) {
          growable_locals.insert(std::string(name->text));
        }
        continue;
      }
      const Token* dot = at(i + 1);
      const Token* fn_name = at(i + 2);
      const Token* paren = at(i + 3);
      if (dot != nullptr && fn_name != nullptr && paren != nullptr &&
          (is_punct(*dot, ".") || is_punct(*dot, "->")) &&
          is_ident(*fn_name, "reserve") && is_punct(*paren, "(")) {
        reserved.insert(std::string(t.text));
      }
    }

    // Pass 2: report allocations.
    for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      const Token& t = T[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (t.text == "new") {
        const Token* prev = i > 0 ? &T[i - 1] : nullptr;
        if (prev != nullptr && (is_punct(*prev, ".") || is_punct(*prev, "->") ||
                                is_ident(*prev, "operator"))) {
          continue;
        }
        report(kHotPathAlloc, t,
               "'new' inside hot-path function '" + std::string(fn.name) +
                   "' — allocate scratch once at setup and reuse it");
        continue;
      }
      if (t.text == "make_unique" || t.text == "make_shared") {
        report(kHotPathAlloc, t,
               "'" + std::string(t.text) + "' inside hot-path function '" +
                   std::string(fn.name) +
                   "' — heap allocation on a hot path; hoist to cold setup");
        continue;
      }
      if (is_node_container_type(t.text)) {
        // A declaration (followed by template args + a declarator), not a
        // qualified mention like std::map<...>::iterator in a cast.
        std::size_t j = i + 1;
        if (at(j) == nullptr || !is_punct(*at(j), "<")) continue;
        j = skip_template_args(j);
        j = skip_declarator_noise(j);
        const Token* name = at(j);
        if (name == nullptr || name->kind != TokenKind::kIdentifier ||
            j >= fn.body_end) {
          continue;
        }
        report(kHotPathAlloc, t,
               "node-based '" + std::string(t.text) +
                   "' constructed inside hot-path function '" +
                   std::string(fn.name) +
                   "' — every insert allocates; use sorted vectors or "
                   "preallocated dense arrays");
        i = j;
        continue;
      }
      // push_back / emplace_back on a non-reserve()d body-local.
      const Token* dot = at(i + 1);
      const Token* call = at(i + 2);
      const Token* paren = at(i + 3);
      if (dot != nullptr && call != nullptr && paren != nullptr &&
          (is_punct(*dot, ".") || is_punct(*dot, "->")) &&
          (is_ident(*call, "push_back") || is_ident(*call, "emplace_back")) &&
          is_punct(*paren, "(") &&
          contains(growable_locals, t.text) && !contains(reserved, t.text)) {
        report(kHotPathAlloc, *call,
               "'" + std::string(t.text) + "." + std::string(call->text) +
                   "' on a local never reserve()d inside hot-path function "
                   "'" + std::string(fn.name) +
                   "' — growth reallocates mid-loop; reserve() up front");
      }
    }
  }

  // ---- R8: exhaustive-switch -------------------------------------------

  const std::vector<std::string>* enum_values(std::string_view name) const {
    if (repo_ != nullptr) {
      if (std::find(repo_->enums.ambiguous.begin(),
                    repo_->enums.ambiguous.end(),
                    std::string(name)) != repo_->enums.ambiguous.end()) {
        return nullptr;
      }
      const auto it = repo_->enums.enums.find(name);
      if (it != repo_->enums.enums.end()) return &it->second;
    }
    if (std::find(file_enums_.ambiguous.begin(), file_enums_.ambiguous.end(),
                  std::string(name)) != file_enums_.ambiguous.end()) {
      return nullptr;
    }
    const auto it = file_enums_.enums.find(name);
    return it != file_enums_.enums.end() ? &it->second : nullptr;
  }

  void rule_exhaustive_switch() {
    file_enums_ = collect_enums(lex_);
    const auto& T = toks();
    for (std::size_t i = 0; i + 1 < T.size(); ++i) {
      if (!is_ident(T[i], "switch") || !is_punct(T[i + 1], "(")) continue;
      // Find the controlled statement's braces.
      int depth = 0;
      std::size_t body_begin = 0;
      for (std::size_t j = i + 1; j < T.size(); ++j) {
        if (is_punct(T[j], "(")) ++depth;
        if (is_punct(T[j], ")")) {
          --depth;
          if (depth == 0) {
            if (j + 1 < T.size() && is_punct(T[j + 1], "{")) {
              body_begin = j + 1;
            }
            break;
          }
        }
      }
      if (body_begin == 0) continue;
      int brace = 0;
      std::size_t body_end = body_begin;
      for (std::size_t j = body_begin; j < T.size(); ++j) {
        if (is_punct(T[j], "{")) ++brace;
        if (is_punct(T[j], "}")) {
          --brace;
          if (brace == 0) {
            body_end = j;
            break;
          }
        }
      }
      if (body_end == body_begin) continue;

      bool has_default = false;
      std::string enum_name;
      std::set<std::string, std::less<>> used;
      bool mixed = false;
      int nest = 0;
      for (std::size_t j = body_begin + 1; j < body_end; ++j) {
        if (is_punct(T[j], "{")) ++nest;
        if (is_punct(T[j], "}")) --nest;
        if (is_ident(T[j], "switch")) {
          // Labels of a nested switch belong to it; skip its body.
          std::size_t k = j;
          int d = 0;
          bool entered = false;
          while (k < body_end) {
            if (is_punct(T[k], "{")) {
              ++d;
              entered = true;
            }
            if (is_punct(T[k], "}")) {
              --d;
              if (entered && d == 0) break;
            }
            ++k;
          }
          j = k;
          continue;
        }
        if (is_ident(T[j], "default") && at(j + 1) != nullptr &&
            is_punct(*at(j + 1), ":")) {
          has_default = true;
        }
        if (!is_ident(T[j], "case")) continue;
        // Label shape: [quals ::] EnumName :: enumerator :
        std::size_t k = j + 1;
        std::vector<std::string_view> idents;
        while (k < body_end && !is_punct(T[k], ":")) {
          if (T[k].kind == TokenKind::kIdentifier) {
            idents.push_back(T[k].text);
          } else if (!is_punct(T[k], "::")) {
            idents.clear();
            break;
          }
          ++k;
        }
        if (idents.size() < 2) continue;  // integer/char labels etc.
        const std::string this_enum(idents[idents.size() - 2]);
        if (enum_name.empty()) {
          enum_name = this_enum;
        } else if (enum_name != this_enum) {
          mixed = true;
        }
        used.insert(std::string(idents.back()));
        j = k;
      }
      if (mixed || enum_name.empty() || has_default) continue;
      const std::vector<std::string>* values = enum_values(enum_name);
      if (values == nullptr) continue;
      std::string missing;
      for (const std::string& v : *values) {
        if (contains(used, v)) continue;
        if (!missing.empty()) missing += ", ";
        missing += v;
      }
      if (missing.empty()) continue;
      report(kExhaustiveSwitch, T[i],
             "switch over enum '" + enum_name +
                 "' is missing case(s) " + missing +
                 " and has no default — handle every enumerator or add an "
                 "explicit default");
    }
  }

  bool opened_by_namespace(std::size_t brace) const {
    const auto& T = toks();
    std::size_t i = brace;
    while (i > 0) {
      --i;
      const Token& t = T[i];
      if (t.kind == TokenKind::kIdentifier && t.text != "namespace" &&
          t.text != "inline") {
        continue;  // namespace name component
      }
      if (is_punct(t, "::")) continue;  // nested namespace a::b
      return is_ident(t, "namespace");
    }
    return false;
  }

  std::string file_;
  FileContext ctx_;
  const RepoContext* repo_ = nullptr;
  LexResult lex_;
  std::vector<FunctionBody> functions_;
  EnumRegistry file_enums_;
  std::set<std::string, std::less<>> unordered_names_;
  std::set<std::string, std::less<>> unordered_aliases_;
  std::set<std::string, std::less<>> float_vars_;
  std::vector<const Token*> decl_sites_;
  std::vector<Suppression> suppressions_;
  std::vector<Finding> findings_;
};

}  // namespace

FileContext classify_path(std::string_view path) {
  FileContext ctx;
  const std::size_t dot = path.rfind('.');
  if (dot != std::string_view::npos) {
    const std::string_view ext = path.substr(dot);
    ctx.is_header = ext == ".h" || ext == ".hpp" || ext == ".hh";
  }
  std::size_t start = 0;
  while (start <= path.size()) {
    std::size_t slash = path.find('/', start);
    if (slash == std::string_view::npos) slash = path.size();
    const std::string_view seg = path.substr(start, slash - start);
    if (seg == "orchestrator" || seg == "core" || seg == "workload" ||
        seg == "topology" || seg == "availability" || seg == "multilevel" ||
        seg == "extensions" || seg == "recovery") {
      ctx.is_decision_module = true;
    }
    if (seg == "util") ctx.is_util_module = true;
    if (seg == "tools" || seg == "bench" || seg == "examples") {
      ctx.profile = LintProfile::kRelaxed;
    }
    if (slash == path.size()) break;
    start = slash + 1;
  }
  return ctx;
}

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = {
      std::string(kUnorderedIter),    std::string(kRawRandom),
      std::string(kFloatEq),          std::string(kRawOutput),
      std::string(kHeaderHygiene),    std::string(kTxnDiscipline),
      std::string(kHotPathAlloc),     std::string(kExhaustiveSwitch),
      std::string(kIncludeLayering),  std::string(kBadSuppression),
      std::string(kUnusedSuppression)};
  return kNames;
}

bool is_known_rule(std::string_view rule) {
  const auto& names = rule_names();
  return std::find(names.begin(), names.end(), rule) != names.end();
}

std::vector<Finding> analyze_source(std::string file, std::string_view source,
                                    const FileContext& ctx,
                                    const RepoContext* repo) {
  return Analyzer(std::move(file), source, ctx, repo).run();
}

std::vector<Finding> analyze_source(std::string file,
                                    std::string_view source) {
  const FileContext ctx = classify_path(file);
  return analyze_source(std::move(file), source, ctx);
}

}  // namespace hmn::lint
