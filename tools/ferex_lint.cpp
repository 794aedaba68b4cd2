// ferex_lint — repo-invariant checker for conventions the compiler
// cannot see. Token/structure level on purpose: no AST, no compile
// flags, so it runs in milliseconds on any checkout and never drifts
// out of sync with the build.
//
// The tool runs in two phases. Phase 1 walks the tree once and builds
// a repo model per file: include edges, annotated mutex declarations
// and every scoped-lock acquisition (attributed to its enclosing
// function/class via brace tracking), failpoint site names, the
// RejectReason enum and its RejectedRequest subclasses, bench label
// string literals, CTest labels, and CI label patterns. Phase 2 runs
// graph rules over the accumulated model; per-file rules run inline
// during the walk.
//
// Per-file rules (ids are what the output and the waiver syntax use):
//   raw-thread     Serving/core code (src/, except src/util/) must not
//                  spawn naked std::thread/std::jthread/std::async —
//                  concurrency goes through util::parallel_for or the
//                  AsyncAmIndex dispatchers.
//   raw-random     No rand()/srand()/std::random_device outside
//                  src/util/rng.* — determinism is a repo invariant
//                  (seeded SplitMix64 everywhere).
//   guarded-mutator  Every public AmIndex mutator definition
//                  (configure/store/insert/remove/update and the
//                  backend-state configure_composite/restore_state/
//                  compact) must call check_mutable and delegate to its
//                  do_* core — the template-method contract the async
//                  layer relies on.
//   ordinal-before-validate  Inside one function, an ordinal advance
//                  (++serial_ / serial_++ / query_serial_++ /
//                  ++query_serial_ / serial_ = next /
//                  query_serial_ = next) must come after a validate_*
//                  or check_* call (the repo's two validation-helper
//                  naming conventions) — a rejected request must never
//                  consume an ordinal.
//   pragma-expiry  A committed `#pragma GCC diagnostic` must sit under
//                  an #if with an upper compiler-version bound
//                  (`__GNUC__ < N`) within the 10 preceding lines, so
//                  suppressions expire instead of outliving the bug
//                  they worked around.
//   raw-file-io    Serving/encode/bench code (src/serve/, src/encode/,
//                  bench/) must not open files directly (fopen /
//                  std::ofstream / std::fstream) — bytes that must
//                  survive a crash (snapshots, WALs, BENCH_*.json) go
//                  through util::durable_file (atomic_write_file,
//                  AppendFile) and inherit its fsync discipline.
//   rejection-base  A class in src/serve/ must not derive directly from
//                  std::runtime_error / std::logic_error: typed request
//                  rejections derive from serve::RejectedRequest (so
//                  one catch sheds on every reason). Index-state errors
//                  that are deliberately not rejections (CorruptLog,
//                  SnapshotMismatch) carry a waiver explaining why.
//
// Repo-graph rules (directory scans only — a single-file invocation
// has no tree to build a model from):
//   layering-upward  An #include edge that points upward in the module
//                  DAG (util -> encode/device -> circuit -> core ->
//                  arch -> ml/csp/data/baseline -> serve ->
//                  bench/tools/examples/tests). Waivable per directed
//                  module edge in tools/layering.conf, never per file;
//                  a conf entry whose edge no longer exists is itself
//                  an error.
//   layering-cycle  The module include graph (waived edges included)
//                  contains a cycle.
//   lock-order-cycle  The union of declared ACQUIRED_BEFORE /
//                  ACQUIRED_AFTER edges and observed same-scope nested
//                  acquisitions is cyclic. Not waivable: a lock cycle
//                  is a deadlock, not a style choice.
//   lock-order-undeclared  A function acquires an annotated mutex
//                  while holding another, and no declared
//                  ACQUIRED_BEFORE path connects them. Waivable on the
//                  acquisition line for locks that cannot name their
//                  partner in an attribute (e.g. members of stack-local
//                  structs).
//   reject-reason-unmapped  A RejectReason enumerator without a
//                  to_string case, a to_string case for a name that is
//                  not an enumerator, or a RejectedRequest subclass
//                  that does not construct with a known enumerator.
//   orphan-failpoint  A failpoint_hit("site") under src/ whose name
//                  appears in neither crash sweep
//                  (tests/test_durable.cpp / tests/test_sharded.cpp):
//                  an untested crash point is a fault-injection hole.
//   stale-bench-label  A label committed in a BENCH_*.json that no
//                  bench emitter can produce from its string literals
//                  (directly or as a two-literal concatenation), a
//                  committed bench name with no emitter, or a CI
//                  bench_compare baseline that is not a committed
//                  BENCH_*.json.
//   stale-ci-label  A ctest -L/-LE pattern token in CI that matches no
//                  LABELS assignment in CMakeLists.txt — the filter
//                  would silently select nothing.
//   budget-overflow  More than 5 NOLINT markers across src/, or more
//                  than 8 ferex-lint waivers repo-wide. Suppressions
//                  are debt; the budget keeps the balance visible.
//
// Waiver: append `// ferex-lint: allow(<rule-id>)` on the offending
// line, with a justifying comment nearby. Waivers are part of the
// reviewed diff — that is the point. Only end-of-line waivers on code
// lines count against the waiver budget; a tag on a comment-only line
// is documentation.
//
// Usage: ferex_lint [options] [path...]   (default: current directory)
//   --json <file>     also write the full report as JSON
//   --explain <rule>  print the rationale for one rule id and exit
//   --lock-hierarchy  print the inferred global lock order (topological
//                     over declared+observed edges) before the report
// Directories are walked recursively; .*/_deps/lint_fixtures are
// skipped anywhere, build*/cmake-build* only at the root (so
// src/builder/ is linted while build trees are not), and .github is
// walked despite the dot (CI labels live there). Explicitly named
// files are always scanned.
// Exit codes: 0 clean, 1 violations found, 2 I/O or usage error.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Violation {
  std::string path;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// One string literal's content range in the raw text (quotes excluded).
struct Lit {
  std::size_t pos = 0;
  std::size_t len = 0;
};

/// Blanks comments and string/char literals (newlines kept, so
/// positions still map to line numbers). Token rules run on the result;
/// waiver detection runs on the raw text, where the comments live.
/// When `lits` is given, every string literal's content range is
/// recorded — the graph rules need literal values (failpoint names,
/// bench labels) and the budget counter needs to tell comments from
/// strings among the blanked regions.
std::string strip(const std::string& text, std::vector<Lit>* lits = nullptr) {
  std::string out = text;
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State state = State::kCode;
  std::string raw_delim;         // for R"delim( ... )delim"
  std::size_t lit_start = 0;     // content start of the open literal
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = ' ';
        } else if (c == 'R' && next == '"' && (i == 0 || !is_ident(text[i - 1]))) {
          // R"delim( — capture the delimiter so the close matches.
          std::size_t p = i + 2;
          raw_delim.clear();
          while (p < text.size() && text[p] != '(') raw_delim += text[p++];
          lit_start = p + 1;
          state = State::kRaw;
        } else if (c == '"') {
          lit_start = i + 1;
          state = State::kString;
        } else if (c == '\'' && (i == 0 || !is_ident(text[i - 1]))) {
          state = State::kChar;
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            if (i + 1 < text.size()) out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          if (lits != nullptr) lits->push_back({lit_start, i - lit_start});
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < text.size()) out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kRaw: {
        const std::string close = ")" + raw_delim + "\"";
        if (text.compare(i, close.size(), close) == 0) {
          if (lits != nullptr) lits->push_back({lit_start, i - lit_start});
          for (std::size_t k = 0; k < close.size(); ++k) out[i + k] = ' ';
          i += close.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

std::size_t line_of(const std::string& text, std::size_t pos) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() + static_cast<long>(pos),
                            '\n'));
}

/// The raw source line `line` (1-based), for waiver checks and reports.
std::string raw_line(const std::string& text, std::size_t line) {
  std::size_t start = 0;
  for (std::size_t l = 1; l < line; ++l) {
    start = text.find('\n', start);
    if (start == std::string::npos) return "";
    ++start;
  }
  const std::size_t end = text.find('\n', start);
  return text.substr(start, end == std::string::npos ? end : end - start);
}

bool waived(const std::string& raw, std::size_t line, const std::string& rule) {
  const std::string tag = "ferex-lint: allow(" + rule + ")";
  return raw_line(raw, line).find(tag) != std::string::npos;
}

struct FileCheck {
  const std::string& path;     ///< forward-slash path, used for scoping
  const std::string& raw;      ///< original text (waivers, line lookup)
  const std::string& code;     ///< comment/string-stripped text
  std::vector<Violation>& out;

  void report(std::size_t pos, const char* rule, std::string message) const {
    const std::size_t line = line_of(code, pos);
    if (waived(raw, line, rule)) return;
    out.push_back({path, line, rule, std::move(message)});
  }

  bool in(const char* fragment) const {
    return path.find(fragment) != std::string::npos;
  }
};

// ------------------------------------------------------------ raw-thread --
void check_raw_thread(const FileCheck& f) {
  if (!f.in("src/") || f.in("src/util/")) return;
  static constexpr std::string_view kTokens[] = {"std::thread", "std::jthread",
                                                 "std::async"};
  for (const auto token : kTokens) {
    for (std::size_t pos = f.code.find(token); pos != std::string::npos;
         pos = f.code.find(token, pos + 1)) {
      if (pos > 0 && is_ident(f.code[pos - 1])) continue;
      const std::size_t after = pos + token.size();
      if (after < f.code.size() && is_ident(f.code[after])) continue;
      // std::thread::hardware_concurrency is a capability query, not a
      // spawn — static member access stays legal.
      if (f.code.compare(after, 2, "::") == 0) continue;
      f.report(pos, "raw-thread",
               std::string(token) +
                   " outside src/util/ — use util::parallel_for or the "
                   "serving dispatchers");
    }
  }
}

// ------------------------------------------------------------ raw-random --
void check_raw_random(const FileCheck& f) {
  if (f.in("src/util/rng")) return;
  static constexpr std::string_view kTokens[] = {
      "std::random_device", "std::rand", "std::srand", "srand", "rand"};
  for (const auto token : kTokens) {
    for (std::size_t pos = f.code.find(token); pos != std::string::npos;
         pos = f.code.find(token, pos + 1)) {
      if (pos > 0 && (is_ident(f.code[pos - 1]) || f.code[pos - 1] == ':')) {
        continue;  // part of a longer identifier, or already matched
                   // via the std::-qualified token
      }
      const std::size_t after = pos + token.size();
      if (after < f.code.size() && is_ident(f.code[after])) continue;
      // Bare rand/srand must be a call to count (a local named `rand`
      // would be questionable style but is not this rule's business).
      if (token == "srand" || token == "rand") {
        std::size_t p = after;
        while (p < f.code.size() &&
               std::isspace(static_cast<unsigned char>(f.code[p])) != 0) {
          ++p;
        }
        if (p >= f.code.size() || f.code[p] != '(') continue;
      }
      f.report(pos, "raw-random",
               std::string(token) +
                   " outside src/util/rng — all randomness is seeded "
                   "through util::SplitMix64");
    }
  }
}

// ------------------------------------------------------- guarded-mutator --
void check_guarded_mutator(const FileCheck& f) {
  if (f.path.size() < 4 || f.path.compare(f.path.size() - 4, 4, ".cpp") != 0) {
    return;
  }
  static constexpr std::string_view kOps[] = {
      "configure",           "store",         "insert", "remove", "update",
      "configure_composite", "restore_state", "compact"};
  for (const auto op : kOps) {
    const std::string needle = "AmIndex::" + std::string(op) + "(";
    for (std::size_t pos = f.code.find(needle); pos != std::string::npos;
         pos = f.code.find(needle, pos + 1)) {
      // Boundary: excludes AsyncAmIndex:: and any FooAmIndex:: wrapper.
      if (pos > 0 && is_ident(f.code[pos - 1])) continue;
      // Definition (next structural token is '{') vs declaration/call.
      std::size_t p = pos + needle.size();
      int parens = 1;
      while (p < f.code.size() && parens > 0) {
        if (f.code[p] == '(') ++parens;
        if (f.code[p] == ')') --parens;
        ++p;
      }
      while (p < f.code.size() && f.code[p] != '{' && f.code[p] != ';') ++p;
      if (p >= f.code.size() || f.code[p] != '{') continue;
      const std::size_t body_open = p;
      int braces = 1;
      ++p;
      while (p < f.code.size() && braces > 0) {
        if (f.code[p] == '{') ++braces;
        if (f.code[p] == '}') --braces;
        ++p;
      }
      const std::string_view body(f.code.data() + body_open, p - body_open);
      const std::string core = "do_" + std::string(op);
      const bool has_guard = body.find("check_mutable") != std::string_view::npos;
      const bool has_core = body.find(core) != std::string_view::npos;
      if (!has_guard || !has_core) {
        f.report(pos, "guarded-mutator",
                 "AmIndex::" + std::string(op) + " must call check_mutable " +
                     "and delegate to " + core +
                     " (template-method write contract)");
      }
    }
  }
}

// ----------------------------------------------- ordinal-before-validate --
/// True when the '{' at `pos` opens a function (or lambda) body rather
/// than a class/namespace/enum/control-statement/initializer block.
bool opens_function(const std::string& code, std::size_t pos) {
  std::size_t p = pos;
  static constexpr std::string_view kSkippable[] = {"const", "noexcept",
                                                    "override", "final",
                                                    "mutable"};
  for (;;) {
    while (p > 0 &&
           std::isspace(static_cast<unsigned char>(code[p - 1])) != 0) {
      --p;
    }
    if (p == 0) return false;
    const char c = code[p - 1];
    if (is_ident(c)) {
      std::size_t start = p;
      while (start > 0 && is_ident(code[start - 1])) --start;
      const std::string_view word(code.data() + start, p - start);
      bool skip = false;
      for (const auto s : kSkippable) skip = skip || word == s;
      if (!skip) return false;  // struct/namespace name, else/do/try, ...
      p = start;
      continue;
    }
    if (c == ')') {
      // Walk back over the parameter list; a control-flow keyword in
      // front of the '(' means this is if/for/while/switch/catch.
      int parens = 0;
      while (p > 0) {
        --p;
        if (code[p] == ')') ++parens;
        if (code[p] == '(') {
          --parens;
          if (parens == 0) break;
        }
      }
      while (p > 0 &&
             std::isspace(static_cast<unsigned char>(code[p - 1])) != 0) {
        --p;
      }
      std::size_t start = p;
      while (start > 0 && is_ident(code[start - 1])) --start;
      const std::string_view word(code.data() + start, p - start);
      static constexpr std::string_view kControl[] = {"if", "for", "while",
                                                      "switch", "catch"};
      for (const auto k : kControl) {
        if (word == k) return false;
      }
      return true;  // function definition, ctor init entry, or lambda
    }
    return false;  // '=', ',', '{', ':', ... — aggregate or scope block
  }
}

void check_ordinal_before_validate(const FileCheck& f) {
  if (!f.in("src/")) return;
  const std::string& code = f.code;

  struct Frame {
    bool is_function = false;
    bool validated = false;
  };
  std::vector<Frame> stack;
  const auto innermost_function = [&]() -> Frame* {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->is_function) return &*it;
    }
    return nullptr;
  };

  for (std::size_t pos = 0; pos < code.size(); ++pos) {
    const char c = code[pos];
    if (c == '{') {
      stack.push_back({opens_function(code, pos), false});
      continue;
    }
    if (c == '}') {
      if (!stack.empty()) stack.pop_back();
      continue;
    }
    if (!is_ident(c) || (pos > 0 && is_ident(code[pos - 1]))) continue;
    std::size_t end = pos;
    while (end < code.size() && is_ident(code[end])) ++end;
    const std::string_view word(code.data() + pos, end - pos);

    const bool is_validation_call =
        (word.size() >= 9 && word.substr(0, 9) == "validate_") ||
        (word.size() >= 6 && word.substr(0, 6) == "check_");
    if (is_validation_call) {
      // Mark the enclosing function and everything nested inside it.
      bool inside = false;
      for (auto& frame : stack) {
        inside = inside || frame.is_function;
        if (inside) frame.validated = true;
      }
    } else if (word == "serial_" || word == "query_serial_") {
      // An *advance* is ++x / x++ / x = next; plain reads are free.
      std::size_t before = pos;
      while (before > 0 &&
             std::isspace(static_cast<unsigned char>(code[before - 1])) != 0) {
        --before;
      }
      const bool pre_inc =
          before >= 2 && code[before - 1] == '+' && code[before - 2] == '+';
      std::size_t after = end;
      while (after < code.size() &&
             std::isspace(static_cast<unsigned char>(code[after])) != 0) {
        ++after;
      }
      const bool post_inc = code.compare(after, 2, "++") == 0;
      bool assign_next = false;
      if (after < code.size() && code[after] == '=' &&
          (after + 1 >= code.size() || code[after + 1] != '=')) {
        std::size_t rhs = after + 1;
        while (rhs < code.size() &&
               std::isspace(static_cast<unsigned char>(code[rhs])) != 0) {
          ++rhs;
        }
        assign_next = code.compare(rhs, 4, "next") == 0 &&
                      (rhs + 4 >= code.size() || !is_ident(code[rhs + 4]));
      }
      if (pre_inc || post_inc || assign_next) {
        Frame* fn = innermost_function();
        if (fn != nullptr && !fn->validated) {
          f.report(pos, "ordinal-before-validate",
                   std::string(word) +
                       " advanced before any validate_*/check_mutable call "
                       "in this function — rejected requests must not "
                       "consume ordinals");
        }
      }
    }
    pos = end - 1;
  }
}

// ----------------------------------------------------------- raw-file-io --
void check_raw_file_io(const FileCheck& f) {
  // bench/ is covered too: a bench killed mid-write must never leave a
  // torn BENCH_*.json for bench_compare to reject — emitters go through
  // util::atomic_write_file like every other durable writer.
  if (!f.in("src/serve/") && !f.in("src/encode/") && !f.in("bench/")) return;
  // ifstream (read-only) stays legal: the rule protects the write path,
  // where a missed fsync turns a crash into silent data loss.
  static constexpr std::string_view kTokens[] = {"fopen", "ofstream",
                                                 "fstream"};
  for (const auto token : kTokens) {
    for (std::size_t pos = f.code.find(token); pos != std::string::npos;
         pos = f.code.find(token, pos + 1)) {
      if (pos > 0 && is_ident(f.code[pos - 1])) continue;  // ifstream, ...
      const std::size_t after = pos + token.size();
      if (after < f.code.size() && is_ident(f.code[after])) continue;
      f.report(pos, "raw-file-io",
               std::string(token) +
                   " under src/serve|src/encode|bench — durable bytes go "
                   "through util::durable_file (atomic_write_file / "
                   "AppendFile)");
    }
  }
}

// -------------------------------------------------------- rejection-base --
void check_rejection_base(const FileCheck& f) {
  if (!f.in("src/serve/")) return;
  static constexpr std::string_view kBases[] = {"std::runtime_error",
                                                "std::logic_error"};
  static constexpr std::string_view kBaseKeywords[] = {"public", "protected",
                                                       "private", "virtual"};
  for (const auto base : kBases) {
    for (std::size_t pos = f.code.find(base); pos != std::string::npos;
         pos = f.code.find(base, pos + 1)) {
      if (pos > 0 && is_ident(f.code[pos - 1])) continue;
      // A base-clause use is followed by '{' or ',' (the class body or
      // the next base); a constructor-init or throw is followed by '('.
      std::size_t after = pos + base.size();
      while (after < f.code.size() &&
             std::isspace(static_cast<unsigned char>(f.code[after])) != 0) {
        ++after;
      }
      if (after >= f.code.size() ||
          (f.code[after] != '{' && f.code[after] != ',')) {
        continue;
      }
      // Walk back over access/virtual keywords to the ':' or ',' that
      // introduces the base list.
      std::size_t p = pos;
      for (;;) {
        while (p > 0 &&
               std::isspace(static_cast<unsigned char>(f.code[p - 1])) != 0) {
          --p;
        }
        if (p == 0) break;
        if (is_ident(f.code[p - 1])) {
          std::size_t start = p;
          while (start > 0 && is_ident(f.code[start - 1])) --start;
          const std::string_view word(f.code.data() + start, p - start);
          bool keyword = false;
          for (const auto k : kBaseKeywords) keyword = keyword || word == k;
          if (!keyword) break;
          p = start;
          continue;
        }
        break;
      }
      if (p == 0 || (f.code[p - 1] != ':' && f.code[p - 1] != ',')) continue;
      f.report(pos, "rejection-base",
               "class in src/serve/ derives directly from " +
                   std::string(base) +
                   " — typed rejections derive from serve::RejectedRequest "
                   "(waive only for non-rejection state errors)");
    }
  }
}

// --------------------------------------------------------- pragma-expiry --
void check_pragma_expiry(const FileCheck& f) {
  const std::string needle = "#pragma";
  for (std::size_t pos = f.code.find(needle); pos != std::string::npos;
       pos = f.code.find(needle, pos + 1)) {
    const std::size_t line = line_of(f.code, pos);
    if (raw_line(f.raw, line).find("GCC diagnostic") == std::string::npos) {
      continue;
    }
    bool has_if = false;
    bool has_upper_bound = false;
    const std::size_t first =
        line > 10 ? line - 10 : static_cast<std::size_t>(1);
    for (std::size_t l = first; l < line; ++l) {
      const std::string above = raw_line(f.raw, l);
      has_if = has_if || above.find("#if") != std::string::npos;
      const std::size_t g = above.find("__GNUC__");
      if (g != std::string::npos) {
        std::size_t p = g + std::string_view("__GNUC__").size();
        while (p < above.size() &&
               std::isspace(static_cast<unsigned char>(above[p])) != 0) {
          ++p;
        }
        if (p < above.size() && above[p] == '<') has_upper_bound = true;
      }
    }
    if (!has_if || !has_upper_bound) {
      f.report(pos, "pragma-expiry",
               "#pragma GCC diagnostic without a version-bounded guard "
               "(#if ... __GNUC__ < N) in the 10 lines above — "
               "suppressions must expire");
    }
  }
}

// ===================================================== phase-1 repo model --

/// A mutex named in source: the declaring class ("" at namespace scope)
/// plus the member name. The pair is the node identity in the lock
/// graph — the repo has three distinct `submit_mutex_`s.
struct LockSite {
  std::string cls;
  std::string name;

  bool operator==(const LockSite& o) const {
    return cls == o.cls && name == o.name;
  }
  bool operator<(const LockSite& o) const {
    return cls != o.cls ? cls < o.cls : name < o.name;
  }
  std::string str() const { return cls.empty() ? name : cls + "::" + name; }
};

struct MutexDecl {
  LockSite id;
  std::string path;
  std::size_t line = 0;
  std::vector<std::string> before;  ///< ACQUIRED_BEFORE arg names (unresolved)
  std::vector<std::string> after;   ///< ACQUIRED_AFTER arg names
};

/// One nested acquisition: `to` taken while `from`'s RAII scope is open.
struct ObservedEdge {
  LockSite from;
  LockSite to;
  std::string path;
  std::size_t line = 0;
  std::string func;
  bool waived = false;  ///< lock-order-undeclared waiver on the line
};

struct SiteRef {
  std::string text;
  std::string path;
  std::size_t line = 0;
  bool waived = false;
};

struct Subclass {
  std::string name;
  std::string reason;  ///< first RejectReason::<x> in the body; "" if none
  std::string path;
  std::size_t line = 0;
};

struct BenchJson {
  std::string path;
  std::string name;  ///< the "bench" value; "" when the key is absent
  std::size_t name_line = 1;
  std::vector<SiteRef> labels;
};

struct Model {
  std::vector<MutexDecl> mutexes;
  std::vector<ObservedEdge> observed;
  std::vector<SiteRef> failpoints;     ///< src/ failpoint_hit sites
  std::set<std::string> sweep_names;   ///< literals in the crash sweeps
  int sweep_files = 0;
  bool reject_enum = false;
  std::vector<SiteRef> enumerators;    ///< RejectReason enumerators
  std::vector<SiteRef> reason_cases;   ///< `case RejectReason::x` labels
  std::vector<Subclass> subclasses;    ///< RejectedRequest derivations
  // (from-module, to-module) -> first include site
  std::map<std::pair<std::string, std::string>, std::pair<std::string, std::size_t>>
      module_edges;
  std::map<std::string, std::set<std::string>> bench_literals;  ///< bench/*.cpp
  std::vector<BenchJson> bench_jsons;
  std::set<std::string> cmake_labels;
  std::vector<SiteRef> ci_tokens;      ///< ctest -L/-LE pattern alternatives
  std::vector<SiteRef> ci_bench_refs;  ///< bench_compare BENCH_*.json args
  std::vector<SiteRef> nolints;        ///< NOLINT markers under src/
  std::vector<SiteRef> waivers;        ///< end-of-line ferex-lint waivers
  std::size_t files_scanned = 0;
  bool dir_scanned = false;
};

std::size_t skip_ws(const std::string& code, std::size_t p) {
  while (p < code.size() &&
         std::isspace(static_cast<unsigned char>(code[p])) != 0) {
    ++p;
  }
  return p;
}

/// Last identifier token in `text` — the terminal name of expressions
/// like `job.error_mutex` or `shard->mu_`.
std::string terminal_ident(std::string_view text) {
  std::size_t end = text.size();
  while (end > 0 && !is_ident(text[end - 1])) --end;
  std::size_t start = end;
  while (start > 0 && is_ident(text[start - 1])) --start;
  return std::string(text.substr(start, end - start));
}

bool all_caps(std::string_view word) {
  if (word.empty()) return false;
  for (const char c : word) {
    if (std::isupper(static_cast<unsigned char>(c)) == 0 && c != '_' &&
        std::isdigit(static_cast<unsigned char>(c)) == 0) {
      return false;
    }
  }
  return true;
}

/// Qualified name of the function whose body opens at `pos` (a '{' for
/// which opens_function() held). Walks back over trailing qualifiers
/// and thread-safety attribute macros to the parameter list, then
/// collects the `A::B::name` chain. "" for lambdas.
std::string function_name_at(const std::string& code, std::size_t pos) {
  std::size_t p = pos;
  static constexpr std::string_view kSkippable[] = {"const", "noexcept",
                                                    "override", "final",
                                                    "mutable"};
  int attribute_hops = 0;
  for (;;) {
    while (p > 0 &&
           std::isspace(static_cast<unsigned char>(code[p - 1])) != 0) {
      --p;
    }
    if (p == 0) return "";
    const char c = code[p - 1];
    if (is_ident(c)) {
      std::size_t start = p;
      while (start > 0 && is_ident(code[start - 1])) --start;
      const std::string_view word(code.data() + start, p - start);
      bool skip = false;
      for (const auto s : kSkippable) skip = skip || word == s;
      if (!skip) return "";
      p = start;
      continue;
    }
    if (c != ')') return "";
    int parens = 0;
    while (p > 0) {
      --p;
      if (code[p] == ')') ++parens;
      if (code[p] == '(') {
        --parens;
        if (parens == 0) break;
      }
    }
    while (p > 0 &&
           std::isspace(static_cast<unsigned char>(code[p - 1])) != 0) {
      --p;
    }
    std::size_t end = p;
    std::size_t start = p;
    while (start > 0 && is_ident(code[start - 1])) --start;
    const std::string_view word(code.data() + start, end - start);
    if (word.empty()) return "";  // lambda: '(' directly after ']'
    // REQUIRES(mu) / ACQUIRE(mu) / ... sit between the parameter list
    // and the body; hop over at most a couple of them.
    if (all_caps(word) && attribute_hops < 3) {
      ++attribute_hops;
      p = start;
      continue;
    }
    std::string name(word);
    p = start;
    while (p >= 2 && code[p - 1] == ':' && code[p - 2] == ':') {
      p -= 2;
      std::size_t qe = p;
      std::size_t qs = p;
      while (qs > 0 && is_ident(code[qs - 1])) --qs;
      if (qs == qe) break;
      name = std::string(code, qs, qe - qs) + "::" + name;
      p = qs;
    }
    if (p > 0 && code[p - 1] == '~') name = "~" + name;
    return name;
  }
}

enum class FrameKind { kFunction, kClass, kNamespace, kBlock };

struct ScopeFrame {
  FrameKind kind = FrameKind::kBlock;
  std::string name;
  std::vector<LockSite> locks;  ///< RAII locks acquired in this scope
};

/// Classifies the '{' at `pos`: function body (via opens_function),
/// class/struct body, namespace, or plain block. The class name is the
/// last identifier before the base-list ':' (or before the brace),
/// which sees through attribute macros like CAPABILITY("mutex").
ScopeFrame classify_scope(const std::string& code, std::size_t pos) {
  if (opens_function(code, pos)) {
    return {FrameKind::kFunction, function_name_at(code, pos), {}};
  }
  std::size_t begin = pos;
  while (begin > 0 && code[begin - 1] != ';' && code[begin - 1] != '{' &&
         code[begin - 1] != '}') {
    --begin;
  }
  const std::string_view span(code.data() + begin, pos - begin);
  // Tokenize the statement head looking for the introducing keyword.
  bool is_class = false;
  bool is_namespace = false;
  bool is_enum = false;
  std::size_t name_end_limit = span.size();
  for (std::size_t i = 0; i < span.size(); ++i) {
    if (!is_ident(span[i]) || (i > 0 && is_ident(span[i - 1]))) continue;
    std::size_t e = i;
    while (e < span.size() && is_ident(span[e])) ++e;
    const std::string_view word = span.substr(i, e - i);
    if (word == "enum") is_enum = true;
    if ((word == "class" || word == "struct") && !is_enum) is_class = true;
    if (word == "namespace") is_namespace = true;
    i = e - 1;
  }
  if (is_enum || (!is_class && !is_namespace)) {
    return {FrameKind::kBlock, "", {}};
  }
  // Cut the name search at the base-list ':' (single colon, not '::').
  for (std::size_t i = 0; i + 1 <= span.size(); ++i) {
    if (span[i] != ':') continue;
    const bool dbl = (i + 1 < span.size() && span[i + 1] == ':') ||
                     (i > 0 && span[i - 1] == ':');
    if (dbl) {
      ++i;
      continue;
    }
    name_end_limit = i;
    break;
  }
  std::string name;
  std::size_t i = name_end_limit;
  while (i > 0) {
    while (i > 0 && !is_ident(span[i - 1])) --i;
    std::size_t s = i;
    while (s > 0 && is_ident(span[s - 1])) --s;
    const std::string_view word = span.substr(s, i - s);
    if (word != "final" && word != "class" && word != "struct" &&
        word != "namespace") {
      name = std::string(word);
      break;
    }
    if (word == "class" || word == "struct" || word == "namespace") break;
    i = s;
  }
  return {is_namespace ? FrameKind::kNamespace : FrameKind::kClass, name, {}};
}

/// The class an acquisition/declaration at the current scope belongs
/// to: nearest class frame, else the `Cls` of the nearest enclosing
/// `Cls::method` out-of-line definition.
std::string enclosing_class(const std::vector<ScopeFrame>& stack) {
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->kind == FrameKind::kClass) return it->name;
    if (it->kind == FrameKind::kFunction) {
      const std::size_t sep = it->name.rfind("::");
      if (sep != std::string::npos) return it->name.substr(0, sep);
    }
  }
  return "";
}

std::string enclosing_function(const std::vector<ScopeFrame>& stack) {
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->kind == FrameKind::kFunction && !it->name.empty()) {
      return it->name;
    }
  }
  return "?";
}

/// Splits `Mutex a_, b_` attribute argument lists on top-level commas
/// and keeps each argument's terminal identifier.
void parse_attr_args(const std::string& code, std::size_t open_paren,
                     std::vector<std::string>& out) {
  std::size_t p = open_paren + 1;
  int depth = 1;
  std::size_t arg_start = p;
  while (p < code.size() && depth > 0) {
    const char c = code[p];
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if ((c == ',' && depth == 1) || (c == ')' && depth == 0)) {
      const std::string name = terminal_ident(
          std::string_view(code.data() + arg_start, p - arg_start));
      if (!name.empty()) out.push_back(name);
      arg_start = p + 1;
    }
    ++p;
  }
}

/// Phase-1 fact extraction for one C++ file. `rel` is the path the
/// model keys scopes on: root-relative for walked files, the path as
/// given for explicit file arguments.
void extract_facts(const std::string& rel, const std::string& display,
                   const std::string& raw, const std::string& code,
                   const std::vector<Lit>& lits, Model& model) {
  const bool in_src = rel.rfind("src/", 0) == 0;

  // --- include edges (module layering) -------------------------------
  // Includes live on preprocessor lines; the quoted path is blanked in
  // `code`, so read it from the raw text at each #include in code.
  static const std::set<std::string> kSrcModules = {
      "util", "encode", "device", "circuit", "core",    "arch",
      "ml",   "csp",    "data",   "baseline", "serve"};
  std::string from_module;
  if (in_src) {
    const std::size_t slash = rel.find('/', 4);
    if (slash != std::string::npos) from_module = rel.substr(0, slash);
  } else {
    const std::size_t slash = rel.find('/');
    if (slash != std::string::npos) from_module = rel.substr(0, slash);
  }
  if (!from_module.empty()) {
    for (std::size_t pos = code.find("#include"); pos != std::string::npos;
         pos = code.find("#include", pos + 1)) {
      const std::size_t line = line_of(code, pos);
      const std::string src_line = raw_line(raw, line);
      const std::size_t q1 = src_line.find('"');
      if (q1 == std::string::npos) continue;  // <system> include
      const std::size_t q2 = src_line.find('"', q1 + 1);
      if (q2 == std::string::npos) continue;
      const std::string target = src_line.substr(q1 + 1, q2 - q1 - 1);
      const std::size_t slash = target.find('/');
      if (slash == std::string::npos) continue;  // local header
      const std::string head = target.substr(0, slash);
      if (kSrcModules.count(head) == 0) continue;
      const std::string to_module = "src/" + head;
      if (to_module == from_module) continue;
      model.module_edges.emplace(std::make_pair(from_module, to_module),
                                 std::make_pair(display, line));
    }
  }

  // --- literal-derived facts ------------------------------------------
  const auto literal_at = [&](std::size_t content_pos) -> const Lit* {
    for (const Lit& lit : lits) {
      if (lit.pos == content_pos) return &lit;
    }
    return nullptr;
  };
  const auto in_literal = [&](std::size_t pos) {
    for (const Lit& lit : lits) {
      if (pos >= lit.pos && pos < lit.pos + lit.len) return true;
    }
    return false;
  };

  if (rel == "tests/test_durable.cpp" || rel == "tests/test_sharded.cpp") {
    ++model.sweep_files;
    for (const Lit& lit : lits) {
      model.sweep_names.insert(raw.substr(lit.pos, lit.len));
    }
  }
  if (rel.rfind("bench/", 0) == 0 && rel.size() > 4 &&
      rel.compare(rel.size() - 4, 4, ".cpp") == 0) {
    auto& set = model.bench_literals[display];
    for (const Lit& lit : lits) set.insert(raw.substr(lit.pos, lit.len));
  }

  // --- budget counters -------------------------------------------------
  // A blanked position that is not literal content is a comment. NOLINT
  // counts wherever it appears in a src/ comment; a waiver counts only
  // as the end-of-line comment of a code line (matching how waived()
  // applies it — a tag on a comment-only line is documentation).
  if (in_src) {
    for (std::size_t pos = raw.find("NOLINT"); pos != std::string::npos;
         pos = raw.find("NOLINT", pos + 6)) {
      if (code[pos] == 'N' || in_literal(pos)) continue;
      model.nolints.push_back({"NOLINT", display, line_of(raw, pos), false});
    }
  }
  static constexpr std::string_view kWaiverTag = "ferex-lint: allow(";
  for (std::size_t pos = raw.find(kWaiverTag); pos != std::string::npos;
       pos = raw.find(kWaiverTag, pos + 1)) {
    if (code[pos] == 'f' || in_literal(pos)) continue;
    const std::size_t line = line_of(raw, pos);
    std::size_t line_start = pos;
    while (line_start > 0 && raw[line_start - 1] != '\n') --line_start;
    bool has_code = false;
    for (std::size_t p = line_start; p < pos; ++p) {
      if (std::isspace(static_cast<unsigned char>(code[p])) == 0) {
        has_code = true;
        break;
      }
    }
    if (has_code) model.waivers.push_back({"waiver", display, line, false});
  }

  // --- scope-tracked token scan ---------------------------------------
  std::vector<ScopeFrame> stack;
  for (std::size_t pos = 0; pos < code.size(); ++pos) {
    const char c = code[pos];
    if (c == '{') {
      stack.push_back(classify_scope(code, pos));
      continue;
    }
    if (c == '}') {
      if (!stack.empty()) stack.pop_back();
      continue;
    }
    if (!is_ident(c) || (pos > 0 && is_ident(code[pos - 1]))) continue;
    std::size_t end = pos;
    while (end < code.size() && is_ident(code[end])) ++end;
    const std::string_view word(code.data() + pos, end - pos);

    // Mutex member declaration: [util::]Mutex|SharedMutex <name> ...;
    if (word == "Mutex" || word == "SharedMutex") {
      // Reject foreign qualifiers (std:: etc.); util:: and unqualified
      // are the repo's two spellings.
      if (pos >= 2 && code[pos - 1] == ':' && code[pos - 2] == ':') {
        std::size_t qe = pos - 2;
        std::size_t qs = qe;
        while (qs > 0 && is_ident(code[qs - 1])) --qs;
        if (std::string_view(code.data() + qs, qe - qs) != "util") {
          pos = end - 1;
          continue;
        }
      }
      std::size_t p = skip_ws(code, end);
      if (p >= code.size() || !is_ident(code[p]) ||
          std::isdigit(static_cast<unsigned char>(code[p])) != 0) {
        pos = end - 1;
        continue;  // `Mutex&`, `Mutex {`, `Mutex)` — not a declaration
      }
      std::size_t name_end = p;
      while (name_end < code.size() && is_ident(code[name_end])) ++name_end;
      MutexDecl decl;
      decl.id.cls = enclosing_class(stack);
      decl.id.name = std::string(code, p, name_end - p);
      decl.path = display;
      decl.line = line_of(code, p);
      // Scan the rest of the declaration (to ';') for ordering
      // attributes.
      std::size_t q = name_end;
      while (q < code.size() && code[q] != ';' && code[q] != '{' &&
             code[q] != '}') {
        if (is_ident(code[q]) && (q == 0 || !is_ident(code[q - 1]))) {
          std::size_t we = q;
          while (we < code.size() && is_ident(code[we])) ++we;
          const std::string_view attr(code.data() + q, we - q);
          std::size_t paren = skip_ws(code, we);
          if (paren < code.size() && code[paren] == '(') {
            if (attr == "ACQUIRED_BEFORE") {
              parse_attr_args(code, paren, decl.before);
            } else if (attr == "ACQUIRED_AFTER") {
              parse_attr_args(code, paren, decl.after);
            }
          }
          q = we;
          continue;
        }
        ++q;
      }
      if (q < code.size() && code[q] == ';') model.mutexes.push_back(decl);
      pos = end - 1;
      continue;
    }

    // Scoped-lock acquisition: [util::]XxxMutexLock <var>(<expr>...);
    if (word == "MutexLock" || word == "ReaderMutexLock" ||
        word == "WriterMutexLock") {
      std::size_t p = skip_ws(code, end);
      if (p >= code.size() || !is_ident(code[p])) {
        pos = end - 1;
        continue;  // constructor declaration / deleted copy — no var
      }
      while (p < code.size() && is_ident(code[p])) ++p;
      p = skip_ws(code, p);
      if (p >= code.size() || code[p] != '(') {
        pos = end - 1;
        continue;
      }
      std::size_t arg_end = p + 1;
      int depth = 1;
      while (arg_end < code.size() && depth > 0) {
        if (code[arg_end] == '(') ++depth;
        if (code[arg_end] == ')') --depth;
        if (code[arg_end] == ',' && depth == 1) break;
        ++arg_end;
      }
      LockSite acquired;
      acquired.cls = enclosing_class(stack);
      acquired.name = terminal_ident(
          std::string_view(code.data() + p + 1, arg_end - p - 1));
      if (!acquired.name.empty() && !stack.empty()) {
        const std::size_t line = line_of(code, pos);
        const bool edge_waived =
            waived(raw, line, "lock-order-undeclared");
        const std::string func = enclosing_function(stack);
        for (const ScopeFrame& frame : stack) {
          for (const LockSite& held : frame.locks) {
            if (held == acquired) continue;
            model.observed.push_back(
                {held, acquired, display, line, func, edge_waived});
          }
        }
        stack.back().locks.push_back(acquired);
      }
      pos = end - 1;
      continue;
    }

    // Failpoint site: failpoint_hit("name") with a direct literal.
    if (word == "failpoint_hit" && in_src) {
      std::size_t p = skip_ws(code, end);
      if (p < code.size() && code[p] == '(') {
        const std::size_t q = skip_ws(code, p + 1);
        if (q < raw.size() && raw[q] == '"') {
          if (const Lit* lit = literal_at(q + 1)) {
            const std::size_t line = line_of(code, pos);
            model.failpoints.push_back({raw.substr(lit->pos, lit->len),
                                        display, line,
                                        waived(raw, line, "orphan-failpoint")});
          }
        }
      }
      pos = end - 1;
      continue;
    }

    // RejectReason: the enum definition, case labels, and other uses.
    if (word == "RejectReason") {
      // Preceding word decides: `enum class RejectReason` vs
      // `case RejectReason::x` vs a plain qualified use.
      std::size_t bp = pos;
      while (bp > 0 &&
             std::isspace(static_cast<unsigned char>(code[bp - 1])) != 0) {
        --bp;
      }
      std::size_t bs = bp;
      while (bs > 0 && is_ident(code[bs - 1])) --bs;
      const std::string_view prev(code.data() + bs, bp - bs);
      std::size_t p = skip_ws(code, end);
      if ((prev == "class" || prev == "struct" || prev == "enum") &&
          p < code.size() && code[p] != ';' &&
          !(code[p] == ':' && p + 1 < code.size() && code[p + 1] == ':')) {
        // Definition: collect enumerators up to the matching '}'. A
        // forward declaration ends in ';' before any '{' and has no
        // body to parse.
        const std::size_t open = code.find('{', end);
        const std::size_t semi = code.find(';', end);
        if (open != std::string::npos &&
            (semi == std::string::npos || open < semi)) {
          model.reject_enum = true;
          std::size_t q = open + 1;
          bool at_enumerator = true;
          while (q < code.size() && code[q] != '}') {
            if (at_enumerator && is_ident(code[q])) {
              std::size_t we = q;
              while (we < code.size() && is_ident(code[we])) ++we;
              model.enumerators.push_back({std::string(code, q, we - q),
                                           display, line_of(code, q), false});
              at_enumerator = false;
              q = we;
              continue;
            }
            if (code[q] == ',') at_enumerator = true;
            ++q;
          }
        }
      } else if (p + 1 < code.size() && code[p] == ':' && code[p + 1] == ':') {
        const std::size_t es = skip_ws(code, p + 2);
        std::size_t ee = es;
        while (ee < code.size() && is_ident(code[ee])) ++ee;
        if (ee > es && prev == "case") {
          model.reason_cases.push_back({std::string(code, es, ee - es),
                                        display, line_of(code, pos), false});
        }
      }
      pos = end - 1;
      continue;
    }

    // RejectedRequest used as a base class -> subclass record.
    if (word == "RejectedRequest") {
      std::size_t after = skip_ws(code, end);
      if (after >= code.size() ||
          (code[after] != '{' && code[after] != ',')) {
        pos = end - 1;
        continue;  // constructor-init, catch clause, forward decl, ...
      }
      // Confirm a base-clause introducer behind the access keywords.
      std::size_t bp = pos;
      bool base_clause = false;
      for (;;) {
        while (bp > 0 &&
               std::isspace(static_cast<unsigned char>(code[bp - 1])) != 0) {
          --bp;
        }
        if (bp == 0) break;
        if (is_ident(code[bp - 1])) {
          std::size_t bs = bp;
          while (bs > 0 && is_ident(code[bs - 1])) --bs;
          const std::string_view kw(code.data() + bs, bp - bs);
          if (kw != "public" && kw != "protected" && kw != "private" &&
              kw != "virtual") {
            break;
          }
          bp = bs;
          continue;
        }
        base_clause = code[bp - 1] == ':' || code[bp - 1] == ',';
        break;
      }
      if (!base_clause) {
        pos = end - 1;
        continue;
      }
      // Name the deriving class from its statement head.
      std::size_t begin = pos;
      while (begin > 0 && code[begin - 1] != ';' && code[begin - 1] != '{' &&
             code[begin - 1] != '}') {
        --begin;
      }
      const ScopeFrame head =
          classify_scope(code, pos);  // reuses the name heuristic
      std::string cls = head.name;
      if (cls.empty() || cls == "RejectedRequest") {
        pos = end - 1;
        continue;
      }
      // First RejectReason::<x> inside the class body is the mapping.
      std::size_t body_open = code.find('{', end);
      std::string reason;
      if (body_open != std::string::npos) {
        std::size_t q = body_open;
        int depth = 0;
        do {
          if (code[q] == '{') ++depth;
          if (code[q] == '}') --depth;
          ++q;
        } while (q < code.size() && depth > 0);
        const std::string_view body(code.data() + body_open, q - body_open);
        const std::size_t use = body.find("RejectReason");
        if (use != std::string_view::npos) {
          std::size_t rs = use + std::string_view("RejectReason").size();
          while (rs < body.size() &&
                 (body[rs] == ':' ||
                  std::isspace(static_cast<unsigned char>(body[rs])) != 0)) {
            ++rs;
          }
          std::size_t re = rs;
          while (re < body.size() && is_ident(body[re])) ++re;
          reason = std::string(body.substr(rs, re - rs));
        }
      }
      model.subclasses.push_back({cls, reason, display, line_of(code, pos)});
      pos = end - 1;
      continue;
    }

    pos = end - 1;
  }
}

// ====================================================== artifact scanners --

/// CTest label assignments: `LABELS serve)` / `LABELS "serve;write")`.
void scan_cmake(const std::string& text, Model& model) {
  for (std::size_t pos = text.find("LABELS"); pos != std::string::npos;
       pos = text.find("LABELS", pos + 6)) {
    if (pos > 0 && is_ident(text[pos - 1])) continue;
    std::size_t p = pos + 6;
    while (p < text.size() && text[p] != ')') {
      p = skip_ws(text, p);
      if (p >= text.size() || text[p] == ')') break;
      std::size_t e = p;
      if (text[p] == '"') {
        e = text.find('"', p + 1);
        if (e == std::string::npos) break;
        std::string quoted = text.substr(p + 1, e - p - 1);
        std::size_t start = 0;
        while (start <= quoted.size()) {
          const std::size_t semi = quoted.find(';', start);
          const std::string label = quoted.substr(
              start, semi == std::string::npos ? semi : semi - start);
          if (!label.empty()) model.cmake_labels.insert(label);
          if (semi == std::string::npos) break;
          start = semi + 1;
        }
        p = e + 1;
        continue;
      }
      while (e < text.size() &&
             std::isspace(static_cast<unsigned char>(text[e])) == 0 &&
             text[e] != ')') {
        ++e;
      }
      if (e > p) model.cmake_labels.insert(text.substr(p, e - p));
      p = e;
    }
  }
}

/// CI workflow: ctest -L/-LE "<a|b|c>" patterns and bench_compare
/// BENCH_*.json baseline references.
void scan_workflow(const std::string& display, const std::string& text,
                   Model& model) {
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    ++line_no;
    const std::size_t nl = text.find('\n', start);
    const std::string line =
        text.substr(start, nl == std::string::npos ? nl : nl - start);
    for (const std::string_view flag : {"-L \"", "-LE \""}) {
      const std::size_t fp = line.find(flag);
      if (fp == std::string::npos) continue;
      const std::size_t open = fp + flag.size();
      const std::size_t close = line.find('"', open);
      if (close == std::string::npos) continue;
      const std::string pattern = line.substr(open, close - open);
      std::size_t tok = 0;
      while (tok <= pattern.size()) {
        const std::size_t bar = pattern.find('|', tok);
        const std::string token = pattern.substr(
            tok, bar == std::string::npos ? bar : bar - tok);
        if (!token.empty()) {
          model.ci_tokens.push_back({token, display, line_no, false});
        }
        if (bar == std::string::npos) break;
        tok = bar + 1;
      }
    }
    if (line.find("bench_compare") != std::string::npos) {
      for (std::size_t bp = line.find("BENCH_"); bp != std::string::npos;
           bp = line.find("BENCH_", bp + 1)) {
        std::size_t e = bp + 6;
        while (e < line.size() && is_ident(line[e])) ++e;
        if (line.compare(e, 5, ".json") == 0 && e > bp + 6) {
          model.ci_bench_refs.push_back(
              {line.substr(bp, e + 5 - bp), display, line_no, false});
        }
      }
    }
    if (nl == std::string::npos) break;
    start = nl + 1;
  }
}

/// Committed BENCH_*.json: the "bench" name and every "label" value,
/// via a flat string scan (the schema is the repo's own emitter).
void scan_bench_json(const std::string& display, const std::string& text,
                     Model& model) {
  BenchJson snapshot;
  snapshot.path = display;
  std::string pending_key;
  bool value_next = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '"') continue;
    std::size_t e = i + 1;
    while (e < text.size() && text[e] != '"') {
      if (text[e] == '\\') ++e;
      ++e;
    }
    if (e >= text.size()) break;
    const std::string s = text.substr(i + 1, e - i - 1);
    // Key-ness first: a string VALUE can never be followed by ':' in
    // valid JSON, but a key whose value is a number or array leaves
    // value_next dangling — the next key must reclaim the slot.
    const std::size_t after = skip_ws(text, e + 1);
    if (after < text.size() && text[after] == ':') {
      pending_key = s;
      value_next = true;
    } else if (value_next) {
      if (pending_key == "bench" && snapshot.name.empty()) {
        snapshot.name = s;
        snapshot.name_line = line_of(text, i);
      } else if (pending_key == "label") {
        snapshot.labels.push_back({s, display, line_of(text, i), false});
      }
      value_next = false;
    }
    i = e;
  }
  model.bench_jsons.push_back(std::move(snapshot));
}

/// tools/layering.conf waiver entries: `allow <from> -> <to>  # why`.
struct LayerWaiver {
  std::string from;
  std::string to;
  std::string path;
  std::size_t line = 0;
  bool used = false;
};

std::vector<LayerWaiver> load_layering_conf(const fs::path& conf) {
  std::vector<LayerWaiver> waivers;
  std::ifstream in(conf);
  if (!in) return waivers;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream fields(line);
    std::string kw;
    std::string from;
    std::string arrow;
    std::string to;
    if (!(fields >> kw >> from >> arrow >> to)) continue;
    if (kw != "allow" || arrow != "->") continue;
    waivers.push_back({from, to, conf.generic_string(), line_no, false});
  }
  return waivers;
}

// ======================================================== phase-2 rules --

/// Module ranks of the layering DAG. An include edge to a strictly
/// higher rank points upward; same-rank edges are legal until they
/// close a cycle. Modules outside the map (fixture trees, future dirs)
/// are exempt from layering until ranked here.
const std::map<std::string, int>& module_ranks() {
  static const std::map<std::string, int> kRanks = {
      {"src/util", 0},    {"src/encode", 1},  {"src/device", 1},
      {"src/circuit", 2}, {"src/core", 3},    {"src/arch", 4},
      {"src/ml", 5},      {"src/csp", 5},     {"src/data", 5},
      {"src/baseline", 5}, {"src/serve", 6},  {"bench", 7},
      {"tools", 7},       {"examples", 7},    {"tests", 7}};
  return kRanks;
}

/// Generic cycle finder over a small adjacency map. Returns the first
/// cycle found as a node sequence `a, b, ..., a`, or empty.
template <typename Node>
std::vector<Node> find_cycle(const std::map<Node, std::set<Node>>& adj) {
  std::map<Node, int> color;  // 0 white, 1 on stack, 2 done
  std::vector<Node> path;
  std::vector<Node> cycle;
  const std::function<bool(const Node&)> dfs = [&](const Node& n) {
    color[n] = 1;
    path.push_back(n);
    const auto it = adj.find(n);
    if (it != adj.end()) {
      for (const Node& next : it->second) {
        const int c = color.count(next) ? color[next] : 0;
        if (c == 1) {
          const auto start = std::find(path.begin(), path.end(), next);
          cycle.assign(start, path.end());
          cycle.push_back(next);
          return true;
        }
        if (c == 0 && dfs(next)) return true;
      }
    }
    color[n] = 2;
    path.pop_back();
    return false;
  };
  for (const auto& [node, _] : adj) {
    if ((color.count(node) ? color[node] : 0) == 0 && dfs(node)) break;
  }
  return cycle;
}

void check_layering(const Model& model, std::vector<LayerWaiver>& conf,
                    std::vector<Violation>& out) {
  const auto& ranks = module_ranks();
  std::map<std::string, std::set<std::string>> adj;
  for (const auto& [edge, site] : model.module_edges) {
    const auto fr = ranks.find(edge.first);
    const auto tr = ranks.find(edge.second);
    if (fr == ranks.end() || tr == ranks.end()) continue;
    adj[edge.first].insert(edge.second);
    if (tr->second <= fr->second) continue;
    bool waived_edge = false;
    for (LayerWaiver& w : conf) {
      if (w.from == edge.first && w.to == edge.second) {
        w.used = true;
        waived_edge = true;
      }
    }
    if (waived_edge) continue;
    out.push_back(
        {site.first, site.second, "layering-upward",
         "include edge " + edge.first + " -> " + edge.second +
             " points upward in the module DAG (rank " +
             std::to_string(fr->second) + " -> " +
             std::to_string(tr->second) +
             ") — invert the dependency or waive this module edge in "
             "tools/layering.conf"});
  }
  // Waived edges stay in the graph: a waiver downgrades direction, it
  // does not license a cycle.
  const std::vector<std::string> cycle = find_cycle(adj);
  if (!cycle.empty()) {
    std::string chain = cycle.front();
    for (std::size_t i = 1; i < cycle.size(); ++i) chain += " -> " + cycle[i];
    const auto site = model.module_edges.at({cycle[0], cycle[1]});
    out.push_back({site.first, site.second, "layering-cycle",
                   "module include cycle: " + chain +
                       " — the layering DAG admits no back edges"});
  }
  for (const LayerWaiver& w : conf) {
    if (w.used) continue;
    out.push_back({w.path, w.line, "layering-upward",
                   "stale layering waiver " + w.from + " -> " + w.to +
                       ": no such include edge exists in the tree — "
                       "delete the entry (waivers rot)"});
  }
}

int resolve_lock(const std::vector<MutexDecl>& decls, const LockSite& site) {
  for (std::size_t i = 0; i < decls.size(); ++i) {
    if (decls[i].id == site) return static_cast<int>(i);
  }
  int found = -1;
  int count = 0;
  for (std::size_t i = 0; i < decls.size(); ++i) {
    if (decls[i].id.name == site.name) {
      found = static_cast<int>(i);
      ++count;
    }
  }
  return count == 1 ? found : -1;
}

/// One resolved edge of the lock graph, for the report and --json.
struct LockEdge {
  int from = -1;
  int to = -1;
  bool declared = false;
  bool observed = false;
  std::string path;  ///< a representative site
  std::size_t line = 0;
};

std::vector<LockEdge> build_lock_graph(const Model& model) {
  std::map<std::pair<int, int>, LockEdge> edges;
  for (std::size_t d = 0; d < model.mutexes.size(); ++d) {
    const MutexDecl& decl = model.mutexes[d];
    const auto add_declared = [&](int from, int to) {
      if (from < 0 || to < 0 || from == to) return;
      LockEdge& e = edges[{from, to}];
      e.from = from;
      e.to = to;
      e.declared = true;
      if (e.path.empty()) {
        e.path = decl.path;
        e.line = decl.line;
      }
    };
    for (const std::string& name : decl.before) {
      add_declared(static_cast<int>(d),
                   resolve_lock(model.mutexes, {decl.id.cls, name}));
    }
    for (const std::string& name : decl.after) {
      add_declared(resolve_lock(model.mutexes, {decl.id.cls, name}),
                   static_cast<int>(d));
    }
  }
  for (const ObservedEdge& o : model.observed) {
    const int from = resolve_lock(model.mutexes, o.from);
    const int to = resolve_lock(model.mutexes, o.to);
    if (from < 0 || to < 0 || from == to) continue;
    LockEdge& e = edges[{from, to}];
    e.from = from;
    e.to = to;
    // An observed site beats a declaration as the representative
    // anchor — it is where the nesting actually happens.
    if (!e.observed || e.path.empty()) {
      e.path = o.path;
      e.line = o.line;
    }
    e.observed = true;
  }
  std::vector<LockEdge> out;
  out.reserve(edges.size());
  for (const auto& [key, e] : edges) out.push_back(e);
  return out;
}

void check_lock_order(const Model& model, const std::vector<LockEdge>& edges,
                      std::vector<Violation>& out) {
  std::map<int, std::set<int>> all_adj;
  std::map<int, std::set<int>> declared_adj;
  for (const LockEdge& e : edges) {
    all_adj[e.from].insert(e.to);
    if (e.declared) declared_adj[e.from].insert(e.to);
  }
  const std::vector<int> cycle = find_cycle(all_adj);
  if (!cycle.empty()) {
    std::string chain = model.mutexes[cycle.front()].id.str();
    for (std::size_t i = 1; i < cycle.size(); ++i) {
      chain += " -> " + model.mutexes[cycle[i]].id.str();
    }
    std::string path = model.mutexes[cycle.front()].path;
    std::size_t line = model.mutexes[cycle.front()].line;
    for (const LockEdge& e : edges) {
      if (e.from == cycle[0] && e.to == cycle[1]) {
        path = e.path;
        line = e.line;
        break;
      }
    }
    out.push_back({path, line, "lock-order-cycle",
                   "lock-order cycle (declared + observed acquisitions): " +
                       chain + " — a consistent global hierarchy is the "
                       "deadlock-freedom argument"});
  }
  // Coverage: every observed nested pair must be reachable through the
  // declared ACQUIRED_BEFORE graph.
  const auto declared_path = [&](int from, int to) {
    std::vector<int> queue = {from};
    std::set<int> seen = {from};
    while (!queue.empty()) {
      const int n = queue.back();
      queue.pop_back();
      const auto it = declared_adj.find(n);
      if (it == declared_adj.end()) continue;
      for (const int next : it->second) {
        if (next == to) return true;
        if (seen.insert(next).second) queue.push_back(next);
      }
    }
    return false;
  };
  std::set<std::pair<int, int>> reported;
  for (const ObservedEdge& o : model.observed) {
    if (o.waived) continue;
    const int from = resolve_lock(model.mutexes, o.from);
    const int to = resolve_lock(model.mutexes, o.to);
    if (from < 0 || to < 0 || from == to) continue;
    if (declared_path(from, to)) continue;
    if (!reported.insert({from, to}).second) continue;
    out.push_back({o.path, o.line, "lock-order-undeclared",
                   o.func + " acquires " + model.mutexes[to].id.str() +
                       " while holding " + model.mutexes[from].id.str() +
                       " with no declared ACQUIRED_BEFORE path — declare "
                       "the edge on the mutex or waive with rationale"});
  }
}

void check_reject_reasons(const Model& model, std::vector<Violation>& out) {
  if (!model.reject_enum) return;
  std::set<std::string> enum_names;
  for (const SiteRef& e : model.enumerators) enum_names.insert(e.text);
  std::set<std::string> case_names;
  for (const SiteRef& c : model.reason_cases) case_names.insert(c.text);
  if (!model.reason_cases.empty()) {
    for (const SiteRef& e : model.enumerators) {
      if (case_names.count(e.text) != 0) continue;
      out.push_back({e.path, e.line, "reject-reason-unmapped",
                     "RejectReason::" + e.text +
                         " has no to_string case — every rejection reason "
                         "must print"});
    }
  }
  for (const SiteRef& c : model.reason_cases) {
    if (enum_names.count(c.text) != 0) continue;
    out.push_back({c.path, c.line, "reject-reason-unmapped",
                   "to_string handles RejectReason::" + c.text +
                       " which is not an enumerator"});
  }
  for (const Subclass& s : model.subclasses) {
    if (s.reason.empty()) {
      out.push_back({s.path, s.line, "reject-reason-unmapped",
                     "RejectedRequest subclass " + s.name +
                         " never names a RejectReason enumerator — typed "
                         "rejections carry their reason"});
    } else if (enum_names.count(s.reason) == 0) {
      out.push_back({s.path, s.line, "reject-reason-unmapped",
                     "RejectedRequest subclass " + s.name +
                         " maps to unknown RejectReason::" + s.reason});
    }
  }
}

void check_failpoints(const Model& model, std::vector<Violation>& out) {
  if (model.sweep_files == 0) return;
  for (const SiteRef& site : model.failpoints) {
    if (site.waived || model.sweep_names.count(site.text) != 0) continue;
    out.push_back({site.path, site.line, "orphan-failpoint",
                   "failpoint \"" + site.text +
                       "\" appears in neither crash sweep "
                       "(tests/test_durable.cpp / tests/test_sharded.cpp) — "
                       "an unswept crash point is untested"});
  }
}

/// A committed label is live when the emitter contains it verbatim or
/// as a two-literal concatenation (the emitters build labels like
/// "engine" + "_serve_sync").
bool label_emittable(const std::set<std::string>& lits,
                     const std::string& label) {
  if (lits.count(label) != 0) return true;
  for (std::size_t cut = 1; cut < label.size(); ++cut) {
    if (lits.count(label.substr(0, cut)) != 0 &&
        lits.count(label.substr(cut)) != 0) {
      return true;
    }
  }
  return false;
}

void check_bench_labels(const Model& model, std::vector<Violation>& out) {
  if (!model.bench_literals.empty() && !model.bench_jsons.empty()) {
    for (const BenchJson& json : model.bench_jsons) {
      const std::set<std::string>* emitter = nullptr;
      std::string emitter_path;
      if (!json.name.empty()) {
        for (const auto& [path, lits] : model.bench_literals) {
          if (lits.count(json.name) != 0) {
            emitter = &lits;
            emitter_path = path;
            break;
          }
        }
      }
      if (emitter == nullptr) {
        out.push_back({json.path, json.name_line, "stale-bench-label",
                       "no bench source declares bench name \"" + json.name +
                           "\" — the committed snapshot is orphaned"});
        continue;
      }
      for (const SiteRef& label : json.labels) {
        if (label_emittable(*emitter, label.text)) continue;
        out.push_back({label.path, label.line, "stale-bench-label",
                       "label \"" + label.text + "\" has no live emitter in " +
                           emitter_path +
                           " (no literal or two-literal concatenation "
                           "produces it) — the baseline can never be "
                           "refreshed"});
      }
    }
  }
  if (!model.ci_bench_refs.empty() && !model.bench_jsons.empty()) {
    std::set<std::string> committed;
    for (const BenchJson& json : model.bench_jsons) {
      committed.insert(fs::path(json.path).filename().string());
    }
    for (const SiteRef& ref : model.ci_bench_refs) {
      if (committed.count(ref.text) != 0) continue;
      out.push_back({ref.path, ref.line, "stale-bench-label",
                     "CI bench_compare gate references " + ref.text +
                         " which is not a committed snapshot at the repo "
                         "root"});
    }
  }
}

void check_ci_labels(const Model& model, std::vector<Violation>& out) {
  if (model.cmake_labels.empty() || model.ci_tokens.empty()) return;
  for (const SiteRef& token : model.ci_tokens) {
    if (model.cmake_labels.count(token.text) != 0) continue;
    out.push_back({token.path, token.line, "stale-ci-label",
                   "ctest pattern token \"" + token.text +
                       "\" matches no LABELS assignment in CMakeLists.txt — "
                       "the filter silently selects nothing"});
  }
}

constexpr std::size_t kNolintBudget = 5;
constexpr std::size_t kWaiverBudget = 8;

void check_budgets(Model& model, std::vector<Violation>& out) {
  const auto by_site = [](const SiteRef& a, const SiteRef& b) {
    return a.path != b.path ? a.path < b.path : a.line < b.line;
  };
  std::sort(model.nolints.begin(), model.nolints.end(), by_site);
  std::sort(model.waivers.begin(), model.waivers.end(), by_site);
  if (model.nolints.size() > kNolintBudget) {
    const SiteRef& over = model.nolints[kNolintBudget];
    out.push_back({over.path, over.line, "budget-overflow",
                   "NOLINT budget exceeded: " +
                       std::to_string(model.nolints.size()) +
                       " markers across src/ (budget " +
                       std::to_string(kNolintBudget) +
                       ") — retire one before adding another"});
  }
  if (model.waivers.size() > kWaiverBudget) {
    const SiteRef& over = model.waivers[kWaiverBudget];
    out.push_back({over.path, over.line, "budget-overflow",
                   "waiver budget exceeded: " +
                       std::to_string(model.waivers.size()) +
                       " ferex-lint waivers repo-wide (budget " +
                       std::to_string(kWaiverBudget) +
                       ") — retire one before adding another"});
  }
}

// ============================================================== outputs --

const std::map<std::string, std::string>& rule_docs() {
  static const std::map<std::string, std::string> kDocs = {
      {"raw-thread",
       "Serving/core code (src/, except src/util/) must not spawn naked\n"
       "std::thread / std::jthread / std::async. Concurrency goes through\n"
       "util::parallel_for or the AsyncAmIndex dispatchers so pool width,\n"
       "nesting, and shutdown stay centrally owned."},
      {"raw-random",
       "No rand()/srand()/std::random_device outside src/util/rng.*.\n"
       "Determinism is a repo invariant: every random draw is seeded\n"
       "SplitMix64, so any run is bit-replayable from its seed."},
      {"guarded-mutator",
       "Every public AmIndex mutator definition must call check_mutable and\n"
       "delegate to its do_* core. The async layer serializes writes by\n"
       "calling the cores directly; a mutator that skips the template\n"
       "method breaks that contract silently."},
      {"ordinal-before-validate",
       "Within one function, an ordinal advance (++serial_ etc.) must come\n"
       "after a validate_*/check_* call. A rejected request must never\n"
       "consume an ordinal, or replay diverges from the live run."},
      {"pragma-expiry",
       "A committed #pragma GCC diagnostic needs an upper compiler-version\n"
       "bound (#if ... __GNUC__ < N) within the 10 preceding lines, so the\n"
       "suppression expires instead of outliving the bug it hides."},
      {"raw-file-io",
       "src/serve, src/encode and bench/ must not open files directly\n"
       "(fopen / std::ofstream / std::fstream). Durable bytes go through\n"
       "util::durable_file and inherit its fsync-and-rename discipline."},
      {"rejection-base",
       "A class in src/serve/ must not derive directly from\n"
       "std::runtime_error / std::logic_error: typed request rejections\n"
       "derive from serve::RejectedRequest so one catch sheds on every\n"
       "reason. Waive only for non-rejection state errors."},
      {"layering-upward",
       "The module DAG orders util -> encode/device -> circuit -> core ->\n"
       "arch -> ml/csp/data/baseline -> serve -> bench/tools/examples/\n"
       "tests. An #include edge to a higher rank inverts the layering;\n"
       "invert the dependency (move the shared type down) or waive the\n"
       "directed module edge in tools/layering.conf with a rationale.\n"
       "Stale waivers are themselves errors."},
      {"layering-cycle",
       "The module include graph must stay acyclic, waived edges included:\n"
       "a waiver downgrades an edge's direction, it does not license a\n"
       "cycle. A cycle means two modules cannot be built, tested, or\n"
       "reasoned about independently."},
      {"lock-order-cycle",
       "The union of declared ACQUIRED_BEFORE/ACQUIRED_AFTER edges and\n"
       "observed same-scope nested acquisitions must be acyclic. An\n"
       "acyclic global hierarchy is the whole deadlock-freedom argument;\n"
       "this rule is deliberately not waivable."},
      {"lock-order-undeclared",
       "A function that acquires one annotated mutex while holding another\n"
       "creates an ordering fact; the fact must be declared via\n"
       "ACQUIRED_BEFORE on the mutex member so the hierarchy is readable\n"
       "at the declaration, not archaeology over call sites. Waive on the\n"
       "acquisition line when the attribute cannot name the partner (e.g.\n"
       "a stack-local struct's member), with a comment saying why."},
      {"reject-reason-unmapped",
       "RejectReason enumerators, to_string cases, and RejectedRequest\n"
       "subclasses must stay in bijection: every enumerator prints, every\n"
       "case is real, every subclass carries a known reason. A rejection\n"
       "that cannot name itself is undebuggable at the client."},
      {"orphan-failpoint",
       "Every failpoint_hit(\"site\") under src/ must appear in a crash\n"
       "sweep (tests/test_durable.cpp or tests/test_sharded.cpp). A crash\n"
       "point nobody injects is a recovery path nobody tests."},
      {"stale-bench-label",
       "Every label in a committed BENCH_*.json must be producible by the\n"
       "bench binary that owns the snapshot's bench name (a literal, or a\n"
       "two-literal concatenation), and every CI bench_compare baseline\n"
       "must be a committed snapshot. Otherwise the regression gate\n"
       "compares against numbers that can never be refreshed."},
      {"stale-ci-label",
       "Every ctest -L/-LE pattern token in CI must match a LABELS\n"
       "assignment in CMakeLists.txt. A stale token silently deselects the\n"
       "suite it was supposed to run."},
      {"budget-overflow",
       "At most 5 NOLINT markers across src/ and at most 8 ferex-lint\n"
       "waivers repo-wide. Suppressions are debt; the budgets keep the\n"
       "balance visible and force retiring one before adding another."},
  };
  return kDocs;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool write_json(const std::string& path, const Model& model,
                const std::vector<LockEdge>& lock_edges,
                const std::vector<Violation>& violations) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "ferex_lint: cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\n  \"tool\": \"ferex_lint\",\n  \"schema_version\": 2,\n";
  out << "  \"files_scanned\": " << model.files_scanned << ",\n";
  out << "  \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"path\": \"" << json_escape(v.path) << "\", \"line\": "
        << v.line << ", \"rule\": \"" << json_escape(v.rule)
        << "\", \"message\": \"" << json_escape(v.message) << "\"}";
  }
  out << (violations.empty() ? "],\n" : "\n  ],\n");
  out << "  \"budgets\": {\n"
      << "    \"nolint\": {\"count\": " << model.nolints.size()
      << ", \"limit\": " << kNolintBudget << "},\n"
      << "    \"waivers\": {\"count\": " << model.waivers.size()
      << ", \"limit\": " << kWaiverBudget << "}\n  },\n";
  out << "  \"lock_edges\": [";
  for (std::size_t i = 0; i < lock_edges.size(); ++i) {
    const LockEdge& e = lock_edges[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"from\": \"" << json_escape(model.mutexes[e.from].id.str())
        << "\", \"to\": \"" << json_escape(model.mutexes[e.to].id.str())
        << "\", \"declared\": " << (e.declared ? "true" : "false")
        << ", \"observed\": " << (e.observed ? "true" : "false") << "}";
  }
  out << (lock_edges.empty() ? "],\n" : "\n  ],\n");
  out << "  \"module_edges\": [";
  std::size_t i = 0;
  for (const auto& [edge, site] : model.module_edges) {
    out << (i++ == 0 ? "\n" : ",\n");
    out << "    {\"from\": \"" << json_escape(edge.first) << "\", \"to\": \""
        << json_escape(edge.second) << "\"}";
  }
  out << (model.module_edges.empty() ? "]\n}\n" : "\n  ]\n}\n");
  return out.good();
}

/// Prints the inferred lock hierarchy, topologically ordered when the
/// graph allows it (the README quotes this output verbatim).
void print_lock_hierarchy(const Model& model,
                          const std::vector<LockEdge>& edges) {
  std::map<int, std::set<int>> adj;
  std::map<int, int> indegree;
  for (const LockEdge& e : edges) {
    if (adj[e.from].insert(e.to).second) ++indegree[e.to];
    indegree.emplace(e.from, 0);
  }
  std::vector<int> order;
  std::vector<int> ready;
  for (const auto& [node, deg] : indegree) {
    if (deg == 0) ready.push_back(node);
  }
  while (!ready.empty()) {
    std::sort(ready.begin(), ready.end(), [&](int a, int b) {
      return model.mutexes[a].id.str() < model.mutexes[b].id.str();
    });
    const int n = ready.front();
    ready.erase(ready.begin());
    order.push_back(n);
    for (const int next : adj[n]) {
      if (--indegree[next] == 0) ready.push_back(next);
    }
  }
  std::printf("lock hierarchy (%zu edge%s):\n", edges.size(),
              edges.size() == 1 ? "" : "s");
  const auto print_edges_from = [&](int node) {
    for (const LockEdge& e : edges) {
      if (e.from != node) continue;
      const char* kind = e.declared && e.observed ? "declared+observed"
                         : e.declared            ? "declared"
                                                 : "observed";
      std::printf("  %s -> %s  [%s]\n", model.mutexes[e.from].id.str().c_str(),
                  model.mutexes[e.to].id.str().c_str(), kind);
    }
  };
  if (order.size() == indegree.size()) {
    for (const int node : order) print_edges_from(node);
  } else {
    std::printf("  (cyclic — no topological order exists)\n");
    for (const LockEdge& e : edges) {
      std::printf("  %s -> %s\n", model.mutexes[e.from].id.str().c_str(),
                  model.mutexes[e.to].id.str().c_str());
    }
  }
}

// --------------------------------------------------------------- driver --
bool read_text(const fs::path& file, std::string& out) {
  std::ifstream in(file);
  if (!in) {
    std::fprintf(stderr, "ferex_lint: cannot read %s\n", file.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

bool scan_file(const fs::path& file, const std::string& rel, Model& model,
               std::vector<Violation>& out) {
  std::string raw;
  if (!read_text(file, raw)) return false;
  std::vector<Lit> lits;
  const std::string code = strip(raw, &lits);
  const std::string path = file.generic_string();
  const FileCheck f{path, raw, code, out};
  check_raw_thread(f);
  check_raw_random(f);
  check_guarded_mutator(f);
  check_ordinal_before_validate(f);
  check_raw_file_io(f);
  check_rejection_base(f);
  check_pragma_expiry(f);
  extract_facts(rel, path, raw, code, lits, model);
  ++model.files_scanned;
  return true;
}

bool lintable(const fs::path& file) {
  const std::string ext = file.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

/// Directory-skip policy. The build*/cmake-build* prefix applies only
/// at the walk root: a nested src/builder/ is source, a top-level
/// build/ is not. Hidden directories are skipped except .github, where
/// the CI label patterns live.
bool skip_dir(const fs::path& dir, int depth) {
  const std::string name = dir.filename().string();
  if (name.empty()) return true;
  if (name[0] == '.' && name != ".github") return true;
  if (name == "_deps" || name == "lint_fixtures") return true;
  if (depth == 0 && (name.rfind("build", 0) == 0 ||
                     name.rfind("cmake-build", 0) == 0)) {
    return true;
  }
  return false;
}

bool scan(const fs::path& root, Model& model,
          std::vector<LayerWaiver>& layer_conf, std::vector<Violation>& out) {
  std::error_code ec;
  if (fs::is_regular_file(root, ec)) {
    return scan_file(root, root.generic_string(), model, out);
  }
  if (!fs::is_directory(root, ec)) {
    std::fprintf(stderr, "ferex_lint: no such file or directory: %s\n",
                 root.c_str());
    return false;
  }
  model.dir_scanned = true;
  if (layer_conf.empty()) {
    const fs::path conf = root / "tools" / "layering.conf";
    if (fs::is_regular_file(conf, ec)) {
      layer_conf = load_layering_conf(conf);
    }
  }
  bool ok = true;
  fs::recursive_directory_iterator it(root, ec);
  if (ec) {
    std::fprintf(stderr, "ferex_lint: cannot walk %s: %s\n", root.c_str(),
                 ec.message().c_str());
    return false;
  }
  for (const fs::recursive_directory_iterator end; it != end;
       it.increment(ec)) {
    if (ec) {
      std::fprintf(stderr, "ferex_lint: walk error under %s: %s\n",
                   root.c_str(), ec.message().c_str());
      return false;
    }
    if (it->is_directory() && skip_dir(it->path(), it.depth())) {
      it.disable_recursion_pending();
      continue;
    }
    if (!it->is_regular_file()) continue;
    const std::string rel =
        it->path().lexically_relative(root).generic_string();
    const std::string name = it->path().filename().string();
    const std::string ext = it->path().extension().string();
    if (lintable(it->path())) {
      ok = scan_file(it->path(), rel, model, out) && ok;
    } else if (name == "CMakeLists.txt") {
      std::string text;
      if (read_text(it->path(), text)) scan_cmake(text, model);
    } else if (rel.find(".github/workflows/") != std::string::npos &&
               (ext == ".yml" || ext == ".yaml")) {
      std::string text;
      if (read_text(it->path(), text)) {
        scan_workflow(it->path().generic_string(), text, model);
      }
    } else if (it.depth() == 0 && name.rfind("BENCH_", 0) == 0 &&
               ext == ".json") {
      std::string text;
      if (read_text(it->path(), text)) {
        scan_bench_json(it->path().generic_string(), text, model);
      }
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> roots;
  std::string json_path;
  std::string explain;
  bool show_hierarchy = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (++i >= argc) {
        std::fprintf(stderr, "ferex_lint: --json needs a file argument\n");
        return 2;
      }
      json_path = argv[i];
    } else if (arg == "--explain") {
      if (++i >= argc) {
        std::fprintf(stderr, "ferex_lint: --explain needs a rule id\n");
        return 2;
      }
      explain = argv[i];
    } else if (arg == "--lock-hierarchy") {
      show_hierarchy = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "ferex_lint: unknown option %s\n", arg.c_str());
      return 2;
    } else {
      roots.emplace_back(arg);
    }
  }
  if (!explain.empty()) {
    const auto& docs = rule_docs();
    const auto it = docs.find(explain);
    if (it == docs.end()) {
      std::fprintf(stderr, "ferex_lint: unknown rule id \"%s\"\n",
                   explain.c_str());
      std::fprintf(stderr, "known rules:\n");
      for (const auto& [rule, _] : docs) {
        std::fprintf(stderr, "  %s\n", rule.c_str());
      }
      return 2;
    }
    std::printf("%s\n\n%s\n", explain.c_str(), it->second.c_str());
    return 0;
  }
  if (roots.empty()) roots.emplace_back(".");

  Model model;
  std::vector<LayerWaiver> layer_conf;
  std::vector<Violation> violations;
  for (const auto& root : roots) {
    if (!scan(root, model, layer_conf, violations)) return 2;
  }
  std::vector<LockEdge> lock_edges = build_lock_graph(model);
  if (model.dir_scanned) {
    // Graph rules need a tree; a single explicit file is scanned with
    // the per-file rules only.
    check_layering(model, layer_conf, violations);
    check_lock_order(model, lock_edges, violations);
    check_reject_reasons(model, violations);
    check_failpoints(model, violations);
    check_bench_labels(model, violations);
    check_ci_labels(model, violations);
    check_budgets(model, violations);
  }
  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              return a.path != b.path ? a.path < b.path : a.line < b.line;
            });
  if (show_hierarchy) print_lock_hierarchy(model, lock_edges);
  for (const auto& v : violations) {
    std::printf("%s:%zu: %s: %s\n", v.path.c_str(), v.line, v.rule.c_str(),
                v.message.c_str());
  }
  if (!json_path.empty() &&
      !write_json(json_path, model, lock_edges, violations)) {
    return 2;
  }
  if (!violations.empty()) {
    std::printf("ferex_lint: %zu violation(s)\n", violations.size());
    return 1;
  }
  return 0;
}
