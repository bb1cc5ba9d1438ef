// Lint pass: per-file repo invariants the test suite cannot see —
// determinism hazards, hygiene, and API-contract rules. Low-rank-state
// optimizers are exactly where silent numeric corruption hides
// (projected-moment drift surfaces thousands of steps in), so these are
// machine-checked rather than left to code review.
//
//   raw-thread                std::thread / std::jthread / std::async /
//                             OpenMP outside core/threadpool.* — all
//                             parallelism must go through the deterministic
//                             fixed-partition pool.
//   raw-rng                   rand()/srand()/std::random_device/unseeded
//                             std::mt19937 outside tensor/rng.* — all
//                             randomness must be explicitly seeded.
//   raw-simd-intrinsic        `_mm*` intrinsic calls, `__m128/__m256/__m512/
//                             __mmask` vector types, or immintrin.h includes
//                             outside src/tensor/simd/ — all SIMD goes
//                             through the dispatched simd::KernelTable so
//                             the scalar fallback stays complete.
//   unordered-float-accum     float/double accumulation inside a range-for
//                             over a std::unordered_{map,set} — iteration
//                             order is unspecified, so the reduction is not
//                             reproducible.
//   pragma-once               every header carries #pragma once.
//   using-namespace-header    no `using namespace` in headers.
//   raw-new-delete            no raw new/delete (use containers or
//                             unique_ptr; `= delete` and placement-free
//                             code stay clean).
//   printf-float-precision    printf-family float conversions in src/ must
//                             pin an explicit precision (e.g. %.6g) so logs
//                             and CSV output are stable across libcs.
//   check-shape-preconditions function definitions in src/optim/ and
//                             src/core/ taking Matrix/ParamList/Parameter
//                             arguments must APOLLO_CHECK their
//                             preconditions (a per-function heuristic;
//                             constructors with init-lists, static helpers,
//                             anonymous namespaces, and bodies delegating to
//                             Optimizer::begin_step/end_step are exempt).
#include <cctype>
#include <cstring>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analyze/passes.h"

namespace analyze {

namespace {

using srcmodel::SourceFile;
using srcmodel::TokKind;
using srcmodel::Token;

class Linter {
 public:
  Linter(const SourceFile& sf, std::vector<Finding>& out)
      : sf_(sf), out_(out) {}

  void run() {
    rule_raw_thread();
    rule_raw_rng();
    rule_raw_simd_intrinsic();
    rule_unordered_float_accum();
    rule_pragma_once();
    rule_using_namespace_header();
    rule_raw_new_delete();
    rule_printf_float_precision();
    rule_check_shape_preconditions();
  }

 private:
  void emit(int line, const std::string& rule, const std::string& detail,
            const std::string& message) {
    if (sf_.allowed(line, rule)) return;
    out_.push_back({rule, sf_.display_path, line, detail, message});
  }

  // --- determinism ---------------------------------------------------------

  void rule_raw_thread() {
    if (sf_.path_contains("core/threadpool.")) return;
    const std::vector<Token>& t = sf_.tokens;
    int last_line = 0;
    auto hit = [&](size_t i, const std::string& what) {
      if (t[i].line == last_line) return;  // one diagnostic per line
      last_line = t[i].line;
      emit(t[i].line, "raw-thread", what,
           "raw threading primitive (" + what +
               "); route parallel work through core/threadpool.* so the "
               "determinism contract holds for any APOLLO_THREADS");
    };
    for (size_t i = 0; i < t.size(); ++i) {
      for (std::string_view name : {"thread", "jthread", "async"})
        if (srcmodel::match_seq(t, i, {"std", "::", name}))
          hit(i, "std::" + std::string(name));
      if (t[i].kind == TokKind::kHeaderName && t[i].text == "omp.h")
        hit(i, "omp.h");
      if (srcmodel::match_seq(t, i, {"#", "pragma", "omp"}))
        hit(i, "#pragma omp");
    }
  }

  void rule_raw_rng() {
    if (sf_.path_contains("tensor/rng.")) return;
    const std::vector<Token>& t = sf_.tokens;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent) continue;
      const std::string& name = t[i].text;
      // `rand` / `srand` / `drand48` only count as the C library call.
      const bool c_call = (name == "rand" || name == "srand" ||
                           name == "drand48") &&
                          i + 1 < t.size() && srcmodel::is_punct(t[i + 1], "(");
      if (c_call || name == "random_device") {
        emit(t[i].line, "raw-rng", name,
             "non-reproducible randomness (" + name +
                 "); all randomness must flow through the seeded "
                 "apollo::Rng (tensor/rng.*)");
        continue;
      }
      // Unseeded std::mt19937 / mt19937_64: engine declared with no ctor
      // argument draws an implementation-defined default seed.
      if (name == "mt19937" || name == "mt19937_64") {
        size_t j = i + 1;
        if (j < t.size() && t[j].kind == TokKind::kIdent) ++j;  // var name
        bool seeded = false;
        if (j < t.size() &&
            (srcmodel::is_punct(t[j], "(") || srcmodel::is_punct(t[j], "{"))) {
          const size_t close = srcmodel::match_forward(t, j);
          seeded = close != t.size() && close > j + 1;
        }
        if (!seeded) {
          emit(t[i].line, "raw-rng", name,
               "unseeded std::" + name +
                   "; seed explicitly, or better use apollo::Rng "
                   "(tensor/rng.*)");
        }
      }
    }
  }

  // Raw x86 intrinsics are confined to src/tensor/simd/: every other caller
  // must go through the dispatched KernelTable (tensor/simd/simd.h) so the
  // scalar fallback stays complete and the conformance harness covers every
  // code path that touches vector lanes.
  void rule_raw_simd_intrinsic() {
    if (sf_.path_contains("tensor/simd/")) return;
    const std::vector<Token>& t = sf_.tokens;
    int last_line = 0;
    for (size_t i = 0; i < t.size(); ++i) {
      std::string hit;
      if (t[i].kind == TokKind::kHeaderName &&
          (t[i].text == "immintrin.h" || t[i].text == "x86intrin.h"))
        hit = t[i].text;
      if (t[i].kind == TokKind::kIdent)
        for (std::string_view pre :
             {"__m128", "__m256", "__m512", "__mmask", "_mm"})
          if (t[i].text.rfind(pre, 0) == 0) hit = std::string(pre) + "*";
      if (hit.empty() || t[i].line == last_line) continue;
      last_line = t[i].line;
      emit(t[i].line, "raw-simd-intrinsic", hit,
           "raw SIMD intrinsic (" + hit +
               ") outside src/tensor/simd/; call through the dispatched "
               "simd::KernelTable (tensor/simd/simd.h) so the scalar "
               "reference and conformance harness cover this path");
    }
  }

  void rule_unordered_float_accum() {
    const std::vector<Token>& t = sf_.tokens;
    // Names of variables declared as unordered containers in this file.
    std::set<std::string> unordered_vars;
    for (size_t i = 0; i < t.size(); ++i) {
      if (!srcmodel::is_ident(t[i], "unordered_map") &&
          !srcmodel::is_ident(t[i], "unordered_set"))
        continue;
      if (i + 1 >= t.size() || !srcmodel::is_punct(t[i + 1], "<")) continue;
      const size_t gt = srcmodel::match_angle(t, i + 1);
      if (gt == t.size()) continue;
      // Declared name: first identifier after the closing `>` (skipping
      // reference qualifiers).
      size_t j = gt + 1;
      while (j < t.size() && srcmodel::is_punct(t[j], "&")) ++j;
      if (j < t.size() && t[j].kind == TokKind::kIdent)
        unordered_vars.insert(t[j].text);
    }
    if (unordered_vars.empty()) return;

    // Range-fors over one of those variables whose body accumulates into a
    // float/double: the reduction order is the container's (unspecified)
    // iteration order.
    for (size_t i = 0; i < t.size(); ++i) {
      if (!srcmodel::is_ident(t[i], "for") || i + 1 >= t.size() ||
          !srcmodel::is_punct(t[i + 1], "("))
        continue;
      const size_t head_open = i + 1;
      const size_t head_close = srcmodel::match_forward(t, head_open);
      if (head_close == t.size()) continue;
      // A range-for head has a top-level `:` and no `;`.
      size_t colon = t.size();
      bool classic = false;
      int depth = 0;
      for (size_t k = head_open + 1; k < head_close; ++k) {
        if (t[k].kind != TokKind::kPunct) continue;
        const std::string& p = t[k].text;
        if (p == "(" || p == "[" || p == "{") ++depth;
        if (p == ")" || p == "]" || p == "}") --depth;
        if (depth != 0) continue;
        if (p == ";") classic = true;
        if (p == ":" && colon == t.size()) colon = k;
      }
      if (classic || colon == t.size()) continue;
      if (colon + 1 >= head_close || t[colon + 1].kind != TokKind::kIdent)
        continue;
      const std::string range_var = t[colon + 1].text;
      if (!unordered_vars.count(range_var)) continue;
      // Loop body: either a braced block or a single statement.
      size_t body_begin = head_close + 1;
      if (body_begin >= t.size()) continue;
      size_t body_end;
      if (srcmodel::is_punct(t[body_begin], "{")) {
        body_end = srcmodel::match_forward(t, body_begin);
        if (body_end == t.size()) continue;
      } else {
        body_end = body_begin;
        while (body_end < t.size() && !srcmodel::is_punct(t[body_end], ";"))
          ++body_end;
      }
      // Accumulation targets: identifiers on the left of += / -= / *=.
      for (size_t k = body_begin; k < body_end; ++k) {
        if (t[k].kind != TokKind::kPunct ||
            (t[k].text != "+=" && t[k].text != "-=" && t[k].text != "*="))
          continue;
        if (k == 0 || t[k - 1].kind != TokKind::kIdent) continue;
        const std::string& target = t[k - 1].text;
        if (is_float_var(t, target)) {
          emit(t[k].line, "unordered-float-accum",
               target + " over " + range_var,
               "float accumulation into '" + target +
                   "' while iterating std::unordered container '" +
                   range_var +
                   "'; iteration order is unspecified, making the "
                   "reduction non-reproducible — iterate a sorted key "
                   "list instead");
        }
      }
    }
  }

  // `name` declared as float/double somewhere in the file?
  static bool is_float_var(const std::vector<Token>& t,
                           const std::string& name) {
    for (size_t i = 0; i + 1 < t.size(); ++i)
      if ((srcmodel::is_ident(t[i], "float") ||
           srcmodel::is_ident(t[i], "double")) &&
          srcmodel::is_ident(t[i + 1], name))
        return true;
    return false;
  }

  // --- hygiene -------------------------------------------------------------

  void rule_pragma_once() {
    if (!sf_.is_header) return;
    for (size_t i = 0; i < sf_.tokens.size(); ++i)
      if (srcmodel::match_seq(sf_.tokens, i, {"#", "pragma", "once"})) return;
    emit(1, "pragma-once", "", "header is missing #pragma once");
  }

  void rule_using_namespace_header() {
    if (!sf_.is_header) return;
    const std::vector<Token>& t = sf_.tokens;
    for (size_t i = 0; i + 1 < t.size(); ++i)
      if (srcmodel::is_ident(t[i], "using") &&
          srcmodel::is_ident(t[i + 1], "namespace"))
        emit(t[i].line, "using-namespace-header",
             i + 2 < t.size() ? t[i + 2].text : "",
             "`using namespace` in a header leaks into every includer");
  }

  void rule_raw_new_delete() {
    const std::vector<Token>& t = sf_.tokens;
    // An `operator` token earlier on the same line means we are looking at
    // an operator new/delete declaration, not an allocation.
    auto operator_on_line = [&](size_t i) {
      for (size_t k = i; k-- > 0 && t[k].line == t[i].line;)
        if (srcmodel::is_ident(t[k], "operator")) return true;
      return false;
    };
    int last_new_line = 0, last_delete_line = 0;
    for (size_t i = 0; i < t.size(); ++i) {
      if (srcmodel::is_ident(t[i], "new") && i + 1 < t.size()) {
        const Token& nxt = t[i + 1];
        const bool allocates =
            nxt.kind == TokKind::kIdent || srcmodel::is_punct(nxt, "(") ||
            srcmodel::is_punct(nxt, "[") || srcmodel::is_punct(nxt, "::");
        if (allocates && !operator_on_line(i) &&
            t[i].line != last_new_line) {
          last_new_line = t[i].line;
          emit(t[i].line, "raw-new-delete", "new",
               "raw `new`; use std::vector / std::make_unique so ownership "
               "is explicit");
        }
      }
      if (srcmodel::is_ident(t[i], "delete")) {
        const bool deleted_fn = i > 0 && srcmodel::is_punct(t[i - 1], "=");
        if (!deleted_fn && !operator_on_line(i) &&
            t[i].line != last_delete_line) {
          last_delete_line = t[i].line;
          emit(t[i].line, "raw-new-delete", "delete",
               "raw `delete`; use owning containers / smart pointers");
        }
      }
    }
  }

  void rule_printf_float_precision() {
    if (!sf_.path_starts_with("src/")) return;
    const std::vector<Token>& t = sf_.tokens;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent) continue;
      const std::string& fn = t[i].text;
      if (fn != "printf" && fn != "fprintf" && fn != "snprintf" &&
          fn != "sprintf")
        continue;
      if (i + 1 >= t.size() || !srcmodel::is_punct(t[i + 1], "(")) continue;
      const size_t close = srcmodel::match_forward(t, i + 1);
      if (close == t.size()) continue;
      // Scan the call's string-literal arguments for %-conversions. The
      // token carries the raw literal body, so escapes are intact and
      // multi-line format strings are covered.
      for (size_t k = i + 2; k < close; ++k) {
        if (t[k].kind != TokKind::kString) continue;
        scan_format(t[k]);
      }
      i = close;
    }
  }

  void scan_format(const Token& str) {
    const std::string& s = str.text;
    for (size_t j = 0; j < s.size(); ++j) {
      if (s[j] != '%') continue;
      size_t k = j + 1;
      if (k < s.size() && s[k] == '%') {  // literal %%
        j = k;
        continue;
      }
      bool has_dot = false;
      while (k < s.size() &&
             (std::isdigit(static_cast<unsigned char>(s[k])) != 0 ||
              s[k] == '.' || s[k] == '-' || s[k] == '+' || s[k] == ' ' ||
              s[k] == '#' || s[k] == '*' || s[k] == 'l' || s[k] == 'L' ||
              s[k] == 'h')) {
        if (s[k] == '.') has_dot = true;
        ++k;
      }
      if (k < s.size() && std::strchr("fFeEgG", s[k]) != nullptr && !has_dot) {
        emit(str.line, "printf-float-precision", s.substr(j, k + 1 - j),
             std::string("float conversion %") + s[k] +
                 " without explicit precision; pin it (e.g. %.6g) so "
                 "output is byte-stable across platforms");
      }
      j = k;
    }
  }

  // --- API contract --------------------------------------------------------

  void rule_check_shape_preconditions() {
    if (!sf_.path_starts_with("src/optim/") &&
        !sf_.path_starts_with("src/core/"))
      return;
    const std::vector<Token>& t = sf_.tokens;

    // Anonymous-namespace extents (internal helpers are exempt).
    std::vector<std::pair<size_t, size_t>> anon;
    for (size_t i = 0; i + 1 < t.size(); ++i) {
      if (!srcmodel::is_ident(t[i], "namespace") ||
          !srcmodel::is_punct(t[i + 1], "{"))
        continue;
      const size_t close = srcmodel::match_forward(t, i + 1);
      if (close != t.size()) anon.emplace_back(i + 1, close);
    }
    const auto in_anon = [&](size_t idx) {
      for (const auto& [b, e] : anon)
        if (idx > b && idx < e) return true;
      return false;
    };

    // Find `name(params) [qualifiers] {` definitions.
    for (size_t i = 1; i < t.size(); ++i) {
      if (!srcmodel::is_punct(t[i], "(")) continue;
      if (t[i - 1].kind != TokKind::kIdent) continue;
      const std::string& name = t[i - 1].text;
      static constexpr std::string_view kKeywords[] = {
          "if", "for", "while", "switch", "catch", "return", "sizeof",
          "defined", "do", "assert"};
      bool is_kw = false;
      for (std::string_view k : kKeywords) is_kw |= name == k;
      if (is_kw || name.rfind("APOLLO_", 0) == 0) continue;
      const size_t close = srcmodel::match_forward(t, i);
      if (close == t.size()) continue;
      // Qualifiers between `)` and `{`: const/noexcept/override/final only.
      size_t q = close + 1;
      while (q < t.size() &&
             (srcmodel::is_ident(t[q], "const") ||
              srcmodel::is_ident(t[q], "noexcept") ||
              srcmodel::is_ident(t[q], "override") ||
              srcmodel::is_ident(t[q], "final")))
        ++q;
      if (q >= t.size() || !srcmodel::is_punct(t[q], "{")) continue;
      bool has_param_type = false;
      for (size_t k = i + 1; k < close; ++k)
        if (srcmodel::is_ident(t[k], "Matrix") ||
            srcmodel::is_ident(t[k], "ParamList") ||
            srcmodel::is_ident(t[k], "Parameter"))
          has_param_type = true;
      if (!has_param_type) continue;
      if (in_anon(i)) continue;
      // `static` helpers are internal; skip (statement start = after the
      // previous ; { or }).
      bool is_static = false;
      for (size_t k = i - 1; k-- > 0;) {
        if (srcmodel::is_punct(t[k], ";") || srcmodel::is_punct(t[k], "{") ||
            srcmodel::is_punct(t[k], "}"))
          break;
        if (srcmodel::is_ident(t[k], "static")) is_static = true;
      }
      if (is_static) continue;
      const size_t body_end = srcmodel::match_forward(t, q);
      if (body_end == t.size()) continue;
      // Delegating to the base begin_step/end_step counts: those perform
      // the APOLLO_CHECKs shared by every optimizer.
      bool checked = false;
      for (size_t k = q; k < body_end; ++k) {
        if (t[k].kind == TokKind::kIdent &&
            t[k].text.rfind("APOLLO_CHECK", 0) == 0)
          checked = true;
        if (srcmodel::match_seq(t, k, {"Optimizer", "::", "begin_step", "("}) ||
            srcmodel::match_seq(t, k, {"Optimizer", "::", "end_step", "("}))
          checked = true;
      }
      if (checked) continue;
      emit(t[i - 1].line, "check-shape-preconditions", name,
           "'" + name +
               "' takes Matrix/ParamList arguments but never "
               "APOLLO_CHECKs its preconditions; add a shape/size check "
               "or annotate why none is needed");
    }
  }

  const SourceFile& sf_;
  std::vector<Finding>& out_;
};

}  // namespace

void pass_lint(const AnalysisContext& ctx, std::vector<Finding>& out) {
  for (const auto& entry : ctx.files) Linter(entry.second, out).run();
}

}  // namespace analyze
