// Lightweight invariant checking used across the library.
//
// CHECK() is always on (these guard API misuse, not hot inner loops);
// DCHECK() compiles out in release builds and is used inside kernels.
//
// The value-printing variants (CHECK_EQ/NE/LT/LE/GT/GE) stream both
// operands into the failure message, and the shape macros print full
// matrix shapes — use them at public entry points so a bad call site is
// diagnosable from the abort message alone.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace apollo {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const char* msg) {
  std::fprintf(stderr, "CHECK failed: %s at %s:%d%s%s\n", expr, file, line,
               msg[0] ? " — " : "", msg);
  std::abort();
}

// Failure path of the binary comparison macros: prints both operand
// expressions and their runtime values.
template <class A, class B>
[[noreturn]] void check_binop_failed(const char* a_expr, const char* op,
                                     const char* b_expr, const A& a,
                                     const B& b, const char* file, int line) {
  std::ostringstream os;
  os << a_expr << ' ' << op << ' ' << b_expr;
  std::ostringstream vals;
  vals << "values: " << a << " vs " << b;
  const std::string expr = os.str(), v = vals.str();
  check_failed(expr.c_str(), file, line, v.c_str());
}

// Failure path of the shape macros. Works on anything with rows()/cols().
template <class M>
[[noreturn]] void check_shape_failed(const char* a_expr, const char* b_expr,
                                     const M& a, const M& b, const char* file,
                                     int line) {
  std::ostringstream os;
  os << "shapes: " << a.rows() << 'x' << a.cols() << " vs " << b.rows() << 'x'
     << b.cols();
  std::ostringstream expr;
  expr << a_expr << " same shape as " << b_expr;
  const std::string e = expr.str(), v = os.str();
  check_failed(e.c_str(), file, line, v.c_str());
}

}  // namespace apollo

#define APOLLO_CHECK(cond)                                         \
  do {                                                             \
    if (!(cond)) ::apollo::check_failed(#cond, __FILE__, __LINE__, ""); \
  } while (0)

#define APOLLO_CHECK_MSG(cond, msg)                                  \
  do {                                                               \
    if (!(cond)) ::apollo::check_failed(#cond, __FILE__, __LINE__, msg); \
  } while (0)

// Binary comparisons that print both values on failure. Operands are
// evaluated exactly once and bound by value: every call site compares
// scalars, and gcc with -ftrivial-auto-var-init=pattern falsely reports
// -Wuninitialized on temporaries bound to const references here.
#define APOLLO_CHECK_OP_(a, op, b)                                          \
  do {                                                                      \
    const auto a_ = (a);                                                    \
    const auto b_ = (b);                                                    \
    if (!(a_ op b_))                                                        \
      ::apollo::check_binop_failed(#a, #op, #b, a_, b_, __FILE__, __LINE__); \
  } while (0)

#define APOLLO_CHECK_EQ(a, b) APOLLO_CHECK_OP_(a, ==, b)
#define APOLLO_CHECK_NE(a, b) APOLLO_CHECK_OP_(a, !=, b)
#define APOLLO_CHECK_LT(a, b) APOLLO_CHECK_OP_(a, <, b)
#define APOLLO_CHECK_LE(a, b) APOLLO_CHECK_OP_(a, <=, b)
#define APOLLO_CHECK_GT(a, b) APOLLO_CHECK_OP_(a, >, b)
#define APOLLO_CHECK_GE(a, b) APOLLO_CHECK_OP_(a, >=, b)

// Shape preconditions for matrix-shaped arguments.
#define APOLLO_CHECK_SAME_SHAPE(a, b)                                     \
  do {                                                                    \
    const auto& a_ = (a);                                                 \
    const auto& b_ = (b);                                                 \
    if (a_.rows() != b_.rows() || a_.cols() != b_.cols())                 \
      ::apollo::check_shape_failed(#a, #b, a_, b_, __FILE__, __LINE__);   \
  } while (0)

#define APOLLO_CHECK_SHAPE(m, r, c)     \
  do {                                  \
    APOLLO_CHECK_EQ((m).rows(), (r));   \
    APOLLO_CHECK_EQ((m).cols(), (c));   \
  } while (0)

#ifdef NDEBUG
#define APOLLO_DCHECK(cond) ((void)0)
#else
#define APOLLO_DCHECK(cond) APOLLO_CHECK(cond)
#endif
