// Runtime-dispatched SIMD kernel layer (DESIGN.md §12).
//
// Every dense hot-loop primitive in the repo — GEMM, elementwise updates,
// whole-tensor reductions, softmax, RMSNorm, SiLU — is reachable through a
// per-level KernelTable: a portable scalar reference, an AVX2+FMA backend,
// and an AVX-512 backend. The level is chosen once at startup from cpuid,
// overridable with APOLLO_SIMD=scalar|avx2|avx512 (docs/ENVVARS.md) and, for
// tests and benches, with set_level().
//
// Determinism contract:
//   * For a FIXED level, every kernel is bit-identical run-to-run and for
//     any APOLLO_THREADS value: callers partition work over the
//     deterministic fixed-partition pool (core/threadpool.h) and each
//     output element's accumulation order is a pure function of the shape,
//     never of the partition. Vectorized reductions use a fixed-width lane
//     tree (lane j accumulates indices ≡ j mod width) reduced in ascending
//     lane order, then a sequential scalar tail.
//   * ACROSS levels, elementwise kernels (axpy/scale/hadamard/add/sub) are
//     bit-exact — both sides pin the accumulate to a single rounding via
//     fma. GEMM, reductions, softmax, RMSNorm and SiLU reorder their
//     contractions per level (and use a polynomial exp), so cross-level
//     agreement is bounded-ULP, asserted by tests/simd_conformance_test.cpp.
//
// Raw intrinsics are confined to src/tensor/simd/ — enforced by the
// `raw-simd-intrinsic` rule of apollo-analyze's lint pass.
#pragma once

#include <cstdint>
#include <vector>

namespace apollo::simd {

enum class Level : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

// "scalar" / "avx2" / "avx512".
const char* level_name(Level level);

// Highest level this CPU supports (cpuid), independent of any override.
Level max_supported_level();

// Every level available on this CPU, ascending (always includes kScalar).
std::vector<Level> available_levels();

// The level kernels dispatch to: set_level() override if any, else
// APOLLO_SIMD if set (unsupported values fall back with a one-line stderr
// warning), else max_supported_level().
Level active_level();

// Test/bench hook: force a level for the current process. Returns false
// (and changes nothing) when the CPU does not support `level`.
bool set_level(Level level);

// Drop the set_level() override, restoring env/cpuid resolution.
void clear_level_override();

// One dispatch level's kernel set. All pointers are non-null. Row strides
// (ld*) are in floats and may exceed the logical width (padded / strided
// views); buffers need no particular alignment.
struct KernelTable {
  Level level;

  // GEMM micro-kernel row-tile height; callers align threadpool partition
  // boundaries to it so every lane starts on a fresh register tile.
  int64_t gemm_row_align;

  // C[i0..i1) += A(op)·B for the row band [i0, i1) of C (caller zeroes C
  // first for the non-accumulating case). A is m×k row-major when !a_trans
  // (element (i,p) at a[i*lda + p]) and k×m row-major when a_trans
  // (element (i,p) at a[p*lda + i]). B is k×n with row stride ldb.
  void (*gemm)(float* c, int64_t ldc, const float* a, int64_t lda,
               bool a_trans, const float* b, int64_t ldb, int64_t i0,
               int64_t i1, int64_t n, int64_t k);

  // y[i] = fma(alpha, x[i], y[i]) — single rounding, exact at every level.
  void (*axpy)(float* y, const float* x, float alpha, int64_t n);
  // y[i] *= alpha
  void (*scale)(float* y, float alpha, int64_t n);
  // y[i] *= x[i]
  void (*hadamard)(float* y, const float* x, int64_t n);

  // Σ x[i] accumulated in double.
  double (*sum)(const float* x, int64_t n);
  // Σ x[i]² accumulated in double.
  double (*sumsq)(const float* x, int64_t n);
  // Σ a[i]·b[i] accumulated in float (attention-score precision).
  float (*dot)(const float* a, const float* b, int64_t n);
  // max |x[i]| (0 for n == 0).
  float (*abs_max)(const float* x, int64_t n);

  // dst[i] = exp(src[i]) — libm at scalar level, ≤2-ulp polynomial at
  // vector levels. Vector levels clamp inputs to [-87.34, 88.38] (Cephes
  // MAXLOGF), saturating instead of overflowing to inf or underflowing to
  // denormals; ULP agreement with scalar holds inside that range. Softmax
  // shifts by the row max first, so its inputs are always ≤ 0 and the only
  // divergence is in probabilities below ~1e-38.
  void (*exp)(float* dst, const float* src, int64_t n);
  // Numerically-stable softmax of one row (n ≥ 1): dst = exp(src − max) /
  // Σ exp(src − max), denominator accumulated in double. In-place OK.
  void (*softmax)(float* dst, const float* src, int64_t n);
  // RMSNorm one row: returns ir = 1/√(mean(src²) + eps) and writes
  // dst[c] = src[c]·ir·w[c]. In-place OK.
  float (*rmsnorm_row)(float* dst, const float* src, const float* w,
                       int64_t n, float eps);
  // SiLU: sig[i] = σ(x[i]), y[i] = x[i]·sig[i].
  void (*silu)(float* y, float* sig, const float* x, int64_t n);
};

// Kernel table for the active level / an explicit level. Requesting an
// unsupported explicit level aborts (tests iterate available_levels()).
const KernelTable& table();
const KernelTable& table(Level level);

}  // namespace apollo::simd
