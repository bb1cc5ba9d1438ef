// Isolated layer probes and analytic operation counts.
#pragma once

#include <cstdint>

#include "nn/llama.h"

namespace repobench {

struct GemmShape {
  int64_t m, k, n;
};

// The median GFLOP/s of the dispatched matmul C(m×n) = A(m×k)·B(k×n) at the
// workload's dominant shape and thread count, run in isolation.
double gemm_ceiling(const GemmShape& s, int threads);

// The thread pool's parallel efficiency on the same shape, in isolation:
// gemm_ceiling on 2 threads / (2 × gemm_ceiling on 1 thread). Every workload
// runs on one thread per process, so the pool is measured only here.
double gemm_parallel_eff(const GemmShape& s);

// Forward FLOPs of LlamaModel::loss on `batch` sequences of seq_len tokens:
// 2·m·k·n per matmul (projections, MLP, LM head) plus the two attention
// contractions (scores and weighted values) over the full seq_len × seq_len
// score matrix. Norms, softmax, and elementwise work are not counted.
double forward_flops(const apollo::nn::LlamaConfig& c, int batch);

// FLOPs of one decode step for one lane attending over `ctx` cached rows.
double decode_lane_flops(const apollo::nn::LlamaConfig& c, int ctx);

}  // namespace repobench
