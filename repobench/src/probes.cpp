#include "probes.h"

#include <algorithm>
#include <vector>

#include "common.h"
#include "core/threadpool.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace repobench {
namespace {

// Median GFLOP/s over `reps` timed calls after a warm-up.
double gemm_gflops(int64_t m, int64_t k, int64_t n, int threads, int reps) {
  const int saved = apollo::core::thread_count();
  apollo::core::set_thread_count(threads);
  apollo::Matrix a(m, k), b(k, n), c(m, n);
  SeedStream fill(m * 131 + k * 17 + n);
  for (int64_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<float>(fill.uniform() - 0.5);
  for (int64_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<float>(fill.uniform() - 0.5);
  for (int i = 0; i < 3; ++i) apollo::matmul(c, a, b);  // warm-up
  std::vector<double> rates;
  const double flops = 2.0 * static_cast<double>(m * k * n);
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = now_ns();
    apollo::matmul(c, a, b);
    const int64_t dt = now_ns() - t0;
    rates.push_back(flops / static_cast<double>(dt));  // FLOP/ns = GFLOP/s
  }
  apollo::core::set_thread_count(saved);
  return median(rates);
}

// Enough calls that the median is steady even for the small decode shape.
int gemm_reps(const GemmShape& s) {
  const double flops = 2.0 * static_cast<double>(s.m * s.k * s.n);
  return static_cast<int>(
      std::max(20.0, std::min(400.0, 4e9 / std::max(flops, 1.0) / 20.0)));
}

}  // namespace

double gemm_ceiling(const GemmShape& s, int threads) {
  return gemm_gflops(s.m, s.k, s.n, threads, gemm_reps(s));
}

double gemm_parallel_eff(const GemmShape& s) {
  const double one = gemm_ceiling(s, 1);
  return one > 0 ? gemm_ceiling(s, 2) / (2.0 * one) : 0;
}

double forward_flops(const apollo::nn::LlamaConfig& c, int batch) {
  const double t = static_cast<double>(batch) * c.seq_len;
  const double h = c.hidden, it = c.intermediate, v = c.vocab;
  const double s = c.seq_len;
  const double per_layer = 2.0 * t * (4.0 * h * h + 3.0 * h * it) +
                           4.0 * batch * s * s * h;
  return c.n_layers * per_layer + 2.0 * t * h * v;
}

double decode_lane_flops(const apollo::nn::LlamaConfig& c, int ctx) {
  const double h = c.hidden, it = c.intermediate, v = c.vocab;
  const double per_layer =
      2.0 * (4.0 * h * h + 3.0 * h * it) + 4.0 * static_cast<double>(ctx) * h;
  return c.n_layers * per_layer + 2.0 * h * v;
}

}  // namespace repobench
