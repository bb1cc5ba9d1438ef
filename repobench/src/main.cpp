// repobench — the repository benchmark (README.md in this directory).
//
//   repobench --workload NAME --seed N --seconds S --trace 0|1
//
// Prints a human-readable report, then, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end table below; with --trace 1 the per-layer
// table. A per-layer metric of a layer the workload bypasses reads 0. Exits 1
// when any correctness gate failed or the host stamp is invalid.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using repobench::Result;

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end list.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"tokens_per_s", "tok/s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_tail", "ms"},
    {"final_val_loss", "nats"},
    {"state_mib", "MiB"},
    {"peak_rss_mib", "MiB"},
};

// Must match BENCHMARK.json's per_layer list.
constexpr Metric kPerLayer[] = {
    {"data.batch_ms", "ms"},
    {"nn.forward_ms", "ms"},
    {"nn.forward_gflops", "GFLOP/s"},
    {"autograd.backward_self_ms", "ms"},
    {"autograd.backward_gflops", "GFLOP/s"},
    {"tensor.gemm_ceiling_gflops", "GFLOP/s"},
    {"tensor.fwd_bwd_frac_of_ceiling", "frac"},
    {"core.gemm_parallel_eff", "frac"},
    {"train.update_ms", "ms"},
    {"train.stash_peak_mib", "MiB"},
    {"train.step_ms_p50", "ms"},
    {"train.step_ms_p99", "ms"},
    {"optim.step_param_ms", "ms"},
    {"optim.begin_end_ms", "ms"},
    {"optim.step_param_calls", "count"},
    {"optim.refresh_step_ms", "ms"},
    {"quant.requantize_ms", "ms"},
    {"ckpt.save_ms", "ms"},
    {"ckpt.bytes", "bytes"},
    {"dist.collective_frac", "frac"},
    {"dist.bytes_per_step", "bytes"},
    {"dist.rank_skew_ms", "ms"},
    {"dist.allreduce_gbps", "GB/s"},
    {"serve.decode_step_ms_p50", "ms"},
    {"serve.decode_step_ms_p99", "ms"},
    {"serve.decode_gflops", "GFLOP/s"},
    {"serve.batch_occupancy", "lanes"},
    {"serve.prefill_share", "frac"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.refused_frac", "frac"},
    {"serve.gen_lag_ms_p99", "ms"},
    {"obs.trace_overhead_frac", "frac"},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

// Settings that would silently change what a run measures. The thread count
// is pinned with core::set_thread_count; these are cleared so the library
// never reads them. APOLLO_SIMD is kept: the host stamp marks it invalid.
void scrub_environment() {
  for (const char* var :
       {"APOLLO_THREADS", "APOLLO_FUSED_UPDATE", "APOLLO_QUANT_WEIGHTS",
        "APOLLO_METRICS", "APOLLO_TRACE", "APOLLO_FAULTS",
        "APOLLO_CHECK_FINITE"})
    unsetenv(var);
}

}  // namespace

int main(int argc, char** argv) {
  repobench::Options opt;
  if (!repobench::parse_options(argc, argv, &opt)) return 2;
  const bool training = repobench::is_training_workload(opt.workload);
  if (!training && opt.workload != "serve_open") {
    std::fprintf(stderr,
                 "repobench: unknown workload '%s' (pretrain_wide, "
                 "qapollo_accum, ddp_zero1, serve_open)\n",
                 opt.workload.c_str());
    return 2;
  }
  scrub_environment();

  repobench::HostStamp host;
  Result res = training ? repobench::run_training_workload(opt, &host)
                        : repobench::run_serve_workload(opt, &host);
  if (!host.valid())
    res.fail(std::string("invalid run: build type ") + host.build_type +
             (host.simd_overridden ? ", APOLLO_SIMD overrides dispatch" : ""));
  if (res.attempted < 1) res.attempted = 1;

  // Metric values: a layer the workload bypasses reads 0; an end-to-end
  // metric must always be measured.
  const Metric* table = opt.trace ? kPerLayer : kEndToEnd;
  const size_t n = opt.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  std::string metrics_json;
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("host: cpu \"%s\"  nproc %d  simd %s  compiler \"%s\"  build %s"
              "  threads %s%s\n",
              host.cpu.c_str(), host.nproc, host.simd.c_str(),
              host.compiler.c_str(), host.build_type.c_str(),
              host.threads.c_str(), host.valid() ? "" : "  INVALID");
  for (size_t i = 0; i < n; ++i) {
    const auto it = res.metrics.find(table[i].name);
    double v = it == res.metrics.end() ? 0.0 : it->second;
    if (!opt.trace && it == res.metrics.end())
      res.fail(std::string("end-to-end metric not measured: ") + table[i].name);
    if (!std::isfinite(v)) {
      res.fail(std::string("non-finite metric: ") + table[i].name);
      v = 0;
    }
    std::printf("  %-32s %.6g %s\n", table[i].name, v, table[i].unit);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", table[i].name, v, table[i].unit);
    metrics_json += buf;
  }
  for (const auto& [name, value] : res.report)
    std::printf("  %-32s %s\n", name.c_str(), value.c_str());
  std::printf("  %-32s %.6g\n", "failed_frac",
              static_cast<double>(res.failed) /
                  static_cast<double>(res.attempted));
  for (const std::string& f : res.failures)
    std::printf("FAILED: %s\n", f.c_str());

  std::string failures_json;
  for (const std::string& f : res.failures)
    failures_json += (failures_json.empty() ? "\"" : ", \"") + json_escape(f) + "\"";
  const std::string host_json =
      "{\"cpu\": \"" + json_escape(host.cpu) + "\", \"nproc\": " +
      std::to_string(host.nproc) + ", \"simd\": \"" + host.simd +
      "\", \"compiler\": \"" + json_escape(host.compiler) +
      "\", \"build_type\": \"" + host.build_type + "\", \"threads\": \"" +
      host.threads + "\", \"valid\": " + (host.valid() ? "true" : "false") + "}";
  // The full record (host stamp, failures) goes to a file; stdout's last
  // line carries exactly the four keys the benchmark contract names.
  repobench::make_dirs(opt.out_dir);
  const std::string path = opt.out_dir + "/" + opt.workload + "_seed" +
                           std::to_string(opt.seed) + "_trace" +
                           (opt.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"host\": %s, "
                 "\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                 "\"failures\": [%s], \"metrics\": {%s}}\n",
                 opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                 host_json.c_str(), res.correct ? "true" : "false",
                 static_cast<long long>(res.attempted),
                 static_cast<long long>(res.failed), failures_json.c_str(),
                 metrics_json.c_str());
    std::fclose(f);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              res.correct ? "true" : "false",
              static_cast<long long>(res.attempted),
              static_cast<long long>(res.failed), metrics_json.c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}
