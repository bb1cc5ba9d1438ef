// The benchmark's workloads. Each runs for about Options::seconds, checks
// its own outputs, and fills a Result with the end-to-end metrics (trace 0)
// or the per-layer metrics (trace 1) under their BENCHMARK.json names.
#pragma once

#include <string>

#include "common.h"

namespace repobench {

// pretrain_wide, qapollo_accum, ddp_zero1. Returns false for other names.
bool is_training_workload(const std::string& name);
Result run_training_workload(const Options& opt, HostStamp* host);

// serve_open.
Result run_serve_workload(const Options& opt, HostStamp* host);

}  // namespace repobench
