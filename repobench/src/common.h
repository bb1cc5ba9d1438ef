// Shared plumbing for the repository benchmark: command line, workload
// seeding, order statistics, the in-memory span recorder, the host stamp,
// and the result record every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace repobench {

// ---------------------------------------------------------------------------
// Clock: CLOCK_MONOTONIC nanoseconds. steady_clock is CLOCK_MONOTONIC on
// Linux, so stamps taken in forked ranks compare directly with the parent's.
inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double ns_to_ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double ns_to_s(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ---------------------------------------------------------------------------
// Command line: --workload NAME --seed N --seconds S --trace 0|1.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/out";  // span dumps, checkpoints
};
// Returns false (after printing usage to stderr) on malformed arguments.
bool parse_options(int argc, char** argv, Options* out);

// Deterministic 64-bit stream derived from the workload seed; every input a
// workload generates (data seeds, arrival times, prompts) comes from here.
class SeedStream {
 public:
  explicit SeedStream(uint64_t seed) : s_(seed ^ 0x9E3779B97F4A7C15ull) {}
  uint64_t next() {  // splitmix64
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() {  // [0, 1)
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  int uniform_int(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t s_;
};

// ---------------------------------------------------------------------------
// Order statistics (linear interpolation between closest ranks).
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v);

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent, and the step or request they belong to.
// Recording is a vector push plus two clock reads; with recording off every
// call is a single branch. Self time = duration minus direct children.
struct Span {
  const char* name;
  int64_t t0 = 0;
  int64_t t1 = 0;
  int32_t parent = -1;
  int64_t id = -1;  // step index or request id
};

class SpanRecorder {
 public:
  void enable(bool on) { on_ = on; }
  bool enabled() const { return on_; }
  void set_id(int64_t id) { id_ = id; }
  int open(const char* name);
  void close(int idx);
  const std::vector<Span>& spans() const { return spans_; }

  struct Totals {
    int64_t self_ns = 0;
    int64_t total_ns = 0;
    int64_t count = 0;
  };
  // Per-name aggregate over every recorded span.
  std::map<std::string, Totals> totals() const;
  // Writes one JSON object per span (JSON lines). Returns false on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  bool on_ = false;
  int64_t id_ = -1;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name)
      : rec_(rec), idx_(rec.enabled() ? rec.open(name) : -1) {}
  ~ScopedSpan() {
    if (idx_ >= 0) rec_.close(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int idx_;
};

// ---------------------------------------------------------------------------
// Host stamp: CPU, core count, SIMD level, compiler, build type, pinned
// threads. A run is invalid when the build is not Release or APOLLO_SIMD
// overrides the cpuid dispatch.
struct HostStamp {
  std::string cpu;
  int nproc = 0;
  std::string simd;
  std::string compiler;
  std::string build_type;
  bool simd_overridden = false;
  std::string threads;  // e.g. "2" or "2 ranks x 1"
  bool valid() const;
};
HostStamp host_stamp(const std::string& threads);

// Peak resident set of this process, MiB.
double peak_rss_mib();

// ---------------------------------------------------------------------------
// What a workload reports. `metrics` holds every end-to-end metric (trace 0)
// or every per-layer metric (trace 1) under its BENCHMARK.json name;
// `report` holds extra named figures printed for people (not the result
// line). Units come from the metric tables in main.cpp.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed check
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, std::string>> report;  // name, value+unit

  void fail(const std::string& why) {
    correct = false;
    ++failed;
    failures.push_back(why);
  }
  // Counts one correctness gate; a false `ok` records `why`.
  void check(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) fail(why);
  }
  void note(const std::string& name, double v, const char* unit);
};

// Removes a directory tree under the benchmark's output root (used for
// per-repetition checkpoint directories).
void remove_tree(const std::string& path);
// Creates `path` (and parents). Returns false on failure.
bool make_dirs(const std::string& path);

}  // namespace repobench
