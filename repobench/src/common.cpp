#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "tensor/simd/simd.h"

namespace repobench {

bool parse_options(int argc, char** argv, Options* out) {
  auto usage = [] {
    std::fprintf(stderr,
                 "usage: repobench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return false;
  };
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      out->workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      out->seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return usage();
    } else if (key == "--seconds") {
      out->seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(out->seconds > 0))
        return usage();
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return usage();
      out->trace = val == "1";
    } else if (key == "--out-dir") {
      out->out_dir = val;
    } else {
      return usage();
    }
  }
  return have_workload ? true : usage();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

int SpanRecorder::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.id = id_;
  const int idx = static_cast<int>(spans_.size());
  stack_.push_back(idx);
  s.t0 = now_ns();
  spans_.push_back(s);
  return idx;
}

void SpanRecorder::close(int idx) {
  spans_[static_cast<size_t>(idx)].t1 = now_ns();
  // Spans close in LIFO order (ScopedSpan); tolerate a mismatch by popping
  // down to the closed span.
  while (!stack_.empty()) {
    const int32_t top = stack_.back();
    stack_.pop_back();
    if (top == idx) break;
  }
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.t1 - s.t0;
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    t.total_ns += s.t1 - s.t0;
    t.self_ns += s.t1 - s.t0 - child_ns[i];
    ++t.count;
  }
  return out;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t base = spans_.empty() ? 0 : spans_.front().t0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"i\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%d,\"id\":%lld}\n",
                 i, s.name, static_cast<double>(s.t0 - base) * 1e-3,
                 static_cast<double>(s.t1 - base) * 1e-3, s.parent,
                 static_cast<long long>(s.id));
  }
  return std::fclose(f) == 0;
}

bool HostStamp::valid() const {
  return build_type == "Release" && !simd_overridden;
}

HostStamp host_stamp(const std::string& threads) {
  HostStamp h;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        h.cpu = line.substr(colon + 1);
        h.cpu.erase(0, h.cpu.find_first_not_of(' '));
      }
      break;
    }
  }
  if (h.cpu.empty()) h.cpu = "unknown";
  h.nproc = static_cast<int>(std::thread::hardware_concurrency());
  h.simd = apollo::simd::level_name(apollo::simd::active_level());
  const char* ov = std::getenv("APOLLO_SIMD");
  h.simd_overridden = ov != nullptr && ov[0] != '\0';
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#else
  h.compiler = std::string("gcc ") + __VERSION__;
#endif
  h.build_type = REPOBENCH_BUILD_TYPE;
  h.threads = threads;
  return h;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Result::note(const std::string& name, double v, const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  report.emplace_back(name, std::string(buf) + " " + unit);
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

bool make_dirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

}  // namespace repobench
