// Subprocess tests for tools/apollo_analyze.cpp: plant violations for each
// of the five passes in a throwaway tree, run the real binary against it,
// and assert rule ids, baseline-diff semantics, suppressions, and the
// JSON/SARIF sinks. APOLLO_ANALYZE_BIN is injected by tests/CMakeLists.txt.
//
// Planted violations live inside C++ string literals, which the analyzer's
// tokenizer blanks — so this file itself stays clean under the repo-wide
// apollo_analyze ctest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run_analyze(const std::string& args) {
  const std::string cmd =
      std::string(APOLLO_ANALYZE_BIN) + " " + args + " 2>&1";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  RunResult r;
  if (pipe == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

class AnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl =
        (fs::temp_directory_path() / "apollo_analyze_test.XXXXXX").string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    root_ = tmpl;
    fs::create_directories(root_ / "src");
    // Permissive default policy; layering tests override it.
    put("tools/analyze/layers.toml",
        "[layers]\n"
        "src = [\"*\"]\n"
        "optim = [\"*\"]\n"
        "tensor = [\"*\"]\n"
        "autograd = [\"*\"]\n"
        "core = [\"*\"]\n"
        "nn = [\"*\"]\n"
        "serve = [\"*\"]\n"
        "quant = [\"*\"]\n"
        "tools = [\"*\"]\n"
        "tests = [\"*\"]\n"
        "bench = [\"*\"]\n");
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  void put(const std::string& rel, const std::string& text) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p, std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good());
  }

  RunResult analyze(const std::string& extra = "") {
    return run_analyze("--root " + root_.string() + " " + extra);
  }

  fs::path root_;
};

// ---------------------------------------------------------------------------
// Basics
// ---------------------------------------------------------------------------

TEST_F(AnalyzeTest, CleanTreePassesWithExitZero) {
  put("src/clean.h",
      "#pragma once\n"
      "namespace demo { int two(); }\n");
  put("src/clean.cpp",
      "#include \"clean.h\"\n"
      "namespace demo { int two() { return 2; } }\n");
  const RunResult r = analyze();
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("files clean"), std::string::npos) << r.output;
}

// ---------------------------------------------------------------------------
// Pass 1: layering
// ---------------------------------------------------------------------------

TEST_F(AnalyzeTest, ForbiddenLayerEdgeIsReported) {
  put("tools/analyze/layers.toml",
      "[layers]\n"
      "optim = []\n"
      "nn = []\n");
  put("src/nn/thing.h",
      "#pragma once\n"
      "namespace demo { class Thing {}; }\n");
  put("src/optim/user.cpp",
      "#include \"nn/thing.h\"\n"
      "int opt_use() { return 1; }\n");
  const RunResult r = analyze();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("src/optim/user.cpp:1: layer-violation:"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("optim -> nn"), std::string::npos) << r.output;
}

TEST_F(AnalyzeTest, UndeclaredModuleIsReportedOnce) {
  put("tools/analyze/layers.toml",
      "[layers]\n"
      "src = [\"*\"]\n");
  put("src/quant/a.cpp", "int qa() { return 1; }\n");
  put("src/quant/b.cpp", "int qb() { return 2; }\n");
  const RunResult r = analyze();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("layer-undeclared:"), std::string::npos)
      << r.output;
  // One finding per module, not one per file.
  const size_t first = r.output.find("layer-undeclared");
  EXPECT_EQ(r.output.find("layer-undeclared", first + 1), std::string::npos)
      << r.output;
}

TEST_F(AnalyzeTest, IncludeCycleIsReported) {
  put("src/a.h",
      "#pragma once\n"
      "#include \"b.h\"\n"
      "namespace demo { struct Anchor4 {}; }\n");
  put("src/b.h",
      "#pragma once\n"
      "#include \"a.h\"\n"
      "namespace demo { struct Brace4 {}; }\n");
  const RunResult r = analyze();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("include-cycle:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("src/a.h"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("src/b.h"), std::string::npos) << r.output;
}

TEST_F(AnalyzeTest, TransitiveIncludeUseIsReported) {
  put("src/base.h",
      "#pragma once\n"
      "namespace demo { class Widget { public: int n = 0; }; }\n");
  put("src/middle.h",
      "#pragma once\n"
      "#include \"base.h\"\n"
      "namespace demo { inline int mid() { return 1; } }\n");
  put("src/user.cpp",
      "#include \"middle.h\"\n"
      "int use() { demo::Widget w; return w.n; }\n");
  const RunResult r = analyze();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("src/user.cpp:2: transitive-include:"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("Widget"), std::string::npos) << r.output;
}

TEST_F(AnalyzeTest, DirectIncludeOfUsedHeaderIsClean) {
  put("src/base.h",
      "#pragma once\n"
      "namespace demo { class Widget { public: int n = 0; }; }\n");
  put("src/user.cpp",
      "#include \"base.h\"\n"
      "int use() { demo::Widget w; return w.n; }\n");
  const RunResult r = analyze();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ---------------------------------------------------------------------------
// Pass 2: concurrency discipline
// ---------------------------------------------------------------------------

TEST_F(AnalyzeTest, ParallelForBodyViolationsAreCaught) {
  put("src/par.cpp",
      "#include <cstdio>\n"
      "#include <cstdlib>\n"
      "#include <mutex>\n"
      "void work(float* v, long n, float& total) {\n"
      "  core::parallel_for(n, [&](long b, long e) {\n"
      "    std::mutex m;\n"
      "    std::printf(\"lane\\n\");\n"
      "    const char* h = std::getenv(\"HOME\");\n"
      "    total += 1.0f;\n"
      "    core::parallel_for(4, [&](long b2, long e2) { v[b2] = 0; });\n"
      "    (void)h; (void)m;\n"
      "  });\n"
      "}\n");
  const RunResult r = analyze();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("src/par.cpp:6: parallel-mutex:"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/par.cpp:7: parallel-io:"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/par.cpp:8: parallel-getenv:"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/par.cpp:9: parallel-unordered-accum:"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/par.cpp:10: parallel-nested:"),
            std::string::npos)
      << r.output;
}

TEST_F(AnalyzeTest, DisciplinedParallelForBodyIsClean) {
  put("src/par_ok.cpp",
      "void work(float* v, long n) {\n"
      "  core::parallel_for(n, [&](long b, long e) {\n"
      "    double acc = 0;\n"
      "    for (long i = b; i < e; ++i) acc += v[i];\n"
      "    v[b] = static_cast<float>(acc);\n"
      "  });\n"
      "}\n");
  const RunResult r = analyze();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ---------------------------------------------------------------------------
// Pass 3: hot-path allocation
// ---------------------------------------------------------------------------

TEST_F(AnalyzeTest, AllocationInStepParamAndItsCalleesIsCaught) {
  put("src/optim/hot.cpp",
      "#include <cstdlib>\n"
      "#include <vector>\n"
      "namespace demo {\n"
      "void helper_fill(std::vector<float>& v) {\n"
      "  float* p = static_cast<float*>(std::malloc(16));\n"
      "  v[0] = *p;\n"
      "}\n"
      "void step_param(std::vector<float>& v) {\n"
      "  v.push_back(1.0f);\n"
      "  helper_fill(v);\n"
      "}\n"
      "}\n");
  const RunResult r = analyze();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Direct growth in the root...
  EXPECT_NE(r.output.find("src/optim/hot.cpp:9: hot-path-alloc:"),
            std::string::npos)
      << r.output;
  // ...and malloc one call-graph edge away, with the chain in the message.
  EXPECT_NE(r.output.find("src/optim/hot.cpp:5: hot-path-alloc:"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("step_param -> helper_fill"), std::string::npos)
      << r.output;
}

TEST_F(AnalyzeTest, SimdKernelsAndBackwardClosuresAreHotRoots) {
  put("src/tensor/simd/fastk.cpp",
      "void kernel_fill(float* p, long n) {\n"
      "  int* scratch = new int[8];\n"
      "  p[0] = static_cast<float>(scratch[0]);\n"
      "  delete[] scratch;\n"
      "}\n");
  put("src/autograd/myop.cpp",
      "#include <vector>\n"
      "namespace demo {\n"
      "void attach(Node& n) {\n"
      "  n.backward = [](Tape& t) {\n"
      "    std::vector<float> tmp;\n"
      "    tmp.resize(64);\n"
      "  };\n"
      "}\n"
      "}\n");
  const RunResult r = analyze();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("src/tensor/simd/fastk.cpp:2: hot-path-alloc:"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/autograd/myop.cpp:6: hot-path-alloc:"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("backward closure"), std::string::npos) << r.output;
}

TEST_F(AnalyzeTest, DecodeStepIsAHotRoot) {
  // The serving engine's batched token step gets the same zero-allocation
  // treatment as step_param.
  put("src/serve/stepper.cpp",
      "#include <vector>\n"
      "namespace demo {\n"
      "void decode_step(std::vector<float>& v) {\n"
      "  v.push_back(1.0f);\n"
      "}\n"
      "}\n");
  const RunResult r = analyze();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("src/serve/stepper.cpp:4: hot-path-alloc:"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("decode_step"), std::string::npos) << r.output;
}

TEST_F(AnalyzeTest, RequantizeParamIsAHotRoot) {
  // The streaming Q-APOLLO weight requantization runs per parameter per
  // step right after step_param, so it inherits the zero-allocation
  // contract (src/core/quantized_weights.h).
  put("src/quant/requant.cpp",
      "#include <vector>\n"
      "namespace demo {\n"
      "void requantize_param(std::vector<float>& scales) {\n"
      "  scales.push_back(1.0f);\n"
      "}\n"
      "}\n");
  const RunResult r = analyze();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("src/quant/requant.cpp:4: hot-path-alloc:"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("requantize_param"), std::string::npos) << r.output;
}

TEST_F(AnalyzeTest, ColdFunctionsMayAllocate) {
  put("src/setup.cpp",
      "#include <vector>\n"
      "void build_tables(std::vector<float>& v) {\n"
      "  v.resize(1024);\n"
      "  v.push_back(1.0f);\n"
      "}\n");
  const RunResult r = analyze();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(AnalyzeTest, SuppressionSilencesHotPathAlloc) {
  put("src/optim/lazy.cpp",
      "#include <vector>\n"
      "void step_param(std::vector<float>& v) {\n"
      "  // sized once on the first step  lint:allow(hot-path-alloc)\n"
      "  v.resize(8);\n"
      "}\n");
  const RunResult r = analyze();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ---------------------------------------------------------------------------
// Pass 4: doc drift
// ---------------------------------------------------------------------------

TEST_F(AnalyzeTest, EnvVarDriftIsReportedBothDirections) {
  put("docs/ENVVARS.md",
      "# Environment variables\n"
      "\n"
      "| Variable | Effect |\n"
      "| --- | --- |\n"
      "| `APOLLO_OK` | documented and used |\n"
      "| `APOLLO_GHOST` | documented but no longer read |\n");
  put("src/config.cpp",
      "#include <cstdlib>\n"
      "bool ok() { return std::getenv(\"APOLLO_OK\") != nullptr; }\n"
      "bool planted() { return std::getenv(\"APOLLO_PLANTED\") != nullptr; }\n");
  const RunResult r = analyze();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("src/config.cpp:3: env-undocumented:"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("docs/ENVVARS.md:6: env-stale-doc:"),
            std::string::npos)
      << r.output;
  // The documented-and-used variable is not a finding.
  EXPECT_EQ(r.output.find("APOLLO_OK`"), std::string::npos) << r.output;
}

TEST_F(AnalyzeTest, TestOnlyEnvVarsAreExemptFromDocs) {
  put("tests/harness.cpp",
      "#include <cstdlib>\n"
      "const char* bin() { return std::getenv(\"APOLLO_FAKE_BIN\"); }\n");
  const RunResult r = analyze();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ---------------------------------------------------------------------------
// Pass 5: lint
// ---------------------------------------------------------------------------

// One planted violation of each lint rule, each in its own file and
// violating nothing else, so suppressing that one rule cleans the file.
struct Planted {
  const char* rule;
  const char* path;
  std::vector<std::string> lines;
  std::vector<int> hits;  // 1-based lines the rule reports
};

const std::vector<Planted>& planted_lint_violations() {
  static const std::vector<Planted> kPlanted = {
      {"raw-thread",
       "src/bad_thread.cpp",
       {"#include <thread>",
        "void spawn() { std::thread t([] {}); t.join(); }"},
       {2}},
      {"raw-rng",
       "src/bad_rng.cpp",
       {"#include <cstdlib>", "int roll() { return rand(); }"},
       {2}},
      {"raw-simd-intrinsic",
       "src/bad_simd.cpp",
       {"#include <immintrin.h>", "float hsum8(const float* p) {",
        "  __m256 v = _mm256_loadu_ps(p);",
        "  __m128 lo = _mm256_castps256_ps128(v);",
        "  return _mm_cvtss_f32(lo);", "}"},
       {1, 3, 4, 5}},
      {"unordered-float-accum",
       "src/bad_accum.cpp",
       {"#include <unordered_map>",
        "float total(const std::unordered_map<int, float>& m) {",
        "  float s = 0.f;", "  for (const auto& kv : m) s += kv.second;",
        "  return s;", "}"},
       {4}},
      {"pragma-once",
       "src/bad_guard.h",
       {"inline int three() { return 3; }"},
       {1}},
      {"using-namespace-header",
       "src/bad_using.h",
       {"#pragma once", "using namespace std;"},
       {2}},
      {"raw-new-delete",
       "src/bad_new.cpp",
       {"int* make() { return new int(3); }",
        "void drop(int* p) { delete p; }"},
       {1, 2}},
      {"printf-float-precision",
       "src/bad_printf.cpp",
       {"#include <cstdio>",
        "void show(double x) { std::printf(\"%f\\n\", x); }"},
       {2}},
      {"check-shape-preconditions",
       "src/optim/bad_entry.cpp",
       {"#include \"tensor/matrix.h\"", "namespace apollo::optim {",
        "void apply_scale(Matrix& g, float s) {",
        "  for (long i = 0; i < g.size(); ++i) g[i] *= s;", "}", "}"},
       {3}},
  };
  return kPlanted;
}

// How each planted file is written: as is, with a `lint:allow(rule)`
// trailing every reported line, or with a leading `lint:allow-file(rule)`.
enum class Allow { kNone, kLine, kFile };

std::string planted_text(const Planted& p, Allow allow) {
  std::string text;
  if (allow == Allow::kFile)
    text += std::string("// lint:allow-file(") + p.rule + ")\n";
  for (size_t i = 0; i < p.lines.size(); ++i) {
    text += p.lines[i];
    const int line = static_cast<int>(i) + 1;
    if (allow == Allow::kLine &&
        std::find(p.hits.begin(), p.hits.end(), line) != p.hits.end())
      text += std::string("  // lint:allow(") + p.rule + ")";
    text += "\n";
  }
  return text;
}

TEST_F(AnalyzeTest, EveryLintRuleFiresOnItsPlantedViolation) {
  size_t total = 0;
  for (const Planted& p : planted_lint_violations()) {
    put(p.path, planted_text(p, Allow::kNone));
    total += p.hits.size();
  }
  const RunResult r = analyze("--pass lint");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  for (const Planted& p : planted_lint_violations())
    for (int line : p.hits) {
      const std::string want = std::string(p.path) + ":" +
                               std::to_string(line) + ": " + p.rule + ":";
      EXPECT_NE(r.output.find(want), std::string::npos) << want << r.output;
    }
  // Exactly the planted findings: no rule fires on another rule's file.
  EXPECT_NE(r.output.find(std::to_string(total) + " new finding(s)"),
            std::string::npos)
      << r.output;
}

TEST_F(AnalyzeTest, LineAllowSilencesEveryLintRule) {
  for (const Planted& p : planted_lint_violations())
    put(p.path, planted_text(p, Allow::kLine));
  const RunResult r = analyze("--pass lint");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(AnalyzeTest, FileAllowSilencesEveryLintRule) {
  for (const Planted& p : planted_lint_violations())
    put(p.path, planted_text(p, Allow::kFile));
  const RunResult r = analyze("--pass lint");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(AnalyzeTest, LineAllowOnTheLineAboveSilencesTheRule) {
  put("src/suppressed.cpp",
      "#include <thread>\n"
      "// lint:allow(raw-thread)\n"
      "void spawn() { std::thread t([] {}); t.join(); }\n");
  const RunResult r = analyze("--pass lint");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(AnalyzeTest, LintAllowOfOneRuleDoesNotHideAnother) {
  put("src/partial.cpp",
      "#include <thread>\n"
      "// lint:allow(raw-rng)\n"
      "void spawn() { std::thread t([] {}); t.join(); }\n");
  const RunResult r = analyze("--pass lint");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("src/partial.cpp:3: raw-thread:"),
            std::string::npos)
      << r.output;
}

TEST_F(AnalyzeTest, SimdIntrinsicsAllowedInsideTensorSimd) {
  put("src/tensor/simd/kernels_demo.cpp",
      "#include <immintrin.h>\n"
      "float first(const float* p) {\n"
      "  __m256 v = _mm256_loadu_ps(p);\n"
      "  return _mm256_cvtss_f32(v);\n"
      "}\n");
  const RunResult r = analyze("--pass lint");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(AnalyzeTest, ShapePreconditionRuleAcceptsCheckedAndInternalHelpers) {
  put("src/optim/entry.cpp",
      "#include \"tensor/matrix.h\"\n"
      "namespace apollo::optim {\n"
      "namespace {\n"
      "void scale_inner(Matrix& g, float s) { g[0] *= s; }\n"
      "}\n"
      "static void scale_static(Matrix& g, float s) { g[0] *= s; }\n"
      "void apply_scale(Matrix& g, float s) {\n"
      "  APOLLO_CHECK(g.size() > 0);\n"
      "  scale_inner(g, s);\n"
      "  scale_static(g, s);\n"
      "}\n"
      "}\n");
  const RunResult r = analyze("--pass lint");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(AnalyzeTest, LintIgnoresCommentsAndStrings) {
  put("src/innocuous.cpp",
      "// std::thread in a comment is fine; so is rand().\n"
      "const char* kDoc = \"uses std::thread and new int[4]\";\n"
      "int use() { return kDoc[0]; }\n");
  const RunResult r = analyze("--pass lint");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ---------------------------------------------------------------------------
// Baseline-diff semantics
// ---------------------------------------------------------------------------

TEST_F(AnalyzeTest, BaselineGatesOnlyNewFindings) {
  put("src/config.cpp",
      "#include <cstdlib>\n"
      "bool a() { return std::getenv(\"APOLLO_OLD\") != nullptr; }\n");
  const std::string base = (root_ / "baseline.json").string();

  // 1. Pre-existing finding fails with no baseline...
  EXPECT_EQ(analyze("--baseline " + base).exit_code, 1);
  // 2. ...write it into the baseline...
  EXPECT_EQ(analyze("--baseline " + base + " --write-baseline").exit_code, 0);
  // 3. ...now the same tree is green, and says what was baselined.
  const RunResult r3 = analyze("--baseline " + base);
  EXPECT_EQ(r3.exit_code, 0) << r3.output;
  EXPECT_NE(r3.output.find("1 baselined"), std::string::npos) << r3.output;

  // 4. A NEW violation still fails, and only the new one is reported —
  //    even though the old finding's line number moved.
  put("src/config.cpp",
      "#include <cstdlib>\n"
      "// an unrelated edit that shifts every line below it\n"
      "bool a() { return std::getenv(\"APOLLO_OLD\") != nullptr; }\n"
      "bool b() { return std::getenv(\"APOLLO_NEW\") != nullptr; }\n");
  const RunResult r4 = analyze("--baseline " + base);
  EXPECT_EQ(r4.exit_code, 1) << r4.output;
  EXPECT_NE(r4.output.find("APOLLO_NEW"), std::string::npos) << r4.output;
  EXPECT_EQ(r4.output.find("APOLLO_OLD"), std::string::npos) << r4.output;
}

// ---------------------------------------------------------------------------
// Sinks and CLI
// ---------------------------------------------------------------------------

TEST_F(AnalyzeTest, JsonAndSarifSinksCarryRuleAndFingerprint) {
  put("src/config.cpp",
      "#include <cstdlib>\n"
      "bool p() { return std::getenv(\"APOLLO_PLANTED\") != nullptr; }\n");
  const std::string sarif = (root_ / "out.sarif").string();
  const RunResult r = analyze("--json --sarif " + sarif);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("\"rule\": \"env-undocumented\""),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"fingerprint\""), std::string::npos) << r.output;

  std::ifstream in(sarif);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string s = buf.str();
  EXPECT_NE(s.find("\"version\": \"2.1.0\""), std::string::npos) << s;
  EXPECT_NE(s.find("\"ruleId\": \"env-undocumented\""), std::string::npos)
      << s;
  EXPECT_NE(s.find("apolloAnalyze/v1"), std::string::npos) << s;
}

TEST_F(AnalyzeTest, SinglePassSelectionSkipsOtherPasses) {
  // A doc-drift violation AND a concurrency violation...
  put("src/config.cpp",
      "#include <cstdlib>\n"
      "bool p() { return std::getenv(\"APOLLO_PLANTED\") != nullptr; }\n");
  put("src/par.cpp",
      "#include <mutex>\n"
      "void work(float* v, long n) {\n"
      "  core::parallel_for(n, [&](long b, long e) { std::mutex m; });\n"
      "}\n");
  // ...but only the concurrency pass runs.
  const RunResult r = analyze("--pass concurrency");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("parallel-mutex"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("env-undocumented"), std::string::npos) << r.output;
}

TEST(AnalyzeCliTest, ListPassesNamesAllFive) {
  const RunResult r = run_analyze("--list-passes");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* pass :
       {"layering", "concurrency", "hotpath", "docdrift", "lint"})
    EXPECT_NE(r.output.find(pass), std::string::npos) << pass;
}

TEST(AnalyzeCliTest, UnknownOptionIsAUsageError) {
  const RunResult r = run_analyze("--no-such-flag");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(AnalyzeCliTest, UnknownPassIsAUsageError) {
  const RunResult r = run_analyze("--pass nonesuch");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

// The merge gate: the real tree analyzes clean against the checked-in
// (empty) baseline.
TEST(AnalyzeCliTest, RealTreeIsClean) {
  const RunResult r = run_analyze("--root " APOLLO_REPO_ROOT);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("files clean"), std::string::npos) << r.output;
}

}  // namespace
