// apollo-analyze — whole-program static analysis for the APOLLO repo.
//
// Five passes over a shared source model (tools/analyze/):
//   layering     module DAG vs tools/analyze/layers.toml, include cycles,
//                transitively-included-but-used headers
//   concurrency  discipline inside core::parallel_for lambda bodies
//   hotpath      allocation reachable from hot roots (step_param, SIMD
//                kernels, autograd backward closures)
//   docdrift     getenv("APOLLO_*") ⇆ docs/ENVVARS.md, both directions
//   lint         per-file determinism, hygiene, and API-contract rules
//
// Findings are diffed against a checked-in baseline
// (tools/analyze/baseline.json) by line-independent fingerprint, so CI fails
// only on NEW findings. `// lint:allow(rule)` on or above a line, or
// `// lint:allow-file(rule)` anywhere in a file, suppresses a rule id (the
// ids are listed in analyze/passes.h).
//
// Exit codes: 0 = clean (no new findings), 1 = new findings, 2 = usage or
// I/O error. Deliberately dependency-free: standard library only, no link
// against the apollo libraries.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/findings.h"
#include "analyze/include_graph.h"
#include "analyze/passes.h"
#include "analyze/policy.h"
#include "analyze/source_model.h"

namespace fs = std::filesystem;

namespace {

struct PassInfo {
  std::string name;
  std::string summary;
  void (*run)(const analyze::AnalysisContext&, std::vector<analyze::Finding>&);
};

const std::vector<PassInfo>& passes() {
  static const std::vector<PassInfo> kPasses = {
      {"layering",
       "module layering vs layers.toml, include cycles, transitive includes",
       analyze::pass_layering},
      {"concurrency",
       "no mutex/I-O/getenv/nesting/shared accumulation in parallel_for",
       analyze::pass_concurrency},
      {"hotpath",
       "no new/malloc/container growth reachable from hot roots",
       analyze::pass_hotpath},
      {"docdrift", "getenv(\"APOLLO_*\") <-> docs/ENVVARS.md, both directions",
       analyze::pass_docdrift},
      {"lint",
       "no raw threads/RNG/SIMD/new, unordered float sums, header and "
       "printf hygiene, shape checks",
       analyze::pass_lint},
  };
  return kPasses;
}

void print_usage() {
  std::cout
      << "usage: apollo-analyze [options] [subdir...]\n"
         "       (default subdirs: src tools bench tests)\n\n"
         "options:\n"
         "  --root DIR        repo root (default: .)\n"
         "  --policy FILE     layering policy "
         "(default: <root>/tools/analyze/layers.toml)\n"
         "  --baseline FILE   baseline fingerprints "
         "(default: <root>/tools/analyze/baseline.json;\n"
         "                    a missing file means an empty baseline)\n"
         "  --write-baseline  rewrite the baseline from current findings, "
         "exit 0\n"
         "  --pass NAME       run only this pass (repeatable)\n"
         "  --json            emit new findings as JSON on stdout\n"
         "  --sarif FILE      also write new findings as SARIF 2.1.0\n"
         "  --list-passes     list passes and exit\n"
         "  --help            this text\n";
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  fs::path policy_file, baseline_file, sarif_file;
  std::vector<std::string> dirs;
  std::set<std::string> selected;
  bool want_json = false, write_base = false;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--policy" && i + 1 < argc) {
      policy_file = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_file = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_file = argv[++i];
    } else if (arg == "--pass" && i + 1 < argc) {
      const std::string name = argv[++i];
      bool known = false;
      for (const PassInfo& p : passes()) known |= (p.name == name);
      if (!known) {
        std::cerr << "apollo-analyze: unknown pass '" << name
                  << "' (see --list-passes)\n";
        return 2;
      }
      selected.insert(name);
    } else if (arg == "--json") {
      want_json = true;
    } else if (arg == "--write-baseline") {
      write_base = true;
    } else if (arg == "--list-passes") {
      for (const PassInfo& p : passes())
        std::cout << p.name << ": " << p.summary << "\n";
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "apollo-analyze: unknown option " << arg << "\n";
      return 2;
    } else {
      dirs.emplace_back(arg);
    }
  }
  if (dirs.empty()) dirs = {"src", "tools", "bench", "tests"};
  if (policy_file.empty()) policy_file = root / "tools/analyze/layers.toml";
  if (baseline_file.empty())
    baseline_file = root / "tools/analyze/baseline.json";
  auto pass_on = [&](const std::string& name) {
    return selected.empty() || selected.count(name) != 0;
  };

  // --- load the source model -------------------------------------------------
  analyze::AnalysisContext ctx;
  ctx.root = root;
  for (const fs::path& f : srcmodel::collect_sources(root, dirs)) {
    srcmodel::SourceFile sf;
    const std::string display = fs::relative(f, root).generic_string();
    if (!srcmodel::load_file(f, display, sf)) {
      std::cerr << "apollo-analyze: cannot read " << f << "\n";
      return 2;
    }
    ctx.files.emplace(display, std::move(sf));
  }
  ctx.graph = analyze::build_include_graph(root, ctx.files);

  if (pass_on("layering")) {
    std::string err;
    if (!analyze::load_policy(policy_file, ctx.policy, err)) {
      std::cerr << "apollo-analyze: " << err << "\n";
      return 2;
    }
  }

  {
    const fs::path envdoc = root / "docs/ENVVARS.md";
    ctx.envdoc_path = "docs/ENVVARS.md";
    std::ifstream in(envdoc);
    std::string line;
    while (in && std::getline(in, line)) ctx.envdoc_lines.push_back(line);
  }

  // --- run ---------------------------------------------------------------------
  std::vector<analyze::Finding> findings;
  for (const PassInfo& p : passes())
    if (pass_on(p.name)) p.run(ctx, findings);
  analyze::sort_findings(findings);

  if (write_base) {
    if (!analyze::write_baseline(baseline_file, findings)) {
      std::cerr << "apollo-analyze: cannot write " << baseline_file << "\n";
      return 2;
    }
    std::cout << "apollo-analyze: baseline written (" << findings.size()
              << " finding(s)) to " << baseline_file.generic_string() << "\n";
    return 0;
  }

  std::set<std::string> baseline;
  if (fs::exists(baseline_file)) {
    std::string err;
    if (!analyze::load_baseline(baseline_file, baseline, err)) {
      std::cerr << "apollo-analyze: " << err << "\n";
      return 2;
    }
  }
  std::vector<analyze::Finding> fresh;
  for (analyze::Finding& f : findings)
    if (!baseline.count(f.fingerprint())) fresh.push_back(std::move(f));
  const size_t baselined = findings.size() - fresh.size();

  if (!sarif_file.empty()) {
    std::ofstream out(sarif_file, std::ios::binary);
    if (!out) {
      std::cerr << "apollo-analyze: cannot write " << sarif_file << "\n";
      return 2;
    }
    out << analyze::to_sarif(fresh);
  }

  if (want_json) {
    std::cout << analyze::to_json(fresh, baselined);
  } else {
    for (const analyze::Finding& f : fresh)
      std::cout << f.file << ":" << f.line << ": " << f.rule << ": "
                << f.message << "\n";
    if (fresh.empty()) {
      std::cout << "apollo-analyze: " << ctx.files.size() << " files clean";
      if (baselined) std::cout << " (" << baselined << " baselined)";
      std::cout << "\n";
    } else {
      std::cerr << "apollo-analyze: " << fresh.size() << " new finding(s) in "
                << ctx.files.size() << " files";
      if (baselined) std::cerr << " (" << baselined << " baselined)";
      std::cerr << "\n";
    }
  }
  return fresh.empty() ? 0 : 1;
}
