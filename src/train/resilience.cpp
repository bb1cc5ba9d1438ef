#include "train/resilience.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "nn/llama.h"
#include "nn/parameter.h"
#include "obs/metrics.h"
#include "optim/optimizer.h"
#include "tensor/matrix.h"
#include "train/ckpt_io.h"

namespace apollo::train {

namespace fs = std::filesystem;

// --- divergence watchdog ---------------------------------------------------

std::string DivergenceWatchdog::check(double loss, double grad_norm) const {
  if (!std::isfinite(loss))
    return "non-finite loss (" + std::to_string(loss) + ")";
  if (!std::isfinite(grad_norm))
    return "non-finite gradient norm (" + std::to_string(grad_norm) + ")";
  if (history_size() >= cfg_.min_history) {
    const double med = running_median();
    if (med > 0.0 && loss > cfg_.spike_factor * med)
      return "loss spike: " + std::to_string(loss) + " > " +
             std::to_string(cfg_.spike_factor) + " x running median " +
             std::to_string(med);
  }
  return std::string();
}

void DivergenceWatchdog::observe(double loss) {
  window_.push_back(loss);
  while (static_cast<int>(window_.size()) > cfg_.median_window)
    window_.pop_front();
}

void DivergenceWatchdog::reset_history() { window_.clear(); }

double DivergenceWatchdog::running_median() const {
  if (window_.empty()) return 0.0;
  std::vector<double> v(window_.begin(), window_.end());
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid),
                   v.end());
  return v[mid];
}

// --- the checkpoint set ----------------------------------------------------

namespace {

constexpr char kShardMagic[4] = {'A', 'P', 'S', 'D'};
constexpr char kShardEndMagic[4] = {'D', 'S', 'P', 'A'};
constexpr uint32_t kShardVersion = 1;

// One file of a checkpoint set: the weights file has rank -1.
struct CkptFile {
  int64_t step = 0;
  int rank = -1;
  int world = 0;
  std::string path;
};

// Parses `ckpt_<step>.aplo` and `ckpt_<step>.shard<r>of<W>.aplo`; false for
// anything else.
bool parse_ckpt_name(const std::string& name, CkptFile* out) {
  const auto digits = [&name](size_t b, size_t e, int64_t* v) {
    if (e <= b) return false;
    *v = 0;
    for (size_t i = b; i < e; ++i) {
      if (name[i] < '0' || name[i] > '9') return false;
      *v = *v * 10 + (name[i] - '0');
      if (*v > (int64_t{1} << 40)) return false;
    }
    return true;
  };
  if (name.size() < 10 || name.rfind("ckpt_", 0) != 0 ||
      name.compare(name.size() - 5, 5, ".aplo") != 0)
    return false;
  const size_t end = name.size() - 5;
  const size_t shard_at = name.find(".shard");
  if (shard_at == std::string::npos) {
    out->rank = -1;
    out->world = 0;
    return digits(5, end, &out->step);
  }
  const size_t of_at = name.find("of", shard_at + 6);
  int64_t r = 0, w = 0;
  if (of_at == std::string::npos || !digits(5, shard_at, &out->step) ||
      !digits(shard_at + 6, of_at, &r) || !digits(of_at + 2, end, &w) ||
      w < 1 || w > (1 << 20) || r >= w)
    return false;
  out->rank = static_cast<int>(r);
  out->world = static_cast<int>(w);
  return true;
}

std::vector<CkptFile> scan_dir(const std::string& dir) {
  std::vector<CkptFile> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    CkptFile c;
    if (!parse_ckpt_name(entry.path().filename().string(), &c)) continue;
    c.path = entry.path().string();
    files.push_back(std::move(c));
  }
  return files;
}

// Steps with a weights file, ascending.
std::vector<int64_t> weights_steps(const std::vector<CkptFile>& files) {
  std::vector<int64_t> steps;
  for (const CkptFile& c : files)
    if (c.rank < 0) steps.push_back(c.step);
  std::sort(steps.begin(), steps.end());
  return steps;
}

// Width of the complete shard set for `step` among `files`: the largest W
// such that all of shard0..shard(W-1) exist. 0 when none is complete.
int complete_width(const std::vector<CkptFile>& files, int64_t step) {
  std::vector<std::pair<int, int>> seen;  // (world, rank)
  for (const CkptFile& c : files)
    if (c.step == step && c.rank >= 0) seen.emplace_back(c.world, c.rank);
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  int best = 0;
  for (size_t i = 0; i < seen.size();) {
    const int w = seen[i].first;
    int have = 0;
    for (; i < seen.size() && seen[i].first == w; ++i) ++have;
    if (have == w) best = std::max(best, w);
  }
  return best;
}

std::string shard_path_for(const std::string& dir, int64_t step, int rank,
                           int world) {
  return dir + "/ckpt_" + std::to_string(step) + ".shard" +
         std::to_string(rank) + "of" + std::to_string(world) + ".aplo";
}

// Atomically writes one rank's optimizer shard: a CRC'd header section
// (version, step, rank, world, optimizer name), a CRC'd length-prefixed
// state blob, and an end magic.
std::string save_state_shard(const std::string& path,
                             const optim::Optimizer& opt,
                             const nn::ParamList& params, int64_t step) {
  std::vector<char> blob;
  if (!capture_optimizer_blob(opt, params, &blob))
    return "optimizer '" + opt.name() +
           "' does not support state serialization";
  const std::string opt_name = opt.name();
  return commit_atomically(path, [&](std::FILE* f) {
    CrcWriter w(f);
    w.write_raw(kShardMagic, sizeof kShardMagic);
    w.write_pod(kShardVersion);
    w.write_pod(step);
    w.write_pod(static_cast<uint32_t>(opt.shard_rank()));
    w.write_pod(static_cast<uint32_t>(opt.shard_world()));
    w.write_pod(static_cast<uint32_t>(opt_name.size()));
    w.write(opt_name.data(), opt_name.size());
    w.emit_crc();
    w.write_pod(static_cast<uint64_t>(blob.size()));
    w.write(blob.data(), blob.size());
    w.emit_crc();
    w.write_raw(kShardEndMagic, sizeof kShardEndMagic);
    return w.ok() ? std::string() : "write failed: " + path + ".tmp";
  });
}

// Validates one shard file end to end (magic, CRCs, step/rank match) and
// hands back its raw optimizer blob; the error names the file.
bool read_state_shard(const std::string& path, int64_t expect_step,
                      int expect_rank, std::vector<char>* blob,
                      std::string* err) {
  const auto fail = [err, &path](const std::string& msg) {
    *err = path + ": " + msg;
    return false;
  };
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return fail("cannot open");
  std::fseek(f.get(), 0, SEEK_END);
  const long size = std::ftell(f.get());
  std::fseek(f.get(), 0, SEEK_SET);
  CrcReader rd(f.get());
  char magic[4] = {};
  if (std::fread(magic, 1, sizeof magic, f.get()) != sizeof magic ||
      std::memcmp(magic, kShardMagic, sizeof magic) != 0)
    return fail("bad magic");
  uint32_t version = 0, rank = 0, world = 0, name_len = 0;
  int64_t step = 0;
  if (!rd.read_pod(version) || !rd.read_pod(step) || !rd.read_pod(rank) ||
      !rd.read_pod(world) || !rd.read_pod(name_len))
    return fail("truncated header");
  if (version != kShardVersion)
    return fail("unsupported shard version " + std::to_string(version));
  if (name_len > 256) return fail("implausible optimizer name length");
  std::string name(name_len, '\0');
  if (!rd.read(name.data(), name_len)) return fail("truncated header");
  if (!rd.check_crc()) return fail("CRC mismatch in header");
  if (step != expect_step)
    return fail("step mismatch: holds " + std::to_string(step));
  if (static_cast<int>(rank) != expect_rank)
    return fail("rank mismatch: holds " + std::to_string(rank));
  uint64_t blob_len = 0;
  if (!rd.read_pod(blob_len) ||
      blob_len > static_cast<uint64_t>(size - std::ftell(f.get())))
    return fail("implausible state blob length");
  blob->assign(static_cast<size_t>(blob_len), 0);
  if (!rd.read(blob->data(), blob->size())) return fail("truncated state blob");
  if (!rd.check_crc()) return fail("CRC mismatch in state blob");
  char end[4] = {};
  if (std::fread(end, 1, sizeof end, f.get()) != sizeof end ||
      std::memcmp(end, kShardEndMagic, sizeof end) != 0)
    return fail("missing end magic");
  return true;
}

// Keeps this writer's own files of its newest `keep` steps and removes the
// rest. A single process owns every file in the directory; under ZeRO-1,
// every rank owns its own shard files (of any width) and rank 0 the weights
// files and the shards of ranks a shrink restart left behind, so ranks
// prune concurrently without touching a live peer's files.
void prune_own_files(const std::string& dir, int keep, int rank, int world) {
  std::vector<CkptFile> mine = scan_dir(dir);
  mine.erase(std::remove_if(mine.begin(), mine.end(),
                            [&](const CkptFile& c) {
                              const int owner =
                                  c.rank < 0 || c.rank >= world ? 0 : c.rank;
                              return world > 1 && owner != rank;
                            }),
             mine.end());
  std::vector<int64_t> steps;
  for (const CkptFile& c : mine) steps.push_back(c.step);
  std::sort(steps.begin(), steps.end());
  steps.erase(std::unique(steps.begin(), steps.end()), steps.end());
  if (static_cast<int>(steps.size()) <= keep) return;
  const int64_t oldest_kept = steps[steps.size() - static_cast<size_t>(keep)];
  std::error_code ec;
  for (const CkptFile& c : mine)
    if (c.step < oldest_kept) fs::remove(c.path, ec);
}

}  // namespace

CheckpointRotator::CheckpointRotator(std::string dir, int keep)
    : dir_(std::move(dir)), keep_(std::max(1, keep)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  // A crash mid-save leaves a `.tmp` behind; it is not a checkpoint and
  // must never shadow one, so sweep stale temps on startup. Under ZeRO-1
  // every rank sweeps; concurrent removals are benign (remove with an
  // error_code tolerates a peer getting there first).
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0)
      fs::remove(entry.path(), ec);
  }
}

std::string CheckpointRotator::path_for(const std::string& dir,
                                        int64_t step) {
  return dir + "/ckpt_" + std::to_string(step) + ".aplo";
}

std::vector<int64_t> CheckpointRotator::list_steps(const std::string& dir) {
  return weights_steps(scan_dir(dir));
}

CheckpointResult CheckpointRotator::save(nn::LlamaModel& model, int64_t step,
                                         const optim::Optimizer* opt) {
  const int world = opt != nullptr ? opt->shard_world() : 1;
  const int rank = opt != nullptr ? opt->shard_rank() : 0;
  CheckpointResult r;
  if (world == 1) {
    r = save_checkpoint(path_for(dir_, step), model, step, opt);
  } else {
    // Sharded: the weights file carries no optimizer section; the state
    // lives in one shard per rank.
    if (rank == 0) {
      r = save_checkpoint(path_for(dir_, step), model, step);
      if (!r.ok) return r;
    }
    r.error = save_state_shard(shard_path_for(dir_, step, rank, world), *opt,
                               model.parameters(), step);
    r.ok = r.error.empty();
    r.step = step;
    r.optimizer_state_restored = r.ok;  // saved, symmetrically
  }
  if (r.ok) prune_own_files(dir_, keep_, rank, world);
  return r;
}

int shard_world_at(const std::string& dir, int64_t step) {
  return complete_width(scan_dir(dir), step);
}

ResumeResult auto_resume(const std::string& dir, nn::LlamaModel& model,
                         optim::Optimizer* opt) {
  ResumeResult rr;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return rr;
  const std::vector<CkptFile> files = scan_dir(dir);
  const std::vector<int64_t> steps = weights_steps(files);
  if (steps.empty()) return rr;
  obs::Counter& skipped = obs::Registry::instance().counter(
      "ckpt.corrupt_skipped");
  const auto skip = [&](const std::string& why) {
    skipped.add(1);
    rr.skipped.push_back(why);
  };
  // A corrupt file can be rejected halfway through loading, after some
  // parameters were already overwritten; snapshot the weights so a fully
  // failed scan hands back the model untouched.
  auto params = model.parameters();
  std::vector<Matrix> snapshot;
  snapshot.reserve(params.size());
  for (const nn::Parameter* p : params) snapshot.push_back(p->value);
  const bool sharded = opt != nullptr && opt->shard_world() > 1;
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    const int64_t step = *it;
    const std::string path = CheckpointRotator::path_for(dir, step);
    OptimizerSection section;
    const CheckpointResult r = read_checkpoint(path, model, &section);
    if (!r.ok) {
      skip(path + ": " + r.error);
      continue;
    }
    // The step's optimizer state: the weights file's own section, else the
    // step's complete shard set. Every blob is CRC-valid before the
    // optimizer is touched, so a torn or corrupt set never half-merges.
    std::vector<std::vector<char>> blobs;
    const bool own_section = section.present && opt != nullptr &&
                             section.name == opt->name();
    const bool has_shards =
        std::any_of(files.begin(), files.end(), [&](const CkptFile& c) {
          return c.step == step && c.rank >= 0;
        });
    if (own_section) {
      blobs.push_back(std::move(section.blob));
    } else if (has_shards || sharded) {
      // A weights-only file is a complete single-process checkpoint, but a
      // sharded optimizer cannot resume from it, and shard files without a
      // complete set mark a save torn by a crash.
      const int w = complete_width(files, step);
      if (w == 0) {
        skip(path + ": no complete optimizer shard set");
        continue;
      }
      blobs.resize(static_cast<size_t>(w));
      std::string err;
      bool set_ok = true;
      for (int rank = 0; rank < w && set_ok; ++rank)
        set_ok = read_state_shard(shard_path_for(dir, step, rank, w), step,
                                  rank, &blobs[static_cast<size_t>(rank)],
                                  &err);
      if (!set_ok) {
        skip(err);
        continue;
      }
    }
    if (opt != nullptr && !blobs.empty()) {
      // One whole-state blob loads into an unsharded optimizer; shard sets,
      // and any state resumed under ZeRO-1, merge in rank order under the
      // resuming optimizer's own shard layout.
      const bool merge = sharded || !own_section;
      bool restored = true;
      for (std::vector<char>& blob : blobs)
        restored = restored &&
                   restore_optimizer_blob(*opt, blob, params, merge);
      if (!restored) {
        // CRC-valid bytes failing the structured parse mean a writer bug or
        // an optimizer-configuration mismatch: resuming older state under a
        // half-restored optimizer would silently corrupt the trajectory.
        rr.error = "optimizer state restore failed at step " +
                   std::to_string(step) + " in " + dir;
        break;
      }
      rr.optimizer_state_restored = true;
    }
    rr.resumed = true;
    rr.step = r.step;
    return rr;
  }
  for (size_t i = 0; i < params.size(); ++i)
    params[i]->value = snapshot[i];
  if (rr.error.empty())
    rr.error = "no loadable checkpoint among " +
               std::to_string(steps.size()) + " candidate(s) in " + dir;
  return rr;
}

}  // namespace apollo::train
