// Resilience subsystem unit tests: divergence watchdog thresholds, LR
// backoff sequence + probation restore, checkpoint rotation, bit-identical
// rollback, newest-first auto-resume that skips corrupt checkpoints, and a
// seeded torn/corrupt shard-set sweep resumed at two widths.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/apollo.h"
#include "data/corpus.h"
#include "obs/metrics.h"
#include "tensor/rng.h"
#include "train/resilience.h"

namespace apollo {
namespace {

namespace fs = std::filesystem;

// --- watchdog ----------------------------------------------------------------

TEST(Watchdog, NonFiniteLossOrGradFlagsImmediately) {
  train::DivergenceWatchdog wd(train::WatchdogConfig{});
  EXPECT_NE(wd.check(std::nan(""), 1.0), "");
  EXPECT_NE(wd.check(HUGE_VAL, 1.0), "");
  EXPECT_NE(wd.check(2.0, std::nan("")), "");
  EXPECT_NE(wd.check(2.0, HUGE_VAL), "");
  EXPECT_EQ(wd.check(2.0, 1.0), "");  // finite, no history → healthy
}

TEST(Watchdog, SpikeArmsOnlyAfterMinHistory) {
  train::WatchdogConfig cfg;
  cfg.spike_factor = 10.0;
  cfg.min_history = 5;
  train::DivergenceWatchdog wd(cfg);
  // Before min_history healthy losses, even a huge step is tolerated.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(wd.check(1e9, 1.0), "") << "step " << i;
    wd.observe(4.0);
  }
  wd.observe(4.0);  // fifth healthy loss arms spike detection
  EXPECT_DOUBLE_EQ(wd.running_median(), 4.0);
  EXPECT_EQ(wd.check(39.9, 1.0), "");       // just under 10x median
  EXPECT_NE(wd.check(40.1, 1.0), "");       // just over
  const std::string why = wd.check(1e9, 1.0);
  EXPECT_NE(why.find("spike"), std::string::npos) << why;
}

TEST(Watchdog, MedianTracksWindowAndResets) {
  train::WatchdogConfig cfg;
  cfg.median_window = 3;
  train::DivergenceWatchdog wd(cfg);
  wd.observe(1.0);
  wd.observe(100.0);
  wd.observe(2.0);
  EXPECT_DOUBLE_EQ(wd.running_median(), 2.0);  // {1, 100, 2}
  wd.observe(3.0);                             // evicts 1.0 → {100, 2, 3}
  EXPECT_DOUBLE_EQ(wd.running_median(), 3.0);
  EXPECT_EQ(wd.history_size(), 3);
  wd.reset_history();
  EXPECT_EQ(wd.history_size(), 0);
  EXPECT_DOUBLE_EQ(wd.running_median(), 0.0);
}

TEST(LrBackoff, HalvesPerRollbackAndRestoresAfterProbation) {
  train::LrBackoff b(0.5f, /*probation=*/3);
  EXPECT_FLOAT_EQ(b.scale(), 1.0f);
  EXPECT_FALSE(b.in_probation());
  b.on_rollback();
  EXPECT_FLOAT_EQ(b.scale(), 0.5f);
  b.on_rollback();
  EXPECT_FLOAT_EQ(b.scale(), 0.25f);
  EXPECT_TRUE(b.in_probation());
  b.on_good_step();
  b.on_good_step();
  EXPECT_FLOAT_EQ(b.scale(), 0.25f);  // probation not yet served
  b.on_good_step();
  EXPECT_FLOAT_EQ(b.scale(), 1.0f);  // restored at full schedule strength
  EXPECT_FALSE(b.in_probation());
  // A rollback resets the good-step streak.
  b.on_rollback();
  b.on_good_step();
  b.on_rollback();
  b.on_good_step();
  b.on_good_step();
  EXPECT_FLOAT_EQ(b.scale(), 0.25f);
}

// --- rotation + auto-resume --------------------------------------------------

nn::LlamaConfig tiny() {
  nn::LlamaConfig c;
  c.vocab = 48;
  c.hidden = 16;
  c.intermediate = 40;
  c.n_heads = 2;
  c.n_layers = 1;
  c.seq_len = 8;
  return c;
}

struct FixedBatches {
  std::vector<std::vector<int32_t>> ids, targets;
  explicit FixedBatches(int n) {
    data::CorpusConfig ccfg;
    ccfg.vocab = 48;
    data::SyntheticCorpus corpus(ccfg);
    data::BatchLoader loader(corpus, 2, 8, 5);
    ids.resize(static_cast<size_t>(n));
    targets.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
      loader.next(ids[static_cast<size_t>(i)],
                  targets[static_cast<size_t>(i)]);
  }
};

void train_steps(nn::LlamaModel& model, optim::Optimizer& opt,
                 const FixedBatches& data, int from, int to) {
  for (int s = from; s < to; ++s) {
    model.zero_grads();
    ag::Tape tape;
    tape.backward(model.loss(tape, data.ids[static_cast<size_t>(s)],
                             data.targets[static_cast<size_t>(s)]));
    opt.set_lr(1e-3f);
    opt.step(model.parameters());
  }
}

std::string fresh_dir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + name;
  fs::remove_all(dir);
  return dir;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void corrupt_middle_byte(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr) << path;
  std::fseek(f, 0, SEEK_END);
  const long mid = std::ftell(f) / 2;
  std::fseek(f, mid, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, mid, SEEK_SET);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
}

TEST(Rotator, KeepsNewestKAndSweepsTmpLeftovers) {
  const std::string dir = fresh_dir("rot_keep");
  nn::LlamaModel m(tiny(), 1);
  {
    train::CheckpointRotator rot(dir, /*keep=*/2);
    for (int64_t s : {10, 20, 30}) ASSERT_TRUE(rot.save(m, s, nullptr).ok);
  }
  EXPECT_EQ(train::CheckpointRotator::list_steps(dir),
            (std::vector<int64_t>{20, 30}));
  EXPECT_FALSE(fs::exists(train::CheckpointRotator::path_for(dir, 10)));

  // A stale temp file (crashed save) is swept by the next construction.
  const std::string stale =
      train::CheckpointRotator::path_for(dir, 40) + ".tmp";
  std::ofstream(stale, std::ios::binary) << "partial";
  ASSERT_TRUE(fs::exists(stale));
  train::CheckpointRotator rot2(dir, 2);
  EXPECT_FALSE(fs::exists(stale));
  // Committed checkpoints are untouched by the sweep.
  EXPECT_EQ(train::CheckpointRotator::list_steps(dir),
            (std::vector<int64_t>{20, 30}));
  fs::remove_all(dir);
}

// After a shrink restart (3 ranks -> 2) nobody writes rank 2's shards any
// more; rank 0 prunes them with the weights files, so every file of a
// pruned step goes.
TEST(Rotator, ShrunkWorldPrunesTheLostRanksShards) {
  const std::string dir = fresh_dir("rot_shrink");
  nn::LlamaModel m(tiny(), 1);
  core::ApolloConfig acfg;
  acfg.rank = 4;
  auto opt = core::Apollo::standard(acfg);
  const FixedBatches data(1);
  train_steps(m, *opt, data, 0, 1);
  const auto save_set = [&](int64_t step, int world) {
    for (int r = 0; r < world; ++r) {
      opt->set_shard(r, world);
      ASSERT_TRUE(train::CheckpointRotator(dir, 2).save(m, step, opt.get()).ok);
    }
  };
  save_set(10, 3);
  save_set(20, 2);
  save_set(30, 2);
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir))
    names.push_back(e.path().filename().string());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{
                       "ckpt_20.aplo", "ckpt_20.shard0of2.aplo",
                       "ckpt_20.shard1of2.aplo", "ckpt_30.aplo",
                       "ckpt_30.shard0of2.aplo", "ckpt_30.shard1of2.aplo"}));
  fs::remove_all(dir);
}

TEST(Rotator, RollbackRestoresBitIdenticalWeightsAndOptimizerState) {
  const std::string dir = fresh_dir("rot_bitident");
  const FixedBatches data(13);
  nn::LlamaModel model(tiny(), 1);
  core::ApolloConfig acfg;
  acfg.rank = 4;
  acfg.update_freq = 6;
  acfg.seed = 9;
  auto opt = core::Apollo::standard(acfg);
  train_steps(model, *opt, data, 0, 10);

  train::CheckpointRotator rot(dir, 4);
  ASSERT_TRUE(rot.save(model, 10, opt.get()).ok);
  const std::string before =
      read_bytes(train::CheckpointRotator::path_for(dir, 10));
  ASSERT_FALSE(before.empty());

  // Diverge, then roll back and re-save at the same step: the file must be
  // byte-identical, i.e. weights AND optimizer state round-trip exactly.
  train_steps(model, *opt, data, 10, 13);
  auto rolled = train::load_checkpoint(
      train::CheckpointRotator::path_for(dir, 10), model, opt.get());
  ASSERT_TRUE(rolled.ok) << rolled.error;
  ASSERT_TRUE(rolled.optimizer_state_restored);
  ASSERT_TRUE(rot.save(model, 10, opt.get()).ok);
  const std::string after =
      read_bytes(train::CheckpointRotator::path_for(dir, 10));
  EXPECT_EQ(before, after);
  fs::remove_all(dir);
}

TEST(AutoResume, EmptyOrMissingDirIsNotAnError) {
  const std::string dir = fresh_dir("resume_empty");
  nn::LlamaModel m(tiny(), 1);
  auto rr = train::auto_resume(dir, m, nullptr);
  EXPECT_FALSE(rr.resumed);
  EXPECT_TRUE(rr.error.empty());
  EXPECT_TRUE(rr.skipped.empty());
}

TEST(AutoResume, SkipsCorruptNewestWithReadableReasons) {
  const std::string dir = fresh_dir("resume_skip");
  obs::Registry::instance().reset();
  nn::LlamaModel m(tiny(), 1);
  train::CheckpointRotator rot(dir, 8);
  ASSERT_TRUE(rot.save(m, 10, nullptr).ok);
  ASSERT_TRUE(rot.save(m, 20, nullptr).ok);
  ASSERT_TRUE(rot.save(m, 30, nullptr).ok);
  // Newest truncated, middle bit-flipped — both must be skipped with
  // distinct reasons and the scan must land on step 10.
  const std::string p30 = train::CheckpointRotator::path_for(dir, 30);
  ASSERT_EQ(truncate(p30.c_str(),
                     static_cast<off_t>(fs::file_size(p30) / 2)),
            0);
  corrupt_middle_byte(train::CheckpointRotator::path_for(dir, 20));

  nn::LlamaModel fresh(tiny(), 2);
  auto rr = train::auto_resume(dir, fresh, nullptr);
  EXPECT_TRUE(rr.resumed) << rr.error;
  EXPECT_EQ(rr.step, 10);
  ASSERT_EQ(rr.skipped.size(), 2u);
  EXPECT_NE(rr.skipped[0].find("ckpt_30"), std::string::npos)
      << rr.skipped[0];
  EXPECT_NE(rr.skipped[1].find("ckpt_20"), std::string::npos)
      << rr.skipped[1];
  EXPECT_NE(rr.skipped[1].find("CRC mismatch"), std::string::npos)
      << rr.skipped[1];
  EXPECT_EQ(
      obs::Registry::instance().counter("ckpt.corrupt_skipped").value(), 2);
  // The loaded weights match the saved model.
  EXPECT_TRUE(fresh.parameters()[0]->value == m.parameters()[0]->value);
  obs::Registry::instance().reset();
  fs::remove_all(dir);
}

TEST(AutoResume, AllCorruptRestoresOriginalWeightsAndReportsError) {
  const std::string dir = fresh_dir("resume_allbad");
  nn::LlamaModel saved(tiny(), 1);
  train::CheckpointRotator rot(dir, 8);
  ASSERT_TRUE(rot.save(saved, 10, nullptr).ok);
  ASSERT_TRUE(rot.save(saved, 20, nullptr).ok);
  corrupt_middle_byte(train::CheckpointRotator::path_for(dir, 10));
  corrupt_middle_byte(train::CheckpointRotator::path_for(dir, 20));

  nn::LlamaModel fresh(tiny(), 2);
  const auto want = fresh.parameters()[0]->value;  // pre-scan init
  auto rr = train::auto_resume(dir, fresh, nullptr);
  EXPECT_FALSE(rr.resumed);
  EXPECT_EQ(rr.skipped.size(), 2u);
  EXPECT_NE(rr.error.find("no loadable checkpoint"), std::string::npos)
      << rr.error;
  // A half-applied corrupt load must not leak into the model: the scan
  // restores the pre-scan weights on total failure.
  EXPECT_TRUE(fresh.parameters()[0]->value == want);
  obs::Registry::instance().reset();
  fs::remove_all(dir);
}

// --- torn and corrupt shard sets ---------------------------------------------

// Optimizer state as bytes: save_state under the optimizer's own shard
// layout, so two optimizers in the same state serialize identically.
std::string state_bytes_of(const optim::Optimizer& opt,
                           const nn::ParamList& params) {
  char* buf = nullptr;
  size_t len = 0;
  std::FILE* mf = open_memstream(&buf, &len);
  EXPECT_NE(mf, nullptr);
  if (mf == nullptr) return std::string();
  EXPECT_TRUE(opt.save_state(mf, params));
  std::fclose(mf);
  std::string out(buf, len);
  std::free(buf);
  return out;
}

std::unique_ptr<optim::Optimizer> sweep_optimizer(int rank, int world) {
  core::ApolloConfig acfg;
  acfg.rank = 4;
  acfg.update_freq = 6;
  acfg.seed = 9;
  auto opt = core::Apollo::standard(acfg);
  opt->set_shard(rank, world);
  return opt;
}

// What one resume at one width leaves behind.
struct Resumed {
  train::ResumeResult rr;
  std::vector<Matrix> weights;
  std::string state;
  int64_t state_bytes = 0;
};

Resumed resume_at(const std::string& dir, int rank, int world) {
  nn::LlamaModel model(tiny(), 2);
  auto opt = sweep_optimizer(rank, world);
  Resumed out;
  out.rr = train::auto_resume(dir, model, opt.get());
  for (const nn::Parameter* p : model.parameters())
    out.weights.push_back(p->value);
  out.state = state_bytes_of(*opt, model.parameters());
  out.state_bytes = opt->state_bytes();
  return out;
}

void copy_dir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to);
}

std::string shard_name(const std::string& dir, int64_t step, int rank) {
  return dir + "/ckpt_" + std::to_string(step) + ".shard" +
         std::to_string(rank) + "of2.aplo";
}

// A 2-rank set at step 20 over a valid one at step 10. Each case damages the
// step-20 set: truncation at seeded offsets (0, every section boundary and
// the last byte included), seeded single-byte flips, one deleted shard, and
// a weights file with no shards left. Every case must resume step 10 with
// exactly the state of a clean step-10 resume, at width 2 and at width 1,
// with one readable skip reason. The bare weights file is resumed at width
// 2 only: a single process resumes a weights-only file weights-only.
TEST(ShardSetSweep, TornOrCorruptNewestSetResumesTheOlderOneExactly) {
  const std::string base = fresh_dir("sweep_base");
  const std::string clean = fresh_dir("sweep_clean");
  const std::string work = fresh_dir("sweep_case");
  const FixedBatches data(16);
  {
    nn::LlamaModel model(tiny(), 1);
    auto opt = sweep_optimizer(0, 1);
    train::CheckpointRotator rot(base, 4);
    const auto save_set = [&](int64_t step) {
      for (int r = 0; r < 2; ++r) {
        opt->set_shard(r, 2);
        const train::CheckpointResult saved = rot.save(model, step, opt.get());
        ASSERT_TRUE(saved.ok) << saved.error;
      }
      opt->set_shard(0, 1);
    };
    train_steps(model, *opt, data, 0, 10);
    save_set(10);
    copy_dir(base, clean);  // the step-10 set alone
    train_steps(model, *opt, data, 10, 16);
    save_set(20);
  }
  ASSERT_EQ(train::shard_world_at(base, 20), 2);

  // The reference: clean step-10 resumes at both widths.
  const std::vector<std::pair<int, int>> layouts = {{0, 2}, {1, 2}, {0, 1}};
  std::vector<Resumed> want;
  for (const auto& [rank, world] : layouts) {
    want.push_back(resume_at(clean, rank, world));
    ASSERT_TRUE(want.back().rr.resumed) << want.back().rr.error;
    ASSERT_EQ(want.back().rr.step, 10);
    ASSERT_TRUE(want.back().rr.optimizer_state_restored);
    ASSERT_TRUE(want.back().rr.skipped.empty());
  }
  // The newest set is good before it is damaged.
  ASSERT_EQ(resume_at(base, 0, 2).rr.step, 20);

  struct Case {
    std::string what;
    std::function<void(const std::string& dir)> damage;
    bool weights_only_left = false;
  };
  std::vector<Case> cases;
  Rng rng(20240611);
  for (int r = 0; r < 2; ++r) {
    const std::string shard = shard_name(base, 20, r);
    const int64_t size = static_cast<int64_t>(fs::file_size(shard));
    // Header: magic | u32 version, i64 step, u32 rank, u32 world, u32
    // name_len, name | crc | u64 blob_len | blob | crc | end magic.
    const int64_t header_end = 4 + 24 + static_cast<int64_t>(
                                            std::strlen("apollo"));
    std::vector<int64_t> cuts = {0,          4,        header_end,
                                 header_end + 4, header_end + 12,
                                 size - 8,   size - 4, size - 1};
    for (int i = 0; i < 6; ++i)
      cuts.push_back(static_cast<int64_t>(rng.next_u64() %
                                          static_cast<uint64_t>(size)));
    for (const int64_t cut : cuts)
      cases.push_back({"truncate shard" + std::to_string(r) + " to " +
                           std::to_string(cut) + " bytes",
                       [r, cut](const std::string& dir) {
                         ASSERT_EQ(truncate(shard_name(dir, 20, r).c_str(),
                                            static_cast<off_t>(cut)),
                                   0);
                       }});
    for (int i = 0; i < 12; ++i) {
      const int64_t at =
          static_cast<int64_t>(rng.next_u64() % static_cast<uint64_t>(size));
      const int mask = 1 + static_cast<int>(rng.next_u64() % 255);
      cases.push_back({"flip shard" + std::to_string(r) + " byte " +
                           std::to_string(at),
                       [r, at, mask](const std::string& dir) {
                         std::FILE* f =
                             std::fopen(shard_name(dir, 20, r).c_str(), "rb+");
                         ASSERT_NE(f, nullptr);
                         std::fseek(f, static_cast<long>(at), SEEK_SET);
                         const int c = std::fgetc(f);
                         std::fseek(f, static_cast<long>(at), SEEK_SET);
                         std::fputc(c ^ mask, f);
                         std::fclose(f);
                       }});
    }
    cases.push_back({"delete shard" + std::to_string(r),
                     [r](const std::string& dir) {
                       ASSERT_TRUE(fs::remove(shard_name(dir, 20, r)));
                     }});
  }
  cases.push_back({"weights file with no shards",
                   [](const std::string& dir) {
                     ASSERT_TRUE(fs::remove(shard_name(dir, 20, 0)));
                     ASSERT_TRUE(fs::remove(shard_name(dir, 20, 1)));
                   },
                   /*weights_only_left=*/true});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    for (size_t l = 0; l < layouts.size(); ++l) {
      const auto [rank, world] = layouts[l];
      if (c.weights_only_left && world == 1) continue;
      SCOPED_TRACE("rank " + std::to_string(rank) + " of " +
                   std::to_string(world));
      copy_dir(base, work);
      c.damage(work);
      const Resumed got = resume_at(work, rank, world);
      ASSERT_TRUE(got.rr.resumed) << got.rr.error;
      EXPECT_EQ(got.rr.step, 10);
      EXPECT_TRUE(got.rr.optimizer_state_restored);
      ASSERT_EQ(got.rr.skipped.size(), 1u);
      EXPECT_NE(got.rr.skipped[0].find("ckpt_20"), std::string::npos)
          << got.rr.skipped[0];
      EXPECT_EQ(got.state, want[l].state);
      EXPECT_EQ(got.state_bytes, want[l].state_bytes);
      for (size_t i = 0; i < got.weights.size(); ++i)
        ASSERT_TRUE(got.weights[i] == want[l].weights[i]) << "param " << i;
    }
  }
  obs::Registry::instance().reset();
  fs::remove_all(base);
  fs::remove_all(clean);
  fs::remove_all(work);
}

// A single-process checkpoint resumed under ZeRO-1 is merged under the
// resuming rank's layout: each rank ends in exactly the state it would
// resume from a 2-rank set of the same step, and holds only its share.
TEST(ShardSetSweep, WholeStateFileResumesAsOneShardUnderZero1) {
  const std::string whole = fresh_dir("zero1_whole");
  const std::string sharded = fresh_dir("zero1_sharded");
  const FixedBatches data(10);
  nn::LlamaModel model(tiny(), 1);
  auto opt = sweep_optimizer(0, 1);
  train_steps(model, *opt, data, 0, 10);
  ASSERT_TRUE(train::CheckpointRotator(whole, 2).save(model, 10, opt.get()).ok);
  const int64_t unsharded_bytes = opt->state_bytes();
  for (int r = 0; r < 2; ++r) {
    opt->set_shard(r, 2);
    ASSERT_TRUE(
        train::CheckpointRotator(sharded, 2).save(model, 10, opt.get()).ok);
  }
  for (int r = 0; r < 2; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const Resumed a = resume_at(whole, r, 2);
    const Resumed b = resume_at(sharded, r, 2);
    ASSERT_TRUE(a.rr.resumed && b.rr.resumed) << a.rr.error << b.rr.error;
    EXPECT_TRUE(a.rr.optimizer_state_restored);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.state_bytes, b.state_bytes);
    EXPECT_LT(a.state_bytes, unsharded_bytes);
    for (size_t i = 0; i < a.weights.size(); ++i)
      ASSERT_TRUE(a.weights[i] == b.weights[i]) << "param " << i;
  }
  fs::remove_all(whole);
  fs::remove_all(sharded);
}

}  // namespace
}  // namespace apollo
