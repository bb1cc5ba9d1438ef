// Training workloads: pretrain_wide, qapollo_accum, ddp_zero1.
//
// A run repeats one fixed-length training job ("repetition") until the time
// budget is spent, each repetition from scratch: fresh corpus, model,
// optimizer, INT8 store, world, and an empty checkpoint directory. Fixed
// length makes every repetition's loss stream and final validation loss a
// pure function of the seed, so repetitions must agree bit for bit.
//
// Untraced repetitions call Trainer::run. The optimizer is wrapped in
// TimedOptimizer in marker mode, which stamps the clock once per step.
// Traced repetitions run the benchmark's own step loop (run_loop below). It is
// built only from the public calls Trainer::run makes, with a span around
// each call into a layer. A traced run alternates untraced and traced
// repetitions and requires their loss streams and validation losses to be
// bit-equal, which shows that the trace measured the same program.
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "autograd/tape.h"
#include "common.h"
#include "core/apollo.h"
#include "core/quantized_weights.h"
#include "core/threadpool.h"
#include "data/corpus.h"
#include "dist/world.h"
#include "nn/llama.h"
#include "obs/metrics.h"
#include "probes.h"
#include "timed_optimizer.h"
#include "train/resilience.h"
#include "train/schedule.h"
#include "train/trainer.h"
#include "train/update_pipeline.h"
#include "workloads.h"

namespace repobench {
namespace {

using apollo::Matrix;
namespace ag = apollo::ag;
namespace core = apollo::core;
namespace data = apollo::data;
namespace dist = apollo::dist;
namespace nn = apollo::nn;
namespace train = apollo::train;

constexpr int kMaxSteps = 256;
// Validation tokens per repetition. At 2,048, pretrain_wide's final loss
// varied by 4.4% across seeds (IQR over median), mostly from which sequences
// the validation set drew; at 8,192 with 24-step repetitions, by 1.7%.
constexpr int kValTokens = 8192;
constexpr int kMaxRanks = 2;

struct TrainSpec {
  nn::LlamaConfig model;
  int batch = 8;   // sequences per micro-batch (per rank under DDP)
  int accum = 1;   // micro-batches per optimizer step
  int steps = 10;  // optimizer steps per repetition
  bool fused = true;
  bool quant = false;
  int ranks = 1;   // 1 = single process
  // Threads per process. Every workload runs on one: on the shared 4-thread
  // host, a thread the host stalls holds up the other at every join, so on
  // 2 threads whole runs slowed by 20-30% from one run to the next.
  // pretrain_wide made 1.28-1.72k tokens/s on 2 threads against 1.43-1.57k
  // on 1 (four seeds interleaved) and its p90 step time ranged 263-394 ms
  // against 302-311 ms. qapollo_accum made 1.64k against 1.88k tokens/s and
  // its p90 step time varied by 26% across seeds against 5%.
  int threads = 1;
  int ckpt_every = 0;  // 0 = no rotating checkpoints
  int64_t apollo_rank = 4;
  int update_freq = 50;
  float lr = 1e-2f;
  GemmShape dominant;  // the workload's dominant GEMM (tensor probe)
};

TrainSpec spec_for(const std::string& name) {
  TrainSpec s;
  if (name == "pretrain_wide") {
    // Wide custom config: forward/backward GEMMs dominate the step.
    s.model.vocab = 256;
    s.model.hidden = 256;
    s.model.intermediate = 688;
    s.model.n_heads = 8;
    s.model.n_layers = 4;
    s.model.seq_len = 64;
    s.batch = 8;
    s.steps = 24;
    s.fused = true;
    s.dominant = {8 * 64, 256, 688};
  } else if (name == "qapollo_accum") {
    // Q-APOLLO on small micro-batches: optimizer, requantization, and the
    // accumulation stash are a large share of the step.
    s.model = nn::llama_7b_proxy();
    s.batch = 2;
    s.accum = 4;
    s.steps = 30;
    s.fused = false;
    s.quant = true;
    s.ckpt_every = 25;
    // Below the repetition length, so refresh steps after the first (the
    // steady-state ones, not the cold start at step 0) are measured.
    s.update_freq = 10;
    s.dominant = {2 * 32, 128, 344};
  } else {  // ddp_zero1
    s.model = nn::llama_7b_proxy();
    s.batch = 4;
    s.steps = 40;
    s.fused = true;
    s.ranks = 2;
    s.update_freq = 10;  // as qapollo_accum
    s.dominant = {4 * 32, 128, 344};
  }
  s.apollo_rank = s.model.hidden / 4;
  return s;
}

// Everything a repetition draws comes from the workload seed: the training
// stream, the validation set, initial weights, projection seeds, and the
// INT8 rounding streams. The corpus *structure* (its Markov chains) is the
// library default for every seed — a fixed dataset sampled differently —
// so the final loss measures the same task on every seed.
struct Seeds {
  uint64_t data, val, model, opt, quant;
};

Seeds seeds_for(uint64_t seed) {
  SeedStream ss(seed);
  Seeds s{};
  s.data = ss.next();
  s.val = ss.next();
  s.model = ss.next();
  s.opt = ss.next();
  s.quant = ss.next();
  return s;
}

// Per-layer totals of one traced repetition (one rank), summed over steps.
struct LayerTotals {
  double data_ms = 0, fwd_ms = 0, bwd_self_ms = 0, update_ms = 0;
  double apply_self_ms = 0, opt_param_ms = 0, opt_begin_end_ms = 0;
  double opt_calls = 0, refresh_opt_ms = 0, refresh_steps = 0;
  double ckpt_ms = 0, ckpt_count = 0, ckpt_bytes = 0;
  double coll_ms = 0, comm_bytes = 0, allreduce_gbps = 0;
  double stash_peak_bytes = 0;
};

// Everything one repetition reports. Plain data: under DDP each rank writes
// its own copy into memory shared with the parent.
struct RepOut {
  int32_t ok = 0;
  int32_t steps = 0;
  int32_t nmarks = 0;
  int32_t diverged = 0;
  int32_t rollbacks = 0;
  int32_t checkpoints = 0;
  int32_t fused_fallback = 0;
  int64_t resumed_from_step = 0;
  int64_t t_setup_end = 0, t_run_begin = 0, t_run_end = 0;
  double val_loss = 0;
  int64_t state_bytes = 0, weight_bytes = 0;
  double rss_mib = 0;
  float losses[kMaxSteps] = {};
  int64_t marks[kMaxSteps] = {};      // clock at each optimizer begin_step
  int64_t step_begin[kMaxSteps] = {};  // traced: step span bounds
  int64_t step_end[kMaxSteps] = {};
  LayerTotals layers;
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }
bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

int64_t file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long n = std::ftell(f);
  std::fclose(f);
  return n;
}

// The benchmark's step loop: the public calls Trainer::run makes, in its
// order, for the configurations the workloads use (no watchdog, no fault
// injection, no telemetry, end-of-run validation only).
void run_loop(nn::LlamaModel& model, TimedOptimizer& opt,
              const data::TokenSource& corpus, const train::TrainConfig& cfg,
              core::QuantizedWeightStore* qstore, dist::Communicator* comm,
              SpanRecorder& sp, RepOut* out) {
  const int world = comm != nullptr ? comm->world() : 1;
  const int rank = comm != nullptr ? comm->rank() : 0;
  opt.set_shard(rank, world);
  std::unique_ptr<train::CheckpointRotator> rotator;
  if (!cfg.resilience.ckpt_dir.empty())
    rotator = std::make_unique<train::CheckpointRotator>(
        cfg.resilience.ckpt_dir, cfg.resilience.ckpt_keep);

  const data::ValidationSet val = data::make_validation_set(
      corpus, cfg.eval_batches, cfg.batch, model.config().seq_len,
      cfg.val_seed);
  train::CosineSchedule sched(cfg.lr, cfg.steps, cfg.warmup_frac,
                              cfg.final_lr_frac);
  const int accum = std::max(1, cfg.grad_accum);
  data::BatchLoader loader(corpus, cfg.batch, model.config().seq_len,
                           cfg.data_seed);
  train::UpdatePipeline pipeline(opt, comm, qstore);
  LayerTotals& lt = out->layers;

  std::vector<int32_t> ids, targets, scratch_ids, scratch_targets;
  auto next_batch = [&] {
    ScopedSpan s(sp, "data.next");
    for (int r = 0; r < world; ++r) {
      if (r == rank)
        loader.next(ids, targets);
      else
        loader.next(scratch_ids, scratch_targets);
    }
  };
  auto note_stash = [&] {
    lt.stash_peak_bytes = std::max(
        lt.stash_peak_bytes, static_cast<double>(pipeline.stash_bytes()));
  };
  const double w = static_cast<double>(accum * world);
  int64_t param_floats = 0;
  for (nn::Parameter* p : model.parameters()) param_floats += p->value.size();

  for (int step = 0; step < cfg.steps; ++step) {
    sp.set_id(step);
    const int step_span = sp.enabled() ? sp.open("train.step") : -1;
    out->step_begin[step] = now_ns();
    if (comm != nullptr) comm->heartbeat();
    float step_loss = 0.f;
    nn::ParamList params = model.parameters();
    pipeline.arm(params, /*want_norm=*/false, accum);
    if (cfg.fused_update) {
      for (nn::Parameter* p : params) p->grad = Matrix();
      for (int micro = 0; micro + 1 < accum; ++micro) {
        next_batch();
        ag::Tape tape;
        ag::Var loss;
        {
          ScopedSpan s(sp, "nn.loss");
          loss = model.loss(tape, ids, targets);
        }
        step_loss += tape.value(loss)[0] / static_cast<float>(w);
        tape.set_gradient_release(true);
        tape.set_leaf_callback([&](const Matrix*, Matrix* g) {
          ScopedSpan s(sp, "train.stash_leaf");
          pipeline.stash_leaf(g, tape);
        });
        {
          ScopedSpan s(sp, "autograd.backward");
          tape.backward(loss, 1.f / static_cast<float>(w));
        }
        note_stash();
      }
      next_batch();
      ag::Tape tape;
      ag::Var loss;
      {
        ScopedSpan s(sp, "nn.loss");
        loss = model.loss(tape, ids, targets);
      }
      step_loss += tape.value(loss)[0] / static_cast<float>(w);
      if (comm != nullptr) {
        ScopedSpan s(sp, "dist.loss_allreduce");
        comm->allreduce_sum(&step_loss, 1);
        lt.comm_bytes += sizeof(float);
      }
      out->losses[step] = step_loss;
      opt.set_lr(sched.lr_at(step));
      {
        ScopedSpan s(sp, "train.begin_updates");
        pipeline.begin_updates();
      }
      tape.set_gradient_release(true);
      tape.set_leaf_callback([&](const Matrix*, Matrix* g) {
        ScopedSpan s(sp, "train.on_final_leaf");
        if (comm != nullptr) lt.comm_bytes += 4.0 * g->size();  // all-reduce
        pipeline.on_final_leaf(g, tape);
      });
      {
        ScopedSpan s(sp, "autograd.backward");
        tape.backward(loss, 1.f / static_cast<float>(w));
      }
      {
        ScopedSpan s(sp, "train.finish_fused");
        pipeline.finish_fused();
      }
    } else {
      model.zero_grads();
      for (int micro = 0; micro < accum; ++micro) {
        next_batch();
        if (accum > 1 && micro > 0) model.zero_grads();
        ag::Tape tape;
        ag::Var loss;
        {
          ScopedSpan s(sp, "nn.loss");
          loss = model.loss(tape, ids, targets);
        }
        {
          ScopedSpan s(sp, "autograd.backward");
          tape.backward(loss, 1.f / static_cast<float>(w));
        }
        step_loss += tape.value(loss)[0] / static_cast<float>(w);
        if (accum > 1) {
          ScopedSpan s(sp, "train.stash_param_grads");
          pipeline.stash_param_grads();
        }
        note_stash();
      }
      {
        ScopedSpan s(sp, "train.finalize_classic_grads");
        pipeline.finalize_classic_grads();
      }
      if (comm != nullptr) {
        {
          ScopedSpan s(sp, "dist.loss_allreduce");
          comm->allreduce_sum(&step_loss, 1);
        }
        ScopedSpan s(sp, "train.reduce_classic_grads");
        pipeline.reduce_classic_grads();
        lt.comm_bytes += sizeof(float);
        for (nn::Parameter* p : params) lt.comm_bytes += 4.0 * p->grad.size();
      }
      out->losses[step] = step_loss;
      opt.set_lr(sched.lr_at(step));
      ScopedSpan s(sp, "train.apply_classic");
      pipeline.apply_classic();
    }
    // Every slot's refreshed value is broadcast once per step by its owner.
    if (comm != nullptr) lt.comm_bytes += 4.0 * static_cast<double>(param_floats);

    if (rotator != nullptr &&
        (step + 1) % std::max(1, cfg.resilience.ckpt_every) == 0) {
      ScopedSpan s(sp, "ckpt.save");
      const train::CheckpointResult saved = rotator->save(model, step + 1, &opt);
      if (saved.ok) {
        ++out->checkpoints;
        lt.ckpt_bytes = static_cast<double>(file_bytes(
            train::CheckpointRotator::path_for(rotator->dir(), step + 1)));
      }
    }
    out->step_end[step] = now_ns();
    if (step_span >= 0) sp.close(step_span);
  }
  sp.set_id(-1);
  out->steps = cfg.steps;
  {
    ScopedSpan s(sp, "train.validation");
    out->val_loss = train::validation_loss(model, val);
  }
}

// One repetition. `traced` selects the benchmark's step loop with spans on;
// otherwise Trainer::run drives the step. `comm` is non-null inside a DDP
// rank. The caller owns `out` (shared memory under DDP).
void run_rep(const TrainSpec& ts, const Seeds& sd, bool traced,
             dist::Communicator* comm, const std::string& ckpt_dir,
             int accum, int batch, SpanRecorder& sp, RepOut* out) {
  const data::SyntheticCorpus corpus(data::CorpusConfig{});
  nn::LlamaModel model(ts.model, sd.model);
  core::ApolloConfig ac;
  ac.rank = ts.apollo_rank;
  ac.update_freq = ts.update_freq;
  ac.seed = sd.opt;
  std::unique_ptr<core::Apollo> apollo = core::Apollo::standard(ac);
  std::unique_ptr<core::QuantizedWeightStore> qstore;
  if (ts.quant)
    qstore = std::make_unique<core::QuantizedWeightStore>(model.parameters(),
                                                          sd.quant);
  sp.enable(traced);
  TimedOptimizer opt(*apollo, sp);

  train::TrainConfig tc;
  tc.steps = ts.steps;
  tc.batch = batch;
  tc.grad_accum = accum;
  tc.lr = ts.lr;
  // A validation set of kValTokens whatever the micro-batch, so the final
  // loss is as steady across seeds on small micro-batches as on large ones.
  tc.eval_batches = std::max(1, kValTokens / (batch * ts.model.seq_len));
  tc.data_seed = sd.data;
  tc.val_seed = sd.val;
  tc.record_step_losses = true;
  tc.fused_update = ts.fused;
  if (!ckpt_dir.empty()) {
    tc.resilience.ckpt_dir = ckpt_dir;
    tc.resilience.ckpt_every = ts.ckpt_every;
  }
  const int64_t fallback0 =
      apollo::obs::Registry::instance().counter("train.fused_fallback").value();
  out->t_setup_end = out->t_run_begin = now_ns();
  if (traced) {
    run_loop(model, opt, corpus, tc, qstore.get(), comm, sp, out);
  } else {
    train::Trainer trainer(model, opt, corpus, tc);
    if (qstore != nullptr) trainer.set_quantized_weights(qstore.get());
    if (comm != nullptr) trainer.set_communicator(comm);
    const train::TrainResult res = trainer.run();
    out->steps = static_cast<int32_t>(res.step_losses.size());
    for (size_t i = 0; i < res.step_losses.size() && i < kMaxSteps; ++i)
      out->losses[i] = res.step_losses[i];
    out->val_loss = res.curve.empty() ? 0 : res.curve.back().val_loss;
    out->resumed_from_step = res.resumed_from_step;
    out->diverged = res.diverged ? 1 : 0;
    out->rollbacks = res.rollbacks;
    out->checkpoints = res.checkpoints_saved;
  }
  out->t_run_end = now_ns();
  sp.enable(false);
  out->fused_fallback = static_cast<int32_t>(
      apollo::obs::Registry::instance().counter("train.fused_fallback").value() -
      fallback0);

  const std::vector<int64_t>& marks = opt.step_marks();
  out->nmarks = static_cast<int32_t>(std::min<size_t>(marks.size(), kMaxSteps));
  for (int i = 0; i < out->nmarks; ++i) out->marks[i] = marks[i];
  out->state_bytes = opt.state_bytes();
  if (qstore != nullptr) {
    out->weight_bytes = qstore->weight_bytes();
  } else {
    for (nn::Parameter* p : model.parameters())
      out->weight_bytes += p->value.size() * static_cast<int64_t>(sizeof(float));
  }
  out->rss_mib = peak_rss_mib();
  out->ok = 1;
}

// Folds the spans of one traced repetition into out->layers.
void fold_spans(const SpanRecorder& sp, const TrainSpec& ts, bool ddp,
                RepOut* out) {
  LayerTotals& lt = out->layers;
  const auto tot = sp.totals();
  auto self_ms = [&](const char* n) {
    const auto it = tot.find(n);
    return it == tot.end() ? 0.0 : ns_to_ms(it->second.self_ns);
  };
  auto count = [&](const char* n) {
    const auto it = tot.find(n);
    return it == tot.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  lt.data_ms = self_ms("data.next");
  lt.fwd_ms = self_ms("nn.loss");
  lt.bwd_self_ms = self_ms("autograd.backward");
  const char* pipeline_calls[] = {
      "train.stash_leaf",        "train.begin_updates",
      "train.on_final_leaf",     "train.finish_fused",
      "train.stash_param_grads", "train.finalize_classic_grads",
      "train.reduce_classic_grads", "train.apply_classic"};
  for (const char* n : pipeline_calls) lt.update_ms += self_ms(n);
  // Self time of the calls that apply updates: with an INT8 store this is
  // requantization; under DDP it is the collectives.
  lt.apply_self_ms = self_ms("train.on_final_leaf") +
                     self_ms("train.finish_fused") +
                     self_ms("train.apply_classic");
  lt.opt_param_ms = self_ms("optim.step_param");
  lt.opt_begin_end_ms = self_ms("optim.begin_step") + self_ms("optim.end_step");
  lt.opt_calls = count("optim.step_param");
  lt.ckpt_ms = self_ms("ckpt.save");
  lt.ckpt_count = count("ckpt.save");
  if (ddp)
    lt.coll_ms = lt.apply_self_ms + self_ms("train.reduce_classic_grads") +
                 self_ms("dist.loss_allreduce");
  // Optimizer time on projection-refresh steps (APOLLO re-seeds when its
  // per-slot step count is a multiple of update_freq: steps 0, T, 2T, ...).
  // Step 0 is left out: it is also the optimizer's first use (state
  // allocation), a cold start rather than a refresh.
  std::vector<double> opt_ms(static_cast<size_t>(out->steps), 0.0);
  for (const Span& s : sp.spans()) {
    if (s.id < 0 || s.id >= out->steps) continue;
    if (std::strncmp(s.name, "optim.", 6) == 0)
      opt_ms[static_cast<size_t>(s.id)] += ns_to_ms(s.t1 - s.t0);
  }
  for (int step = ts.update_freq; step < out->steps; step += ts.update_freq) {
    lt.refresh_opt_ms += opt_ms[static_cast<size_t>(step)];
    lt.refresh_steps += 1;
  }
}

std::vector<double> step_intervals_ms(const RepOut& r) {
  std::vector<double> v;
  for (int i = 1; i < r.nmarks; ++i)
    v.push_back(ns_to_ms(r.marks[i] - r.marks[i - 1]));
  return v;
}

// Shared-memory block the DDP ranks report through (mapped before fork).
struct SharedReps {
  RepOut rank[kMaxRanks];
};

SharedReps* map_shared() {
  void* p = mmap(nullptr, sizeof(SharedReps), PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? nullptr : new (p) SharedReps();
}

struct Rep {
  RepOut rank0;  // rank 0's record (the only one outside DDP)
  double setup_s = 0;
  double wall_s = 0;   // timed loop
  double tokens = 0;
  double rss_mib = 0;
  double skew_ms = 0;  // traced DDP: median spread of step-end times
  int restarts = 0;
  bool ok = false;
  std::vector<RepOut> ranks;
};

class TrainingRun {
 public:
  TrainingRun(const std::string& name, const Options& opt, Result* res)
      : name_(name), opt_(opt), ts_(spec_for(name)), sd_(seeds_for(opt.seed)),
        res_(res) {}

  // Runs one repetition (a whole world under DDP).
  Rep rep(bool traced) {
    const int idx = rep_counter_++;
    const std::string ckpt_dir =
        ts_.ckpt_every > 0
            ? opt_.out_dir + "/" + name_ + "_ckpt_" +
                  std::to_string(getpid()) + "_" + std::to_string(idx)
            : "";
    if (!ckpt_dir.empty()) {
      remove_tree(ckpt_dir);
      make_dirs(ckpt_dir);
    }
    Rep r;
    const int64_t t0 = now_ns();
    if (ts_.ranks == 1) {
      auto out = std::make_unique<RepOut>();
      SpanRecorder sp;
      run_rep(ts_, sd_, traced, nullptr, ckpt_dir, ts_.accum, ts_.batch, sp,
              out.get());
      if (traced) {
        fold_spans(sp, ts_, false, out.get());
        dump_spans(sp, idx, 0);
      }
      r.ranks.push_back(*out);
    } else {
      for (RepOut& slot : shared_->rank) new (&slot) RepOut();
      dist::WorldConfig wc;
      wc.ranks = ts_.ranks;
      wc.transport = dist::Transport::kShm;
      wc.max_restarts = 0;
      std::fflush(stdout);
      std::fflush(stderr);
      dist::World world(wc);
      const int rc = world.run([&](dist::Communicator& comm) {
        core::set_thread_count(ts_.threads);
        SpanRecorder sp;
        RepOut* out = &shared_->rank[comm.rank()];
        run_rep(ts_, sd_, traced, &comm, "", ts_.accum, ts_.batch, sp, out);
        if (traced) {
          fold_spans(sp, ts_, true, out);
          dump_spans(sp, idx, comm.rank());
          out->layers.allreduce_gbps = allreduce_probe(comm, *out);
        }
        return 0;
      });
      r.restarts = world.restarts();
      if (rc != 0) res_->fail("ddp world exited with code " + std::to_string(rc));
      for (int k = 0; k < ts_.ranks; ++k) r.ranks.push_back(shared_->rank[k]);
    }
    if (!ckpt_dir.empty()) remove_tree(ckpt_dir);

    r.ok = true;
    int64_t setup_end = 0, run_begin = INT64_MAX, run_end = 0;
    for (const RepOut& o : r.ranks) {
      r.ok = r.ok && o.ok == 1;
      setup_end = std::max(setup_end, o.t_setup_end);
      run_begin = std::min(run_begin, o.t_run_begin);
      run_end = std::max(run_end, o.t_run_end);
      r.rss_mib = std::max(r.rss_mib, o.rss_mib);
    }
    r.rank0 = r.ranks[0];
    r.setup_s = ns_to_s(setup_end - t0);
    r.wall_s = ns_to_s(run_end - run_begin);
    r.tokens = static_cast<double>(ts_.steps) * ts_.accum * ts_.batch *
               ts_.model.seq_len * ts_.ranks;
    if (traced && ts_.ranks > 1) {
      std::vector<double> skew;
      for (int s = 0; s < r.rank0.steps; ++s) {
        int64_t lo = INT64_MAX, hi = 0;
        for (const RepOut& o : r.ranks) {
          lo = std::min(lo, o.step_end[s]);
          hi = std::max(hi, o.step_end[s]);
        }
        skew.push_back(ns_to_ms(hi - lo));
      }
      r.skew_ms = median(skew);
    }
    check_rep(r, traced);
    return r;
  }

  // Guards every repetition must pass, and bit-equality with the first.
  void check_rep(const Rep& r, bool traced) {
    res_->attempted += ts_.steps;  // optimizer steps run
    if (!r.ok) {
      res_->fail(name_ + ": a rank did not finish its repetition");
      return;
    }
    if (r.restarts > 0)
      res_->fail(name_ + ": world restarted " + std::to_string(r.restarts) +
                 " time(s)");
    for (size_t k = 0; k < r.ranks.size(); ++k) {
      const RepOut& o = r.ranks[k];
      const std::string who = name_ + " rank " + std::to_string(k);
      res_->check(o.resumed_from_step == 0,
                  who + ": resumed from a leftover checkpoint");
      res_->check(o.fused_fallback == 0, who + ": train.fused_fallback fired");
      res_->check(o.diverged == 0 && o.rollbacks == 0,
                  who + ": diverged or rolled back");
      res_->check(o.steps == ts_.steps, who + ": ran " +
                                            std::to_string(o.steps) +
                                            " steps, expected " +
                                            std::to_string(ts_.steps));
      res_->check(std::isfinite(o.val_loss), who + ": non-finite val loss");
      if (ts_.ckpt_every > 0)
        res_->check(o.checkpoints == ts_.steps / ts_.ckpt_every,
                    who + ": wrong checkpoint count");
    }
    // Ranks agree on the all-reduced loss; repetitions agree with the first.
    const RepOut& o = r.rank0;
    for (size_t k = 1; k < r.ranks.size(); ++k)
      res_->check(same_stream(o, r.ranks[k]),
                  name_ + ": ranks disagree on the loss stream");
    if (!have_first_) {
      first_ = o;
      have_first_ = true;
      return;
    }
    res_->check(same_stream(first_, o),
                name_ + (traced ? ": traced loss stream or final_val_loss "
                                  "differs from Trainer::run"
                                : ": loss stream or final_val_loss differs "
                                  "between repetitions"));
  }

  static bool same_stream(const RepOut& a, const RepOut& b) {
    if (a.steps != b.steps || !same_bits(a.val_loss, b.val_loss)) return false;
    for (int i = 0; i < a.steps; ++i)
      if (!same_bits(a.losses[i], b.losses[i])) return false;
    return true;
  }

  // DDP pin: the world's loss stream and final validation loss equal those
  // of Trainer::run in a single process with grad_accum = ranks at the same
  // micro-batch size.
  void check_ddp_reference() {
    if (ts_.ranks <= 1 || !have_first_) return;
    core::set_thread_count(1);
    auto ref = std::make_unique<RepOut>();
    SpanRecorder sp;
    run_rep(ts_, sd_, false, nullptr, "", ts_.ranks, ts_.batch, sp, ref.get());
    res_->check(same_stream(*ref, first_),
                name_ + ": loss stream or final_val_loss differs from "
                        "single-process grad_accum " +
                    std::to_string(ts_.ranks));
  }

  const TrainSpec& spec() const { return ts_; }
  const RepOut& first() const { return first_; }

  void set_shared(SharedReps* s) { shared_ = s; }

 private:
  void dump_spans(const SpanRecorder& sp, int idx, int rank) const {
    const std::string path = opt_.out_dir + "/" + name_ + "_seed" +
                             std::to_string(opt_.seed) + "_rep" +
                             std::to_string(idx) + "_rank" +
                             std::to_string(rank) + ".spans.jsonl";
    if (!sp.write_jsonl(path))
      std::fprintf(stderr, "repobench: could not write %s\n", path.c_str());
  }

  // Bench-side probe inside the same world: all-reduce one step's gradient
  // volume a few times; GB/s of payload per call (median).
  static double allreduce_probe(dist::Communicator& comm, const RepOut& r) {
    const int64_t n = r.weight_bytes / static_cast<int64_t>(sizeof(float));
    std::vector<float> buf(static_cast<size_t>(n), 1.f);
    comm.allreduce_sum(buf.data(), n);  // warm-up
    std::vector<double> gbps;
    for (int i = 0; i < 9; ++i) {
      const int64_t t0 = now_ns();
      comm.allreduce_sum(buf.data(), n);
      gbps.push_back(4.0 * static_cast<double>(n) /
                     static_cast<double>(now_ns() - t0));
    }
    return median(gbps);
  }

  std::string name_;
  const Options& opt_;
  TrainSpec ts_;
  Seeds sd_;
  Result* res_;
  SharedReps* shared_ = nullptr;
  int rep_counter_ = 0;
  bool have_first_ = false;
  RepOut first_;
};

double mib(double bytes) { return bytes / (1024.0 * 1024.0); }

}  // namespace

bool is_training_workload(const std::string& name) {
  return name == "pretrain_wide" || name == "qapollo_accum" ||
         name == "ddp_zero1";
}

Result run_training_workload(const Options& opt, HostStamp* host) {
  Result res;
  TrainingRun run(opt.workload, opt, &res);
  const TrainSpec& ts = run.spec();
  SharedReps* shared = nullptr;
  if (ts.ranks > 1) {
    shared = map_shared();
    if (shared == nullptr) {
      res.fail("mmap for rank results failed");
      return res;
    }
    run.set_shared(shared);
    // The parent never starts the thread pool: forked ranks would inherit a
    // pool whose worker threads do not exist.
    core::set_thread_count(1);
    *host = host_stamp(std::to_string(ts.ranks) + " ranks x " +
                       std::to_string(ts.threads) + " thread");
  } else {
    core::set_thread_count(ts.threads);
    *host = host_stamp(std::to_string(ts.threads));
  }
  make_dirs(opt.out_dir);

  const int64_t budget_end =
      now_ns() + static_cast<int64_t>(opt.seconds * 1e9);
  std::vector<Rep> plain, traced;
  // Untraced runs repeat until the budget is spent (at least twice, so the
  // cross-repetition equality check always runs). Traced runs alternate
  // untraced and traced repetitions the same way.
  // A round that would end more than half a round past the budget is not
  // started.
  for (;;) {
    const int64_t t0 = now_ns();
    plain.push_back(run.rep(false));
    if (opt.trace) traced.push_back(run.rep(true));
    const int64_t round = now_ns() - t0;
    if (plain.size() >= 2 && now_ns() + round / 2 > budget_end) break;
    if (plain.size() >= 64) break;
  }
  run.check_ddp_reference();

  const int64_t rep_steps = ts.steps;
  if (!opt.trace) {
    // Step latency over every step of every repetition. A run holds about
    // 70 to 400 steps, so the tail is p90, which leaves 7 to 40 samples
    // beyond it; p99 would be a few descheduled steps.
    std::vector<double> setup, tps, steps_ms, rss;
    for (const Rep& r : plain) {
      setup.push_back(r.setup_s);
      tps.push_back(r.tokens / r.wall_s);
      rss.push_back(r.rss_mib);
      const std::vector<double> iv = step_intervals_ms(r.rank0);
      steps_ms.insert(steps_ms.end(), iv.begin(), iv.end());
    }
    const RepOut& f = run.first();
    res.metrics["setup_s"] = median(setup);
    res.metrics["tokens_per_s"] = median(tps);
    res.metrics["latency_ms_p50"] = quantile(steps_ms, 0.50);
    res.metrics["latency_ms_tail"] = quantile(steps_ms, 0.90);
    res.metrics["final_val_loss"] = f.val_loss;
    res.metrics["state_mib"] = mib(static_cast<double>(f.state_bytes + f.weight_bytes));
    res.metrics["peak_rss_mib"] = *std::max_element(rss.begin(), rss.end());
    res.note("train_tokens_per_s", res.metrics["tokens_per_s"], "tok/s");
    res.note("train_state_mib", res.metrics["state_mib"], "MiB");
    res.note("repetitions", static_cast<double>(plain.size()), "");
    res.note("steps_per_repetition", static_cast<double>(rep_steps), "");
    res.note("step_ms_p90 (latency_ms_tail)", res.metrics["latency_ms_tail"], "ms");
    res.note("step_latency_samples", static_cast<double>(steps_ms.size()), "");
    res.note("optimizer_state_mib", mib(static_cast<double>(f.state_bytes)), "MiB");
    res.note("weight_mib", mib(static_cast<double>(f.weight_bytes)), "MiB");
  } else {
    std::vector<double> plain_wall, traced_wall, step_ms;
    for (const Rep& r : plain) plain_wall.push_back(r.wall_s);
    LayerTotals sum;
    double n_steps = 0, skew = 0, gbps = 0, stash = 0, ckpt_bytes = 0;
    for (const Rep& r : traced) {
      traced_wall.push_back(r.wall_s);
      for (const RepOut& o : r.ranks) {
        const LayerTotals& l = o.layers;
        sum.data_ms += l.data_ms;
        sum.fwd_ms += l.fwd_ms;
        sum.bwd_self_ms += l.bwd_self_ms;
        sum.update_ms += l.update_ms;
        sum.apply_self_ms += l.apply_self_ms;
        sum.opt_param_ms += l.opt_param_ms;
        sum.opt_begin_end_ms += l.opt_begin_end_ms;
        sum.opt_calls += l.opt_calls;
        sum.refresh_opt_ms += l.refresh_opt_ms;
        sum.refresh_steps += l.refresh_steps;
        sum.ckpt_ms += l.ckpt_ms;
        sum.ckpt_count += l.ckpt_count;
        sum.coll_ms += l.coll_ms;
        sum.comm_bytes += l.comm_bytes;
        gbps += l.allreduce_gbps;
        stash = std::max(stash, l.stash_peak_bytes);
        ckpt_bytes = std::max(ckpt_bytes, l.ckpt_bytes);
        n_steps += o.steps;
        for (int s = 0; s < o.steps; ++s)
          step_ms.push_back(ns_to_ms(o.step_end[s] - o.step_begin[s]));
      }
      skew += r.skew_ms;
    }
    const double nt = static_cast<double>(traced.size());
    const double ranks_reps = nt * ts.ranks;
    auto per_step = [&](double total) { return n_steps > 0 ? total / n_steps : 0; };
    const double fwd_flops =
        forward_flops(ts.model, ts.batch) * ts.accum;  // per step, per rank
    const double fwd_ms = per_step(sum.fwd_ms);
    const double bwd_ms = per_step(sum.bwd_self_ms);
    const double ceiling = gemm_ceiling(ts.dominant, ts.threads);
    const double fb_gflops =
        fwd_ms + bwd_ms > 0 ? 3.0 * fwd_flops / ((fwd_ms + bwd_ms) * 1e6) : 0;
    const double step_mean = mean(step_ms);

    res.metrics["data.batch_ms"] = per_step(sum.data_ms);
    res.metrics["nn.forward_ms"] = fwd_ms;
    res.metrics["nn.forward_gflops"] = fwd_ms > 0 ? fwd_flops / (fwd_ms * 1e6) : 0;
    res.metrics["autograd.backward_self_ms"] = bwd_ms;
    res.metrics["autograd.backward_gflops"] =
        bwd_ms > 0 ? 2.0 * fwd_flops / (bwd_ms * 1e6) : 0;
    const bool ddp = ts.ranks > 1;
    res.metrics["tensor.gemm_ceiling_gflops"] = ceiling;
    res.metrics["tensor.fwd_bwd_frac_of_ceiling"] =
        ceiling > 0 ? fb_gflops / ceiling : 0;
    // The DDP parent never starts the thread pool (see above).
    res.metrics["core.gemm_parallel_eff"] =
        ddp ? 0 : gemm_parallel_eff(ts.dominant);
    res.metrics["train.update_ms"] = per_step(sum.update_ms);
    res.metrics["train.stash_peak_mib"] = mib(stash);
    res.metrics["train.step_ms_p50"] = quantile(step_ms, 0.50);
    res.metrics["train.step_ms_p99"] = quantile(step_ms, 0.99);
    res.metrics["optim.step_param_ms"] = per_step(sum.opt_param_ms);
    res.metrics["optim.begin_end_ms"] = per_step(sum.opt_begin_end_ms);
    res.metrics["optim.step_param_calls"] = per_step(sum.opt_calls);
    res.metrics["optim.refresh_step_ms"] =
        sum.refresh_steps > 0 ? sum.refresh_opt_ms / sum.refresh_steps : 0;
    res.metrics["quant.requantize_ms"] = ts.quant ? per_step(sum.apply_self_ms) : 0;
    res.metrics["ckpt.save_ms"] =
        sum.ckpt_count > 0 ? sum.ckpt_ms / sum.ckpt_count : 0;
    res.metrics["ckpt.bytes"] = ckpt_bytes;
    res.metrics["dist.collective_frac"] =
        ddp && step_mean > 0 ? per_step(sum.coll_ms) / step_mean : 0;
    res.metrics["dist.bytes_per_step"] = ddp ? per_step(sum.comm_bytes) : 0;
    res.metrics["dist.rank_skew_ms"] = ddp && nt > 0 ? skew / nt : 0;
    res.metrics["dist.allreduce_gbps"] = ddp ? gbps / ranks_reps : 0;
    res.metrics["obs.trace_overhead_frac"] =
        median(traced_wall) / median(plain_wall) - 1.0;
    res.note("traced_repetitions", nt, "");
    res.note("tensor.dominant_gemm_m", static_cast<double>(ts.dominant.m), "");
    res.note("tensor.dominant_gemm_k", static_cast<double>(ts.dominant.k), "");
    res.note("tensor.dominant_gemm_n", static_cast<double>(ts.dominant.n), "");
    res.note("nn.forward_gflop_per_step", fwd_flops * 1e-9, "GFLOP");
    res.note("quant.requantize_ms", res.metrics["quant.requantize_ms"],
             "ms/step (derived: update-applying pipeline self time)");
  }
  if (shared != nullptr) munmap(shared, sizeof(SharedReps));
  return res;
}

}  // namespace repobench
