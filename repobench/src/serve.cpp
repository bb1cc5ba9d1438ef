// serve_open: a seeded open loop of Poisson arrivals into serve::Scheduler
// and serve::BatchDecoder, driven in-process (no sockets), then a closed
// loop at concurrency 16 that saturates the decoder.
//
// Open loop: every request has a due time on a fixed schedule; the
// generator submits it as soon as the loop gets to it, and every latency is
// measured from the due time, so a stall also charges the requests that
// were due during it. Closed loop: a finished request is replaced at once,
// which keeps all 16 lanes busy; it gives the saturated token rate.
//
// Correctness: a seeded sample of open-loop requests is decoded again,
// alone, on a fresh BatchDecoder and must match token for token (a lane's
// output may not depend on its batch neighbours). No request may end with
// kShutdown or kDeadline.
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/threadpool.h"
#include "data/corpus.h"
#include "nn/llama.h"
#include "probes.h"
#include "serve/batcher.h"
#include "serve/scheduler.h"
#include "train/trainer.h"
#include "workloads.h"

namespace repobench {
namespace {

namespace data = apollo::data;
namespace nn = apollo::nn;
namespace serve = apollo::serve;

// One decode thread. On a shared 4-thread AVX-512 Xeon host, 2 threads
// decoded slower (3.3-4.1k vs 4.5-5.9k tokens/s at c=16) and their open-loop
// p99 swung between 39 and 58 ms from run to run (29-37 ms on 1 thread),
// too unsteady to gate on.
constexpr int kThreads = 1;
constexpr int kMaxBatch = 16;
// The latency tail is p90, as on the training workloads: 150 samples lie
// beyond it. p99, printed in the report, has 15. It marks the longest stall
// of the host in the run, and varied by 29-41% across seeds on a busy host.
constexpr int kOpenRequests = 1500;
// The closed loop never drains: one decoder keeps all 16 lanes busy, taking
// requests in turn from a seeded pool of 1,600 and starting over at its end.
// Its rate is the median over rounds of a fixed number of decode steps
// (about 0.4 s each). About half the lane-steps feed prompt tokens and emit
// nothing, so a round's rate depends on the requests it holds: over rounds
// of 64 steps it ranged from 4.6k to 7.7k tokens/s within one run. Rounds of
// 100 requests, each drained before the next, left lanes idle in the drain
// and made the rate depend on the seed's mix of lengths.
constexpr int kClosedPool = 1600;
constexpr int kClosedRoundSteps = 256;
constexpr int kSampleChecks = 16;
constexpr int kSetups = 7;
// Open-loop arrival rate: about 0.3 of the saturated request rate (the
// closed loop emits about 5k tokens/s at 10.75 tokens per request on the
// host above, about 470 requests/s). Queueing amplifies every slow stretch
// of a shared host into the latency tail: at two thirds of saturation p50
// varied by 35% from run to run, and at 190 requests/s p99 still varied by
// 24-30%; at 143 requests/s it varied by 18%.
constexpr double kArrivalsPerSecond = 143.0;
// Latency limit for slo_miss_frac (due time to done).
constexpr double kSloMs = 100.0;

struct Req {
  std::vector<int32_t> prompt;
  serve::GenParams params;
  int64_t due_ns = 0;  // offset from the start of the open loop
};

// Mixed population: half short prompts, half close to the window; half
// short generations, half running up to the window; half greedy, half
// seeded top-k/top-p sampling.
std::vector<Req> make_requests(SeedStream& ss, int n, int vocab, int window,
                               double rate) {
  std::vector<Req> out(static_cast<size_t>(n));
  double t = 0;
  for (Req& r : out) {
    const int plen = ss.uniform() < 0.5 ? ss.uniform_int(2, 8)
                                        : ss.uniform_int(16, window - 8);
    r.prompt.resize(static_cast<size_t>(plen));
    for (int32_t& tok : r.prompt) tok = ss.uniform_int(0, vocab - 1);
    const int room = window - plen;
    r.params.max_tokens = ss.uniform() < 0.5
                              ? ss.uniform_int(2, 8)
                              : ss.uniform_int(std::max(1, room - 6), room);
    if (ss.uniform() < 0.5) {
      r.params.temperature = 0.f;
    } else {
      r.params.temperature = 0.8f;
      r.params.top_k = 40;
      r.params.top_p = 0.95f;
    }
    r.params.seed = ss.next();
    if (rate > 0) {
      t += -std::log(1.0 - ss.uniform()) / rate;
      r.due_ns = static_cast<int64_t>(t * 1e9);
    }
  }
  return out;
}

void sleep_until(int64_t t_ns) {
  const int64_t dt = t_ns - now_ns();
  if (dt <= 0) return;
  timespec ts{};
  ts.tv_sec = dt / 1000000000;
  ts.tv_nsec = dt % 1000000000;
  nanosleep(&ts, nullptr);
}

struct OpenStats {
  std::vector<double> latency_ms, ttft_ms, queue_wait_ms, gen_lag_ms;
  std::vector<double> step_ms;
  std::vector<std::vector<int32_t>> tokens;  // per request
  std::vector<size_t> completed;             // ids, in completion order
  int64_t refused = 0, cut_short = 0, slo_miss = 0;
  double lane_steps = 0, prefill_lane_steps = 0, steps = 0, flops = 0;
  double busy_ms = 0;
};

// The open loop. Spans (when on) cover submit, pop_next, admit,
// decode_step, and release, each tagged with the request id.
OpenStats run_open(nn::LlamaModel& model, const std::vector<Req>& reqs,
                   SpanRecorder& sp) {
  const nn::LlamaConfig& cfg = model.config();
  OpenStats st;
  st.tokens.resize(reqs.size());
  serve::SchedConfig sc;
  sc.max_queue = 256;
  serve::Scheduler sched(sc);
  serve::BatchDecoder dec(model, kMaxBatch);
  std::vector<int64_t> lane_req(kMaxBatch, -1);
  std::vector<int> lane_fed(kMaxBatch, 0);
  std::vector<char> got_first(reqs.size(), 0);
  std::vector<serve::ServeRequest> expired;
  const int64_t t0 = now_ns();
  auto due = [&](size_t i) { return t0 + reqs[i].due_ns; };
  size_t next = 0;
  int64_t done = 0;
  const int64_t n = static_cast<int64_t>(reqs.size());
  while (done + st.refused < n) {
    int64_t now = now_ns();
    while (next < reqs.size() && due(next) <= now) {
      st.gen_lag_ms.push_back(ns_to_ms(now - due(next)));
      serve::ServeRequest r;
      r.id = next;
      r.prompt = reqs[next].prompt;
      r.params = reqs[next].params;
      r.submit_ms = (now - t0) / 1000000;
      sp.set_id(static_cast<int64_t>(next));
      serve::Admission adm;
      {
        ScopedSpan s(sp, "serve.submit");
        adm = sched.submit(std::move(r));
      }
      if (adm != serve::Admission::kAccepted) ++st.refused;
      ++next;
    }
    const int64_t now_ms = (now - t0) / 1000000;
    while (dec.has_free_lane()) {
      serve::ServeRequest r;
      bool popped;
      {
        ScopedSpan s(sp, "serve.pop_next");
        popped = sched.pop_next(now_ms, &r, &expired);
      }
      if (!popped) break;
      sp.set_id(static_cast<int64_t>(r.id));
      int lane;
      {
        ScopedSpan s(sp, "serve.admit");
        lane = dec.admit(r.prompt, r.params);
      }
      lane_req[static_cast<size_t>(lane)] = static_cast<int64_t>(r.id);
      lane_fed[static_cast<size_t>(lane)] = 0;
      st.queue_wait_ms.push_back(ns_to_ms(now_ns() - due(r.id)));
    }
    st.cut_short += static_cast<int64_t>(expired.size());
    done += static_cast<int64_t>(expired.size());
    expired.clear();
    if (dec.active() == 0) {
      if (next < reqs.size()) sleep_until(due(next));
      continue;
    }
    double step_flops = 0;
    for (int lane = 0; lane < kMaxBatch; ++lane) {
      if (!dec.lane_active(lane)) continue;
      int& fed = lane_fed[static_cast<size_t>(lane)];
      ++fed;
      step_flops += decode_lane_flops(cfg, std::min(fed, cfg.seq_len));
    }
    sp.set_id(-1);
    const int64_t s0 = now_ns();
    {
      ScopedSpan s(sp, "serve.decode_step");
      dec.decode_step();
    }
    now = now_ns();
    st.step_ms.push_back(ns_to_ms(now - s0));
    st.busy_ms += ns_to_ms(now - s0);
    st.flops += step_flops;
    st.steps += 1;
    for (int lane = 0; lane < kMaxBatch; ++lane) {
      if (!dec.lane_active(lane)) continue;
      const size_t id = static_cast<size_t>(lane_req[static_cast<size_t>(lane)]);
      const serve::DecodeOut& o = dec.output(lane);
      st.lane_steps += 1;
      if (o.emitted) {
        st.tokens[id].push_back(o.token);
        if (!got_first[id]) {
          got_first[id] = 1;
          st.ttft_ms.push_back(ns_to_ms(now - due(id)));
        }
      } else {
        st.prefill_lane_steps += 1;
      }
      if (o.done) {
        const double lat = ns_to_ms(now - due(id));
        st.latency_ms.push_back(lat);
        st.completed.push_back(id);
        if (lat > kSloMs) ++st.slo_miss;
        if (o.finish == serve::FinishReason::kShutdown ||
            o.finish == serve::FinishReason::kDeadline)
          ++st.cut_short;
        sp.set_id(static_cast<int64_t>(id));
        ScopedSpan s(sp, "serve.release");
        dec.release(lane);
        ++done;
      }
    }
  }
  sp.set_id(-1);
  return st;
}

// The closed loop at concurrency 16: a finished request is replaced at once
// by the next one from the pool, so every lane stays busy.
class ClosedLoop {
 public:
  ClosedLoop(nn::LlamaModel& model, const std::vector<Req>& pool)
      : dec_(model, kMaxBatch), pool_(pool) {}

  // Runs `steps` decode steps; returns emitted tokens/s.
  double round(int steps, SpanRecorder& sp, double* wall_ms) {
    int64_t emitted = 0;
    const int64_t t0 = now_ns();
    for (int step = 0; step < steps; ++step) {
      while (dec_.has_free_lane()) {
        ScopedSpan s(sp, "serve.admit");
        const Req& r = pool_[next_];
        dec_.admit(r.prompt, r.params);
        next_ = (next_ + 1) % pool_.size();
      }
      {
        ScopedSpan s(sp, "serve.decode_step");
        dec_.decode_step();
      }
      for (int lane = 0; lane < kMaxBatch; ++lane) {
        if (!dec_.lane_active(lane)) continue;
        const serve::DecodeOut& o = dec_.output(lane);
        if (o.emitted) ++emitted;
        if (o.done) {
          ScopedSpan s(sp, "serve.release");
          dec_.release(lane);
        }
      }
    }
    const int64_t dt = now_ns() - t0;
    *wall_ms = ns_to_ms(dt);
    return static_cast<double>(emitted) / ns_to_s(dt);
  }

 private:
  serve::BatchDecoder dec_;
  const std::vector<Req>& pool_;
  size_t next_ = 0;
};

// Decodes one request alone on a fresh decoder.
std::vector<int32_t> decode_alone(nn::LlamaModel& model, const Req& r) {
  serve::BatchDecoder dec(model, kMaxBatch);
  std::vector<int32_t> out;
  const int lane = dec.admit(r.prompt, r.params);
  for (;;) {
    dec.decode_step();
    const serve::DecodeOut& o = dec.output(lane);
    if (o.emitted) out.push_back(o.token);
    if (o.done) break;
  }
  dec.release(lane);
  return out;
}

}  // namespace

Result run_serve_workload(const Options& opt, HostStamp* host) {
  Result res;
  apollo::core::set_thread_count(kThreads);
  *host = host_stamp(std::to_string(kThreads));
  const int64_t budget_end = now_ns() + static_cast<int64_t>(opt.seconds * 1e9);

  SeedStream ss(opt.seed);
  const uint64_t model_seed = ss.next();
  const nn::LlamaConfig cfg = nn::llama_7b_proxy();
  const std::vector<Req> open_reqs =
      make_requests(ss, kOpenRequests, cfg.vocab, cfg.seq_len,
                    kArrivalsPerSecond);
  const std::vector<Req> closed_reqs =
      make_requests(ss, kClosedPool, cfg.vocab, cfg.seq_len, 0);

  // Set-up: model weights, decoder panels, and KV arena, several times.
  std::vector<double> setup_s;
  std::unique_ptr<nn::LlamaModel> model;
  int64_t kv_bytes = 0;
  for (int i = 0; i < kSetups; ++i) {
    const int64_t t0 = now_ns();
    model = std::make_unique<nn::LlamaModel>(cfg, model_seed);
    serve::BatchDecoder dec(*model, kMaxBatch);
    kv_bytes = dec.kv_bytes();
    setup_s.push_back(ns_to_s(now_ns() - t0));
  }

  // Closed-loop rounds run before and after the open loop, so the saturated
  // rate is sampled across the whole run rather than one stretch of it. A
  // traced run follows each untraced round with a traced one. The first
  // round fills the lanes and is not counted.
  std::vector<double> tps, plain_wall, traced_wall;
  SpanRecorder closed_sp;
  ClosedLoop closed(*model, closed_reqs);
  double warm_wall = 0;
  closed.round(kClosedRoundSteps, closed_sp, &warm_wall);
  auto closed_rounds = [&](int64_t until) {
    for (int rounds = 1;; ++rounds) {
      const int64_t t0 = now_ns();
      double wall = 0;
      tps.push_back(closed.round(kClosedRoundSteps, closed_sp, &wall));
      plain_wall.push_back(wall);
      if (opt.trace) {
        closed_sp.enable(true);
        closed.round(kClosedRoundSteps, closed_sp, &wall);
        closed_sp.enable(false);
        traced_wall.push_back(wall);
      }
      const int64_t round = now_ns() - t0;
      if (rounds >= 3 && now_ns() + round / 2 > until) break;
      if (rounds >= 400) break;
    }
  };
  const double open_s = static_cast<double>(open_reqs.back().due_ns) * 1e-9;
  closed_rounds(now_ns() + static_cast<int64_t>(
                               std::max(0.0, ns_to_s(budget_end - now_ns()) -
                                                 open_s) * 0.5e9));

  SpanRecorder sp;
  sp.enable(opt.trace);
  const OpenStats st = run_open(*model, open_reqs, sp);
  sp.enable(false);

  closed_rounds(budget_end);

  // Refused requests are failed operations, not wrong outputs; a request
  // cut short by shutdown or a deadline is both.
  res.attempted += kOpenRequests;
  res.failed += st.refused + st.cut_short;
  if (st.cut_short > 0) {
    res.correct = false;
    res.failures.push_back("serve_open: " + std::to_string(st.cut_short) +
                           " request(s) cut short by kShutdown or kDeadline");
  }
  // Batch-composition invariance on a seeded sample. Refused requests
  // produced nothing, so the sample is drawn from the completed ones.
  SeedStream pick(opt.seed ^ 0x5EEDull);
  for (int i = 0; i < kSampleChecks && !st.completed.empty(); ++i) {
    const size_t id = st.completed[static_cast<size_t>(
        pick.uniform_int(0, static_cast<int>(st.completed.size()) - 1))];
    res.check(decode_alone(*model, open_reqs[id]) == st.tokens[id],
              "serve_open: request " + std::to_string(id) +
                  " decodes differently alone than in the batch");
  }

  if (!opt.trace) {
    // Quality guard on the served weights: validation loss on a seeded set.
    const data::SyntheticCorpus corpus(data::CorpusConfig{});
    const data::ValidationSet vs =
        data::make_validation_set(corpus, 4, 8, cfg.seq_len, ss.next());
    const double val_loss = apollo::train::validation_loss(*model, vs);
    int64_t weight_bytes = 0;
    for (nn::Parameter* p : model->parameters())
      weight_bytes += p->value.size() * static_cast<int64_t>(sizeof(float));
    const double attempted = static_cast<double>(kOpenRequests);
    res.metrics["setup_s"] = median(setup_s);
    res.metrics["tokens_per_s"] = median(tps);
    res.metrics["latency_ms_p50"] = quantile(st.latency_ms, 0.50);
    res.metrics["latency_ms_tail"] = quantile(st.latency_ms, 0.90);
    res.metrics["final_val_loss"] = val_loss;
    res.metrics["state_mib"] =
        static_cast<double>(weight_bytes + kv_bytes) / (1024.0 * 1024.0);
    res.metrics["peak_rss_mib"] = peak_rss_mib();
    res.note("serve_tokens_per_s", median(tps), "tok/s (closed loop, c=16)");
    res.note("latency_ms_p90 (latency_ms_tail)", res.metrics["latency_ms_tail"], "ms");
    res.note("latency_ms_p99", quantile(st.latency_ms, 0.99), "ms");
    res.note("ttft_ms_p50", quantile(st.ttft_ms, 0.50), "ms");
    res.note("ttft_ms_p99", quantile(st.ttft_ms, 0.99), "ms");
    res.note("slo_miss_frac",
             static_cast<double>(st.slo_miss + st.refused) / attempted, "");
    res.note("slo_limit_ms", kSloMs, "ms");
    res.note("open_requests", attempted, "");
    res.note("open_latency_samples", static_cast<double>(st.latency_ms.size()), "");
    res.note("arrival_rate", kArrivalsPerSecond, "req/s");
    res.note("closed_rounds", static_cast<double>(tps.size()), "");
  } else {
    const double steps = std::max(1.0, st.steps);
    const GemmShape shape{kMaxBatch, cfg.hidden, cfg.intermediate};
    const double ceiling = gemm_ceiling(shape, kThreads);
    const double decode_gflops =
        st.busy_ms > 0 ? st.flops / (st.busy_ms * 1e6) : 0;
    res.metrics["tensor.gemm_ceiling_gflops"] = ceiling;
    res.metrics["tensor.fwd_bwd_frac_of_ceiling"] =
        ceiling > 0 ? decode_gflops / ceiling : 0;
    res.metrics["core.gemm_parallel_eff"] = gemm_parallel_eff(shape);
    res.metrics["serve.decode_step_ms_p50"] = quantile(st.step_ms, 0.50);
    res.metrics["serve.decode_step_ms_p99"] = quantile(st.step_ms, 0.99);
    res.metrics["serve.decode_gflops"] = decode_gflops;
    res.metrics["serve.batch_occupancy"] = st.lane_steps / steps;
    res.metrics["serve.prefill_share"] =
        st.lane_steps > 0 ? st.prefill_lane_steps / st.lane_steps : 0;
    res.metrics["serve.queue_wait_ms_p99"] = quantile(st.queue_wait_ms, 0.99);
    res.metrics["serve.refused_frac"] =
        static_cast<double>(st.refused) / static_cast<double>(kOpenRequests);
    res.metrics["serve.gen_lag_ms_p99"] = quantile(st.gen_lag_ms, 0.99);
    res.metrics["obs.trace_overhead_frac"] =
        median(traced_wall) / median(plain_wall) - 1.0;
    res.note("traced_closed_rounds", static_cast<double>(traced_wall.size()), "");
    res.note("serve.decode_steps", st.steps, "");
    make_dirs(opt.out_dir);
    const std::string path = opt.out_dir + "/serve_open_seed" +
                             std::to_string(opt.seed) + ".spans.jsonl";
    if (!sp.write_jsonl(path))
      std::fprintf(stderr, "repobench: could not write %s\n", path.c_str());
  }
  return res;
}

}  // namespace repobench
