// Serving subsystem tests (DESIGN.md §14). The load-bearing invariants:
//
//  1. Cached incremental decode matches the tape forward (the
//     architecture's reference implementation) within one window: logits
//     within 5e-4 at every position, and greedy tokens identical to a
//     full-sequence recompute across prompt lengths, batch compositions,
//     and every available SIMD level. Past the window, where no tape
//     oracle exists, decode stays finite and invariant 2 pins it.
//  2. Batch composition is invisible: a request's tokens are identical
//     whether it decodes alone (serve::generate, a batch of one) or
//     staggered into a full batch (continuous batching must not change
//     anyone's output).
//  3. Scheduler admission control: bounded queue, deadline expiry, drain.
//  4. The HTTP engine streams well-formed JSONL over a real socket.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "autograd/tape.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "serve/json_min.h"
#include "serve/kv_cache.h"
#include "serve/request.h"
#include "serve/scheduler.h"
#include "tensor/simd/simd.h"

namespace apollo {
namespace {

nn::LlamaConfig tiny() {
  nn::LlamaConfig c;
  c.vocab = 48;
  c.hidden = 16;
  c.intermediate = 40;
  c.n_heads = 2;
  c.n_layers = 2;
  c.seq_len = 8;
  return c;
}

std::vector<int32_t> ramp_prompt(int len) {
  std::vector<int32_t> p;
  for (int i = 0; i < len; ++i) p.push_back((i * 5 + 1) % 48);
  return p;
}

// Greedy continuation recomputed from scratch through the tape forward, no
// cache at all: the oracle for cached decode. An empty prompt is
// conditioned on token 0, as BatchDecoder::admit does. The prefix and the
// n tokens must fit in one window.
std::vector<int32_t> tape_greedy(nn::LlamaModel& model,
                                 std::vector<int32_t> prefix, int n) {
  const int window = model.config().seq_len;
  if (prefix.empty()) prefix.push_back(0);
  EXPECT_LE(static_cast<int>(prefix.size()) + n, window);
  std::vector<int32_t> out;
  for (int t = 0; t < n; ++t) {
    std::vector<int32_t> ids(static_cast<size_t>(window), 0);
    std::copy(prefix.begin(), prefix.end(), ids.begin());
    ag::Tape tape;
    const Matrix& logits = tape.value(model.forward(tape, ids));
    const float* row = logits.row(static_cast<int64_t>(prefix.size()) - 1);
    int32_t best = 0;
    for (int64_t v = 1; v < logits.cols(); ++v)
      if (row[v] > row[best]) best = static_cast<int32_t>(v);
    out.push_back(best);
    prefix.push_back(best);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Cached decode against the tape forward
// ---------------------------------------------------------------------------

TEST(ServeBatcher, LogitsMatchTapeForwardAtEveryPosition) {
  nn::LlamaModel model(tiny(), 3);
  const std::vector<int32_t> window = {5, 1, 44, 2, 2, 30, 7, 19};
  ag::Tape tape;
  const Matrix& tape_logits = tape.value(model.forward(tape, window));

  // Feed the window as a prompt: each prefill step leaves the logits of
  // its position in the lane's row.
  serve::BatchDecoder dec(model, 1);
  serve::GenParams gp;
  gp.max_tokens = 1;
  const int lane = dec.admit(window, gp);
  for (size_t t = 0; t < window.size(); ++t) {
    dec.decode_step();
    const float* logits = dec.logits(lane);
    for (int64_t v = 0; v < tape_logits.cols(); ++v)
      EXPECT_NEAR(logits[v], tape_logits.at(static_cast<int64_t>(t), v),
                  5e-4f)
          << "position " << t << " vocab " << v;
  }
  EXPECT_TRUE(dec.output(lane).done);
}

TEST(ServeBatcher, FirstTokenDependsOnlyOnItself) {
  // With an empty cache, the first step equals the tape forward of a
  // window whose later tokens are arbitrary (causality).
  nn::LlamaModel model(tiny(), 8);
  serve::BatchDecoder dec(model, 1);
  const int lane = dec.admit({9}, serve::GenParams{});
  dec.decode_step();
  const float* logits = dec.logits(lane);
  ag::Tape tape;
  const Matrix& ref =
      tape.value(model.forward(tape, {9, 0, 0, 0, 0, 0, 0, 0}));
  for (int64_t v = 0; v < ref.cols(); ++v)
    EXPECT_NEAR(logits[v], ref.at(0, v), 5e-4f);
}

TEST(ServeBatcher, LongDecodeStaysFinite) {
  // Slide far past the trained window; outputs must remain finite.
  nn::LlamaModel model(tiny(), 7);
  const int vocab = model.config().vocab;
  std::vector<int32_t> prompt;
  for (int t = 0; t < 40; ++t) prompt.push_back(t % vocab);  // 5× the window
  serve::BatchDecoder dec(model, 1);
  serve::GenParams gp;
  gp.max_tokens = 1;
  const int lane = dec.admit(prompt, gp);
  for (size_t t = 0; t < prompt.size(); ++t) {
    dec.decode_step();
    const float* logits = dec.logits(lane);
    for (int v = 0; v < vocab; ++v) ASSERT_TRUE(std::isfinite(logits[v]));
  }
  EXPECT_TRUE(dec.output(lane).done);
}

TEST(ServeBatcher, CachedDecodeMatchesTapeForwardRecompute) {
  // Within one window, recompute every emission from scratch through the
  // tape forward and compare greedy argmax tokens, for prompts from empty
  // to one short of the seq_len=8 window.
  nn::LlamaModel model(tiny(), 11);
  const int window = model.config().seq_len;
  for (int len : {0, 1, 3, 7}) {
    const auto prompt = ramp_prompt(len);
    serve::GenParams gp;
    gp.temperature = 0.f;  // greedy: token-identical or bust
    gp.max_tokens = window - std::max(len, 1);
    EXPECT_EQ(serve::generate(model, prompt, gp),
              tape_greedy(model, prompt, gp.max_tokens))
        << "prompt length " << len;
  }
}

TEST(ServeBatcher, BatchCompositionDoesNotChangeAnyRequestsTokens) {
  nn::LlamaModel model(tiny(), 13);
  // Mixed workload: different prompt lengths, stochastic sampling params,
  // per-request seeds — admitted at different times into a shared batch.
  struct Req {
    std::vector<int32_t> prompt;
    serve::GenParams params;
    int admit_at_step;
  };
  std::vector<Req> reqs;
  for (int i = 0; i < 6; ++i) {
    Req r;
    r.prompt = ramp_prompt(1 + (i * 3) % 7);
    r.params.max_tokens = 4 + i;
    r.params.temperature = (i % 2 == 0) ? 0.f : 0.9f;
    r.params.top_k = (i % 3 == 0) ? 0 : 5;
    r.params.top_p = (i % 2 == 1) ? 0.85f : 1.f;
    r.params.seed = 1000 + static_cast<uint64_t>(i);
    r.admit_at_step = i;  // staggered: joins a batch already decoding
    reqs.push_back(std::move(r));
  }

  std::vector<std::vector<int32_t>> solo;
  for (const Req& r : reqs)
    solo.push_back(serve::generate(model, r.prompt, r.params));

  serve::BatchDecoder dec(model, 4);  // fewer lanes than requests
  std::vector<std::vector<int32_t>> batched(reqs.size());
  std::vector<int> lane_of(reqs.size(), -1);
  std::vector<bool> done(reqs.size(), false);
  size_t next_admit = 0;
  for (int step = 0; step < 4096; ++step) {
    while (next_admit < reqs.size() &&
           reqs[next_admit].admit_at_step <= step && dec.has_free_lane()) {
      lane_of[next_admit] =
          dec.admit(reqs[next_admit].prompt, reqs[next_admit].params);
      ASSERT_GE(lane_of[next_admit], 0);
      ++next_admit;
    }
    if (dec.active() == 0 && next_admit == reqs.size()) break;
    dec.decode_step();
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (lane_of[i] < 0 || done[i]) continue;
      const serve::DecodeOut& o = dec.output(lane_of[i]);
      if (o.emitted) batched[i].push_back(o.token);
      if (o.done) {
        done[i] = true;
        dec.release(lane_of[i]);  // lane becomes reusable mid-run
      }
    }
  }
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_TRUE(done[i]) << "request " << i << " never finished";
    EXPECT_EQ(batched[i], solo[i])
        << "request " << i << " changed output inside a batch";
  }
}

TEST(ServeBatcher, TokenIdentityHoldsAtEverySimdLevel) {
  nn::LlamaModel model(tiny(), 14);
  const auto prompt = ramp_prompt(4);
  serve::GenParams gp;
  gp.temperature = 0.f;
  gp.max_tokens = 4;  // 4 prompt + 4 generated == seq_len
  for (simd::Level level : simd::available_levels()) {
    ASSERT_TRUE(simd::set_level(level));
    const auto expected = tape_greedy(model, prompt, gp.max_tokens);
    // Decode inside a batch of three (two greedy neighbours on other
    // prompts) — still token-identical to the tape forward at the same
    // level.
    serve::BatchDecoder dec(model, 3);
    serve::GenParams other = gp;
    (void)dec.admit(ramp_prompt(2), other);
    const int lane = dec.admit(prompt, gp);
    (void)dec.admit(ramp_prompt(6), other);
    std::vector<int32_t> got;
    for (int guard = 0; guard < 256 && got.size() < expected.size();
         ++guard) {
      dec.decode_step();
      const serve::DecodeOut& o = dec.output(lane);
      if (o.emitted) got.push_back(o.token);
    }
    EXPECT_EQ(got, expected)
        << "SIMD level " << simd::level_name(level);
  }
  simd::clear_level_override();
}

TEST(ServeBatcher, StopTokenEndsStreamWithStopReason) {
  nn::LlamaModel model(tiny(), 15);
  serve::GenParams gp;
  gp.temperature = 0.f;
  gp.max_tokens = 8;
  const auto free_run = serve::generate(model, ramp_prompt(3), gp);
  ASSERT_GE(free_run.size(), 2u);

  serve::GenParams stop = gp;
  stop.stop_token = free_run[1];
  serve::BatchDecoder dec(model, 1);
  const int lane = dec.admit(ramp_prompt(3), stop);
  std::vector<int32_t> got;
  serve::FinishReason reason = serve::FinishReason::kLength;
  for (int guard = 0; guard < 64; ++guard) {
    dec.decode_step();
    const serve::DecodeOut& o = dec.output(lane);
    if (o.emitted) got.push_back(o.token);
    if (o.done) {
      reason = o.finish;
      break;
    }
  }
  EXPECT_EQ(got.size(), 2u);
  EXPECT_EQ(got.back(), stop.stop_token);
  EXPECT_EQ(reason, serve::FinishReason::kStop);
}

// ---------------------------------------------------------------------------
// KV arena
// ---------------------------------------------------------------------------

TEST(ServeKvArena, BytesMatchTheDocumentedFormula) {
  serve::KvArena arena(/*slots=*/3, /*n_layers=*/2, /*window=*/8,
                       /*hidden=*/16);
  EXPECT_EQ(arena.bytes(), 3LL * 2 * 2 * 8 * 16 * 4);
  EXPECT_EQ(serve::KvArena::bytes_per_slot(2, 8, 16) * 3, arena.bytes());
}

TEST(ServeKvArena, SlotLayerRingRowsAreDisjoint) {
  const int hidden = 4;
  serve::KvArena arena(2, 2, 3, hidden);
  // Stamp a unique value into every (slot, layer, ring, k/v) row...
  float stamp = 1.f;
  for (int s = 0; s < 2; ++s)
    for (int l = 0; l < 2; ++l)
      for (int r = 0; r < 3; ++r) {
        std::fill(arena.k_row(s, l, r), arena.k_row(s, l, r) + hidden,
                  stamp);
        std::fill(arena.v_row(s, l, r), arena.v_row(s, l, r) + hidden,
                  -stamp);
        stamp += 1.f;
      }
  // ...and read it all back: any overlap would have clobbered something.
  stamp = 1.f;
  for (int s = 0; s < 2; ++s)
    for (int l = 0; l < 2; ++l)
      for (int r = 0; r < 3; ++r) {
        EXPECT_EQ(arena.k_row(s, l, r)[hidden - 1], stamp);
        EXPECT_EQ(arena.v_row(s, l, r)[0], -stamp);
        stamp += 1.f;
      }
  arena.clear_slot(0);
  EXPECT_EQ(arena.k_row(0, 1, 2)[0], 0.f);
  EXPECT_NE(arena.k_row(1, 0, 0)[0], 0.f);
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

serve::ServeRequest make_req(uint64_t id, int64_t submit_ms,
                             int64_t deadline_ms = 0) {
  serve::ServeRequest r;
  r.id = id;
  r.prompt = {1, 2};
  r.submit_ms = submit_ms;
  r.deadline_ms = deadline_ms;
  return r;
}

TEST(ServeScheduler, BoundedQueueRejectsOverflowInFifoOrder) {
  serve::Scheduler sched(serve::SchedConfig{/*max_queue=*/2,
                                            /*default_deadline_ms=*/0});
  EXPECT_EQ(sched.submit(make_req(1, 0)), serve::Admission::kAccepted);
  EXPECT_EQ(sched.submit(make_req(2, 0)), serve::Admission::kAccepted);
  EXPECT_EQ(sched.submit(make_req(3, 0)), serve::Admission::kQueueFull);
  EXPECT_EQ(sched.queue_depth(), 2);

  std::vector<serve::ServeRequest> expired;
  serve::ServeRequest out;
  ASSERT_TRUE(sched.pop_next(0, &out, &expired));
  EXPECT_EQ(out.id, 1u);
  ASSERT_TRUE(sched.pop_next(0, &out, &expired));
  EXPECT_EQ(out.id, 2u);
  EXPECT_FALSE(sched.pop_next(0, &out, &expired));
  EXPECT_TRUE(expired.empty());
}

TEST(ServeScheduler, DrainRefusesNewWorkButKeepsQueued) {
  serve::Scheduler sched(serve::SchedConfig{4, 0});
  EXPECT_EQ(sched.submit(make_req(1, 0)), serve::Admission::kAccepted);
  sched.begin_drain();
  EXPECT_EQ(sched.submit(make_req(2, 0)), serve::Admission::kDraining);
  EXPECT_EQ(sched.queue_depth(), 1);
  std::vector<serve::ServeRequest> expired;
  serve::ServeRequest out;
  EXPECT_TRUE(sched.pop_next(0, &out, &expired));
  EXPECT_EQ(out.id, 1u);
}

TEST(ServeScheduler, DefaultDeadlineAppliesAndExpireEvicts) {
  serve::Scheduler sched(serve::SchedConfig{4, /*default_deadline_ms=*/100});
  EXPECT_EQ(sched.submit(make_req(1, /*submit_ms=*/50)),
            serve::Admission::kAccepted);
  // Explicit deadlines are kept as-is.
  EXPECT_EQ(sched.submit(make_req(2, 50, /*deadline_ms=*/500)),
            serve::Admission::kAccepted);

  std::vector<serve::ServeRequest> expired;
  sched.expire(149, &expired);
  EXPECT_TRUE(expired.empty()) << "deadline is submit + default";
  sched.expire(200, &expired);  // id 1 expires at 150, id 2 lives to 500
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 1u);
  EXPECT_EQ(sched.queue_depth(), 1);
}

TEST(ServeScheduler, PopSkipsExpiredRequests) {
  serve::Scheduler sched(serve::SchedConfig{4, 0});
  EXPECT_EQ(sched.submit(make_req(1, 0, /*deadline_ms=*/10)),
            serve::Admission::kAccepted);
  EXPECT_EQ(sched.submit(make_req(2, 0)), serve::Admission::kAccepted);
  std::vector<serve::ServeRequest> expired;
  serve::ServeRequest out;
  ASSERT_TRUE(sched.pop_next(/*now_ms=*/20, &out, &expired));
  EXPECT_EQ(out.id, 2u);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 1u);
}

TEST(ServeScheduler, ZeroDeadlineNeverExpires) {
  // deadline_ms == 0 means "no deadline", not "already expired" — a request
  // admitted with 0 (and no default) must survive any clock value.
  serve::Scheduler sched(serve::SchedConfig{4, /*default_deadline_ms=*/0});
  EXPECT_EQ(sched.submit(make_req(1, 0, /*deadline_ms=*/0)),
            serve::Admission::kAccepted);
  std::vector<serve::ServeRequest> expired;
  sched.expire(INT64_MAX, &expired);
  EXPECT_TRUE(expired.empty());
  serve::ServeRequest out;
  ASSERT_TRUE(sched.pop_next(INT64_MAX, &out, &expired));
  EXPECT_EQ(out.id, 1u);
  EXPECT_TRUE(expired.empty());
}

TEST(ServeScheduler, DeadlineExpiresOnExactBoundary) {
  // The deadline is exclusive of life at its own instant: now == deadline
  // already expires (the >= contract), now == deadline - 1 does not.
  serve::Scheduler sched(serve::SchedConfig{4, 0});
  EXPECT_EQ(sched.submit(make_req(1, 0, /*deadline_ms=*/100)),
            serve::Admission::kAccepted);
  std::vector<serve::ServeRequest> expired;
  sched.expire(99, &expired);
  EXPECT_TRUE(expired.empty());
  sched.expire(100, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 1u);
  EXPECT_EQ(sched.queue_depth(), 0);

  EXPECT_EQ(sched.submit(make_req(2, 0, /*deadline_ms=*/100)),
            serve::Admission::kAccepted);
  expired.clear();
  serve::ServeRequest out;
  EXPECT_FALSE(sched.pop_next(/*now_ms=*/100, &out, &expired));
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 2u);
}

// ---------------------------------------------------------------------------
// Request JSON
// ---------------------------------------------------------------------------

TEST(ServeJson, ParsesFlatObjectsOfEveryKind) {
  std::map<std::string, serve::JsonValue> obj;
  std::string err;
  ASSERT_TRUE(serve::parse_json_object(
      R"({"s":"a\"bA","n":-2.5e1,"t":true,"f":false,"z":null,)"
      R"("a":[1,2,3]})",
      obj, &err))
      << err;
  EXPECT_EQ(obj.at("s").str, "a\"bA");
  EXPECT_EQ(obj.at("n").num, -25.0);
  EXPECT_TRUE(obj.at("t").boolean);
  EXPECT_FALSE(obj.at("f").boolean);
  EXPECT_EQ(obj.at("z").kind, serve::JsonValue::Kind::kNull);
  ASSERT_EQ(obj.at("a").arr.size(), 3u);
  EXPECT_EQ(obj.at("a").arr[2], 3.0);
}

TEST(ServeJson, RejectsMalformedInput) {
  std::map<std::string, serve::JsonValue> obj;
  std::string err;
  EXPECT_FALSE(serve::parse_json_object(R"({"a":{"nested":1}})", obj, &err));
  EXPECT_FALSE(serve::parse_json_object(R"({"a":1,"a":2})", obj, &err));
  EXPECT_NE(err.find("duplicate"), std::string::npos);
  EXPECT_FALSE(serve::parse_json_object(R"({"a":1} trailing)", obj, &err));
  // \u escapes above 0xFF have no byte-level token mapping.
  EXPECT_FALSE(serve::parse_json_object("{\"a\":\"\\u0100\"}", obj, &err));
  EXPECT_FALSE(serve::parse_json_object(R"({"a":01x})", obj, &err));
  EXPECT_TRUE(serve::parse_json_object(R"({"a":"ÿ"})", obj, &err));
}

// ---------------------------------------------------------------------------
// HTTP engine (loopback, single-threaded: the test pumps the engine)
// ---------------------------------------------------------------------------

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ::fcntl(fd, F_SETFL, O_NONBLOCK);
  return fd;
}

// Pumps the engine until `fd` closes, collecting the raw response.
std::string pump_until_closed(serve::ServeEngine& engine, int fd) {
  std::string response;
  char buf[4096];
  for (int guard = 0; guard < 20000; ++guard) {
    engine.pump(0);
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got > 0) response.append(buf, static_cast<size_t>(got));
    if (got == 0) return response;  // server closed: stream complete
  }
  ADD_FAILURE() << "connection never closed; got so far: " << response;
  return response;
}

TEST(ServeEngine, StreamsTokensOverLoopbackHttp) {
  nn::LlamaModel model(tiny(), 16);
  serve::EngineConfig cfg;
  cfg.port = 0;
  cfg.max_batch = 2;
  serve::ServeEngine engine(model, cfg);
  ASSERT_GT(engine.port(), 0);

  const int fd = connect_loopback(engine.port());
  const std::string body = R"({"tokens":[1,2,3],"max_tokens":4})";
  const std::string request =
      "POST /v1/generate HTTP/1.1\r\nHost: t\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  const std::string response = pump_until_closed(engine, fd);
  ::close(fd);

  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("Transfer-Encoding: chunked"), std::string::npos);
  EXPECT_NE(response.find("\"event\":\"start\""), std::string::npos);
  EXPECT_NE(response.find("\"finish_reason\":\"length\""), std::string::npos)
      << response;
  // Four token lines for max_tokens 4.
  size_t tokens = 0;
  for (size_t at = response.find("{\"token\":"); at != std::string::npos;
       at = response.find("{\"token\":", at + 1))
    ++tokens;
  EXPECT_EQ(tokens, 4u) << response;
}

TEST(ServeEngine, ConcurrentRequestsAllCompleteAndMatchSoloDecode) {
  nn::LlamaModel model(tiny(), 16);
  serve::EngineConfig cfg;
  cfg.port = 0;
  cfg.max_batch = 2;  // 3 clients on 2 lanes: one queues
  serve::ServeEngine engine(model, cfg);

  serve::GenParams gp;
  gp.temperature = 0.f;
  gp.max_tokens = 5;

  std::vector<int> fds;
  std::vector<std::vector<int32_t>> want;
  for (int i = 0; i < 3; ++i) {
    const std::vector<int32_t> prompt = ramp_prompt(2 + i);
    want.push_back(serve::generate(model, prompt, gp));
    std::string toks = "[";
    for (size_t j = 0; j < prompt.size(); ++j) {
      if (j != 0) toks += ',';
      toks += std::to_string(prompt[j]);
    }
    toks += "]";
    const std::string body =
        "{\"tokens\":" + toks + ",\"max_tokens\":5}";
    const std::string request =
        "POST /v1/generate HTTP/1.1\r\nHost: t\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    const int fd = connect_loopback(engine.port());
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    fds.push_back(fd);
  }
  for (int i = 0; i < 3; ++i) {
    const std::string response = pump_until_closed(engine, fds[i]);
    ::close(fds[i]);
    std::vector<int32_t> got;
    for (size_t at = response.find("{\"token\":"); at != std::string::npos;
         at = response.find("{\"token\":", at + 1))
      got.push_back(static_cast<int32_t>(
          std::strtol(response.c_str() + at + 9, nullptr, 10)));
    EXPECT_EQ(got, want[static_cast<size_t>(i)]) << "client " << i;
  }
}

TEST(ServeEngine, HealthAndErrorRoutes) {
  nn::LlamaModel model(tiny(), 17);
  serve::EngineConfig cfg;
  cfg.port = 0;
  serve::ServeEngine engine(model, cfg);

  const int fd = connect_loopback(engine.port());
  const std::string request = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  const std::string health = pump_until_closed(engine, fd);
  ::close(fd);
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos) << health;

  const int fd2 = connect_loopback(engine.port());
  const std::string bad_body = R"({"bogus":1})";
  const std::string bad =
      "POST /v1/generate HTTP/1.1\r\nHost: t\r\nContent-Length: " +
      std::to_string(bad_body.size()) + "\r\n\r\n" + bad_body;
  ASSERT_EQ(::send(fd2, bad.data(), bad.size(), 0),
            static_cast<ssize_t>(bad.size()));
  const std::string resp = pump_until_closed(engine, fd2);
  ::close(fd2);
  EXPECT_NE(resp.find("400"), std::string::npos) << resp;
  EXPECT_NE(resp.find("unknown field"), std::string::npos) << resp;

  const int fd3 = connect_loopback(engine.port());
  const std::string missing = "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_EQ(::send(fd3, missing.data(), missing.size(), 0),
            static_cast<ssize_t>(missing.size()));
  const std::string notfound = pump_until_closed(engine, fd3);
  ::close(fd3);
  EXPECT_NE(notfound.find("404"), std::string::npos) << notfound;
}

std::string generate_request(const std::string& body) {
  return "POST /v1/generate HTTP/1.1\r\nHost: t\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

// A deadline that fires between decode steps must close the stream with
// finish_reason "deadline" AND return the lane (and its KV slot) to the
// pool — a leaked lane would wedge every later request on a 1-lane engine.
TEST(ServeEngine, DeadlineExpiryReleasesLaneCleanly) {
  nn::LlamaModel model(tiny(), 16);
  serve::EngineConfig cfg;
  cfg.port = 0;
  cfg.max_batch = 1;
  serve::ServeEngine engine(model, cfg);

  const int fd = connect_loopback(engine.port());
  // max_tokens (the 4096 cap) is far beyond what 1 ms of decoding can
  // emit, so only the deadline can end this stream.
  const std::string request = generate_request(
      R"({"tokens":[1,2],"max_tokens":4096,"deadline_ms":1})");
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  const std::string response = pump_until_closed(engine, fd);
  ::close(fd);
  EXPECT_NE(response.find("\"finish_reason\":\"deadline\""),
            std::string::npos)
      << response;
  EXPECT_EQ(engine.decoder().active(), 0);
  EXPECT_TRUE(engine.decoder().has_free_lane());

  // The reclaimed lane must serve a fresh request end to end.
  const int fd2 = connect_loopback(engine.port());
  const std::string again =
      generate_request(R"({"tokens":[1,2],"max_tokens":3})");
  ASSERT_EQ(::send(fd2, again.data(), again.size(), 0),
            static_cast<ssize_t>(again.size()));
  const std::string response2 = pump_until_closed(engine, fd2);
  ::close(fd2);
  EXPECT_NE(response2.find("\"finish_reason\":\"length\""),
            std::string::npos)
      << response2;
  EXPECT_EQ(engine.decoder().active(), 0);
}

// Integer fields arrive as JSON doubles, which hold integers exactly only
// up to 2^53 − 1. Anything larger must be refused rather than rounded
// (2^53 + 1 would silently become seed 2^53) or cast out of int64 range.
TEST(ServeEngine, IntegersBeyondDoublePrecisionAreRejected) {
  nn::LlamaModel model(tiny(), 17);
  serve::EngineConfig cfg;
  cfg.port = 0;
  serve::ServeEngine engine(model, cfg);
  for (const char* field : {R"("seed":9007199254740993)",
                            R"("seed":9223372036854775808)",
                            R"("deadline_ms":9223372036854774784)"}) {
    const int fd = connect_loopback(engine.port());
    const std::string request = generate_request(
        std::string(R"({"tokens":[1,2],"max_tokens":2,)") + field + "}");
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    const std::string response = pump_until_closed(engine, fd);
    ::close(fd);
    EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos)
        << field << "\n" << response;
  }
  // The largest exact integer is still a valid seed.
  const int fd = connect_loopback(engine.port());
  const std::string ok = generate_request(
      R"({"tokens":[1,2],"max_tokens":2,"seed":9007199254740991})");
  ASSERT_EQ(::send(fd, ok.data(), ok.size(), 0),
            static_cast<ssize_t>(ok.size()));
  const std::string response = pump_until_closed(engine, fd);
  ::close(fd);
  EXPECT_NE(response.find("\"finish_reason\":\"length\""),
            std::string::npos)
      << response;
}

TEST(ServeEngine, QueueFullRejectionCarriesRetryAfter) {
  nn::LlamaModel model(tiny(), 16);
  serve::EngineConfig cfg;
  cfg.port = 0;
  cfg.max_batch = 1;
  cfg.max_queue = 1;
  serve::ServeEngine engine(model, cfg);

  // Fill the lane and the queue with long generations...
  const std::string longreq =
      generate_request(R"({"tokens":[1,2],"max_tokens":4096})");
  const int fd_lane = connect_loopback(engine.port());
  ASSERT_EQ(::send(fd_lane, longreq.data(), longreq.size(), 0),
            static_cast<ssize_t>(longreq.size()));
  for (int i = 0; i < 50; ++i) engine.pump(0);  // admit to the lane
  const int fd_queue = connect_loopback(engine.port());
  ASSERT_EQ(::send(fd_queue, longreq.data(), longreq.size(), 0),
            static_cast<ssize_t>(longreq.size()));
  for (int i = 0; i < 50; ++i) engine.pump(0);  // park in the queue

  // ...so the third request bounces with a back-off hint.
  const int fd = connect_loopback(engine.port());
  const std::string request =
      generate_request(R"({"tokens":[1,2],"max_tokens":4})");
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  const std::string response = pump_until_closed(engine, fd);
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.1 429"), std::string::npos) << response;
  EXPECT_NE(response.find("\"error\":\"queue full\""), std::string::npos);
  const std::string header = "Retry-After: ";
  const size_t at = response.find(header);
  ASSERT_NE(at, std::string::npos) << response;
  const long secs =
      std::strtol(response.c_str() + at + header.size(), nullptr, 10);
  EXPECT_GE(secs, 1);
  EXPECT_LE(secs, 60);
  ::close(fd_lane);
  ::close(fd_queue);
}

}  // namespace
}  // namespace apollo
