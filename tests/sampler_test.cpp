// Generation tests through serve::generate (one request as a batch of one):
// determinism, shape, greedy-vs-stochastic behaviour, golden tokens of the
// sampler, and a trained-model likelihood check.
#include <gtest/gtest.h>

#include <cmath>

#include "data/corpus.h"
#include "nn/sampler.h"
#include "optim/adamw.h"
#include "serve/batcher.h"
#include "tensor/simd/simd.h"
#include "train/trainer.h"

namespace apollo {
namespace {

nn::LlamaConfig tiny() {
  nn::LlamaConfig c;
  c.vocab = 64;
  c.hidden = 16;
  c.intermediate = 40;
  c.n_heads = 2;
  c.n_layers = 1;
  c.seq_len = 16;
  return c;
}

serve::GenParams sampled(int max_tokens, float temperature = 1.f) {
  serve::GenParams p;
  p.max_tokens = max_tokens;
  p.temperature = temperature;
  return p;
}

TEST(Sampler, ReturnsRequestedCount) {
  nn::LlamaModel model(tiny(), 1);
  auto out = serve::generate(model, {1, 2, 3}, sampled(10));
  ASSERT_EQ(out.size(), 10u);
  for (int32_t t : out) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 64);
  }
}

TEST(Sampler, GreedyIsDeterministic) {
  nn::LlamaModel model(tiny(), 2);
  const serve::GenParams cfg = sampled(8, 0.f);
  auto a = serve::generate(model, {5}, cfg);
  auto b = serve::generate(model, {5}, cfg);
  EXPECT_EQ(a, b);
}

TEST(Sampler, SeededSamplingDeterministic) {
  nn::LlamaModel model(tiny(), 3);
  serve::GenParams cfg = sampled(8);
  cfg.seed = 7;
  auto a = serve::generate(model, {5}, cfg);
  auto b = serve::generate(model, {5}, cfg);
  EXPECT_EQ(a, b);
  cfg.seed = 8;
  auto c = serve::generate(model, {5}, cfg);
  EXPECT_NE(a, c);
}

TEST(Sampler, TopKRestrictsSupport) {
  // With top_k = 1, sampling degenerates to greedy regardless of seed.
  nn::LlamaModel model(tiny(), 4);
  serve::GenParams k1 = sampled(6, 2.f);
  k1.top_k = 1;
  k1.seed = 99;
  EXPECT_EQ(serve::generate(model, {3, 1}, sampled(6, 0.f)),
            serve::generate(model, {3, 1}, k1));
}

TEST(Sampler, PromptsLongerThanWindowWork) {
  nn::LlamaModel model(tiny(), 5);
  std::vector<int32_t> prompt(50, 2);  // > seq_len 16
  auto out = serve::generate(model, prompt, sampled(4));
  EXPECT_EQ(out.size(), 4u);
}

TEST(Sampler, ReflectsWeightUpdates) {
  // Each call decodes the model's current weights: clobbering lm_head
  // (every logit ties, so greedy emits token 0) changes the output.
  nn::LlamaModel model(tiny(), 6);
  const serve::GenParams greedy = sampled(8, 0.f);
  const auto before = serve::generate(model, {7}, greedy);
  model.parameters().back()->value.fill(0.1f);
  const auto after = serve::generate(model, {7}, greedy);
  EXPECT_NE(before, after);
}

TEST(Sampler, ZeroMaxTokensIsRejected) {
  // admit() with max_tokens 0 would still emit one token.
  nn::LlamaModel model(tiny(), 6);
  EXPECT_DEATH(serve::generate(model, {7}, sampled(0)), "max_tokens");
}

TEST(Sampler, GoldenTokensOfTheSampler) {
  // Tokens recorded from the pre-BatchDecoder single-request sampler at
  // the scalar SIMD level, for stochastic configs spanning temperature,
  // top-k and nucleus filtering. sample_row must keep reproducing them.
  // lm_head is scaled 10× so the logits spread over about ±2 and every
  // filter changes which tokens survive (at init they lie within ±0.25).
  struct Case {
    std::vector<int32_t> prompt;
    float temperature;
    int top_k;
    float top_p;
    uint64_t seed;
    std::vector<int32_t> want;
  };
  std::vector<int32_t> ramp;
  for (int i = 0; i < 20; ++i) ramp.push_back((i * 5 + 1) % 64);
  const std::vector<Case> cases = {
      {{5}, 1.f, 0, 1.f, 7, {42, 15, 51, 62, 63, 56, 4, 8, 32, 11, 38, 48}},
      {{1, 2, 3}, 0.8f, 40, 1.f, 1234,
       {7, 29, 34, 42, 25, 11, 24, 57, 37, 53, 42, 38, 7, 42, 11, 26, 44, 29,
        12, 39}},
      {{}, 0.8f, 5, 1.f, 42, {22, 45, 47, 23, 34, 62, 24, 41, 42, 36, 28, 49}},
      {{4, 4}, 1.f, 0, 0.85f, 9,
       {19, 30, 25, 37, 7, 29, 27, 46, 36, 33, 58, 28}},
      {ramp, 2.f, 40, 0.85f, 11, {54, 1, 3, 26, 0, 32, 32, 17, 35, 18}},
      {{7, 8}, 0.5f, 5, 0.85f, 3,
       {40, 0, 22, 45, 49, 20, 8, 52, 47, 48, 32, 30, 25, 24, 57, 32}},
  };
  ASSERT_TRUE(simd::set_level(simd::Level::kScalar));
  nn::LlamaModel model(tiny(), 21);
  Matrix& lm_head = model.parameters().back()->value;
  for (int64_t i = 0; i < lm_head.size(); ++i) lm_head[i] *= 10.f;
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& k = cases[i];
    serve::GenParams p = sampled(static_cast<int>(k.want.size()),
                                 k.temperature);
    p.top_k = k.top_k;
    p.top_p = k.top_p;
    p.seed = k.seed;
    EXPECT_EQ(serve::generate(model, k.prompt, p), k.want) << "case " << i;
  }
  simd::clear_level_override();
}

TEST(Sampler, TrainedModelLikesItsCorpus) {
  // After training, the model's mean log-likelihood on corpus text must
  // beat the untrained model's by a clear margin.
  data::CorpusConfig ccfg;
  ccfg.vocab = 64;
  data::SyntheticCorpus corpus(ccfg);
  nn::LlamaModel model(tiny(), 6);

  Rng rng(1);
  std::vector<int32_t> sample;
  corpus.sample_sequence(rng, 64, sample);
  const double before = nn::sequence_log_likelihood(model, sample);

  optim::AdamW opt;
  train::TrainConfig tc;
  tc.steps = 120;
  tc.batch = 4;
  tc.lr = 3e-3f;
  train::Trainer t(model, opt, corpus, tc);
  t.run();
  const double after = nn::sequence_log_likelihood(model, sample);
  EXPECT_GT(after, before + 0.3);
}

TEST(Sampler, LikelihoodIsProperLogProb) {
  nn::LlamaModel model(tiny(), 7);
  std::vector<int32_t> tokens(20, 1);
  const double ll = nn::sequence_log_likelihood(model, tokens);
  EXPECT_LT(ll, 0.0);               // log-probabilities are negative
  EXPECT_GT(ll, -std::log(64.0) * 3);  // and not absurdly below uniform
}

TEST(Sampler, TopPOneKeepsFullDistribution) {
  nn::LlamaModel model(tiny(), 9);
  serve::GenParams a = sampled(8, /*temperature=*/1.f);
  a.seed = 5;
  serve::GenParams b = a;
  b.top_p = 1.f;  // explicit no-op
  EXPECT_EQ(serve::generate(model, {2}, a), serve::generate(model, {2}, b));
}

TEST(Sampler, TinyTopPIsGreedy) {
  // top_p → 0 keeps only the argmax token.
  nn::LlamaModel model(tiny(), 10);
  serve::GenParams p0 = sampled(6, 2.f);
  p0.top_p = 1e-6f;
  p0.seed = 77;
  EXPECT_EQ(serve::generate(model, {4, 4}, sampled(6, 0.f)),
            serve::generate(model, {4, 4}, p0));
}

}  // namespace
}  // namespace apollo
