// Forwarding timing decorator over the virtual optim::Optimizer interface.
//
// Every virtual call goes straight to the wrapped optimizer, so the update
// arithmetic is the wrapped optimizer's own. Two modes:
//   * marker (spans off): only begin_step() reads the clock, giving one
//     timestamp per optimizer step — the untraced Trainer::run's step times;
//   * traced (spans on): begin_step / step_param / end_step each record a
//     span under whatever pipeline span is open.
//
// set_lr and set_shard are non-virtual on the base class. Calls made on the
// decorator's own type forward at once; calls made through an
// Optimizer& (Trainer::run) land on the base fields, so begin_step copies
// both into the wrapped optimizer before forwarding. Both the trainer and
// the benchmark's step loop set the learning rate and the shard before the
// step's begin_step, so either route gives the wrapped optimizer the same
// values at the same point.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "optim/optimizer.h"

namespace repobench {

class TimedOptimizer : public apollo::optim::Optimizer {
 public:
  TimedOptimizer(apollo::optim::Optimizer& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}

  void set_lr(float lr) {
    Optimizer::set_lr(lr);
    inner_.set_lr(lr);
  }
  void set_shard(int rank, int world) {
    Optimizer::set_shard(rank, world);
    inner_.set_shard(rank, world);
  }

  void begin_step(const apollo::nn::ParamList& params) override {
    step_marks_.push_back(now_ns());
    ScopedSpan s(spans_, "optim.begin_step");
    Optimizer::begin_step(params);  // keeps steps_taken() in sync
    inner_.set_lr(lr());
    inner_.set_shard(shard_rank(), shard_world());
    inner_.begin_step(params);
  }
  void step_param(apollo::nn::Parameter& p, int slot) override {
    ScopedSpan s(spans_, "optim.step_param");
    inner_.step_param(p, slot);
  }
  // The wrapped end_step runs the base epilogue (finite check) itself.
  // lint:allow(check-shape-preconditions)
  void end_step(const apollo::nn::ParamList& params) override {
    ScopedSpan s(spans_, "optim.end_step");
    inner_.end_step(params);
  }

  std::string name() const override { return inner_.name(); }
  int64_t state_bytes() const override { return inner_.state_bytes(); }
  bool save_state(std::FILE* f,
                  const apollo::nn::ParamList& params) const override {
    return inner_.save_state(f, params);
  }
  bool load_state(std::FILE* f,
                  const apollo::nn::ParamList& params) override {
    return inner_.load_state(f, params);
  }
  bool merge_state(std::FILE* f,
                   const apollo::nn::ParamList& params) override {
    return inner_.merge_state(f, params);
  }
  int64_t reseed_projection(uint64_t salt) override {
    return inner_.reseed_projection(salt);
  }
  bool tighten_norm_limiter(float factor) override {
    return inner_.tighten_norm_limiter(factor);
  }

  // Clock stamp taken at each begin_step, in call order.
  const std::vector<int64_t>& step_marks() const { return step_marks_; }

 protected:
  const char* step_trace_name() const override { return inner_.trace_name(); }

 private:
  apollo::optim::Optimizer& inner_;
  SpanRecorder& spans_;
  std::vector<int64_t> step_marks_;
};

}  // namespace repobench
