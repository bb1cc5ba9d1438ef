#include "train/update_pipeline.h"

#include <cmath>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tensor/check.h"
#include "tensor/ops.h"

namespace apollo::train {

UpdatePipeline::UpdatePipeline(optim::Optimizer& opt, dist::Communicator* comm,
                               core::QuantizedWeightStore* qstore)
    : opt_(opt), comm_(comm), qstore_(qstore) {
  if (comm_ != nullptr && obs::telemetry_enabled()) {
    obs::Registry& reg = obs::Registry::instance();
    allreduce_bytes_ = &reg.counter("dist.allreduce_bytes");
    broadcast_bytes_ = &reg.counter("dist.broadcast_bytes");
    collective_ms_ = &reg.histogram("dist.collective_ms");
  }
}

void UpdatePipeline::arm(const nn::ParamList& params, bool want_norm,
                         int accum) {
  params_ = &params;
  want_norm_ = want_norm;
  accum_ = accum;
  world_ = comm_ != nullptr ? comm_->world() : 1;
  inject_nan_ = false;
  stash_bytes_ = 0;
  stash_.assign(params.size(), Matrix());
  norms_.assign(params.size(), 0.0);
  stepped_.assign(params.size(), 0);
  reduced_ = 0;
  round_size_ = 0;
  final_tape_ = nullptr;
  slot_of_.clear();
  slot_of_.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) slot_of_[&params[i]->grad] = i;
}

size_t UpdatePipeline::slot_for(const Matrix* g) const {
  const auto it = slot_of_.find(g);
  APOLLO_CHECK_MSG(it != slot_of_.end(),
                   "leaf gradient is not a model parameter");
  return it->second;
}

void UpdatePipeline::update_slot(size_t slot) {
  opt_.step_param(*(*params_)[slot], static_cast<int>(slot));
  if (qstore_ != nullptr) qstore_->requantize_param(static_cast<int>(slot));
}

void UpdatePipeline::run_round() {
  for (int i = 0; i < round_size_; ++i) {
    update_slot(round_[i]);
    final_tape_->release_leaf_grad(&(*params_)[round_[i]]->grad);
  }
  round_size_ = 0;
}

void UpdatePipeline::allreduce(float* data, int64_t n) {
  const auto t0 = collective_ms_ != nullptr ? Clock::now() : Clock::time_point();
  comm_->allreduce_sum(data, n);
  record_collective(allreduce_bytes_, n, t0);
}

void UpdatePipeline::broadcast(float* data, int64_t n, int root) {
  const auto t0 = collective_ms_ != nullptr ? Clock::now() : Clock::time_point();
  comm_->broadcast(data, n, root);
  record_collective(broadcast_bytes_, n, t0);
}

void UpdatePipeline::record_collective(obs::Counter* bytes, int64_t n,
                                       Clock::time_point t0) {
  if (collective_ms_ == nullptr) return;
  collective_ms_->observe(
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  bytes->add(n * static_cast<int64_t>(sizeof(float)));
}

void UpdatePipeline::stash_leaf(Matrix* g, ag::Tape& tape) {
  const size_t slot = slot_for(g);
  Matrix& a = stash_[slot];
  if (a.size() == 0) {
    // First complete per-micro gradient for this slot: move it, so the sum
    // lands in this buffer — the classic loop's exact association.
    stash_bytes_ += g->size() * static_cast<int64_t>(sizeof(float));
    a = tape.take_leaf_grad(g);
  } else {
    APOLLO_CHECK(a.size() == g->size());
    for (int64_t k = 0; k < a.size(); ++k) a[k] += (*g)[k];
    tape.release_leaf_grad(g);
  }
}

void UpdatePipeline::begin_updates() { opt_.begin_step(*params_); }

void UpdatePipeline::on_final_leaf(Matrix* g, ag::Tape& tape) {
  const size_t slot = slot_for(g);
  Matrix& a = stash_[slot];
  if (a.size() > 0) {
    // Complete the left-to-right accumulation: micros 0..accum-2 are already
    // summed in the stash; the final micro's complete gradient lands last.
    // Swapping the sum into the tape-registered buffer keeps the tape's
    // gradient-byte accounting exact (same element count).
    APOLLO_CHECK(a.size() == g->size());
    for (int64_t k = 0; k < a.size(); ++k) a[k] += (*g)[k];
    stash_bytes_ -= a.size() * static_cast<int64_t>(sizeof(float));
    *g = std::move(a);
    a = Matrix();
  }
  if (inject_nan_ && slot == 0 && g->size() > 0) (*g)[0] = std::nanf("");
  // Backward visits leaves in graph order, which is a pure function of the
  // model structure — identical on every rank, so the collectives issued
  // here (and the rounds counted from them) stay aligned without tagging.
  if (comm_ != nullptr) allreduce(g->data(), g->size());
  if (want_norm_) norms_[slot] = frobenius_norm(*g);
  stepped_[slot] = 1;
  final_tape_ = &tape;
  if (opt_.owns_slot(static_cast<int>(slot)))
    round_[round_size_++] = slot;
  else
    tape.release_leaf_grad(g);
  if (++reduced_ % world_ == 0) run_round();
}

void UpdatePipeline::finish_fused() {
  const nn::ParamList& params = *params_;
  run_round();
  for (size_t i = 0; i < params.size(); ++i) {
    nn::Parameter* p = params[i];
    Matrix& a = stash_[i];
    if (a.size() > 0) {
      // Live in an earlier micro-batch but outside the final micro's graph:
      // the stash already holds the complete accumulated gradient. (DDP
      // forbids accum > 1, so no collective is needed here.)
      stash_bytes_ -= a.size() * static_cast<int64_t>(sizeof(float));
      p->grad = std::move(a);
      a = Matrix();
      if (inject_nan_ && i == 0 && p->grad.size() > 0)
        p->grad[0] = std::nanf("");
      if (want_norm_) norms_[i] = frobenius_norm(p->grad);
      if (opt_.owns_slot(static_cast<int>(i))) update_slot(i);
      p->grad = Matrix();
    } else if (!stepped_[i] && opt_.owns_slot(static_cast<int>(i))) {
      // Dead leaf (outside every micro-batch's graph): a zero-gradient
      // update keeps weight decay and per-slot step counters aligned with
      // the classic loop. The zero gradient is identical on every rank, so
      // no all-reduce is needed.
      p->grad.reshape_discard(p->value.rows(), p->value.cols());
      if (inject_nan_ && i == 0 && p->grad.size() > 0) {
        p->grad[0] = std::nanf("");
        if (want_norm_) norms_[i] = frobenius_norm(p->grad);
      }
      update_slot(i);
      p->grad = Matrix();
    }
    // The owner replicates every refreshed slot, in slot order on every
    // rank: the final micro-batch's leaves were updated during backward.
    if (comm_ != nullptr)
      broadcast(p->value.data(), p->value.size(),
                static_cast<int>(i) % world_);
  }
  opt_.end_step(params);
}

double UpdatePipeline::fused_grad_norm() const {
  // Reduced in slot order with the same single-rounding std::fma as
  // classic_grad_norm() — bit-identical to the classic reduction.
  double acc = 0;
  for (const double n : norms_) acc = std::fma(n, n, acc);
  return std::sqrt(acc);
}

void UpdatePipeline::stash_param_grads() {
  // Accumulation across micro-batches sums *complete* per-micro gradients
  // left to right, exactly the association the rank-ordered all-reduce
  // produces. Accumulating inside the shared buffer instead (grad += each
  // scatter/partial as backward lands it) interleaves partial contributions
  // across micro-batches — a different float association — which would
  // break the grad_accum=W ≡ ranks=W bit-identity contract on
  // multi-contribution leaves such as the embedding.
  const nn::ParamList& params = *params_;
  for (size_t i = 0; i < params.size(); ++i) {
    Matrix& g = params[i]->grad;
    if (g.size() == 0) continue;
    Matrix& a = stash_[i];
    if (a.size() == 0) {
      stash_bytes_ += g.size() * static_cast<int64_t>(sizeof(float));
      a = std::move(g);
      g = Matrix();
    } else {
      for (int64_t k = 0; k < a.size(); ++k) a[k] += g[k];
    }
  }
}

void UpdatePipeline::finalize_classic_grads() {
  const nn::ParamList& params = *params_;
  if (accum_ > 1) {
    for (size_t i = 0; i < params.size(); ++i) {
      params[i]->grad = std::move(stash_[i]);
      stash_[i] = Matrix();
      // A leaf outside every micro-batch's graph still needs a (zero)
      // gradient for the optimizer's shape check.
      if (params[i]->grad.size() == 0)
        params[i]->grad.reshape_discard(params[i]->value.rows(),
                                        params[i]->value.cols());
    }
    stash_bytes_ = 0;
  }
  if (inject_nan_ && !params.empty() && params[0]->grad.size() > 0)
    params[0]->grad[0] = std::nanf("");
}

void UpdatePipeline::reduce_classic_grads() {
  if (comm_ == nullptr) return;
  // Rank-ordered sums: from here every gradient is bit-identical on all
  // ranks (and to the grad_accum=world run).
  for (nn::Parameter* p : *params_)
    if (p->grad.size() > 0) allreduce(p->grad.data(), p->grad.size());
}

double UpdatePipeline::classic_grad_norm() const {
  // Per-tensor norms accumulate sequentially in doubles, matching the repo's
  // reduction determinism rule. std::fma pins the accumulate to a single
  // rounding so the fused path's slot-ordered reduction over the same norms
  // is bit-identical (contraction of `acc += n * n` is otherwise at the
  // compiler's discretion per site).
  double acc = 0;
  for (const nn::Parameter* p : *params_) {
    const double n = frobenius_norm(p->grad);
    acc = std::fma(n, n, acc);
  }
  return std::sqrt(acc);
}

void UpdatePipeline::apply_classic() {
  const nn::ParamList& params = *params_;
  APOLLO_TRACE_SCOPE(opt_.trace_name(), "train");
  // ZeRO-1: every rank runs the order-sensitive begin/end bookkeeping over
  // all slots (keeping the optimizer's RNG stream identical), updates only
  // the slots it owns, then the owner broadcasts each refreshed parameter.
  opt_.begin_step(params);
  for (size_t i = 0; i < params.size(); ++i)
    if (opt_.owns_slot(static_cast<int>(i))) update_slot(i);
  opt_.end_step(params);
  if (comm_ != nullptr) {
    for (size_t i = 0; i < params.size(); ++i) {
      Matrix& v = params[i]->value;
      broadcast(v.data(), v.size(), static_cast<int>(i) % world_);
    }
  }
}

}  // namespace apollo::train
