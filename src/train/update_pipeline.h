// Shared per-leaf update machinery for the trainer's classic and fused
// paths: "gradient ready → (accumulate) → reduce → step → requantize →
// release → broadcast", factored out of trainer.cpp so gradient
// accumulation, ZeRO-1 data parallelism, INT8 quantized weights, 8-bit
// optimizer state, and fault injection compose with the fused
// backward+optimizer path instead of each forcing the classic loop.
//
// One pipeline instance is armed per optimizer step. The two drivers:
//
//   fused  — micro-batches 0..accum-2 run backward with stash_leaf() as the
//            tape leaf callback: each finalized per-micro gradient is summed
//            into a per-slot stash with the same left-to-right association
//            as the classic accumulation loop (move the first complete
//            gradient, then `a[k] += g[k]`). The final micro-batch runs with
//            on_final_leaf(): complete the accumulation, inject any armed
//            nan_grad fault, all-reduce, record the slot norm, then queue
//            the slot's update if this rank owns it (a non-owner releases
//            the gradient at once). The queue runs after every W-th leaf
//            all-reduce — a *round* — so under ZeRO-1 every rank's share of
//            the updates (step_param, then in-place INT8 requantization,
//            then the gradient release) falls between the same pair of
//            collectives and the ranks update in parallel instead of taking
//            turns. At most one round's owned gradients are pending. Single
//            process (W = 1) is a round per leaf: update and release at
//            once. finish_fused() runs the last partial round, then walks
//            the slots in order: it sweeps leaves the final graph never
//            touched (stashed-but-dead and truly dead), and each slot's owner
//            broadcasts its refreshed weights. Then end_step.
//            Deferring the weight updates and broadcasts is safe because
//            backward never reads a weight after its leaf callback.
//
//   classic — per-micro stash_param_grads(), then finalize_classic_grads()
//            (restore + zero-fill + fault injection), reduce_classic_grads(),
//            classic_grad_norm(), and apply_classic() (begin → slot-order
//            step_param + requantize → end → broadcasts).
//
// Bit-identity between the two drivers rests on three invariants: the
// accumulation association is identical; per-slot norms are reduced with the
// same single-rounding std::fma in slot order; and every slot-local update
// (optimizer step_param, per-slot requantization RNG stream) is independent
// of the order slots complete in.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "autograd/tape.h"
#include "core/quantized_weights.h"
#include "dist/communicator.h"
#include "nn/parameter.h"
#include "obs/metrics.h"
#include "optim/optimizer.h"
#include "tensor/matrix.h"

namespace apollo::train {

class UpdatePipeline {
 public:
  UpdatePipeline(optim::Optimizer& opt, dist::Communicator* comm,
                 core::QuantizedWeightStore* qstore);

  // Resets per-step state. `params` must outlive the step (the trainer's
  // step-local ParamList). `want_norm` controls whether per-slot Frobenius
  // norms are recorded for the gradient-norm reduction.
  void arm(const nn::ParamList& params, bool want_norm, int accum);

  // Arms a one-shot nan_grad fault: slot 0's first gradient element is
  // poisoned after accumulation completes, before any reduce/step — the
  // same observation point in both drivers.
  void arm_nan_grad() { inject_nan_ = true; }

  // --- fused driver ------------------------------------------------------
  // Leaf callback for micro-batches 0..accum-2: accumulate into the stash.
  void stash_leaf(Matrix* g, ag::Tape& tape);
  // opt.begin_step, after the trainer has set the step's learning rate.
  void begin_updates();
  // Leaf callback for the final micro-batch: finish accumulation, reduce,
  // and queue (or run, at a round's end) the owned update.
  void on_final_leaf(Matrix* g, ag::Tape& tape);
  // Last partial round, owner broadcasts, stashed-but-dead and dead-leaf
  // sweep, then opt.end_step. Call it while the final micro-batch's tape is
  // still alive: pending gradients are released into it.
  void finish_fused();
  // Slot-ordered std::fma reduction of the per-leaf norms.
  double fused_grad_norm() const;
  // Bytes currently held by stashed accumulated gradients (folded into the
  // trainer's peak-memory accounting: the stash is live across micro tapes).
  int64_t stash_bytes() const { return stash_bytes_; }

  // --- classic driver ----------------------------------------------------
  // Accumulate the current complete per-micro gradients (accum > 1).
  void stash_param_grads();
  // Move the accumulated gradients back into Parameter::grad, zero-fill
  // leaves outside every micro-batch's graph, apply an armed fault.
  void finalize_classic_grads();
  // Rank-ordered all-reduce of every parameter gradient.
  void reduce_classic_grads();
  // Global gradient norm over Parameter::grad in slot order (std::fma).
  double classic_grad_norm() const;
  // begin → slot-order owned step_param + requantize → end → broadcasts.
  void apply_classic();

 private:
  size_t slot_for(const Matrix* g) const;
  // Owned-slot update: optimizer step, then in-place INT8 requantization.
  void update_slot(size_t slot);
  // Fused driver: update every queued owned slot, release its gradient.
  void run_round();
  // Collectives. With metrics on, each call adds its payload to
  // dist.allreduce_bytes / dist.broadcast_bytes and its wall time to the
  // dist.collective_ms histogram.
  using Clock = std::chrono::steady_clock;
  void allreduce(float* data, int64_t n);
  void broadcast(float* data, int64_t n, int root);
  void record_collective(obs::Counter* bytes, int64_t n, Clock::time_point t0);

  optim::Optimizer& opt_;
  dist::Communicator* comm_;
  core::QuantizedWeightStore* qstore_;
  const nn::ParamList* params_ = nullptr;
  bool want_norm_ = false;
  int accum_ = 1;
  int world_ = 1;
  bool inject_nan_ = false;
  int64_t stash_bytes_ = 0;
  std::unordered_map<const Matrix*, size_t> slot_of_;
  std::vector<Matrix> stash_;    // per-slot accumulated gradients
  std::vector<double> norms_;    // per-slot Frobenius norms
  std::vector<char> stepped_;    // slots reduced by the final-micro callback
  // Fused driver: leaf all-reduces so far (rounds are counted from them),
  // the owned slots of the current round, and the final micro-batch's tape.
  // A round holds at most W <= kMaxRanks slots, so its queue is a fixed
  // array and queuing never touches the heap.
  int reduced_ = 0;
  std::array<size_t, dist::kMaxRanks> round_{};
  int round_size_ = 0;
  ag::Tape* final_tape_ = nullptr;
  // Collective metrics; null unless metrics are enabled.
  obs::Counter* allreduce_bytes_ = nullptr;
  obs::Counter* broadcast_bytes_ = nullptr;
  obs::Histogram* collective_ms_ = nullptr;
};

}  // namespace apollo::train
