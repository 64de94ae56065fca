// Backend-parameterized MLP executor: the one forward / backward / update
// sequence. Both worker kinds train through it, and the coordinator, the
// baselines, the examples and the benches evaluate through it.
//
// The sequence (and so the arithmetic, bit for bit) is:
//
//   stage batch -> per-layer fused gemm+bias+act -> fused loss kernel
//   (softmax-xent for class labels, sigmoid-BCE for 0/1 targets) ->
//   per-layer dW = delta^T*prev, db = colsum(delta),
//             delta' = (delta*W) ⊙ act'  -> (optional) on-device axpy
//
// Evaluation runs the same forward, then either a loss-only kernel that
// writes no dLoss/dlogits (mean_loss) or nothing (forward, which hands
// back the logits).
//
// Two buffer regimes, chosen by the backend's zero_copy() capability:
//
//  * Private replica (CpuBackend::kDevice): the constructor allocates
//    replica, gradient, activation and staging buffers in device memory —
//    in the same order the DeviceMlp did, so capacity-exceeded aborts fire
//    identically — and upload_model / download_gradient / download_model
//    really move bytes (and really hit fault injection).
//
//  * Zero-copy (CpuBackend::kZeroCopy): bind_shared_model() /
//    bind_host_gradient() adopt live host storage, so the "replica" IS the
//    bound host model (Hogwild's reference replica — no copy), uploads
//    and downloads are free no-ops, and stage_batch aliases the dataset
//    rows in place. Evaluation needs only the model bound.
//
// Confinement follows the owning backend: one executor, one thread.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "backend/backend.hpp"
#include "nn/metrics.hpp"
#include "nn/model.hpp"

namespace hetsgd::backend {

class MlpExecutor {
 public:
  // Sizes buffers for batches up to `max_batch`; allocates the private
  // replica unless the backend is zero-copy.
  MlpExecutor(Backend& backend, const nn::MlpConfig& config,
              tensor::Index max_batch);
  ~MlpExecutor();

  MlpExecutor(const MlpExecutor&) = delete;
  MlpExecutor& operator=(const MlpExecutor&) = delete;

  Backend& backend() { return backend_; }
  const nn::MlpConfig& config() const { return config_; }
  tensor::Index max_batch() const { return max_batch_; }

  // Zero-copy backends only: alias the replica onto a live host model (for
  // the Hogwild lanes the shared one: reads during compute_gradient race
  // with concurrent lanes by design) and the gradient onto the caller's
  // host gradient slab. The aliases stay valid across copy-assignments of
  // a same-shape model, which reuse its storage.
  void bind_shared_model(nn::Model& model);
  void bind_host_gradient(nn::Gradient& grad);

  // Device-resident bytes held by this executor's buffers.
  std::uint64_t device_bytes() const;

  // Deep-copies the host model into the replica (no-op when the replica is
  // bound to it). Returns the virtual completion time.
  double upload_model(const nn::Model& model, double issue_time);

  // Forward + backward over `x` (batch x input_dim). Returns the batch
  // loss; sets `*completion_time` (if non-null) to the synchronized queue
  // time. The gradient lands in the gradient buffers (== the bound host
  // gradient under zero-copy). One class label per row trains softmax
  // cross-entropy; a batch x num_classes matrix of 0/1 targets trains
  // sigmoid BCE. Either reaches the loss kernel from host memory.
  tensor::Scalar compute_gradient(tensor::ConstMatrixView x,
                                  std::span<const std::int32_t> labels,
                                  double issue_time, double* completion_time);
  tensor::Scalar compute_gradient(tensor::ConstMatrixView x,
                                  tensor::ConstMatrixView targets,
                                  double issue_time, double* completion_time);

  // Forward only over `x` (at most max_batch rows): the host-visible logits
  // (batch x num_classes), valid until the next call on this executor.
  tensor::ConstMatrixView forward(tensor::ConstMatrixView x);

  // Mean softmax cross-entropy over (x, labels), any number of rows: the
  // forward and a loss-only kernel per nn::kEvalChunkRows-row chunk, each
  // chunk's loss weighted by its rows and accumulated in double. Writes
  // neither deltas nor gradient. Issues at virtual time 0 and reports no
  // completion: evaluation runs on zero-copy backends, which charge none.
  double mean_loss(tensor::ConstMatrixView x,
                   std::span<const std::int32_t> labels);

  // replica <- replica - eta * gradient, entirely backend-side.
  double apply_gradient(tensor::Scalar eta, double issue_time);

  // Moves the gradient / replica to host storage (no-op when bound).
  double download_gradient(nn::Gradient& grad, double issue_time);
  double download_model(nn::Model& model, double issue_time);

  // Frees every buffer (worker retirement / epoch trim); the executor is
  // unusable afterwards until rebuilt.
  void release_buffers();

 private:
  struct LayerBuffers {
    Buffer weights;
    Buffer bias;
  };

  // Stages `x` (`target_bytes` of labels or targets riding along) and runs
  // the fused forward; the logits land in acts_.back().
  void run_forward(tensor::ConstMatrixView x, std::uint64_t target_bytes,
                   double issue_time);
  // Back-propagates deltas_.back() (dLoss/dlogits) into the gradient.
  void run_backward(tensor::Index batch, double issue_time,
                    double* completion_time);

  Backend& backend_;
  nn::MlpConfig config_;
  tensor::Index max_batch_;
  std::vector<LayerBuffers> replica_;
  std::vector<LayerBuffers> gradient_;
  std::vector<Buffer> acts_;
  std::vector<Buffer> deltas_;
  Buffer input_;
  bool model_bound_ = false;
  bool gradient_bound_ = false;
  bool released_ = false;
};

}  // namespace hetsgd::backend
