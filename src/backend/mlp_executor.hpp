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
// A Hogwild lane instead takes one in-place SGD step (sgd_step): the same
// forward and loss, then per layer from the top delta' from W first, and
// only then W += -eta * delta^T*prev and b += -eta * colsum(delta),
// written straight into the bound shared model. No gradient is built.
//
// Evaluation runs the same forward, then either a loss-only kernel that
// writes no dLoss/dlogits (mean_loss) or nothing (forward, which hands
// back the logits).
//
// A batch arrives as the dataset stores it (tensor::BatchView): dense rows,
// or CSR rows, whose first layer then runs the backend's CSR kernel pair
// (forward and weight product). Every other layer is the same either way.
//
// The executor owns its activation and delta matrices, sized for
// max_batch rows, and hands the backend views of the first `batch` rows.
// The replica and gradient are nn::Models, chosen by the backend's mode:
//
//  * Device (Backend::Mode::kDevice): the executor's own replica,
//    gradient and input staging rows, reserved against the device's
//    memory at construction (the staging rows at their dense size, also
//    when CSR rows are staged); upload_model / download_gradient really
//    move bytes (and really hit fault injection). Every call's costs
//    advance the backend's clock (Backend::now); the caller sets a round
//    trip's issue time with Backend::wait_until.
//
//  * Zero-copy (Backend::Mode::kZeroCopy): bind_shared_model() /
//    bind_host_gradient() make the replica the bound host model
//    (Hogwild's reference replica — no copy) and the gradient the
//    caller's host gradient, uploads and downloads are free no-ops, and
//    the forward reads the batch rows in place. Evaluation and sgd_step
//    need only the model bound.
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
  // Sizes the matrices for batches up to `max_batch`; builds the private
  // replica unless the backend is zero-copy.
  MlpExecutor(Backend& backend, const nn::MlpConfig& config,
              tensor::Index max_batch);
  ~MlpExecutor();

  MlpExecutor(const MlpExecutor&) = delete;
  MlpExecutor& operator=(const MlpExecutor&) = delete;

  const nn::MlpConfig& config() const { return config_; }
  tensor::Index max_batch() const { return max_batch_; }

  // Zero-copy backends only: the replica becomes a live host model (for
  // the Hogwild lanes the shared one: sgd_step's reads and writes race with
  // concurrent lanes by design) and the gradient the caller's host
  // gradient (compute_gradient callers; sgd_step needs none). Both must
  // outlive the executor's use of them.
  void bind_shared_model(nn::Model& model);
  void bind_host_gradient(nn::Gradient& grad);

  // Device-resident bytes held by this executor's matrices.
  std::uint64_t device_bytes() const { return device_bytes_; }

  // The replica the kernels run on (the bound model under zero-copy).
  // Reading it charges no transfer.
  const nn::Model& replica() const { return *replica_; }

  // Layer `layer`'s delta matrix (max_batch rows): dLoss/d its
  // pre-activation output, the first `batch` rows written by the last
  // compute_gradient or sgd_step. Read-only.
  const tensor::Matrix& delta(std::size_t layer) const {
    return deltas_[layer];
  }

  // Deep-copies the host model into the replica (no-op when the replica is
  // bound to it).
  void upload_model(const nn::Model& model);

  // Forward + backward over `x` (batch x input_dim). Returns the batch
  // loss. The gradient lands in the executor's gradient (the bound host
  // gradient under zero-copy). One class label per row trains softmax
  // cross-entropy; a batch x num_classes matrix of 0/1 targets trains
  // sigmoid BCE. Either reaches the loss kernel from host memory.
  tensor::Scalar compute_gradient(tensor::BatchView x,
                                  std::span<const std::int32_t> labels);
  tensor::Scalar compute_gradient(tensor::BatchView x,
                                  tensor::ConstMatrixView targets);

  // Zero-copy replica bound with bind_shared_model only: one plain SGD step
  // on (x, labels), written in place. Runs compute_gradient's forward and
  // softmax-xent, then for each layer from the top computes delta_{l-1}
  // from W_l before writing W_l += -eta * delta_l^T h_{l-1} and
  // b_l += -eta * colsum(delta_l). Each parameter gets the value
  // compute_gradient followed by Model::axpy(-eta, g) gives it, for
  // batches of at most kKC = 256 rows (tensor/microkernel.hpp): past that
  // the packed engine adds each k-block's share into W separately, so the
  // step matches the two-pass update only to rounding. Returns the batch
  // loss; charges no virtual time.
  tensor::Scalar sgd_step(tensor::BatchView x,
                          std::span<const std::int32_t> labels,
                          tensor::Scalar eta);

  // Forward only over `x` (at most max_batch rows): the host-visible logits
  // (batch x num_classes), valid until the next call on this executor.
  tensor::ConstMatrixView forward(tensor::BatchView x);

  // Mean softmax cross-entropy over (x, labels), any number of rows: the
  // forward and a loss-only kernel per nn::kEvalChunkRows-row chunk, each
  // chunk's loss weighted by its rows and accumulated in double. Writes
  // neither deltas nor gradient.
  double mean_loss(tensor::BatchView x,
                   std::span<const std::int32_t> labels);

  // replica <- replica - eta * gradient, entirely backend-side.
  void apply_gradient(tensor::Scalar eta);

  // Moves the gradient to host storage (no-op when bound).
  void download_gradient(nn::Gradient& grad);

  // Frees every matrix and returns its device bytes (worker retirement /
  // epoch trim); the executor is unusable afterwards until rebuilt.
  void release_buffers();

 private:
  // Stages `x` (`target_bytes` of labels or targets riding along) and runs
  // the fused forward; the logits land in acts_.back(). Returns the
  // first layer's input: the staged rows, or `x` itself under zero-copy.
  tensor::BatchView run_forward(tensor::BatchView x,
                                std::uint64_t target_bytes);
  // compute_gradient's softmax-xent body, shared with sgd_step: forward,
  // loss, then run_backward with `step_eta`.
  tensor::Scalar train_softmax(tensor::BatchView x,
                               std::span<const std::int32_t> labels,
                               const tensor::Scalar* step_eta);
  // Back-propagates deltas_.back() (dLoss/dlogits). With `step_eta` null
  // the gradient lands in the executor's gradient; otherwise each layer
  // takes the in-place step (sgd_step) with rate *step_eta.
  void run_backward(tensor::BatchView input, const tensor::Scalar* step_eta);
  // out = alpha * delta^T * (layer l's input) + beta * out: the layer's
  // weight product, on the CSR kernel when l == 0 and `input` is CSR.
  void weight_product(std::size_t l, tensor::BatchView input,
                      tensor::Scalar alpha, tensor::ConstMatrixView delta,
                      tensor::Scalar beta, tensor::MatrixView out);
  // Layer `l`'s share of sgd_step: W += -eta * delta^T * prev_act and
  // b += -eta * colsum(delta), into the bound model.
  void step_layer(std::size_t l, tensor::Scalar eta,
                  tensor::ConstMatrixView delta, tensor::BatchView input);

  Backend& backend_;
  nn::MlpConfig config_;
  tensor::Index max_batch_;
  // Device mode: the private replica and its gradient.
  nn::Model device_replica_;
  nn::Gradient device_gradient_;
  // The replica and gradient the kernels run on: the private ones above,
  // or the bound host model and gradient (null until bound).
  nn::Model* replica_ = nullptr;
  nn::Gradient* gradient_ = nullptr;
  std::vector<tensor::Matrix> acts_;
  std::vector<tensor::Matrix> deltas_;
  // Zero-copy mode: sgd_step's per-layer colsum(delta) rows (1 x out),
  // host scratch outside device_bytes().
  std::vector<tensor::Matrix> bias_steps_;
  // Device-mode staging rows: dense (allocated by the first dense batch),
  // or CSR (grown to the largest batch staged).
  tensor::Matrix input_;
  tensor::CsrMatrix input_csr_;
  std::uint64_t device_bytes_ = 0;
};

}  // namespace hetsgd::backend
