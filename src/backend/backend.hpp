// The backend: the MLP kernel set, host<->device transfers and the
// device queue's virtual clock, in one of two modes selected at
// construction.
//
// Every kernel takes matrix views (the caller passes the first `batch`
// rows of its activation and delta matrices) and performs the real math
// immediately with the packed-SIMD tensor:: kernels, mirroring the CUDA
// stream model the paper's GPU worker uses: kernels execute eagerly on the
// calling thread, while their *costs* advance one virtual clock in issue
// order, as on a single stream. The host sets the issue time once per
// round trip (wait_until) and reads completions from now().
//
//  * kZeroCopy — the Hogwild configuration. The caller's matrices are the
//    live host storage (the shared model, which a lane's in-place step
//    writes, and the dataset rows), and no virtual time is charged per
//    kernel: the owning worker charges whole batches analytically through
//    the cost model, exactly as the CPU worker always has. Kernels reduce
//    to direct tensor:: calls, so this mode's arithmetic — and its data
//    races on shared storage — are bit-for-bit the host path.
//
//  * kDevice — the replica configuration, modeling the paper's GPU worker
//    (§V-A): a discrete device that happens to be the host. The caller
//    reserves its private matrices' bytes against the spec's memory
//    (reserve() aborts past it, like a failed cudaMalloc), transfers
//    really copy and honor fault injection, and each kernel and copy
//    advances the clock by its PerfModel cost. This mode exports the
//    device signals: "gpusim" h2d_copy/d2h_copy trace spans and the
//    hetsgd_gpu_{transfers,transfer_bytes,kernels}_total counters.
//
// Concurrency contract (DESIGN.md §13): a Backend is single-owner,
// confined to the thread that created it. Nothing here is synchronized;
// the worker actor's mailbox is the only way in. Workers that run
// parallel Hogwild lanes own one Backend per lane.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "gpusim/perf_model.hpp"
#include "gpusim/virtual_clock.hpp"
#include "nn/activation.hpp"
#include "tensor/csr.hpp"
#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"

namespace hetsgd::backend {

// A failed host<->device transfer (the analog of a CUDA cudaErrorUnknown /
// bus error on cudaMemcpy). Thrown by upload()/download() when a fault has
// been injected; workers retry with backoff and escalate to the
// coordinator when retries are exhausted.
class TransferError : public std::runtime_error {
 public:
  explicit TransferError(const std::string& what)
      : std::runtime_error(what) {}
};

class Backend {
 public:
  enum class Mode { kZeroCopy, kDevice };

  Backend(const gpusim::DeviceSpec& spec, Mode mode);

  const gpusim::PerfModel& perf() const { return perf_; }
  // True for the Hogwild configuration: the caller's host storage is used
  // in place, so model uploads and gradient downloads are skipped.
  bool zero_copy() const { return mode_ == Mode::kZeroCopy; }

  // --- virtual time ------------------------------------------------------
  // The device clock: the completion time of everything issued so far
  // (kDevice), or the last issue time (kZeroCopy, which charges nothing).
  double now() const { return clock_.now(); }
  // The host issues the next operations at `t`: an idle device waits
  // until then; one still busy runs them after its queued work.
  void wait_until(double t) { clock_.advance_to(t); }

  // --- device memory -----------------------------------------------------
  // Counts `bytes` of the caller's matrices against the spec's memory
  // capacity (the cudaMalloc analog). Aborts past the capacity, mirroring
  // a failed cudaMalloc.
  void reserve(std::uint64_t bytes);
  // Returns bytes reserved earlier.
  void release(std::uint64_t bytes);
  std::uint64_t bytes_in_use() const { return bytes_in_use_; }

  // --- transfers ---------------------------------------------------------
  // Copy host -> device / device -> host (same shapes), charging modeled
  // link time. These are the fault-injection surfaces: a pending injected
  // fault makes the call throw TransferError (consuming one injection)
  // before anything is copied or charged.
  void upload(tensor::ConstMatrixView host, tensor::MatrixView device);
  void download(tensor::ConstMatrixView device, tensor::MatrixView host);
  // Copies a training batch into `device` (same shape), with
  // `extra_bytes` (labels) riding along in the charged transfer. This is
  // the input staging path, deliberately NOT fault-checked: the model
  // upload and gradient download bracket every round trip and are the
  // injection points.
  void stage_batch(tensor::ConstMatrixView x, tensor::MatrixView device,
                   std::uint64_t extra_bytes);
  // The CSR form: copies only x's rows into `device` (its capacity kept
  // across batches) but charges the dense batch's bytes, the paper's
  // format, so virtual time does not depend on the storage form.
  void stage_batch(const tensor::CsrView& x, tensor::CsrMatrix& device,
                   std::uint64_t extra_bytes);

  // --- kernels -----------------------------------------------------------
  // Shapes follow the MLP layer convention: w is out x in, x/out
  // activations are batch x width, bias is 1 x out. The first layer's two
  // products also take CSR input rows (tensor::csr_bias_act and
  // csr_gemm_tn); those charge the PerfModel cost of the dense shapes.

  // out = epilogue(x * w^T + bias): the fused forward layer.
  void gemm_bias_act(tensor::ConstMatrixView x, tensor::ConstMatrixView w,
                     tensor::ConstMatrixView bias, tensor::MatrixView out,
                     tensor::Epilogue epilogue);
  void gemm_bias_act(const tensor::CsrView& x, tensor::ConstMatrixView w,
                     tensor::ConstMatrixView bias, tensor::MatrixView out,
                     tensor::Epilogue epilogue);
  // Fused softmax + cross-entropy: writes dLoss/dlogits into *dlogits,
  // stores the mean loss into *loss, and charges the kernel plus the
  // one-scalar D2H return of the loss value. A null `dlogits` runs the
  // loss alone (evaluation) and writes nothing else.
  void softmax_xent(tensor::ConstMatrixView logits,
                    std::span<const std::int32_t> labels,
                    tensor::MatrixView* dlogits, tensor::Scalar* loss);
  // Fused sigmoid + binary cross-entropy, the multi-label counterpart:
  // `targets` holds the batch's 0/1 rows and, like the labels above, is
  // read from host memory. Same outputs and charges as softmax_xent.
  void sigmoid_bce(tensor::ConstMatrixView logits,
                   tensor::ConstMatrixView targets, tensor::MatrixView dlogits,
                   tensor::Scalar* loss);
  // out = alpha * delta^T * prev + beta * out (out x in): the weight
  // gradient at alpha = 1, beta = 0, and at alpha = -eta, beta = 1 the
  // in-place SGD step W -= eta * delta^T * prev.
  void matmul_tn(tensor::Scalar alpha, tensor::ConstMatrixView delta,
                 tensor::ConstMatrixView prev, tensor::Scalar beta,
                 tensor::MatrixView out);
  void matmul_tn(tensor::Scalar alpha, tensor::ConstMatrixView delta,
                 const tensor::CsrView& prev, tensor::Scalar beta,
                 tensor::MatrixView out);
  // out(1 x cols) = column sums of m.
  void col_sums(tensor::ConstMatrixView m, tensor::MatrixView out);
  // out = delta * w (batch x in), the delta back-propagation product.
  void matmul_nn(tensor::ConstMatrixView delta, tensor::ConstMatrixView w,
                 tensor::MatrixView out);
  // delta ⊙= act'(activated), element-wise.
  void activation_backward(nn::Activation act,
                           tensor::ConstMatrixView activated,
                           tensor::MatrixView delta);
  // y += alpha * x (the device-side SGD update, and the in-place step's
  // bias update).
  void axpy(tensor::Scalar alpha, tensor::ConstMatrixView x,
            tensor::MatrixView y);

  // --- fault injection ---------------------------------------------------
  // Makes the next `count` upload/download calls throw TransferError.
  void inject_transfer_faults(std::int64_t count) { pending_faults_ += count; }

 private:
  // Advances the clock by `cost` (kDevice); kZeroCopy charges nothing,
  // the worker charges analytically.
  void charge(double cost);
  // charge() for one kernel; kDevice also counts it as a device kernel.
  void launch(double cost);
  // Charges a fused loss kernel over `elements` logits, then the
  // one-scalar D2H return of the loss value.
  void charge_loss(std::uint64_t elements);
  // The fault-checked copy behind upload/download: fires a pending
  // injection, else copies `from` into `to` and counts and charges one
  // transfer of it under a "gpusim" `span` trace span.
  void transfer(tensor::ConstMatrixView from, tensor::MatrixView to,
                const char* span, const char* direction);

  gpusim::PerfModel perf_;
  Mode mode_;
  gpusim::VirtualClock clock_;
  std::uint64_t bytes_in_use_ = 0;
  std::int64_t pending_faults_ = 0;
};

}  // namespace hetsgd::backend
