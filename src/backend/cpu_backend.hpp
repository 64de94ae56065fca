// The one Backend implementation: the packed-SIMD tensor kernels behind
// the seam, in one of two modes selected at construction.
//
//  * kZeroCopy — the Hogwild configuration. Buffers may adopt() live host
//    storage (the shared model, a lane's gradient slab), stage_batch()
//    rebinds the input buffer to alias the dataset rows in place, and no
//    virtual time is charged per kernel: the owning worker charges whole
//    batches analytically through the cost model, exactly as the CPU
//    worker always has. Kernels reduce to direct tensor:: calls, so this
//    mode's arithmetic — and its data races on shared storage — are
//    bit-for-bit the pre-seam host path.
//
//  * kDevice — the replica configuration, modeling the paper's GPU worker
//    (§V-A): a discrete device that happens to be the host. Buffers are
//    private capacity-accounted allocations (alloc() aborts past the
//    spec's memory, like a failed cudaMalloc), transfers really copy and
//    honor fault injection, and each kernel charges its PerfModel cost on
//    a FIFO queue cursor, so virtual time advances as on a CUDA stream.
//    This mode exports the device signals: "gpusim" h2d_copy/d2h_copy
//    trace spans and the hetsgd_gpu_{transfers,transfer_bytes,kernels}_total
//    counters.
//
// Thread confinement per Backend's contract: single-owner, unsynchronized.
#pragma once

#include <cstdint>
#include <vector>

#include "backend/backend.hpp"

namespace hetsgd::backend {

class CpuBackend final : public Backend {
 public:
  enum class Mode { kZeroCopy, kDevice };

  CpuBackend(const gpusim::DeviceSpec& spec, Mode mode);

  const gpusim::PerfModel& perf() const override { return perf_; }
  bool zero_copy() const override { return mode_ == Mode::kZeroCopy; }

  Buffer alloc(tensor::Index rows, tensor::Index cols) override;
  Buffer adopt(tensor::MatrixView host) override;
  void free(Buffer& b) override;
  tensor::MatrixView view(const Buffer& b) override;
  std::uint64_t bytes_in_use() const override { return bytes_in_use_; }

  double upload(tensor::ConstMatrixView host, const Buffer& dst,
                double issue) override;
  double download(const Buffer& src, tensor::MatrixView host,
                  double issue) override;
  double stage_batch(tensor::ConstMatrixView x, Buffer& dst,
                     std::uint64_t extra_bytes, double issue) override;

  double gemm_bias_act(const Buffer& x, const Buffer& w, const Buffer& bias,
                       const Buffer& out, tensor::Index batch,
                       tensor::Epilogue epilogue, double issue) override;
  double softmax_xent(const Buffer& logits,
                      std::span<const std::int32_t> labels,
                      const Buffer& dlogits, tensor::Index batch,
                      tensor::Scalar* loss, double issue) override;
  double sigmoid_bce(const Buffer& logits, tensor::ConstMatrixView targets,
                     const Buffer& dlogits, tensor::Index batch,
                     tensor::Scalar* loss, double issue) override;
  double matmul_tn(const Buffer& delta, const Buffer& prev,
                   tensor::Index batch, const Buffer& grad_w,
                   double issue) override;
  double col_sums(const Buffer& m, tensor::Index batch, const Buffer& out,
                  double issue) override;
  double matmul_nn(const Buffer& delta, const Buffer& w, tensor::Index batch,
                   const Buffer& out, double issue) override;
  double activation_backward(nn::Activation act, const Buffer& activated,
                             const Buffer& delta, tensor::Index batch,
                             double issue) override;
  double axpy(tensor::Scalar alpha, const Buffer& x, const Buffer& y,
              double issue) override;

  double synchronize(double issue) override;

  void inject_transfer_faults(std::int64_t count) override {
    pending_faults_ += count;
  }
  std::uint64_t failed_transfers() const override { return failed_; }
  std::uint64_t transfer_count() const override { return transfers_; }
  std::uint64_t bytes_transferred() const override { return bytes_moved_; }

 private:
  // A buffer is either an owned allocation or an adopted host alias.
  struct Slot {
    tensor::Matrix owned;
    tensor::Scalar* alias = nullptr;
    bool adopted = false;
    bool live = false;
  };

  Slot& slot(const Buffer& b);
  tensor::MatrixView rows(const Buffer& b, tensor::Index batch);
  // Charges `cost` on the FIFO queue cursor (kDevice) or returns `issue`
  // unchanged (kZeroCopy, where the worker charges analytically).
  double charge(double cost, double issue);
  // charge() for one kernel; kDevice also counts it as a device kernel.
  double launch(double cost, double issue);
  // Charges a fused loss kernel over `elements` logits, then the
  // one-scalar D2H return of the loss value.
  double charge_loss(std::uint64_t elements, double issue);
  // Counts and charges one upload/download of `bytes`.
  double transfer(std::uint64_t bytes, double issue);
  void check_transfer_fault(const char* direction);

  gpusim::PerfModel perf_;
  Mode mode_;
  std::vector<Slot> slots_;
  // FIFO queue cursor: an op starts at max(issue, previous completion) and
  // completes `cost` later.
  double queue_time_ = 0.0;
  std::uint64_t bytes_in_use_ = 0;
  std::int64_t pending_faults_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t transfers_ = 0;
  std::uint64_t bytes_moved_ = 0;
};

}  // namespace hetsgd::backend
