#include "backend/cpu_backend.hpp"

#include <algorithm>
#include <cstring>

#include "common/macros.hpp"
#include "nn/loss.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace hetsgd::backend {

using tensor::Index;
using tensor::Scalar;

namespace {

// Process-global device counters, looked up once: kernels and transfers
// are on the replica worker's hot path.
struct DeviceMetrics {
  obs::Counter& transfers =
      obs::MetricsRegistry::instance().counter("hetsgd_gpu_transfers_total");
  obs::Counter& transfer_bytes = obs::MetricsRegistry::instance().counter(
      "hetsgd_gpu_transfer_bytes_total");
  obs::Counter& kernels =
      obs::MetricsRegistry::instance().counter("hetsgd_gpu_kernels_total");
};

DeviceMetrics& device_metrics() {
  static DeviceMetrics m;
  return m;
}

}  // namespace

CpuBackend::CpuBackend(const gpusim::DeviceSpec& spec, Mode mode)
    : perf_(spec), mode_(mode) {}

CpuBackend::Slot& CpuBackend::slot(const Buffer& b) {
  HETSGD_ASSERT(b.valid() && b.id <= slots_.size(), "invalid buffer handle");
  Slot& s = slots_[b.id - 1];
  HETSGD_ASSERT(s.live, "buffer used after free");
  return s;
}

tensor::MatrixView CpuBackend::rows(const Buffer& b, Index batch) {
  Slot& s = slot(b);
  Scalar* data = s.adopted ? s.alias : s.owned.view().data();
  return tensor::MatrixView(data, batch, b.cols);
}

double CpuBackend::charge(double cost, double issue) {
  if (mode_ == Mode::kZeroCopy) return issue;
  queue_time_ = std::max(queue_time_, issue) + cost;
  return queue_time_;
}

double CpuBackend::launch(double cost, double issue) {
  if (mode_ == Mode::kDevice) device_metrics().kernels.inc();
  return charge(cost, issue);
}

double CpuBackend::transfer(std::uint64_t bytes, double issue) {
  ++transfers_;
  bytes_moved_ += bytes;
  if (mode_ == Mode::kDevice) {
    device_metrics().transfers.inc();
    device_metrics().transfer_bytes.inc(bytes);
  }
  return charge(perf_.transfer_seconds(bytes), issue);
}

void CpuBackend::check_transfer_fault(const char* direction) {
  if (pending_faults_ <= 0) return;
  --pending_faults_;
  ++failed_;
  throw TransferError(std::string("injected transfer fault (") + direction +
                      ")");
}

Buffer CpuBackend::alloc(Index rows_, Index cols_) {
  HETSGD_ASSERT(rows_ >= 0 && cols_ >= 0, "negative buffer shape");
  const std::uint64_t bytes = static_cast<std::uint64_t>(rows_) * cols_ *
                              sizeof(Scalar);
  // A failed cudaMalloc is fatal: abort past the modeled memory capacity.
  HETSGD_ASSERT(bytes_in_use_ + bytes <= perf_.spec().memory_capacity,
                "cpu backend out of modeled memory");
  Slot s;
  s.owned = tensor::Matrix(rows_, cols_);
  s.owned.set_zero();
  s.live = true;
  slots_.push_back(std::move(s));
  bytes_in_use_ += bytes;
  return Buffer{slots_.size(), rows_, cols_};
}

Buffer CpuBackend::adopt(tensor::MatrixView host) {
  HETSGD_ASSERT(mode_ == Mode::kZeroCopy,
                "adopt() requires a zero-copy backend");
  Slot s;
  s.alias = host.data();
  s.adopted = true;
  s.live = true;
  slots_.push_back(std::move(s));
  return Buffer{slots_.size(), host.rows(), host.cols()};
}

void CpuBackend::free(Buffer& b) {
  if (!b.valid()) return;
  Slot& s = slot(b);
  if (!s.adopted) {
    bytes_in_use_ -= b.bytes();
    s.owned = tensor::Matrix();
  }
  s.alias = nullptr;
  s.live = false;
  b = Buffer{};
}

tensor::MatrixView CpuBackend::view(const Buffer& b) {
  return rows(b, b.rows);
}

double CpuBackend::upload(tensor::ConstMatrixView host, const Buffer& dst,
                          double issue) {
  HETSGD_ASSERT(host.rows() == dst.rows && host.cols() == dst.cols,
                "H2D copy shape mismatch");
  HETSGD_TRACE_SPAN(span, "gpusim", "h2d_copy", issue);
  check_transfer_fault("H2D");
  auto dv = view(dst);
  if (dv.data() != host.data()) {
    std::memcpy(dv.data(), host.data(),
                static_cast<std::size_t>(host.size()) * sizeof(Scalar));
  }
  const double done = transfer(dst.bytes(), issue);
  span.set_end_vt(done);
  return done;
}

double CpuBackend::download(const Buffer& src, tensor::MatrixView host,
                            double issue) {
  HETSGD_ASSERT(host.rows() == src.rows && host.cols() == src.cols,
                "D2H copy shape mismatch");
  HETSGD_TRACE_SPAN(span, "gpusim", "d2h_copy", issue);
  check_transfer_fault("D2H");
  auto sv = view(src);
  if (sv.data() != host.data()) {
    std::memcpy(host.data(), sv.data(),
                static_cast<std::size_t>(host.size()) * sizeof(Scalar));
  }
  const double done = transfer(src.bytes(), issue);
  span.set_end_vt(done);
  return done;
}

double CpuBackend::stage_batch(tensor::ConstMatrixView x, Buffer& dst,
                               std::uint64_t extra_bytes, double issue) {
  if (mode_ == Mode::kZeroCopy) {
    // Rebind the handle to alias the batch rows in place: the forward pass
    // reads the dataset storage directly, like the host path always has.
    // The alias is read-only by convention (no kernel writes its x input).
    Slot& s = slot(dst);
    HETSGD_ASSERT(s.adopted, "zero-copy staging needs an adopted buffer");
    s.alias = const_cast<Scalar*>(x.data());
    dst.rows = x.rows();
    dst.cols = x.cols();
    return issue;
  }
  HETSGD_ASSERT(x.rows() <= dst.rows && x.cols() == dst.cols,
                "staged batch exceeds input buffer");
  auto dv = rows(dst, x.rows());
  std::memcpy(dv.data(), x.data(),
              static_cast<std::size_t>(x.size()) * sizeof(Scalar));
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(x.size()) * sizeof(Scalar) + extra_bytes;
  return charge(perf_.transfer_seconds(bytes), issue);
}

double CpuBackend::gemm_bias_act(const Buffer& x, const Buffer& w,
                                 const Buffer& bias, const Buffer& out,
                                 Index batch, tensor::Epilogue epilogue,
                                 double issue) {
  auto xv = rows(x, batch);
  auto wv = view(w);
  auto ov = rows(out, batch);
  tensor::gemm_bias_act(tensor::Trans::kNo, tensor::Trans::kYes, Scalar{1},
                        xv, wv, ov, view(bias), epilogue);
  return launch(perf_.gemm_seconds(batch, w.rows, w.cols), issue);
}

double CpuBackend::charge_loss(std::uint64_t elements, double issue) {
  launch(perf_.elementwise_seconds(elements * 6), issue);
  // One scalar (the loss) returns to the host.
  return charge(perf_.transfer_seconds(sizeof(Scalar)), issue);
}

double CpuBackend::softmax_xent(const Buffer& logits,
                                std::span<const std::int32_t> labels,
                                const Buffer& dlogits, Index batch,
                                Scalar* loss, double issue) {
  auto lv = rows(logits, batch);
  tensor::MatrixView dv;
  if (dlogits.valid()) dv = rows(dlogits, batch);
  const Scalar l =
      nn::softmax_cross_entropy(lv, labels, dlogits.valid() ? &dv : nullptr);
  if (loss != nullptr) *loss = l;
  return charge_loss(static_cast<std::uint64_t>(lv.size()), issue);
}

double CpuBackend::sigmoid_bce(const Buffer& logits,
                               tensor::ConstMatrixView targets,
                               const Buffer& dlogits, Index batch,
                               Scalar* loss, double issue) {
  auto lv = rows(logits, batch);
  auto dv = rows(dlogits, batch);
  const Scalar l = nn::sigmoid_bce(lv, targets, &dv);
  if (loss != nullptr) *loss = l;
  return charge_loss(static_cast<std::uint64_t>(lv.size()), issue);
}

double CpuBackend::matmul_tn(const Buffer& delta, const Buffer& prev,
                             Index batch, const Buffer& grad_w, double issue) {
  tensor::matmul_tn(rows(delta, batch), rows(prev, batch), view(grad_w));
  return launch(perf_.gemm_seconds(grad_w.rows, grad_w.cols, batch), issue);
}

double CpuBackend::col_sums(const Buffer& m, Index batch, const Buffer& out,
                            double issue) {
  auto mv = rows(m, batch);
  tensor::col_sums(mv, view(out));
  return launch(perf_.elementwise_seconds(
                    static_cast<std::uint64_t>(mv.size())),
                issue);
}

double CpuBackend::matmul_nn(const Buffer& delta, const Buffer& w, Index batch,
                             const Buffer& out, double issue) {
  tensor::matmul_nn(rows(delta, batch), view(w), rows(out, batch));
  return launch(perf_.gemm_seconds(batch, w.cols, w.rows), issue);
}

double CpuBackend::activation_backward(nn::Activation act,
                                       const Buffer& activated,
                                       const Buffer& delta, Index batch,
                                       double issue) {
  auto dv = rows(delta, batch);
  nn::activation_backward(act, rows(activated, batch), dv);
  return launch(perf_.elementwise_seconds(
                    static_cast<std::uint64_t>(dv.size())),
                issue);
}

double CpuBackend::axpy(Scalar alpha, const Buffer& x, const Buffer& y,
                        double issue) {
  auto xv = view(x);
  tensor::axpy(alpha, xv, view(y));
  return launch(perf_.elementwise_seconds(
                    static_cast<std::uint64_t>(xv.size())),
                issue);
}

double CpuBackend::synchronize(double issue) {
  if (mode_ == Mode::kZeroCopy) return issue;
  return std::max(issue, queue_time_);
}

}  // namespace hetsgd::backend
