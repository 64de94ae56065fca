#include "backend/backend.hpp"

#include <cstring>

#include "common/macros.hpp"
#include "nn/loss.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace hetsgd::backend {

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

std::uint64_t bytes_of(tensor::ConstMatrixView m) {
  return static_cast<std::uint64_t>(m.size()) * sizeof(Scalar);
}

void copy(tensor::ConstMatrixView from, tensor::MatrixView to) {
  if (from.data() != to.data()) {
    std::memcpy(to.data(), from.data(), bytes_of(from));
  }
}

}  // namespace

Backend::Backend(const gpusim::DeviceSpec& spec, Mode mode)
    : perf_(spec), mode_(mode) {}

void Backend::charge(double cost) {
  if (mode_ == Mode::kDevice) clock_.advance(cost);
}

void Backend::launch(double cost) {
  if (mode_ == Mode::kDevice) device_metrics().kernels.inc();
  charge(cost);
}

void Backend::transfer(tensor::ConstMatrixView from, tensor::MatrixView to,
                       const char* span, const char* direction) {
  HETSGD_TRACE_SPAN(copy_span, "gpusim", span, now());
  if (pending_faults_ > 0) {
    --pending_faults_;
    copy_span.set_end_vt(now());  // the failed copy moves nothing
    throw TransferError(std::string("injected transfer fault (") + direction +
                        ")");
  }
  copy(from, to);
  const std::uint64_t bytes = bytes_of(from);
  if (mode_ == Mode::kDevice) {
    device_metrics().transfers.inc();
    device_metrics().transfer_bytes.inc(bytes);
  }
  charge(perf_.transfer_seconds(bytes));
  copy_span.set_end_vt(now());
}

void Backend::reserve(std::uint64_t bytes) {
  // A failed cudaMalloc is fatal: abort past the modeled memory capacity.
  HETSGD_ASSERT(bytes_in_use_ + bytes <= perf_.spec().memory_capacity,
                "backend out of modeled memory");
  bytes_in_use_ += bytes;
}

void Backend::release(std::uint64_t bytes) {
  HETSGD_ASSERT(bytes <= bytes_in_use_, "released more than reserved");
  bytes_in_use_ -= bytes;
}

void Backend::upload(tensor::ConstMatrixView host, tensor::MatrixView device) {
  HETSGD_ASSERT(host.rows() == device.rows() && host.cols() == device.cols(),
                "H2D copy shape mismatch");
  transfer(host, device, "h2d_copy", "H2D");
}

void Backend::download(tensor::ConstMatrixView device,
                       tensor::MatrixView host) {
  HETSGD_ASSERT(host.rows() == device.rows() && host.cols() == device.cols(),
                "D2H copy shape mismatch");
  transfer(device, host, "d2h_copy", "D2H");
}

void Backend::stage_batch(tensor::ConstMatrixView x, tensor::MatrixView device,
                          std::uint64_t extra_bytes) {
  HETSGD_ASSERT(x.rows() == device.rows() && x.cols() == device.cols(),
                "staged batch shape mismatch");
  copy(x, device);
  charge(perf_.transfer_seconds(bytes_of(x) + extra_bytes));
}

void Backend::stage_batch(const tensor::CsrView& x, tensor::CsrMatrix& device,
                          std::uint64_t extra_bytes) {
  HETSGD_ASSERT(x.cols() == device.cols(), "staged batch width mismatch");
  device.clear_rows();
  for (tensor::Index r = 0; r < x.rows(); ++r) device.append_row(x, r);
  const auto dense_bytes = static_cast<std::uint64_t>(x.rows()) *
                           static_cast<std::uint64_t>(x.cols()) *
                           sizeof(Scalar);
  charge(perf_.transfer_seconds(dense_bytes + extra_bytes));
}

void Backend::gemm_bias_act(tensor::ConstMatrixView x,
                            tensor::ConstMatrixView w,
                            tensor::ConstMatrixView bias,
                            tensor::MatrixView out,
                            tensor::Epilogue epilogue) {
  tensor::gemm_bias_act(tensor::Trans::kNo, tensor::Trans::kYes, Scalar{1}, x,
                        w, out, bias, epilogue);
  launch(perf_.gemm_seconds(x.rows(), w.rows(), w.cols()));
}

void Backend::gemm_bias_act(const tensor::CsrView& x,
                            tensor::ConstMatrixView w,
                            tensor::ConstMatrixView bias,
                            tensor::MatrixView out,
                            tensor::Epilogue epilogue) {
  tensor::csr_bias_act(x, w, out, bias, epilogue);
  launch(perf_.gemm_seconds(x.rows(), w.rows(), w.cols()));
}

void Backend::charge_loss(std::uint64_t elements) {
  launch(perf_.elementwise_seconds(elements * 6));
  // One scalar (the loss) returns to the host.
  charge(perf_.transfer_seconds(sizeof(Scalar)));
}

void Backend::softmax_xent(tensor::ConstMatrixView logits,
                           std::span<const std::int32_t> labels,
                           tensor::MatrixView* dlogits, Scalar* loss) {
  const Scalar l = nn::softmax_cross_entropy(logits, labels, dlogits);
  if (loss != nullptr) *loss = l;
  charge_loss(static_cast<std::uint64_t>(logits.size()));
}

void Backend::sigmoid_bce(tensor::ConstMatrixView logits,
                          tensor::ConstMatrixView targets,
                          tensor::MatrixView dlogits, Scalar* loss) {
  const Scalar l = nn::sigmoid_bce(logits, targets, &dlogits);
  if (loss != nullptr) *loss = l;
  charge_loss(static_cast<std::uint64_t>(logits.size()));
}

void Backend::matmul_tn(Scalar alpha, tensor::ConstMatrixView delta,
                        tensor::ConstMatrixView prev, Scalar beta,
                        tensor::MatrixView out) {
  tensor::gemm(tensor::Trans::kYes, tensor::Trans::kNo, alpha, delta, prev,
               beta, out);
  launch(perf_.gemm_seconds(out.rows(), out.cols(), delta.rows()));
}

void Backend::matmul_tn(Scalar alpha, tensor::ConstMatrixView delta,
                        const tensor::CsrView& prev, Scalar beta,
                        tensor::MatrixView out) {
  tensor::csr_gemm_tn(alpha, delta, prev, beta, out);
  launch(perf_.gemm_seconds(out.rows(), out.cols(), delta.rows()));
}

void Backend::col_sums(tensor::ConstMatrixView m, tensor::MatrixView out) {
  tensor::col_sums(m, out);
  launch(perf_.elementwise_seconds(static_cast<std::uint64_t>(m.size())));
}

void Backend::matmul_nn(tensor::ConstMatrixView delta,
                        tensor::ConstMatrixView w, tensor::MatrixView out) {
  tensor::matmul_nn(delta, w, out);
  launch(perf_.gemm_seconds(delta.rows(), w.cols(), w.rows()));
}

void Backend::activation_backward(nn::Activation act,
                                  tensor::ConstMatrixView activated,
                                  tensor::MatrixView delta) {
  nn::activation_backward(act, activated, delta);
  launch(perf_.elementwise_seconds(static_cast<std::uint64_t>(delta.size())));
}

void Backend::axpy(Scalar alpha, tensor::ConstMatrixView x,
                   tensor::MatrixView y) {
  tensor::axpy(alpha, x, y);
  launch(perf_.elementwise_seconds(static_cast<std::uint64_t>(x.size())));
}

}  // namespace hetsgd::backend
