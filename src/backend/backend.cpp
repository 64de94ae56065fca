#include "backend/backend.hpp"

#include <algorithm>
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

double Backend::charge(double cost, double issue) {
  if (mode_ == Mode::kZeroCopy) return issue;
  queue_time_ = std::max(queue_time_, issue) + cost;
  return queue_time_;
}

double Backend::launch(double cost, double issue) {
  if (mode_ == Mode::kDevice) device_metrics().kernels.inc();
  return charge(cost, issue);
}

double Backend::transfer(tensor::ConstMatrixView from, tensor::MatrixView to,
                         double issue) {
  copy(from, to);
  const std::uint64_t bytes = bytes_of(from);
  ++transfers_;
  bytes_moved_ += bytes;
  if (mode_ == Mode::kDevice) {
    device_metrics().transfers.inc();
    device_metrics().transfer_bytes.inc(bytes);
  }
  return charge(perf_.transfer_seconds(bytes), issue);
}

void Backend::check_transfer_fault(const char* direction) {
  if (pending_faults_ <= 0) return;
  --pending_faults_;
  ++failed_;
  throw TransferError(std::string("injected transfer fault (") + direction +
                      ")");
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

double Backend::upload(tensor::ConstMatrixView host, tensor::MatrixView device,
                       double issue) {
  HETSGD_ASSERT(host.rows() == device.rows() && host.cols() == device.cols(),
                "H2D copy shape mismatch");
  HETSGD_TRACE_SPAN(span, "gpusim", "h2d_copy", issue);
  check_transfer_fault("H2D");
  const double done = transfer(host, device, issue);
  span.set_end_vt(done);
  return done;
}

double Backend::download(tensor::ConstMatrixView device,
                         tensor::MatrixView host, double issue) {
  HETSGD_ASSERT(host.rows() == device.rows() && host.cols() == device.cols(),
                "D2H copy shape mismatch");
  HETSGD_TRACE_SPAN(span, "gpusim", "d2h_copy", issue);
  check_transfer_fault("D2H");
  const double done = transfer(device, host, issue);
  span.set_end_vt(done);
  return done;
}

double Backend::stage_batch(tensor::ConstMatrixView x,
                            tensor::MatrixView device,
                            std::uint64_t extra_bytes, double issue) {
  HETSGD_ASSERT(x.rows() == device.rows() && x.cols() == device.cols(),
                "staged batch shape mismatch");
  copy(x, device);
  return charge(perf_.transfer_seconds(bytes_of(x) + extra_bytes), issue);
}

double Backend::stage_batch(const tensor::CsrView& x,
                            tensor::CsrMatrix& device,
                            std::uint64_t extra_bytes, double issue) {
  HETSGD_ASSERT(x.cols() == device.cols(), "staged batch width mismatch");
  device.clear_rows();
  for (tensor::Index r = 0; r < x.rows(); ++r) device.append_row(x, r);
  const auto dense_bytes = static_cast<std::uint64_t>(x.rows()) *
                           static_cast<std::uint64_t>(x.cols()) *
                           sizeof(Scalar);
  return charge(perf_.transfer_seconds(dense_bytes + extra_bytes), issue);
}

double Backend::gemm_bias_act(tensor::ConstMatrixView x,
                              tensor::ConstMatrixView w,
                              tensor::ConstMatrixView bias,
                              tensor::MatrixView out,
                              tensor::Epilogue epilogue, double issue) {
  tensor::gemm_bias_act(tensor::Trans::kNo, tensor::Trans::kYes, Scalar{1}, x,
                        w, out, bias, epilogue);
  return launch(perf_.gemm_seconds(x.rows(), w.rows(), w.cols()), issue);
}

double Backend::gemm_bias_act(const tensor::CsrView& x,
                              tensor::ConstMatrixView w,
                              tensor::ConstMatrixView bias,
                              tensor::MatrixView out,
                              tensor::Epilogue epilogue, double issue) {
  tensor::csr_bias_act(x, w, out, bias, epilogue);
  return launch(perf_.gemm_seconds(x.rows(), w.rows(), w.cols()), issue);
}

double Backend::charge_loss(std::uint64_t elements, double issue) {
  launch(perf_.elementwise_seconds(elements * 6), issue);
  // One scalar (the loss) returns to the host.
  return charge(perf_.transfer_seconds(sizeof(Scalar)), issue);
}

double Backend::softmax_xent(tensor::ConstMatrixView logits,
                             std::span<const std::int32_t> labels,
                             tensor::MatrixView* dlogits, Scalar* loss,
                             double issue) {
  const Scalar l = nn::softmax_cross_entropy(logits, labels, dlogits);
  if (loss != nullptr) *loss = l;
  return charge_loss(static_cast<std::uint64_t>(logits.size()), issue);
}

double Backend::sigmoid_bce(tensor::ConstMatrixView logits,
                            tensor::ConstMatrixView targets,
                            tensor::MatrixView dlogits, Scalar* loss,
                            double issue) {
  const Scalar l = nn::sigmoid_bce(logits, targets, &dlogits);
  if (loss != nullptr) *loss = l;
  return charge_loss(static_cast<std::uint64_t>(logits.size()), issue);
}

double Backend::matmul_tn(Scalar alpha, tensor::ConstMatrixView delta,
                          tensor::ConstMatrixView prev, Scalar beta,
                          tensor::MatrixView out, double issue) {
  tensor::gemm(tensor::Trans::kYes, tensor::Trans::kNo, alpha, delta, prev,
               beta, out);
  return launch(perf_.gemm_seconds(out.rows(), out.cols(), delta.rows()),
                issue);
}

double Backend::matmul_tn(Scalar alpha, tensor::ConstMatrixView delta,
                          const tensor::CsrView& prev, Scalar beta,
                          tensor::MatrixView out, double issue) {
  tensor::csr_gemm_tn(alpha, delta, prev, beta, out);
  return launch(perf_.gemm_seconds(out.rows(), out.cols(), delta.rows()),
                issue);
}

double Backend::col_sums(tensor::ConstMatrixView m, tensor::MatrixView out,
                         double issue) {
  tensor::col_sums(m, out);
  return launch(
      perf_.elementwise_seconds(static_cast<std::uint64_t>(m.size())), issue);
}

double Backend::matmul_nn(tensor::ConstMatrixView delta,
                          tensor::ConstMatrixView w, tensor::MatrixView out,
                          double issue) {
  tensor::matmul_nn(delta, w, out);
  return launch(perf_.gemm_seconds(delta.rows(), w.cols(), w.rows()), issue);
}

double Backend::activation_backward(nn::Activation act,
                                    tensor::ConstMatrixView activated,
                                    tensor::MatrixView delta, double issue) {
  nn::activation_backward(act, activated, delta);
  return launch(
      perf_.elementwise_seconds(static_cast<std::uint64_t>(delta.size())),
      issue);
}

double Backend::axpy(Scalar alpha, tensor::ConstMatrixView x,
                     tensor::MatrixView y, double issue) {
  tensor::axpy(alpha, x, y);
  return launch(
      perf_.elementwise_seconds(static_cast<std::uint64_t>(x.size())), issue);
}

double Backend::synchronize(double issue) const {
  if (mode_ == Mode::kZeroCopy) return issue;
  return std::max(issue, queue_time_);
}

}  // namespace hetsgd::backend
