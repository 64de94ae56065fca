// Classification evaluation metrics over a trained model.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "tensor/csr.hpp"
#include "tensor/matrix.hpp"

namespace hetsgd::nn {

// Row-major confusion matrix: count[actual * classes + predicted].
class ConfusionMatrix {
 public:
  explicit ConfusionMatrix(std::int32_t classes);

  void add(std::int32_t actual, std::int32_t predicted);

  std::int32_t classes() const { return classes_; }
  std::uint64_t count(std::int32_t actual, std::int32_t predicted) const;
  std::uint64_t total() const { return total_; }

  double accuracy() const;
  // Per-class precision / recall / F1; classes with no support or no
  // predictions yield 0.
  double precision(std::int32_t cls) const;
  double recall(std::int32_t cls) const;
  double f1(std::int32_t cls) const;
  // Unweighted mean over classes (macro averaging).
  double macro_f1() const;

 private:
  std::int32_t classes_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

// Rows per evaluation chunk: evaluate_classifier and
// backend::MlpExecutor::mean_loss walk their inputs in chunks this size,
// and the executors that serve them are sized for one.
inline constexpr tensor::Index kEvalChunkRows = 512;

// Maps a chunk of at most kEvalChunkRows rows of x to its logits
// (rows x classes). The view must stay valid until the next call;
// backend::MlpExecutor's forward() is one.
using LogitsFn = std::function<tensor::ConstMatrixView(tensor::BatchView x)>;

// Runs `logits_of` over x in kEvalChunkRows-row chunks and fills a
// confusion matrix of each row's argmax against its label.
ConfusionMatrix evaluate_classifier(const LogitsFn& logits_of,
                                    std::int32_t classes,
                                    tensor::BatchView x,
                                    std::span<const std::int32_t> labels);

}  // namespace hetsgd::nn
