#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace gcon {

Matrix Softmax(const Matrix& logits) {
  Matrix out(logits.rows(), logits.cols());
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    const double* in_row = logits.RowPtr(i);
    double* out_row = out.RowPtr(i);
    double max_v = in_row[0];
    for (std::size_t j = 1; j < logits.cols(); ++j) {
      max_v = std::max(max_v, in_row[j]);
    }
    double sum = 0.0;
    for (std::size_t j = 0; j < logits.cols(); ++j) {
      out_row[j] = std::exp(in_row[j] - max_v);
      sum += out_row[j];
    }
    const double inv = 1.0 / sum;
    for (std::size_t j = 0; j < logits.cols(); ++j) {
      out_row[j] *= inv;
    }
  }
  return out;
}

double SoftmaxCrossEntropyRow(const double* row, std::size_t cols, int label,
                              double inv_count, double* grad) {
  double max_v = row[0];
  for (std::size_t j = 1; j < cols; ++j) {
    max_v = std::max(max_v, row[j]);
  }
  double sum = 0.0;
  for (std::size_t j = 0; j < cols; ++j) {
    sum += std::exp(row[j] - max_v);
  }
  const double log_sum = std::log(sum) + max_v;
  GCON_CHECK_GE(label, 0);
  GCON_CHECK_LT(static_cast<std::size_t>(label), cols);
  if (grad != nullptr) {
    for (std::size_t j = 0; j < cols; ++j) {
      const double p = std::exp(row[j] - log_sum);
      grad[j] = (p - (static_cast<int>(j) == label ? 1.0 : 0.0)) * inv_count;
    }
  }
  return log_sum - row[label];
}

double SoftmaxCrossEntropy(const Matrix& logits, const std::vector<int>& labels,
                           const std::vector<int>& index, Matrix* grad) {
  GCON_CHECK(!index.empty());
  if (grad != nullptr) {
    grad->Resize(logits.rows(), logits.cols());
  }
  const double inv_count = 1.0 / static_cast<double>(index.size());
  double total = 0.0;
  for (int node : index) {
    const std::size_t i = static_cast<std::size_t>(node);
    GCON_CHECK_LT(i, logits.rows());
    total += SoftmaxCrossEntropyRow(
        logits.RowPtr(i), logits.cols(), labels[i], inv_count,
        grad != nullptr ? grad->RowPtr(i) : nullptr);
  }
  return total * inv_count;
}

}  // namespace gcon
