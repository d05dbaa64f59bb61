#include "nn/mlp.h"

#include <cmath>
#include <optional>

#include "common/check.h"
#include "linalg/ops.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "rng/rng.h"
#include "sparse/csr_matrix.h"

namespace gcon {
namespace {

// Inputs at most this dense run layer 0 as a CSR product. Both forms give
// the same bits, so this is a cost cutoff and not a knob.
constexpr double kCsrMaxDensity = 0.1;

std::optional<CsrMatrix> SparseForm(const Matrix& x) {
  std::size_t nnz = 0;
  for (std::size_t k = 0; k < x.size(); ++k) nnz += x.data()[k] != 0.0;
  if (static_cast<double>(nnz) >
      kCsrMaxDensity * static_cast<double>(x.size())) {
    return std::nullopt;
  }
  return CsrMatrix::FromDense(x);
}

const CsrMatrix* OrNull(const std::optional<CsrMatrix>& csr) {
  return csr.has_value() ? &*csr : nullptr;
}

// X·W and Xᵀ·dZ, through the CSR product when `x_csr` (x in CSR form) is set.
Matrix InputTimes(const Matrix& x, const CsrMatrix* x_csr, const Matrix& w) {
  return x_csr != nullptr ? MatMul(*x_csr, w) : MatMul(x, w);
}

Matrix InputTransTimes(const Matrix& x, const CsrMatrix* x_csr,
                       const Matrix& dz) {
  return x_csr != nullptr ? MatMulTransA(*x_csr, dz) : MatMulTransA(x, dz);
}

}  // namespace

void GlorotInit(Matrix* w, std::uint64_t seed) {
  Rng rng(seed);
  const double fan_in = static_cast<double>(w->rows());
  const double fan_out = static_cast<double>(w->cols());
  const double limit = std::sqrt(6.0 / (fan_in + fan_out));
  for (std::size_t k = 0; k < w->size(); ++k) {
    w->data()[k] = rng.Uniform(-limit, limit);
  }
}

double Accuracy(const Matrix& logits, const std::vector<int>& labels,
                const std::vector<int>& idx) {
  if (idx.empty()) return 0.0;
  int correct = 0;
  for (int node : idx) {
    const std::size_t i = static_cast<std::size_t>(node);
    if (static_cast<int>(RowArgMax(logits, i)) == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(idx.size());
}

Mlp::Mlp(const MlpOptions& options) : options_(options) {
  GCON_CHECK_GE(options_.dims.size(), 2u) << "need at least input+output dims";
  const std::size_t layer_count = options_.dims.size() - 1;
  weights_.reserve(layer_count);
  biases_.reserve(layer_count);
  for (std::size_t l = 0; l < layer_count; ++l) {
    Matrix w(static_cast<std::size_t>(options_.dims[l]),
             static_cast<std::size_t>(options_.dims[l + 1]));
    GlorotInit(&w, options_.seed + 7919 * (l + 1));
    weights_.push_back(std::move(w));
    biases_.emplace_back(1, static_cast<std::size_t>(options_.dims[l + 1]));
  }
}

void Mlp::ForwardKeep(const Matrix& x, const CsrMatrix* x_csr,
                      std::vector<Matrix>* outputs) const {
  outputs->clear();
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    Matrix z = l > 0 ? MatMul(outputs->back(), weights_[l])
                     : InputTimes(x, x_csr, weights_[l]);
    const double* b = biases_[l].RowPtr(0);
    for (std::size_t i = 0; i < z.rows(); ++i) {
      double* row = z.RowPtr(i);
      for (std::size_t j = 0; j < z.cols(); ++j) row[j] += b[j];
    }
    if (l + 1 < weights_.size()) {
      ApplyActivationInPlace(options_.hidden_activation, &z);
    }
    outputs->push_back(std::move(z));
  }
}

std::vector<Matrix> Mlp::LayerOutputs(const Matrix& x) const {
  std::vector<Matrix> outputs;
  ForwardKeep(x, OrNull(SparseForm(x)), &outputs);
  return outputs;
}

Matrix Mlp::Forward(const Matrix& x) const {
  return std::move(LayerOutputs(x).back());
}

Matrix Mlp::HiddenRepresentation(const Matrix& x, int layer) const {
  GCON_CHECK_GE(layer, 1);
  GCON_CHECK_LT(layer, num_layers());
  return std::move(LayerOutputs(x)[static_cast<std::size_t>(layer - 1)]);
}

std::vector<int> Mlp::Predict(const Matrix& x) const {
  const Matrix logits = Forward(x);
  std::vector<int> out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    out[i] = static_cast<int>(RowArgMax(logits, i));
  }
  return out;
}

double Mlp::LossAndGrads(const Matrix& x, const std::vector<int>& labels,
                         const std::vector<int>& idx, std::vector<Matrix>* dw,
                         std::vector<Matrix>* db) const {
  return LossAndGrads(x, OrNull(SparseForm(x)), labels, idx, dw, db);
}

double Mlp::LossAndGrads(const Matrix& x, const CsrMatrix* x_csr,
                         const std::vector<int>& labels,
                         const std::vector<int>& idx, std::vector<Matrix>* dw,
                         std::vector<Matrix>* db) const {
  std::vector<Matrix> outputs;
  ForwardKeep(x, x_csr, &outputs);
  Matrix dz;
  const double loss = SoftmaxCrossEntropy(outputs.back(), labels, idx, &dz);
  const std::size_t layer_count = weights_.size();
  dw->assign(layer_count, Matrix());
  db->assign(layer_count, Matrix());
  for (std::size_t l = layer_count; l-- > 0;) {
    (*dw)[l] = l > 0 ? MatMulTransA(outputs[l - 1], dz)
                     : InputTransTimes(x, x_csr, dz);
    Matrix bias_grad(1, dz.cols());
    for (std::size_t j = 0; j < dz.cols(); ++j) {
      bias_grad(0, j) = ColSum(dz, j);
    }
    (*db)[l] = std::move(bias_grad);
    if (l == 0) break;
    Matrix dh = MatMulTransB(dz, weights_[l]);
    Matrix deriv;
    ActivationDerivFromOutput(options_.hidden_activation, outputs[l - 1],
                              &deriv);
    dz = Hadamard(dh, deriv);
  }
  return loss;
}

double Mlp::Train(const Matrix& x, const std::vector<int>& labels,
                  const std::vector<int>& train_idx,
                  const std::vector<int>& val_idx) {
  GCON_CHECK(!train_idx.empty());
  // Work on the gathered training block so each epoch touches n1 rows, not n.
  const Matrix x_train = GatherRows(x, train_idx);
  std::vector<int> labels_train(train_idx.size());
  std::vector<int> local_idx(train_idx.size());
  for (std::size_t i = 0; i < train_idx.size(); ++i) {
    labels_train[i] = labels[static_cast<std::size_t>(train_idx[i])];
    local_idx[i] = static_cast<int>(i);
  }
  const std::optional<CsrMatrix> train_csr = SparseForm(x_train);
  Matrix x_val;
  std::optional<CsrMatrix> val_csr;
  std::vector<int> labels_val;
  std::vector<int> local_val_idx;
  if (!val_idx.empty()) {
    x_val = GatherRows(x, val_idx);
    val_csr = SparseForm(x_val);
    labels_val.resize(val_idx.size());
    local_val_idx.resize(val_idx.size());
    for (std::size_t i = 0; i < val_idx.size(); ++i) {
      labels_val[i] = labels[static_cast<std::size_t>(val_idx[i])];
      local_val_idx[i] = static_cast<int>(i);
    }
  }

  Adam::Options adam_options;
  adam_options.learning_rate = options_.learning_rate;
  adam_options.weight_decay = options_.weight_decay;
  Adam adam(adam_options);
  std::vector<std::size_t> w_slot, b_slot;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    w_slot.push_back(adam.Register(weights_[l]));
    b_slot.push_back(adam.Register(biases_[l]));
  }

  double best_val = -1.0;
  std::vector<Matrix> best_w = weights_;
  std::vector<Matrix> best_b = biases_;
  double last_loss = 0.0;
  std::vector<Matrix> dw, db, val_outputs;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    last_loss = LossAndGrads(x_train, OrNull(train_csr), labels_train,
                             local_idx, &dw, &db);
    adam.BeginStep();
    for (std::size_t l = 0; l < weights_.size(); ++l) {
      adam.Step(w_slot[l], dw[l], &weights_[l]);
      adam.Step(b_slot[l], db[l], &biases_[l]);
    }
    if (!val_idx.empty() &&
        (epoch % options_.eval_every == 0 || epoch + 1 == options_.epochs)) {
      ForwardKeep(x_val, OrNull(val_csr), &val_outputs);
      const double acc =
          Accuracy(val_outputs.back(), labels_val, local_val_idx);
      if (acc > best_val) {
        best_val = acc;
        best_w = weights_;
        best_b = biases_;
      }
    }
  }
  if (!val_idx.empty() && best_val >= 0.0) {
    weights_ = std::move(best_w);
    biases_ = std::move(best_b);
  }
  return last_loss;
}

}  // namespace gcon
