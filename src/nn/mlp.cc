#include "nn/mlp.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>

#include "common/check.h"
#include "linalg/gemm_kernels.h"
#include "linalg/ops.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "rng/rng.h"
#include "sparse/csr_matrix.h"

namespace gcon {
namespace {

// Rows per block of the row pass (Mlp::RunRows), and of W0's rows in the
// gradient's fan-out.
constexpr std::size_t kRowBlock = 16;
constexpr std::size_t kGradientRowBlock = 64;

// Dense inputs at most this dense run layer 0 as a CSR product. Both forms
// give the same bits, so this is a cost cutoff and not a knob.
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

std::vector<int> GatherLabels(const std::vector<int>& labels,
                              const std::vector<int>& idx) {
  std::vector<int> out(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    out[i] = labels[static_cast<std::size_t>(idx[i])];
  }
  return out;
}

std::vector<int> LocalIndex(std::size_t count) {
  std::vector<int> idx(count);
  for (std::size_t i = 0; i < count; ++i) idx[i] = static_cast<int>(i);
  return idx;
}

std::vector<int> ArgMaxRows(const Matrix& logits) {
  std::vector<int> out(logits.rows());
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    out[i] = static_cast<int>(RowArgMax(logits, i));
  }
  return out;
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
  GCON_CHECK_GE(options_.eval_every, 1) << "validation needs a period >= 1";
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

struct Mlp::Input {
  /// `csr`, when set, is the same matrix as `dense` (if that is set too)
  /// and must outlive the input; `trains` also plans it for Xᵀ·dZ.
  Input(const Matrix* dense_in, const CsrMatrix* csr, bool trains)
      : dense(dense_in) {
    if (csr == nullptr) return;
    const internal::CsrOperand view{csr->rows(), csr->cols(),
                                    csr->row_ptr().data(),
                                    csr->col_idx().data(),
                                    csr->values().data()};
    rows.emplace(view, /*trans_a=*/false);
    if (trains) trans.emplace(view, /*trans_a=*/true);
  }

  std::size_t row_count() const {
    return rows.has_value() ? rows->op.rows : dense->rows();
  }

  const Matrix* dense;
  std::optional<internal::CsrPlan> rows;   ///< X, for X·W0
  std::optional<internal::CsrPlan> trans;  ///< Xᵀ, for Xᵀ·dZ
};

struct Mlp::Pass {
  Input x;
  std::vector<Matrix> outputs;
  /// Whether the row pass computes layer 0's product too.
  bool l0_in_rows = false;
};

struct Mlp::Gradients {
  Gradients(const std::vector<Matrix>& weights, std::size_t rows)
      : row_loss(rows), listed(rows) {
    for (const Matrix& w : weights) {
      dz.emplace_back(rows, w.cols());
      dw.emplace_back(w.rows(), w.cols());
      db.emplace_back(1, w.cols());
    }
  }

  /// dz[l]: the loss gradient at layer l's output before its activation.
  std::vector<Matrix> dz;
  std::vector<Matrix> dw;
  std::vector<Matrix> db;
  /// The loss is taken over the listed rows; row_loss holds their terms.
  std::vector<double> row_loss;
  std::vector<char> listed;
};

struct Mlp::Update {
  Adam* adam;
  std::vector<std::size_t> w_slot;
  std::vector<std::size_t> b_slot;
  std::vector<Matrix>* weights;
  std::vector<Matrix>* biases;
  /// Receives the updated W0's value flags.
  internal::ValueFlags* w0_flags;
};

struct Mlp::Targets {
  const std::vector<int>* labels;
  double inv_count;
};

Activation Mlp::LayerActivation(std::size_t layer) const {
  return layer + 1 < weights_.size() ? options_.hidden_activation
                                     : Activation::kIdentity;
}

void Mlp::RowBlock(Pass* pass, const internal::ValueFlags& w0_flags,
                   const Targets* targets, Gradients* grads, std::size_t r0,
                   std::size_t r1) const {
  const std::size_t layer_count = weights_.size();
  for (std::size_t l = 0; l < layer_count; ++l) {
    Matrix& out = pass->outputs[l];
    if (l == 0 && pass->l0_in_rows) {
      internal::GemmCsrRowRange(*pass->x.rows, weights_[0], w0_flags, &out,
                                r0, r1);
    } else if (l > 0) {
      internal::GemmBlockedRows(1.0, pass->outputs[l - 1], /*trans_a=*/false,
                                weights_[l], /*trans_b=*/false, 0.0, &out, r0,
                                r1);
    }
    BiasActivateRows(LayerActivation(l), biases_[l].RowPtr(0), r1 - r0,
                     out.cols(), out.RowPtr(r0));
  }
  if (grads == nullptr) return;
  const Matrix& logits = pass->outputs.back();
  Matrix& dz_top = grads->dz.back();
  for (std::size_t i = r0; i < r1; ++i) {
    if (grads->listed[i]) {
      grads->row_loss[i] = SoftmaxCrossEntropyRow(
          logits.RowPtr(i), logits.cols(), (*targets->labels)[i],
          targets->inv_count, dz_top.RowPtr(i));
    } else {
      std::fill(dz_top.RowPtr(i), dz_top.RowPtr(i) + dz_top.cols(), 0.0);
    }
  }
  // dz[l-1] = (dz[l] · W_lᵀ) ⊙ act'(outputs[l-1]), row by row.
  for (std::size_t l = layer_count - 1; l > 0; --l) {
    Matrix& prev = grads->dz[l - 1];
    internal::GemmBlockedRows(1.0, grads->dz[l], /*trans_a=*/false,
                              weights_[l], /*trans_b=*/true, 0.0, &prev, r0,
                              r1);
    MulDerivFromOutput(options_.hidden_activation,
                       pass->outputs[l - 1].RowPtr(r0),
                       (r1 - r0) * prev.cols(), prev.RowPtr(r0));
  }
}

void Mlp::RunRows(Pass* pass, const internal::ValueFlags& w0_flags,
                  const Targets* targets, Gradients* grads) const {
  const std::size_t layer_count = weights_.size();
  const std::size_t rows = pass->x.row_count();
  pass->outputs.resize(layer_count);
  for (std::size_t l = 0; l < layer_count; ++l) {
    Matrix& out = pass->outputs[l];
    if (out.rows() != rows || out.cols() != weights_[l].cols()) {
      out.Resize(rows, weights_[l].cols());
    }
  }
  // Layer 0's product runs row by row with the rest when X is CSR and W0
  // finite; otherwise first, as one product (the dense engine, or the CSR
  // product's dense path for a non-finite W0). Its bias and activation run
  // by rows.
  pass->l0_in_rows = pass->x.rows.has_value() && !w0_flags.non_finite;
  Matrix& out0 = pass->outputs[0];
  std::uint64_t work = ActivationWork(LayerActivation(0)) * out0.size();
  if (pass->l0_in_rows) {
    const internal::CsrOperand& x = pass->x.rows->op;
    const std::size_t slabs =
        (x.cols + internal::kGemmKC - 1) / internal::kGemmKC;
    internal::RecordCsrGemm(*pass->x.rows, out0.cols());
    work = std::max(work, (static_cast<std::uint64_t>(x.row_ptr[rows]) +
                           rows * slabs) *
                              out0.cols());
  } else if (pass->x.rows.has_value()) {
    internal::GemmCsr(1.0, pass->x.rows->op, /*trans_a=*/false, weights_[0],
                      0.0, &out0);
  } else {
    internal::GemmBlocked(1.0, *pass->x.dense, /*trans_a=*/false, weights_[0],
                          /*trans_b=*/false, 0.0, &out0);
  }
  for (std::size_t l = 1; l < layer_count; ++l) {
    const Matrix& w = weights_[l];
    internal::RecordGemm(rows, w.cols(), w.rows());
    work = std::max(work, std::uint64_t{rows} * w.cols() * w.rows());
    work = std::max(work, ActivationWork(LayerActivation(l)) * rows * w.cols());
    if (grads == nullptr) continue;
    internal::RecordGemm(rows, w.rows(), w.cols());
    work = std::max(work, std::uint64_t{rows} * w.rows() * w.cols());
  }
  // One fan-out carries each block of rows through every step; it fans out
  // when one of those steps would on its own.
  internal::KernelForRanges(pass->x.row_count(), kRowBlock, work,
                            [&](std::size_t r0, std::size_t r1) {
                              RowBlock(pass, w0_flags, targets, grads, r0, r1);
                            });
}

void Mlp::Forward(Pass* pass, const internal::ValueFlags& w0_flags) const {
  RunRows(pass, w0_flags, nullptr, nullptr);
}

double Mlp::ForwardLoss(Pass* pass, const internal::ValueFlags& w0_flags,
                        const std::vector<int>& labels,
                        const std::vector<int>& idx, Gradients* grads) const {
  GCON_CHECK(!idx.empty());
  std::fill(grads->listed.begin(), grads->listed.end(), 0);
  for (int node : idx) {
    GCON_CHECK_LT(static_cast<std::size_t>(node), grads->listed.size());
    grads->listed[static_cast<std::size_t>(node)] = 1;
  }
  const Targets targets{&labels, 1.0 / static_cast<double>(idx.size())};
  RunRows(pass, w0_flags, &targets, grads);
  // The loss sums the rows' terms in index order, as SoftmaxCrossEntropy.
  double total = 0.0;
  for (int node : idx) total += grads->row_loss[static_cast<std::size_t>(node)];
  return total * targets.inv_count;
}

void Mlp::Backward(Pass* pass, Gradients* grads, const Update* update) const {
  // The weight gradients sum over rows, after the row pass: one fan-out
  // with a job per block of W0's rows (Xᵀ·dZ, then W0's Adam step while
  // the block is in cache) and one per other layer (its weight and bias
  // gradients and steps, and layer 0's bias).
  const std::size_t layer_count = weights_.size();
  const Matrix& dz0 = grads->dz[0];
  Matrix& dw0 = grads->dw[0];
  const std::size_t w0_cols = dw0.cols();
  std::atomic<bool> non_finite{false};
  std::atomic<bool> tiny{false};
  const auto step_w0 = [&](std::size_t r0, std::size_t r1) {
    if (update == nullptr) return;
    const internal::ValueFlags flags =
        update->adam->StepRange(update->w_slot[0], dw0, &(*update->weights)[0],
                                r0 * w0_cols, r1 * w0_cols);
    if (flags.non_finite) non_finite.store(true, std::memory_order_relaxed);
    if (flags.tiny) tiny.store(true, std::memory_order_relaxed);
  };
  // An Adam element costs about six streaming multiply-adds.
  const std::uint64_t step_work = update != nullptr ? 6 * dw0.size() : 0;
  const internal::ValueFlags dz0_flags =
      internal::ScanValues(dz0.data(), dz0.size());
  // Xᵀ·dZ runs in the W0 jobs when X is CSR and dZ finite; otherwise first,
  // as one product (the dense engine, or the CSR product's dense path), and
  // the W0 jobs only take the step.
  const bool w0_in_jobs = pass->x.trans.has_value() && !dz0_flags.non_finite;
  std::uint64_t work = step_work;
  if (w0_in_jobs) {
    const internal::CsrOperand& xt = pass->x.trans->op;
    internal::RecordCsrGemm(*pass->x.trans, w0_cols);
    work = std::max(work, (static_cast<std::uint64_t>(xt.row_ptr[xt.rows]) +
                           xt.rows * ((xt.cols + internal::kGemmKC - 1) /
                                      internal::kGemmKC)) *
                              w0_cols);
  } else if (pass->x.trans.has_value()) {
    internal::GemmCsr(1.0, pass->x.trans->op, /*trans_a=*/false, dz0, 0.0,
                      &dw0);
  } else {
    internal::GemmBlocked(1.0, *pass->x.dense, /*trans_a=*/true, dz0,
                          /*trans_b=*/false, 0.0, &dw0);
  }
  const std::size_t w0_jobs =
      w0_in_jobs || update != nullptr
          ? (dw0.rows() + kGradientRowBlock - 1) / kGradientRowBlock
          : 0;
  const auto layer_job = [&](std::size_t l) {
    const Matrix& dz = grads->dz[l];
    if (l > 0) {
      internal::GemmBlocked(1.0, pass->outputs[l - 1], /*trans_a=*/true, dz,
                            /*trans_b=*/false, 0.0, &grads->dw[l]);
    }
    double* bias_grad = grads->db[l].RowPtr(0);
    for (std::size_t j = 0; j < dz.cols(); ++j) bias_grad[j] = ColSum(dz, j);
    if (update == nullptr) return;
    if (l > 0) {
      update->adam->Step(update->w_slot[l], grads->dw[l],
                         &(*update->weights)[l]);
    }
    update->adam->Step(update->b_slot[l], grads->db[l], &(*update->biases)[l]);
  };
  for (std::size_t l = 1; l < layer_count; ++l) {
    work = std::max(work, std::uint64_t{weights_[l].size()} * dz0.rows());
  }
  // The layer jobs come first, so no small job trails the W0 blocks.
  internal::KernelFor(layer_count + w0_jobs, work, [&](int job) {
    const auto j = static_cast<std::size_t>(job);
    if (j < layer_count) {
      layer_job(j);
      return;
    }
    const std::size_t r0 = (j - layer_count) * kGradientRowBlock;
    const std::size_t r1 = std::min(r0 + kGradientRowBlock, dw0.rows());
    if (w0_in_jobs) {
      internal::GemmCsrRowRange(*pass->x.trans, dz0, dz0_flags, &dw0, r0, r1);
    }
    step_w0(r0, r1);
  });
  if (update != nullptr) *update->w0_flags = {non_finite, tiny};
  // The dense path wrote the rows the CSR one leaves at +0.
  if (!w0_in_jobs && pass->x.trans.has_value()) {
    internal::ZeroEmptyRows(*pass->x.trans, &dw0);
  }
}

std::vector<Matrix> Mlp::LayerOutputs(Input x) const {
  Pass pass{std::move(x), {}};
  internal::ValueFlags w0_flags;
  if (pass.x.rows.has_value()) {
    w0_flags = internal::ScanValues(weights_[0].data(), weights_[0].size());
  }
  Forward(&pass, w0_flags);
  return std::move(pass.outputs);
}

std::vector<Matrix> Mlp::LayerOutputs(const Matrix& x) const {
  const std::optional<CsrMatrix> csr = SparseForm(x);
  return LayerOutputs(Input(&x, OrNull(csr), /*trains=*/false));
}

std::vector<Matrix> Mlp::LayerOutputs(const CsrMatrix& x) const {
  return LayerOutputs(Input(nullptr, &x, /*trains=*/false));
}

Matrix Mlp::Forward(const Matrix& x) const {
  return std::move(LayerOutputs(x).back());
}

Matrix Mlp::Forward(const CsrMatrix& x) const {
  return std::move(LayerOutputs(x).back());
}

Matrix Mlp::HiddenRepresentation(const Matrix& x, int layer) const {
  GCON_CHECK_GE(layer, 1);
  GCON_CHECK_LT(layer, num_layers());
  return std::move(LayerOutputs(x)[static_cast<std::size_t>(layer - 1)]);
}

Matrix Mlp::HiddenRepresentation(const CsrMatrix& x, int layer) const {
  GCON_CHECK_GE(layer, 1);
  GCON_CHECK_LT(layer, num_layers());
  return std::move(LayerOutputs(x)[static_cast<std::size_t>(layer - 1)]);
}

std::vector<int> Mlp::Predict(const Matrix& x) const {
  return ArgMaxRows(Forward(x));
}

std::vector<int> Mlp::Predict(const CsrMatrix& x) const {
  return ArgMaxRows(Forward(x));
}

double Mlp::LossAndGrads(const Matrix& x, const std::vector<int>& labels,
                         const std::vector<int>& idx, std::vector<Matrix>* dw,
                         std::vector<Matrix>* db) const {
  const std::optional<CsrMatrix> csr = SparseForm(x);
  return LossAndGrads(Input(&x, OrNull(csr), /*trains=*/true), labels, idx,
                      dw, db);
}

double Mlp::LossAndGrads(Input x, const std::vector<int>& labels,
                         const std::vector<int>& idx, std::vector<Matrix>* dw,
                         std::vector<Matrix>* db) const {
  Pass pass{std::move(x), {}};
  Gradients grads(weights_, pass.x.row_count());
  const double loss = ForwardLoss(
      &pass, internal::ScanValues(weights_[0].data(), weights_[0].size()),
      labels, idx, &grads);
  Backward(&pass, &grads, nullptr);
  *dw = std::move(grads.dw);
  *db = std::move(grads.db);
  return loss;
}

double Mlp::Train(const Matrix& x, const std::vector<int>& labels,
                  const std::vector<int>& train_idx,
                  const std::vector<int>& val_idx) {
  GCON_CHECK(!train_idx.empty());
  // Work on the gathered blocks so each epoch touches n1 rows, not n.
  const Matrix x_train = GatherRows(x, train_idx);
  const Matrix x_val = GatherRows(x, val_idx);
  const std::optional<CsrMatrix> train_csr = SparseForm(x_train);
  const std::optional<CsrMatrix> val_csr = SparseForm(x_val);
  return TrainGathered(Input(&x_train, OrNull(train_csr), /*trains=*/true),
                       GatherLabels(labels, train_idx),
                       Input(&x_val, OrNull(val_csr), /*trains=*/false),
                       GatherLabels(labels, val_idx));
}

double Mlp::Train(const CsrMatrix& x, const std::vector<int>& labels,
                  const std::vector<int>& train_idx,
                  const std::vector<int>& val_idx) {
  GCON_CHECK(!train_idx.empty());
  const CsrMatrix x_train = GatherRows(x, train_idx);
  const CsrMatrix x_val = GatherRows(x, val_idx);
  return TrainGathered(Input(nullptr, &x_train, /*trains=*/true),
                       GatherLabels(labels, train_idx),
                       Input(nullptr, &x_val, /*trains=*/false),
                       GatherLabels(labels, val_idx));
}

double Mlp::TrainGathered(Input x_train, const std::vector<int>& labels_train,
                          Input x_val, const std::vector<int>& labels_val) {
  const std::vector<int> local_idx = LocalIndex(labels_train.size());
  const std::vector<int> local_val_idx = LocalIndex(labels_val.size());

  Adam::Options adam_options;
  adam_options.learning_rate = options_.learning_rate;
  adam_options.weight_decay = options_.weight_decay;
  Adam adam(adam_options);
  std::vector<std::size_t> w_slot, b_slot;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    w_slot.push_back(adam.Register(weights_[l]));
    b_slot.push_back(adam.Register(biases_[l]));
  }

  // The workspace: nothing below allocates once the first epoch has sized
  // the passes' outputs.
  Pass train{std::move(x_train), {}};
  Pass val{std::move(x_val), {}};
  Gradients grads(weights_, labels_train.size());
  internal::ValueFlags w0_flags =
      internal::ScanValues(weights_[0].data(), weights_[0].size());
  const Update update{&adam,     w_slot,    b_slot,
                      &weights_, &biases_, &w0_flags};
  const bool validates = !labels_val.empty();
  double best_val = -1.0;
  std::vector<Matrix> best_w, best_b;
  if (validates) {
    best_w = weights_;
    best_b = biases_;
  }
  double last_loss = 0.0;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    last_loss =
        ForwardLoss(&train, w0_flags, labels_train, local_idx, &grads);
    adam.BeginStep();
    Backward(&train, &grads, &update);
    if (!validates ||
        (epoch % options_.eval_every != 0 && epoch + 1 != options_.epochs)) {
      continue;
    }
    Forward(&val, w0_flags);
    const double acc = Accuracy(val.outputs.back(), labels_val, local_val_idx);
    if (acc > best_val) {
      best_val = acc;
      for (std::size_t l = 0; l < weights_.size(); ++l) {
        std::copy_n(weights_[l].data(), weights_[l].size(), best_w[l].data());
        std::copy_n(biases_[l].data(), biases_[l].size(), best_b[l].data());
      }
    }
  }
  if (validates && best_val >= 0.0) {
    weights_ = std::move(best_w);
    biases_ = std::move(best_b);
  }
  return last_loss;
}

}  // namespace gcon
