// Multilayer perceptron with hand-derived backpropagation.
//
// Serves three roles in the reproduction:
//   1. the GCON feature encoder (Algorithm 3): trained on features/labels
//      only (no edges), then its penultimate representation becomes the
//      encoded features X̄;
//   2. the MLP baseline of Figure 1 (edge-DP for free since it never
//      touches edges);
//   3. classifier heads inside GAP / ProGAP / LPGNet.
// Training is full-batch Adam on softmax cross-entropy with optional
// validation-based model selection (best weights restored).
//
// Layer 0 multiplies the raw input, which for bag-of-words features is
// mostly zeros. Every entry point that takes the input takes it dense or in
// CSR form. A CSR input (the graph's features) runs layer 0's products
// (forward X·W0 and gradient Xᵀ·dZ) as CSR products; a dense input (an
// inductive query batch, a baseline's second stage) does so when it is
// sparse enough. The CSR products' bits equal the dense GEMM's
// (sparse/csr_matrix.h), so the form changes the cost and never a result.
#ifndef GCON_NN_MLP_H_
#define GCON_NN_MLP_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "nn/activations.h"

namespace gcon {

class CsrMatrix;

struct MlpOptions {
  /// Layer widths, input first, logits last, e.g. {d0, 64, d1, c}.
  std::vector<int> dims;
  Activation hidden_activation = Activation::kRelu;
  double learning_rate = 0.01;
  double weight_decay = 1e-5;
  int epochs = 200;
  std::uint64_t seed = 1;
  /// Evaluate on the validation set every `eval_every` epochs.
  int eval_every = 5;
};

class Mlp {
 public:
  explicit Mlp(const MlpOptions& options);

  /// Forward pass to logits (no softmax).
  Matrix Forward(const Matrix& x) const;
  Matrix Forward(const CsrMatrix& x) const;

  /// Representation after the activation of hidden layer `layer`
  /// (1-based; `layer` in [1, num_layers-1]). layer = num_layers-1 is the
  /// penultimate representation used by the GCON encoder.
  Matrix HiddenRepresentation(const Matrix& x, int layer) const;
  Matrix HiddenRepresentation(const CsrMatrix& x, int layer) const;

  /// Every layer's output for x in one pass: element l is layer l+1's
  /// post-activation output (HiddenRepresentation(x, l + 1)), and back() is
  /// the logits (Forward(x)).
  std::vector<Matrix> LayerOutputs(const Matrix& x) const;
  std::vector<Matrix> LayerOutputs(const CsrMatrix& x) const;

  /// Argmax class predictions for each row of x.
  std::vector<int> Predict(const Matrix& x) const;
  std::vector<int> Predict(const CsrMatrix& x) const;

  /// Trains on rows `train_idx` of x (full batch). If `val_idx` is
  /// non-empty, keeps the weights with the best validation accuracy.
  /// Returns the final training loss.
  double Train(const Matrix& x, const std::vector<int>& labels,
               const std::vector<int>& train_idx,
               const std::vector<int>& val_idx);
  double Train(const CsrMatrix& x, const std::vector<int>& labels,
               const std::vector<int>& train_idx,
               const std::vector<int>& val_idx);

  /// Loss and parameter gradients at the current weights, over rows `idx`.
  /// Exposed for gradient-check tests.
  double LossAndGrads(const Matrix& x, const std::vector<int>& labels,
                      const std::vector<int>& idx, std::vector<Matrix>* dw,
                      std::vector<Matrix>* db) const;

  int num_layers() const { return static_cast<int>(weights_.size()); }
  const Matrix& weight(int layer) const {
    return weights_[static_cast<std::size_t>(layer)];
  }
  Matrix* mutable_weight(int layer) {
    return &weights_[static_cast<std::size_t>(layer)];
  }
  const Matrix& bias(int layer) const {
    return biases_[static_cast<std::size_t>(layer)];
  }
  Matrix* mutable_bias(int layer) {
    return &biases_[static_cast<std::size_t>(layer)];
  }
  const MlpOptions& options() const { return options_; }

 private:
  /// Layer 0's input: `csr` when set (the same matrix as `dense`, if that
  /// is set too), else `dense`.
  struct Input {
    const Matrix* dense = nullptr;
    const CsrMatrix* csr = nullptr;
    Matrix Times(const Matrix& w) const;        ///< X·W
    /// *out = Xᵀ·dZ; a CSR input writes in place when *out has the shape.
    void TransTimes(const Matrix& dz, Matrix* out) const;
  };

  /// Forward keeping every layer's output (outputs[l] = layer l's
  /// post-activation output; the input is not copied).
  void ForwardKeep(Input x, std::vector<Matrix>* outputs) const;
  double LossAndGrads(Input x, const std::vector<int>& labels,
                      const std::vector<int>& idx, std::vector<Matrix>* dw,
                      std::vector<Matrix>* db) const;
  /// Train on gathered blocks: row i of `x_train` has label
  /// labels_train[i], and likewise for the validation block.
  double TrainGathered(Input x_train, const std::vector<int>& labels_train,
                       Input x_val, const std::vector<int>& labels_val);

  MlpOptions options_;
  std::vector<Matrix> weights_;  // weights_[l]: dims[l] x dims[l+1]
  std::vector<Matrix> biases_;   // biases_[l]: 1 x dims[l+1]
};

/// Glorot-uniform initialization: U(-a, a), a = sqrt(6 / (fan_in+fan_out)).
void GlorotInit(Matrix* w, std::uint64_t seed);

/// Multiclass accuracy of argmax(logits rows in `idx`) vs labels.
double Accuracy(const Matrix& logits, const std::vector<int>& labels,
                const std::vector<int>& idx);

}  // namespace gcon

#endif  // GCON_NN_MLP_H_
