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
//
// An epoch is small (on cora_ml, 140 training rows), so training is laid
// out to pay for arithmetic and little else:
//   * One workspace per training holds every layer's outputs for the
//     training and the validation rows, the gradients and the best-weights
//     snapshot, and the epoch loop allocates no buffer. Each CSR block of
//     rows is planned once (internal::CsrPlan): its value flags and, for the
//     training rows, Xᵀ in CSR form for Xᵀ·dZ.
//   * Every step that works row by row runs in one fan-out over blocks of
//     16 rows (the row pass): each layer's product, bias add and activation,
//     then the softmax cross-entropy and each dZ·Wᵀ with its activation
//     derivative, down to layer 0's dZ. Validation's forward is a row
//     pass of its own.
//   * The weight gradients sum over rows, in a second fan-out: a job per
//     block of 64 of W0's rows computes its rows of Xᵀ·dZ and at once takes
//     W0's Adam step there, reporting the new weights' non-finite and tiny
//     flags, so no product scans W0 again; a job per other layer computes
//     its gradients and steps. The gradient rows of features no training
//     row holds are never written: they keep the +0 they were allocated
//     with, which is what the product gives them.
// Every element still sees the operations of the unfused loop in the same
// order, so the trained weights are bitwise those of running the public
// calls (MatMul, ApplyActivationInPlace, SoftmaxCrossEntropy, Adam::Step)
// one after another.
#ifndef GCON_NN_MLP_H_
#define GCON_NN_MLP_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "nn/activations.h"

namespace gcon {

class Adam;
class CsrMatrix;
namespace internal {
struct ValueFlags;
}  // namespace internal

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
  /// Layer 0's input: CSR (planned for X·W0 and, for training rows, for
  /// Xᵀ·dZ) or dense.
  struct Input;
  /// An input block's trip through the network: its input and every
  /// layer's post-activation output, the logits last.
  struct Pass;
  /// Every parameter's gradient, and each layer's output gradient.
  struct Gradients;
  /// The Adam step every parameter takes as its gradient is final.
  struct Update;
  /// The labels and the 1 / count the loss scales by.
  struct Targets;

  Activation LayerActivation(std::size_t layer) const;
  std::vector<Matrix> LayerOutputs(Input x) const;
  /// The row pass: fills pass->outputs and, with `grads` set, the softmax
  /// cross-entropy terms of the listed rows and every layer's output
  /// gradient, in one fan-out over blocks of rows. Layer 0's product runs
  /// first on its own when its input is dense or W0 is not finite.
  /// `w0_flags` are W0's value flags.
  void RunRows(Pass* pass, const internal::ValueFlags& w0_flags,
               const Targets* targets, Gradients* grads) const;
  /// Rows [r0, r1) of the row pass.
  void RowBlock(Pass* pass, const internal::ValueFlags& w0_flags,
                const Targets* targets, Gradients* grads, std::size_t r0,
                std::size_t r1) const;
  void Forward(Pass* pass, const internal::ValueFlags& w0_flags) const;
  /// The row pass with the loss: returns the mean softmax cross-entropy of
  /// the pass's rows `idx` and fills every layer's output gradient (dZ) in
  /// *grads.
  double ForwardLoss(Pass* pass, const internal::ValueFlags& w0_flags,
                     const std::vector<int>& labels,
                     const std::vector<int>& idx, Gradients* grads) const;
  /// Every weight and bias gradient from ForwardLoss's dZ, in one fan-out.
  /// With `update` set, each parameter it names (the caller's own) also
  /// takes its Adam step, W0's block by block inside Xᵀ·dZ.
  void Backward(Pass* pass, Gradients* grads, const Update* update) const;
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
