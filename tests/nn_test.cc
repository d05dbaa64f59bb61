#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "eval/parallel.h"
#include "linalg/ops.h"
#include "nn/activations.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/optim.h"
#include "obs/metrics.h"
#include "rng/rng.h"
#include "sparse/csr_matrix.h"

namespace gcon {
namespace {

// Calls of the CSR product so far: tells which form layer 0 ran in.
std::uint64_t CsrGemmCalls() {
  return obs::MetricsRegistry::Global()
      .counter("gcon_gemm_calls_total", "", {{"shape", "csr"}})
      ->value();
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Calls fn from inside a WorkerPool job, where every kernel runs inline.
template <typename Fn>
void InsidePoolJob(const Fn& fn) {
  ParallelFor(2, 2, [&](int i) {
    if (i == 0) fn();
  });
}

bool RowBitEqual(const Matrix& a, std::size_t i, const Matrix& b,
                 std::size_t j) {
  return a.cols() == b.cols() &&
         std::memcmp(a.RowPtr(i), b.RowPtr(j), a.cols() * sizeof(double)) == 0;
}

TEST(Activations, ReluClampsNegative) {
  Matrix m{{-1.0, 0.0, 2.0}};
  ApplyActivationInPlace(Activation::kRelu, &m);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m(0, 2), 2.0);
}

TEST(Activations, TanhAndSigmoidRange) {
  Matrix m{{-10.0, 0.0, 10.0}};
  Matrix t = m;
  ApplyActivationInPlace(Activation::kTanh, &t);
  EXPECT_NEAR(t(0, 0), -1.0, 1e-6);
  EXPECT_DOUBLE_EQ(t(0, 1), 0.0);
  EXPECT_NEAR(t(0, 2), 1.0, 1e-6);
  Matrix s = m;
  ApplyActivationInPlace(Activation::kSigmoid, &s);
  EXPECT_NEAR(s(0, 0), 0.0, 1e-4);
  EXPECT_DOUBLE_EQ(s(0, 1), 0.5);
  EXPECT_NEAR(s(0, 2), 1.0, 1e-4);
}

TEST(Activations, IdentityNoOp) {
  Matrix m{{-3.0, 5.0}};
  const Matrix copy = m;
  ApplyActivationInPlace(Activation::kIdentity, &m);
  EXPECT_TRUE(m.AllClose(copy));
}

// Derivative-from-output must match the analytic derivative at matched
// points for every activation.
class ActivationDeriv : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationDeriv, MatchesFiniteDifference) {
  const Activation act = GetParam();
  const double h = 1e-6;
  for (double x : {-1.5, -0.3, 0.4, 2.0}) {
    Matrix fwd{{x}};
    ApplyActivationInPlace(act, &fwd);
    Matrix deriv;
    ActivationDerivFromOutput(act, fwd, &deriv);
    Matrix lo{{x - h}}, hi{{x + h}};
    ApplyActivationInPlace(act, &lo);
    ApplyActivationInPlace(act, &hi);
    const double fd = (hi(0, 0) - lo(0, 0)) / (2.0 * h);
    EXPECT_NEAR(deriv(0, 0), fd, 1e-5)
        << "activation " << static_cast<int>(act) << " at x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(All, ActivationDeriv,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kRelu,
                                           Activation::kTanh,
                                           Activation::kSigmoid));

TEST(Activations, ByName) {
  EXPECT_EQ(ActivationByName("relu"), Activation::kRelu);
  EXPECT_EQ(ActivationByName("tanh"), Activation::kTanh);
  EXPECT_EQ(ActivationByName("sigmoid"), Activation::kSigmoid);
  EXPECT_EQ(ActivationByName("identity"), Activation::kIdentity);
}

TEST(Loss, SoftmaxRowsSumToOne) {
  Matrix logits{{1.0, 2.0, 3.0}, {-5.0, 0.0, 5.0}, {100.0, 100.0, 100.0}};
  const Matrix p = Softmax(logits);
  for (std::size_t i = 0; i < p.rows(); ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < p.cols(); ++j) {
      EXPECT_GE(p(i, j), 0.0);
      sum += p(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  // Large logits must not overflow.
  EXPECT_NEAR(p(2, 0), 1.0 / 3.0, 1e-12);
}

TEST(Loss, CrossEntropyKnownValue) {
  // Uniform logits over c classes -> loss = log(c).
  Matrix logits(1, 4);
  const std::vector<int> labels = {2};
  const double loss = SoftmaxCrossEntropy(logits, labels, {0}, nullptr);
  EXPECT_NEAR(loss, std::log(4.0), 1e-12);
}

TEST(Loss, CrossEntropyGradientMatchesFiniteDifference) {
  Rng rng(3);
  Matrix logits(3, 4);
  for (std::size_t k = 0; k < logits.size(); ++k) {
    logits.data()[k] = rng.Uniform(-2.0, 2.0);
  }
  const std::vector<int> labels = {1, 3, 0};
  const std::vector<int> idx = {0, 1, 2};
  Matrix grad;
  SoftmaxCrossEntropy(logits, labels, idx, &grad);
  const double h = 1e-6;
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    for (std::size_t j = 0; j < logits.cols(); ++j) {
      Matrix lo = logits, hi = logits;
      lo(i, j) -= h;
      hi(i, j) += h;
      const double fd = (SoftmaxCrossEntropy(hi, labels, idx, nullptr) -
                         SoftmaxCrossEntropy(lo, labels, idx, nullptr)) /
                        (2.0 * h);
      EXPECT_NEAR(grad(i, j), fd, 1e-6);
    }
  }
}

TEST(Loss, GradientZeroOutsideIndex) {
  Matrix logits(3, 2);
  Matrix grad;
  SoftmaxCrossEntropy(logits, {0, 1, 0}, {1}, &grad);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_DOUBLE_EQ(grad(0, j), 0.0);
    EXPECT_DOUBLE_EQ(grad(2, j), 0.0);
  }
}

TEST(Optim, AdamMinimizesQuadratic) {
  // f(w) = 0.5 ||w - target||², grad = w - target.
  Matrix w(3, 2);
  Matrix target{{1.0, -2.0}, {0.5, 3.0}, {-1.0, 0.0}};
  Adam::Options options;
  options.learning_rate = 0.1;
  Adam adam(options);
  const std::size_t slot = adam.Register(w);
  for (int iter = 0; iter < 500; ++iter) {
    Matrix grad = Sub(w, target);
    adam.BeginStep();
    adam.Step(slot, grad, &w);
  }
  EXPECT_TRUE(w.AllClose(target, 1e-3));
}

TEST(Optim, WeightDecayShrinksParameters) {
  Matrix w(1, 1, 10.0);
  Adam::Options options;
  options.learning_rate = 0.1;
  options.weight_decay = 1.0;
  Adam adam(options);
  const std::size_t slot = adam.Register(w);
  Matrix zero_grad(1, 1);
  for (int iter = 0; iter < 300; ++iter) {
    adam.BeginStep();
    adam.Step(slot, zero_grad, &w);
  }
  EXPECT_NEAR(w(0, 0), 0.0, 0.05);
}

TEST(Mlp, GlorotInitBounded) {
  Matrix w(20, 30);
  GlorotInit(&w, 5);
  const double limit = std::sqrt(6.0 / 50.0);
  double max_abs = 0.0;
  for (std::size_t k = 0; k < w.size(); ++k) {
    max_abs = std::max(max_abs, std::abs(w.data()[k]));
  }
  EXPECT_LE(max_abs, limit);
  EXPECT_GT(max_abs, 0.2 * limit);  // not degenerate
}

// Central differences of the loss against LossAndGrads, on a few weight
// entries of every layer of a {x.cols(), 4, 2} tanh MLP.
void ExpectGradientsMatchFiniteDifference(const Matrix& x,
                                          const std::vector<int>& labels) {
  MlpOptions options;
  options.dims = {static_cast<int>(x.cols()), 4, 2};
  options.hidden_activation = Activation::kTanh;
  options.seed = 7;
  Mlp mlp(options);
  std::vector<int> idx(x.rows());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int>(i);
  std::vector<Matrix> dw, db;
  mlp.LossAndGrads(x, labels, idx, &dw, &db);

  const double h = 1e-6;
  for (int layer = 0; layer < mlp.num_layers(); ++layer) {
    Matrix* w = mlp.mutable_weight(layer);
    // Spot-check a few entries per layer.
    for (std::size_t k = 0; k < std::min<std::size_t>(w->size(), 6); ++k) {
      const double original = w->data()[k];
      w->data()[k] = original + h;
      const double hi = mlp.LossAndGrads(x, labels, idx, &dw, &db);
      // dw was overwritten; recompute gradient at the original point later.
      w->data()[k] = original - h;
      std::vector<Matrix> dw2, db2;
      const double lo = mlp.LossAndGrads(x, labels, idx, &dw2, &db2);
      w->data()[k] = original;
      std::vector<Matrix> dw3, db3;
      mlp.LossAndGrads(x, labels, idx, &dw3, &db3);
      // Training reuses its gradient buffers every epoch: a call into the
      // ones last written at original + h must overwrite them, not add.
      mlp.LossAndGrads(x, labels, idx, &dw, &db);
      for (std::size_t l = 0; l < dw3.size(); ++l) {
        EXPECT_TRUE(BitEqual(dw[l], dw3[l]) && BitEqual(db[l], db3[l]))
            << "reused buffers, layer " << l;
      }
      const double fd = (hi - lo) / (2.0 * h);
      EXPECT_NEAR(dw3[static_cast<std::size_t>(layer)].data()[k], fd, 1e-5)
          << "layer " << layer << " entry " << k;
    }
  }
}

TEST(Mlp, GradientsMatchFiniteDifference) {
  Rng rng(9);
  Matrix x(5, 3);
  for (std::size_t k = 0; k < x.size(); ++k) {
    x.data()[k] = rng.Uniform(-1.0, 1.0);
  }
  ExpectGradientsMatchFiniteDifference(x, {0, 1, 0, 1, 1});

  // A ~2%-dense input runs layer 0 (forward and the Xᵀ·dZ weight gradient)
  // as a CSR product. Features 0 and 1 are set so the checked layer-0
  // entries (rows 0 and 1 of W0) carry a nonzero gradient.
  Matrix sparse(20, 100);
  std::vector<int> labels(sparse.rows());
  for (std::size_t i = 0; i < sparse.rows(); ++i) {
    labels[i] = static_cast<int>(i % 2);
    for (std::size_t j = 0; j < sparse.cols(); ++j) {
      if (rng.Uniform(0.0, 1.0) < 0.02) sparse(i, j) = rng.Uniform(0.1, 1.0);
    }
  }
  sparse(2, 0) = 0.7;
  sparse(5, 1) = -0.4;
  sparse(8, 1) = 0.9;
  const std::uint64_t csr_calls = CsrGemmCalls();
  ExpectGradientsMatchFiniteDifference(sparse, labels);
  EXPECT_GT(CsrGemmCalls(), csr_calls);
}

TEST(Mlp, LearnsLinearlySeparableData) {
  Rng rng(11);
  const int n = 200;
  Matrix x(static_cast<std::size_t>(n), 2);
  std::vector<int> labels(static_cast<std::size_t>(n));
  std::vector<int> idx(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double a = rng.Uniform(-1.0, 1.0);
    const double b = rng.Uniform(-1.0, 1.0);
    x(static_cast<std::size_t>(i), 0) = a;
    x(static_cast<std::size_t>(i), 1) = b;
    labels[static_cast<std::size_t>(i)] = (a + b > 0.0) ? 1 : 0;
    idx[static_cast<std::size_t>(i)] = i;
  }
  MlpOptions options;
  options.dims = {2, 8, 2};
  options.epochs = 300;
  options.seed = 3;
  Mlp mlp(options);
  mlp.Train(x, labels, idx, {});
  const Matrix logits = mlp.Forward(x);
  EXPECT_GT(Accuracy(logits, labels, idx), 0.95);
}

TEST(Mlp, LearnsXorWithHiddenLayer) {
  // XOR is not linearly separable; requires the hidden layer to work.
  Matrix x{{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::vector<int> labels = {0, 1, 1, 0};
  const std::vector<int> idx = {0, 1, 2, 3};
  MlpOptions options;
  options.dims = {2, 8, 2};
  options.epochs = 800;
  options.learning_rate = 0.05;
  options.weight_decay = 0.0;
  options.seed = 21;
  Mlp mlp(options);
  mlp.Train(x, labels, idx, {});
  EXPECT_EQ(mlp.Predict(x), labels);
}

TEST(Mlp, HiddenRepresentationShape) {
  MlpOptions options;
  options.dims = {6, 10, 4, 3};
  Mlp mlp(options);
  Matrix x(5, 6, 0.5);
  EXPECT_EQ(mlp.HiddenRepresentation(x, 1).cols(), 10u);
  EXPECT_EQ(mlp.HiddenRepresentation(x, 2).cols(), 4u);
  EXPECT_EQ(mlp.Forward(x).cols(), 3u);
}

TEST(Mlp, MixedDensityBatchMatchesRowsAloneBitwise) {
  // A batch of sparse rows plus one dense row is under the CSR cutoff, so
  // layer 0 runs sparse for it; the dense row alone runs the blocked GEMM.
  // Row by row, every output must carry the same bits either way.
  MlpOptions options;
  options.dims = {200, 8, 4, 3};
  options.seed = 17;
  Mlp mlp(options);
  Rng rng(19);
  Matrix batch(32, 200);
  for (std::size_t j = 0; j < batch.cols(); ++j) {
    batch(0, j) = rng.Uniform(-1.0, 1.0);
  }
  for (std::size_t i = 1; i < batch.rows(); ++i) {
    for (int t = 0; t < 4; ++t) {
      batch(i, static_cast<std::size_t>(rng.UniformInt(200))) =
          rng.Uniform(0.1, 1.0);
    }
  }
  const std::uint64_t csr_calls = CsrGemmCalls();
  const std::vector<Matrix> outputs = mlp.LayerOutputs(batch);
  EXPECT_GT(CsrGemmCalls(), csr_calls) << "the batch should run sparse";
  ASSERT_EQ(outputs.size(), 3u);
  const Matrix hidden = mlp.HiddenRepresentation(batch, 2);
  const Matrix logits = mlp.Forward(batch);
  for (std::size_t i = 0; i < batch.rows(); ++i) {
    EXPECT_TRUE(RowBitEqual(outputs[1], i, hidden, i));
    EXPECT_TRUE(RowBitEqual(outputs[2], i, logits, i));
    Matrix row(1, batch.cols());
    std::memcpy(row.RowPtr(0), batch.RowPtr(i),
                batch.cols() * sizeof(double));
    const std::uint64_t before = CsrGemmCalls();
    const Matrix hidden_alone = mlp.HiddenRepresentation(row, 2);
    if (i == 0) {
      EXPECT_EQ(CsrGemmCalls(), before) << "the dense row should run dense";
    }
    EXPECT_TRUE(RowBitEqual(hidden, i, hidden_alone, 0)) << "row " << i;
    EXPECT_TRUE(RowBitEqual(logits, i, mlp.Forward(row), 0)) << "row " << i;
  }
}

TEST(Mlp, ValidationSelectionKeepsBestWeights) {
  // Train long enough to overfit tiny noise data; with validation-based
  // selection the returned model should be at least as good on val as the
  // final-epoch model would be.
  Rng rng(13);
  const int n = 60;
  Matrix x(static_cast<std::size_t>(n), 4);
  std::vector<int> labels(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < 4; ++j) {
      x(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          rng.Uniform(-1.0, 1.0);
    }
    labels[static_cast<std::size_t>(i)] =
        x(static_cast<std::size_t>(i), 0) > 0 ? 1 : 0;
  }
  std::vector<int> train_idx, val_idx;
  for (int i = 0; i < n; ++i) {
    (i < 40 ? train_idx : val_idx).push_back(i);
  }
  MlpOptions options;
  options.dims = {4, 16, 2};
  options.epochs = 200;
  options.seed = 5;
  Mlp mlp(options);
  mlp.Train(x, labels, train_idx, val_idx);
  const double val_acc = Accuracy(mlp.Forward(x), labels, val_idx);
  EXPECT_GT(val_acc, 0.7);
}

TEST(Mlp, AccuracyHelper) {
  Matrix logits{{2.0, 1.0}, {0.0, 1.0}, {3.0, 0.0}};
  const std::vector<int> labels = {0, 1, 1};
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {0, 1, 2}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {}), 0.0);
}

// The epoch loop Mlp::Train ran before its kernels were fused, built from
// the public unfused calls: each layer's product, a bias loop and
// ApplyActivationInPlace; SoftmaxCrossEntropy; the backward products,
// ActivationDerivFromOutput and Hadamard; one Adam::Step per tensor; and a
// copy of every weight whenever validation accuracy improves. Trains
// `mlp`'s own weights in place and returns the last epoch's loss;
// *best_epoch is the epoch whose weights were kept (-1: none).
double ReferenceTrain(Mlp* mlp, const CsrMatrix& x_train,
                      const std::vector<int>& labels_train,
                      const CsrMatrix& x_val,
                      const std::vector<int>& labels_val, int* best_epoch) {
  const MlpOptions& options = mlp->options();
  const std::size_t layer_count = static_cast<std::size_t>(mlp->num_layers());
  const auto forward = [&](const CsrMatrix& x, std::vector<Matrix>* outputs) {
    outputs->clear();
    for (std::size_t l = 0; l < layer_count; ++l) {
      const Matrix& w = mlp->weight(static_cast<int>(l));
      Matrix z = l > 0 ? MatMul(outputs->back(), w) : MatMul(x, w);
      const Matrix& b = mlp->bias(static_cast<int>(l));
      for (std::size_t i = 0; i < z.rows(); ++i) {
        for (std::size_t j = 0; j < z.cols(); ++j) z(i, j) += b(0, j);
      }
      if (l + 1 < layer_count) {
        ApplyActivationInPlace(options.hidden_activation, &z);
      }
      outputs->push_back(std::move(z));
    }
  };
  std::vector<int> train_idx(labels_train.size());
  for (std::size_t i = 0; i < train_idx.size(); ++i) {
    train_idx[i] = static_cast<int>(i);
  }
  std::vector<int> val_idx(labels_val.size());
  for (std::size_t i = 0; i < val_idx.size(); ++i) {
    val_idx[i] = static_cast<int>(i);
  }
  Adam::Options adam_options;
  adam_options.learning_rate = options.learning_rate;
  adam_options.weight_decay = options.weight_decay;
  Adam adam(adam_options);
  std::vector<std::size_t> w_slot, b_slot;
  for (std::size_t l = 0; l < layer_count; ++l) {
    w_slot.push_back(adam.Register(mlp->weight(static_cast<int>(l))));
    b_slot.push_back(adam.Register(mlp->bias(static_cast<int>(l))));
  }
  double best_val = -1.0;
  std::vector<Matrix> best_w, best_b;
  double loss = 0.0;
  std::vector<Matrix> outputs, dw(layer_count), db(layer_count);
  *best_epoch = -1;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    forward(x_train, &outputs);
    Matrix dz;
    loss = SoftmaxCrossEntropy(outputs.back(), labels_train, train_idx, &dz);
    for (std::size_t l = layer_count; l-- > 0;) {
      if (l > 0) {
        dw[l] = MatMulTransA(outputs[l - 1], dz);
      } else {
        dw[0] = Matrix(x_train.cols(), dz.cols());
        SparseGemm(1.0, x_train, /*trans_a=*/true, dz, 0.0, &dw[0]);
      }
      db[l] = Matrix(1, dz.cols());
      for (std::size_t j = 0; j < dz.cols(); ++j) db[l](0, j) = ColSum(dz, j);
      if (l == 0) break;
      Matrix deriv;
      ActivationDerivFromOutput(options.hidden_activation, outputs[l - 1],
                                &deriv);
      dz = Hadamard(MatMulTransB(dz, mlp->weight(static_cast<int>(l))),
                    deriv);
    }
    adam.BeginStep();
    for (std::size_t l = 0; l < layer_count; ++l) {
      adam.Step(w_slot[l], dw[l], mlp->mutable_weight(static_cast<int>(l)));
      adam.Step(b_slot[l], db[l], mlp->mutable_bias(static_cast<int>(l)));
    }
    if (!labels_val.empty() &&
        (epoch % options.eval_every == 0 || epoch + 1 == options.epochs)) {
      forward(x_val, &outputs);
      const double acc = Accuracy(outputs.back(), labels_val, val_idx);
      if (acc > best_val) {
        best_val = acc;
        *best_epoch = epoch;
        best_w.clear();
        best_b.clear();
        for (std::size_t l = 0; l < layer_count; ++l) {
          best_w.push_back(mlp->weight(static_cast<int>(l)));
          best_b.push_back(mlp->bias(static_cast<int>(l)));
        }
      }
    }
  }
  if (best_val >= 0.0) {
    for (std::size_t l = 0; l < layer_count; ++l) {
      *mlp->mutable_weight(static_cast<int>(l)) = best_w[l];
      *mlp->mutable_bias(static_cast<int>(l)) = best_b[l];
    }
  }
  return loss;
}

// Mlp::Train against ReferenceTrain at the cora_ml encoder's shape (2879
// bag-of-words features, 140 training and 299 validation rows, a
// {2879, 32, 16, 7} tanh MLP), with and without validation: the loss and
// every weight and bias, the restored best ones included, must match bit
// for bit. Variant 1 starts W0 with a -0 and a value below 2^-511, so the
// first products redo their -0 sums densely; variant 2 puts a NaN in one
// training row, so dZ is not finite, Xᵀ·dZ takes the dense path, W0 turns
// NaN and every later X·W0 takes the dense path too.
TEST(Mlp, RestructuredTrainingMatchesReferenceLoopBitwise) {
  constexpr std::size_t kFeatures = 2879;
  constexpr std::size_t kTrain = 140;
  constexpr std::size_t kVal = 299;
  constexpr int kClasses = 7;
  Rng rng(47);
  Matrix x(kTrain + kVal, kFeatures);
  std::vector<int> labels(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    labels[i] = static_cast<int>(rng.UniformInt(kClasses));
    for (int t = 0; t < 30; ++t) {
      x(i, rng.UniformInt(kFeatures)) = rng.Uniform(0.5, 1.5);
    }
    // Features that tell the class, so validation accuracy improves.
    for (int t = 0; t < 4; ++t) {
      x(i, static_cast<std::size_t>(labels[i] * 40 + rng.UniformInt(40))) =
          1.0;
    }
  }
  std::vector<int> train_idx, val_idx;
  for (int i = 0; i < static_cast<int>(x.rows()); ++i) {
    (i < static_cast<int>(kTrain) ? train_idx : val_idx).push_back(i);
  }
  MlpOptions options;
  options.dims = {static_cast<int>(kFeatures), 32, 16, kClasses};
  options.hidden_activation = Activation::kTanh;
  options.epochs = 41;
  options.seed = 5;
  options.learning_rate = 0.05;
  for (int variant = 0; variant < 3; ++variant) {
    Matrix x_variant = x;
    if (variant == 2) {
      x_variant(3, 17) = std::numeric_limits<double>::quiet_NaN();
    }
    const CsrMatrix features = CsrMatrix::FromDense(x_variant);
    const CsrMatrix x_train = GatherRows(features, train_idx);
    const CsrMatrix x_val = GatherRows(features, val_idx);
    std::vector<int> labels_train, labels_val;
    for (int i : train_idx) labels_train.push_back(labels[i]);
    for (int i : val_idx) labels_val.push_back(labels[i]);
    for (bool validates : {true, false}) {
      SCOPED_TRACE("variant " + std::to_string(variant) + " validates " +
                   std::to_string(validates));
      Mlp mlp(options);
      if (variant == 1) {
        (*mlp.mutable_weight(0))(5, 3) = -0.0;
        (*mlp.mutable_weight(0))(7, 9) = 1e-300;
      }
      Mlp reference = mlp;
      const std::vector<int> no_rows;
      const double loss =
          mlp.Train(features, labels, train_idx, validates ? val_idx : no_rows);
      int best_epoch = -1;
      const double reference_loss = ReferenceTrain(
          &reference, x_train, labels_train, x_val,
          validates ? labels_val : no_rows, &best_epoch);
      if (variant == 0 && validates) {
        // Weights kept from the middle of training, not epoch 0's or the
        // last's: the snapshot must be taken between two updates.
        EXPECT_GT(best_epoch, 0);
        EXPECT_LT(best_epoch, options.epochs - 1);
      }
      if (variant == 2) {
        EXPECT_TRUE(std::isnan(mlp.weight(0)(0, 0)));
      }
      EXPECT_EQ(std::memcmp(&loss, &reference_loss, sizeof(double)), 0)
          << loss << " vs " << reference_loss;
      for (int l = 0; l < mlp.num_layers(); ++l) {
        EXPECT_TRUE(BitEqual(mlp.weight(l), reference.weight(l)))
            << "layer " << l;
        EXPECT_TRUE(BitEqual(mlp.bias(l), reference.bias(l))) << "layer " << l;
      }
    }
  }
}

// The dispatched Adam kernel (AVX2 where the CPU has it) against the scalar
// reference, 50 steps from the same state: every parameter and moment must
// match bit for bit, IEEE specials in the gradient included. The top-level
// call fans out over element blocks at the larger sizes (2879 x 32 is the
// encoder's W0; 4097 and 12291 end in a partial block and a partial lane);
// a third copy runs inside a pool job, where it is inline.
TEST(Adam, DispatchedStepMatchesScalarBitwise) {
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0,  -0.0, 4.9406564584124654e-324,
                             -1e-310, inf, -inf,
                             std::numeric_limits<double>::quiet_NaN()};
  for (std::size_t size : {0, 1, 3, 4, 5, 4097, 12291, 2879 * 32}) {
    for (double weight_decay : {0.0, 1e-5}) {
      SCOPED_TRACE("size " + std::to_string(size) + " weight decay " +
                   std::to_string(weight_decay));
      Rng rng(size + 17);
      std::vector<double> p(size), m(size, 0.0), v(size, 0.0), g(size);
      for (double& x : p) x = rng.Uniform(-1.0, 1.0);
      std::vector<double> p_ref = p, m_ref = m, v_ref = v;
      std::vector<double> p_in = p, m_in = m, v_in = v;
      for (int t = 1; t <= 50; ++t) {
        for (std::size_t k = 0; k < size; ++k) {
          // Specials are rare so most lanes stay finite for all 50 steps.
          g[k] = rng.Uniform(0.0, 1.0) < 0.002
                     ? specials[rng.UniformInt(std::size(specials))]
                     : rng.Uniform(-2.0, 2.0);
        }
        const internal::AdamCoefficients k{
            0.9, 0.999, 1.0 - std::pow(0.9, t), 1.0 - std::pow(0.999, t),
            0.01, 1e-8, weight_decay};
        internal::AdamUpdate(k, size, g.data(), p.data(), m.data(), v.data());
        internal::AdamUpdateScalar(k, size, g.data(), p_ref.data(),
                                   m_ref.data(), v_ref.data());
        InsidePoolJob([&] {
          internal::AdamUpdate(k, size, g.data(), p_in.data(), m_in.data(),
                               v_in.data());
        });
      }
      if (size == 0) continue;  // memcmp must not see null pointers
      const std::size_t bytes = size * sizeof(double);
      EXPECT_EQ(std::memcmp(p.data(), p_ref.data(), bytes), 0);
      EXPECT_EQ(std::memcmp(m.data(), m_ref.data(), bytes), 0);
      EXPECT_EQ(std::memcmp(v.data(), v_ref.data(), bytes), 0);
      EXPECT_EQ(std::memcmp(p.data(), p_in.data(), bytes), 0);
      EXPECT_EQ(std::memcmp(m.data(), m_in.data(), bytes), 0);
      EXPECT_EQ(std::memcmp(v.data(), v_in.data(), bytes), 0);
    }
  }
}

// Adam::StepRange over blocks of a tensor, as a gradient's fan-out runs it,
// gives the bits of Adam::Step on the whole tensor, and the flags it
// reports are those a scan of the updated values finds, here a value below
// 2^-511 throughout and a NaN from the fourth step on.
TEST(Adam, StepRangeMatchesStepAndReportsFlags) {
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(53);
  Matrix p(2879, 32);
  for (std::size_t k = 0; k < p.size(); ++k) p.data()[k] = rng.Uniform(-1, 1);
  // With no gradient, weight decay moves it by about 10x a step: it stays
  // below 2^-511 throughout.
  p.data()[100] = 1e-300;
  Matrix p_range = p;
  Adam::Options options;
  options.weight_decay = 1e-5;
  Adam whole(options);
  Adam ranges(options);
  const std::size_t slot = whole.Register(p);
  ranges.Register(p_range);
  Matrix g(p.rows(), p.cols());
  for (int t = 1; t <= 6; ++t) {
    for (std::size_t k = 0; k < g.size(); ++k) g.data()[k] = rng.Uniform(-2, 2);
    g.data()[100] = 0.0;
    if (t == 4) g.data()[7] = inf;  // p[7] turns NaN and stays so
    whole.BeginStep();
    ranges.BeginStep();
    whole.Step(slot, g, &p);
    internal::ValueFlags reported;
    for (std::size_t r0 = 0; r0 < p.rows(); r0 += 64) {
      const std::size_t r1 = std::min<std::size_t>(r0 + 64, p.rows());
      const internal::ValueFlags flags =
          ranges.StepRange(slot, g, &p_range, r0 * p.cols(), r1 * p.cols());
      reported.non_finite |= flags.non_finite;
      reported.tiny |= flags.tiny;
    }
    EXPECT_TRUE(BitEqual(p, p_range)) << "step " << t;
    const internal::ValueFlags scanned =
        internal::ScanValues(p.data(), p.size());
    EXPECT_EQ(reported.non_finite, scanned.non_finite) << "step " << t;
    EXPECT_EQ(reported.tiny, scanned.tiny) << "step " << t;
    EXPECT_TRUE(scanned.tiny) << "step " << t;
    EXPECT_EQ(scanned.non_finite, t >= 4) << "step " << t;
    // The reference loop reports the same flags for what it writes.
    std::vector<double> q(p.data(), p.data() + 13), m(13), v(13);
    internal::ValueFlags scalar;
    internal::AdamUpdateScalar({0.9, 0.999, 0.1, 0.001, 0.01, 1e-8, 1e-5}, 13,
                               g.data(), q.data(), m.data(), v.data(),
                               &scalar);
    const internal::ValueFlags want = internal::ScanValues(q.data(), 13);
    EXPECT_EQ(scalar.non_finite, want.non_finite);
    EXPECT_EQ(scalar.tiny, want.tiny);
  }
}

// Both activation loops at the top level (fanned out over element blocks
// above the cutoff) against a plain loop and against the same call inside
// a pool job, on 2100 x 33 (above the cutoff for every activation and for
// the derivative) and 7 x 5 (below it).
TEST(KernelTier, ActivationsMatchInlineBitwise) {
  Rng rng(41);
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{2100, 33}, {7, 5}}) {
    Matrix x(rows, cols);
    for (std::size_t k = 0; k < x.size(); ++k) {
      x.data()[k] = rng.Uniform(-4.0, 4.0);
    }
    for (Activation act : {Activation::kIdentity, Activation::kRelu,
                           Activation::kTanh, Activation::kSigmoid}) {
      Matrix want = x;
      for (std::size_t k = 0; k < want.size(); ++k) {
        double& v = want.data()[k];
        if (act == Activation::kRelu && v < 0.0) v = 0.0;
        if (act == Activation::kTanh) v = std::tanh(v);
        if (act == Activation::kSigmoid) v = 1.0 / (1.0 + std::exp(-v));
      }
      Matrix top = x;
      ApplyActivationInPlace(act, &top);
      Matrix inline_out = x;
      InsidePoolJob([&] { ApplyActivationInPlace(act, &inline_out); });
      EXPECT_TRUE(BitEqual(top, want)) << rows << "x" << cols;
      EXPECT_TRUE(BitEqual(top, inline_out)) << rows << "x" << cols;

      Matrix deriv_want(rows, cols);
      for (std::size_t k = 0; k < top.size(); ++k) {
        const double o = top.data()[k];
        double& d = deriv_want.data()[k];
        switch (act) {
          case Activation::kIdentity: d = 1.0; break;
          case Activation::kRelu: d = o > 0.0 ? 1.0 : 0.0; break;
          case Activation::kTanh: d = 1.0 - o * o; break;
          case Activation::kSigmoid: d = o * (1.0 - o); break;
        }
      }
      Matrix deriv, deriv_inline;
      ActivationDerivFromOutput(act, top, &deriv);
      InsidePoolJob([&] { ActivationDerivFromOutput(act, top, &deriv_inline); });
      EXPECT_TRUE(BitEqual(deriv, deriv_want)) << rows << "x" << cols;
      EXPECT_TRUE(BitEqual(deriv, deriv_inline)) << rows << "x" << cols;
    }
  }
}

// Training on a CSR input with every encoder kernel fanned out (CSR X·W0
// and Xᵀ·dZ over two k-slabs, Adam on W0, tanh) gives the same weights, bit
// for bit, as the same training inside a pool job, where it all runs inline.
TEST(KernelTier, MlpTrainOnCsrMatchesInlineBitwise) {
  Rng rng(43);
  const std::size_t n = 600;
  const std::size_t d = 3000;
  Matrix x_dense(n, d);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(i % 5);
    for (std::size_t j = 0; j < d; ++j) {
      if (rng.Uniform(0.0, 1.0) < 0.01) x_dense(i, j) = rng.Uniform(0.0, 1.0);
    }
    // A feature that tells the class, so training has something to learn.
    x_dense(i, static_cast<std::size_t>(labels[i])) = 1.0;
  }
  const CsrMatrix x = CsrMatrix::FromDense(x_dense);
  std::vector<int> train_idx, val_idx;
  for (int i = 0; i < static_cast<int>(n); ++i) {
    (i < 400 ? train_idx : val_idx).push_back(i);
  }
  MlpOptions options;
  options.dims = {static_cast<int>(d), 32, 16, 5};
  options.hidden_activation = Activation::kTanh;
  options.epochs = 12;
  options.seed = 3;
  Mlp top(options);
  const double top_loss = top.Train(x, labels, train_idx, val_idx);
  Mlp inline_mlp(options);
  double inline_loss = 0.0;
  InsidePoolJob(
      [&] { inline_loss = inline_mlp.Train(x, labels, train_idx, val_idx); });
  EXPECT_EQ(std::memcmp(&top_loss, &inline_loss, sizeof(double)), 0);
  for (int l = 0; l < top.num_layers(); ++l) {
    EXPECT_TRUE(BitEqual(top.weight(l), inline_mlp.weight(l))) << "layer " << l;
    EXPECT_TRUE(BitEqual(top.bias(l), inline_mlp.bias(l))) << "layer " << l;
  }
  // The dense form of the same input takes the same CSR path.
  Mlp dense_input(options);
  dense_input.Train(x_dense, labels, train_idx, val_idx);
  EXPECT_TRUE(BitEqual(top.weight(0), dense_input.weight(0)));
}

}  // namespace
}  // namespace gcon
