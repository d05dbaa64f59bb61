#include "baselines/gcn.h"

#include <cmath>

#include "common/check.h"
#include "linalg/ops.h"
#include "nn/activations.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/optim.h"
#include "propagation/cache.h"

namespace gcon {

CsrMatrix SymmetricNormalizedAdjacency(const Graph& graph) {
  const std::size_t n = static_cast<std::size_t>(graph.num_nodes());
  std::vector<double> inv_sqrt_deg(n);
  for (int v = 0; v < graph.num_nodes(); ++v) {
    inv_sqrt_deg[static_cast<std::size_t>(v)] =
        1.0 / std::sqrt(static_cast<double>(graph.Degree(v)) + 1.0);
  }
  CooBuilder builder(n, n);
  builder.Reserve(2 * graph.num_edges() + n);
  for (int i = 0; i < graph.num_nodes(); ++i) {
    const double di = inv_sqrt_deg[static_cast<std::size_t>(i)];
    builder.Add(static_cast<std::size_t>(i), static_cast<std::size_t>(i),
                di * di);
    for (int j : graph.Neighbors(i)) {
      builder.Add(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                  di * inv_sqrt_deg[static_cast<std::size_t>(j)]);
    }
  }
  return builder.Build();
}

Matrix TrainGcnAndPredict(const Graph& graph, const Split& split,
                          const GcnOptions& options) {
  GCON_CHECK(!split.train.empty());
  GCON_CHECK_GE(options.eval_every, 1) << "validation needs a period >= 1";
  // Memoized through the generic cache hook: GCN repeats on the same graph
  // hit; DPGCN's per-(seed, epsilon) perturbed graphs mostly miss and age
  // out of the LRU — correctness is by fingerprint either way. Hold the
  // CachedCsr (not a copy, not a bare reference): it shares ownership with
  // the cache and may be the sole owner when the cache is disabled.
  const PropagationCache::CachedCsr cached_adj =
      PropagationCache::Global().Csr(
          "sym_norm_adj", FingerprintGraph(graph),
          [&] { return SymmetricNormalizedAdjacency(graph); });
  const CsrMatrix& adj = *cached_adj.csr;
  const Matrix x = graph.features().ToDense();
  const int c = graph.num_classes();

  // Layer parameters.
  Matrix w1(static_cast<std::size_t>(graph.feature_dim()),
            static_cast<std::size_t>(options.hidden));
  Matrix b1(1, static_cast<std::size_t>(options.hidden));
  Matrix w2(static_cast<std::size_t>(options.hidden),
            static_cast<std::size_t>(c));
  Matrix b2(1, static_cast<std::size_t>(c));
  GlorotInit(&w1, options.seed + 11);
  GlorotInit(&w2, options.seed + 23);

  // S = Â X is constant across epochs — precompute.
  const Matrix s = adj.Multiply(x);

  Adam::Options adam_options;
  adam_options.learning_rate = options.learning_rate;
  adam_options.weight_decay = options.weight_decay;
  Adam adam(adam_options);
  const std::size_t w1_slot = adam.Register(w1);
  const std::size_t b1_slot = adam.Register(b1);
  const std::size_t w2_slot = adam.Register(w2);
  const std::size_t b2_slot = adam.Register(b2);

  auto forward = [&](Matrix* hidden_out) -> Matrix {
    Matrix h = MatMul(s, w1);
    for (std::size_t i = 0; i < h.rows(); ++i) {
      double* row = h.RowPtr(i);
      for (std::size_t j = 0; j < h.cols(); ++j) row[j] += b1(0, j);
    }
    ApplyActivationInPlace(Activation::kRelu, &h);
    Matrix s2 = adj.Multiply(h);
    Matrix logits = MatMul(s2, w2);
    for (std::size_t i = 0; i < logits.rows(); ++i) {
      double* row = logits.RowPtr(i);
      for (std::size_t j = 0; j < logits.cols(); ++j) row[j] += b2(0, j);
    }
    if (hidden_out != nullptr) *hidden_out = std::move(h);
    return logits;
  };

  double best_val = -1.0;
  Matrix best_w1 = w1, best_b1 = b1, best_w2 = w2, best_b2 = b2;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    Matrix h;
    const Matrix logits = forward(&h);
    Matrix dlogits;
    SoftmaxCrossEntropy(logits, graph.labels(), split.train, &dlogits);

    // Backward. logits = Â h W2 + b2; Â is symmetric.
    const Matrix da_dlogits = adj.Multiply(dlogits);  // Âᵀ dlogits = Â dlogits
    const Matrix s2 = adj.Multiply(h);
    Matrix dw2 = MatMulTransA(s2, dlogits);
    Matrix db2(1, dlogits.cols());
    for (std::size_t j = 0; j < dlogits.cols(); ++j) {
      db2(0, j) = ColSum(dlogits, j);
    }
    Matrix dh = MatMulTransB(da_dlogits, w2);
    Matrix relu_mask;
    ActivationDerivFromOutput(Activation::kRelu, h, &relu_mask);
    dh = Hadamard(dh, relu_mask);
    Matrix dw1 = MatMulTransA(s, dh);
    Matrix db1(1, dh.cols());
    for (std::size_t j = 0; j < dh.cols(); ++j) {
      db1(0, j) = ColSum(dh, j);
    }

    adam.BeginStep();
    adam.Step(w1_slot, dw1, &w1);
    adam.Step(b1_slot, db1, &b1);
    adam.Step(w2_slot, dw2, &w2);
    adam.Step(b2_slot, db2, &b2);

    if (!split.val.empty() &&
        (epoch % options.eval_every == 0 || epoch + 1 == options.epochs)) {
      const Matrix val_logits = forward(nullptr);
      const double acc = Accuracy(val_logits, graph.labels(), split.val);
      if (acc > best_val) {
        best_val = acc;
        best_w1 = w1;
        best_b1 = b1;
        best_w2 = w2;
        best_b2 = b2;
      }
    }
  }
  if (!split.val.empty() && best_val >= 0.0) {
    w1 = std::move(best_w1);
    b1 = std::move(best_b1);
    w2 = std::move(best_w2);
    b2 = std::move(best_b2);
  }
  return forward(nullptr);
}

}  // namespace gcon
