#include "baselines/dpsgd_gcn.h"

#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "dp/rdp_accountant.h"
#include "linalg/ops.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "propagation/cache.h"
#include "rng/rng.h"

namespace gcon {

Matrix TrainDpsgdGcnAndPredict(const Graph& graph, const Split& split,
                               double epsilon, double delta,
                               const DpsgdOptions& options) {
  GCON_CHECK(!split.train.empty());
  GCON_CHECK_GT(options.clip, 0.0);

  // Aggregated features S = Ã X (constant; 1-layer SGC). The CachedCsr
  // keeps the matrix alive — it may be the sole owner (cache disabled).
  const PropagationCache::CachedCsr cached_transition =
      PropagationCache::Global().Transition(graph);
  const Matrix s =
      cached_transition.csr->Multiply(graph.features().ToDense());
  const int c = graph.num_classes();
  const std::size_t d = s.cols();

  // Noise multiplier from the RDP accountant; sensitivity 2τ per step.
  const double sigma = DpSgdSigma(epsilon, delta, options.sample_rate,
                                  options.steps);
  const double noise_std = sigma * 2.0 * options.clip;
  GCON_LOG(DEBUG) << "DP-SGD: sigma=" << sigma << " noise_std=" << noise_std;

  Matrix w(d, static_cast<std::size_t>(c));
  Adam::Options adam_options;
  adam_options.learning_rate = options.learning_rate;
  Adam adam(adam_options);
  const std::size_t w_slot = adam.Register(w);

  Rng rng(options.seed + 0xD5);
  const double expected_batch =
      options.sample_rate * static_cast<double>(split.train.size());

  for (int step = 0; step < options.steps; ++step) {
    // Poisson sampling of the training nodes.
    std::vector<int> batch;
    for (int v : split.train) {
      if (rng.Bernoulli(options.sample_rate)) batch.push_back(v);
    }
    Matrix grad(d, static_cast<std::size_t>(c));
    if (!batch.empty()) {
      // Per-node gradient of CE(softmax(s_i W), y_i) w.r.t. W is the outer
      // product s_i (p_i - y_i)^T with Frobenius norm ||s_i|| * ||p_i - y_i||;
      // clip each to τ and sum. The clipped sum is Σ κ_i s_i (p_i - y_i)^T,
      // computed as (κ ⊙ S_batch)^T (P - Y).
      const Matrix s_batch = GatherRows(s, batch);
      const Matrix logits = MatMul(s_batch, w);
      const Matrix probs = Softmax(logits);
      Matrix residual = probs;  // p_i - y_i
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const int y = graph.label(batch[i]);
        residual(i, static_cast<std::size_t>(y)) -= 1.0;
      }
      Matrix scaled = s_batch;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const double grad_norm = RowNorm2(s_batch, i) * RowNorm2(residual, i);
        const double kappa =
            grad_norm > options.clip ? options.clip / grad_norm : 1.0;
        double* row = scaled.RowPtr(i);
        for (std::size_t j = 0; j < d; ++j) row[j] *= kappa;
      }
      grad = MatMulTransA(scaled, residual);
    }
    // Gaussian noise on the summed gradient, then mean normalization.
    for (std::size_t k = 0; k < grad.size(); ++k) {
      grad.data()[k] += rng.Normal(0.0, noise_std);
    }
    ScaleInPlace(1.0 / expected_batch, &grad);
    adam.BeginStep();
    adam.Step(w_slot, grad, &w);
  }
  return MatMul(s, w);
}

}  // namespace gcon
