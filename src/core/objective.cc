#include "core/objective.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "linalg/gemm_kernels.h"
#include "linalg/ops.h"
#include "nn/optim.h"

namespace gcon {

PerturbedObjective::PerturbedObjective(const Matrix* z, const Matrix* y,
                                       const ConvexLoss* loss,
                                       double lambda_total,
                                       const Matrix* noise)
    : z_(z), y_(y), loss_(loss), lambda_total_(lambda_total), noise_(noise) {
  GCON_CHECK_EQ(z_->rows(), y_->rows());
  GCON_CHECK_EQ(noise_->rows(), z_->cols());
  GCON_CHECK_EQ(noise_->cols(), y_->cols());
  GCON_CHECK_GT(lambda_total_, 0.0);
  GCON_CHECK_GT(z_->rows(), 0u);
}

namespace {

// The element pass runs on fixed blocks of score rows. Its per-entry cost
// in streaming multiply-adds (linalg/gemm_kernels.h): an exp, a log1p and
// two divides, about 20 ns on a 4-vCPU AVX2 host. So a CLI-sized n1 of
// 60-140 rows stays inline and the sweep's n1 = n fans out.
constexpr std::size_t kPassRows = 256;
constexpr std::uint64_t kPassWorkPerEntry = 40;

// Resizes only on a shape change, so a reused workspace never reallocates.
void EnsureShape(std::size_t rows, std::size_t cols, Matrix* m) {
  if (m->rows() != rows || m->cols() != cols) m->Resize(rows, cols);
}

}  // namespace

double PerturbedObjective::Value(const Matrix& theta,
                                 Workspace* workspace) const {
  return Evaluate(theta, nullptr, workspace);
}

double PerturbedObjective::ValueAndGradient(const Matrix& theta, Matrix* grad,
                                            Workspace* workspace) const {
  return Evaluate(theta, grad, workspace);
}

double PerturbedObjective::Evaluate(const Matrix& theta, Matrix* grad,
                                    Workspace* workspace) const {
  GCON_CHECK_EQ(theta.rows(), z_->cols());
  GCON_CHECK_EQ(theta.cols(), y_->cols());
  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;
  const std::size_t n1 = z_->rows();
  const std::size_t c = y_->cols();
  EnsureShape(n1, c, &ws.scores);
  Gemm(1.0, *z_, theta, 0.0, &ws.scores);  // n1 x c scores
  double* dscores = nullptr;
  if (grad != nullptr) {
    EnsureShape(n1, c, &ws.dscores);
    dscores = ws.dscores.data();
  }
  double* scores = ws.scores.data();
  const double* y = y_->data();
  internal::KernelForRanges(
      n1, kPassRows, kPassWorkPerEntry * n1 * c,
      [&](std::size_t i0, std::size_t i1) {
        double* d1 = dscores != nullptr ? dscores + i0 * c : nullptr;
        loss_->ValueAndD1InPlace(scores + i0 * c, y + i0 * c, d1,
                                 (i1 - i0) * c);
      });
  double loss_sum = 0.0;  // row-major, independent of the block count
  for (std::size_t k = 0; k < n1 * c; ++k) loss_sum += scores[k];

  const double inv_n1 = 1.0 / static_cast<double>(n1);
  if (grad != nullptr) {
    // grad = (1/n1) Z^T dscores + Λ_total Θ + (1/n1) B.
    *grad = MatMulTransA(*z_, ws.dscores);
    ScaleInPlace(inv_n1, grad);
    AxpyInPlace(lambda_total_, theta, grad);
    AxpyInPlace(inv_n1, *noise_, grad);
  }
  const double frob = FrobeniusNorm(theta);
  return inv_n1 * loss_sum + 0.5 * lambda_total_ * frob * frob +
         inv_n1 * DotAll(*noise_, theta);
}

MinimizeResult Minimize(const PerturbedObjective& objective,
                        const MinimizeOptions& options) {
  switch (options.minimizer) {
    case Minimizer::kAdam:
      return MinimizeAdam(objective, options);
    case Minimizer::kLbfgs:
      return MinimizeLbfgs(objective, options);
    case Minimizer::kGradientDescent:
      return MinimizeGradientDescent(objective, options);
  }
  return MinimizeAdam(objective, options);
}

MinimizeResult MinimizeAdam(const PerturbedObjective& objective,
                            const MinimizeOptions& options) {
  MinimizeResult result;
  result.theta.Resize(objective.dim(), objective.num_classes());
  Adam::Options adam_options;
  adam_options.learning_rate = options.learning_rate;
  Adam adam(adam_options);
  const std::size_t slot = adam.Register(result.theta);
  PerturbedObjective::Workspace workspace;
  Matrix grad;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.objective_value =
        objective.ValueAndGradient(result.theta, &grad, &workspace);
    result.gradient_norm = FrobeniusNorm(grad);
    result.iterations = iter + 1;
    if (result.gradient_norm < options.gradient_tolerance) break;
    adam.BeginStep();
    adam.Step(slot, grad, &result.theta);
  }
  return result;
}

MinimizeResult MinimizeLbfgs(const PerturbedObjective& objective,
                             const MinimizeOptions& options) {
  constexpr int kHistory = 10;
  MinimizeResult result;
  result.theta.Resize(objective.dim(), objective.num_classes());
  PerturbedObjective::Workspace workspace;
  Matrix grad;
  double value = objective.ValueAndGradient(result.theta, &grad, &workspace);

  // Curvature history: s_k = x_{k+1} - x_k, y_k = g_{k+1} - g_k.
  std::vector<Matrix> s_hist, y_hist;
  std::vector<double> rho_hist;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.objective_value = value;
    result.gradient_norm = FrobeniusNorm(grad);
    result.iterations = iter + 1;
    if (result.gradient_norm < options.gradient_tolerance) break;

    // Two-loop recursion: direction = -H_k * grad.
    Matrix q = grad;
    std::vector<double> alpha_coef(s_hist.size());
    for (std::size_t i = s_hist.size(); i-- > 0;) {
      alpha_coef[i] = rho_hist[i] * DotAll(s_hist[i], q);
      AxpyInPlace(-alpha_coef[i], y_hist[i], &q);
    }
    if (!s_hist.empty()) {
      // Initial Hessian scaling gamma = <s,y>/<y,y> of the latest pair.
      const Matrix& s_last = s_hist.back();
      const Matrix& y_last = y_hist.back();
      const double gamma = DotAll(s_last, y_last) / DotAll(y_last, y_last);
      ScaleInPlace(gamma, &q);
    }
    for (std::size_t i = 0; i < s_hist.size(); ++i) {
      const double beta = rho_hist[i] * DotAll(y_hist[i], q);
      AxpyInPlace(alpha_coef[i] - beta, s_hist[i], &q);
    }
    // q now approximates H*grad; descend along -q (safeguarded: fall back
    // to steepest descent if the curvature estimate went bad).
    if (DotAll(grad, q) <= 0.0) {
      q = grad;
    }

    // Armijo backtracking on F(x - t q). The first trial, t = 1, is almost
    // always accepted, so it is evaluated with its gradient; halvings are
    // value-only, and an accepted halving is evaluated again for its
    // gradient. ValueAndGradient returns Value's bits, so each acceptance
    // decision is the one a value-only search makes.
    const double slope = DotAll(grad, q);
    double step = 1.0;
    Matrix trial = result.theta;
    AxpyInPlace(-step, q, &trial);
    Matrix new_grad;
    double new_value = objective.ValueAndGradient(trial, &new_grad, &workspace);
    if (!(new_value <= value - 1e-4 * step * slope)) {
      for (int bt = 1; bt < 60; ++bt) {
        step *= 0.5;
        trial = result.theta;
        AxpyInPlace(-step, q, &trial);
        if (objective.Value(trial, &workspace) <=
            value - 1e-4 * step * slope) {
          break;
        }
      }
      new_value = objective.ValueAndGradient(trial, &new_grad, &workspace);
    }

    Matrix s_k = Sub(trial, result.theta);
    Matrix y_k = Sub(new_grad, grad);
    const double sy = DotAll(s_k, y_k);
    if (sy > 1e-14) {  // keep the inverse-Hessian estimate positive definite
      s_hist.push_back(std::move(s_k));
      y_hist.push_back(std::move(y_k));
      rho_hist.push_back(1.0 / sy);
      if (static_cast<int>(s_hist.size()) > kHistory) {
        s_hist.erase(s_hist.begin());
        y_hist.erase(y_hist.begin());
        rho_hist.erase(rho_hist.begin());
      }
    }
    result.theta = std::move(trial);
    grad = std::move(new_grad);
    value = new_value;
  }
  result.objective_value = value;
  result.gradient_norm = FrobeniusNorm(grad);
  return result;
}

MinimizeResult MinimizeGradientDescent(const PerturbedObjective& objective,
                                       const MinimizeOptions& options) {
  MinimizeResult result;
  result.theta.Resize(objective.dim(), objective.num_classes());
  PerturbedObjective::Workspace workspace;
  Matrix grad;
  double value = objective.ValueAndGradient(result.theta, &grad, &workspace);
  double step = options.learning_rate;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.objective_value = value;
    result.gradient_norm = FrobeniusNorm(grad);
    result.iterations = iter + 1;
    if (result.gradient_norm < options.gradient_tolerance) break;
    // Backtracking (Armijo): shrink until sufficient decrease.
    const double grad_sq = result.gradient_norm * result.gradient_norm;
    double trial_step = step;
    Matrix trial;
    double trial_value = 0.0;
    for (int bt = 0; bt < 60; ++bt) {
      trial = result.theta;
      AxpyInPlace(-trial_step, grad, &trial);
      trial_value = objective.Value(trial, &workspace);
      if (trial_value <= value - 0.5 * trial_step * grad_sq) break;
      trial_step *= 0.5;
    }
    result.theta = std::move(trial);
    // Allow the step to grow back (adaptive): halved steps stay sticky
    // otherwise and convergence stalls on well-conditioned problems.
    step = trial_step * 2.0;
    value = objective.ValueAndGradient(result.theta, &grad, &workspace);
  }
  result.objective_value = value;
  result.gradient_norm = FrobeniusNorm(grad);
  return result;
}

}  // namespace gcon
