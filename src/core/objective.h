// The perturbed training objective L_priv (Eq. (13)) and its minimizers.
//
//   L_priv(Θ) = (1/n1) Σ_i Σ_j ℓ(z_i^T θ_j; y_ij)
//             + (Λ̄/2) ||Θ||_F² + (1/n1) B ⊙ Θ + (Λ′/2) ||Θ||_F²
//
// The objective is (Λ̄+Λ′)-strongly convex and smooth, so any first-order
// method converges to the unique minimizer; per the paper's remark after
// Theorem 1, the optimizer choice does not affect privacy. Three minimizers
// are provided: L-BFGS (what gcon_cli and the ε sweep run), full-batch Adam
// (the paper's choice) and gradient descent with backtracking.
//
// Cost model of one evaluation (n1 x d features Z, c classes):
//   * one Z·Θ GEMM (n1 x c scores);
//   * one element pass over the n1·c scores: ℓ written over each score in
//     place and, for a gradient, ℓ' into dS, from one exp(-|x|) per entry
//     (soft margin) or one sqrt (Pseudo-Huber). The pass runs on fixed row
//     blocks, inline below the kernel tier's work cutoff (the CLI's n1 of
//     60-140 rows) and across every core above it (the sweep's n1 = n);
//     the ℓ values are then summed in row-major order, so the value's bits
//     do not depend on the block count;
//   * for a gradient, one Zᵀ·dS GEMM.
// L-BFGS evaluates value and gradient together at the first Armijo trial,
// which is almost always accepted, so an accepted step costs one
// evaluation. Scores and dS live in a Workspace the minimizer keeps across
// its evaluations.
#ifndef GCON_CORE_OBJECTIVE_H_
#define GCON_CORE_OBJECTIVE_H_

#include "core/convex_loss.h"
#include "linalg/matrix.h"

namespace gcon {

class PerturbedObjective {
 public:
  /// `z`: training features (n1 x d), `y`: one-hot targets (n1 x c) with
  /// entries in {0,1}, `noise`: B (d x c), `lambda_total`: Λ̄ + Λ′.
  /// All matrices are borrowed; they must outlive the objective.
  PerturbedObjective(const Matrix* z, const Matrix* y, const ConvexLoss* loss,
                     double lambda_total, const Matrix* noise);

  /// Scratch of one evaluation: the n1 x c scores (overwritten by ℓ) and
  /// dS = ℓ'. Reusing one across evaluations keeps them from allocating;
  /// a null workspace means a fresh one per call.
  struct Workspace {
    Matrix scores;
    Matrix dscores;
  };

  double Value(const Matrix& theta, Workspace* workspace = nullptr) const;

  /// Writes the full gradient into `grad` (resized to d x c) and returns
  /// the objective value, bitwise equal to Value(theta).
  double ValueAndGradient(const Matrix& theta, Matrix* grad,
                          Workspace* workspace = nullptr) const;

  std::size_t dim() const { return z_->cols(); }
  std::size_t num_classes() const { return y_->cols(); }
  std::size_t n1() const { return z_->rows(); }
  double lambda_total() const { return lambda_total_; }

 private:
  /// The one evaluation body: the gradient too when `grad` is non-null.
  double Evaluate(const Matrix& theta, Matrix* grad,
                  Workspace* workspace) const;

  const Matrix* z_;
  const Matrix* y_;
  const ConvexLoss* loss_;
  double lambda_total_;
  const Matrix* noise_;
};

enum class Minimizer {
  kAdam,             // the paper's choice
  kLbfgs,            // much faster on this smooth strongly convex problem
  kGradientDescent,  // simplest; used by tests
};

struct MinimizeOptions {
  Minimizer minimizer = Minimizer::kAdam;
  int max_iterations = 2000;
  double learning_rate = 0.05;
  /// Stop when ||grad||_F falls below this.
  double gradient_tolerance = 1e-7;
};

struct MinimizeResult {
  Matrix theta;
  double objective_value = 0.0;
  double gradient_norm = 0.0;
  int iterations = 0;
};

/// Full-batch Adam from the zero matrix (Eq. (15)).
MinimizeResult MinimizeAdam(const PerturbedObjective& objective,
                            const MinimizeOptions& options);

/// Deterministic gradient descent with backtracking (Armijo) line search;
/// slower but exactly reproducible, used by tests.
MinimizeResult MinimizeGradientDescent(const PerturbedObjective& objective,
                                       const MinimizeOptions& options);

/// Limited-memory BFGS (two-loop recursion, history 10) with Armijo
/// backtracking. On this smooth strongly convex objective it typically
/// reaches tolerance in 5-20x fewer iterations than Adam; deterministic.
/// One evaluation per step whose first trial is accepted.
MinimizeResult MinimizeLbfgs(const PerturbedObjective& objective,
                             const MinimizeOptions& options);

/// Dispatches on options.minimizer. All three converge to the same unique
/// minimizer (strong convexity); the choice does not affect the privacy
/// guarantee (Theorem 1's remark).
MinimizeResult Minimize(const PerturbedObjective& objective,
                        const MinimizeOptions& options);

}  // namespace gcon

#endif  // GCON_CORE_OBJECTIVE_H_
