#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/noise.h"
#include "core/objective.h"
#include "linalg/ops.h"
#include "rng/rng.h"

namespace gcon {
namespace {

struct Problem {
  Matrix z;
  Matrix y;
  Matrix noise;
  ConvexLoss loss = ConvexLoss::MultiLabelSoftMargin(3);
};

Problem MakeProblem(std::uint64_t seed, int n1 = 40, int d = 6, int c = 3) {
  Rng rng(seed);
  Problem p;
  p.z.Resize(static_cast<std::size_t>(n1), static_cast<std::size_t>(d));
  for (std::size_t k = 0; k < p.z.size(); ++k) {
    p.z.data()[k] = rng.Uniform(-1.0, 1.0);
  }
  RowL2NormalizeInPlace(&p.z);
  p.y.Resize(static_cast<std::size_t>(n1), static_cast<std::size_t>(c));
  for (int i = 0; i < n1; ++i) {
    p.y(static_cast<std::size_t>(i),
        rng.UniformInt(static_cast<std::uint64_t>(c))) = 1.0;
  }
  p.noise = SampleNoiseMatrix(d, c, 2.0, &rng);
  p.loss = ConvexLoss::MultiLabelSoftMargin(c);
  return p;
}

// L_priv from the scalar loss API: MatMul, ConvexLoss::Value / D1 entry by
// entry with a row-major sum, MatMulTransA. The objective's fused pass must
// reproduce every bit of it.
double ReferenceValueAndGradient(const Problem& p, double lambda_total,
                                 const Matrix& theta, Matrix* grad) {
  const Matrix scores = MatMul(p.z, theta);
  Matrix dscores(scores.rows(), scores.cols());
  double loss_sum = 0.0;
  for (std::size_t i = 0; i < scores.rows(); ++i) {
    for (std::size_t j = 0; j < scores.cols(); ++j) {
      loss_sum += p.loss.Value(scores(i, j), p.y(i, j));
      dscores(i, j) = p.loss.D1(scores(i, j), p.y(i, j));
    }
  }
  const double inv_n1 = 1.0 / static_cast<double>(p.z.rows());
  *grad = MatMulTransA(p.z, dscores);
  ScaleInPlace(inv_n1, grad);
  AxpyInPlace(lambda_total, theta, grad);
  AxpyInPlace(inv_n1, p.noise, grad);
  const double frob = FrobeniusNorm(theta);
  return inv_n1 * loss_sum + 0.5 * lambda_total * frob * frob +
         inv_n1 * DotAll(p.noise, theta);
}

// Same bytes, or both NaN (IEEE leaves a NaN's sign and payload to the
// operand order the compiler picks).
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0 ||
         (std::isnan(a) && std::isnan(b));
}

bool SameBits(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (!SameBits(a.data()[k], b.data()[k])) return false;
  }
  return true;
}

// Scores for class 0 of the first rows. -0 is left out: the GEMM's
// accumulators start at +0, so Z·Θ never yields it (convex_loss_test feeds
// it to the pass directly).
std::vector<double> SpecialScores(bool non_finite) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> xs = {0.0};
  for (double m : {1e-300, 37.0, 745.0, 800.0}) {
    xs.push_back(m);
    xs.push_back(-m);
  }
  if (non_finite) {
    for (double x : {inf, -inf, nan}) xs.push_back(x);
  }
  return xs;
}

// A c-class problem whose class-0 scores under Θ = I (d = c) are exactly
// Z's column 0: one row per (special score, target) pair puts the score in
// class 0 with y_0 = 0 or 1, and the other rows carry scores of every
// magnitude up to 50, so a sum taken in any order but row-major changes
// bits.
Problem MakeSpecialProblem(int n1, int c, bool non_finite, bool huber) {
  Problem p = MakeProblem(static_cast<std::uint64_t>(n1), n1, c, c);
  if (huber) p.loss = ConvexLoss::PseudoHuber(c, 0.2);
  Rng rng(static_cast<std::uint64_t>(n1) + 1);
  for (std::size_t k = 0; k < p.z.size(); ++k) {
    p.z.data()[k] *= rng.Uniform(0.0, 50.0);
  }
  std::size_t row = 0;
  for (double x : SpecialScores(non_finite)) {
    for (double y0 : {0.0, 1.0}) {
      double* z = p.z.RowPtr(row);
      double* y = p.y.RowPtr(row);
      for (int j = 0; j < c; ++j) {
        z[j] = 0.5;
        y[j] = 0.0;
      }
      z[0] = x;
      y[y0 == 1.0 ? 0 : 1] = 1.0;
      ++row;
    }
  }
  return p;
}

TEST(Objective, FusedPassMatchesScalarReferenceBitwise) {
  // n1 = 40 runs the element pass inline; n1 = 2400 fans it out over row
  // blocks. Value and gradient must keep every bit of the scalar reference
  // either way, for both losses and for non-finite scores too.
  for (const bool huber : {false, true}) {
    for (const int n1 : {40, 2400}) {
      for (const bool non_finite : {false, true}) {
        const int c = 3;
        const Problem p = MakeSpecialProblem(n1, c, non_finite, huber);
        const double lambda_total = 0.3;
        const PerturbedObjective objective(&p.z, &p.y, &p.loss, lambda_total,
                                           &p.noise);
        Matrix theta(p.z.cols(), p.y.cols());
        for (std::size_t j = 0; j < theta.rows(); ++j) theta(j, j) = 1.0;
        // Θ = I puts each special score in class 0 of its row unchanged.
        const Matrix scores = MatMul(p.z, theta);
        const std::size_t special_rows = 2 * SpecialScores(non_finite).size();
        for (std::size_t i = 0; i < special_rows; ++i) {
          EXPECT_TRUE(SameBits(scores(i, 0), p.z(i, 0)))
              << "row " << i << ": " << scores(i, 0) << " vs " << p.z(i, 0);
        }

        Matrix ref_grad;
        const double ref_value =
            ReferenceValueAndGradient(p, lambda_total, theta, &ref_grad);
        if (!non_finite) {
          ASSERT_TRUE(std::isfinite(ref_value));
        }
        PerturbedObjective::Workspace workspace;
        Matrix grad;
        const double value =
            objective.ValueAndGradient(theta, &grad, &workspace);
        const std::string where = std::string(huber ? "huber" : "soft") +
                                  " n1=" + std::to_string(n1) +
                                  (non_finite ? " non-finite" : "");
        EXPECT_TRUE(SameBits(value, ref_value)) << where;
        EXPECT_TRUE(SameBits(grad, ref_grad)) << where;
        // Value-only, with the workspace reused and without one.
        EXPECT_TRUE(SameBits(objective.Value(theta, &workspace), ref_value))
            << where;
        EXPECT_TRUE(SameBits(objective.Value(theta), ref_value)) << where;
      }
    }
  }
}

TEST(Objective, GradientMatchesFiniteDifference) {
  const Problem p = MakeProblem(1);
  const PerturbedObjective objective(&p.z, &p.y, &p.loss, 0.3, &p.noise);
  Rng rng(2);
  Matrix theta(p.z.cols(), p.y.cols());
  for (std::size_t k = 0; k < theta.size(); ++k) {
    theta.data()[k] = rng.Uniform(-0.5, 0.5);
  }
  Matrix grad;
  const double value = objective.ValueAndGradient(theta, &grad);
  EXPECT_NEAR(value, objective.Value(theta), 1e-12);
  const double h = 1e-6;
  for (std::size_t k = 0; k < theta.size(); ++k) {
    Matrix lo = theta, hi = theta;
    lo.data()[k] -= h;
    hi.data()[k] += h;
    const double fd = (objective.Value(hi) - objective.Value(lo)) / (2.0 * h);
    EXPECT_NEAR(grad.data()[k], fd, 1e-6) << "entry " << k;
  }
}

TEST(Objective, StrongConvexityAlongRandomSegments) {
  // F(t b + (1-t) a) <= t F(b) + (1-t) F(a) - (λ/2) t(1-t) ||b-a||²
  // for a λ-strongly-convex F.
  const Problem p = MakeProblem(3);
  const double lambda_total = 0.5;
  const PerturbedObjective objective(&p.z, &p.y, &p.loss, lambda_total,
                                     &p.noise);
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    Matrix a(p.z.cols(), p.y.cols()), b(p.z.cols(), p.y.cols());
    for (std::size_t k = 0; k < a.size(); ++k) {
      a.data()[k] = rng.Uniform(-1.0, 1.0);
      b.data()[k] = rng.Uniform(-1.0, 1.0);
    }
    const double t = rng.Uniform(0.1, 0.9);
    Matrix mid = a;
    ScaleInPlace(1.0 - t, &mid);
    AxpyInPlace(t, b, &mid);
    const double gap_sq = FrobeniusNorm(Sub(b, a));
    const double lhs = objective.Value(mid);
    const double rhs = t * objective.Value(b) +
                       (1.0 - t) * objective.Value(a) -
                       0.5 * lambda_total * t * (1.0 - t) * gap_sq * gap_sq;
    EXPECT_LE(lhs, rhs + 1e-9);
  }
}

TEST(Objective, HessianLowerBoundedViaGradientMonotonicity) {
  // λ-strong convexity <=> <∇F(b)-∇F(a), b-a> >= λ ||b-a||².
  const Problem p = MakeProblem(5);
  const double lambda_total = 0.7;
  const PerturbedObjective objective(&p.z, &p.y, &p.loss, lambda_total,
                                     &p.noise);
  Rng rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    Matrix a(p.z.cols(), p.y.cols()), b(p.z.cols(), p.y.cols());
    for (std::size_t k = 0; k < a.size(); ++k) {
      a.data()[k] = rng.Uniform(-2.0, 2.0);
      b.data()[k] = rng.Uniform(-2.0, 2.0);
    }
    Matrix ga, gb;
    objective.ValueAndGradient(a, &ga);
    objective.ValueAndGradient(b, &gb);
    const Matrix diff = Sub(b, a);
    const double inner = DotAll(Sub(gb, ga), diff);
    const double norm_sq = DotAll(diff, diff);
    EXPECT_GE(inner, lambda_total * norm_sq - 1e-9);
  }
}

TEST(Objective, NoiseTermShiftsOptimum) {
  const Problem p = MakeProblem(7);
  Matrix zero_noise(p.z.cols(), p.y.cols());
  const PerturbedObjective clean(&p.z, &p.y, &p.loss, 0.3, &zero_noise);
  const PerturbedObjective noisy(&p.z, &p.y, &p.loss, 0.3, &p.noise);
  MinimizeOptions options;
  options.max_iterations = 4000;
  options.gradient_tolerance = 1e-10;
  const Matrix theta_clean = MinimizeAdam(clean, options).theta;
  const Matrix theta_noisy = MinimizeAdam(noisy, options).theta;
  EXPECT_GT(FrobeniusNorm(Sub(theta_clean, theta_noisy)), 1e-4);
}

TEST(Minimize, AdamReachesGradientTolerance) {
  const Problem p = MakeProblem(8);
  const PerturbedObjective objective(&p.z, &p.y, &p.loss, 0.5, &p.noise);
  MinimizeOptions options;
  options.max_iterations = 6000;
  options.learning_rate = 0.05;
  options.gradient_tolerance = 1e-8;
  const MinimizeResult result = MinimizeAdam(objective, options);
  EXPECT_LT(result.gradient_norm, 1e-7);
  EXPECT_LT(result.iterations, options.max_iterations);
}

TEST(Minimize, GradientDescentAgreesWithAdam) {
  // Strongly convex objective has one minimizer; both algorithms must find
  // it.
  const Problem p = MakeProblem(9);
  const PerturbedObjective objective(&p.z, &p.y, &p.loss, 0.4, &p.noise);
  MinimizeOptions options;
  options.max_iterations = 8000;
  options.gradient_tolerance = 1e-10;
  const Matrix theta_adam = MinimizeAdam(objective, options).theta;
  options.learning_rate = 1.0;
  const Matrix theta_gd = MinimizeGradientDescent(objective, options).theta;
  EXPECT_TRUE(theta_adam.AllClose(theta_gd, 1e-4));
}

TEST(Minimize, StationaryPointSatisfiesEq40) {
  // At the optimum: B = -n1 * d(L_Λ + Λ'/2||Θ||²)/dΘ — i.e. the gradient of
  // the UNperturbed part equals -B/n1 (Eq. 40 of the paper).
  const Problem p = MakeProblem(10);
  const double lambda_total = 0.6;
  const PerturbedObjective noisy(&p.z, &p.y, &p.loss, lambda_total, &p.noise);
  MinimizeOptions options;
  options.max_iterations = 8000;
  options.gradient_tolerance = 1e-11;
  const Matrix theta = MinimizeAdam(noisy, options).theta;

  Matrix zero_noise(p.z.cols(), p.y.cols());
  const PerturbedObjective clean(&p.z, &p.y, &p.loss, lambda_total,
                                 &zero_noise);
  Matrix clean_grad;
  clean.ValueAndGradient(theta, &clean_grad);
  const double n1 = static_cast<double>(p.z.rows());
  // clean_grad should equal -B/n1.
  Matrix expected = p.noise;
  ScaleInPlace(-1.0 / n1, &expected);
  EXPECT_TRUE(clean_grad.AllClose(expected, 1e-6));
}

TEST(Minimize, MoreRegularizationShrinksSolution) {
  const Problem p = MakeProblem(11);
  Matrix zero_noise(p.z.cols(), p.y.cols());
  MinimizeOptions options;
  options.max_iterations = 5000;
  const PerturbedObjective weak(&p.z, &p.y, &p.loss, 0.05, &zero_noise);
  const PerturbedObjective strong(&p.z, &p.y, &p.loss, 5.0, &zero_noise);
  const double weak_norm = FrobeniusNorm(MinimizeAdam(weak, options).theta);
  const double strong_norm =
      FrobeniusNorm(MinimizeAdam(strong, options).theta);
  EXPECT_GT(weak_norm, 2.0 * strong_norm);
}

TEST(Minimize, LbfgsAgreesWithAdam) {
  const Problem p = MakeProblem(20);
  const PerturbedObjective objective(&p.z, &p.y, &p.loss, 0.4, &p.noise);
  MinimizeOptions options;
  options.max_iterations = 8000;
  options.gradient_tolerance = 1e-10;
  const Matrix theta_adam = MinimizeAdam(objective, options).theta;
  const MinimizeResult lbfgs = MinimizeLbfgs(objective, options);
  EXPECT_TRUE(theta_adam.AllClose(lbfgs.theta, 1e-5));
}

TEST(Minimize, LbfgsConvergesFasterThanGradientDescent) {
  const Problem p = MakeProblem(21, /*n1=*/80, /*d=*/12, /*c=*/4);
  const PerturbedObjective objective(&p.z, &p.y, &p.loss, 0.1, &p.noise);
  MinimizeOptions options;
  options.max_iterations = 5000;
  options.gradient_tolerance = 1e-9;
  const MinimizeResult lbfgs = MinimizeLbfgs(objective, options);
  options.learning_rate = 1.0;
  const MinimizeResult gd = MinimizeGradientDescent(objective, options);
  EXPECT_LT(lbfgs.gradient_norm, 1e-8);
  EXPECT_LT(lbfgs.iterations, gd.iterations)
      << "curvature information should accelerate convergence";
  EXPECT_LT(lbfgs.iterations, 200);
}

TEST(Minimize, LbfgsDeterministic) {
  const Problem p = MakeProblem(22);
  const PerturbedObjective objective(&p.z, &p.y, &p.loss, 0.3, &p.noise);
  MinimizeOptions options;
  options.max_iterations = 500;
  const Matrix a = MinimizeLbfgs(objective, options).theta;
  const Matrix b = MinimizeLbfgs(objective, options).theta;
  EXPECT_TRUE(a.AllClose(b, 0.0));
}

TEST(Minimize, LbfgsHandlesPseudoHuber) {
  Problem p = MakeProblem(23);
  p.loss = ConvexLoss::PseudoHuber(3, 0.2);
  const PerturbedObjective objective(&p.z, &p.y, &p.loss, 0.5, &p.noise);
  MinimizeOptions options;
  options.max_iterations = 3000;
  options.gradient_tolerance = 1e-9;
  const MinimizeResult result = MinimizeLbfgs(objective, options);
  EXPECT_LT(result.gradient_norm, 1e-8);
}

TEST(Objective, PseudoHuberAlsoMinimizes) {
  Problem p = MakeProblem(12);
  p.loss = ConvexLoss::PseudoHuber(3, 0.5);
  const PerturbedObjective objective(&p.z, &p.y, &p.loss, 0.5, &p.noise);
  MinimizeOptions options;
  options.max_iterations = 5000;
  const MinimizeResult result = MinimizeAdam(objective, options);
  EXPECT_LT(result.gradient_norm, 1e-5);
}

}  // namespace
}  // namespace gcon
