#include <gtest/gtest.h>

#include <cmath>

#include "graph/datasets.h"
#include "linalg/ops.h"
#include "propagation/appr.h"
#include "propagation/sensitivity.h"
#include "propagation/transition.h"
#include "rng/rng.h"

namespace gcon {
namespace {

Graph PathGraph(int n) {
  Graph g(n, 2);
  for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1);
  return g;
}

Matrix Identity(std::size_t n) {
  Matrix id(n, n);
  for (std::size_t i = 0; i < n; ++i) id(i, i) = 1.0;
  return id;
}

TEST(Transition, RowStochastic) {
  Rng gen(1);
  const Graph graph = GenerateDataset(TinySpec(), &gen);
  const CsrMatrix t = BuildTransition(graph);
  for (std::size_t i = 0; i < t.rows(); ++i) {
    EXPECT_NEAR(t.RowSum(i), 1.0, 1e-12);
  }
}

TEST(Transition, MatchesDegreeNormalization) {
  const Graph g = PathGraph(3);  // degrees 1, 2, 1
  const CsrMatrix t = BuildTransition(g);
  // Node 0: degree 1 -> diagonal and off-diagonal both 1/2.
  EXPECT_NEAR(t.At(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(t.At(0, 1), 0.5, 1e-12);
  // Node 1: degree 2 -> every entry 1/3.
  EXPECT_NEAR(t.At(1, 0), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(t.At(1, 1), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(t.At(1, 2), 1.0 / 3.0, 1e-12);
}

TEST(Transition, ClippedVariantRespectsP) {
  const Graph g = PathGraph(3);
  const double p = 0.2;
  const CsrMatrix t = BuildTransition(g, p);
  // Node 0 has degree 1: off-diagonal min(1/2, 0.2) = 0.2, diagonal 0.8.
  EXPECT_NEAR(t.At(0, 1), 0.2, 1e-12);
  EXPECT_NEAR(t.At(0, 0), 0.8, 1e-12);
  // Rows still sum to 1.
  for (std::size_t i = 0; i < t.rows(); ++i) {
    EXPECT_NEAR(t.RowSum(i), 1.0, 1e-12);
  }
}

TEST(Transition, IsolatedNodeSelfLoopOnly) {
  Graph g(3, 2);
  g.AddEdge(0, 1);  // node 2 isolated
  const CsrMatrix t = BuildTransition(g);
  EXPECT_NEAR(t.At(2, 2), 1.0, 1e-12);
  EXPECT_EQ(t.RowNnz(2), 1u);
}

TEST(Appr, ZeroStepsReturnsInput) {
  Rng gen(2);
  const Graph graph = GenerateDataset(TinySpec(), &gen);
  const CsrMatrix t = BuildTransition(graph);
  Matrix x = graph.features().ToDense();
  RowL2NormalizeInPlace(&x);
  const Matrix z0 = ApprPropagate(t, x, 0, 0.5);
  EXPECT_TRUE(z0.AllClose(x));
}

TEST(Appr, AlphaOneFreezesFeatures) {
  // alpha = 1: restart always, R_m = I for every m.
  Rng gen(3);
  const Graph graph = GenerateDataset(TinySpec(), &gen);
  const CsrMatrix t = BuildTransition(graph);
  Matrix x = graph.features().ToDense();
  RowL2NormalizeInPlace(&x);
  EXPECT_TRUE(ApprPropagate(t, x, 5, 1.0).AllClose(x, 1e-12));
  EXPECT_TRUE(PprPropagate(t, x, 1.0).AllClose(x, 1e-12));
}

TEST(Appr, RecursionMatchesExplicitSeries) {
  // R_m = α Σ_{i<m} (1-α)^i Ã^i + (1-α)^m Ã^m (Eq. 6) — check via dense
  // powers on a small graph, applying the matrix to I.
  const Graph g = PathGraph(5);
  const CsrMatrix t = BuildTransition(g);
  const Matrix t_dense = t.ToDense();
  const double alpha = 0.3;
  const int m = 4;
  Matrix series(5, 5);
  Matrix power = Identity(5);
  for (int i = 0; i < m; ++i) {
    AxpyInPlace(alpha * std::pow(1.0 - alpha, i), power, &series);
    power = MatMul(t_dense, power);
  }
  AxpyInPlace(std::pow(1.0 - alpha, m), power, &series);
  const Matrix recursion = ApprPropagate(t, Identity(5), m, alpha);
  EXPECT_TRUE(recursion.AllClose(series, 1e-10));
}

TEST(Ppr, FixedPointSolvesLinearSystem) {
  // R_inf X satisfies (I - (1-α)Ã) Z = α X.
  Rng gen(4);
  const Graph graph = GenerateDataset(TinySpec(), &gen);
  const CsrMatrix t = BuildTransition(graph);
  Matrix x = graph.features().ToDense();
  RowL2NormalizeInPlace(&x);
  const double alpha = 0.4;
  const Matrix z = PprPropagate(t, x, alpha, 1e-12);
  // residual = z - (1-α) Ã z - α x should vanish.
  Matrix residual = z;
  Matrix tz = t.Multiply(z);
  AxpyInPlace(-(1.0 - alpha), tz, &residual);
  AxpyInPlace(-alpha, x, &residual);
  EXPECT_LT(FrobeniusNorm(residual), 1e-9);
}

TEST(Ppr, ApprConvergesToPpr) {
  Rng gen(5);
  const Graph graph = GenerateDataset(TinySpec(), &gen);
  const CsrMatrix t = BuildTransition(graph);
  Matrix x = graph.features().ToDense();
  RowL2NormalizeInPlace(&x);
  const double alpha = 0.5;
  const Matrix z_inf = PprPropagate(t, x, alpha, 1e-12);
  double prev_gap = 1e300;
  for (int m : {1, 4, 16, 64}) {
    const Matrix z_m = ApprPropagate(t, x, m, alpha);
    const double gap = FrobeniusNorm(Sub(z_m, z_inf));
    EXPECT_LT(gap, prev_gap);
    prev_gap = gap;
  }
  EXPECT_LT(prev_gap, 1e-6);
}

TEST(Appr, PropagateDispatch) {
  Rng gen(6);
  const Graph graph = GenerateDataset(TinySpec(), &gen);
  const CsrMatrix t = BuildTransition(graph);
  Matrix x = graph.features().ToDense();
  RowL2NormalizeInPlace(&x);
  EXPECT_TRUE(Propagate(t, x, 3, 0.5).AllClose(ApprPropagate(t, x, 3, 0.5)));
  EXPECT_TRUE(Propagate(t, x, kInfiniteSteps, 0.5)
                  .AllClose(PprPropagate(t, x, 0.5)));
}

TEST(Appr, ConcatPropagateShapeAndScaling) {
  Rng gen(7);
  const Graph graph = GenerateDataset(TinySpec(), &gen);
  const CsrMatrix t = BuildTransition(graph);
  Matrix x = graph.features().ToDense();
  RowL2NormalizeInPlace(&x);
  const std::vector<int> steps = {0, 2, kInfiniteSteps};
  const Matrix z = ConcatPropagate(t, x, steps, 0.5);
  EXPECT_EQ(z.rows(), x.rows());
  EXPECT_EQ(z.cols(), 3 * x.cols());
  // First block is x / 3 (m=0 returns input; concat scales by 1/s).
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      EXPECT_NEAR(z(i, j), x(i, j) / 3.0, 1e-12);
    }
  }
  // Rows of Z have L2 norm <= 1 (each block row norm <= 1, weight 1/s).
  for (std::size_t i = 0; i < z.rows(); ++i) {
    EXPECT_LE(RowNorm2(z, i), 1.0 + 1e-9);
  }
}

TEST(Sensitivity, ClosedFormValues) {
  // Eq. (25) at easy points.
  EXPECT_DOUBLE_EQ(SensitivityZm(0, 0.5), 0.0);
  EXPECT_NEAR(SensitivityZm(1, 0.5), 2.0 * 0.5 / 0.5 * 0.5, 1e-12);  // = 1
  EXPECT_NEAR(SensitivityZm(kInfiniteSteps, 0.5), 2.0, 1e-12);
  EXPECT_NEAR(SensitivityZm(kInfiniteSteps, 0.2), 8.0, 1e-12);
  EXPECT_DOUBLE_EQ(SensitivityZm(5, 1.0), 0.0);
}

TEST(Sensitivity, MonotoneInStepsAndAlpha) {
  for (double alpha : {0.2, 0.5, 0.8}) {
    double prev = -1.0;
    for (int m : {0, 1, 2, 5, 20}) {
      const double psi = SensitivityZm(m, alpha);
      EXPECT_GT(psi, prev);
      prev = psi;
    }
    EXPECT_LE(prev, SensitivityZm(kInfiniteSteps, alpha) + 1e-12);
  }
  // Larger alpha -> smaller sensitivity at fixed m.
  EXPECT_GT(SensitivityZm(3, 0.2), SensitivityZm(3, 0.5));
  EXPECT_GT(SensitivityZm(3, 0.5), SensitivityZm(3, 0.8));
}

TEST(Sensitivity, ConcatIsMeanOfParts) {
  const std::vector<int> steps = {1, 5, kInfiniteSteps};
  const double alpha = 0.4;
  double expected = 0.0;
  for (int m : steps) expected += SensitivityZm(m, alpha);
  expected /= 3.0;
  EXPECT_NEAR(SensitivityZ(steps, alpha), expected, 1e-12);
}

TEST(Sensitivity, EmpiricalPsiOfIdenticalMatricesIsZero) {
  Matrix a(4, 3, 1.0);
  EXPECT_DOUBLE_EQ(EmpiricalPsi(a, a), 0.0);
}

TEST(Sensitivity, EmpiricalPsiKnownValue) {
  Matrix a(2, 2);
  Matrix b(2, 2);
  b(0, 0) = 3.0;
  b(0, 1) = 4.0;  // row 0 distance 5
  b(1, 0) = 1.0;  // row 1 distance 1
  EXPECT_DOUBLE_EQ(EmpiricalPsi(a, b), 6.0);
}

}  // namespace
}  // namespace gcon
