// Property tests for the two structural lemmas that the privacy proof of
// Theorem 1 rests on. These are exercised over randomized graphs and edge
// edits, so a bug in the propagation/normalization code that broke the
// sensitivity analysis would be caught here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/datasets.h"
#include "linalg/ops.h"
#include "propagation/appr.h"
#include "propagation/sensitivity.h"
#include "propagation/transition.h"
#include "rng/rng.h"

namespace gcon {
namespace {

Graph RandomGraph(int n, int edges, std::uint64_t seed) {
  DatasetSpec spec = TinySpec();
  spec.num_nodes = n;
  spec.num_undirected_edges = static_cast<std::size_t>(edges);
  Rng rng(seed);
  return GenerateDataset(spec, &rng);
}

Matrix Identity(std::size_t n) {
  Matrix id(n, n);
  for (std::size_t i = 0; i < n; ++i) id(i, i) = 1.0;
  return id;
}

// Dense Ã^m via repeated multiplication.
Matrix DensePower(const Matrix& t, int m) {
  Matrix power = Identity(t.rows());
  for (int i = 0; i < m; ++i) power = MatMul(t, power);
  return power;
}

// ---------------------------------------------------------------------------
// Lemma 1: for the (optionally clipped) transition matrix,
//   (a) every entry of Ã^m / R_m / R_inf is non-negative,
//   (b) every row of Ã^m / R_m / R_inf sums to 1,
//   (c) the i-th column sum is <= max((k_i + 1) p, 1).
// ---------------------------------------------------------------------------

struct Lemma1Case {
  std::uint64_t seed;
  double p;      // off-diagonal clip
  double alpha;  // restart probability for R_m
  int m;         // power / propagation steps
};

class Lemma1Property : public ::testing::TestWithParam<Lemma1Case> {};

TEST_P(Lemma1Property, PowersOfTransition) {
  const Lemma1Case c = GetParam();
  const Graph graph = RandomGraph(40, 110, c.seed);
  const CsrMatrix t = BuildTransition(graph, c.p);
  const Matrix power = DensePower(t.ToDense(), c.m);
  const std::size_t n = power.rows();
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_GE(power(i, j), -1e-12) << "negative entry (" << i << "," << j << ")";
      row_sum += power(i, j);
    }
    EXPECT_NEAR(row_sum, 1.0, 1e-9) << "row " << i;
  }
  for (std::size_t j = 0; j < n; ++j) {
    const double bound = std::max(
        (static_cast<double>(graph.Degree(static_cast<int>(j))) + 1.0) * c.p,
        1.0);
    EXPECT_LE(ColSum(power, j), bound + 1e-9) << "column " << j;
  }
}

TEST_P(Lemma1Property, PropagationMatrixRm) {
  const Lemma1Case c = GetParam();
  const Graph graph = RandomGraph(40, 110, c.seed);
  const CsrMatrix t = BuildTransition(graph, c.p);
  // R_m applied to I materializes R_m itself.
  const Matrix rm = ApprPropagate(t, Identity(t.rows()), c.m, c.alpha);
  const std::size_t n = rm.rows();
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_GE(rm(i, j), -1e-12);
      row_sum += rm(i, j);
    }
    EXPECT_NEAR(row_sum, 1.0, 1e-9);
  }
  for (std::size_t j = 0; j < n; ++j) {
    const double bound = std::max(
        (static_cast<double>(graph.Degree(static_cast<int>(j))) + 1.0) * c.p,
        1.0);
    EXPECT_LE(ColSum(rm, j), bound + 1e-9);
  }
}

TEST_P(Lemma1Property, PropagationMatrixRInfinity) {
  const Lemma1Case c = GetParam();
  const Graph graph = RandomGraph(35, 90, c.seed);
  const CsrMatrix t = BuildTransition(graph, c.p);
  const Matrix rinf = PprPropagate(t, Identity(t.rows()), c.alpha, 1e-12);
  const std::size_t n = rinf.rows();
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_GE(rinf(i, j), -1e-12);
      row_sum += rinf(i, j);
    }
    EXPECT_NEAR(row_sum, 1.0, 1e-8);
  }
  for (std::size_t j = 0; j < n; ++j) {
    const double bound = std::max(
        (static_cast<double>(graph.Degree(static_cast<int>(j))) + 1.0) * c.p,
        1.0);
    EXPECT_LE(ColSum(rinf, j), bound + 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Lemma1Property,
    ::testing::Values(Lemma1Case{1, 0.5, 0.3, 1}, Lemma1Case{2, 0.5, 0.3, 3},
                      Lemma1Case{3, 0.5, 0.6, 6}, Lemma1Case{4, 0.25, 0.4, 2},
                      Lemma1Case{5, 0.25, 0.4, 5}, Lemma1Case{6, 0.1, 0.5, 4},
                      Lemma1Case{7, 0.4, 0.2, 8}, Lemma1Case{8, 0.5, 0.8, 10}));

// ---------------------------------------------------------------------------
// Lemma 2: the closed-form Ψ(Z_m) dominates the empirical ψ(Z_m) for every
// single-edge edit, with unit-norm features.
// ---------------------------------------------------------------------------

struct Lemma2Case {
  std::uint64_t seed;
  double alpha;
  int m;  // >= 0 or kInfiniteSteps
};

class Lemma2Property : public ::testing::TestWithParam<Lemma2Case> {};

Matrix UnitFeatures(const Graph& graph) {
  Matrix x = graph.features().ToDense();
  RowL2NormalizeInPlace(&x);
  return x;
}

TEST_P(Lemma2Property, EdgeRemovalBoundedByClosedForm) {
  const Lemma2Case c = GetParam();
  Graph graph = RandomGraph(60, 170, c.seed);
  const Matrix x = UnitFeatures(graph);
  const Matrix z = Propagate(BuildTransition(graph), x, c.m, c.alpha);
  const double bound = SensitivityZm(c.m, c.alpha);

  Rng rng(c.seed + 1000);
  const auto edges = graph.EdgeList();
  for (int trial = 0; trial < 8; ++trial) {
    const auto& [u, v] =
        edges[rng.UniformInt(static_cast<std::uint64_t>(edges.size()))];
    ASSERT_TRUE(graph.RemoveEdge(u, v));
    const Matrix z_prime =
        Propagate(BuildTransition(graph), x, c.m, c.alpha);
    ASSERT_TRUE(graph.AddEdge(u, v));  // restore
    const double psi = EmpiricalPsi(z, z_prime);
    EXPECT_LE(psi, bound + 1e-9)
        << "removal of (" << u << "," << v << ") exceeded Lemma 2";
  }
}

TEST_P(Lemma2Property, EdgeAdditionBoundedByClosedForm) {
  const Lemma2Case c = GetParam();
  Graph graph = RandomGraph(60, 170, c.seed + 77);
  const Matrix x = UnitFeatures(graph);
  const Matrix z = Propagate(BuildTransition(graph), x, c.m, c.alpha);
  const double bound = SensitivityZm(c.m, c.alpha);

  Rng rng(c.seed + 2000);
  for (int trial = 0; trial < 8; ++trial) {
    int u = 0, v = 0;
    do {
      u = static_cast<int>(rng.UniformInt(60));
      v = static_cast<int>(rng.UniformInt(60));
    } while (u == v || graph.HasEdge(u, v));
    ASSERT_TRUE(graph.AddEdge(u, v));
    const Matrix z_prime =
        Propagate(BuildTransition(graph), x, c.m, c.alpha);
    ASSERT_TRUE(graph.RemoveEdge(u, v));  // restore
    const double psi = EmpiricalPsi(z, z_prime);
    EXPECT_LE(psi, bound + 1e-9)
        << "addition of (" << u << "," << v << ") exceeded Lemma 2";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Lemma2Property,
    ::testing::Values(Lemma2Case{11, 0.2, 1}, Lemma2Case{12, 0.2, 5},
                      Lemma2Case{13, 0.2, kInfiniteSteps},
                      Lemma2Case{14, 0.4, 2}, Lemma2Case{15, 0.4, 10},
                      Lemma2Case{16, 0.6, 3},
                      Lemma2Case{17, 0.6, kInfiniteSteps},
                      Lemma2Case{18, 0.8, 4}, Lemma2Case{19, 0.8, 20},
                      Lemma2Case{20, 0.5, 0}));

// The concatenated Ψ(Z) (Eq. 26) must likewise dominate the empirical ψ of
// the concatenated features.
TEST(Lemma2Concat, ConcatenationBound) {
  Graph graph = RandomGraph(50, 140, 31);
  Matrix x = UnitFeatures(graph);
  const std::vector<int> steps = {0, 2, kInfiniteSteps};
  const double alpha = 0.4;
  const Matrix z = ConcatPropagate(BuildTransition(graph), x, steps, alpha);
  const double bound = SensitivityZ(steps, alpha);
  Rng rng(32);
  const auto edges = graph.EdgeList();
  for (int trial = 0; trial < 6; ++trial) {
    const auto& [u, v] =
        edges[rng.UniformInt(static_cast<std::uint64_t>(edges.size()))];
    ASSERT_TRUE(graph.RemoveEdge(u, v));
    const Matrix z_prime =
        ConcatPropagate(BuildTransition(graph), x, steps, alpha);
    ASSERT_TRUE(graph.AddEdge(u, v));
    EXPECT_LE(EmpiricalPsi(z, z_prime), bound + 1e-9);
  }
}

// The bound should not be vacuous: on a star graph whose hub loses an edge,
// the empirical psi gets within a constant factor of the closed form.
TEST(Lemma2Tightness, StarGraphApproachesBound) {
  const int n = 20;
  Graph graph(n, 2);
  for (int i = 1; i < n; ++i) graph.AddEdge(0, i);
  // Features: hub opposite to leaves so edits move mass maximally.
  Matrix x(static_cast<std::size_t>(n), 2);
  x(0, 0) = 1.0;
  for (int i = 1; i < n; ++i) x(static_cast<std::size_t>(i), 1) = 1.0;

  const double alpha = 0.3;
  const int m = 2;
  const Matrix z = Propagate(BuildTransition(graph), x, m, alpha);
  ASSERT_TRUE(graph.RemoveEdge(0, 1));
  const Matrix z_prime = Propagate(BuildTransition(graph), x, m, alpha);
  const double psi = EmpiricalPsi(z, z_prime);
  const double bound = SensitivityZm(m, alpha);
  EXPECT_LE(psi, bound + 1e-9);
  EXPECT_GT(psi, 0.05 * bound) << "bound is wildly loose on the star graph";
}

}  // namespace
}  // namespace gcon
