#include <gtest/gtest.h>

#include <cmath>

#include "dp/graph_perturbation.h"
#include "dp/mechanisms.h"
#include "dp/rdp_accountant.h"
#include "graph/datasets.h"
#include "rng/rng.h"

namespace gcon {
namespace {

TEST(Mechanisms, LaplaceNoiseScale) {
  Rng rng(1);
  Matrix m(200, 50);
  LaplaceMechanismInPlace(&m, 2.0, 0.5, &rng);
  // scale b = sensitivity/eps = 4 -> variance 2b² = 32.
  double sq = 0.0;
  for (std::size_t k = 0; k < m.size(); ++k) sq += m.data()[k] * m.data()[k];
  EXPECT_NEAR(sq / static_cast<double>(m.size()), 32.0, 2.0);
}

TEST(Mechanisms, GaussianNoiseScale) {
  Rng rng(2);
  Matrix m(100, 100);
  GaussianNoiseInPlace(&m, 3.0, &rng);
  double sq = 0.0;
  for (std::size_t k = 0; k < m.size(); ++k) sq += m.data()[k] * m.data()[k];
  EXPECT_NEAR(sq / static_cast<double>(m.size()), 9.0, 0.5);
}

TEST(Mechanisms, GaussianNoiseZeroSigmaIsNoOp) {
  Rng rng(3);
  Matrix m(5, 5, 1.0);
  GaussianNoiseInPlace(&m, 0.0, &rng);
  EXPECT_TRUE(m.AllClose(Matrix(5, 5, 1.0)));
}

TEST(Mechanisms, GaussianSigmaClassicFormula) {
  const double sigma = GaussianSigma(1.0, 1.0, 1e-5);
  EXPECT_NEAR(sigma, std::sqrt(2.0 * std::log(1.25e5)), 1e-9);
  // Sigma scales linearly with sensitivity and inversely with epsilon.
  EXPECT_NEAR(GaussianSigma(2.0, 1.0, 1e-5), 2.0 * sigma, 1e-9);
  EXPECT_NEAR(GaussianSigma(1.0, 2.0, 1e-5), 0.5 * sigma, 1e-9);
}

TEST(Mechanisms, ZcdpConversionRoundTrip) {
  const double delta = 1e-6;
  for (double eps : {0.5, 1.0, 2.0, 4.0}) {
    const double rho = ZcdpRhoFromEpsilonDelta(eps, delta);
    EXPECT_GT(rho, 0.0);
    // Converting back must give exactly the target epsilon.
    EXPECT_NEAR(ZcdpEpsilon(rho, delta), eps, 1e-9);
  }
}

TEST(Mechanisms, ZcdpSigmaMonotonicity) {
  const double delta = 1e-6;
  // More composition -> more noise; larger budget -> less noise.
  EXPECT_GT(ZcdpSigmaForComposition(4, 1.0, 1.0, delta),
            ZcdpSigmaForComposition(2, 1.0, 1.0, delta));
  EXPECT_LT(ZcdpSigmaForComposition(2, 1.0, 4.0, delta),
            ZcdpSigmaForComposition(2, 1.0, 1.0, delta));
  EXPECT_NEAR(ZcdpSigmaForComposition(2, 2.0, 1.0, delta),
              2.0 * ZcdpSigmaForComposition(2, 1.0, 1.0, delta), 1e-9);
}

TEST(Rdp, GaussianRdpLinearInAlpha) {
  EXPECT_NEAR(GaussianRdp(2.0, 1.0), 1.0, 1e-12);
  EXPECT_NEAR(GaussianRdp(8.0, 2.0), 1.0, 1e-12);
  EXPECT_NEAR(GaussianRdp(3.0, 1.0), 1.5, 1e-12);
}

TEST(Rdp, SubsampledReducesToGaussianAtQ1) {
  for (int alpha : {2, 4, 16}) {
    EXPECT_NEAR(SubsampledGaussianRdp(alpha, 1.0, 2.0),
                GaussianRdp(alpha, 2.0), 1e-9);
  }
}

TEST(Rdp, SubsampledZeroAtQ0) {
  EXPECT_DOUBLE_EQ(SubsampledGaussianRdp(4, 0.0, 1.0), 0.0);
}

TEST(Rdp, SubsamplingAmplifiesPrivacy) {
  // q < 1 must cost (weakly) less than the full mechanism.
  for (int alpha : {2, 8, 32}) {
    EXPECT_LT(SubsampledGaussianRdp(alpha, 0.1, 1.0),
              GaussianRdp(alpha, 1.0));
  }
  // And more subsampling -> less cost.
  EXPECT_LT(SubsampledGaussianRdp(4, 0.01, 1.0),
            SubsampledGaussianRdp(4, 0.1, 1.0));
}

TEST(Rdp, EpsilonMonotoneInSteps) {
  const double e100 = DpSgdEpsilon(1.0, 0.1, 100, 1e-5);
  const double e500 = DpSgdEpsilon(1.0, 0.1, 500, 1e-5);
  EXPECT_LT(e100, e500);
}

TEST(Rdp, EpsilonMonotoneInSigma) {
  const double loose = DpSgdEpsilon(0.8, 0.1, 200, 1e-5);
  const double tight = DpSgdEpsilon(2.0, 0.1, 200, 1e-5);
  EXPECT_GT(loose, tight);
}

TEST(Rdp, SigmaSearchHitsTarget) {
  for (double eps : {0.5, 1.0, 4.0}) {
    const double sigma = DpSgdSigma(eps, 1e-5, 0.2, 300);
    const double achieved = DpSgdEpsilon(sigma, 0.2, 300, 1e-5);
    EXPECT_LE(achieved, eps * 1.001);
    EXPECT_GE(achieved, eps * 0.95);  // not wastefully large
  }
}

TEST(LapGraphInternals, LaplaceTailValues) {
  // P(Lap(1/eps) > 0) = 1/2; symmetric tails.
  EXPECT_NEAR(internal::LaplaceTail(0.0, 1.0, 0.0), 0.5, 1e-12);
  EXPECT_NEAR(internal::LaplaceTail(0.0, 1.0, 1.0), 0.5 * std::exp(-1.0),
              1e-12);
  EXPECT_NEAR(internal::LaplaceTail(0.0, 1.0, -1.0),
              1.0 - 0.5 * std::exp(-1.0), 1e-12);
  // Shift moves the tail: P(1 + Lap > 1) = 1/2.
  EXPECT_NEAR(internal::LaplaceTail(1.0, 2.0, 1.0), 0.5, 1e-12);
}

TEST(LapGraphInternals, ThresholdMatchesTarget) {
  const std::size_t edges = 500;
  const std::size_t pairs = 100000;
  const double eps2 = 1.0;
  for (double target : {100.0, 500.0, 2000.0}) {
    const double t = internal::SolveLapGraphThreshold(edges, pairs, eps2,
                                                      target);
    const double expected =
        edges * internal::LaplaceTail(1.0, eps2, t) +
        (pairs - edges) * internal::LaplaceTail(0.0, eps2, t);
    EXPECT_NEAR(expected, target, 1.0);
  }
}

TEST(LapGraph, PreservesNodesAndAttributes) {
  Rng gen(5);
  const Graph graph = GenerateDataset(TinySpec(), &gen);
  Rng rng(6);
  const Graph perturbed = LapGraph(graph, 1.0, &rng);
  perturbed.CheckConsistency();
  EXPECT_EQ(perturbed.num_nodes(), graph.num_nodes());
  EXPECT_EQ(perturbed.num_classes(), graph.num_classes());
  EXPECT_TRUE(
      perturbed.features().ToDense().AllClose(graph.features().ToDense()));
  for (int v = 0; v < graph.num_nodes(); ++v) {
    EXPECT_EQ(perturbed.label(v), graph.label(v));
  }
}

TEST(LapGraph, EdgeCountTracksNoisyTarget) {
  Rng gen(7);
  const Graph graph = GenerateDataset(TinySpec(), &gen);
  Rng rng(8);
  const Graph perturbed = LapGraph(graph, 2.0, &rng);
  // The kept-cell count concentrates around m~ ~= |E| (eps1 noise is small
  // relative to |E|); allow generous slack for the binomial fluctuation.
  const double m = static_cast<double>(graph.num_edges());
  EXPECT_GT(static_cast<double>(perturbed.num_edges()), 0.5 * m);
  EXPECT_LT(static_cast<double>(perturbed.num_edges()), 2.0 * m);
}

TEST(LapGraph, HigherEpsilonPreservesMoreTrueEdges) {
  Rng gen(9);
  const Graph graph = GenerateDataset(TinySpec(), &gen);
  auto true_edge_fraction = [&](double eps, std::uint64_t seed) {
    Rng rng(seed);
    const Graph p = LapGraph(graph, eps, &rng);
    std::size_t kept = 0;
    for (const auto& [u, v] : graph.EdgeList()) {
      if (p.HasEdge(u, v)) ++kept;
    }
    return static_cast<double>(kept) /
           static_cast<double>(graph.num_edges());
  };
  // Average a few seeds to damp randomness.
  double low = 0.0, high = 0.0;
  for (std::uint64_t s = 0; s < 5; ++s) {
    low += true_edge_fraction(0.5, 10 + s);
    high += true_edge_fraction(8.0, 20 + s);
  }
  EXPECT_GT(high, low);
}

TEST(EdgeRand, FlipProbabilityMatchesTheory) {
  Rng gen(11);
  DatasetSpec spec = TinySpec();
  spec.num_nodes = 100;
  spec.num_undirected_edges = 300;
  const Graph graph = GenerateDataset(spec, &gen);
  const double eps = 2.0;
  const double p_keep = std::exp(eps) / (1.0 + std::exp(eps));
  double kept_fraction = 0.0;
  const int runs = 10;
  for (int r = 0; r < runs; ++r) {
    Rng rng(static_cast<std::uint64_t>(100 + r));
    const Graph p = EdgeRand(graph, eps, &rng);
    std::size_t kept = 0;
    for (const auto& [u, v] : graph.EdgeList()) {
      if (p.HasEdge(u, v)) ++kept;
    }
    kept_fraction +=
        static_cast<double>(kept) / static_cast<double>(graph.num_edges());
  }
  EXPECT_NEAR(kept_fraction / runs, p_keep, 0.05);
}

}  // namespace
}  // namespace gcon
