#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "eval/attack.h"
#include "eval/influence_attack.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "graph/datasets.h"
#include "linalg/ops.h"
#include "nn/loss.h"
#include "sparse/csr_matrix.h"
#include "rng/rng.h"

namespace gcon {
namespace {

TEST(Metrics, ArgmaxPredictions) {
  Matrix logits{{0.1, 0.9}, {2.0, -1.0}, {0.5, 0.5}};
  const auto pred = ArgmaxPredictions(logits);
  EXPECT_EQ(pred, (std::vector<int>{1, 0, 0}));
}

TEST(Metrics, MicroF1EqualsAccuracyForSingleLabel) {
  const std::vector<int> pred = {0, 1, 2, 1, 0, 2, 2};
  const std::vector<int> labels = {0, 1, 1, 1, 2, 2, 2};
  std::vector<int> idx(7);
  for (int i = 0; i < 7; ++i) idx[static_cast<std::size_t>(i)] = i;
  double correct = 0;
  for (int i : idx) {
    if (pred[static_cast<std::size_t>(i)] == labels[static_cast<std::size_t>(i)]) {
      ++correct;
    }
  }
  EXPECT_NEAR(MicroF1(pred, labels, idx, 3), correct / 7.0, 1e-12);
}

TEST(Metrics, PerfectAndWorstCase) {
  const std::vector<int> labels = {0, 1, 0, 1};
  const std::vector<int> idx = {0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(MicroF1(labels, labels, idx, 2), 1.0);
  const std::vector<int> wrong = {1, 0, 1, 0};
  EXPECT_DOUBLE_EQ(MicroF1(wrong, labels, idx, 2), 0.0);
  EXPECT_DOUBLE_EQ(MacroF1(labels, labels, idx, 2), 1.0);
}

TEST(Metrics, MacroF1HandComputed) {
  // pred:   0 0 1 1 ; labels: 0 1 1 1.
  // class0: tp=1 fp=1 fn=0 -> f1 = 2/3. class1: tp=2 fp=0 fn=1 -> f1 = 4/5.
  const std::vector<int> pred = {0, 0, 1, 1};
  const std::vector<int> labels = {0, 1, 1, 1};
  const std::vector<int> idx = {0, 1, 2, 3};
  EXPECT_NEAR(MacroF1(pred, labels, idx, 2), 0.5 * (2.0 / 3.0 + 0.8), 1e-12);
}

TEST(Metrics, MacroSkipsAbsentClasses) {
  const std::vector<int> pred = {0, 0};
  const std::vector<int> labels = {0, 0};
  const std::vector<int> idx = {0, 1};
  // Class 1 and 2 absent entirely -> macro over class 0 only.
  EXPECT_DOUBLE_EQ(MacroF1(pred, labels, idx, 3), 1.0);
}

TEST(Metrics, EmptyIndexGivesZero) {
  EXPECT_DOUBLE_EQ(MicroF1({}, {}, {}, 3), 0.0);
  EXPECT_DOUBLE_EQ(MacroF1({}, {}, {}, 3), 0.0);
}

TEST(Metrics, SubsetEvaluation) {
  const std::vector<int> pred = {0, 1, 0};
  const std::vector<int> labels = {0, 0, 0};
  EXPECT_DOUBLE_EQ(MicroF1(pred, labels, {0, 2}, 2), 1.0);
  EXPECT_DOUBLE_EQ(MicroF1(pred, labels, {1}, 2), 0.0);
}

TEST(Experiment, SummarizeMeanStd) {
  const RunStats stats = Summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(stats.mean, 2.5);
  EXPECT_NEAR(stats.stddev, std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_EQ(stats.count, 4);
  const RunStats single = Summarize({7.0});
  EXPECT_DOUBLE_EQ(single.mean, 7.0);
  EXPECT_DOUBLE_EQ(single.stddev, 0.0);
  EXPECT_EQ(Summarize({}).count, 0);
}

TEST(Experiment, SeriesTablePrints) {
  SeriesTable table("Fig X", "eps", {"gcon", "gap"});
  table.AddRow("0.5", {0.7123, 0.5011}, {0.01, 0.02});
  table.AddRow("1", {0.75, std::nan("")});
  std::ostringstream out;
  table.Print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("Fig X"), std::string::npos);
  EXPECT_NE(text.find("gcon"), std::string::npos);
  EXPECT_NE(text.find("0.7123"), std::string::npos);
  EXPECT_NE(text.find("±"), std::string::npos);
  EXPECT_NE(text.find("-"), std::string::npos);  // NaN cell
}

TEST(Attack, AucKnownCases) {
  // Perfect separation.
  EXPECT_DOUBLE_EQ(RankingAuc({2.0, 3.0}, {0.0, 1.0}), 1.0);
  // Reversed.
  EXPECT_DOUBLE_EQ(RankingAuc({0.0, 1.0}, {2.0, 3.0}), 0.0);
  // All tied -> 0.5.
  EXPECT_DOUBLE_EQ(RankingAuc({1.0, 1.0}, {1.0, 1.0}), 0.5);
  // Hand-computed mix: pos {3, 1}, neg {2, 0}: pairs (3>2),(3>0),(1<2),(1>0)
  // -> 3/4.
  EXPECT_DOUBLE_EQ(RankingAuc({3.0, 1.0}, {2.0, 0.0}), 0.75);
  // Degenerate inputs.
  EXPECT_DOUBLE_EQ(RankingAuc({}, {1.0}), 0.5);
}

TEST(Attack, DetectsLeakyModel) {
  // Construct logits that blatantly leak edges: connected nodes get nearly
  // identical posterior vectors (propagated labels on a homophilous graph).
  Rng gen(1);
  const Graph graph = GenerateDataset(TinySpec(), &gen);
  Matrix leaky(static_cast<std::size_t>(graph.num_nodes()),
               static_cast<std::size_t>(graph.num_classes()));
  // Each node's logits = average of its and neighbors' one-hot labels.
  for (int v = 0; v < graph.num_nodes(); ++v) {
    leaky(static_cast<std::size_t>(v),
          static_cast<std::size_t>(graph.label(v))) += 2.0;
    for (int u : graph.Neighbors(v)) {
      leaky(static_cast<std::size_t>(v),
            static_cast<std::size_t>(graph.label(u))) += 1.0;
    }
  }
  Rng rng(2);
  const AttackResult result =
      PosteriorSimilarityAttack(leaky, graph, 300, &rng);
  EXPECT_GT(result.num_positive, 100);
  EXPECT_GT(result.auc, 0.6) << "attack should succeed on a leaky model";
}

TEST(InfluenceAttack, RecoversEdgesFromPropagatedInference) {
  // Forward = one-hop mean aggregation of features: v influences u iff
  // (u, v) is an edge, so the attack should separate perfectly.
  Rng gen(11);
  const Graph graph = GenerateDataset(TinySpec(), &gen);
  const CsrMatrix adjacency = graph.AdjacencyCsr();
  auto forward = [&](const Matrix& x) {
    Matrix agg = adjacency.Multiply(x);
    AxpyInPlace(1.0, x, &agg);  // self + neighbors
    return agg;
  };
  Rng rng(12);
  const auto result =
      InfluenceAttack(forward, graph.features().ToDense(), graph, 150, 0.05,
                      &rng);
  EXPECT_GT(result.num_positive, 100);
  EXPECT_GT(result.auc, 0.95);
}

TEST(InfluenceAttack, BlindAgainstEdgeFreeModel) {
  // Forward ignores the graph entirely: influence of v on u != v is zero,
  // so edges and non-edges are indistinguishable (all ties -> AUC 1/2).
  Rng gen(13);
  const Graph graph = GenerateDataset(TinySpec(), &gen);
  auto forward = [&](const Matrix& x) { return x; };
  Rng rng(14);
  const auto result =
      InfluenceAttack(forward, graph.features().ToDense(), graph, 150, 0.05,
                      &rng);
  EXPECT_NEAR(result.auc, 0.5, 0.05);
}

TEST(InfluenceAttack, TwoHopForwardLeaksMoreThanZeroHop) {
  Rng gen(15);
  const Graph graph = GenerateDataset(TinySpec(), &gen);
  const CsrMatrix adjacency = graph.AdjacencyCsr();
  auto two_hop = [&](const Matrix& x) {
    Matrix h = adjacency.Multiply(x);
    AxpyInPlace(1.0, x, &h);
    Matrix h2 = adjacency.Multiply(h);
    AxpyInPlace(1.0, h, &h2);
    return h2;
  };
  auto zero_hop = [&](const Matrix& x) { return x; };
  Rng rng_a(16), rng_b(17);
  const Matrix x = graph.features().ToDense();
  const double auc_two =
      InfluenceAttack(two_hop, x, graph, 120, 0.05, &rng_a).auc;
  const double auc_zero =
      InfluenceAttack(zero_hop, x, graph, 120, 0.05, &rng_b).auc;
  EXPECT_GT(auc_two, auc_zero + 0.2);
}

TEST(Attack, NearChanceOnEdgeFreeModel) {
  // Logits independent of the topology (pure noise) leak nothing; the AUC
  // may deviate slightly from 1/2 because homophily correlates posteriors
  // with edges even without leakage, so use pure random logits.
  Rng gen(3);
  const Graph graph = GenerateDataset(TinySpec(), &gen);
  Matrix random_logits(static_cast<std::size_t>(graph.num_nodes()),
                       static_cast<std::size_t>(graph.num_classes()));
  Rng noise(4);
  for (std::size_t k = 0; k < random_logits.size(); ++k) {
    random_logits.data()[k] = noise.Uniform(-1.0, 1.0);
  }
  Rng rng(5);
  const AttackResult result =
      PosteriorSimilarityAttack(random_logits, graph, 300, &rng);
  EXPECT_NEAR(result.auc, 0.5, 0.08);
}

}  // namespace
}  // namespace gcon
