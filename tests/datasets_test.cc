#include <gtest/gtest.h>

#include <cmath>

#include "graph/datasets.h"
#include "graph/stats.h"
#include "rng/rng.h"

namespace gcon {
namespace {

TEST(Specs, TableTwoNumbers) {
  const DatasetSpec cora = CoraMlSpec();
  EXPECT_EQ(cora.num_nodes, 2995);
  EXPECT_EQ(cora.num_undirected_edges, 8158u);  // 16,316 directed
  EXPECT_EQ(cora.num_features, 2879);
  EXPECT_EQ(cora.num_classes, 7);
  EXPECT_NEAR(cora.homophily, 0.81, 1e-9);

  const DatasetSpec cite = CiteSeerSpec();
  EXPECT_EQ(cite.num_nodes, 3327);
  EXPECT_EQ(cite.num_classes, 6);
  EXPECT_NEAR(cite.homophily, 0.71, 1e-9);

  const DatasetSpec pubmed = PubMedSpec();
  EXPECT_EQ(pubmed.num_nodes, 19717);
  EXPECT_EQ(pubmed.num_features, 500);
  EXPECT_EQ(pubmed.num_classes, 3);

  const DatasetSpec actor = ActorSpec();
  EXPECT_EQ(actor.num_nodes, 7600);
  EXPECT_EQ(actor.num_classes, 5);
  EXPECT_NEAR(actor.homophily, 0.22, 1e-9);
  EXPECT_FALSE(actor.planetoid_split);
}

TEST(Specs, SpecByNameRoundTrip) {
  EXPECT_EQ(SpecByName("cora_ml").name, "cora_ml");
  EXPECT_EQ(SpecByName("citeseer").name, "citeseer");
  EXPECT_EQ(SpecByName("pubmed").name, "pubmed");
  EXPECT_EQ(SpecByName("actor").name, "actor");
  EXPECT_EQ(SpecByName("tiny").name, "tiny");
  EXPECT_EQ(PaperSpecs().size(), 4u);
}

TEST(Specs, ScaledShrinksProportionally) {
  const DatasetSpec full = PubMedSpec();
  const DatasetSpec half = Scaled(full, 0.1);
  EXPECT_EQ(half.num_nodes, static_cast<int>(full.num_nodes * 0.1));
  EXPECT_LT(half.num_undirected_edges, full.num_undirected_edges);
  EXPECT_LE(half.num_features, full.num_features);
  EXPECT_EQ(half.num_classes, full.num_classes);
  EXPECT_DOUBLE_EQ(half.homophily, full.homophily);
  // Identity scale returns the spec unchanged.
  const DatasetSpec same = Scaled(full, 1.0);
  EXPECT_EQ(same.num_nodes, full.num_nodes);
  EXPECT_EQ(same.num_undirected_edges, full.num_undirected_edges);
}

class GeneratorCalibration : public ::testing::TestWithParam<const char*> {};

TEST_P(GeneratorCalibration, MatchesSpec) {
  // Scaled-down for test speed; calibration properties must survive scaling.
  const DatasetSpec spec = Scaled(SpecByName(GetParam()), 0.15);
  Rng rng(99);
  const Graph graph = GenerateDataset(spec, &rng);
  graph.CheckConsistency();

  EXPECT_EQ(graph.num_nodes(), spec.num_nodes);
  EXPECT_EQ(graph.num_classes(), spec.num_classes);
  EXPECT_EQ(graph.feature_dim(), spec.num_features);
  // Edge count within 2% of target (generator stops exactly at target
  // unless the attempt cap was hit).
  EXPECT_GE(graph.num_edges(),
            static_cast<std::size_t>(0.98 * spec.num_undirected_edges));
  EXPECT_LE(graph.num_edges(), spec.num_undirected_edges);
  // Homophily tracks the per-edge same-label probability.
  EXPECT_NEAR(HomophilyRatio(graph), spec.homophily, 0.08);
  // Balanced classes.
  for (int c = 0; c < spec.num_classes; ++c) {
    EXPECT_NEAR(ClassFraction(graph, c), 1.0 / spec.num_classes, 0.02);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperDatasets, GeneratorCalibration,
                         ::testing::Values("cora_ml", "citeseer", "pubmed",
                                           "actor"));

TEST(Generator, FeaturesAreSparseNonNegative) {
  Rng rng(7);
  const Graph graph = GenerateDataset(TinySpec(), &rng);
  const Matrix x = graph.features().ToDense();
  std::size_t nonzero = 0;
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_GE(x.data()[k], 0.0);
    if (x.data()[k] != 0.0) ++nonzero;
  }
  EXPECT_GT(nonzero, 0u);
  EXPECT_LT(nonzero, x.size() / 2);  // sparse
  // Every node has at least one active word (no all-zero feature rows).
  for (std::size_t i = 0; i < x.rows(); ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < x.cols(); ++j) row_sum += x(i, j);
    EXPECT_GT(row_sum, 0.0) << "node " << i;
  }
}

TEST(Generator, FeaturesAreClassInformative) {
  // Same-class nodes share topic blocks, so mean intra-class feature dot
  // product should exceed inter-class. This is what makes the MLP baseline
  // meaningful (as in the real citation data).
  Rng rng(8);
  const Graph graph = GenerateDataset(TinySpec(), &rng);
  const Matrix x = graph.features().ToDense();
  double intra = 0.0, inter = 0.0;
  int intra_n = 0, inter_n = 0;
  for (int u = 0; u < graph.num_nodes(); ++u) {
    for (int v = u + 1; v < graph.num_nodes(); ++v) {
      double dot = 0.0;
      for (std::size_t j = 0; j < x.cols(); ++j) {
        dot += x(static_cast<std::size_t>(u), j) * x(static_cast<std::size_t>(v), j);
      }
      if (graph.label(u) == graph.label(v)) {
        intra += dot;
        ++intra_n;
      } else {
        inter += dot;
        ++inter_n;
      }
    }
  }
  EXPECT_GT(intra / intra_n, 1.3 * (inter / inter_n));
}

TEST(Generator, DegreeDistributionIsSkewed) {
  Rng rng(9);
  DatasetSpec spec = TinySpec();
  spec.num_nodes = 400;
  spec.num_undirected_edges = 1200;
  const Graph graph = GenerateDataset(spec, &rng);
  // Preferential weights should give max degree well above the mean.
  EXPECT_GT(MaxDegree(graph), 3 * MeanDegree(graph));
}

TEST(Generator, DeterministicGivenSeed) {
  Rng rng_a(123), rng_b(123);
  const Graph a = GenerateDataset(TinySpec(), &rng_a);
  const Graph b = GenerateDataset(TinySpec(), &rng_b);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.EdgeList(), b.EdgeList());
  EXPECT_TRUE(a.features().ToDense().AllClose(b.features().ToDense()));
}

TEST(Generator, MakeSplitRespectsPolicy) {
  Rng rng(10);
  const DatasetSpec tiny = TinySpec();  // planetoid policy
  const Graph graph = GenerateDataset(tiny, &rng);
  const Split split = MakeSplit(tiny, graph, &rng);
  EXPECT_EQ(split.train.size(),
            static_cast<std::size_t>(tiny.train_per_class * tiny.num_classes));

  DatasetSpec actorish = TinySpec();
  actorish.planetoid_split = false;  // 60/20/20
  const Split prop = MakeSplit(actorish, graph, &rng);
  EXPECT_EQ(prop.train.size(), static_cast<std::size_t>(0.6 * tiny.num_nodes));
}

}  // namespace
}  // namespace gcon
