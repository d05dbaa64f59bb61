#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/io.h"
#include "graph/splits.h"
#include "graph/stats.h"
#include "rng/rng.h"

namespace gcon {
namespace {

Graph TriangleGraph() {
  Graph g(4, 2);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.set_label(0, 0);
  g.set_label(1, 0);
  g.set_label(2, 1);
  g.set_label(3, 1);
  Matrix x(4, 2);
  x(0, 0) = 1.0;
  x(1, 0) = 1.0;
  x(2, 1) = 1.0;
  x(3, 1) = 1.0;
  g.set_features(CsrMatrix::FromDense(x));
  return g;
}

TEST(Graph, AddRemoveEdge) {
  Graph g(5, 2);
  EXPECT_TRUE(g.AddEdge(0, 1));
  EXPECT_FALSE(g.AddEdge(0, 1));  // duplicate
  EXPECT_FALSE(g.AddEdge(1, 0));  // same undirected edge
  EXPECT_FALSE(g.AddEdge(2, 2));  // self loop rejected
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.RemoveEdge(1, 0));
  EXPECT_FALSE(g.RemoveEdge(0, 1));  // already gone
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, DegreesAndNeighbors) {
  const Graph g = TriangleGraph();
  EXPECT_EQ(g.Degree(0), 2);
  EXPECT_EQ(g.Degree(3), 0);
  const auto& nbrs = g.Neighbors(1);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0], 0);
  EXPECT_EQ(nbrs[1], 2);
}

TEST(Graph, EdgeListCanonical) {
  const Graph g = TriangleGraph();
  const auto edges = g.EdgeList();
  ASSERT_EQ(edges.size(), 3u);
  for (const auto& [u, v] : edges) {
    EXPECT_LT(u, v);
  }
}

TEST(Graph, OneHotLabels) {
  const Graph g = TriangleGraph();
  const Matrix y = g.OneHotLabels();
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.cols(), 2u);
  EXPECT_DOUBLE_EQ(y(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(y(2, 1), 1.0);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(y(i, 0) + y(i, 1), 1.0);
  }
}

TEST(Graph, AdjacencyCsrSymmetricNoSelfLoops) {
  const Graph g = TriangleGraph();
  const CsrMatrix a = g.AdjacencyCsr();
  EXPECT_EQ(a.nnz(), 6u);  // 3 undirected edges = 6 entries
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(a.At(static_cast<std::size_t>(i),
                          static_cast<std::size_t>(i)),
                     0.0);
    for (int j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(a.At(static_cast<std::size_t>(i),
                            static_cast<std::size_t>(j)),
                       a.At(static_cast<std::size_t>(j),
                            static_cast<std::size_t>(i)));
    }
  }
}

TEST(Graph, CheckConsistencyPasses) {
  const Graph g = TriangleGraph();
  g.CheckConsistency();  // aborts on violation
}

TEST(Stats, HomophilyRatio) {
  // Triangle 0-1-2 with labels {0,0,1}: node 0 has neighbors {1 (same), 2
  // (diff)} -> 1/2; node 1 likewise 1/2; node 2 has {0,1} both diff -> 0.
  // Node 3 is isolated and skipped. Mean = (0.5+0.5+0)/3.
  const Graph g = TriangleGraph();
  EXPECT_NEAR(HomophilyRatio(g), (0.5 + 0.5 + 0.0) / 3.0, 1e-12);
}

TEST(Stats, DegreeStats) {
  const Graph g = TriangleGraph();
  EXPECT_EQ(MaxDegree(g), 2);
  EXPECT_DOUBLE_EQ(MeanDegree(g), 2.0 * 3.0 / 4.0);
  EXPECT_EQ(IsolatedCount(g), 1);
}

TEST(Stats, ClassFraction) {
  const Graph g = TriangleGraph();
  EXPECT_DOUBLE_EQ(ClassFraction(g, 0), 0.5);
  EXPECT_DOUBLE_EQ(ClassFraction(g, 1), 0.5);
}

// Bitwise equality of two CSR matrices: shapes, structure and value bits.
void ExpectSameCsr(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(a.row_ptr(), b.row_ptr());
  EXPECT_EQ(a.col_idx(), b.col_idx());
  ASSERT_EQ(a.values().size(), b.values().size());
  EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(),
                        a.values().size() * sizeof(double)),
            0);
}

TEST(Io, SaveLoadRoundTrip) {
  Graph g = TriangleGraph();
  // Values the stream's default 6 significant digits would round, -0, a
  // subnormal and extremes: each must come back with the same bits.
  Matrix x = g.features().ToDense();
  x(0, 1) = 0.123456789;
  x(1, 1) = -0.0;
  x(2, 0) = 1.0 / 3.0;
  x(3, 0) = 4.9406564584124654e-324;
  x(3, 1) = -2.5e300;
  g.set_features(CsrMatrix::FromDense(x));
  const std::string path = "/tmp/gcon_io_test_graph.txt";
  SaveGraph(g, path);
  const Graph loaded = LoadGraph(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded.num_classes(), g.num_classes());
  EXPECT_EQ(loaded.num_edges(), g.num_edges());
  for (int v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(loaded.label(v), g.label(v));
  }
  ExpectSameCsr(loaded.features(), g.features());
  EXPECT_TRUE(std::signbit(loaded.features().At(1, 1)));
  EXPECT_TRUE(loaded.HasEdge(0, 1));
  EXPECT_TRUE(loaded.HasEdge(0, 2));
  EXPECT_FALSE(loaded.HasEdge(0, 3));
}

// The dense load the CSR loader replaces: every `F` entry written into a
// zeroed n x d matrix in file order (stoi/stod per token), then FromDense.
CsrMatrix DenseReferenceFeatures(const std::string& text) {
  std::istringstream in(text);
  std::string line, word;
  std::getline(in, line);  // magic
  std::getline(in, line);
  std::istringstream header(line);
  std::string k1, k2, k3;
  int n = 0, c = 0, d = 0;
  header >> k1 >> n >> k2 >> c >> k3 >> d;
  Matrix x(static_cast<std::size_t>(n), static_cast<std::size_t>(d));
  while (std::getline(in, line)) {
    std::istringstream row(line);
    if (!(row >> word) || word != "F") continue;
    int v = 0;
    row >> v;
    std::string pair;
    while (row >> pair) {
      const auto colon = pair.find(':');
      x.At(static_cast<std::size_t>(v),
           static_cast<std::size_t>(std::stoi(pair.substr(0, colon)))) =
          std::stod(pair.substr(colon + 1));
    }
  }
  return CsrMatrix::FromDense(x);
}

Graph LoadText(const std::string& text) {
  std::istringstream in(text);
  return LoadGraph(in, "<test>");
}

// What LoadGraph throws for `text`, or "" when it loads.
std::string LoadTextError(const std::string& text) {
  try {
    LoadText(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

std::string GraphText(const std::string& records) {
  return "gcon-graph v1\nnodes 3 classes 2 features 5 edges 1\n"
         "L 0 0\nL 1 1\nL 2 1\nE 0 2\n" +
         records;
}

TEST(Io, LoaderMatchesDenseLoadOnIrregularFeatures) {
  const char* cases[] = {
      // unsorted indices
      "F 0 3:1 1:2 4:0.5\nF 1\nF 2 0:7\n",
      // a repeated index keeps its last value, even a +0 or -0 one
      "F 0 1:1 1:5 2:3 2:0 3:2 3:-0\n",
      // j:0 stores nothing, j:-0 stores -0
      "F 0 0:0 1:-0 2:-0.0 3:0.0\n",
      // rows out of order, one row split over two lines
      "F 2 4:1\nF 0 2:1\nF 2 1:1 4:9\n",
      // blanks, tabs and CRs between tokens; values in every notation
      // (stod refuses subnormals, so SaveLoadRoundTrip covers those)
      "F 1  0:1e-3\t2:-4.5E+2 \r\nF 0 4:inf 3:-inf 1:2.5e-300\n\n",
  };
  for (const char* records : cases) {
    SCOPED_TRACE(records);
    const std::string text = GraphText(records);
    const Graph graph = LoadText(text);
    ExpectSameCsr(graph.features(), DenseReferenceFeatures(text));
  }
}

TEST(Io, LoaderThrowsOnMalformedFeaturesAndNodes) {
  const std::pair<const char*, const char*> cases[] = {
      {"F 0 5:1\n", "feature index 5 out of range"},
      {"F 0 -1:1\n", "feature index -1 out of range"},
      {"F 3 0:1\n", "node 3 out of range"},
      {"L 7 0\n", "node 7 out of range"},
      {"L 0 2\n", "label 2 out of range"},
      {"E 0 9\n", "node 9 out of range"},
      {"E 1 1\n", "self loop"},
      {"E 2 0\n", "duplicate edge"},
      {"F 0 1:1.5x\n", "bad feature '1:1.5x'"},
      {"F 0 1:abc\n", "bad feature"},
      {"F 0 1:\n", "bad feature"},
      {"F 0 :1\n", "bad feature"},
      {"F 0 1\n", "bad feature"},
      {"F 0 1:+2\n", "bad feature"},
      {"F 0 1:0x1p3\n", "bad feature"},
      {"F 0 1:1e999\n", "bad feature"},
      {"F x 1:1\n", "bad node 'x'"},
      {"L 0\n", "bad label ''"},
      {"L 0 1 extra\n", "trailing text"},
      {"Q 0\n", "bad record type 'Q'"},
  };
  for (const auto& [records, message] : cases) {
    SCOPED_TRACE(records);
    const std::string error = LoadTextError(GraphText(records));
    EXPECT_NE(error.find(message), std::string::npos) << error;
    EXPECT_NE(error.find("'<test>': line "), std::string::npos) << error;
  }
}

TEST(Io, LoaderBoundsTheHeaderBeforeAllocating) {
  const std::pair<const char*, const char*> cases[] = {
      {"nodes 99999999999 classes 2 features 5 edges 0",
       "nodes 99999999999 out of range"},
      {"nodes 3 classes 2 features 999999999 edges 0",
       "features 999999999 out of range"},
      {"nodes 3 classes 99999999 features 5 edges 0",
       "classes 99999999 out of range"},
      {"nodes 3 classes 2 features 5 edges 99999999999",
       "edges 99999999999 out of range"},
      {"nodes -1 classes 2 features 5 edges 0", "nodes -1 out of range"},
      {"nodes 3 classes 0 features 5 edges 0", "at least one class"},
      {"nodes 3 classes 2 features 5", "header wants 'edges'"},
      {"nodes 3 classes 2 features 5 edges 0 more", "trailing text"},
  };
  for (const auto& [header, message] : cases) {
    SCOPED_TRACE(header);
    const std::string error =
        LoadTextError(std::string("gcon-graph v1\n") + header + "\n");
    EXPECT_NE(error.find(message), std::string::npos) << error;
  }
  EXPECT_NE(LoadTextError("").find("empty file"), std::string::npos);
  EXPECT_NE(LoadTextError("gcon-graph v1\n").find("truncated"),
            std::string::npos);
}

TEST(Splits, PlanetoidPerClassCounts) {
  Rng rng(1);
  Graph g(100, 4);
  for (int v = 0; v < 100; ++v) g.set_label(v, v % 4);
  const Split split = PlanetoidSplit(g, 5, 20, 40, &rng);
  EXPECT_EQ(split.train.size(), 20u);  // 5 per class x 4
  EXPECT_EQ(split.val.size(), 20u);
  EXPECT_EQ(split.test.size(), 40u);
  std::vector<int> per_class(4, 0);
  for (int v : split.train) ++per_class[static_cast<std::size_t>(g.label(v))];
  for (int c : per_class) EXPECT_EQ(c, 5);
}

TEST(Splits, PlanetoidClampsOversizedRequests) {
  Rng rng(2);
  Graph g(30, 3);
  for (int v = 0; v < 30; ++v) g.set_label(v, v % 3);
  const Split split = PlanetoidSplit(g, 5, 1000, 1000, &rng);
  EXPECT_EQ(split.train.size(), 15u);
  EXPECT_EQ(split.val.size(), 15u);  // remainder goes to val first
  EXPECT_TRUE(split.test.empty());
}

TEST(Splits, SplitsAreDisjoint) {
  Rng rng(3);
  Graph g(200, 5);
  for (int v = 0; v < 200; ++v) g.set_label(v, v % 5);
  const Split split = PlanetoidSplit(g, 10, 50, 80, &rng);
  std::vector<bool> seen(200, false);
  for (const auto* part : {&split.train, &split.val, &split.test}) {
    for (int v : *part) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(v)]) << "node " << v;
      seen[static_cast<std::size_t>(v)] = true;
    }
  }
}

TEST(Splits, ProportionalSizes) {
  Rng rng(4);
  Graph g(100, 2);
  const Split split = ProportionalSplit(g, 0.6, 0.2, 0.2, &rng);
  EXPECT_EQ(split.train.size(), 60u);
  EXPECT_EQ(split.val.size(), 20u);
  EXPECT_EQ(split.test.size(), 20u);
}

TEST(Splits, DifferentSeedsDifferentSplits) {
  Graph g(100, 2);
  Rng rng_a(5), rng_b(6);
  const Split a = ProportionalSplit(g, 0.5, 0.2, 0.3, &rng_a);
  const Split b = ProportionalSplit(g, 0.5, 0.2, 0.3, &rng_b);
  EXPECT_NE(a.train, b.train);
}

}  // namespace
}  // namespace gcon
