// Shared fixtures for the serving test suites (serve_test,
// serve_conformance_test, serve_inductive_test): the synthetic
// serving-shaped artifact, the tiny test graph, the bitwise row
// comparator, and — load-bearing for the inductive contract — the ONE
// definition of "the graph augmented with a feature-carrying query's
// node". Every suite that states the serve(features) == offline(augmented)
// equivalence must build the offline side through AugmentGraph below, so
// a change to the augmentation semantics hits every suite at once instead
// of silently forking the contract.
#ifndef GCON_TESTS_SERVE_TEST_UTIL_H_
#define GCON_TESTS_SERVE_TEST_UTIL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "core/model_io.h"
#include "graph/datasets.h"
#include "nn/mlp.h"
#include "rng/rng.h"
#include "serve/server.h"

namespace gcon {
namespace serve_test {

/// A serving-shaped artifact without the training cost: fresh Glorot
/// encoder, random theta. The serving layer never looks at model quality,
/// only at the numerics of the inference path.
inline GconArtifact SyntheticArtifact(const Graph& graph,
                                      std::vector<int> steps, int d1,
                                      std::uint64_t seed) {
  MlpOptions options;
  options.dims = {graph.feature_dim(), 16, d1, graph.num_classes()};
  options.seed = seed;
  Mlp encoder(options);
  Matrix theta(steps.size() * static_cast<std::size_t>(d1),
               static_cast<std::size_t>(graph.num_classes()));
  Rng rng(seed + 1);
  for (std::size_t k = 0; k < theta.size(); ++k) {
    theta.data()[k] = rng.Uniform(-0.5, 0.5);
  }
  return GconArtifact{std::move(theta), std::move(encoder), std::move(steps),
                      /*alpha=*/0.7,    /*alpha_inference=*/-1.0,
                      /*epsilon=*/1.0,  /*delta=*/1e-5,
                      PrivacyParams{}};
}

inline Graph TestGraph(std::uint64_t seed = 9) {
  Rng rng(seed);
  return GenerateDataset(TinySpec(), &rng);
}

/// TestGraph with `features` feature columns: wide enough that one
/// feature-carrying request outgrows a single server-side socket read, or
/// that a short burst of them spans many receive buffers.
inline Graph WideTestGraph(int features, std::uint64_t seed = 9) {
  DatasetSpec spec = TinySpec();
  spec.num_features = features;
  Rng rng(seed);
  return GenerateDataset(spec, &rng);
}

/// One InferenceServer behind the real TCP front end on an ephemeral port,
/// for tests that need a server unlike their suite's fixture. Stops (and
/// joins the listener) on destruction.
class TcpServerHarness {
 public:
  TcpServerHarness(std::vector<ModelRouter::NamedModel> models,
                   ServeOptions options)
      : server_(std::move(models), options) {
    listener_ = std::thread(
        [this] { RunTcpServer(&server_, /*port=*/0, &stop_, &port_); });
    while (port_.load(std::memory_order_acquire) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~TcpServerHarness() {
    stop_.store(true, std::memory_order_release);
    listener_.join();
  }

  int port() const { return port_.load(std::memory_order_acquire); }

 private:
  InferenceServer server_;
  std::atomic<bool> stop_{false};
  std::atomic<int> port_{0};
  std::thread listener_;
};

/// The graph a feature-carrying query implies: the query node appended at
/// index n with the given features and (in-range, deduplicated by AddEdge)
/// edges. This is the offline side of the equivalence the serving tier
/// promises.
inline Graph AugmentGraph(const Graph& graph,
                          const std::vector<double>& features,
                          const std::vector<int>& edges) {
  const int n = graph.num_nodes();
  Graph augmented(n + 1, graph.num_classes());
  for (int v = 0; v < n; ++v) augmented.set_label(v, graph.label(v));
  Matrix row(1, static_cast<std::size_t>(graph.feature_dim()));
  std::copy(features.begin(), features.end(), row.data());
  augmented.set_features(
      StackRows(graph.features(), CsrMatrix::FromDense(row)));
  for (const auto& [u, v] : graph.EdgeList()) augmented.AddEdge(u, v);
  for (int u : edges) {
    if (u >= 0 && u < n) augmented.AddEdge(n, u);
  }
  return augmented;
}

inline bool BitwiseEqualRow(const Matrix& m, std::size_t row,
                            const std::vector<double>& values) {
  if (values.size() != m.cols()) return false;
  return std::memcmp(m.RowPtr(row), values.data(),
                     m.cols() * sizeof(double)) == 0;
}

}  // namespace serve_test
}  // namespace gcon

#endif  // GCON_TESTS_SERVE_TEST_UTIL_H_
