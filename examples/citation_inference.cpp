// The deployment story, end to end (§IV-C6 + the serving subsystem):
//
//   ./build/citation_inference [--epsilon=2.0]
//
// A publisher trains GCON on its private citation graph, *publishes* the
// release artifact (model_io.h — DP parameters, edge-free encoder,
// hyperparameters, privacy receipt), and an untrusted consumer serves it:
//   (i)  an in-process InferenceServer answers per-author queries through
//        the micro-batching engine, each author revealing only their own
//        references (Eq. 16; bitwise identical to offline inference);
//   (ii) one author queries with a *pruned* private reference list —
//        the served answer reflects exactly the edges they chose to send;
//   (iii) the same artifact serves a different citation graph entirely
//        (transfer): new session, same file, no extra privacy budget;
//   (iv) a brand-new author — not in the serving graph at all — queries
//        inductively: the request carries their raw feature vector and
//        reference list, and the answer is bitwise identical to offline
//        inference on the graph augmented with that author.
// The offline public-graph path (full APPR propagation) is kept for
// contrast with (i).
#include <cstdio>
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "core/gcon.h"
#include "core/model_io.h"
#include "eval/metrics.h"
#include "graph/datasets.h"
#include "rng/rng.h"
#include "serve/inference_session.h"
#include "serve/server.h"

int main(int argc, char** argv) {
  gcon::Flags flags(argc, argv, {{"epsilon", "privacy budget"}});
  const double epsilon = flags.GetDouble("epsilon", 2.0);

  const gcon::DatasetSpec spec = gcon::Scaled(gcon::CiteSeerSpec(), 0.15);
  gcon::Rng rng(3);
  const gcon::Graph graph = gcon::GenerateDataset(spec, &rng);
  const gcon::Split split = gcon::MakeSplit(spec, graph, &rng);
  const double delta = 1.0 / static_cast<double>(2 * graph.num_edges());

  // --- publisher side: train under edge DP, publish the artifact --------
  gcon::GconConfig config;
  config.epsilon = epsilon;
  config.delta = delta;
  config.alpha = 0.8;  // best on CiteSeer per Figure 4
  config.steps = {2};
  config.encoder.hidden = 32;
  config.encoder.out_dim = 16;
  config.expand_train_set = true;
  config.seed = 5;
  const gcon::GconPrepared prepared = gcon::PrepareGcon(graph, split, config);
  const gcon::GconModel model =
      gcon::TrainPrepared(prepared, epsilon, delta, 9);

  const std::string model_path = "/tmp/gcon_example_citeseer.model";
  gcon::SaveModel(gcon::MakeArtifact(prepared, model, epsilon, delta),
                  model_path);
  std::cout << "published " << model_path << " (epsilon=" << epsilon
            << ", delta=" << delta << ")\n";

  auto f1 = [&](const gcon::Graph& g, const gcon::Matrix& logits,
                const std::vector<int>& idx) {
    return gcon::MicroF1FromLogits(logits, g.labels(), idx, g.num_classes());
  };

  // --- consumer side: load the artifact once, serve queries ------------
  gcon::ServeOptions options;
  options.threads = 2;
  options.max_batch = 16;
  options.max_wait_us = 200;
  gcon::InferenceServer server(
      gcon::InferenceSession::FromFile(model_path, graph), options);

  // (i) every test author queries concurrently; each request reads only
  // that author's own reference list (no extra privacy cost).
  gcon::Matrix served(static_cast<std::size_t>(graph.num_nodes()),
                      static_cast<std::size_t>(graph.num_classes()));
  {
    std::vector<std::thread> clients;
    const int kClients = 4;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int v = c; v < graph.num_nodes(); v += kClients) {
          gcon::ServeRequest request;
          request.id = v;
          request.node = v;
          const gcon::ServeResponse response = server.Query(request);
          for (int j = 0; j < graph.num_classes(); ++j) {
            served(static_cast<std::size_t>(v), static_cast<std::size_t>(j)) =
                response.logits[static_cast<std::size_t>(j)];
          }
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  std::cout << "(i)   served private queries  micro-F1 = "
            << f1(graph, served, split.test) << "\n";

  // (ii) one author sends a pruned reference list: the server uses exactly
  // the edges the query carries, nothing else.
  int author = split.test.front();
  for (int v : split.test) {
    if (graph.Degree(v) >= 2) author = v;
  }
  gcon::ServeRequest pruned;
  pruned.node = author;
  pruned.has_edges = true;
  const std::vector<int>& refs = graph.Neighbors(author);
  pruned.edges.assign(refs.begin(), refs.begin() + refs.size() / 2);
  const gcon::ServeResponse pruned_response = server.Query(pruned);
  std::cout << "(ii)  author " << author << " with " << pruned.edges.size()
            << "/" << refs.size() << " references revealed -> label "
            << pruned_response.label << " (full list -> label "
            << gcon::ArgmaxPredictions(served)[static_cast<std::size_t>(
                   author)]
            << ")\n";

  // Offline public-graph inference for contrast: the full receptive field
  // (Figure 3), available when the test graph's edges are public.
  const gcon::Matrix public_logits = gcon::PublicInference(prepared, model);
  std::cout << "(pub) offline public graph    micro-F1 = "
            << f1(graph, public_logits, split.test) << "\n";

  // (iii) transfer: the same published file serves a fresh graph from the
  // same domain — new session, zero additional privacy budget.
  gcon::Rng rng2(17);
  const gcon::Graph other = gcon::GenerateDataset(spec, &rng2);
  gcon::InferenceServer transfer_server(
      gcon::InferenceSession::FromFile(model_path, other), options);
  gcon::Matrix transfer(static_cast<std::size_t>(other.num_nodes()),
                        static_cast<std::size_t>(other.num_classes()));
  std::vector<int> all_nodes;
  for (int v = 0; v < other.num_nodes(); ++v) {
    all_nodes.push_back(v);
    gcon::ServeRequest request;
    request.node = v;
    const gcon::ServeResponse response = transfer_server.Query(request);
    for (int j = 0; j < other.num_classes(); ++j) {
      transfer(static_cast<std::size_t>(v), static_cast<std::size_t>(j)) =
          response.logits[static_cast<std::size_t>(j)];
    }
  }
  std::cout << "(iii) served transfer graph   micro-F1 = "
            << f1(other, transfer, all_nodes) << "\n";

  // (iv) inductive: a brand-new author sends their own features and
  // reference list — no node id, because they are not in the graph. The
  // server encodes the features through the published MLP and runs the
  // Eq. (16) hop as if the graph held them at index n.
  gcon::ServeRequest newcomer;
  newcomer.has_features = true;
  newcomer.features = graph.features().RowCopy(
      static_cast<std::size_t>(author));  // their manuscript's word counts
  newcomer.has_edges = true;
  newcomer.edges = {split.test[0], split.test[1], split.test[2]};
  const gcon::ServeResponse inductive = server.Query(newcomer);

  // The served bits equal offline inference on the explicitly augmented
  // graph — the equivalence tests/serve_inductive_test.cc locks down.
  const int n = graph.num_nodes();
  gcon::Graph augmented(n + 1, graph.num_classes());
  gcon::Matrix row(1, static_cast<std::size_t>(graph.feature_dim()));
  std::copy(newcomer.features.begin(), newcomer.features.end(), row.data());
  augmented.set_features(gcon::StackRows(graph.features(),
                                         gcon::CsrMatrix::FromDense(row)));
  for (const auto& [u, v] : graph.EdgeList()) augmented.AddEdge(u, v);
  for (int u : newcomer.edges) augmented.AddEdge(n, u);
  const gcon::Matrix augmented_logits =
      gcon::LoadModel(model_path).Infer(augmented);
  const bool bitwise_equal =
      std::memcmp(augmented_logits.RowPtr(static_cast<std::size_t>(n)),
                  inductive.logits.data(),
                  inductive.logits.size() * sizeof(double)) == 0;
  std::cout << "(iv)  inductive newcomer with " << newcomer.edges.size()
            << " references -> label " << inductive.label
            << (bitwise_equal ? " (bitwise = offline on augmented graph)"
                              : " (MISMATCH vs augmented offline!)")
            << "\n";

  const gcon::LatencyStats::Snapshot lat = server.latency();
  std::cout << "\nserver handled " << server.queries_served()
            << " queries in " << server.batches_run() << " micro-batches ("
            << lat.ToString() << ").\n"
            << "Everything served is post-processing of the published DP\n"
            << "artifact plus each query's own edges - no privacy budget\n"
            << "is spent at serving time.\n";
  std::remove(model_path.c_str());
  return 0;
}
