// Attributed undirected graph for node classification.
//
// A Graph owns: sorted adjacency lists (no self-loops; symmetry is enforced
// by construction), the node-feature matrix X (n x d0) in CSR form —
// bag-of-words features are 94–99% zeros, so X is never stored dense —
// integer labels, and the class count. Single-edge Add/Remove are provided
// because the edge-DP analysis is exercised by property tests that compare
// neighboring graphs D and D' differing in exactly one edge.
#ifndef GCON_GRAPH_GRAPH_H_
#define GCON_GRAPH_GRAPH_H_

#include <string>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "sparse/csr_matrix.h"

namespace gcon {

class Graph {
 public:
  Graph() : num_classes_(0) {}

  /// Creates a graph with `num_nodes` isolated nodes.
  Graph(int num_nodes, int num_classes)
      : adj_(static_cast<std::size_t>(num_nodes)),
        labels_(static_cast<std::size_t>(num_nodes), 0),
        num_classes_(num_classes) {}

  int num_nodes() const { return static_cast<int>(adj_.size()); }
  int num_classes() const { return num_classes_; }

  /// Number of undirected edges.
  std::size_t num_edges() const { return num_edges_; }

  /// Adds undirected edge {u, v}. Returns false (no-op) if it already exists
  /// or u == v.
  bool AddEdge(int u, int v);

  /// Removes undirected edge {u, v}. Returns false if absent.
  bool RemoveEdge(int u, int v);

  bool HasEdge(int u, int v) const;

  int Degree(int v) const {
    return static_cast<int>(adj_[static_cast<std::size_t>(v)].size());
  }

  const std::vector<int>& Neighbors(int v) const {
    return adj_[static_cast<std::size_t>(v)];
  }

  /// All undirected edges as (u, v) with u < v.
  std::vector<std::pair<int, int>> EdgeList() const;

  // --- attributes ---------------------------------------------------------

  /// X in canonical CSR form (CsrMatrix::FromDense of the dense X: every
  /// entry but +0 stored). Callers that need dense rows call ToDense().
  void set_features(CsrMatrix x) { features_ = std::move(x); }
  const CsrMatrix& features() const { return features_; }
  int feature_dim() const { return static_cast<int>(features_.cols()); }

  void set_label(int v, int label);
  int label(int v) const { return labels_[static_cast<std::size_t>(v)]; }
  const std::vector<int>& labels() const { return labels_; }

  /// One-hot label matrix Y (n x c).
  Matrix OneHotLabels() const;

  // --- linear-algebra views ------------------------------------------------

  /// Adjacency matrix A as CSR (0/1 entries, no self-loops).
  CsrMatrix AdjacencyCsr() const;

  /// Validates internal invariants (sorted neighbor lists, symmetry, no
  /// self-loops, label range). Aborts on violation; used by tests and after
  /// deserialization.
  void CheckConsistency() const;

 private:
  std::vector<std::vector<int>> adj_;
  std::vector<int> labels_;
  CsrMatrix features_;
  int num_classes_;
  std::size_t num_edges_ = 0;
};

}  // namespace gcon

#endif  // GCON_GRAPH_GRAPH_H_
