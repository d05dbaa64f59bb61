// Plain-text serialization for attributed graphs.
//
// Format ("gcon-graph v1", line-oriented):
//   gcon-graph v1
//   nodes <n> classes <c> features <d> edges <m>
//   L <node> <label>                     (n lines)
//   F <node> <idx>:<val> <idx>:<val> ... (n lines, sparse features)
//   E <u> <v>                            (m lines, u < v)
// This lets users plug in the real Cora-ML/CiteSeer/PubMed/Actor data by
// converting them to this format; everything downstream is agnostic to
// whether the graph came from a file or a generator.
//
// Feature values are written in their shortest round-trip form, so a saved
// graph loads back with the same bits (-0 included). The loader builds the
// CSR feature matrix directly: the result equals CsrMatrix::FromDense of
// the dense matrix the records describe, written in file order — indices
// need not be sorted, a repeated index keeps its last value, `j:0` stores
// nothing and `j:-0` stores -0. Blank lines are skipped.
#ifndef GCON_GRAPH_IO_H_
#define GCON_GRAPH_IO_H_

#include <istream>
#include <string>

#include "graph/graph.h"

namespace gcon {

/// Writes `graph` to `path`. Aborts on I/O failure.
void SaveGraph(const Graph& graph, const std::string& path);

/// Reads a graph from `path`. Throws std::runtime_error if the file cannot
/// be opened or is malformed (see the stream overload).
Graph LoadGraph(const std::string& path);

/// Reads a graph from `in`; `path` only labels error messages. A malformed
/// input (bad magic or header, a header whose sizes exceed the loader's
/// bounds, an unknown record, a malformed number, an out-of-range node,
/// label or feature index, a duplicate edge or self loop, or an edge count
/// that does not match the header) throws std::runtime_error naming the
/// line. The header is bounded before anything is allocated from it.
Graph LoadGraph(std::istream& in, const std::string& path);

}  // namespace gcon

#endif  // GCON_GRAPH_IO_H_
