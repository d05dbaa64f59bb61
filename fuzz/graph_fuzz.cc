// libFuzzer harness for the graph loader (graph/io.h).
//
// Build: cmake --preset fuzz && cmake --build --preset fuzz
// Run:   ./build-fuzz/graph_fuzz fuzz/corpus/graph -max_total_time=30
//
// Invariants under fuzz: LoadGraph on arbitrary bytes either returns a
// consistent graph whose features are canonical CSR (column indices
// strictly increasing within a row, in range, no stored +0) or throws
// std::runtime_error naming the defect — never aborts, leaks, overflows,
// or allocates unboundedly off a hostile header.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/io.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  try {
    const gcon::Graph graph = gcon::LoadGraph(in, "<fuzz>");
    graph.CheckConsistency();
    const gcon::CsrMatrix& x = graph.features();
    if (x.rows() != static_cast<std::size_t>(graph.num_nodes())) {
      __builtin_trap();
    }
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (std::int64_t k = x.row_ptr()[i]; k < x.row_ptr()[i + 1]; ++k) {
        const auto e = static_cast<std::size_t>(k);
        const std::int32_t j = x.col_idx()[e];
        const double v = x.values()[e];
        if (j < 0 || static_cast<std::size_t>(j) >= x.cols() ||
            (k > x.row_ptr()[i] && x.col_idx()[e - 1] >= j) ||
            (v == 0.0 && !std::signbit(v))) {
          __builtin_trap();  // not what FromDense would have built
        }
      }
    }
  } catch (const std::runtime_error& e) {
    if (e.what()[0] == '\0') {
      __builtin_trap();  // every rejection must say why
    }
  }
  return 0;
}
