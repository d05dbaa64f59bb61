// MLP (de)serialization, needed to persist the GCON feature encoder
// alongside the released parameters Θ_priv so a downstream consumer can
// encode new graphs (inference scenario (ii)).
//
// Text format (line oriented, inside a larger stream):
//   mlp <num_layers+1 dims...> <activation>
//   W <layer> <rows> <cols> followed by rows*cols doubles
//   b <layer> 1 <cols> followed by cols doubles
#ifndef GCON_NN_MLP_IO_H_
#define GCON_NN_MLP_IO_H_

#include <iosfwd>
#include <string>

#include "linalg/matrix.h"
#include "nn/mlp.h"

namespace gcon {

/// Writes the architecture and weights of `mlp` to `out`.
void SaveMlp(const Mlp& mlp, std::ostream* out);

/// Appends the rows of `m` to `out`, one line per row, values separated by
/// single spaces. Each value is written exactly as `ostream <<
/// setprecision(17)` writes it (printf "%.17g", here through std::to_chars
/// into one buffer), so a double survives the text round trip bit for bit.
void AppendMatrixRows(const Matrix& m, std::string* out);

/// Reads an MLP previously written by SaveMlp. Throws std::runtime_error
/// describing the defect (bad magic, shape mismatch, truncation) on
/// malformed input; embedding callers (core/model_io) add the file path.
/// Reads in the classic locale whatever the global one is (imbues `in`).
Mlp LoadMlp(std::istream* in);

}  // namespace gcon

#endif  // GCON_NN_MLP_IO_H_
