// Compressed sparse row matrix.
//
// Used for the message-passing matrix Ã = D⁻¹(A + I), the perturbed
// adjacency matrices of the DP baselines, and the graph's bag-of-words node
// features (graph/graph.h). Construction goes through
// CooBuilder which sorts, merges duplicates, and produces canonical CSR
// (row-major, column indices strictly increasing within a row).
#ifndef GCON_SPARSE_CSR_MATRIX_H_
#define GCON_SPARSE_CSR_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace gcon {

class CsrMatrix {
 public:
  CsrMatrix() : rows_(0), cols_(0) { row_ptr_.push_back(0); }

  /// Takes ownership of canonical CSR arrays. row_ptr has rows+1 entries;
  /// col_idx/values have row_ptr.back() entries.
  CsrMatrix(std::size_t rows, std::size_t cols, std::vector<std::int64_t> row_ptr,
            std::vector<std::int32_t> col_idx, std::vector<double> values);

  /// Canonical CSR of a dense matrix: stores every entry except +0, so
  /// ToDense() returns the same bits (-0, NaN and Inf are stored).
  static CsrMatrix FromDense(const Matrix& dense);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  const std::vector<std::int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::int32_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& mutable_values() { return values_; }

  /// Number of stored entries in row i.
  std::size_t RowNnz(std::size_t i) const {
    return static_cast<std::size_t>(row_ptr_[i + 1] - row_ptr_[i]);
  }

  /// Value at (i, j); zero when not stored. O(log nnz(i)).
  double At(std::size_t i, std::size_t j) const;
  double operator()(std::size_t i, std::size_t j) const { return At(i, j); }

  /// Row i as a dense vector of cols() values.
  std::vector<double> RowCopy(std::size_t i) const;

  /// Sum of stored values in row i.
  double RowSum(std::size_t i) const;

  /// Sum over column j (O(nnz) per call; test/diagnostic use).
  double ColSum(std::size_t j) const;

  /// Dense copy: rows() x cols() doubles, for the callers that truly need
  /// dense data (and tests).
  Matrix ToDense() const;

  /// Y = this * X (SpMM). X: cols() x d, result rows() x d.
  Matrix Multiply(const Matrix& x) const;

  /// Fused SpMM update: out = a * (this * z) + b * x, one pass over the
  /// stored entries with no temporary. This is one APPR round
  /// z' <- (1-alpha) Ã z + alpha x as a single kernel instead of
  /// Multiply + ScaleInPlace + AxpyInPlace (which allocates a fresh matrix
  /// and streams it three times). Per-element arithmetic matches the
  /// three-op sequence bit-for-bit: a * sum + b * x with the same
  /// accumulation order. `out` is resized to rows() x z.cols(); it must not
  /// alias `z` or `x` (the output row doubles as the accumulator).
  void SpmmAxpby(double a, const Matrix& z, double b, const Matrix& x,
                 Matrix* out) const;

  /// y = this * x (SpMV).
  std::vector<double> Multiply(const std::vector<double>& x) const;

  /// Returns the transpose as a new CsrMatrix.
  CsrMatrix Transposed() const;

  /// Scales each row by scale[i] (in place): this_ij *= scale[i].
  void ScaleRows(const std::vector<double>& scale);

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::int64_t> row_ptr_;
  std::vector<std::int32_t> col_idx_;
  std::vector<double> values_;
};

// Dense-engine products with a sparse left operand. Unlike
// CsrMatrix::Multiply (the propagation SpMM, with its own accumulation
// order), these run internal::GemmCsr and so return exactly the bits of the
// dense call on a.ToDense(): MatMul(a, b) == MatMul(a.ToDense(), b) and
// likewise for the other two, NaN/Inf in b included.

/// C = A * B. Shapes: (m x k) * (k x n) -> (m x n).
Matrix MatMul(const CsrMatrix& a, const Matrix& b);

/// C = A^T * B. Shapes: (k x m)^T * (k x n) -> (m x n).
Matrix MatMulTransA(const CsrMatrix& a, const Matrix& b);

/// C = alpha * op(A) * B + beta * C, op(A) = A^T when `trans_a` (C must
/// already be m x n).
void SparseGemm(double alpha, const CsrMatrix& a, bool trans_a,
                const Matrix& b, double beta, Matrix* c);

/// Rows `index` of `a`, in that order (repeats allowed): the CSR form of
/// GatherRows(a.ToDense(), index).
CsrMatrix GatherRows(const CsrMatrix& a, const std::vector<int>& index);

/// `top`'s rows followed by `bottom`'s (equal column counts).
CsrMatrix StackRows(const CsrMatrix& top, const CsrMatrix& bottom);

/// Accumulates (i, j, value) triplets and builds canonical CSR. Duplicate
/// coordinates are summed.
class CooBuilder {
 public:
  CooBuilder(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

  void Add(std::size_t i, std::size_t j, double value);
  std::size_t entry_count() const { return entries_.size(); }

  /// Pre-allocates room for `n` triplets. Call before a bulk Add loop whose
  /// size is known (transition/adjacency builds: 2|E| + n) to avoid
  /// entry-by-entry vector growth.
  void Reserve(std::size_t n);

  /// Builds the CSR matrix; the builder is left empty afterwards.
  CsrMatrix Build();

 private:
  struct Entry {
    std::int32_t row;
    std::int32_t col;
    double value;
  };
  std::size_t rows_;
  std::size_t cols_;
  std::vector<Entry> entries_;
};

}  // namespace gcon

#endif  // GCON_SPARSE_CSR_MATRIX_H_
