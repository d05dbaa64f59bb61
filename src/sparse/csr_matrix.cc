#include "sparse/csr_matrix.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "linalg/gemm_kernels.h"

namespace gcon {

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::int64_t> row_ptr,
                     std::vector<std::int32_t> col_idx,
                     std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  GCON_CHECK_EQ(row_ptr_.size(), rows_ + 1);
  GCON_CHECK_EQ(col_idx_.size(), values_.size());
  GCON_CHECK_EQ(static_cast<std::size_t>(row_ptr_.back()), values_.size());
}

CsrMatrix CsrMatrix::FromDense(const Matrix& dense) {
  std::vector<std::int64_t> row_ptr(dense.rows() + 1, 0);
  std::vector<std::int32_t> col_idx;
  std::vector<double> values;
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    const double* row = dense.RowPtr(i);
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      if (row[j] == 0.0 && !std::signbit(row[j])) continue;
      col_idx.push_back(static_cast<std::int32_t>(j));
      values.push_back(row[j]);
    }
    row_ptr[i + 1] = static_cast<std::int64_t>(values.size());
  }
  return CsrMatrix(dense.rows(), dense.cols(), std::move(row_ptr),
                   std::move(col_idx), std::move(values));
}

double CsrMatrix::At(std::size_t i, std::size_t j) const {
  GCON_CHECK_LT(i, rows_);
  GCON_CHECK_LT(j, cols_);
  const auto begin = col_idx_.begin() + row_ptr_[i];
  const auto end = col_idx_.begin() + row_ptr_[i + 1];
  const auto it = std::lower_bound(begin, end, static_cast<std::int32_t>(j));
  if (it == end || *it != static_cast<std::int32_t>(j)) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

std::vector<double> CsrMatrix::RowCopy(std::size_t i) const {
  GCON_CHECK_LT(i, rows_);
  std::vector<double> row(cols_, 0.0);
  for (std::int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
    row[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])] =
        values_[static_cast<std::size_t>(k)];
  }
  return row;
}

double CsrMatrix::RowSum(std::size_t i) const {
  double acc = 0.0;
  for (std::int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
    acc += values_[static_cast<std::size_t>(k)];
  }
  return acc;
}

double CsrMatrix::ColSum(std::size_t j) const {
  double acc = 0.0;
  for (std::size_t k = 0; k < values_.size(); ++k) {
    if (col_idx_[k] == static_cast<std::int32_t>(j)) acc += values_[k];
  }
  return acc;
}

Matrix CsrMatrix::ToDense() const {
  Matrix dense(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      dense(i, static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])) =
          values_[static_cast<std::size_t>(k)];
    }
  }
  return dense;
}

Matrix CsrMatrix::Multiply(const Matrix& x) const {
  GCON_CHECK_EQ(cols_, x.rows()) << "spmm: dim mismatch";
  const std::size_t d = x.cols();
  Matrix y(rows_, d);
  // 256 rows per job; each output row is summed by one thread, in order.
  internal::KernelForRows(rows_, 256, nnz() * d, [&](std::size_t i) {
    double* yrow = y.RowPtr(i);
    for (std::int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const double v = values_[static_cast<std::size_t>(k)];
      const double* xrow =
          x.RowPtr(static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)]));
      for (std::size_t j = 0; j < d; ++j) {
        yrow[j] += v * xrow[j];
      }
    }
  });
  return y;
}

void CsrMatrix::SpmmAxpby(double a, const Matrix& z, double b, const Matrix& x,
                          Matrix* out) const {
  GCON_CHECK_EQ(cols_, z.rows()) << "spmm: dim mismatch";
  GCON_CHECK_EQ(x.rows(), rows_);
  GCON_CHECK_EQ(x.cols(), z.cols());
  GCON_CHECK(out != &z && out != &x) << "SpmmAxpby: out must not alias z/x";
  const std::size_t d = z.cols();
  if (out->rows() != rows_ || out->cols() != d) {
    out->Resize(rows_, d);
  }
  internal::KernelForRows(rows_, 256, (nnz() + rows_) * d, [&](std::size_t i) {
    double* orow = out->RowPtr(i);
    for (std::size_t j = 0; j < d; ++j) orow[j] = 0.0;
    for (std::int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const double v = values_[static_cast<std::size_t>(k)];
      const double* zrow = z.RowPtr(
          static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)]));
      for (std::size_t j = 0; j < d; ++j) {
        orow[j] += v * zrow[j];
      }
    }
    const double* xrow = x.RowPtr(i);
    for (std::size_t j = 0; j < d; ++j) {
      orow[j] = a * orow[j] + b * xrow[j];
    }
  });
}

std::vector<double> CsrMatrix::Multiply(const std::vector<double>& x) const {
  GCON_CHECK_EQ(cols_, x.size());
  std::vector<double> y(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (std::int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      acc += values_[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
    }
    y[i] = acc;
  }
  return y;
}

CsrMatrix CsrMatrix::Transposed() const {
  CooBuilder builder(cols_, rows_);
  builder.Reserve(nnz());
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      builder.Add(static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)]),
                  i, values_[static_cast<std::size_t>(k)]);
    }
  }
  return builder.Build();
}

void CsrMatrix::ScaleRows(const std::vector<double>& scale) {
  GCON_CHECK_EQ(scale.size(), rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      values_[static_cast<std::size_t>(k)] *= scale[i];
    }
  }
}

void SparseGemm(double alpha, const CsrMatrix& a, bool trans_a,
                const Matrix& b, double beta, Matrix* c) {
  const internal::CsrOperand view{a.rows(), a.cols(), a.row_ptr().data(),
                                  a.col_idx().data(), a.values().data()};
  internal::GemmCsr(alpha, view, trans_a, b, beta, c);
}

Matrix MatMul(const CsrMatrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  SparseGemm(1.0, a, /*trans_a=*/false, b, 0.0, &c);
  return c;
}

Matrix MatMulTransA(const CsrMatrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  SparseGemm(1.0, a, /*trans_a=*/true, b, 0.0, &c);
  return c;
}

CsrMatrix GatherRows(const CsrMatrix& a, const std::vector<int>& index) {
  std::vector<std::int64_t> row_ptr(index.size() + 1, 0);
  for (std::size_t i = 0; i < index.size(); ++i) {
    GCON_CHECK_GE(index[i], 0);
    GCON_CHECK_LT(static_cast<std::size_t>(index[i]), a.rows());
    const auto row = static_cast<std::size_t>(index[i]);
    row_ptr[i + 1] = row_ptr[i] + static_cast<std::int64_t>(a.RowNnz(row));
  }
  const auto nnz = static_cast<std::size_t>(row_ptr.back());
  std::vector<std::int32_t> col_idx(nnz);
  std::vector<double> values(nnz);
  for (std::size_t i = 0; i < index.size(); ++i) {
    const auto row = static_cast<std::size_t>(index[i]);
    const std::int64_t begin = a.row_ptr()[row];
    const std::int64_t end = a.row_ptr()[row + 1];
    std::copy(a.col_idx().begin() + begin, a.col_idx().begin() + end,
              col_idx.begin() + row_ptr[i]);
    std::copy(a.values().begin() + begin, a.values().begin() + end,
              values.begin() + row_ptr[i]);
  }
  return CsrMatrix(index.size(), a.cols(), std::move(row_ptr),
                   std::move(col_idx), std::move(values));
}

CsrMatrix StackRows(const CsrMatrix& top, const CsrMatrix& bottom) {
  GCON_CHECK_EQ(top.cols(), bottom.cols());
  std::vector<std::int64_t> row_ptr = top.row_ptr();
  for (std::size_t i = 1; i < bottom.row_ptr().size(); ++i) {
    row_ptr.push_back(row_ptr[top.rows()] + bottom.row_ptr()[i]);
  }
  std::vector<std::int32_t> col_idx = top.col_idx();
  col_idx.insert(col_idx.end(), bottom.col_idx().begin(),
                 bottom.col_idx().end());
  std::vector<double> values = top.values();
  values.insert(values.end(), bottom.values().begin(), bottom.values().end());
  return CsrMatrix(top.rows() + bottom.rows(), top.cols(), std::move(row_ptr),
                   std::move(col_idx), std::move(values));
}

void CooBuilder::Reserve(std::size_t n) { entries_.reserve(n); }

void CooBuilder::Add(std::size_t i, std::size_t j, double value) {
  GCON_CHECK_LT(i, rows_);
  GCON_CHECK_LT(j, cols_);
  entries_.push_back(Entry{static_cast<std::int32_t>(i),
                           static_cast<std::int32_t>(j), value});
}

CsrMatrix CooBuilder::Build() {
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  std::vector<std::int64_t> row_ptr(rows_ + 1, 0);
  std::vector<std::int32_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(entries_.size());
  values.reserve(entries_.size());
  for (std::size_t k = 0; k < entries_.size();) {
    const Entry& e = entries_[k];
    double acc = 0.0;
    std::size_t k2 = k;
    while (k2 < entries_.size() && entries_[k2].row == e.row &&
           entries_[k2].col == e.col) {
      acc += entries_[k2].value;
      ++k2;
    }
    col_idx.push_back(e.col);
    values.push_back(acc);
    row_ptr[static_cast<std::size_t>(e.row) + 1] += 1;
    k = k2;
  }
  for (std::size_t i = 0; i < rows_; ++i) {
    row_ptr[i + 1] += row_ptr[i];
  }
  entries_.clear();
  entries_.shrink_to_fit();
  return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

}  // namespace gcon
