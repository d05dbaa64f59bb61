#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "eval/parallel.h"
#include "linalg/ops.h"
#include "rng/rng.h"
#include "sparse/csr_matrix.h"

namespace gcon {
namespace {

// Random sparse matrix with ~density fraction of nonzeros, built two ways
// (dense + builder) for cross-checking.
struct SparsePair {
  CsrMatrix sparse;
  Matrix dense;
};

SparsePair RandomSparse(std::size_t rows, std::size_t cols, double density,
                        Rng* rng) {
  CooBuilder builder(rows, cols);
  Matrix dense(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (rng->Bernoulli(density)) {
        const double v = rng->Uniform(-2.0, 2.0);
        builder.Add(i, j, v);
        dense(i, j) = v;
      }
    }
  }
  return {builder.Build(), std::move(dense)};
}

TEST(CooBuilder, BuildsCanonicalCsr) {
  CooBuilder builder(3, 3);
  builder.Add(2, 1, 1.0);
  builder.Add(0, 2, 3.0);
  builder.Add(0, 0, 2.0);
  CsrMatrix m = builder.Build();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.At(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 1.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 0.0);
  // Column indices strictly increasing per row.
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::int64_t k = m.row_ptr()[i] + 1; k < m.row_ptr()[i + 1]; ++k) {
      EXPECT_LT(m.col_idx()[static_cast<std::size_t>(k - 1)],
                m.col_idx()[static_cast<std::size_t>(k)]);
    }
  }
}

TEST(CooBuilder, MergesDuplicates) {
  CooBuilder builder(2, 2);
  builder.Add(1, 1, 1.5);
  builder.Add(1, 1, 2.5);
  builder.Add(1, 1, -1.0);
  CsrMatrix m = builder.Build();
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 3.0);
}

TEST(CooBuilder, EmptyMatrix) {
  CooBuilder builder(4, 4);
  CsrMatrix m = builder.Build();
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_DOUBLE_EQ(m.At(2, 3), 0.0);
  const Matrix y = m.Multiply(Matrix(4, 2, 1.0));
  EXPECT_DOUBLE_EQ(FrobeniusNorm(y), 0.0);
}

TEST(CsrMatrix, ToDenseRoundTrip) {
  Rng rng(31);
  const auto [sparse, dense] = RandomSparse(8, 6, 0.3, &rng);
  EXPECT_TRUE(sparse.ToDense().AllClose(dense));
}

TEST(CsrMatrix, RowAccessGatherAndStackMatchTheDenseForm) {
  const Matrix dense = {{0.0, 1.5, -0.0}, {0.0, 0.0, 0.0}, {2.0, 0.0, -3.0}};
  const CsrMatrix a = CsrMatrix::FromDense(dense);
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    const std::vector<double> row = a.RowCopy(i);
    ASSERT_EQ(row.size(), dense.cols());
    EXPECT_EQ(std::memcmp(row.data(), dense.RowPtr(i),
                          row.size() * sizeof(double)),
              0);
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      EXPECT_EQ(a(i, j), dense(i, j));
    }
  }
  const std::vector<int> index = {2, 0, 2, 1};
  const Matrix gathered = GatherRows(a, index).ToDense();
  const Matrix expected = GatherRows(dense, index);
  EXPECT_EQ(std::memcmp(gathered.data(), expected.data(),
                        expected.size() * sizeof(double)),
            0);
  const CsrMatrix stacked = StackRows(a, GatherRows(a, {2}));
  EXPECT_EQ(stacked.rows(), 4u);
  EXPECT_EQ(stacked.nnz(), a.nnz() + a.RowNnz(2));
  const Matrix stacked_dense = stacked.ToDense();
  EXPECT_EQ(std::memcmp(stacked_dense.RowPtr(3), dense.RowPtr(2),
                        dense.cols() * sizeof(double)),
            0);
  EXPECT_EQ(GatherRows(a, {}).rows(), 0u);
}

TEST(CsrMatrix, FromDenseRoundTripsBitwise) {
  Rng rng(33);
  Matrix x = RandomSparse(8, 6, 0.3, &rng).dense;
  x(0, 1) = -0.0;
  x(2, 2) = std::numeric_limits<double>::quiet_NaN();
  x(3, 0) = -std::numeric_limits<double>::infinity();
  const CsrMatrix csr = CsrMatrix::FromDense(x);
  std::size_t stored = 0;  // every entry but +0
  for (std::size_t k = 0; k < x.size(); ++k) {
    stored += x.data()[k] != 0.0 || std::signbit(x.data()[k]);
  }
  EXPECT_EQ(csr.nnz(), stored);
  const Matrix back = csr.ToDense();
  EXPECT_EQ(std::memcmp(back.data(), x.data(), x.size() * sizeof(double)), 0);
}

TEST(CsrMatrix, SpmmMatchesDense) {
  Rng rng(37);
  for (int trial = 0; trial < 5; ++trial) {
    const auto [sparse, dense] = RandomSparse(12, 9, 0.25, &rng);
    Matrix x(9, 4);
    for (std::size_t k = 0; k < x.size(); ++k) {
      x.data()[k] = rng.Uniform(-1.0, 1.0);
    }
    EXPECT_TRUE(sparse.Multiply(x).AllClose(MatMul(dense, x), 1e-10));
  }
}

TEST(CsrMatrix, SpmvMatchesDense) {
  Rng rng(41);
  const auto [sparse, dense] = RandomSparse(10, 10, 0.3, &rng);
  std::vector<double> x(10);
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  const auto y_sparse = sparse.Multiply(x);
  const auto y_dense = MatVec(dense, x);
  for (std::size_t i = 0; i < y_sparse.size(); ++i) {
    EXPECT_NEAR(y_sparse[i], y_dense[i], 1e-10);
  }
}

TEST(CsrMatrix, RowSumAndColSum) {
  CooBuilder builder(3, 3);
  builder.Add(0, 0, 1.0);
  builder.Add(0, 2, 2.0);
  builder.Add(2, 0, 4.0);
  CsrMatrix m = builder.Build();
  EXPECT_DOUBLE_EQ(m.RowSum(0), 3.0);
  EXPECT_DOUBLE_EQ(m.RowSum(1), 0.0);
  EXPECT_DOUBLE_EQ(m.ColSum(0), 5.0);
  EXPECT_DOUBLE_EQ(m.ColSum(1), 0.0);
  EXPECT_EQ(m.RowNnz(0), 2u);
  EXPECT_EQ(m.RowNnz(1), 0u);
}

TEST(CsrMatrix, TransposedMatchesDenseTranspose) {
  Rng rng(43);
  const auto [sparse, dense] = RandomSparse(7, 11, 0.3, &rng);
  EXPECT_TRUE(sparse.Transposed().ToDense().AllClose(Transpose(dense)));
}

TEST(CsrMatrix, ScaleRows) {
  Rng rng(47);
  auto [sparse, dense] = RandomSparse(5, 5, 0.4, &rng);
  const std::vector<double> scale = {1.0, 2.0, 0.0, -1.0, 0.5};
  sparse.ScaleRows(scale);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(sparse.At(i, j), dense(i, j) * scale[i], 1e-12);
    }
  }
}

// Property: SpMM distributes over input columns (each output column depends
// only on the matching input column).
class SpmmProperty : public ::testing::TestWithParam<int> {};

TEST_P(SpmmProperty, ColumnIndependence) {
  Rng rng(static_cast<std::uint64_t>(100 + GetParam()));
  const auto [sparse, dense] = RandomSparse(15, 15, 0.2, &rng);
  (void)dense;
  Matrix x(15, 3);
  for (std::size_t k = 0; k < x.size(); ++k) {
    x.data()[k] = rng.Uniform(-1.0, 1.0);
  }
  const Matrix full = sparse.Multiply(x);
  for (std::size_t j = 0; j < 3; ++j) {
    Matrix col(15, 1);
    for (std::size_t i = 0; i < 15; ++i) col(i, 0) = x(i, j);
    const Matrix yj = sparse.Multiply(col);
    for (std::size_t i = 0; i < 15; ++i) {
      EXPECT_NEAR(yj(i, 0), full(i, j), 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpmmProperty, ::testing::Range(0, 6));

// Kernel tier: the SpMM kernels called at top level (pool fan-out over
// 256-row blocks above the work cutoff) return the bits of the same calls
// made inside a pool job, where they run inline.
TEST(CsrMatrix, SpmmFanOutMatchesInlineBitwise) {
  Rng rng(211);
  // 3000 rows x 10 entries x 40 columns is above internal::kKernelInlineWork;
  // 300 x 10 x 4 is below it.
  for (const auto& [rows, d] :
       {std::pair<std::size_t, std::size_t>{3000, 40}, {300, 4}}) {
    CooBuilder builder(rows, rows);
    for (std::size_t i = 0; i < rows; ++i) {
      for (int e = 0; e < 10; ++e) {
        builder.Add(i, rng.UniformInt(rows), rng.Uniform(-1.0, 1.0));
      }
    }
    const CsrMatrix a = builder.Build();
    Matrix z(rows, d), x(rows, d);
    for (std::size_t k = 0; k < z.size(); ++k) {
      z.data()[k] = rng.Uniform(-1.0, 1.0);
      x.data()[k] = rng.Uniform(-1.0, 1.0);
    }
    Matrix product, axpby;
    ParallelFor(2, 2, [&](int i) {
      if (i != 0) return;
      product = a.Multiply(z);
      a.SpmmAxpby(0.85, z, 0.15, x, &axpby);
    });
    Matrix top_axpby;
    a.SpmmAxpby(0.85, z, 0.15, x, &top_axpby);
    const Matrix top_product = a.Multiply(z);
    ASSERT_EQ(top_product.size(), product.size());
    ASSERT_EQ(top_axpby.size(), axpby.size());
    EXPECT_EQ(std::memcmp(top_product.data(), product.data(),
                          product.size() * sizeof(double)),
              0)
        << "Multiply rows=" << rows;
    EXPECT_EQ(std::memcmp(top_axpby.data(), axpby.data(),
                          axpby.size() * sizeof(double)),
              0)
        << "SpmmAxpby rows=" << rows;
  }
}

}  // namespace
}  // namespace gcon
