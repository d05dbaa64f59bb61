// Blocked-GEMM engine vs the kept naive reference (linalg/gemm_kernels.h):
// shape sweeps crossing every blocking boundary, alpha/beta handling, the
// transposed drivers, empty operands, the parallelized matrix-vector /
// transpose kernels, the NaN/Inf propagation policy the old zero-operand
// short-circuits violated, and the kernel tier's contract that a pool
// fan-out returns the inline call's exact bits. The CSR product (GemmCsr)
// is held to the blocked engine's exact bits on the densified operand.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "eval/parallel.h"
#include "linalg/gemm_kernels.h"
#include "linalg/matrix.h"
#include "linalg/ops.h"
#include "obs/metrics.h"
#include "rng/rng.h"
#include "sparse/csr_matrix.h"

namespace gcon {
namespace {

Matrix RandomMatrix(std::size_t rows, std::size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (std::size_t k = 0; k < m.size(); ++k) {
    m.data()[k] = rng->Uniform(-1.0, 1.0);
  }
  return m;
}

Matrix ReferenceMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  internal::GemmReference(1.0, a, b, 0.0, &c);
  return c;
}

// Shapes straddling the register tile (4x8), one MC/KC block, and the
// fringe cases in between. 260 > KC? no — it crosses the MC=128 and the
// micro-tile boundaries; 300 exercises a second k-slab via the k=300 case.
struct Shape {
  std::size_t m, k, n;
};
const Shape kShapes[] = {
    {1, 1, 1},    {1, 7, 1},    {3, 5, 9},     {4, 8, 8},    {5, 9, 17},
    {8, 300, 8},  {64, 3, 100}, {70, 70, 70},  {127, 31, 33}, {130, 257, 12},
    {12, 12, 260},
};

TEST(BlockedGemm, MatchesReferenceAcrossShapes) {
  Rng rng(101);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, &rng);
    const Matrix b = RandomMatrix(s.k, s.n, &rng);
    const Matrix got = MatMul(a, b);
    const Matrix want = ReferenceMatMul(a, b);
    EXPECT_TRUE(got.AllClose(want, 1e-10))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(BlockedGemm, TransAMatchesReferenceAcrossShapes) {
  Rng rng(103);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.k, s.m, &rng);  // op(A) = A^T is m x k
    const Matrix b = RandomMatrix(s.k, s.n, &rng);
    EXPECT_TRUE(MatMulTransA(a, b).AllClose(
        ReferenceMatMul(Transpose(a), b), 1e-10))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(BlockedGemm, TransBMatchesReferenceAcrossShapes) {
  Rng rng(107);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, &rng);
    const Matrix b = RandomMatrix(s.n, s.k, &rng);  // op(B) = B^T is k x n
    EXPECT_TRUE(MatMulTransB(a, b).AllClose(
        ReferenceMatMul(a, Transpose(b)), 1e-10))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(BlockedGemm, AlphaBetaCombinations) {
  Rng rng(109);
  const Matrix a = RandomMatrix(37, 41, &rng);
  const Matrix b = RandomMatrix(41, 29, &rng);
  const Matrix c0 = RandomMatrix(37, 29, &rng);
  const double alphas[] = {0.0, 1.0, -2.5, 0.75};
  const double betas[] = {0.0, 1.0, -1.0, 0.5};
  for (double alpha : alphas) {
    for (double beta : betas) {
      Matrix got = c0;
      Gemm(alpha, a, b, beta, &got);
      Matrix want = c0;
      internal::GemmReference(alpha, a, b, beta, &want);
      EXPECT_TRUE(got.AllClose(want, 1e-10))
          << "alpha=" << alpha << " beta=" << beta;
    }
  }
}

TEST(BlockedGemm, BetaZeroOverwritesNanInC) {
  const Matrix a{{1.0, 2.0}};
  const Matrix b{{3.0}, {4.0}};
  Matrix c(1, 1);
  c(0, 0) = std::numeric_limits<double>::quiet_NaN();
  Gemm(1.0, a, b, 0.0, &c);
  EXPECT_DOUBLE_EQ(c(0, 0), 11.0);
}

TEST(BlockedGemm, EmptyOperands) {
  // k == 0: the product term is empty, C = beta * C.
  Matrix c{{2.0, 4.0}};
  Gemm(1.0, Matrix(1, 0), Matrix(0, 2), 0.5, &c);
  EXPECT_TRUE(c.AllClose(Matrix{{1.0, 2.0}}));
  // m == 0 / n == 0 products are legal no-ops of the right shape.
  EXPECT_EQ(MatMul(Matrix(0, 3), Matrix(3, 2)).rows(), 0u);
  EXPECT_EQ(MatMul(Matrix(2, 3), Matrix(3, 0)).cols(), 0u);
}

TEST(BlockedGemm, RepeatedCallsAreBitwiseIdentical) {
  Rng rng(113);
  const Matrix a = RandomMatrix(97, 130, &rng);
  const Matrix b = RandomMatrix(130, 61, &rng);
  const Matrix first = MatMul(a, b);
  const Matrix second = MatMul(a, b);
  EXPECT_TRUE(first.AllClose(second, 0.0));
}

// --- CSR x dense: bitwise the blocked engine's result ----------------------

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Non-integer values at `density`, with row 0 empty and column 1 all zero.
Matrix SparseRandomMatrix(std::size_t rows, std::size_t cols, double density,
                          Rng* rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 1; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (j != 1 && rng->Uniform(0.0, 1.0) < density) {
        m(i, j) = rng->Uniform(-3.0, 3.0);
      }
    }
  }
  return m;
}

// C = alpha * op(A) * B + beta * C0 through SparseGemm and through
// GemmBlocked on A.ToDense(); the two must agree bit for bit.
void ExpectCsrMatchesDense(std::size_t m, std::size_t k, std::size_t n,
                           bool trans_a, double density, Rng* rng) {
  const Matrix a_dense = trans_a ? SparseRandomMatrix(k, m, density, rng)
                                 : SparseRandomMatrix(m, k, density, rng);
  const CsrMatrix a = CsrMatrix::FromDense(a_dense);
  const Matrix b = RandomMatrix(k, n, rng);
  const Matrix c0 = RandomMatrix(m, n, rng);
  for (double alpha : {1.0, -0.5, 2.0}) {
    for (double beta : {0.0, 0.25, 1.0}) {
      Matrix got = c0;
      SparseGemm(alpha, a, trans_a, b, beta, &got);
      Matrix want = c0;
      internal::GemmBlocked(alpha, a.ToDense(), trans_a, b, /*trans_b=*/false,
                            beta, &want);
      EXPECT_TRUE(BitEqual(got, want))
          << "m=" << m << " k=" << k << " n=" << n << " trans_a=" << trans_a
          << " alpha=" << alpha << " beta=" << beta;
    }
  }
}

TEST(CsrGemm, BitwiseMatchesBlockedEngine) {
  Rng rng(139);
  // k = 700 and 2879 span several KC = 256 slabs; 140 x 2879 x 32 is the
  // cora_ml encoder's first layer.
  const Shape shapes[] = {{1, 1, 1},     {3, 5, 9},    {5, 256, 3},
                          {130, 257, 12}, {37, 700, 13}, {9, 2879, 5},
                          {140, 2879, 32}};
  for (const Shape& s : shapes) {
    for (bool trans_a : {false, true}) {
      ExpectCsrMatchesDense(s.m, s.k, s.n, trans_a, 0.05, &rng);
    }
  }
}

TEST(CsrGemm, DenseAndEmptyOperandsMatchBlockedEngine) {
  Rng rng(149);
  for (bool trans_a : {false, true}) {
    ExpectCsrMatchesDense(20, 300, 7, trans_a, 1.0, &rng);
    ExpectCsrMatchesDense(20, 300, 7, trans_a, 0.0, &rng);
    ExpectCsrMatchesDense(0, 5, 3, trans_a, 0.5, &rng);
    ExpectCsrMatchesDense(4, 0, 3, trans_a, 0.5, &rng);
    ExpectCsrMatchesDense(4, 5, 0, trans_a, 0.5, &rng);
  }
}

TEST(CsrGemm, UnderflowSignedZeroMatchesBlockedEngine) {
  // 1e-200 * -1e-200 underflows to -0. The dense sum then adds A's zero
  // times B's second row, and the signs of those zeros decide whether the
  // result stays -0 or turns +0 (column by column, and flipped when A holds
  // -0 there). Skipping the zero must not change either sign.
  const Matrix b{{-1e-200, -1e-200}, {1.0, -1.0}};
  for (double zero : {0.0, -0.0}) {
    for (bool trans_a : {false, true}) {
      const Matrix a_dense =
          trans_a ? Matrix{{1e-200}, {zero}} : Matrix{{1e-200, zero}};
      Matrix got(1, 2);
      SparseGemm(1.0, CsrMatrix::FromDense(a_dense), trans_a, b, 0.0, &got);
      Matrix want(1, 2);
      internal::GemmBlocked(1.0, a_dense, trans_a, b, /*trans_b=*/false, 0.0,
                            &want);
      EXPECT_TRUE(BitEqual(got, want))
          << "zero=" << zero << " trans_a=" << trans_a;
    }
  }
}

TEST(CsrGemm, CountsStoredEntryFlopsUnderCsrShape) {
  obs::Counter* calls = obs::MetricsRegistry::Global().counter(
      "gcon_gemm_calls_total", "", {{"shape", "csr"}});
  obs::Counter* flops = obs::MetricsRegistry::Global().counter(
      "gcon_gemm_flops_total", "", {{"shape", "csr"}});
  Rng rng(151);
  const CsrMatrix a =
      CsrMatrix::FromDense(SparseRandomMatrix(30, 400, 0.03, &rng));
  const Matrix b = RandomMatrix(400, 6, &rng);
  const std::uint64_t calls0 = calls->value();
  const std::uint64_t flops0 = flops->value();
  MatMul(a, b);
  EXPECT_EQ(calls->value() - calls0, 1u);
  EXPECT_EQ(flops->value() - flops0, 2u * a.nnz() * 6u);
}

// The row-range entries against the blocked engine on the densified
// operand, for both op(A): GemmCsrRowRange over a plan (op(A) = Aᵀ in CSR,
// B's flags given, into a C reused across products, the rows no entry
// names left at +0), the general product on the plan's op(A), and
// GemmBlockedRows over the dense product. k on both sides of KC; variant 1
// holds values below 2^-511 (the -0 redo), variant 2 a NaN in B (the dense
// path, after which ZeroEmptyRows puts back the +0 of the empty rows).
TEST(CsrGemm, PlannedRowRangesMatchBlockedEngine) {
  Rng rng(167);
  const Shape shapes[] = {{140, 2879, 32}, {2879, 140, 32}, {37, 700, 13},
                          {300, 60, 5}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Shape& s : shapes) {
    for (bool trans_a : {false, true}) {
      for (int variant = 0; variant < 3; ++variant) {
        Matrix a_dense = trans_a ? SparseRandomMatrix(s.k, s.m, 0.01, &rng)
                                 : SparseRandomMatrix(s.m, s.k, 0.01, &rng);
        Matrix b = RandomMatrix(s.k, s.n, &rng);
        if (variant == 1) {
          b(0, 0) = 1e-200;
          (trans_a ? a_dense(0, s.m - 1) : a_dense(s.m - 1, 0)) = -1e-200;
        }
        if (variant == 2) b(s.k / 2, 0) = nan;
        const CsrMatrix a = CsrMatrix::FromDense(a_dense);
        const internal::CsrOperand view{a.rows(), a.cols(),
                                        a.row_ptr().data(),
                                        a.col_idx().data(),
                                        a.values().data()};
        const internal::CsrPlan plan(view, trans_a);
        Matrix want(s.m, s.n);
        internal::GemmBlocked(1.0, a_dense, trans_a, b, /*trans_b=*/false,
                              0.0, &want);
        SCOPED_TRACE("m=" + std::to_string(s.m) + " k=" +
                     std::to_string(s.k) + " n=" + std::to_string(s.n) +
                     " trans_a=" + std::to_string(trans_a) + " variant=" +
                     std::to_string(variant));
        Matrix general(s.m, s.n);
        internal::GemmCsr(1.0, plan.op, /*trans_a=*/false, b, 0.0, &general);
        EXPECT_TRUE(BitEqual(general, want));
        Matrix kept = want;
        for (std::size_t i = 0; i < s.m; ++i) {
          bool named = false;
          for (std::size_t p = 0; p < s.k; ++p) {
            const double v = trans_a ? a_dense(p, i) : a_dense(i, p);
            named |= v != 0 || std::signbit(v);
          }
          if (!named) std::fill(kept.RowPtr(i), kept.RowPtr(i) + s.n, 0.0);
        }
        internal::ZeroEmptyRows(plan, &general);
        EXPECT_TRUE(BitEqual(general, kept));
        const internal::ValueFlags b_flags =
            internal::ScanValues(b.data(), b.size());
        if (b_flags.non_finite) continue;
        Matrix got(s.m, s.n);
        for (int repeat = 0; repeat < 2; ++repeat) {
          for (std::size_t r0 = 0; r0 < s.m; r0 += 50) {
            internal::GemmCsrRowRange(plan, b, b_flags, &got, r0,
                                      std::min<std::size_t>(r0 + 50, s.m));
          }
          EXPECT_TRUE(BitEqual(got, want)) << "repeat " << repeat;
        }
        Matrix dense_rows(s.m, s.n);
        for (std::size_t r0 = 0; r0 < s.m; r0 += 131) {
          internal::GemmBlockedRows(1.0, a_dense, trans_a, b,
                                    /*trans_b=*/false, 0.0, &dense_rows, r0,
                                    std::min<std::size_t>(r0 + 131, s.m));
        }
        EXPECT_TRUE(BitEqual(dense_rows, want));
      }
    }
  }
}

// --- NaN/Inf policy ---------------------------------------------------------
// The seed kernels skipped `av == 0` operands, so a NaN/Inf in the other
// matrix silently vanished from the product. The blocked kernels (and the
// rewritten MatVecTransA) must propagate them.

TEST(NanPolicy, GemmPropagatesNanPastZeroInA) {
  Matrix a(2, 2);  // all zeros
  Matrix b(2, 2);
  b(0, 0) = std::numeric_limits<double>::quiet_NaN();
  const Matrix c = MatMul(a, b);
  EXPECT_TRUE(std::isnan(c(0, 0)));
  EXPECT_TRUE(std::isnan(c(1, 0)));
}

TEST(NanPolicy, GemmPropagatesInfAsNanPastZero) {
  Matrix a(1, 1);  // zero
  Matrix b(1, 1);
  b(0, 0) = std::numeric_limits<double>::infinity();
  const Matrix c = MatMul(a, b);  // 0 * inf = NaN
  EXPECT_TRUE(std::isnan(c(0, 0)));
}

TEST(NanPolicy, TransAPropagatesNanPastZeroInA) {
  Matrix a(2, 2);  // zeros; op(A) = A^T
  Matrix b(2, 2);
  b(1, 1) = std::numeric_limits<double>::quiet_NaN();
  const Matrix c = MatMulTransA(a, b);
  EXPECT_TRUE(std::isnan(c(0, 1)));
}

TEST(NanPolicy, MatVecTransAPropagatesNanPastZeroWeight) {
  Matrix a{{std::numeric_limits<double>::quiet_NaN(), 1.0}};
  const auto y = MatVecTransA(a, {0.0});
  EXPECT_TRUE(std::isnan(y[0]));  // 0 * NaN
  EXPECT_DOUBLE_EQ(y[1], 0.0);
}

TEST(NanPolicy, CsrGemmPropagatesNanAndInfPastStructuralZero) {
  // Column 1 of A stores nothing, so B's row 1 meets only structural zeros:
  // 0 * NaN and 0 * Inf must still reach every row of C.
  const Matrix a_dense{{0.5, 0.0, 0.0}, {0.0, 0.0, 2.0}};
  Matrix b(3, 2, 1.0);
  b(1, 0) = std::numeric_limits<double>::quiet_NaN();
  b(1, 1) = std::numeric_limits<double>::infinity();
  const CsrMatrix a = CsrMatrix::FromDense(a_dense);
  const Matrix c = MatMul(a, b);
  for (std::size_t i = 0; i < c.rows(); ++i) {
    EXPECT_TRUE(std::isnan(c(i, 0)));
    EXPECT_TRUE(std::isnan(c(i, 1)));
  }
  EXPECT_TRUE(BitEqual(c, MatMul(a_dense, b)));
  // op(A) = A^T: stored row 1 of A^T's operand is all zeros.
  const CsrMatrix at = CsrMatrix::FromDense(Transpose(a_dense));
  const Matrix ct = MatMulTransA(at, b);
  EXPECT_TRUE(std::isnan(ct(0, 0)));
  EXPECT_TRUE(std::isnan(ct(1, 1)));
  EXPECT_TRUE(BitEqual(ct, MatMulTransA(Transpose(a_dense), b)));
}

// --- parallelized aux kernels ----------------------------------------------

TEST(ParallelKernels, MatVecMatchesManual) {
  Rng rng(127);
  const Matrix a = RandomMatrix(83, 217, &rng);
  std::vector<double> x(217);
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  const auto y = MatVec(a, x);
  for (std::size_t i : {std::size_t{0}, std::size_t{41}, std::size_t{82}}) {
    double acc = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) acc += a(i, j) * x[j];
    EXPECT_NEAR(y[i], acc, 1e-10);
  }
}

TEST(ParallelKernels, MatVecTransAMatchesTransposeMatVec) {
  Rng rng(131);
  // > 512 columns crosses the column-block boundary.
  const Matrix a = RandomMatrix(37, 700, &rng);
  std::vector<double> x(37);
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  const auto got = MatVecTransA(a, x);
  const auto want = MatVec(Transpose(a), x);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < got.size(); ++j) {
    EXPECT_NEAR(got[j], want[j], 1e-10);
  }
}

TEST(ParallelKernels, TransposeTiledMatchesElementwise) {
  Rng rng(137);
  const Matrix a = RandomMatrix(130, 67, &rng);  // crosses the 64-tile
  const Matrix t = Transpose(a);
  ASSERT_EQ(t.rows(), a.cols());
  ASSERT_EQ(t.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(t(j, i), a(i, j));
    }
  }
}

// --- kernel tier: pool fan-out vs inline, bit for bit -----------------------

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Calls fn from inside a WorkerPool job, where every kernel runs inline.
template <typename Fn>
void InsidePoolJob(const Fn& fn) {
  ParallelFor(2, 2, [&](int i) {
    if (i == 0) fn();
  });
}

// Top-level calls (pool fan-out above the work cutoff) against the same
// calls made inside a pool job (inline), for every dense kernel on shapes
// on both sides of internal::kKernelInlineWork.
TEST(KernelTier, DenseKernelsMatchInlineBitwise) {
  Rng rng(151);
  // m = 401 spans four kGemmMC row blocks; 401 x 300 x 40 is above the
  // cutoff per k-slab, 130 x 20 x 12 below it.
  const Shape gemm_shapes[] = {{401, 300, 40}, {130, 20, 12}, {3, 700, 5}};
  for (const Shape& s : gemm_shapes) {
    for (bool trans_a : {false, true}) {
      for (bool trans_b : {false, true}) {
        const Matrix a = trans_a ? RandomMatrix(s.k, s.m, &rng)
                                 : RandomMatrix(s.m, s.k, &rng);
        const Matrix b = trans_b ? RandomMatrix(s.n, s.k, &rng)
                                 : RandomMatrix(s.k, s.n, &rng);
        const Matrix c0 = RandomMatrix(s.m, s.n, &rng);
        Matrix top = c0;
        internal::GemmBlocked(0.5, a, trans_a, b, trans_b, 0.25, &top);
        Matrix inline_c = c0;
        InsidePoolJob([&] {
          internal::GemmBlocked(0.5, a, trans_a, b, trans_b, 0.25, &inline_c);
        });
        EXPECT_TRUE(BitEqual(top, inline_c))
            << "gemm " << s.m << "x" << s.k << "x" << s.n
            << " trans_a=" << trans_a << " trans_b=" << trans_b;
      }
    }
  }
  // 2000 x 600 and 600 x 2000 are above the cutoff, 50 x 30 below it.
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{2000, 600}, {600, 2000},
        {50, 30}}) {
    const Matrix a = RandomMatrix(rows, cols, &rng);
    std::vector<double> x(cols), xt(rows);
    for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
    for (auto& v : xt) v = rng.Uniform(-1.0, 1.0);
    std::vector<double> mv, mvt;
    Matrix t;
    InsidePoolJob([&] {
      mv = MatVec(a, x);
      mvt = MatVecTransA(a, xt);
      t = Transpose(a);
    });
    EXPECT_TRUE(BitEqual(MatVec(a, x), mv)) << rows << "x" << cols;
    EXPECT_TRUE(BitEqual(MatVecTransA(a, xt), mvt)) << rows << "x" << cols;
    EXPECT_TRUE(BitEqual(Transpose(a), t)) << rows << "x" << cols;
  }
}

// GemmCsr's row and trans_a drivers at the top level (fanned out above the
// cutoff) against the same call inside a pool job (inline) and against the
// blocked engine on the dense operand: k on both sides of KC, alpha/beta
// other than (1, 0), the tiny-value path that redoes -0 sums densely, and
// the NaN fallback to the dense engine, on shapes on both sides of
// internal::kKernelInlineWork.
TEST(KernelTier, CsrProductsMatchInlineBitwise) {
  Rng rng(163);
  // (m, k, n) after op. 600 x 3000 and 3000 x 300 at 1% are above the
  // cutoff either way (38 and 188 row blocks; 3 and 12 blocks of output
  // rows under trans_a, over 12 and 2 k-slabs); 2879 x 140 x 32 is the
  // cora_ml encoder's Xᵀ·dZ (one k-slab, summed in C itself);
  // 20 x 200 x 6 is below the cutoff.
  const Shape shapes[] = {
      {600, 3000, 32}, {3000, 300, 16}, {2879, 140, 32}, {20, 200, 6}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Shape& s : shapes) {
    for (bool trans_a : {false, true}) {
      for (int variant = 0; variant < 3; ++variant) {
        // variant 1: the first 8 k-indices hold values near 1e-200 in both
        // operands, so those products underflow to signed zeros, and a -0
        // sum must be redone densely (where later zero terms turn it +0);
        // variant 2: B holds a NaN.
        Matrix a_dense = trans_a ? SparseRandomMatrix(s.k, s.m, 0.01, &rng)
                                 : SparseRandomMatrix(s.m, s.k, 0.01, &rng);
        Matrix b = RandomMatrix(s.k, s.n, &rng);
        if (variant == 1) {
          for (std::size_t p = 0; p < 8; ++p) {
            for (std::size_t j = 0; j < s.n; ++j) b(p, j) *= 1e-200;
            for (std::size_t i = 0; i < s.m; ++i) {
              (trans_a ? a_dense(p, i) : a_dense(i, p)) = 1e-200;
            }
          }
        }
        if (variant == 2) b(s.k - 1, 0) = nan;
        const CsrMatrix a = CsrMatrix::FromDense(a_dense);
        const Matrix c0 = RandomMatrix(s.m, s.n, &rng);
        for (const auto& [alpha, beta] :
             {std::pair<double, double>{1.0, 0.0}, {0.5, 0.25}, {-2.0, 1.0}}) {
          Matrix top = c0;
          SparseGemm(alpha, a, trans_a, b, beta, &top);
          Matrix inline_c = c0;
          InsidePoolJob(
              [&] { SparseGemm(alpha, a, trans_a, b, beta, &inline_c); });
          Matrix dense = c0;
          internal::GemmBlocked(alpha, a_dense, trans_a, b,
                                /*trans_b=*/false, beta, &dense);
          EXPECT_TRUE(BitEqual(top, inline_c) && BitEqual(top, dense))
              << "m=" << s.m << " k=" << s.k << " n=" << s.n
              << " trans_a=" << trans_a << " variant=" << variant
              << " alpha=" << alpha << " beta=" << beta;
        }
      }
    }
  }
}

// Two threads multiplying concurrently beside a long pool job: while the
// job holds the pool both run inline, afterwards they race for it; every
// product is bit-equal to the one computed alone.
TEST(KernelTier, ConcurrentGemmsBesideLongJobMatchBitwise) {
  Rng rng(157);
  const Matrix a = RandomMatrix(401, 300, &rng);
  const Matrix b = RandomMatrix(300, 40, &rng);
  const Matrix want = MatMul(a, b);
  constexpr int kIters = 6;
  std::atomic<int> done{0};
  std::atomic<bool> job_started{false};
  std::thread long_job([&] {
    ParallelFor(4, 4, [&](int) {
      job_started.store(true);
      // Holds the pool until the multiplying threads are half done.
      while (done.load() < kIters) std::this_thread::yield();
    });
  });
  while (!job_started.load()) std::this_thread::yield();
  std::atomic<int> mismatches{0};
  auto multiply = [&] {
    for (int it = 0; it < kIters; ++it) {
      if (!BitEqual(MatMul(a, b), want)) mismatches.fetch_add(1);
      done.fetch_add(1);
    }
  };
  std::thread first(multiply);
  std::thread second(multiply);
  first.join();
  second.join();
  long_job.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace gcon
