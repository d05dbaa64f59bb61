#include "linalg/gemm_kernels.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/check.h"
#include "eval/parallel.h"
#include "obs/metrics.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define GCON_GEMM_HAVE_X86_DISPATCH 1
#else
#define GCON_GEMM_HAVE_X86_DISPATCH 0
#endif

namespace gcon {
namespace internal {
namespace {

constexpr std::size_t MR = kGemmMR;
constexpr std::size_t NR = kGemmNR;
// Doubles in a packed MC x KC A block (MR-tall strips, zero-padded).
constexpr std::size_t kApackSize = ((kGemmMC + MR - 1) / MR) * kGemmKC * MR;

// --- packing ---------------------------------------------------------------
//
// A block (mc x kc) is stored as ceil(mc/MR) strips, each strip holding kc
// consecutive MR-wide column slices: packed[(strip*kc + p)*MR + r] =
// op(A)(ic + strip*MR + r, pc + p). B panels use the mirrored layout with
// NR-wide row slices. Fringe strips are zero-padded so the micro-kernel
// never branches on the tile shape.

void PackA(const Matrix& a, bool trans, std::size_t ic, std::size_t pc,
           std::size_t mc, std::size_t kc, double* packed) {
  const std::size_t strips = (mc + MR - 1) / MR;
  std::memset(packed, 0, strips * kc * MR * sizeof(double));
  if (!trans) {
    for (std::size_t i = 0; i < mc; ++i) {
      const double* row = a.RowPtr(ic + i) + pc;
      double* dst = packed + ((i / MR) * kc) * MR + (i % MR);
      for (std::size_t p = 0; p < kc; ++p) {
        dst[p * MR] = row[p];
      }
    }
  } else {
    // op(A) = A^T with A stored (k x m): read rows of A contiguously.
    for (std::size_t p = 0; p < kc; ++p) {
      const double* row = a.RowPtr(pc + p) + ic;
      for (std::size_t i = 0; i < mc; ++i) {
        packed[((i / MR) * kc + p) * MR + (i % MR)] = row[i];
      }
    }
  }
}

void PackB(const Matrix& b, bool trans, std::size_t pc, std::size_t jc,
           std::size_t kc, std::size_t nc, double* packed) {
  const std::size_t strips = (nc + NR - 1) / NR;
  std::memset(packed, 0, strips * kc * NR * sizeof(double));
  if (!trans) {
    for (std::size_t p = 0; p < kc; ++p) {
      const double* row = b.RowPtr(pc + p) + jc;
      for (std::size_t j = 0; j < nc; ++j) {
        packed[((j / NR) * kc + p) * NR + (j % NR)] = row[j];
      }
    }
  } else {
    // op(B) = B^T with B stored (n x k): read rows of B contiguously.
    for (std::size_t j = 0; j < nc; ++j) {
      const double* row = b.RowPtr(jc + j) + pc;
      double* dst = packed + ((j / NR) * kc) * NR + (j % NR);
      for (std::size_t p = 0; p < kc; ++p) {
        dst[p * NR] = row[p];
      }
    }
  }
}

// --- micro-kernels ---------------------------------------------------------
//
// acc (MR x NR, row-major) = sum_p a_strip[p][0..MR) outer b_strip[p][0..NR).
// Both kernels accumulate in the same p order; they differ only in FMA
// rounding, which is fixed per machine by the one-time dispatch below.

using MicroKernelFn = void (*)(std::size_t, const double*, const double*,
                               double*);

void MicroKernelPortable(std::size_t kc, const double* ap, const double* bp,
                         double* acc) {
  double c[MR * NR] = {0.0};
  for (std::size_t p = 0; p < kc; ++p) {
    const double* av = ap + p * MR;
    const double* bv = bp + p * NR;
    for (std::size_t r = 0; r < MR; ++r) {
      const double a = av[r];
      for (std::size_t s = 0; s < NR; ++s) {
        c[r * NR + s] += a * bv[s];
      }
    }
  }
  std::memcpy(acc, c, sizeof(c));
}

#if GCON_GEMM_HAVE_X86_DISPATCH
__attribute__((target("avx2,fma"))) void MicroKernelAvx2(std::size_t kc,
                                                         const double* ap,
                                                         const double* bp,
                                                         double* acc) {
  // 4 x 8 tile: 8 YMM accumulators, 2 B vectors, 1 broadcast A register.
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256d b0 = _mm256_loadu_pd(bp + p * NR);
    const __m256d b1 = _mm256_loadu_pd(bp + p * NR + 4);
    __m256d a = _mm256_broadcast_sd(ap + p * MR + 0);
    c00 = _mm256_fmadd_pd(a, b0, c00);
    c01 = _mm256_fmadd_pd(a, b1, c01);
    a = _mm256_broadcast_sd(ap + p * MR + 1);
    c10 = _mm256_fmadd_pd(a, b0, c10);
    c11 = _mm256_fmadd_pd(a, b1, c11);
    a = _mm256_broadcast_sd(ap + p * MR + 2);
    c20 = _mm256_fmadd_pd(a, b0, c20);
    c21 = _mm256_fmadd_pd(a, b1, c21);
    a = _mm256_broadcast_sd(ap + p * MR + 3);
    c30 = _mm256_fmadd_pd(a, b0, c30);
    c31 = _mm256_fmadd_pd(a, b1, c31);
  }
  _mm256_storeu_pd(acc + 0 * NR + 0, c00);
  _mm256_storeu_pd(acc + 0 * NR + 4, c01);
  _mm256_storeu_pd(acc + 1 * NR + 0, c10);
  _mm256_storeu_pd(acc + 1 * NR + 4, c11);
  _mm256_storeu_pd(acc + 2 * NR + 0, c20);
  _mm256_storeu_pd(acc + 2 * NR + 4, c21);
  _mm256_storeu_pd(acc + 3 * NR + 0, c30);
  _mm256_storeu_pd(acc + 3 * NR + 4, c31);
}
#endif  // GCON_GEMM_HAVE_X86_DISPATCH

// --- CSR row kernel --------------------------------------------------------
//
// out[s] for s in [0, n) from the stored entries of one CSR row (idx[e] its
// k index, vals[e] its value, entries in increasing k): the row's entries in
// each KC-deep k-slab are summed from +0 in entry order,
//   sum_slab[s] = sum over the slab's e of vals[e] * x[idx[e] * n + s],
// with the multiply-add of the micro-kernel of the same tier (`c += a * b`
// in the portable one, an FMA in the AVX2 one), and the slab sums are added
// in k order, as the blocked driver folds its slabs when alpha is 1 and
// beta 0. A slab the row leaves untouched would add +0, which only turns a
// -0 into +0, and a sum that has added a +0 never returns to -0: so when the
// row touches fewer than `slabs` slabs one +0 is added at the end, and a row
// with no entries is +0. Called on a single slab's entries with slabs = 1,
// it returns that slab's sum. The AVX2 kernel keeps the columns it works on
// in registers while it walks the entries: 32 of a row within one slab, 16
// of both the row and the current slab otherwise.

using CsrRowSumFn = void (*)(std::size_t, const std::int32_t*, const double*,
                             const double*, std::size_t, std::size_t,
                             double*);

constexpr unsigned kGemmKCShift = 8;
static_assert((std::size_t{1} << kGemmKCShift) == kGemmKC,
              "the CSR kernels find an entry's k-slab by shifting");

std::size_t SlabOf(std::int32_t k) {
  return static_cast<std::size_t>(k) >> kGemmKCShift;
}

void CsrRowSumPortable(std::size_t count, const std::int32_t* idx,
                       const double* vals, const double* x, std::size_t n,
                       std::size_t slabs, double* out) {
  for (std::size_t s = 0; s < n; ++s) {
    double c = 0.0;
    std::size_t touched = 0;
    for (std::size_t e = 0; e < count;) {
      const std::size_t slab = SlabOf(idx[e]);
      double sum = 0.0;
      for (; e < count && SlabOf(idx[e]) == slab; ++e) {
        sum += vals[e] * x[static_cast<std::size_t>(idx[e]) * n + s];
      }
      c = touched++ == 0 ? sum : c + sum;
    }
    out[s] = touched < slabs ? c + 0.0 : c;
  }
}

#if GCON_GEMM_HAVE_X86_DISPATCH
// kVecs four-column vectors of out from columns [0, 4 * kVecs) of x; with
// kOneSlab the entries lie in one slab, so the row is that slab's sum. The
// FMA loops live in target("avx2,fma") bodies on purpose: the scalar tail's
// __builtin_fma compiles to vfmadd there, but to a libm call in a function
// without the target attribute.
template <int kVecs, bool kOneSlab>
__attribute__((target("avx2,fma"), always_inline)) inline void
CsrRowSumVectorsAvx2(std::size_t count, const std::int32_t* idx,
                     const double* vals, const double* x, std::size_t n,
                     std::size_t slabs, double* out) {
  __m256d c[kVecs];
  for (int v = 0; v < kVecs; ++v) c[v] = _mm256_setzero_pd();
  std::size_t touched = 0;
  if constexpr (kOneSlab) {
    // The row is its one slab's sum, taken in c itself.
    for (std::size_t e = 0; e < count; ++e) {
      const __m256d a = _mm256_set1_pd(vals[e]);
      const double* xr = x + static_cast<std::size_t>(idx[e]) * n;
      for (int v = 0; v < kVecs; ++v) {
        c[v] = _mm256_fmadd_pd(a, _mm256_loadu_pd(xr + 4 * v), c[v]);
      }
    }
    touched = count > 0 ? 1 : 0;
  } else {
    for (std::size_t e = 0; e < count;) {
      const std::size_t slab = SlabOf(idx[e]);
      __m256d sum[kVecs];
      for (int v = 0; v < kVecs; ++v) sum[v] = _mm256_setzero_pd();
      for (; e < count && SlabOf(idx[e]) == slab; ++e) {
        const __m256d a = _mm256_set1_pd(vals[e]);
        const double* xr = x + static_cast<std::size_t>(idx[e]) * n;
        for (int v = 0; v < kVecs; ++v) {
          sum[v] = _mm256_fmadd_pd(a, _mm256_loadu_pd(xr + 4 * v), sum[v]);
        }
      }
      for (int v = 0; v < kVecs; ++v) {
        c[v] = touched == 0 ? sum[v] : _mm256_add_pd(c[v], sum[v]);
      }
      ++touched;
    }
  }
  for (int v = 0; v < kVecs; ++v) {
    if (touched < slabs) c[v] = _mm256_add_pd(c[v], _mm256_setzero_pd());
    _mm256_storeu_pd(out + 4 * v, c[v]);
  }
}

__attribute__((target("avx2,fma"))) void CsrRowSumAvx2(
    std::size_t count, const std::int32_t* idx, const double* vals,
    const double* x, std::size_t n, std::size_t slabs, double* out) {
  std::size_t s = 0;
  if (count == 0 || SlabOf(idx[0]) == SlabOf(idx[count - 1])) {
    for (; s + 32 <= n; s += 32) {
      CsrRowSumVectorsAvx2<8, true>(count, idx, vals, x + s, n, slabs,
                                    out + s);
    }
    for (; s + 4 <= n; s += 4) {
      CsrRowSumVectorsAvx2<1, true>(count, idx, vals, x + s, n, slabs,
                                    out + s);
    }
  } else {
    for (; s + 16 <= n; s += 16) {
      CsrRowSumVectorsAvx2<4, false>(count, idx, vals, x + s, n, slabs,
                                     out + s);
    }
    for (; s + 4 <= n; s += 4) {
      CsrRowSumVectorsAvx2<1, false>(count, idx, vals, x + s, n, slabs,
                                     out + s);
    }
  }
  for (; s < n; ++s) {
    double c = 0.0;
    std::size_t touched = 0;
    for (std::size_t e = 0; e < count;) {
      const std::size_t slab = SlabOf(idx[e]);
      double sum = 0.0;
      for (; e < count && SlabOf(idx[e]) == slab; ++e) {
        sum = __builtin_fma(vals[e],
                            x[static_cast<std::size_t>(idx[e]) * n + s], sum);
      }
      c = touched++ == 0 ? sum : c + sum;
    }
    out[s] = touched < slabs ? c + 0.0 : c;
  }
}
#endif  // GCON_GEMM_HAVE_X86_DISPATCH

bool DetectAvx2() {
#if GCON_GEMM_HAVE_X86_DISPATCH
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

MicroKernelFn ResolveMicroKernel() {
#if GCON_GEMM_HAVE_X86_DISPATCH
  if (DetectAvx2()) return MicroKernelAvx2;
#endif
  return MicroKernelPortable;
}

CsrRowSumFn ResolveCsrRowSum() {
#if GCON_GEMM_HAVE_X86_DISPATCH
  if (DetectAvx2()) return CsrRowSumAvx2;
#endif
  return CsrRowSumPortable;
}

// Resolved once; the choice is stable for the process lifetime, so repeated
// products on identical inputs are bitwise identical. Both resolve from the
// same CPU test, so the CSR path fuses exactly when the micro-kernel does.
const MicroKernelFn kMicroKernel = ResolveMicroKernel();
const CsrRowSumFn kCsrRowSum = ResolveCsrRowSum();

// Folds one k-slab's accumulator row into a C row. `first` marks the first
// k-slab, where beta is applied (beta == 0 overwrites without reading C);
// later slabs accumulate. Both drivers write through here, so the dense and
// CSR paths round alpha/beta identically.
inline void WriteRow(const double* acc, std::size_t cols, double alpha,
                     double beta, bool first, double* crow) {
  if (!first) {
    for (std::size_t s = 0; s < cols; ++s) crow[s] += alpha * acc[s];
  } else if (beta == 0.0) {
    for (std::size_t s = 0; s < cols; ++s) crow[s] = alpha * acc[s];
  } else {
    for (std::size_t s = 0; s < cols; ++s) {
      crow[s] = alpha * acc[s] + beta * crow[s];
    }
  }
}

// Writes an rows x cols corner of the MR x NR accumulator tile into C at
// (ci, cj).
inline void WriteTile(const double* acc, std::size_t rows, std::size_t cols,
                      double alpha, double beta, bool first, Matrix* c,
                      std::size_t ci, std::size_t cj) {
  for (std::size_t r = 0; r < rows; ++r) {
    WriteRow(acc + r * NR, cols, alpha, beta, first, c->RowPtr(ci + r) + cj);
  }
}

void ScaleOrZero(double beta, Matrix* c) {
  double* cd = c->data();
  if (beta == 0.0) {
    std::memset(cd, 0, c->size() * sizeof(double));
  } else if (beta != 1.0) {
    for (std::size_t i = 0; i < c->size(); ++i) cd[i] *= beta;
  }
}

// Shape-class accounting for the observability tier: every real GemmBlocked
// call (one that runs the packed kernel) bumps a per-class call counter and
// a FLOP counter (2*m*n*k). The classes partition the (m, n) plane the way
// the serve path exercises it: single-row feature GEMVs, tall inference
// batches, and near-square training products. GemmCsr calls form their own
// class, counted at the work they do (2*nnz*n).
constexpr std::array<const char*, 6> kGemmShapeNames = {
    "vec_mat", "mat_vec", "tall_skinny", "wide", "square", "csr"};
constexpr std::size_t kCsrShapeClass = 5;

std::size_t GemmShapeClass(std::size_t m, std::size_t n) {
  if (m == 1) return 0;           // vec_mat: one row through the weights
  if (n == 1) return 1;           // mat_vec
  if (m >= 4 * n) return 2;       // tall_skinny: batch >> width
  if (n >= 4 * m) return 3;       // wide
  return 4;                       // square-ish
}

void RecordGemmCall(std::size_t shape_class, std::uint64_t flops) {
  if (!obs::MetricsEnabled()) return;
  struct ShapeHandles {
    obs::Counter* calls;
    obs::Counter* flops;
  };
  static const std::array<ShapeHandles, kGemmShapeNames.size()> handles = [] {
    std::array<ShapeHandles, kGemmShapeNames.size()> out{};
    auto& registry = obs::MetricsRegistry::Global();
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].calls = registry.counter(
          "gcon_gemm_calls_total", "GemmBlocked invocations, by shape class.",
          {{"shape", kGemmShapeNames[i]}});
      out[i].flops = registry.counter(
          "gcon_gemm_flops_total",
          "Floating-point operations (2*m*n*k; csr: 2*nnz*n), by shape "
          "class.",
          {{"shape", kGemmShapeNames[i]}});
    }
    return out;
  }();
  const ShapeHandles& h = handles[shape_class];
  h.calls->Increment();
  h.flops->Increment(flops);
}

// --- CSR driver helpers ----------------------------------------------------

Matrix Densify(const CsrOperand& a) {
  Matrix dense(a.rows, a.cols);
  for (std::size_t i = 0; i < a.rows; ++i) {
    for (std::int64_t e = a.row_ptr[i]; e < a.row_ptr[i + 1]; ++e) {
      dense(i, static_cast<std::size_t>(a.col_idx[e])) = a.values[e];
    }
  }
  return dense;
}

double CsrAt(const CsrOperand& a, std::size_t i, std::size_t j) {
  const std::int32_t* begin = a.col_idx + a.row_ptr[i];
  const std::int32_t* end = a.col_idx + a.row_ptr[i + 1];
  const std::int32_t* it =
      std::lower_bound(begin, end, static_cast<std::int32_t>(j));
  if (it == end || *it != static_cast<std::int32_t>(j)) return 0.0;
  return a.values[it - a.col_idx];
}

// A skipped zero term adds a signed zero, which changes the accumulator only
// when it holds -0; with round-to-nearest that needs a nonzero product that
// underflows to -0 (an FMA keeps it, an unfused add turns it into +0). From
// there the dense sum may return to +0 while the sparse one stays at -0, and
// that is the only way the two can end apart. So each -0 left in a slab's
// sum row is summed again the dense way: every k of the slab, zero terms
// included, with the same multiply-add. Products of values at least 2^-511
// in magnitude cannot underflow, so the driver only calls this when A or B
// holds a smaller value (zeros count, which is merely cautious).
void RedoNegativeZeros(const CsrOperand& op, std::size_t i, std::size_t pc,
                       std::size_t pc_end, const Matrix& b, double* acc) {
  const bool fused = kCsrRowSum != CsrRowSumPortable;
  for (std::size_t s = 0; s < b.cols(); ++s) {
    if (acc[s] != 0.0 || !std::signbit(acc[s])) continue;
    double sum = 0.0;
    for (std::size_t p = pc; p < pc_end; ++p) {
      const double av = CsrAt(op, i, p);
      sum = fused ? std::fma(av, b(p, s), sum) : sum + av * b(p, s);
    }
    acc[s] = sum;
  }
}

// Fixed blocks of C's rows for the CSR driver's fan-out: op(A) = A is a few
// hundred rows of features, op(A) = Aᵀ one row per feature.
constexpr std::size_t kCsrRowBlock = 16;
constexpr std::size_t kCsrTransBlock = 64;

// Row i of C is op(A)'s row i times B. With alpha 1, beta 0 and no product
// that can underflow, the row kernel computes the whole row. Otherwise each
// slab's sum is taken alone, its -0s redone, and folded through WriteRow as
// the blocked driver folds it; slab 0, which applies beta, always, and a
// slab the row does not touch never: it would fold alpha * (+0), which for
// alpha < 0 is -0 and leaves every value as it is, and for alpha > 0 is +0,
// for which one +0 added at the end stands in (see the row kernel). With
// `only_touched`, rows without entries are left alone: C must already hold
// the +0 the product gives them.
void CsrRowRange(double alpha, const CsrPlan& plan, const Matrix& b,
                 double beta, bool may_underflow, bool only_touched, Matrix* c,
                 std::size_t i0, std::size_t i1) {
  const CsrOperand& op = plan.op;
  const std::size_t k = op.cols;
  const std::size_t n = b.cols();
  const std::size_t slabs = (k + kGemmKC - 1) / kGemmKC;
  const bool direct = alpha == 1.0 && beta == 0.0 && !may_underflow;
  const bool skip_untouched = std::isfinite(alpha);
  thread_local std::vector<double> sum;
  if (!direct && sum.size() < n) sum.resize(n);
  for (std::size_t i = i0; i < i1; ++i) {
    const std::int64_t e_end = op.row_ptr[i + 1];
    std::int64_t e = op.row_ptr[i];
    if (only_touched && e == e_end) continue;
    double* crow = c->RowPtr(i);
    if (direct) {
      kCsrRowSum(static_cast<std::size_t>(e_end - e), op.col_idx + e,
                 op.values + e, b.data(), n, slabs, crow);
      continue;
    }
    bool skipped = false;
    for (std::size_t slab = 0; slab < slabs; ++slab) {
      const std::int64_t slab_begin = e;
      while (e < e_end && SlabOf(op.col_idx[e]) == slab) ++e;
      if (e == slab_begin && skip_untouched && slab > 0) {
        skipped = true;
        continue;
      }
      kCsrRowSum(static_cast<std::size_t>(e - slab_begin),
                 op.col_idx + slab_begin, op.values + slab_begin, b.data(), n,
                 /*slabs=*/1, sum.data());
      const std::size_t pc = slab * kGemmKC;
      if (may_underflow) {
        RedoNegativeZeros(op, i, pc, std::min(pc + kGemmKC, k), b,
                          sum.data());
      }
      WriteRow(sum.data(), n, alpha, beta, slab == 0, crow);
    }
    if (skipped && alpha > 0.0) {
      for (std::size_t s = 0; s < n; ++s) crow[s] += 0.0;
    }
  }
}

// CsrRowRange over fixed blocks of C's rows.
void GemmCsrRows(double alpha, const CsrPlan& plan, const Matrix& b,
                 double beta, bool may_underflow, Matrix* c) {
  const CsrOperand& op = plan.op;
  const std::size_t slabs = (op.cols + kGemmKC - 1) / kGemmKC;
  const auto nnz = static_cast<std::uint64_t>(op.row_ptr[op.rows]);
  const std::uint64_t work = (nnz + op.rows * slabs) * b.cols();
  KernelForRanges(op.rows, plan.trans_a ? kCsrTransBlock : kCsrRowBlock, work,
                  [&](std::size_t i0, std::size_t i1) {
                    CsrRowRange(alpha, plan, b, beta, may_underflow,
                                /*only_touched=*/false, c, i0, i1);
                  });
}

// Rows [ic, ic + mc) of one (jc, pc) pass of the blocked driver, over the
// packed B panel `bpack`.
void BlockedPass(double alpha, const Matrix& a, bool trans_a, double beta,
                 Matrix* c, const double* bpack, std::size_t jc,
                 std::size_t nc, std::size_t pc, std::size_t kc,
                 std::size_t ic, std::size_t mc) {
  thread_local std::vector<double> apack(kApackSize);
  alignas(64) double acc[MR * NR];
  const std::size_t i_strips = (mc + MR - 1) / MR;
  const std::size_t j_strips = (nc + NR - 1) / NR;
  PackA(a, trans_a, ic, pc, mc, kc, apack.data());
  for (std::size_t js = 0; js < j_strips; ++js) {
    const double* bs = bpack + js * kc * NR;
    const std::size_t cols = std::min(NR, nc - js * NR);
    for (std::size_t is = 0; is < i_strips; ++is) {
      kMicroKernel(kc, apack.data() + is * kc * MR, bs, acc);
      WriteTile(acc, std::min(MR, mc - is * MR), cols, alpha, beta, pc == 0,
                c, ic + is * MR, jc + js * NR);
    }
  }
}

// The shape checks and the products without a term, shared by both entries;
// true when nothing is left to do.
bool CsrTrivial(double alpha, const CsrOperand& a, bool trans_a,
                const Matrix& b, double beta, Matrix* c) {
  const std::size_t m = trans_a ? a.cols : a.rows;
  const std::size_t k = trans_a ? a.rows : a.cols;
  const std::size_t n = b.cols();
  GCON_CHECK_EQ(k, b.rows()) << "gemm: inner dims mismatch";
  GCON_CHECK_EQ(c->rows(), m);
  GCON_CHECK_EQ(c->cols(), n);
  if (m == 0 || n == 0) return true;
  if (k == 0 || alpha == 0.0) {
    ScaleOrZero(beta, c);
    return true;
  }
  return false;
}

}  // namespace

bool GemmUsesAvx2() { return kMicroKernel != MicroKernelPortable; }

void KernelFor(std::size_t blocks, std::uint64_t work,
               const std::function<void(int)>& fn) {
  // threads = 1 runs inline in order; 0 means one per hardware thread.
  ParallelFor(static_cast<int>(blocks), work < kKernelInlineWork ? 1 : 0, fn);
}

void GemmBlocked(double alpha, const Matrix& a, bool trans_a, const Matrix& b,
                 bool trans_b, double beta, Matrix* c) {
  const std::size_t m = trans_a ? a.cols() : a.rows();
  const std::size_t k = trans_a ? a.rows() : a.cols();
  const std::size_t n = trans_b ? b.rows() : b.cols();
  GCON_CHECK_EQ(k, trans_b ? b.cols() : b.rows())
      << "gemm: inner dims mismatch";
  GCON_CHECK_EQ(c->rows(), m);
  GCON_CHECK_EQ(c->cols(), n);
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0) {
    // No product term: C = beta * C (BLAS convention, A/B never read).
    ScaleOrZero(beta, c);
    return;
  }
  RecordGemmCall(GemmShapeClass(m, n), 2ull * m * n * k);

  const std::size_t max_nc = std::min(kGemmNC, n);
  const std::size_t max_kc = std::min(kGemmKC, k);
  const std::size_t b_strips_cap = (max_nc + NR - 1) / NR;
  std::vector<double> bpack(b_strips_cap * max_kc * NR);

  for (std::size_t jc = 0; jc < n; jc += kGemmNC) {
    const std::size_t nc = std::min(kGemmNC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kGemmKC) {
      const std::size_t kc = std::min(kGemmKC, k - pc);
      PackB(b, trans_b, pc, jc, kc, nc, bpack.data());

      // The row blocks share bpack read-only; A packs into per-thread scratch.
      const std::size_t ic_blocks = (m + kGemmMC - 1) / kGemmMC;
      KernelFor(ic_blocks, m * nc * kc, [&](int ib) {
        const std::size_t ic = static_cast<std::size_t>(ib) * kGemmMC;
        const std::size_t mc = std::min(kGemmMC, m - ic);
        BlockedPass(alpha, a, trans_a, beta, c, bpack.data(), jc, nc, pc, kc,
                    ic, mc);
      });
    }
  }
}

void GemmBlockedRows(double alpha, const Matrix& a, bool trans_a,
                     const Matrix& b, bool trans_b, double beta, Matrix* c,
                     std::size_t r0, std::size_t r1) {
  const std::size_t k = trans_a ? a.rows() : a.cols();
  const std::size_t n = trans_b ? b.rows() : b.cols();
  GCON_CHECK_EQ(k, trans_b ? b.cols() : b.rows())
      << "gemm: inner dims mismatch";
  GCON_CHECK_EQ(c->rows(), trans_a ? a.cols() : a.rows());
  GCON_CHECK_EQ(c->cols(), n);
  GCON_CHECK_LE(r1, c->rows());
  if (r0 >= r1 || n == 0) return;
  if (k == 0 || alpha == 0.0) {
    for (std::size_t i = r0; i < r1; ++i) {
      double* row = c->RowPtr(i);
      for (std::size_t j = 0; j < n; ++j) {
        row[j] = beta == 0.0 ? 0.0 : beta == 1.0 ? row[j] : row[j] * beta;
      }
    }
    return;
  }
  thread_local std::vector<double> bpack;
  for (std::size_t jc = 0; jc < n; jc += kGemmNC) {
    const std::size_t nc = std::min(kGemmNC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kGemmKC) {
      const std::size_t kc = std::min(kGemmKC, k - pc);
      const std::size_t size = (nc + NR - 1) / NR * kc * NR;
      if (bpack.size() < size) bpack.resize(size);
      PackB(b, trans_b, pc, jc, kc, nc, bpack.data());
      for (std::size_t ic = r0; ic < r1; ic += kGemmMC) {
        BlockedPass(alpha, a, trans_a, beta, c, bpack.data(), jc, nc, pc, kc,
                    ic, std::min(kGemmMC, r1 - ic));
      }
    }
  }
}

void RecordGemm(std::size_t m, std::size_t n, std::size_t k) {
  if (m == 0 || n == 0 || k == 0) return;
  RecordGemmCall(GemmShapeClass(m, n), 2ull * m * n * k);
}

void RecordCsrGemm(const CsrPlan& plan, std::size_t n) {
  const CsrOperand& op = plan.op;
  if (op.rows == 0 || n == 0 || op.cols == 0) return;
  RecordGemmCall(kCsrShapeClass, 2ull * op.row_ptr[op.rows] * n);
}

void GemmCsrRowRange(const CsrPlan& plan, const Matrix& b,
                     const ValueFlags& b_flags, Matrix* c, std::size_t r0,
                     std::size_t r1) {
  GCON_CHECK(!b_flags.non_finite) << "a non-finite B needs the dense path";
  GCON_CHECK_EQ(plan.op.cols, b.rows()) << "gemm: inner dims mismatch";
  GCON_CHECK_EQ(c->rows(), plan.op.rows);
  GCON_CHECK_EQ(c->cols(), b.cols());
  GCON_CHECK_LE(r1, c->rows());
  if (b.cols() == 0) return;
  CsrRowRange(1.0, plan, b, 0.0, b_flags.tiny || plan.a_flags.tiny,
              /*only_touched=*/plan.trans_a, c, r0, r1);
}

// Reads only the 11 exponent bits (all ones: NaN or Inf; under 512: below
// 2^-511 in magnitude), branch-free so the scan vectorizes.
ValueFlags ScanValueRange(const double* d, std::size_t size) {
  std::uint32_t non_finite = 0;
  std::uint32_t tiny = 0;
  for (std::size_t i = 0; i < size; ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, d + i, sizeof(bits));
    const std::uint32_t exponent =
        static_cast<std::uint32_t>(bits >> 52) & 0x7ffu;
    non_finite |= exponent == 0x7ffu ? 1u : 0u;
    tiny |= exponent < 512u ? 1u : 0u;
  }
  return {non_finite != 0, tiny != 0};
}

// A value scanned costs about half a streaming multiply-add (0.24 ns
// vectorized).
ValueFlags ScanValues(const double* d, std::size_t size) {
  constexpr std::size_t kBlock = 8192;
  if (size <= kBlock) return ScanValueRange(d, size);
  std::vector<ValueFlags> parts((size + kBlock - 1) / kBlock);
  KernelForRanges(size, kBlock, size / 2,
                  [&](std::size_t begin, std::size_t end) {
                    parts[begin / kBlock] =
                        ScanValueRange(d + begin, end - begin);
                  });
  ValueFlags all;
  for (const ValueFlags& part : parts) {
    all.non_finite |= part.non_finite;
    all.tiny |= part.tiny;
  }
  return all;
}

CsrPlan::CsrPlan(const CsrOperand& a, bool trans_a_in)
    : op(a), trans_a(trans_a_in) {
  const auto nnz = static_cast<std::size_t>(a.row_ptr[a.rows]);
  a_flags = ScanValues(a.values, nnz);
  if (!trans_a) return;
  // Aᵀ by a counting sort on the column: A's rows are visited in order, so
  // each row of Aᵀ lists its entries in increasing p, the order in which
  // the blocked driver sums them.
  row_ptr.assign(a.cols + 1, 0);
  for (std::size_t e = 0; e < nnz; ++e) {
    ++row_ptr[static_cast<std::size_t>(a.col_idx[e]) + 1];
  }
  for (std::size_t j = 0; j < a.cols; ++j) row_ptr[j + 1] += row_ptr[j];
  col_idx.resize(nnz);
  values.resize(nnz);
  std::vector<std::int64_t> next(row_ptr.begin(), row_ptr.end() - 1);
  for (std::size_t p = 0; p < a.rows; ++p) {
    for (std::int64_t e = a.row_ptr[p]; e < a.row_ptr[p + 1]; ++e) {
      const auto dst = static_cast<std::size_t>(
          next[static_cast<std::size_t>(a.col_idx[e])]++);
      col_idx[dst] = static_cast<std::int32_t>(p);
      values[dst] = a.values[e];
    }
  }
  op = {a.cols, a.rows, row_ptr.data(), col_idx.data(), values.data()};
}

void GemmCsr(double alpha, const CsrOperand& a, bool trans_a, const Matrix& b,
             double beta, Matrix* c) {
  if (CsrTrivial(alpha, a, trans_a, b, beta, c)) return;
  const ValueFlags b_flags = ScanValues(b.data(), b.size());
  if (b_flags.non_finite) {
    // 0 * NaN and 0 * Inf must still poison C (linalg/ops.h), and skipping
    // A's zeros would drop them.
    GemmBlocked(alpha, Densify(a), trans_a, b, /*trans_b=*/false, beta, c);
    return;
  }
  const CsrPlan plan(a, trans_a);
  RecordCsrGemm(plan, b.cols());
  GemmCsrRows(alpha, plan, b, beta, b_flags.tiny || plan.a_flags.tiny, c);
}

void ZeroEmptyRows(const CsrPlan& plan, Matrix* c) {
  const CsrOperand& op = plan.op;
  GCON_CHECK_EQ(c->rows(), op.rows);
  for (std::size_t i = 0; i < op.rows; ++i) {
    if (op.row_ptr[i] == op.row_ptr[i + 1]) {
      std::fill(c->RowPtr(i), c->RowPtr(i) + c->cols(), 0.0);
    }
  }
}

void GemmReference(double alpha, const Matrix& a, const Matrix& b, double beta,
                   Matrix* c) {
  GCON_CHECK_EQ(a.cols(), b.rows()) << "gemm: inner dims mismatch";
  GCON_CHECK_EQ(c->rows(), a.rows());
  GCON_CHECK_EQ(c->cols(), b.cols());
  const std::int64_t m = static_cast<std::int64_t>(a.rows());
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  for (std::int64_t i = 0; i < m; ++i) {
    double* crow = c->RowPtr(static_cast<std::size_t>(i));
    if (beta == 0.0) {
      for (std::size_t j = 0; j < n; ++j) crow[j] = 0.0;
    } else if (beta != 1.0) {
      for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    const double* arow = a.RowPtr(static_cast<std::size_t>(i));
    for (std::size_t p = 0; p < k; ++p) {
      const double av = alpha * arow[p];
      const double* brow = b.RowPtr(p);
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

}  // namespace internal
}  // namespace gcon
