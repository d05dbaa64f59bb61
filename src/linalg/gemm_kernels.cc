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

// --- CSR axpy kernels ------------------------------------------------------
//
// For each stored entry e with index j = idx[e]:
//   y_j[0..n) += vals[e] * x_j[0..n),
//   x_j = x + j * x_stride,  y_j = y + (j >> y_shift) * y_stride.
// One kernel serves both CSR drivers. The row driver gathers B rows into one
// accumulator row per k-slab (x_stride = n, y_shift = log2 KC); the
// transposed driver scatters one B row into accumulator rows (x_stride = 0,
// y_shift = 0). The multiply-add mirrors the micro-kernel of the same tier:
// `c += a * b` in the portable one, an FMA in the AVX2 one.

using CsrAxpyFn = void (*)(std::size_t, const std::int32_t*, const double*,
                           const double*, std::size_t, double*, unsigned,
                           std::size_t, std::size_t);

void CsrAxpyPortable(std::size_t count, const std::int32_t* idx,
                     const double* vals, const double* x, std::size_t x_stride,
                     double* y, unsigned y_shift, std::size_t y_stride,
                     std::size_t n) {
  for (std::size_t e = 0; e < count; ++e) {
    const std::size_t j = static_cast<std::size_t>(idx[e]);
    const double v = vals[e];
    const double* xr = x + j * x_stride;
    double* yr = y + (j >> y_shift) * y_stride;
    for (std::size_t s = 0; s < n; ++s) yr[s] += v * xr[s];
  }
}

#if GCON_GEMM_HAVE_X86_DISPATCH
// The FMA loop lives in this target("avx2,fma") body on purpose: the scalar
// tail's __builtin_fma compiles to vfmadd here, but to a libm call in a
// function without the target attribute.
__attribute__((target("avx2,fma"))) void CsrAxpyAvx2(
    std::size_t count, const std::int32_t* idx, const double* vals,
    const double* x, std::size_t x_stride, double* y, unsigned y_shift,
    std::size_t y_stride, std::size_t n) {
  for (std::size_t e = 0; e < count; ++e) {
    const std::size_t j = static_cast<std::size_t>(idx[e]);
    const double v = vals[e];
    const double* xr = x + j * x_stride;
    double* yr = y + (j >> y_shift) * y_stride;
    const __m256d vv = _mm256_set1_pd(v);
    std::size_t s = 0;
    for (; s + 4 <= n; s += 4) {
      _mm256_storeu_pd(yr + s, _mm256_fmadd_pd(vv, _mm256_loadu_pd(xr + s),
                                               _mm256_loadu_pd(yr + s)));
    }
    for (; s < n; ++s) yr[s] = __builtin_fma(v, xr[s], yr[s]);
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

CsrAxpyFn ResolveCsrAxpy() {
#if GCON_GEMM_HAVE_X86_DISPATCH
  if (DetectAvx2()) return CsrAxpyAvx2;
#endif
  return CsrAxpyPortable;
}

// Resolved once; the choice is stable for the process lifetime, so repeated
// products on identical inputs are bitwise identical. Both resolve from the
// same CPU test, so the CSR path fuses exactly when the micro-kernel does.
const MicroKernelFn kMicroKernel = ResolveMicroKernel();
const CsrAxpyFn kCsrAxpy = ResolveCsrAxpy();

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

// What GemmCsr must know about an operand's values, from one pass over them.
struct ValueScan {
  bool non_finite = false;  // some value is NaN or Inf
  bool tiny = false;        // some value, zero included, is below 2^-511
};

// Reads only the 11 exponent bits (all ones: NaN or Inf; under 512: below
// 2^-511 in magnitude), branch-free so the scan vectorizes.
ValueScan ScanRange(const double* d, std::size_t size) {
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

// ScanRange over fixed blocks; a scanned value costs about half a streaming
// multiply-add (0.24 ns vectorized).
ValueScan ScanValues(const double* d, std::size_t size) {
  constexpr std::size_t kBlock = 8192;
  std::vector<ValueScan> parts((size + kBlock - 1) / kBlock);
  KernelForRanges(size, kBlock, size / 2,
                  [&](std::size_t begin, std::size_t end) {
                    parts[begin / kBlock] = ScanRange(d + begin, end - begin);
                  });
  ValueScan all;
  for (const ValueScan& part : parts) {
    all.non_finite |= part.non_finite;
    all.tiny |= part.tiny;
  }
  return all;
}

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
// accumulator row is summed again the dense way: every k of the slab, zero
// terms included, with the same multiply-add. Products of values at least
// 2^-511 in magnitude cannot underflow, so the drivers only call this when
// A or B holds a smaller value (zeros count, which is merely cautious).
void RedoNegativeZeros(const CsrOperand& a, bool trans_a, std::size_t i,
                       std::size_t pc, std::size_t pc_end, const Matrix& b,
                       double* acc) {
  const bool fused = kCsrAxpy != CsrAxpyPortable;
  for (std::size_t s = 0; s < b.cols(); ++s) {
    if (acc[s] != 0.0 || !std::signbit(acc[s])) continue;
    double sum = 0.0;
    for (std::size_t p = pc; p < pc_end; ++p) {
      const double av = trans_a ? CsrAt(a, p, i) : CsrAt(a, i, p);
      sum = fused ? std::fma(av, b(p, s), sum) : sum + av * b(p, s);
    }
    acc[s] = sum;
  }
}

constexpr unsigned kGemmKCShift = 8;
static_assert((std::size_t{1} << kGemmKCShift) == kGemmKC,
              "the CSR row driver finds an entry's k-slab by shifting");

// Fixed blocks of C's rows for the two CSR drivers' fan-out.
constexpr std::size_t kCsrRowBlock = 16;
constexpr std::size_t kCsrTransBlock = 256;

// op(A) = A: one kernel call gathers the B rows named by row i's stored
// entries into one accumulator row per k-slab; the slabs are then folded
// into C's row i in k order. Each block of rows has its own accumulator.
void GemmCsrRows(double alpha, const CsrOperand& a, const Matrix& b,
                 double beta, bool may_underflow, Matrix* c) {
  const std::size_t k = a.cols;
  const std::size_t n = b.cols();
  const std::size_t slabs = (k + kGemmKC - 1) / kGemmKC;
  const auto nnz = static_cast<std::uint64_t>(a.row_ptr[a.rows]);
  const std::uint64_t work = (nnz + a.rows * slabs) * n;
  KernelForRanges(a.rows, kCsrRowBlock, work, [&](std::size_t i0,
                                                  std::size_t i1) {
    std::vector<double> acc(slabs * n);
    for (std::size_t i = i0; i < i1; ++i) {
      const std::int64_t e = a.row_ptr[i];
      std::fill(acc.begin(), acc.end(), 0.0);
      kCsrAxpy(static_cast<std::size_t>(a.row_ptr[i + 1] - e), a.col_idx + e,
               a.values + e, b.data(), n, acc.data(), kGemmKCShift, n, n);
      for (std::size_t slab = 0; slab < slabs; ++slab) {
        double* slab_acc = acc.data() + slab * n;
        const std::size_t pc = slab * kGemmKC;
        if (may_underflow) {
          RedoNegativeZeros(a, /*trans_a=*/false, i, pc,
                            std::min(pc + kGemmKC, k), b, slab_acc);
        }
        WriteRow(slab_acc, n, alpha, beta, slab == 0, c->RowPtr(i));
      }
    }
  });
}

// op(A) = A^T: each stored row p of A scatters B's row p into the
// accumulator rows its entries name; a whole k-slab of rows is accumulated
// before it is folded into C. With alpha == 1 and beta == 0 the first slab's
// fold is a plain copy, so that slab accumulates in C itself. A block of
// output rows takes from each stored row only its entries in that block's
// column range, so every element is still summed over the same slabs in p
// order.
void GemmCsrTransA(double alpha, const CsrOperand& a, const Matrix& b,
                   double beta, bool may_underflow, Matrix* c) {
  const std::size_t m = a.cols;
  const std::size_t k = a.rows;
  const std::size_t n = b.cols();
  const std::size_t blocks = (m + kCsrTransBlock - 1) / kCsrTransBlock;
  // split[p * (blocks + 1) + blk]: row p's first entry whose column is at
  // least blk * kCsrTransBlock; one pass instead of a search per block.
  std::vector<std::int64_t> split(k * (blocks + 1));
  for (std::size_t p = 0; p < k; ++p) {
    std::int64_t* row_split = split.data() + p * (blocks + 1);
    std::size_t blk = 0;
    for (std::int64_t e = a.row_ptr[p]; e < a.row_ptr[p + 1]; ++e) {
      const auto col = static_cast<std::size_t>(a.col_idx[e]);
      while (blk * kCsrTransBlock <= col) row_split[blk++] = e;
    }
    while (blk <= blocks) row_split[blk++] = a.row_ptr[p + 1];
  }
  const bool first_in_place = alpha == 1.0 && beta == 0.0;
  // Shared by the blocks, which zero and use only their own rows.
  std::unique_ptr<double[]> acc;
  if (k > kGemmKC || !first_in_place) acc.reset(new double[m * n]);
  const auto nnz = static_cast<std::uint64_t>(a.row_ptr[k]);
  const std::uint64_t work =
      (nnz + m * ((k + kGemmKC - 1) / kGemmKC) + k * blocks) * n;
  KernelFor(blocks, work, [&](int blk) {
    const std::size_t j0 = static_cast<std::size_t>(blk) * kCsrTransBlock;
    const std::size_t j1 = std::min(j0 + kCsrTransBlock, m);
    for (std::size_t pc = 0; pc < k; pc += kGemmKC) {
      const std::size_t pc_end = std::min(pc + kGemmKC, k);
      const bool in_place = pc == 0 && first_in_place;
      double* dst = in_place ? c->data() : acc.get();
      std::fill(dst + j0 * n, dst + j1 * n, 0.0);
      for (std::size_t p = pc; p < pc_end; ++p) {
        const std::int64_t* row_split =
            split.data() + p * (blocks + 1) + blk;
        kCsrAxpy(static_cast<std::size_t>(row_split[1] - row_split[0]),
                 a.col_idx + row_split[0], a.values + row_split[0],
                 b.RowPtr(p), 0, dst, 0, n, n);
      }
      for (std::size_t i = j0; i < j1; ++i) {
        double* row = dst + i * n;
        if (may_underflow) {
          RedoNegativeZeros(a, /*trans_a=*/true, i, pc, pc_end, b, row);
        }
        if (!in_place) WriteRow(row, n, alpha, beta, pc == 0, c->RowPtr(i));
      }
    }
  });
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
    const std::size_t j_strips = (nc + NR - 1) / NR;
    for (std::size_t pc = 0; pc < k; pc += kGemmKC) {
      const std::size_t kc = std::min(kGemmKC, k - pc);
      const bool first = (pc == 0);
      PackB(b, trans_b, pc, jc, kc, nc, bpack.data());

      // The row blocks share bpack read-only; A packs into per-thread scratch.
      const std::size_t ic_blocks = (m + kGemmMC - 1) / kGemmMC;
      KernelFor(ic_blocks, m * nc * kc, [&](int ib) {
        thread_local std::vector<double> apack(kApackSize);
        alignas(64) double acc[MR * NR];
        const std::size_t ic = static_cast<std::size_t>(ib) * kGemmMC;
        const std::size_t mc = std::min(kGemmMC, m - ic);
        const std::size_t i_strips = (mc + MR - 1) / MR;
        PackA(a, trans_a, ic, pc, mc, kc, apack.data());
        for (std::size_t js = 0; js < j_strips; ++js) {
          const double* bs = bpack.data() + js * kc * NR;
          const std::size_t cols = std::min(NR, nc - js * NR);
          for (std::size_t is = 0; is < i_strips; ++is) {
            kMicroKernel(kc, apack.data() + is * kc * MR, bs, acc);
            WriteTile(acc, std::min(MR, mc - is * MR), cols, alpha, beta,
                      first, c, ic + is * MR, jc + js * NR);
          }
        }
      });
    }
  }
}

void GemmCsr(double alpha, const CsrOperand& a, bool trans_a, const Matrix& b,
             double beta, Matrix* c) {
  const std::size_t m = trans_a ? a.cols : a.rows;
  const std::size_t k = trans_a ? a.rows : a.cols;
  const std::size_t n = b.cols();
  GCON_CHECK_EQ(k, b.rows()) << "gemm: inner dims mismatch";
  GCON_CHECK_EQ(c->rows(), m);
  GCON_CHECK_EQ(c->cols(), n);
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0) {
    ScaleOrZero(beta, c);
    return;
  }
  const ValueScan b_scan = ScanValues(b.data(), b.size());
  if (b_scan.non_finite) {
    // 0 * NaN and 0 * Inf must still poison C (linalg/ops.h), and skipping
    // A's zeros would drop them.
    GemmBlocked(alpha, Densify(a), trans_a, b, /*trans_b=*/false, beta, c);
    return;
  }
  const std::size_t nnz = static_cast<std::size_t>(a.row_ptr[a.rows]);
  RecordGemmCall(kCsrShapeClass, 2ull * nnz * n);
  const bool may_underflow = b_scan.tiny || ScanValues(a.values, nnz).tiny;
  if (trans_a) {
    GemmCsrTransA(alpha, a, b, beta, may_underflow, c);
  } else {
    GemmCsrRows(alpha, a, b, beta, may_underflow, c);
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
