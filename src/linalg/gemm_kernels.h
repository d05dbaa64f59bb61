// Cache-blocked, register-tiled GEMM engine behind linalg/ops.h.
//
// Layout follows the classic three-level blocking scheme (Goto/BLIS, and
// Radford Neal's matprod): the driver partitions C into NC-wide column
// panels, the k dimension into KC-deep slabs, and the rows into MC-tall
// blocks. For each (jc, pc) pair a KC x NC panel of B is packed into
// contiguous NR-wide column strips; for each ic a MC x KC block of A is
// packed into MR-tall row strips. The inner micro-kernel then computes an
// MR x NR tile of C with all accumulators in registers, reading the packed
// panels sequentially.
//
// Two micro-kernels are provided: a portable scalar/SSE2 one and an
// AVX2+FMA one compiled with a function-level target attribute and selected
// once at startup via __builtin_cpu_supports, so the binary stays runnable
// on any x86-64 (and non-x86 builds fall back to the portable kernel).
//
// Numerical contract: for a fixed build the k-accumulation order is fixed
// (the pc loop is sequential; KernelFor only distributes disjoint C tiles), so
// repeated calls on identical inputs are bitwise identical regardless of
// thread count. Unlike the pre-blocking kernels there is NO zero-operand
// short-circuit: a zero in A multiplied by a NaN/Inf in B contributes
// NaN/Inf to C, exactly as IEEE arithmetic dictates (see linalg/ops.h).
//
// GemmCsr is the sparse-A entry to the same engine, for products whose A is
// mostly zeros (the encoder's bag-of-words features). It is bitwise
// identical to GemmBlocked on the densified A: each C element is summed over
// the same KC-deep k-slabs in the same k order, alpha/beta are applied per
// slab exactly as the blocked driver does, and the fused-or-unfused
// multiply-add follows the dispatched micro-kernel. Skipping A's structural
// zeros is exact because a zero term only adds a signed zero to the
// accumulator; the one case where that sign can reach C (a product that
// underflows to -0, possible only with values below 2^-511) is detected and
// recomputed densely. When B holds a NaN or Inf the skip is no longer exact
// (0 * Inf = NaN), so GemmCsr runs the dense engine instead. Each row of C is
// computed from op(A)'s row alone (op(A) = Aᵀ is transposed to CSR first,
// its rows listing entries in increasing k), over fixed blocks of C's rows,
// each summed by one thread in the same order, so its bits do not depend on
// the thread count either.
//
// Work that carries a block of rows through several products and their
// element-wise steps at once (a layer's bias and activation, an optimizer
// update) calls the row-range entries (GemmBlockedRows, GemmCsrRowRange)
// from its own fan-out, while the block is still in cache. A CSR operand
// used for many products (the encoder's fixed training and validation
// rows) is prepared once as a CsrPlan, and the planned row ranges take B's
// value flags from the kernel that last wrote B instead of scanning B
// again.
#ifndef GCON_LINALG_GEMM_KERNELS_H_
#define GCON_LINALG_GEMM_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "linalg/matrix.h"

namespace gcon {
namespace internal {

// Blocking parameters (doubles): KC x NR B-strips stay in L1, the packed
// MC x KC A-block in L2, a KC x NC B-panel in L3. MR x NR is the register
// tile; the AVX2 kernel uses the full 4 x 8 (8 YMM accumulators), the
// portable kernel reads the same packed layout.
inline constexpr std::size_t kGemmMR = 4;
inline constexpr std::size_t kGemmNR = 8;
inline constexpr std::size_t kGemmMC = 128;
inline constexpr std::size_t kGemmKC = 256;
inline constexpr std::size_t kGemmNC = 4096;

/// Work below which a kernel runs inline, in units of one multiply-add of
/// a streaming kernel (a CSR or SpMM row loop: 0.45-0.6 ns on a 4-vCPU AVX2
/// host). Measured there: a ParallelFor of 4 blocks after an idle gap, the
/// pool's wake and join, costs 5.5-10.5 us (medians of 2000 calls), so the
/// cutoff is 30-40 us of inline work, which a four-way fan-out finishes in
/// about half that. Call sites whose element costs more or less than that
/// multiply-add scale their estimate (an Adam element is ~3 ns, a tanh
/// ~20 ns).
inline constexpr std::uint64_t kKernelInlineWork = 1u << 16;

/// The kernels' parallel loop: fn(block) for every block in [0, blocks),
/// which together cost `work` units (above). Below kKernelInlineWork it
/// runs inline in block order, else through ParallelFor at one thread per
/// hardware thread. Blocks write disjoint output and never depend on the
/// thread count, so neither do the bits.
void KernelFor(std::size_t blocks, std::uint64_t work,
               const std::function<void(int)>& fn);

/// KernelFor over [0, count) in fixed chunks of `block` elements:
/// range_fn(begin, end) once per chunk.
template <typename RangeFn>
void KernelForRanges(std::size_t count, std::size_t block, std::uint64_t work,
                     const RangeFn& range_fn) {
  KernelFor((count + block - 1) / block, work, [&](int chunk) {
    const std::size_t begin = static_cast<std::size_t>(chunk) * block;
    range_fn(begin, begin + block < count ? begin + block : count);
  });
}

/// KernelFor over rows: row_fn(i) for every i in [0, rows), one job per
/// fixed block of `block_rows` rows.
template <typename RowFn>
void KernelForRows(std::size_t rows, std::size_t block_rows,
                   std::uint64_t work, const RowFn& row_fn) {
  KernelForRanges(rows, block_rows, work,
                  [&](std::size_t i0, std::size_t i1) {
                    for (std::size_t i = i0; i < i1; ++i) row_fn(i);
                  });
}

/// C = alpha * op(A) * op(B) + beta * C where op transposes when the flag
/// is set. Shapes after op: (m x k) * (k x n) -> C (m x n); `c` must
/// already have that shape. beta == 0 overwrites C (existing contents,
/// including NaN, are ignored per BLAS convention).
void GemmBlocked(double alpha, const Matrix& a, bool trans_a, const Matrix& b,
                 bool trans_b, double beta, Matrix* c);

/// Rows [r0, r1) of GemmBlocked(alpha, a, trans_a, b, trans_b, beta, c), in
/// the calling thread and with the same bits: for work that carries one
/// block of rows through several products in a single fan-out. Packs B
/// each call, so B should be small. Records no metrics (RecordGemm).
void GemmBlockedRows(double alpha, const Matrix& a, bool trans_a,
                     const Matrix& b, bool trans_b, double beta, Matrix* c,
                     std::size_t r0, std::size_t r1);

/// Counts one m x n x k product in the GEMM metrics, for a caller that
/// computes it by row ranges.
void RecordGemm(std::size_t m, std::size_t n, std::size_t k);

/// Read-only view of a canonical CSR matrix: row_ptr holds rows + 1
/// offsets, column indices are strictly increasing within a row. A view
/// rather than sparse/CsrMatrix keeps linalg free of the sparse tier.
struct CsrOperand {
  std::size_t rows = 0;
  std::size_t cols = 0;
  const std::int64_t* row_ptr = nullptr;
  const std::int32_t* col_idx = nullptr;
  const double* values = nullptr;
};

/// What the CSR products must know about an operand's values.
struct ValueFlags {
  bool non_finite = false;  ///< some value is NaN or Inf
  bool tiny = false;        ///< some value, zero included, is below 2^-511
};

/// The flags of d[0, size): ScanValueRange in the calling thread,
/// ScanValues over fixed blocks on the kernel tier.
ValueFlags ScanValueRange(const double* d, std::size_t size);
ValueFlags ScanValues(const double* d, std::size_t size);

/// C = alpha * op(A) * B + beta * C with A sparse, bitwise identical to
/// GemmBlocked(alpha, dense(A), trans_a, b, /*trans_b=*/false, beta, c).
/// Shapes after op: (m x k) * (k x n) -> C (m x n).
void GemmCsr(double alpha, const CsrOperand& a, bool trans_a, const Matrix& b,
             double beta, Matrix* c);

/// A CSR operand prepared once for many products with it: A's value flags
/// and op(A) in CSR form, for op(A) = Aᵀ built here (each row listing its
/// entries in increasing k, the order of the blocked engine's sums). The
/// view's arrays must outlive the plan. A plan moves but does not copy: op
/// may point into its own vectors, whose buffers a move keeps.
struct CsrPlan {
  CsrPlan(const CsrOperand& a, bool trans_a);
  CsrPlan(CsrPlan&&) = default;
  CsrPlan& operator=(CsrPlan&&) = default;
  CsrPlan(const CsrPlan&) = delete;
  CsrPlan& operator=(const CsrPlan&) = delete;

  CsrOperand op;  ///< op(A)
  bool trans_a;
  ValueFlags a_flags;
  /// Aᵀ's arrays when trans_a.
  std::vector<std::int64_t> row_ptr;
  std::vector<std::int32_t> col_idx;
  std::vector<double> values;
};

/// Sets C's rows where op(A) has no entry to +0.
void ZeroEmptyRows(const CsrPlan& plan, Matrix* c);

/// Rows [r0, r1) of C = op(A) * B for a planned A, in the calling thread:
/// bitwise GemmCsr(1, a, trans_a, b, 0, c) there, with B's flags given by
/// the caller (a kernel that just wrote B reports them) instead of scanned.
/// B must be finite. Under op(A) = Aᵀ the rows that no entry of A names
/// are not written: they must hold +0, the value the product gives them,
/// as they do when C started zero and only these products wrote it
/// (ZeroEmptyRows puts it back after a dense product). Records no metrics
/// (RecordCsrGemm).
void GemmCsrRowRange(const CsrPlan& plan, const Matrix& b,
                     const ValueFlags& b_flags, Matrix* c, std::size_t r0,
                     std::size_t r1);

/// Counts one planned product with a B of n columns in the GEMM metrics.
void RecordCsrGemm(const CsrPlan& plan, std::size_t n);

/// The seed repository's i-k-j triple loop, kept verbatim (minus the
/// zero-operand skip) as the reference the blocked kernel is tested and
/// benchmarked against. Not used on any hot path.
void GemmReference(double alpha, const Matrix& a, const Matrix& b, double beta,
                   Matrix* c);

/// True when the AVX2+FMA micro-kernel is active on this machine (exposed
/// for diagnostics/benchmark labels).
bool GemmUsesAvx2();

}  // namespace internal
}  // namespace gcon

#endif  // GCON_LINALG_GEMM_KERNELS_H_
