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
// (0 * Inf = NaN), so GemmCsr runs the dense engine instead. It runs on the
// calling thread.
#ifndef GCON_LINALG_GEMM_KERNELS_H_
#define GCON_LINALG_GEMM_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <functional>

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

/// Multiply-adds below which a kernel runs inline. Measured on 4 vCPUs: a
/// pool wake and join costs 15-35 us, a few percent of the ~370 us SpMM or
/// MatVec take inline at this size; the AVX2 GEMM's fan-out already runs
/// 1.0-1.6x faster here.
inline constexpr std::uint64_t kKernelInlineWork = 1u << 19;

/// The kernels' parallel loop: fn(block) for every block in [0, blocks),
/// which together cost `work` multiply-adds (element moves, for
/// Transpose). Below kKernelInlineWork it runs inline in block order, else
/// through ParallelFor at one thread per hardware thread. Blocks write
/// disjoint output and never depend on the thread count, so neither do the
/// bits.
void KernelFor(std::size_t blocks, std::uint64_t work,
               const std::function<void(int)>& fn);

/// KernelFor over rows: row_fn(i) for every i in [0, rows), one job per
/// fixed block of `block_rows` rows.
template <typename RowFn>
void KernelForRows(std::size_t rows, std::size_t block_rows,
                   std::uint64_t work, const RowFn& row_fn) {
  KernelFor((rows + block_rows - 1) / block_rows, work, [&](int block) {
    const std::size_t i0 = static_cast<std::size_t>(block) * block_rows;
    const std::size_t i1 = i0 + block_rows < rows ? i0 + block_rows : rows;
    for (std::size_t i = i0; i < i1; ++i) row_fn(i);
  });
}

/// C = alpha * op(A) * op(B) + beta * C where op transposes when the flag
/// is set. Shapes after op: (m x k) * (k x n) -> C (m x n); `c` must
/// already have that shape. beta == 0 overwrites C (existing contents,
/// including NaN, are ignored per BLAS convention).
void GemmBlocked(double alpha, const Matrix& a, bool trans_a, const Matrix& b,
                 bool trans_b, double beta, Matrix* c);

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

/// C = alpha * op(A) * B + beta * C with A sparse, bitwise identical to
/// GemmBlocked(alpha, dense(A), trans_a, b, /*trans_b=*/false, beta, c).
/// Shapes after op: (m x k) * (k x n) -> C (m x n). Runs on the calling
/// thread.
void GemmCsr(double alpha, const CsrOperand& a, bool trans_a, const Matrix& b,
             double beta, Matrix* c);

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
