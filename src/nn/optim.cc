#include "nn/optim.h"

#include <cmath>

#include "common/check.h"
#include "linalg/gemm_kernels.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define GCON_ADAM_HAVE_X86_DISPATCH 1
#else
#define GCON_ADAM_HAVE_X86_DISPATCH 0
#endif

namespace gcon {
namespace internal {
namespace {

using AdamUpdateFn = void (*)(const AdamCoefficients&, std::size_t,
                              const double*, double*, double*, double*,
                              ValueFlags*);

#if GCON_ADAM_HAVE_X86_DISPATCH
// Four lanes of the reference loop, operation for operation. The target is
// "avx2" without "fma" and every step is an explicit intrinsic, so nothing
// can be contracted into a fused multiply-add; IEEE mul, add, div and sqrt
// round the same in every lane as in scalar code, which makes the result
// bitwise the reference's. The flags read each new value's exponent bits
// as ScanValues does: all ones is NaN or Inf, under 512 is below 2^-511 in
// magnitude. The scalar loop does the tail.
__attribute__((target("avx2"))) void AdamUpdateAvx2(
    const AdamCoefficients& k, std::size_t count, const double* __restrict g,
    double* __restrict p, double* __restrict m, double* __restrict v,
    ValueFlags* flags) {
  const __m256d b1 = _mm256_set1_pd(k.beta1);
  const __m256d one_minus_b1 = _mm256_set1_pd(1.0 - k.beta1);
  const __m256d b2 = _mm256_set1_pd(k.beta2);
  const __m256d one_minus_b2 = _mm256_set1_pd(1.0 - k.beta2);
  const __m256d bias1 = _mm256_set1_pd(k.bias1);
  const __m256d bias2 = _mm256_set1_pd(k.bias2);
  const __m256d lr = _mm256_set1_pd(k.learning_rate);
  const __m256d eps = _mm256_set1_pd(k.epsilon);
  const __m256d wd = _mm256_set1_pd(k.weight_decay);
  const __m256i exponent_mask = _mm256_set1_epi64x(0x7ff);
  const __m256i tiny_bound = _mm256_set1_epi64x(512);
  __m256i non_finite = _mm256_setzero_si256();
  __m256i tiny = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d pk = _mm256_loadu_pd(p + i);
    const __m256d gk =
        _mm256_add_pd(_mm256_loadu_pd(g + i), _mm256_mul_pd(wd, pk));
    const __m256d mk = _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + i)),
                                     _mm256_mul_pd(one_minus_b1, gk));
    const __m256d vk = _mm256_add_pd(
        _mm256_mul_pd(b2, _mm256_loadu_pd(v + i)),
        _mm256_mul_pd(_mm256_mul_pd(one_minus_b2, gk), gk));
    _mm256_storeu_pd(m + i, mk);
    _mm256_storeu_pd(v + i, vk);
    const __m256d m_hat = _mm256_div_pd(mk, bias1);
    const __m256d v_hat = _mm256_div_pd(vk, bias2);
    const __m256d step =
        _mm256_div_pd(_mm256_mul_pd(lr, m_hat),
                      _mm256_add_pd(_mm256_sqrt_pd(v_hat), eps));
    const __m256d updated = _mm256_sub_pd(pk, step);
    _mm256_storeu_pd(p + i, updated);
    const __m256i exponent = _mm256_and_si256(
        _mm256_srli_epi64(_mm256_castpd_si256(updated), 52), exponent_mask);
    non_finite = _mm256_or_si256(
        non_finite, _mm256_cmpeq_epi64(exponent, exponent_mask));
    tiny = _mm256_or_si256(tiny, _mm256_cmpgt_epi64(tiny_bound, exponent));
  }
  AdamUpdateScalar(k, count - i, g + i, p + i, m + i, v + i, flags);
  if (flags != nullptr) {
    flags->non_finite |= !_mm256_testz_si256(non_finite, non_finite);
    flags->tiny |= !_mm256_testz_si256(tiny, tiny);
  }
}
#endif  // GCON_ADAM_HAVE_X86_DISPATCH

AdamUpdateFn ResolveAdamUpdate() {
#if GCON_ADAM_HAVE_X86_DISPATCH
  if (__builtin_cpu_supports("avx2")) return AdamUpdateAvx2;
#endif
  return AdamUpdateScalar;
}

// Resolved once, like the GEMM micro-kernel (linalg/gemm_kernels.cc).
const AdamUpdateFn kAdamUpdate = ResolveAdamUpdate();

}  // namespace

void AdamUpdateScalar(const AdamCoefficients& k, std::size_t count,
                      const double* g, double* p, double* m, double* v,
                      ValueFlags* flags) {
  for (std::size_t i = 0; i < count; ++i) {
    const double gk = g[i] + k.weight_decay * p[i];
    m[i] = k.beta1 * m[i] + (1.0 - k.beta1) * gk;
    v[i] = k.beta2 * v[i] + (1.0 - k.beta2) * gk * gk;
    const double m_hat = m[i] / k.bias1;
    const double v_hat = v[i] / k.bias2;
    p[i] -= k.learning_rate * m_hat / (std::sqrt(v_hat) + k.epsilon);
  }
  if (flags != nullptr) {
    const ValueFlags updated = ScanValueRange(p, count);
    flags->non_finite |= updated.non_finite;
    flags->tiny |= updated.tiny;
  }
}

void AdamUpdateBlock(const AdamCoefficients& k, std::size_t count,
                     const double* g, double* p, double* m, double* v,
                     ValueFlags* flags) {
  kAdamUpdate(k, count, g, p, m, v, flags);
}

void AdamUpdate(const AdamCoefficients& k, std::size_t count, const double* g,
                double* p, double* m, double* v) {
  // An element costs ~3 ns at the AVX2 rate (two divides and a square
  // root), about six streaming multiply-adds. Blocks are a multiple of the
  // four lanes, though the scalar tail gives the same bits anyway.
  KernelForRanges(count, 4096, 6 * std::uint64_t{count},
                  [&](std::size_t begin, std::size_t end) {
                    kAdamUpdate(k, end - begin, g + begin, p + begin,
                                m + begin, v + begin, nullptr);
                  });
}

}  // namespace internal

std::size_t Adam::Register(const Matrix& param) {
  Slots s;
  s.m.Resize(param.rows(), param.cols());
  s.v.Resize(param.rows(), param.cols());
  slots_.push_back(std::move(s));
  return slots_.size() - 1;
}

void Adam::BeginStep() {
  ++t_;
  k_ = {options_.beta1,
        options_.beta2,
        1.0 - std::pow(options_.beta1, static_cast<double>(t_)),
        1.0 - std::pow(options_.beta2, static_cast<double>(t_)),
        options_.learning_rate,
        options_.epsilon,
        options_.weight_decay};
}

Adam::Slots& Adam::CheckedSlot(std::size_t slot, const Matrix& grad,
                               const Matrix& param) {
  GCON_CHECK_LT(slot, slots_.size());
  GCON_CHECK_GT(t_, 0) << "call BeginStep() before Step()";
  Slots& s = slots_[slot];
  GCON_CHECK_EQ(s.m.rows(), param.rows());
  GCON_CHECK_EQ(s.m.cols(), param.cols());
  GCON_CHECK_EQ(grad.rows(), param.rows());
  GCON_CHECK_EQ(grad.cols(), param.cols());
  return s;
}

void Adam::Step(std::size_t slot, const Matrix& grad, Matrix* param) {
  Slots& s = CheckedSlot(slot, grad, *param);
  internal::AdamUpdate(k_, param->size(), grad.data(), param->data(),
                       s.m.data(), s.v.data());
}

internal::ValueFlags Adam::StepRange(std::size_t slot, const Matrix& grad,
                                     Matrix* param, std::size_t begin,
                                     std::size_t end) {
  Slots& s = CheckedSlot(slot, grad, *param);
  GCON_CHECK_LE(begin, end);
  GCON_CHECK_LE(end, param->size());
  internal::ValueFlags flags;
  internal::AdamUpdateBlock(k_, end - begin, grad.data() + begin,
                            param->data() + begin, s.m.data() + begin,
                            s.v.data() + begin, &flags);
  return flags;
}

}  // namespace gcon
