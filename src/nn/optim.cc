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
                              const double*, double*, double*, double*);

#if GCON_ADAM_HAVE_X86_DISPATCH
// Four lanes of the reference loop, operation for operation. The target is
// "avx2" without "fma" and every step is an explicit intrinsic, so nothing
// can be contracted into a fused multiply-add; IEEE mul, add, div and sqrt
// round the same in every lane as in scalar code, which makes the result
// bitwise the reference's. The scalar loop does the tail.
__attribute__((target("avx2"))) void AdamUpdateAvx2(
    const AdamCoefficients& k, std::size_t count, const double* __restrict g,
    double* __restrict p, double* __restrict m, double* __restrict v) {
  const __m256d b1 = _mm256_set1_pd(k.beta1);
  const __m256d one_minus_b1 = _mm256_set1_pd(1.0 - k.beta1);
  const __m256d b2 = _mm256_set1_pd(k.beta2);
  const __m256d one_minus_b2 = _mm256_set1_pd(1.0 - k.beta2);
  const __m256d bias1 = _mm256_set1_pd(k.bias1);
  const __m256d bias2 = _mm256_set1_pd(k.bias2);
  const __m256d lr = _mm256_set1_pd(k.learning_rate);
  const __m256d eps = _mm256_set1_pd(k.epsilon);
  const __m256d wd = _mm256_set1_pd(k.weight_decay);
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
    _mm256_storeu_pd(p + i, _mm256_sub_pd(pk, step));
  }
  AdamUpdateScalar(k, count - i, g + i, p + i, m + i, v + i);
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
                      const double* g, double* p, double* m, double* v) {
  for (std::size_t i = 0; i < count; ++i) {
    const double gk = g[i] + k.weight_decay * p[i];
    m[i] = k.beta1 * m[i] + (1.0 - k.beta1) * gk;
    v[i] = k.beta2 * v[i] + (1.0 - k.beta2) * gk * gk;
    const double m_hat = m[i] / k.bias1;
    const double v_hat = v[i] / k.bias2;
    p[i] -= k.learning_rate * m_hat / (std::sqrt(v_hat) + k.epsilon);
  }
}

void AdamUpdate(const AdamCoefficients& k, std::size_t count, const double* g,
                double* p, double* m, double* v) {
  // An element costs ~3 ns at the AVX2 rate (two divides and a square
  // root), about six streaming multiply-adds. Blocks are a multiple of the
  // four lanes, though the scalar tail gives the same bits anyway.
  KernelForRanges(count, 4096, 6 * std::uint64_t{count},
                  [&](std::size_t begin, std::size_t end) {
                    kAdamUpdate(k, end - begin, g + begin, p + begin,
                                m + begin, v + begin);
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

void Adam::Step(std::size_t slot, const Matrix& grad, Matrix* param) {
  GCON_CHECK_LT(slot, slots_.size());
  GCON_CHECK_GT(t_, 0) << "call BeginStep() before Step()";
  Slots& s = slots_[slot];
  GCON_CHECK_EQ(s.m.rows(), param->rows());
  GCON_CHECK_EQ(s.m.cols(), param->cols());
  GCON_CHECK_EQ(grad.rows(), param->rows());
  GCON_CHECK_EQ(grad.cols(), param->cols());
  const internal::AdamCoefficients k{
      options_.beta1,
      options_.beta2,
      1.0 - std::pow(options_.beta1, static_cast<double>(t_)),
      1.0 - std::pow(options_.beta2, static_cast<double>(t_)),
      options_.learning_rate,
      options_.epsilon,
      options_.weight_decay};
  internal::AdamUpdate(k, param->size(), grad.data(), param->data(),
                       s.m.data(), s.v.data());
}

}  // namespace gcon
