#include "nn/activations.h"

#include <cmath>
#include <cstdint>
#include <string>

#include "common/check.h"
#include "linalg/gemm_kernels.h"

namespace gcon {

namespace {

// Both loops fan out over fixed element blocks on the kernel tier.
constexpr std::size_t kBlock = 1024;

// One element's cost in streaming multiply-adds (linalg/gemm_kernels.h),
// from a 4-vCPU AVX2 host: tanh ~21 ns, the sigmoid ~5.7 ns, a ReLU ~5 ns
// on mixed signs (its branch mispredicts).
std::uint64_t ElementWork(Activation act) {
  switch (act) {
    case Activation::kTanh:
      return 40;
    case Activation::kSigmoid:
      return 12;
    case Activation::kRelu:
      return 10;
    case Activation::kIdentity:
      break;
  }
  return 1;
}

}  // namespace

void ApplyActivationInPlace(Activation act, Matrix* m) {
  if (act == Activation::kIdentity) return;
  double* data = m->data();
  internal::KernelForRanges(
      m->size(), kBlock, ElementWork(act) * m->size(),
      [&](std::size_t begin, std::size_t end) {
        switch (act) {
          case Activation::kIdentity:
            return;
          case Activation::kRelu:
            for (std::size_t k = begin; k < end; ++k) {
              if (data[k] < 0.0) data[k] = 0.0;
            }
            return;
          case Activation::kTanh:
            for (std::size_t k = begin; k < end; ++k) {
              data[k] = std::tanh(data[k]);
            }
            return;
          case Activation::kSigmoid:
            for (std::size_t k = begin; k < end; ++k) {
              data[k] = 1.0 / (1.0 + std::exp(-data[k]));
            }
            return;
        }
      });
}

void ActivationDerivFromOutput(Activation act, const Matrix& out,
                               Matrix* deriv) {
  deriv->Resize(out.rows(), out.cols());
  const double* o = out.data();
  double* d = deriv->data();
  internal::KernelForRanges(
      out.size(), kBlock, out.size(), [&](std::size_t begin, std::size_t end) {
        switch (act) {
          case Activation::kIdentity:
            for (std::size_t k = begin; k < end; ++k) d[k] = 1.0;
            return;
          case Activation::kRelu:
            for (std::size_t k = begin; k < end; ++k) {
              d[k] = o[k] > 0.0 ? 1.0 : 0.0;
            }
            return;
          case Activation::kTanh:
            for (std::size_t k = begin; k < end; ++k) d[k] = 1.0 - o[k] * o[k];
            return;
          case Activation::kSigmoid:
            for (std::size_t k = begin; k < end; ++k) {
              d[k] = o[k] * (1.0 - o[k]);
            }
            return;
        }
      });
}

Activation ActivationByName(const std::string& name) {
  if (name == "identity") return Activation::kIdentity;
  if (name == "relu") return Activation::kRelu;
  if (name == "tanh") return Activation::kTanh;
  if (name == "sigmoid") return Activation::kSigmoid;
  GCON_CHECK(false) << "unknown activation: " << name;
  return Activation::kIdentity;
}

}  // namespace gcon
