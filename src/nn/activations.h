// Element-wise activation functions and their derivatives.
#ifndef GCON_NN_ACTIVATIONS_H_
#define GCON_NN_ACTIVATIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "linalg/matrix.h"

namespace gcon {

enum class Activation {
  kIdentity,
  kRelu,
  kTanh,
  kSigmoid,
};

/// Applies the activation element-wise in place.
void ApplyActivationInPlace(Activation act, Matrix* m);

/// Given the *post-activation* values `out`, writes the element-wise
/// derivative d act(x) / dx into `deriv` (same shape). For ReLU this is the
/// usual subgradient with deriv(0) = 0. Using post-activation values avoids
/// retaining pre-activation buffers for tanh/sigmoid.
void ActivationDerivFromOutput(Activation act, const Matrix& out,
                               Matrix* deriv);

/// The two element-wise steps a layer's product feeds, for work that
/// carries a block of rows through the layers (linalg/gemm_kernels.h), in
/// the calling thread and with the element operations of the calls above.
/// BiasActivateRows sets data = act(data + bias) on `rows` rows of `cols`
/// values (the forward pass's bias add and activation); MulDerivFromOutput
/// sets dh = dh * act'(out) on `count` values (the backward pass's step
/// through the activation, the derivative taken from the post-activation
/// values).
void BiasActivateRows(Activation act, const double* bias, std::size_t rows,
                      std::size_t cols, double* data);
void MulDerivFromOutput(Activation act, const double* out, std::size_t count,
                        double* dh);

/// One element's activation cost in streaming multiply-adds, the unit of
/// the kernel tier's work estimates (linalg/gemm_kernels.h).
std::uint64_t ActivationWork(Activation act);

/// Parses "identity" / "relu" / "tanh" / "sigmoid".
Activation ActivationByName(const std::string& name);

}  // namespace gcon

#endif  // GCON_NN_ACTIVATIONS_H_
