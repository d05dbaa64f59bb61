// First-order optimizers operating on Matrix parameters.
//
// The same Adam implementation drives the MLP encoder, the GCN baselines,
// and the GCON convex stage (the paper's Remark after Theorem 1 notes the
// privacy guarantee is independent of the optimizer, so Adam is safe there).
#ifndef GCON_NN_OPTIM_H_
#define GCON_NN_OPTIM_H_

#include <cstddef>
#include <vector>

#include "linalg/gemm_kernels.h"
#include "linalg/matrix.h"

namespace gcon {

namespace internal {

/// The per-step constants of one Adam update.
struct AdamCoefficients {
  double beta1;
  double beta2;
  double bias1;  ///< 1 - beta1^t
  double bias2;  ///< 1 - beta2^t
  double learning_rate;
  double epsilon;
  double weight_decay;
};

}  // namespace internal

/// Adam (Kingma & Ba, 2015) over a fixed set of parameter tensors.
/// Weight decay is decoupled-style: applied as `grad + wd * param`.
class Adam {
 public:
  struct Options {
    double learning_rate = 0.01;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
    double weight_decay = 0.0;
  };

  explicit Adam(Options options) : options_(options) {}

  /// Registers a parameter tensor; returns its slot id. The tensor's shape
  /// must stay fixed for the optimizer's lifetime.
  std::size_t Register(const Matrix& param);

  /// Applies one Adam update to `param` (registered as `slot`) given `grad`.
  void Step(std::size_t slot, const Matrix& grad, Matrix* param);

  /// Step on elements [begin, end) of `param` alone, in the calling thread,
  /// returning the updated values' flags (linalg/gemm_kernels.h): for a
  /// fan-out whose blocks each update the parameters whose gradients they
  /// have just finished. Calls on disjoint ranges may run concurrently.
  internal::ValueFlags StepRange(std::size_t slot, const Matrix& grad,
                                 Matrix* param, std::size_t begin,
                                 std::size_t end);

  /// Advances the shared timestep. Call once per optimization step, before
  /// the per-tensor Step calls of that iteration.
  void BeginStep();

  const Options& options() const { return options_; }
  void set_learning_rate(double lr) {
    options_.learning_rate = lr;
    k_.learning_rate = lr;
  }

 private:
  struct Slots {
    Matrix m;
    Matrix v;
  };
  Slots& CheckedSlot(std::size_t slot, const Matrix& grad,
                     const Matrix& param);

  Options options_;
  std::vector<Slots> slots_;
  long t_ = 0;
  internal::AdamCoefficients k_{};  ///< step t_'s, set by BeginStep
};

namespace internal {

/// One Adam update of `count` parameters p with gradients g and moments
/// m, v (no two of them may overlap). AdamUpdateScalar is the reference
/// loop; AdamUpdateBlock runs the kernel chosen once at startup (AVX2 when
/// the CPU has it, else the reference) in the calling thread, and
/// AdamUpdate runs it over fixed element blocks on the kernel tier
/// (linalg/gemm_kernels.h). The AVX2 kernel does the same IEEE multiplies,
/// adds, divides and square roots in the same order, never fused, and each
/// element is updated alone, so every path gives the same bits. The first
/// two also report the updated parameters' flags in *flags when it is set,
/// as ScanValues would over p. Exposed for tests and benchmarks.
void AdamUpdateScalar(const AdamCoefficients& k, std::size_t count,
                      const double* g, double* p, double* m, double* v,
                      ValueFlags* flags = nullptr);
void AdamUpdateBlock(const AdamCoefficients& k, std::size_t count,
                     const double* g, double* p, double* m, double* v,
                     ValueFlags* flags = nullptr);
void AdamUpdate(const AdamCoefficients& k, std::size_t count, const double* g,
                double* p, double* m, double* v);

}  // namespace internal

}  // namespace gcon

#endif  // GCON_NN_OPTIM_H_
