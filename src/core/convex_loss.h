// The two strongly-convex-compatible loss families of §IV-C4 / Appendix F.
//
// Both losses are per-(node, class) scalar functions ℓ(x; y) with y ∈ {0,1}
// (one-hot targets) and x = z_i^T θ_j, summed over classes (Eq. (12)). The
// objective-perturbation analysis needs the suprema of the first three
// derivatives (Eq. (19)):
//
//   MultiLabel Soft Margin (Eq. 27):
//     ℓ(x;y) = -(1/c) [ y log σ(x) + (1-y) log(1-σ(x)) ]
//     c1 = 1/c,  c2 = 1/(4c),  c3 = 1/(6√3 c)
//
//   Pseudo-Huber (Eq. 28), width δ_l:
//     ℓ(x;y) = (δ_l²/c) ( sqrt(1 + (x-y)²/δ_l²) - 1 )
//     c1 = δ_l/c,  c2 = 1/c,  c3 = 48√5/(125 c δ_l)
//
// ℓ''(x;y) > 0 everywhere, so the per-node loss is convex in Θ and the
// regularized objective is strongly convex (Lemma 4).
#ifndef GCON_CORE_CONVEX_LOSS_H_
#define GCON_CORE_CONVEX_LOSS_H_

#include <cstddef>
#include <string>

namespace gcon {

enum class ConvexLossKind {
  kMultiLabelSoftMargin,
  kPseudoHuber,
};

class ConvexLoss {
 public:
  /// MultiLabel Soft Margin loss for `num_classes` classes.
  static ConvexLoss MultiLabelSoftMargin(int num_classes);

  /// Pseudo-Huber loss with width `delta_l` (paper tunes {0.1, 0.2, 0.5}).
  static ConvexLoss PseudoHuber(int num_classes, double delta_l);

  double Value(double x, double y) const;
  /// First derivative ℓ'(x; y) w.r.t. x.
  double D1(double x, double y) const;
  /// The element pass of L_priv over `n` (score, target) pairs: overwrites
  /// x[k] with ℓ(x[k]; y[k]) and, when `d1` is non-null, writes ℓ'(x[k]; y[k])
  /// to d1[k]. One exp(-|x|) per entry for the soft margin, one sqrt for
  /// Pseudo-Huber; every result is bitwise equal to Value / D1.
  void ValueAndD1InPlace(double* x, const double* y, double* d1,
                         std::size_t n) const;
  /// Second derivative ℓ''(x; y).
  double D2(double x, double y) const;
  /// Third derivative ℓ'''(x; y).
  double D3(double x, double y) const;

  /// Eq. (19) suprema over all x and y ∈ {0,1}.
  double c1() const { return c1_; }
  double c2() const { return c2_; }
  double c3() const { return c3_; }

  ConvexLossKind kind() const { return kind_; }
  int num_classes() const { return num_classes_; }
  double delta_l() const { return delta_l_; }
  std::string name() const;

 private:
  ConvexLoss(ConvexLossKind kind, int num_classes, double delta_l);

  ConvexLossKind kind_;
  int num_classes_;
  double delta_l_;
  double c1_, c2_, c3_;
};

}  // namespace gcon

#endif  // GCON_CORE_CONVEX_LOSS_H_
