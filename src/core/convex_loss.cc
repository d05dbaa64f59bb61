#include "core/convex_loss.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace gcon {
namespace {

// e^{-|x|}: the one exp the soft-margin loss takes per entry. softplus(-x)
// and σ(x) both read it. The argument is written x >= 0 ? -x : x rather
// than -|x| so that σ's lower branch gets exactly exp(x), NaN sign included.
double ExpNegAbs(double x) { return std::exp(x >= 0.0 ? -x : x); }

// σ(x) from e = e^{-|x|}: 1/(1 + e^{-x}) at x >= 0, e^{x}/(1 + e^{x}) below,
// so neither branch overflows.
double Sigmoid(double x, double e) {
  return x >= 0.0 ? 1.0 / (1.0 + e) : e / (1.0 + e);
}

// -(1/c)[y log σ(x) + (1-y) log(1-σ(x))] = (1/c)[softplus(-x) + (1-y) x],
// with the numerically stable softplus(-x) = max(-x, 0) + log1p(e^{-|x|}).
double SoftMarginValue(double x, double y, double e, double c) {
  return (std::max(-x, 0.0) + std::log1p(e) + (1.0 - y) * x) / c;
}

double SoftMarginD1(double x, double y, double e, double c) {
  return (Sigmoid(x, e) - y) / c;
}

// sqrt(1 + u²) with u = (x-y)/δ_l: the one sqrt Pseudo-Huber takes per
// entry, shared by ℓ and ℓ'.
double PseudoHuberRoot(double x, double y, double delta_l) {
  const double u = (x - y) / delta_l;
  return std::sqrt(1.0 + u * u);
}

double PseudoHuberValue(double root, double delta_l, double c) {
  return delta_l * delta_l / c * (root - 1.0);
}

double PseudoHuberD1(double x, double y, double root, double c) {
  return (x - y) / (c * root);
}

}  // namespace

ConvexLoss::ConvexLoss(ConvexLossKind kind, int num_classes, double delta_l)
    : kind_(kind), num_classes_(num_classes), delta_l_(delta_l) {
  GCON_CHECK_GE(num_classes, 1);
  const double c = static_cast<double>(num_classes);
  if (kind_ == ConvexLossKind::kMultiLabelSoftMargin) {
    c1_ = 1.0 / c;
    c2_ = 1.0 / (4.0 * c);
    c3_ = 1.0 / (6.0 * std::sqrt(3.0) * c);
  } else {
    GCON_CHECK_GT(delta_l, 0.0);
    c1_ = delta_l / c;
    c2_ = 1.0 / c;
    c3_ = 48.0 * std::sqrt(5.0) / (125.0 * c * delta_l);
  }
}

ConvexLoss ConvexLoss::MultiLabelSoftMargin(int num_classes) {
  return ConvexLoss(ConvexLossKind::kMultiLabelSoftMargin, num_classes, 0.0);
}

ConvexLoss ConvexLoss::PseudoHuber(int num_classes, double delta_l) {
  return ConvexLoss(ConvexLossKind::kPseudoHuber, num_classes, delta_l);
}

double ConvexLoss::Value(double x, double y) const {
  const double c = static_cast<double>(num_classes_);
  if (kind_ == ConvexLossKind::kMultiLabelSoftMargin) {
    return SoftMarginValue(x, y, ExpNegAbs(x), c);
  }
  return PseudoHuberValue(PseudoHuberRoot(x, y, delta_l_), delta_l_, c);
}

double ConvexLoss::D1(double x, double y) const {
  const double c = static_cast<double>(num_classes_);
  if (kind_ == ConvexLossKind::kMultiLabelSoftMargin) {
    return SoftMarginD1(x, y, ExpNegAbs(x), c);
  }
  return PseudoHuberD1(x, y, PseudoHuberRoot(x, y, delta_l_), c);
}

void ConvexLoss::ValueAndD1InPlace(double* x, const double* y, double* d1,
                                   std::size_t n) const {
  const double c = static_cast<double>(num_classes_);
  if (kind_ == ConvexLossKind::kMultiLabelSoftMargin) {
    for (std::size_t k = 0; k < n; ++k) {
      const double e = ExpNegAbs(x[k]);
      if (d1 != nullptr) d1[k] = SoftMarginD1(x[k], y[k], e, c);
      x[k] = SoftMarginValue(x[k], y[k], e, c);
    }
    return;
  }
  for (std::size_t k = 0; k < n; ++k) {
    const double root = PseudoHuberRoot(x[k], y[k], delta_l_);
    if (d1 != nullptr) d1[k] = PseudoHuberD1(x[k], y[k], root, c);
    x[k] = PseudoHuberValue(root, delta_l_, c);
  }
}

double ConvexLoss::D2(double x, double y) const {
  const double c = static_cast<double>(num_classes_);
  if (kind_ == ConvexLossKind::kMultiLabelSoftMargin) {
    const double s = Sigmoid(x, ExpNegAbs(x));
    (void)y;  // ℓ'' does not depend on y for this loss
    return s * (1.0 - s) / c;
  }
  const double u = (x - y) / delta_l_;
  return 1.0 / (c * std::pow(u * u + 1.0, 1.5));
}

double ConvexLoss::D3(double x, double y) const {
  const double c = static_cast<double>(num_classes_);
  if (kind_ == ConvexLossKind::kMultiLabelSoftMargin) {
    const double s = Sigmoid(x, ExpNegAbs(x));
    (void)y;
    return s * (1.0 - s) * (1.0 - 2.0 * s) / c;
  }
  const double u = (x - y) / delta_l_;
  return -3.0 * u / (c * delta_l_ * std::pow(u * u + 1.0, 2.5));
}

std::string ConvexLoss::name() const {
  return kind_ == ConvexLossKind::kMultiLabelSoftMargin
             ? "multilabel_soft_margin"
             : "pseudo_huber";
}

}  // namespace gcon
