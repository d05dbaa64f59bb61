#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/convex_loss.h"
#include "rng/rng.h"

namespace gcon {
namespace {

// Dense sweep of evaluation points, including extreme logits.
std::vector<double> SweepPoints() {
  std::vector<double> xs;
  for (double x = -30.0; x <= 30.0; x += 0.37) xs.push_back(x);
  xs.push_back(-700.0);  // numerical-stability probes
  xs.push_back(700.0);
  return xs;
}

// The scores the element pass must treat exactly like Value / D1: signed
// zeros and subnormal-adjacent values, |x| = 37 where 1 + e^{-|x|} starts
// to round to 1, |x| = 745 where e^{-|x|} is the last subnormal, |x| = 800
// where it underflows to 0, the infinities, a NaN, and the sweep.
std::vector<double> SpecialScores() {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> xs = {std::numeric_limits<double>::quiet_NaN()};
  for (double m : {0.0, 1e-300, 37.0, 745.0, 800.0, inf}) {
    xs.push_back(m);
    xs.push_back(-m);
  }
  for (double x : SweepPoints()) xs.push_back(x);
  return xs;
}

// Same bytes, or both NaN: IEEE leaves a NaN result's sign and payload to
// the operand order the compiler picks.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0 ||
         (std::isnan(a) && std::isnan(b));
}

class LossFamily : public ::testing::TestWithParam<ConvexLossKind> {
 protected:
  ConvexLoss Make(int c) const {
    return GetParam() == ConvexLossKind::kMultiLabelSoftMargin
               ? ConvexLoss::MultiLabelSoftMargin(c)
               : ConvexLoss::PseudoHuber(c, 0.5);
  }
};

TEST_P(LossFamily, DerivativesMatchFiniteDifferences) {
  const ConvexLoss loss = Make(4);
  const double h = 1e-5;
  for (double y : {0.0, 1.0}) {
    for (double x = -8.0; x <= 8.0; x += 0.61) {
      const double d1_fd =
          (loss.Value(x + h, y) - loss.Value(x - h, y)) / (2.0 * h);
      EXPECT_NEAR(loss.D1(x, y), d1_fd, 1e-7) << "x=" << x << " y=" << y;
      const double d2_fd = (loss.D1(x + h, y) - loss.D1(x - h, y)) / (2.0 * h);
      EXPECT_NEAR(loss.D2(x, y), d2_fd, 1e-7) << "x=" << x << " y=" << y;
      const double d3_fd = (loss.D2(x + h, y) - loss.D2(x - h, y)) / (2.0 * h);
      EXPECT_NEAR(loss.D3(x, y), d3_fd, 1e-6) << "x=" << x << " y=" << y;
    }
  }
}

TEST_P(LossFamily, SecondDerivativeStrictlyPositive) {
  // Convexity (Lemma 4 requires ℓ'' > 0 for y in {0,1}).
  const ConvexLoss loss = Make(3);
  for (double y : {0.0, 1.0}) {
    for (double x : SweepPoints()) {
      EXPECT_GE(loss.D2(x, y), 0.0) << "x=" << x;
      if (std::abs(x) < 20.0) {
        EXPECT_GT(loss.D2(x, y), 0.0) << "x=" << x;
      }
    }
  }
}

TEST_P(LossFamily, SupremaHold) {
  // Eq. (19): |ℓ'| <= c1, |ℓ''| <= c2, |ℓ'''| <= c3 across the sweep.
  const ConvexLoss loss = Make(5);
  for (double y : {0.0, 1.0}) {
    for (double x : SweepPoints()) {
      EXPECT_LE(std::abs(loss.D1(x, y)), loss.c1() + 1e-12) << "x=" << x;
      EXPECT_LE(std::abs(loss.D2(x, y)), loss.c2() + 1e-12) << "x=" << x;
      EXPECT_LE(std::abs(loss.D3(x, y)), loss.c3() + 1e-12) << "x=" << x;
    }
  }
}

TEST_P(LossFamily, SupremaAreTight) {
  // The bounds must be attained (within 2%) somewhere — otherwise we would
  // be injecting more noise than the theory requires.
  const ConvexLoss loss = Make(2);
  double max_d1 = 0.0, max_d2 = 0.0, max_d3 = 0.0;
  for (double y : {0.0, 1.0}) {
    for (double x = -40.0; x <= 40.0; x += 0.001) {
      max_d1 = std::max(max_d1, std::abs(loss.D1(x, y)));
      max_d2 = std::max(max_d2, std::abs(loss.D2(x, y)));
      max_d3 = std::max(max_d3, std::abs(loss.D3(x, y)));
    }
  }
  EXPECT_GT(max_d1, 0.98 * loss.c1());
  EXPECT_GT(max_d2, 0.98 * loss.c2());
  EXPECT_GT(max_d3, 0.98 * loss.c3());
}

TEST_P(LossFamily, NonNegativeAndZeroAtPerfectPrediction) {
  const ConvexLoss loss = Make(4);
  for (double y : {0.0, 1.0}) {
    for (double x : SweepPoints()) {
      EXPECT_GE(loss.Value(x, y), -1e-12);
    }
  }
  if (GetParam() == ConvexLossKind::kPseudoHuber) {
    // Pseudo-Huber is exactly zero at x == y.
    EXPECT_NEAR(loss.Value(0.0, 0.0), 0.0, 1e-12);
    EXPECT_NEAR(loss.Value(1.0, 1.0), 0.0, 1e-12);
  }
}

TEST_P(LossFamily, NumericallyStableAtExtremes) {
  const ConvexLoss loss = Make(3);
  for (double y : {0.0, 1.0}) {
    for (double x : {-700.0, 700.0}) {
      EXPECT_TRUE(std::isfinite(loss.Value(x, y))) << "x=" << x;
      EXPECT_TRUE(std::isfinite(loss.D1(x, y)));
      EXPECT_TRUE(std::isfinite(loss.D2(x, y)));
      EXPECT_TRUE(std::isfinite(loss.D3(x, y)));
    }
  }
}

TEST_P(LossFamily, FusedPassMatchesValueAndD1Bitwise) {
  // Every score at both targets, in one pass with ℓ' and one without.
  for (int c : {1, 7}) {
    const ConvexLoss loss = Make(c);
    std::vector<double> xs, ys;
    for (double x : SpecialScores()) {
      for (double y : {0.0, 1.0}) {
        xs.push_back(x);
        ys.push_back(y);
      }
    }
    std::vector<double> values = xs, value_only = xs;
    std::vector<double> d1(xs.size());
    loss.ValueAndD1InPlace(values.data(), ys.data(), d1.data(), xs.size());
    loss.ValueAndD1InPlace(value_only.data(), ys.data(), nullptr, xs.size());
    for (std::size_t k = 0; k < xs.size(); ++k) {
      EXPECT_TRUE(SameBits(values[k], loss.Value(xs[k], ys[k])))
          << "c=" << c << " x=" << xs[k] << " y=" << ys[k];
      EXPECT_TRUE(SameBits(d1[k], loss.D1(xs[k], ys[k])))
          << "c=" << c << " x=" << xs[k] << " y=" << ys[k];
      EXPECT_TRUE(SameBits(value_only[k], values[k])) << "x=" << xs[k];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Both, LossFamily,
                         ::testing::Values(
                             ConvexLossKind::kMultiLabelSoftMargin,
                             ConvexLossKind::kPseudoHuber));

TEST(MultiLabelSoftMargin, KnownSuprema) {
  const int c = 7;
  const ConvexLoss loss = ConvexLoss::MultiLabelSoftMargin(c);
  EXPECT_NEAR(loss.c1(), 1.0 / c, 1e-15);
  EXPECT_NEAR(loss.c2(), 1.0 / (4.0 * c), 1e-15);
  EXPECT_NEAR(loss.c3(), 1.0 / (6.0 * std::sqrt(3.0) * c), 1e-15);
}

TEST(MultiLabelSoftMargin, MatchesDirectFormula) {
  const ConvexLoss loss = ConvexLoss::MultiLabelSoftMargin(2);
  auto sigmoid = [](double x) { return 1.0 / (1.0 + std::exp(-x)); };
  for (double y : {0.0, 1.0}) {
    for (double x = -5.0; x <= 5.0; x += 0.5) {
      const double direct = -(y * std::log(sigmoid(x)) +
                              (1.0 - y) * std::log(1.0 - sigmoid(x))) /
                            2.0;
      EXPECT_NEAR(loss.Value(x, y), direct, 1e-10);
    }
  }
}

TEST(ConvexLoss, ScalarFormulasKeepTheirBits) {
  // Each formula written out on its own, as the losses were first
  // implemented. Soft margin: softplus(-x) = max(-x, 0) + log1p(exp(-|x|))
  // and σ(x) = 1/(1 + exp(-x)) at x >= 0, exp(x)/(1 + exp(x)) below, one
  // exp each. Pseudo-Huber: a sqrt each. Value and D1 now share one exp or
  // one sqrt per score and must keep every one of these bits.
  for (int c : {1, 7}) {
    const ConvexLoss soft = ConvexLoss::MultiLabelSoftMargin(c);
    const double delta = 0.2;
    const ConvexLoss huber = ConvexLoss::PseudoHuber(c, delta);
    const double cd = static_cast<double>(c);
    for (double x : SpecialScores()) {
      for (double y : {0.0, 1.0}) {
        const double u = (x - y) / delta;
        const double huber_value =
            delta * delta / cd * (std::sqrt(1.0 + u * u) - 1.0);
        const double huber_d1 = (x - y) / (cd * std::sqrt(u * u + 1.0));
        EXPECT_TRUE(SameBits(huber.Value(x, y), huber_value))
            << "c=" << c << " x=" << x << " y=" << y;
        EXPECT_TRUE(SameBits(huber.D1(x, y), huber_d1))
            << "c=" << c << " x=" << x << " y=" << y;
        const double softplus =
            std::max(-x, 0.0) + std::log1p(std::exp(-std::abs(x)));
        const double sigmoid =
            x >= 0.0 ? 1.0 / (1.0 + std::exp(-x))
                     : std::exp(x) / (1.0 + std::exp(x));
        EXPECT_TRUE(
            SameBits(soft.Value(x, y), (softplus + (1.0 - y) * x) / cd))
            << "c=" << c << " x=" << x << " y=" << y;
        EXPECT_TRUE(SameBits(soft.D1(x, y), (sigmoid - y) / cd))
            << "c=" << c << " x=" << x << " y=" << y;
      }
    }
  }
}

TEST(PseudoHuber, KnownSuprema) {
  const int c = 3;
  const double delta = 0.2;
  const ConvexLoss loss = ConvexLoss::PseudoHuber(c, delta);
  EXPECT_NEAR(loss.c1(), delta / c, 1e-15);
  EXPECT_NEAR(loss.c2(), 1.0 / c, 1e-15);
  EXPECT_NEAR(loss.c3(), 48.0 * std::sqrt(5.0) / (125.0 * c * delta), 1e-15);
}

TEST(PseudoHuber, BehavesQuadraticallyNearZeroLinearlyFar) {
  const ConvexLoss loss = ConvexLoss::PseudoHuber(1, 1.0);
  // Near x = y: ℓ ≈ (x-y)²/2.
  EXPECT_NEAR(loss.Value(0.01, 0.0), 0.5 * 0.01 * 0.01, 1e-7);
  // Far away: slope approaches δ_l / c = 1.
  const double slope = (loss.Value(101.0, 0.0) - loss.Value(100.0, 0.0));
  EXPECT_NEAR(slope, 1.0, 1e-3);
}

TEST(ConvexLoss, Names) {
  EXPECT_EQ(ConvexLoss::MultiLabelSoftMargin(2).name(),
            "multilabel_soft_margin");
  EXPECT_EQ(ConvexLoss::PseudoHuber(2, 0.1).name(), "pseudo_huber");
}

}  // namespace
}  // namespace gcon
