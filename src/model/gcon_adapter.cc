// "gcon": the paper's method (Algorithm 1) behind the GraphModel interface.
//
// Extras over the baselines:
//   * alpha_grid=0.4,0.6,0.8 — trains one model per candidate restart
//     probability (encoder reused across candidates; it is
//     alpha-independent) and keeps the best validation micro-F1, mirroring
//     the per-setting hyperparameter search of Appendix Q. The search is
//     not charged to the privacy budget, exactly as in the paper.
//   * Predict on a *different* graph via the release artifact (Eq. (16)
//     private inference; only each query node's own edges are read).
//   * Save/Load of the "gcon-model v1" release artifact (core/model_io.h).
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/encoder.h"
#include "core/gcon.h"
#include "core/model_io.h"
#include "eval/metrics.h"
#include "model/adapters.h"
#include "propagation/appr.h"

namespace gcon {
namespace {

std::string StepsToString(const std::vector<int>& steps) {
  std::vector<std::string> parts;
  for (int m : steps) {
    parts.push_back(m == kInfiniteSteps ? "inf" : std::to_string(m));
  }
  return Join(parts, ",");
}

class GconGraphModel : public GraphModel {
 public:
  explicit GconGraphModel(const ModelConfig& config)
      : budget_(internal::ReadBudgetKeys(config)) {
    config_.omega = config.GetDouble("omega", config_.omega);
    config_.alpha = config.GetDouble("alpha", 0.6);
    config_.steps = config.GetSteps("steps", {2});
    config_.alpha_inference =
        config.GetDouble("alpha_inference", config_.alpha_inference);
    config_.lambda = config.GetDouble("lambda", config_.lambda);
    const std::string loss = config.GetString("loss", "soft_margin");
    if (loss == "soft_margin") {
      config_.loss_kind = ConvexLossKind::kMultiLabelSoftMargin;
    } else if (loss == "pseudo_huber") {
      config_.loss_kind = ConvexLossKind::kPseudoHuber;
    } else {
      throw std::invalid_argument(
          "config key 'loss': want soft_margin or pseudo_huber, got '" + loss +
          "'");
    }
    config_.pseudo_huber_delta =
        config.GetDouble("pseudo_huber_delta", config_.pseudo_huber_delta);
    config_.encoder.hidden =
        config.GetIntAtLeast("hidden", config_.encoder.hidden, 1);
    config_.encoder.out_dim =
        config.GetIntAtLeast("d1", config_.encoder.out_dim, 1);
    config_.encoder.epochs =
        config.GetIntAtLeast("encoder_epochs", config_.encoder.epochs, 0);
    config_.expand_train_set =
        config.GetBool("expand", true);  // n1 = n, the stronger configuration
    config_.disable_noise =
        config.GetBool("disable_noise", config_.disable_noise);
    const std::string minimizer = config.GetString("minimizer", "lbfgs");
    if (minimizer == "lbfgs") {
      config_.minimize.minimizer = Minimizer::kLbfgs;
    } else if (minimizer == "adam") {
      config_.minimize.minimizer = Minimizer::kAdam;
    } else if (minimizer == "gd") {
      config_.minimize.minimizer = Minimizer::kGradientDescent;
    } else {
      throw std::invalid_argument(
          "config key 'minimizer': want lbfgs, adam, or gd, got '" +
          minimizer + "'");
    }
    config_.minimize.max_iterations =
        config.GetInt("max_iterations", 400);
    config_.minimize.gradient_tolerance = 1e-8;
    config_.seed = config.GetSeed("seed", config_.seed);
    alpha_grid_ = config.GetDoubleList("alpha_grid", {});
    config_.epsilon = budget_.epsilon;
  }

  std::string name() const override { return "gcon"; }

  std::string Describe() const override {
    std::ostringstream out;
    out << "gcon epsilon=" << budget_.epsilon << " delta=" << internal::DeltaLabel(budget_)
        << " omega=" << config_.omega << " alpha=" << config_.alpha
        << " steps=" << StepsToString(config_.steps)
        << " lambda=" << config_.lambda << " loss="
        << (config_.loss_kind == ConvexLossKind::kMultiLabelSoftMargin
                ? "soft_margin"
                : "pseudo_huber")
        << " hidden=" << config_.encoder.hidden
        << " d1=" << config_.encoder.out_dim
        << " encoder_epochs=" << config_.encoder.epochs
        << " expand=" << (config_.expand_train_set ? "true" : "false")
        << " minimizer="
        << (config_.minimize.minimizer == Minimizer::kLbfgs    ? "lbfgs"
            : config_.minimize.minimizer == Minimizer::kAdam   ? "adam"
                                                               : "gd")
        << " max_iterations=" << config_.minimize.max_iterations
        << " seed=" << config_.seed;
    if (!alpha_grid_.empty()) {
      std::vector<std::string> parts;
      for (double a : alpha_grid_) parts.push_back(FormatDouble(a, 2));
      out << " alpha_grid=" << Join(parts, ",");
    }
    if (config_.disable_noise) out << " disable_noise=true (NOT private)";
    return out.str();
  }

  bool UsesPrivacyBudget() const override { return true; }

  TrainResult Train(const Graph& graph, const Split& split) override {
    Timer timer;
    const double delta = internal::ResolveDelta(budget_, graph);
    config_.delta = delta;

    if (alpha_grid_.empty()) {
      prepared_ = PrepareGcon(graph, split, config_);
      model_ = TrainPrepared(*prepared_, budget_.epsilon, delta,
                             config_.seed + 0x5eed);
    } else {
      // The encoder depends on neither alpha nor epsilon: train it once and
      // sweep the restart probability, selecting on validation micro-F1.
      EncoderOptions encoder_options = config_.encoder;
      encoder_options.seed = config_.seed;
      const EncodedFeatures encoded =
          TrainEncoder(graph, split, encoder_options);
      double best_val = -1.0;
      for (std::size_t i = 0; i < alpha_grid_.size(); ++i) {
        GconConfig candidate = config_;
        candidate.alpha = alpha_grid_[i];
        GconPrepared prepared =
            PrepareGconFromEncoded(graph, split, candidate, encoded);
        GconModel model = TrainPrepared(prepared, budget_.epsilon, delta,
                                        config_.seed + 0x5eed + 7919 * i);
        const double val_f1 = MicroF1FromLogits(
            PrivateInference(prepared, model), graph.labels(), split.val,
            graph.num_classes());
        if (val_f1 > best_val) {
          best_val = val_f1;
          config_.alpha = candidate.alpha;
          prepared_ = std::move(prepared);
          model_ = std::move(model);
        }
      }
    }
    trained_ = true;
    artifact_ = MakeArtifact(*prepared_, model_, budget_.epsilon, delta);
    Matrix logits = PrivateInference(*prepared_, model_);
    return MakeResult(graph, split, std::move(logits), timer.Seconds(),
                      config_.disable_noise
                          ? std::numeric_limits<double>::infinity()
                          : budget_.epsilon,
                      config_.disable_noise ? 0.0 : delta);
  }

  Matrix Predict(const Graph& graph) const override {
    GCON_CHECK(trained_) << "Predict called before Train/Load on 'gcon'";
    return artifact_->Infer(graph);
  }

  bool Save(const std::string& path) const override {
    GCON_CHECK(trained_) << "Save called before Train on 'gcon'";
    SaveModel(*artifact_, path);
    return true;
  }

  bool Load(const std::string& path) override {
    artifact_ = LoadModel(path);
    trained_ = true;
    return true;
  }

  const GconArtifact* ReleaseArtifact() const override {
    return trained_ ? &*artifact_ : nullptr;
  }

 private:
  internal::BudgetKeys budget_;
  GconConfig config_;
  std::vector<double> alpha_grid_;
  bool trained_ = false;
  std::optional<GconPrepared> prepared_;
  GconModel model_;
  std::optional<GconArtifact> artifact_;
};

}  // namespace

namespace internal {

void RegisterGconModel(ModelRegistry* registry) {
  registry->Register(
      "gcon",
      [](const ModelConfig& config) -> std::unique_ptr<GraphModel> {
        return std::make_unique<GconGraphModel>(config);
      },
      "GCON: DP GCN via objective perturbation (the paper's method)");
}

}  // namespace internal
}  // namespace gcon
