// "gap": GAP-EDP (Sajadmanesh et al.) — encoder MLP, private multi-hop
// aggregation with zCDP composition, classification head.
#include <memory>
#include <sstream>

#include "baselines/gap.h"
#include "common/timer.h"
#include "model/adapters.h"

namespace gcon {
namespace {

class GapModel : public internal::CachedLogitsModel {
 public:
  explicit GapModel(const ModelConfig& config)
      : budget_(internal::ReadBudgetKeys(config)) {
    options_.hops = config.GetIntAtLeast("hops", options_.hops, 0);
    options_.encoder_hidden =
        config.GetIntAtLeast("encoder_hidden", options_.encoder_hidden, 1);
    options_.encoder_dim =
        config.GetIntAtLeast("encoder_dim", options_.encoder_dim, 1);
    options_.encoder_epochs =
        config.GetIntAtLeast("encoder_epochs", options_.encoder_epochs, 0);
    options_.head_hidden =
        config.GetIntAtLeast("head_hidden", options_.head_hidden, 1);
    options_.head_epochs =
        config.GetIntAtLeast("head_epochs", options_.head_epochs, 0);
    options_.learning_rate =
        config.GetDouble("learning_rate", options_.learning_rate);
    options_.weight_decay =
        config.GetDouble("weight_decay", options_.weight_decay);
    options_.seed = config.GetSeed("seed", options_.seed);
  }

  std::string name() const override { return "gap"; }

  std::string Describe() const override {
    std::ostringstream out;
    out << "gap epsilon=" << budget_.epsilon << " delta=" << internal::DeltaLabel(budget_)
        << " hops=" << options_.hops
        << " encoder_hidden=" << options_.encoder_hidden
        << " encoder_dim=" << options_.encoder_dim
        << " encoder_epochs=" << options_.encoder_epochs
        << " head_hidden=" << options_.head_hidden
        << " head_epochs=" << options_.head_epochs
        << " learning_rate=" << options_.learning_rate
        << " weight_decay=" << options_.weight_decay
        << " seed=" << options_.seed;
    return out.str();
  }

  bool UsesPrivacyBudget() const override { return true; }

  TrainResult Train(const Graph& graph, const Split& split) override {
    Timer timer;
    const double delta = internal::ResolveDelta(budget_, graph);
    Matrix logits =
        TrainGapAndPredict(graph, split, budget_.epsilon, delta, options_);
    CacheLogits(logits, graph);
    return MakeResult(graph, split, std::move(logits), timer.Seconds(),
                      budget_.epsilon, delta);
  }

 private:
  internal::BudgetKeys budget_;
  GapOptions options_;
};

}  // namespace

namespace internal {

void RegisterGapModel(ModelRegistry* registry) {
  registry->Register(
      "gap",
      [](const ModelConfig& config) -> std::unique_ptr<GraphModel> {
        return std::make_unique<GapModel>(config);
      },
      "GAP-EDP: noisy multi-hop aggregation + MLP head (zCDP)");
}

}  // namespace internal
}  // namespace gcon
