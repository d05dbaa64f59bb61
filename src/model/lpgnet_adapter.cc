// "lpgnet": LPGNet (Kolluri et al.) — stacked MLPs over Laplace-noised
// per-class degree vectors. Pure epsilon-edge-DP: delta accepted, not spent.
#include <memory>
#include <sstream>

#include "baselines/lpgnet.h"
#include "common/timer.h"
#include "model/adapters.h"

namespace gcon {
namespace {

class LpgnetModel : public internal::CachedLogitsModel {
 public:
  explicit LpgnetModel(const ModelConfig& config)
      : budget_(internal::ReadBudgetKeys(config)) {
    options_.stacks = config.GetIntAtLeast("stacks", options_.stacks, 0);
    options_.hidden = config.GetIntAtLeast("hidden", options_.hidden, 1);
    options_.epochs = config.GetIntAtLeast("epochs", options_.epochs, 0);
    options_.learning_rate =
        config.GetDouble("learning_rate", options_.learning_rate);
    options_.weight_decay =
        config.GetDouble("weight_decay", options_.weight_decay);
    options_.seed = config.GetSeed("seed", options_.seed);
  }

  std::string name() const override { return "lpgnet"; }

  std::string Describe() const override {
    std::ostringstream out;
    out << "lpgnet epsilon=" << budget_.epsilon
        << " stacks=" << options_.stacks << " hidden=" << options_.hidden
        << " epochs=" << options_.epochs
        << " learning_rate=" << options_.learning_rate
        << " weight_decay=" << options_.weight_decay
        << " seed=" << options_.seed;
    return out.str();
  }

  bool UsesPrivacyBudget() const override { return true; }

  TrainResult Train(const Graph& graph, const Split& split) override {
    Timer timer;
    Matrix logits =
        TrainLpgnetAndPredict(graph, split, budget_.epsilon, options_);
    CacheLogits(logits, graph);
    return MakeResult(graph, split, std::move(logits), timer.Seconds(),
                      budget_.epsilon, 0.0);  // pure eps-DP mechanism
  }

 private:
  internal::BudgetKeys budget_;
  LpgnetOptions options_;
};

}  // namespace

namespace internal {

void RegisterLpgnetModel(ModelRegistry* registry) {
  registry->Register(
      "lpgnet",
      [](const ModelConfig& config) -> std::unique_ptr<GraphModel> {
        return std::make_unique<LpgnetModel>(config);
      },
      "LPGNet: stacked MLPs over Laplace-noised degree vectors");
}

}  // namespace internal
}  // namespace gcon
