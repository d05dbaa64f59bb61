// "dpsgd": DP-SGD (Abadi et al.) adapted to edge DP on a one-layer SGC.
#include <memory>
#include <sstream>

#include "baselines/dpsgd_gcn.h"
#include "common/timer.h"
#include "model/adapters.h"

namespace gcon {
namespace {

class DpsgdModel : public internal::CachedLogitsModel {
 public:
  explicit DpsgdModel(const ModelConfig& config)
      : budget_(internal::ReadBudgetKeys(config)) {
    options_.clip = config.GetDouble("clip", options_.clip);
    options_.steps = config.GetIntAtLeast("steps", options_.steps, 0);
    options_.sample_rate = config.GetDouble("sample_rate", options_.sample_rate);
    options_.learning_rate =
        config.GetDouble("learning_rate", options_.learning_rate);
    options_.seed = config.GetSeed("seed", options_.seed);
  }

  std::string name() const override { return "dpsgd"; }

  std::string Describe() const override {
    std::ostringstream out;
    out << "dpsgd epsilon=" << budget_.epsilon << " delta=" << internal::DeltaLabel(budget_)
        << " clip=" << options_.clip << " steps=" << options_.steps
        << " sample_rate=" << options_.sample_rate
        << " learning_rate=" << options_.learning_rate
        << " seed=" << options_.seed;
    return out.str();
  }

  bool UsesPrivacyBudget() const override { return true; }

  TrainResult Train(const Graph& graph, const Split& split) override {
    Timer timer;
    const double delta = internal::ResolveDelta(budget_, graph);
    Matrix logits = TrainDpsgdGcnAndPredict(graph, split, budget_.epsilon,
                                            delta, options_);
    CacheLogits(logits, graph);
    return MakeResult(graph, split, std::move(logits), timer.Seconds(),
                      budget_.epsilon, delta);
  }

 private:
  internal::BudgetKeys budget_;
  DpsgdOptions options_;
};

}  // namespace

namespace internal {

void RegisterDpsgdModel(ModelRegistry* registry) {
  registry->Register(
      "dpsgd",
      [](const ModelConfig& config) -> std::unique_ptr<GraphModel> {
        return std::make_unique<DpsgdModel>(config);
      },
      "DP-SGD on a one-layer SGC (per-node clipping, RDP accountant)");
}

}  // namespace internal
}  // namespace gcon
