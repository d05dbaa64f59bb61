// "progap": ProGAP-EDP (Sajadmanesh & Gatica-Perez) — progressive stages of
// noisy aggregation + MLP, composed with zCDP.
#include <memory>
#include <sstream>

#include "baselines/progap.h"
#include "common/timer.h"
#include "model/adapters.h"

namespace gcon {
namespace {

class ProgapModel : public internal::CachedLogitsModel {
 public:
  explicit ProgapModel(const ModelConfig& config)
      : budget_(internal::ReadBudgetKeys(config)) {
    options_.stages = config.GetIntAtLeast("stages", options_.stages, 0);
    options_.hidden = config.GetIntAtLeast("hidden", options_.hidden, 1);
    options_.dim = config.GetIntAtLeast("dim", options_.dim, 1);
    options_.stage_epochs =
        config.GetIntAtLeast("stage_epochs", options_.stage_epochs, 0);
    options_.learning_rate =
        config.GetDouble("learning_rate", options_.learning_rate);
    options_.weight_decay =
        config.GetDouble("weight_decay", options_.weight_decay);
    options_.seed = config.GetSeed("seed", options_.seed);
  }

  std::string name() const override { return "progap"; }

  std::string Describe() const override {
    std::ostringstream out;
    out << "progap epsilon=" << budget_.epsilon << " delta=" << internal::DeltaLabel(budget_)
        << " stages=" << options_.stages << " hidden=" << options_.hidden
        << " dim=" << options_.dim
        << " stage_epochs=" << options_.stage_epochs
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
        TrainProgapAndPredict(graph, split, budget_.epsilon, delta, options_);
    CacheLogits(logits, graph);
    return MakeResult(graph, split, std::move(logits), timer.Seconds(),
                      budget_.epsilon, delta);
  }

 private:
  internal::BudgetKeys budget_;
  ProgapOptions options_;
};

}  // namespace

namespace internal {

void RegisterProgapModel(ModelRegistry* registry) {
  registry->Register(
      "progap",
      [](const ModelConfig& config) -> std::unique_ptr<GraphModel> {
        return std::make_unique<ProgapModel>(config);
      },
      "ProGAP-EDP: progressive noisy-aggregation stages (zCDP)");
}

}  // namespace internal
}  // namespace gcon
