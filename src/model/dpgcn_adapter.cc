// "dpgcn": LapGraph topology perturbation + plain GCN (LinkTeller's DPGCN
// baseline). Pure epsilon-edge-DP: delta is accepted but not spent.
#include <memory>
#include <sstream>

#include "baselines/dpgcn.h"
#include "common/timer.h"
#include "model/adapters.h"

namespace gcon {
namespace {

class DpgcnModel : public internal::CachedLogitsModel {
 public:
  explicit DpgcnModel(const ModelConfig& config)
      : budget_(internal::ReadBudgetKeys(config)) {
    options_.gcn.hidden =
        config.GetIntAtLeast("hidden", options_.gcn.hidden, 1);
    options_.gcn.epochs =
        config.GetIntAtLeast("epochs", options_.gcn.epochs, 0);
    options_.gcn.learning_rate =
        config.GetDouble("learning_rate", options_.gcn.learning_rate);
    options_.gcn.weight_decay =
        config.GetDouble("weight_decay", options_.gcn.weight_decay);
    options_.gcn.eval_every =
        config.GetIntAtLeast("eval_every", options_.gcn.eval_every, 1);
    options_.gcn.seed = config.GetSeed("seed", options_.gcn.seed);
    options_.count_split = config.GetDouble("count_split", options_.count_split);
  }

  std::string name() const override { return "dpgcn"; }

  std::string Describe() const override {
    std::ostringstream out;
    out << "dpgcn epsilon=" << budget_.epsilon
        << " count_split=" << options_.count_split
        << " hidden=" << options_.gcn.hidden
        << " epochs=" << options_.gcn.epochs
        << " learning_rate=" << options_.gcn.learning_rate
        << " weight_decay=" << options_.gcn.weight_decay
        << " eval_every=" << options_.gcn.eval_every
        << " seed=" << options_.gcn.seed;
    return out.str();
  }

  bool UsesPrivacyBudget() const override { return true; }

  TrainResult Train(const Graph& graph, const Split& split) override {
    Timer timer;
    Matrix logits =
        TrainDpgcnAndPredict(graph, split, budget_.epsilon, options_);
    CacheLogits(logits, graph);
    return MakeResult(graph, split, std::move(logits), timer.Seconds(),
                      budget_.epsilon, 0.0);  // pure eps-DP mechanism
  }

 private:
  internal::BudgetKeys budget_;
  DpgcnOptions options_;
};

}  // namespace

namespace internal {

void RegisterDpgcnModel(ModelRegistry* registry) {
  registry->Register(
      "dpgcn",
      [](const ModelConfig& config) -> std::unique_ptr<GraphModel> {
        return std::make_unique<DpgcnModel>(config);
      },
      "LapGraph-perturbed topology + GCN (LinkTeller baseline)");
}

}  // namespace internal
}  // namespace gcon
