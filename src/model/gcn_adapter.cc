// "gcn": the non-private 2-layer GCN — the utility ceiling of Figure 1.
#include <limits>
#include <memory>
#include <sstream>

#include "baselines/gcn.h"
#include "common/timer.h"
#include "model/adapters.h"

namespace gcon {
namespace {

class GcnModel : public internal::CachedLogitsModel {
 public:
  explicit GcnModel(const ModelConfig& config) {
    options_.hidden = config.GetIntAtLeast("hidden", options_.hidden, 1);
    options_.epochs = config.GetIntAtLeast("epochs", options_.epochs, 0);
    options_.learning_rate =
        config.GetDouble("learning_rate", options_.learning_rate);
    options_.weight_decay =
        config.GetDouble("weight_decay", options_.weight_decay);
    options_.eval_every =
        config.GetIntAtLeast("eval_every", options_.eval_every, 1);
    options_.seed = config.GetSeed("seed", options_.seed);
    internal::ReadBudgetKeys(config);  // accepted, ignored: not private
  }

  std::string name() const override { return "gcn"; }

  std::string Describe() const override {
    std::ostringstream out;
    out << "gcn hidden=" << options_.hidden << " epochs=" << options_.epochs
        << " learning_rate=" << options_.learning_rate
        << " weight_decay=" << options_.weight_decay
        << " eval_every=" << options_.eval_every << " seed=" << options_.seed;
    return out.str();
  }

  bool UsesPrivacyBudget() const override { return false; }

  TrainResult Train(const Graph& graph, const Split& split) override {
    Timer timer;
    Matrix logits = TrainGcnAndPredict(graph, split, options_);
    CacheLogits(logits, graph);
    // Non-private: the trained model exposes the exact edge set.
    return MakeResult(graph, split, std::move(logits), timer.Seconds(),
                      std::numeric_limits<double>::infinity(), 0.0);
  }

 private:
  GcnOptions options_;
};

}  // namespace

namespace internal {

void RegisterGcnModel(ModelRegistry* registry) {
  registry->Register(
      "gcn",
      [](const ModelConfig& config) -> std::unique_ptr<GraphModel> {
        return std::make_unique<GcnModel>(config);
      },
      "non-private 2-layer GCN (Kipf & Welling); utility ceiling");
}

}  // namespace internal
}  // namespace gcon
