// The GraphModel registry (src/model/): every registered method must be
// instantiable by name, train on a tiny synthetic graph to finite logits of
// the right shape, and round-trip --set overrides into its options struct;
// unknown names and typo'd keys must fail loudly.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/datasets.h"
#include "model/adapters.h"
#include "rng/rng.h"

namespace gcon {
namespace {

struct TinyData {
  Graph graph;
  Split split;
};

TinyData MakeTinyData(std::uint64_t seed) {
  const DatasetSpec spec = TinySpec();
  Rng rng(seed);
  TinyData data;
  data.graph = GenerateDataset(spec, &rng);
  data.split = MakeSplit(spec, data.graph, &rng);
  return data;
}

/// Small per-method overrides so the full suite trains in seconds.
ModelConfig FastConfig(const std::string& method) {
  ModelConfig config;
  config.Set("epsilon", "2.0");
  config.Set("seed", "3");
  if (method == "gcon") {
    config.Set("encoder_epochs", "40");
    config.Set("max_iterations", "120");
  } else if (method == "dpsgd") {
    config.Set("steps", "60");
  } else if (method == "gap" || method == "progap") {
    // GAP trains encoder_epochs/head_epochs; ProGAP stage_epochs — both
    // accept the shared budget keys and their own epoch knobs.
    if (method == "gap") {
      config.Set("encoder_epochs", "40");
      config.Set("head_epochs", "40");
    } else {
      config.Set("stage_epochs", "40");
    }
  } else {
    config.Set("epochs", "60");
  }
  return config;
}

TEST(ModelRegistry, AllEightMethodsRegistered) {
  const std::vector<std::string> expected = {"dpgcn",  "dpsgd", "gap",
                                             "gcn",    "gcon",  "lpgnet",
                                             "mlp",    "progap"};
  const std::vector<std::string> names = BuiltinModelRegistry().Names();
  for (const std::string& name : expected) {
    EXPECT_TRUE(BuiltinModelRegistry().Contains(name)) << name;
    EXPECT_FALSE(BuiltinModelRegistry().Summary(name).empty()) << name;
  }
  EXPECT_GE(names.size(), expected.size());
}

TEST(ModelRegistry, UnknownMethodThrowsWithAlternatives) {
  try {
    BuiltinModelRegistry().Create("no_such_method", ModelConfig());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no_such_method"), std::string::npos) << message;
    // The error must list the registered names so a typo is self-serviced.
    EXPECT_NE(message.find("gcon"), std::string::npos) << message;
    EXPECT_NE(message.find("lpgnet"), std::string::npos) << message;
  }
}

TEST(ModelRegistry, UnknownConfigKeyThrows) {
  ModelConfig config;
  config.Set("hiden", "7");  // typo for "hidden"
  try {
    BuiltinModelRegistry().Create("gcn", config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("hiden"), std::string::npos)
        << e.what();
  }
}

TEST(ModelRegistry, MalformedNumericValueThrows) {
  ModelConfig config;
  config.Set("hidden", "thirty-two");
  EXPECT_THROW(BuiltinModelRegistry().Create("gcn", config),
               std::invalid_argument);
}

// Sizes out of range are usage errors naming the key, caught when the
// model is created: a validation period of 0 divided by zero, d1 = 0 and a
// negative hop, stage or stack count tripped checks deeper in, a negative
// width asked for a vector of -2 columns, and a negative epoch count or a
// zero width went through silently.
TEST(ModelRegistry, OutOfRangeSizesThrowNamingTheKey) {
  const struct {
    const char* method;
    const char* key;
    const char* value;
  } cases[] = {
      {"gcn", "eval_every", "0"},       {"dpgcn", "eval_every", "0"},
      {"gcn", "eval_every", "-1"},      {"gcon", "d1", "0"},
      {"gcn", "hidden", "-2"},          {"gcon", "encoder_epochs", "-3"},
      {"mlp", "hidden", "0"},           {"gcon", "hidden", "0"},
      {"dpgcn", "hidden", "0"},         {"gcn", "epochs", "-1"},
      {"mlp", "epochs", "-5"},          {"gap", "encoder_dim", "0"},
      {"gap", "encoder_hidden", "0"},   {"gap", "head_hidden", "0"},
      {"gap", "encoder_epochs", "-1"},  {"gap", "head_epochs", "-1"},
      {"progap", "hidden", "0"},        {"progap", "dim", "0"},
      {"progap", "stage_epochs", "-1"}, {"lpgnet", "hidden", "0"},
      {"lpgnet", "epochs", "-1"},       {"dpsgd", "steps", "-1"},
      {"gap", "hops", "-1"},            {"progap", "stages", "-1"},
      {"lpgnet", "stacks", "-1"},
  };
  for (const auto& c : cases) {
    ModelConfig config;
    config.Set(c.key, c.value);
    try {
      BuiltinModelRegistry().Create(c.method, config);
      ADD_FAILURE() << c.method << " accepted " << c.key << "=" << c.value;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + c.key + "'"),
                std::string::npos)
          << e.what();
    }
  }
  // The smallest sizes in range still train.
  const TinyData data = MakeTinyData(5);
  for (const auto& [method, key] :
       {std::pair<const char*, const char*>{"gcn", "eval_every"},
        {"gcon", "d1"},
        {"mlp", "hidden"}}) {
    ModelConfig config = FastConfig(method);
    config.Set(key, "1");
    std::unique_ptr<GraphModel> model =
        BuiltinModelRegistry().Create(method, config);
    const TrainResult result = model->Train(data.graph, data.split);
    EXPECT_TRUE(std::isfinite(result.val_micro_f1)) << method << " " << key;
  }
  ModelConfig zero_epochs = FastConfig("gcon");
  zero_epochs.Set("encoder_epochs", "0");
  EXPECT_NO_THROW(BuiltinModelRegistry()
                      .Create("gcon", zero_epochs)
                      ->Train(data.graph, data.split));
}

TEST(ModelRegistry, EveryMethodTrainsToFiniteLogits) {
  const TinyData data = MakeTinyData(/*seed=*/7);
  const std::size_t n = static_cast<std::size_t>(data.graph.num_nodes());
  const std::size_t c = static_cast<std::size_t>(data.graph.num_classes());
  for (const std::string& name : BuiltinModelRegistry().Names()) {
    SCOPED_TRACE(name);
    std::unique_ptr<GraphModel> model =
        BuiltinModelRegistry().Create(name, FastConfig(name));
    EXPECT_EQ(model->name(), name);
    EXPECT_FALSE(model->Describe().empty());

    const TrainResult result = model->Train(data.graph, data.split);
    EXPECT_EQ(result.method, name);
    ASSERT_EQ(result.logits.rows(), n);
    ASSERT_EQ(result.logits.cols(), c);
    for (std::size_t k = 0; k < result.logits.size(); ++k) {
      ASSERT_TRUE(std::isfinite(result.logits.data()[k]))
          << "non-finite logit at flat index " << k;
    }
    EXPECT_GE(result.test_micro_f1, 0.0);
    EXPECT_LE(result.test_micro_f1, 1.0);
    EXPECT_GE(result.test_macro_f1, 0.0);
    EXPECT_LE(result.test_macro_f1, 1.0);
    EXPECT_GE(result.train_seconds, 0.0);
    EXPECT_GE(result.epsilon_spent, 0.0);  // 0 (mlp) .. inf (gcn)

    // Predict on the training graph agrees with the reported logits.
    const Matrix again = model->Predict(data.graph);
    ASSERT_EQ(again.rows(), n);
    ASSERT_EQ(again.cols(), c);
  }
}

TEST(ModelRegistry, PrivacyBudgetFlagsMatchTheMethods) {
  const TinyData data = MakeTinyData(/*seed=*/7);
  (void)data;
  for (const std::string& name : BuiltinModelRegistry().Names()) {
    std::unique_ptr<GraphModel> model =
        BuiltinModelRegistry().Create(name, ModelConfig());
    const bool wants_budget = name != "gcn" && name != "mlp";
    EXPECT_EQ(model->UsesPrivacyBudget(), wants_budget) << name;
  }
}

TEST(ModelConfig, SetOverridesRoundTripIntoOptions) {
  // The same overrides a user passes as `--set k=v` must show up in the
  // resolved options the adapter reports via Describe().
  ModelConfig config;
  config.SetFromFlag("hidden=7");
  config.SetFromFlag("epochs=3");
  config.SetFromFlag("learning_rate=0.125");
  std::unique_ptr<GraphModel> model =
      BuiltinModelRegistry().Create("gcn", config);
  const std::string described = model->Describe();
  EXPECT_NE(described.find("hidden=7"), std::string::npos) << described;
  EXPECT_NE(described.find("epochs=3"), std::string::npos) << described;
  EXPECT_NE(described.find("learning_rate=0.125"), std::string::npos)
      << described;
}

TEST(ModelConfig, GconStepsAndBudgetRoundTrip) {
  ModelConfig config;
  config.SetFromFlag("steps=0,2,inf");
  config.SetFromFlag("epsilon=2.5");
  config.SetFromFlag("alpha=0.45");
  std::unique_ptr<GraphModel> model =
      BuiltinModelRegistry().Create("gcon", config);
  const std::string described = model->Describe();
  EXPECT_NE(described.find("steps=0,2,inf"), std::string::npos) << described;
  EXPECT_NE(described.find("epsilon=2.5"), std::string::npos) << described;
  EXPECT_NE(described.find("alpha=0.45"), std::string::npos) << described;
}

TEST(ModelConfig, MalformedSetFlagThrows) {
  ModelConfig config;
  EXPECT_THROW(config.SetFromFlag("novalue"), std::invalid_argument);
  EXPECT_THROW(config.SetFromFlag("=5"), std::invalid_argument);
}

TEST(ModelRegistry, ConcurrentLookupsAreSafe) {
  // The parallel experiment engine Creates a model per run from worker
  // threads; lookups must tolerate full concurrency (shared locks — the
  // CI ThreadSanitizer job runs this test under TSan).
  BuiltinModelRegistry();  // registration happens-before the workers
  std::vector<std::thread> workers;
  std::atomic<int> created{0};
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&created, t] {
      const std::vector<std::string> names = BuiltinModelRegistry().Names();
      EXPECT_EQ(names.size(), 8u);
      const std::string& method = names[static_cast<std::size_t>(t) %
                                        names.size()];
      EXPECT_TRUE(BuiltinModelRegistry().Contains(method));
      EXPECT_FALSE(BuiltinModelRegistry().Summary(method).empty());
      ModelConfig config;
      if (method != "mlp" && method != "gcn") config.Set("epsilon", "1.0");
      auto model = BuiltinModelRegistry().Create(method, config);
      EXPECT_EQ(model->name(), method);
      created.fetch_add(1);
      EXPECT_THROW(BuiltinModelRegistry().Create("no-such-method", {}),
                   std::invalid_argument);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(created.load(), 8);
}

TEST(ModelConfig, ParseStepsRejectsGarbage) {
  EXPECT_THROW(ParseStepsOrThrow("2,x"), std::invalid_argument);
  EXPECT_THROW(ParseStepsOrThrow("-3"), std::invalid_argument);
  EXPECT_THROW(ParseStepsOrThrow(""), std::invalid_argument);
  const std::vector<int> steps = ParseStepsOrThrow("0,2,inf");
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[2], -1);  // kInfiniteSteps
}

}  // namespace
}  // namespace gcon
