// Polymorphic model API: every method of the paper's comparison suite
// (GCON and the seven baselines of Figures 1-4 / Table III) behind one
// interface, so the CLI, the bench binaries, and the experiment harness
// dispatch by name instead of hand-rolling per-method plumbing.
//
// The three pieces:
//   * ModelConfig  — uniform key-value configuration ("--set key=value"),
//     mapped by each adapter onto its method's existing options struct.
//     Reads are tracked so a typo'd key is a hard error, not a silent
//     default run.
//   * TrainResult  — what every method reports: logits for all nodes,
//     micro/macro-F1 on the split, the privacy budget actually spent, and
//     wall-clock training time.
//   * GraphModel   — Train / Predict / Save / Load / Describe. Instances
//     come from the ModelRegistry (registry.h) keyed by method name.
#ifndef GCON_MODEL_MODEL_H_
#define GCON_MODEL_MODEL_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/splits.h"
#include "linalg/matrix.h"

namespace gcon {

struct GconArtifact;  // core/model_io.h — the published release artifact

/// String-keyed configuration shared by every GraphModel. Values are stored
/// as strings (exactly as given on the command line) and converted on
/// access; conversion failures throw std::invalid_argument naming the key.
/// Every Get* marks its key as consumed so ModelRegistry::Create can reject
/// keys no adapter ever read (CheckAllKeysUsed).
class ModelConfig {
 public:
  ModelConfig() = default;
  ModelConfig(
      std::initializer_list<std::pair<const std::string, std::string>> kv)
      : values_(kv) {}

  /// Sets `key` to `value`, overwriting any previous value.
  void Set(const std::string& key, const std::string& value);

  /// Parses "key=value" (as passed to --set) and applies it. Throws
  /// std::invalid_argument when the '=' is missing or the key is empty.
  void SetFromFlag(const std::string& key_equals_value);

  bool Has(const std::string& key) const;

  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int GetInt(const std::string& key, int default_value) const;
  /// GetInt, throwing std::invalid_argument that names the key when the
  /// value is below `min` (a width of 0, a negative epoch count).
  int GetIntAtLeast(const std::string& key, int default_value, int min) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;
  std::uint64_t GetSeed(const std::string& key,
                        std::uint64_t default_value) const;
  /// Comma-separated propagation steps, "inf" allowed ("0,2,inf").
  std::vector<int> GetSteps(const std::string& key,
                            const std::vector<int>& default_value) const;
  /// Comma-separated list of doubles ("0.4,0.6,0.8").
  std::vector<double> GetDoubleList(
      const std::string& key, const std::vector<double>& default_value) const;

  /// Keys that were Set but never read by any accessor.
  std::vector<std::string> UnusedKeys() const;

  /// Throws std::invalid_argument listing UnusedKeys() (typo protection;
  /// called by ModelRegistry::Create after the factory consumed the config).
  void CheckAllKeysUsed(const std::string& method) const;

  /// "k1=v1 k2=v2 ..." in key order; empty string for an empty config.
  std::string ToString() const;

  const std::map<std::string, std::string>& entries() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> consumed_;
};

/// Parses a comma-separated step list ("2", "0,2", "inf"); entries must be
/// non-negative integers or "inf" (kInfiniteSteps). Throws
/// std::invalid_argument on anything else. Shared by ModelConfig::GetSteps
/// and the CLI's --steps flag.
std::vector<int> ParseStepsOrThrow(const std::string& text);

/// Everything a method reports from one training run.
struct TrainResult {
  std::string method;       ///< registry key that produced this result
  std::string description;  ///< resolved configuration (GraphModel::Describe)

  Matrix logits;  ///< one row per node of the training graph (n x c)

  double train_micro_f1 = 0.0;
  double val_micro_f1 = 0.0;
  double test_micro_f1 = 0.0;
  double test_macro_f1 = 0.0;

  /// Privacy budget actually spent: (0, 0) for the edge-free MLP, infinity
  /// for the non-private GCN, the configured (epsilon, delta) for the DP
  /// methods.
  double epsilon_spent = 0.0;
  double delta_spent = 0.0;

  double train_seconds = 0.0;  ///< wall clock (common/timer)
};

/// A trainable node-classification method. Implementations are stateful:
/// Train fits the model on (graph, split), after which Predict returns
/// logits. Adapters live in src/model/ and are created through the
/// ModelRegistry; see registry.h.
class GraphModel {
 public:
  virtual ~GraphModel() = default;

  /// Registry key ("gcon", "gcn", ...).
  virtual std::string name() const = 0;

  /// One-line summary of the resolved options (every value an override
  /// could have changed), e.g. "gcn hidden=32 epochs=200 ...".
  virtual std::string Describe() const = 0;

  /// True when the method consumes a privacy budget (reads config keys
  /// "epsilon"/"delta"). False for the non-DP GCN ceiling and the edge-free
  /// MLP floor — benches use this to run those once per seed instead of
  /// once per budget point.
  virtual bool UsesPrivacyBudget() const = 0;

  /// Trains on `graph` using `split` and reports metrics on that split.
  virtual TrainResult Train(const Graph& graph, const Split& split) = 0;

  /// Logits for every node of `graph`; requires a prior Train. Adapters
  /// whose underlying method cannot transfer to a new graph accept only the
  /// training graph (same node count) and abort otherwise.
  virtual Matrix Predict(const Graph& graph) const = 0;

  /// Persists the trained model; returns false when the method has no
  /// serialization format (today GCON publishes its release artifact and
  /// the edge-free MLP persists its network; the other baselines return
  /// false). Implementations throw std::runtime_error naming the path on
  /// I/O failure.
  virtual bool Save(const std::string& path) const;

  /// Loads a model previously written by Save; returns false when
  /// unsupported.
  virtual bool Load(const std::string& path);

  /// The "gcon-model v1" release artifact backing this model, when the
  /// method publishes one and has been trained/loaded; nullptr otherwise.
  /// The serving tier uses this to give registry models the per-query
  /// Eq. (16) path — private edge lists and feature-carrying (inductive)
  /// queries — instead of falling back to precomputed Predict logits.
  /// The pointer stays valid while the model is alive and untrained state
  /// is not re-entered (serving copies the artifact anyway).
  virtual const GconArtifact* ReleaseArtifact() const { return nullptr; }

 protected:
  /// Fills the metric/bookkeeping fields of a TrainResult from logits and
  /// the graph's labels (micro-F1 per split, macro-F1 on test).
  TrainResult MakeResult(const Graph& graph, const Split& split,
                         Matrix logits, double seconds, double epsilon_spent,
                         double delta_spent) const;
};

}  // namespace gcon

#endif  // GCON_MODEL_MODEL_H_
