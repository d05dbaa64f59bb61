#include "model/model.h"

#include <sstream>
#include <stdexcept>

#include "common/string_util.h"
#include "eval/metrics.h"
#include "propagation/appr.h"

namespace gcon {
namespace {

[[noreturn]] void ThrowParse(const std::string& key, const std::string& value,
                             const char* type) {
  throw std::invalid_argument("config key '" + key + "': cannot parse '" +
                              value + "' as " + type);
}

}  // namespace

void ModelConfig::Set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

void ModelConfig::SetFromFlag(const std::string& key_equals_value) {
  const auto eq = key_equals_value.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::invalid_argument("--set expects key=value, got '" +
                                key_equals_value + "'");
  }
  Set(key_equals_value.substr(0, eq), key_equals_value.substr(eq + 1));
}

bool ModelConfig::Has(const std::string& key) const {
  return values_.find(key) != values_.end();
}

std::string ModelConfig::GetString(const std::string& key,
                                   const std::string& default_value) const {
  consumed_.insert(key);
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

int ModelConfig::GetInt(const std::string& key, int default_value) const {
  consumed_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  try {
    std::size_t pos = 0;
    const int v = std::stoi(it->second, &pos);
    if (pos != it->second.size()) ThrowParse(key, it->second, "int");
    return v;
  } catch (const std::invalid_argument&) {
    ThrowParse(key, it->second, "int");
  } catch (const std::out_of_range&) {
    ThrowParse(key, it->second, "int");
  }
}

int ModelConfig::GetIntAtLeast(const std::string& key, int default_value,
                               int min) const {
  const int v = GetInt(key, default_value);
  if (v < min) {
    throw std::invalid_argument("config key '" + key +
                                "': want an integer >= " +
                                std::to_string(min) + ", got " +
                                std::to_string(v));
  }
  return v;
}

double ModelConfig::GetDouble(const std::string& key,
                              double default_value) const {
  consumed_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) ThrowParse(key, it->second, "double");
    return v;
  } catch (const std::invalid_argument&) {
    ThrowParse(key, it->second, "double");
  } catch (const std::out_of_range&) {
    ThrowParse(key, it->second, "double");
  }
}

bool ModelConfig::GetBool(const std::string& key, bool default_value) const {
  consumed_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  ThrowParse(key, v, "bool");
}

std::uint64_t ModelConfig::GetSeed(const std::string& key,
                                   std::uint64_t default_value) const {
  consumed_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  try {
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(it->second, &pos);
    if (pos != it->second.size()) ThrowParse(key, it->second, "seed");
    return static_cast<std::uint64_t>(v);
  } catch (const std::invalid_argument&) {
    ThrowParse(key, it->second, "seed");
  } catch (const std::out_of_range&) {
    ThrowParse(key, it->second, "seed");
  }
}

std::vector<int> ModelConfig::GetSteps(
    const std::string& key, const std::vector<int>& default_value) const {
  consumed_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  return ParseStepsOrThrow(it->second);
}

std::vector<double> ModelConfig::GetDoubleList(
    const std::string& key, const std::vector<double>& default_value) const {
  consumed_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  std::vector<double> out;
  for (const std::string& piece : SplitString(it->second, ',')) {
    try {
      std::size_t pos = 0;
      out.push_back(std::stod(piece, &pos));
      if (pos != piece.size()) ThrowParse(key, it->second, "double list");
    } catch (const std::invalid_argument&) {
      ThrowParse(key, it->second, "double list");
    } catch (const std::out_of_range&) {
      ThrowParse(key, it->second, "double list");
    }
  }
  if (out.empty()) ThrowParse(key, it->second, "double list");
  return out;
}

std::vector<std::string> ModelConfig::UnusedKeys() const {
  std::vector<std::string> unused;
  for (const auto& [key, value] : values_) {
    (void)value;
    if (consumed_.find(key) == consumed_.end()) unused.push_back(key);
  }
  return unused;
}

void ModelConfig::CheckAllKeysUsed(const std::string& method) const {
  const std::vector<std::string> unused = UnusedKeys();
  if (unused.empty()) return;
  throw std::invalid_argument("unknown config key" +
                              std::string(unused.size() > 1 ? "s" : "") +
                              " for method '" + method +
                              "': " + Join(unused, ", "));
}

std::string ModelConfig::ToString() const {
  std::vector<std::string> parts;
  for (const auto& [key, value] : values_) {
    parts.push_back(key + "=" + value);
  }
  return Join(parts, " ");
}

std::vector<int> ParseStepsOrThrow(const std::string& text) {
  std::vector<int> steps;
  for (const std::string& piece : SplitString(text, ',')) {
    if (piece == "inf") {
      steps.push_back(kInfiniteSteps);
      continue;
    }
    int value = 0;
    try {
      std::size_t pos = 0;
      value = std::stoi(piece, &pos);
      if (pos != piece.size()) throw std::invalid_argument(piece);
    } catch (const std::exception&) {
      throw std::invalid_argument("invalid steps entry '" + piece + "' in '" +
                                  text + "' (want integers >= 0 or 'inf')");
    }
    if (value < 0) {
      throw std::invalid_argument("invalid steps entry '" + piece + "' in '" +
                                  text + "' (want integers >= 0 or 'inf')");
    }
    steps.push_back(value);
  }
  if (steps.empty()) {
    throw std::invalid_argument("empty steps list '" + text + "'");
  }
  return steps;
}

bool GraphModel::Save(const std::string& /*path*/) const { return false; }

bool GraphModel::Load(const std::string& /*path*/) { return false; }

TrainResult GraphModel::MakeResult(const Graph& graph, const Split& split,
                                   Matrix logits, double seconds,
                                   double epsilon_spent,
                                   double delta_spent) const {
  TrainResult result;
  result.method = name();
  result.description = Describe();
  const std::vector<int> pred = ArgmaxPredictions(logits);
  const std::vector<int>& labels = graph.labels();
  const int c = graph.num_classes();
  result.train_micro_f1 = MicroF1(pred, labels, split.train, c);
  result.val_micro_f1 = MicroF1(pred, labels, split.val, c);
  result.test_micro_f1 = MicroF1(pred, labels, split.test, c);
  result.test_macro_f1 = MacroF1(pred, labels, split.test, c);
  result.logits = std::move(logits);
  result.train_seconds = seconds;
  result.epsilon_spent = epsilon_spent;
  result.delta_spent = delta_spent;
  return result;
}

}  // namespace gcon
