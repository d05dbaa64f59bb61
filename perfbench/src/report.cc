// Report, phase tracking and the gcon_cli helpers shared by the workloads.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"
#include "proc.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::mutex g_phase_mu;
std::string g_phase = "start";

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const std::vector<std::string> kTable2Datasets = {"cora_ml", "citeseer",
                                                  "pubmed", "actor"};

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Absent(name, "not finite");
    return;
  }
  metrics_[name] = Entry{value, unit};
}

void Report::Note(const std::string& key, const std::string& value) {
  for (auto& note : notes_) {
    if (note.first == key) {
      note.second = value;
      return;
    }
  }
  notes_.emplace_back(key, value);
}

void Report::Absent(const std::string& name, const std::string& reason) {
  absent_.emplace_back(name, reason);
}

void Report::CheckFailed(const std::string& what) {
  std::cerr << "perfbench: CHECK FAILED in phase '" << CurrentPhase()
            << "': " << what << std::endl;
  check_failures_.push_back(CurrentPhase() + ": " + what);
}

void Report::Print(const std::string& workload, bool trace) const {
  std::cout << "workload " << workload << (trace ? " (traced run)" : "")
            << "\n";
  for (const auto& [key, value] : notes_) {
    std::cout << "env " << key << " = " << value << "\n";
  }
  for (const auto& [name, entry] : metrics_) {
    std::cout << "metric " << name << " = " << Number(entry.value) << " "
              << entry.unit << "\n";
  }
  for (const auto& [name, reason] : absent_) {
    std::cout << "absent " << name << ": " << reason << "\n";
  }
  std::cout << "operations attempted " << outcomes_.attempted() << ", ok "
            << outcomes_.ok() << ", refused " << outcomes_.refused()
            << ", wrong bits " << outcomes_.wrong_bits() << ", failed "
            << outcomes_.failed() << "; error_rate " << outcomes_.ErrorRate()
            << "\n";
  for (const std::string& failure : check_failures_) {
    std::cout << "check failed: " << failure << "\n";
  }

  std::ostringstream json;
  json << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << outcomes_.attempted()
       << ", \"failed\": " << outcomes_.errors() + check_failures_.size()
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    json << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
         << Number(entry.value) << ", \"unit\": " << JsonString(entry.unit)
         << "}";
    first = false;
  }
  json << "}, \"env\": {";
  first = true;
  for (const auto& [key, value] : notes_) {
    json << (first ? "" : ", ") << JsonString(key) << ": " << JsonString(value);
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

void SetPhase(const std::string& phase) {
  std::lock_guard<std::mutex> lock(g_phase_mu);
  g_phase = phase;
}

std::string CurrentPhase() {
  std::lock_guard<std::mutex> lock(g_phase_mu);
  return g_phase;
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return 1 + z % 2000000000ull;  // gcon_cli parses --seed as an int
}

std::string MakeDir(const Context& ctx, const std::string& name) {
  const std::string dir = ctx.work_dir + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void CliGenerate(const Context& ctx, const std::string& dataset,
                 std::uint64_t seed, const std::string& out) {
  RunChecked({ctx.cli, "generate", "--dataset=" + dataset, "--scale=1",
              "--seed=" + std::to_string(seed), "--out=" + out},
             120.0, out + ".generate");
}

double CliTrain(const Context& ctx, const std::string& graph,
                const std::string& model, std::uint64_t seed) {
  return TimeIt([&] {
    RunChecked({ctx.cli, "train", "--graph=" + graph, "--model=" + model,
                "--epsilon=1", "--seed=" + std::to_string(seed)},
               120.0, model + ".train");
  });
}

double PrometheusSum(const std::string& text, const std::string& family) {
  double sum = 0.0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(family, 0) != 0) continue;
    const char next = line.size() > family.size() ? line[family.size()] : ' ';
    if (next != '{' && next != ' ') continue;  // a longer family name
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    sum += std::strtod(line.c_str() + space + 1, nullptr);
  }
  return sum;
}

double GemmFlopsSoFar() {
  return PrometheusSum(gcon::obs::MetricsRegistry::Global().PrometheusText(),
                       "gcon_gemm_flops_total");
}

double JsonNumber(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return std::numeric_limits<double>::quiet_NaN();
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

std::string JsonObject(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": {";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  int depth = 0;
  for (std::size_t i = at + needle.size() - 1; i < json.size(); ++i) {
    if (json[i] == '{') ++depth;
    if (json[i] == '}' && --depth == 0) {
      return json.substr(at + needle.size() - 1, i - (at + needle.size()) + 2);
    }
  }
  return "";
}

void ReportTraceOverhead(Context* ctx, double untraced, double traced) {
  ctx->report.Metric("trace.untraced_op", untraced, "ms");
  ctx->report.Metric("trace.traced_op", traced, "ms");
  ctx->report.Metric("trace.overhead_pct",
                     100.0 * (traced - untraced) / untraced, "%");
}

}  // namespace perfbench
