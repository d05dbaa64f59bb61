// Shared plumbing of the benchmark's load program: the run context, the
// report every workload fills, and the helpers that drive `gcon_cli`.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_math.h"

namespace perfbench {

/// Every metric a run produced, end-to-end and per-layer alike; run.py
/// selects the ones BENCHMARK.json declares for the mode.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Environment stamp and labels (git sha, build info, nproc, ...).
  void Note(const std::string& key, const std::string& value);
  /// A metric that could not be measured, with the reason.
  void Absent(const std::string& name, const std::string& reason);
  OutcomeCounts& outcomes() { return outcomes_; }
  /// Any correctness check failing, beyond the counted operations.
  void CheckFailed(const std::string& what);
  bool correct() const {
    return outcomes_.errors() == 0 && check_failures_.empty();
  }
  /// Human-readable lines, then one JSON line with everything.
  void Print(const std::string& workload, bool trace) const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::pair<std::string, std::string>> absent_;
  std::vector<std::string> check_failures_;
  OutcomeCounts outcomes_;
};

struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;       ///< absolute path of gcon_cli
  std::string work_dir;  ///< per-run scratch directory (absolute)
  Report report;
};

/// Names the phase a failure is reported against.
void SetPhase(const std::string& phase);
std::string CurrentPhase();

/// A seed for stream `stream` of the workload seed (splitmix64), folded to
/// a positive value every `gcon_cli --seed` accepts.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream);

/// Fresh subdirectory of the run's scratch directory.
std::string MakeDir(const Context& ctx, const std::string& name);

/// `gcon_cli generate` of `dataset` at scale 1.
void CliGenerate(const Context& ctx, const std::string& dataset,
                 std::uint64_t seed, const std::string& out);
/// `gcon_cli train --epsilon 1`; returns its wall time in seconds.
double CliTrain(const Context& ctx, const std::string& graph,
                const std::string& model, std::uint64_t seed);

/// Sum of every series of a Prometheus counter family in `text`.
double PrometheusSum(const std::string& text, const std::string& family);
/// Process-wide GEMM flop counter (gcon_gemm_flops_total) of this process.
double GemmFlopsSoFar();
/// Numeric field `"key": value` of a flat JSON document; NaN when absent.
double JsonNumber(const std::string& json, const std::string& key);
/// Object value `"key": {...}` of a JSON document ("" when absent).
std::string JsonObject(const std::string& json, const std::string& key);

/// Elapsed seconds of `f()`.
template <typename F>
double TimeIt(F&& f) {
  const Clock::time_point start = Clock::now();
  f();
  return MicrosBetween(start, Clock::now()) * 1e-6;
}

/// The four Table II datasets, in the order every pass trains them.
extern const std::vector<std::string> kTable2Datasets;

/// Workload entry points. Untraced runs fill the end-to-end metrics;
/// traced runs measure the workload's operation with and without spans
/// (tracing overhead) and then profile every layer.
void RunTrainTable2(Context* ctx);
void RunEpsSweep(Context* ctx);
void RunServeNode(Context* ctx);
void RunServeInductive(Context* ctx);

/// Layer profiles of the traced run; each records spans into `spans`.
void ProfileTraining(Context* ctx, SpanRecorder* spans);
void ProfileSweep(Context* ctx, SpanRecorder* spans);
void ProfileServeNode(Context* ctx, SpanRecorder* spans);
void ProfileServeInductive(Context* ctx, SpanRecorder* spans);

/// Reports tracing overhead from an untraced and a traced measurement of
/// the same operation (lower is better for both values).
void ReportTraceOverhead(Context* ctx, double untraced, double traced);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
