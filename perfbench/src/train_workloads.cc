// The training workloads: train_table2 (one `gcon_cli train` process per
// Table II dataset, as an operator runs it) and eps_sweep (the Figure 1/4
// privacy-budget sweep in-process over one prepared graph), plus their
// layer profiles for the traced run.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/convex_loss.h"
#include "core/encoder.h"
#include "core/gcon.h"
#include "core/model_io.h"
#include "core/noise.h"
#include "core/objective.h"
#include "core/theorem1.h"
#include "eval/metrics.h"
#include "graph/io.h"
#include "graph/splits.h"
#include "linalg/ops.h"
#include "propagation/appr.h"
#include "propagation/transition.h"
#include "proc.h"
#include "rng/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Stream ids for DeriveSeed.
constexpr std::uint64_t kGraphStream = 100;  // + dataset index
constexpr std::uint64_t kTrainStream = 200;
constexpr std::uint64_t kNoiseStream = 300;
/// Independent draws of the inputs each run sets up and measures over.
constexpr int kSetups = 3;

/// The ε grid of the sweep (Figure 1/4 range), crossed with noise seeds.
const std::vector<double> kSweepEpsilons = {0.5, 1.0, 2.0, 4.0};
/// Test micro-F1 every released sweep model must reach on cora_ml. The
/// synthetic cora_ml has 7 classes (chance ≈ 0.14); measured sweep models
/// score 0.49-0.91 across the grid (the low end at epsilon = 0.5).
constexpr double kSweepF1Floor = 0.30;

/// `gcon_cli train`'s configuration (tools/gcon_cli.cc CmdTrain through
/// the "gcon" registry adapter), mirrored so the in-process replica
/// reproduces the CLI's artifact bit for bit.
gcon::GconConfig CliTrainConfig(std::uint64_t seed) {
  gcon::GconConfig config;
  config.epsilon = 1.0;
  config.alpha = 0.8;
  config.steps = {2};
  config.encoder.hidden = 32;
  config.encoder.out_dim = 16;
  config.expand_train_set = false;
  config.minimize.minimizer = gcon::Minimizer::kLbfgs;
  config.minimize.max_iterations = 500;
  config.minimize.gradient_tolerance = 1e-8;
  config.seed = seed;
  return config;
}

/// The gcon registry adapter's defaults (n1 = n, L-BFGS), the Figure 1/4
/// configuration the sweep runs.
gcon::GconConfig SweepConfig(std::uint64_t seed) {
  gcon::GconConfig config;
  config.alpha = 0.6;
  config.steps = {2};
  config.expand_train_set = true;
  config.minimize.minimizer = gcon::Minimizer::kLbfgs;
  config.minimize.max_iterations = 400;
  config.minimize.gradient_tolerance = 1e-8;
  config.seed = seed;
  return config;
}

/// `gcon_cli train`'s planetoid split (tools/gcon_cli.cc MakeCliSplit).
gcon::Split CliSplit(const gcon::Graph& graph, std::uint64_t seed) {
  gcon::Rng rng(seed);
  return gcon::PlanetoidSplit(graph, 20, std::max(20, graph.num_nodes() / 10),
                              std::max(40, graph.num_nodes() / 5), &rng);
}

/// The paper's delta convention the adapter resolves "auto" to.
double AutoDelta(const gcon::Graph& graph) {
  return 1.0 / static_cast<double>(2 * graph.num_edges());
}

/// Same shape and the same bytes.
bool SameMatrix(const gcon::Matrix& a, const gcon::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

/// Times `f` under a span; returns seconds.
template <typename F>
double Timed(SpanRecorder* spans, const std::string& name, std::uint64_t id,
             F&& f) {
  ScopedSpan span(spans, name, id);
  return TimeIt(std::forward<F>(f));
}

/// LoadModel -> SaveModel must reproduce the artifact file byte for byte.
bool RoundTrips(const std::string& model_path) {
  const std::string copy = model_path + ".roundtrip";
  gcon::SaveModel(gcon::LoadModel(model_path), copy);
  const bool same = ReadFile(copy) == ReadFile(model_path);
  std::filesystem::remove(copy);
  return same;
}

/// Layer timings of one replayed training.
struct ReplicaTimes {
  double load_s = 0, encoder_s = 0, transition_s = 0, appr_s = 0;
  double minimize_s = 0, save_s = 0;
  double encoder_flops = 0;
  int minimize_iters = 0;
  double gradient_norm = 0;
  bool converged = false;  ///< stopped at or below the gradient tolerance
};

/// Replays `gcon_cli train` in-process through the layers' public
/// functions (one span per call) and checks the CLI's artifact: the replay
/// must write the same bytes. The artifact does not record how its
/// minimizer ended, so the replay is also where convergence is read.
ReplicaTimes ReplayCliTraining(Context* ctx, SpanRecorder* spans,
                               const std::string& graph_path,
                               const std::string& model_path,
                               std::uint64_t seed, std::uint64_t id) {
  ReplicaTimes t;
  ScopedSpan root(spans, "train.replay", id);
  gcon::GconConfig config = CliTrainConfig(seed);
  gcon::Graph graph;
  t.load_s = Timed(spans, "graph.LoadGraph", id,
                   [&] { graph = gcon::LoadGraph(graph_path); });
  config.delta = AutoDelta(graph);
  const gcon::Split split = CliSplit(graph, seed);

  gcon::EncoderOptions encoder_options = config.encoder;
  encoder_options.seed = config.seed;
  std::optional<gcon::EncodedFeatures> encoded;
  const double flops_before = GemmFlopsSoFar();
  t.encoder_s = Timed(spans, "core.TrainEncoder", id, [&] {
    encoded.emplace(gcon::TrainEncoder(graph, split, encoder_options));
  });
  t.encoder_flops = GemmFlopsSoFar() - flops_before;

  gcon::CsrMatrix transition;
  t.transition_s = Timed(spans, "propagation.BuildTransition", id,
                         [&] { transition = gcon::BuildTransition(graph); });
  gcon::Matrix normalized = encoded->features;
  gcon::RowL2NormalizeInPlace(&normalized);
  gcon::Matrix z;
  t.appr_s = Timed(spans, "propagation.ConcatPropagate", id, [&] {
    z = gcon::ConcatPropagate(transition, normalized, config.steps,
                              config.alpha);
  });

  std::optional<gcon::GconPrepared> prepared_slot;
  Timed(spans, "core.PrepareGconFromEncoded", id, [&] {
    prepared_slot.emplace(
        gcon::PrepareGconFromEncoded(graph, split, config, *encoded));
  });
  const gcon::GconPrepared& prepared = *prepared_slot;
  if (!SameMatrix(prepared.z, z)) {
    ctx->report.CheckFailed("propagated features differ between "
                            "ConcatPropagate and the cached path");
  }

  const gcon::ConvexLoss loss =
      gcon::ConvexLoss::MultiLabelSoftMargin(prepared.num_classes);
  gcon::PrivacyInputs inputs;
  inputs.epsilon = config.epsilon;
  inputs.delta = config.delta;
  inputs.omega = config.omega;
  inputs.lambda = config.lambda;
  inputs.n1 = static_cast<int>(prepared.train_nodes.size());
  inputs.num_classes = prepared.num_classes;
  inputs.dim = static_cast<int>(prepared.z.cols());
  inputs.psi_z = prepared.psi_z;
  gcon::GconModel model;
  Timed(spans, "core.ComputePrivacyParams", id,
        [&] { model.params = gcon::ComputePrivacyParams(inputs, loss); });
  gcon::Rng rng(config.seed + 0x5eed);
  gcon::Matrix noise;
  Timed(spans, "core.SampleNoiseMatrix", id, [&] {
    noise = gcon::SampleNoiseMatrix(
        inputs.dim, inputs.num_classes,
        model.params.zero_noise ? 0.0 : model.params.beta, &rng);
  });
  const gcon::PerturbedObjective objective(&prepared.z_train,
                                           &prepared.y_train, &loss,
                                           model.params.lambda_total(), &noise);
  t.minimize_s = Timed(spans, "core.Minimize", id, [&] {
    model.opt = gcon::Minimize(objective, config.minimize);
  });
  t.minimize_iters = model.opt.iterations;
  model.theta = model.opt.theta;

  const std::string replay_path = model_path + ".replay";
  t.save_s = Timed(spans, "core.SaveModel", id, [&] {
    gcon::SaveModel(gcon::MakeArtifact(prepared, model, inputs.epsilon,
                                       inputs.delta),
                    replay_path);
  });
  if (ReadFile(replay_path) != ReadFile(model_path)) {
    ctx->report.CheckFailed("in-process replay of `gcon_cli train` on " +
                            graph_path + " wrote a different artifact");
  }
  std::filesystem::remove(replay_path);
  t.gradient_norm = model.opt.gradient_norm;
  t.converged =
      model.opt.gradient_norm <= config.minimize.gradient_tolerance;
  return t;
}

// ------------------------------------------------------------ train_table2

/// One draw of the four Table II graphs.
struct TableGraphs {
  std::string dir;
  std::vector<std::string> graphs;  ///< one per kTable2Datasets entry
  std::vector<std::uint64_t> train_seeds;
};

/// Draw `draw` of the Table II graphs (`gcon_cli generate`).
TableGraphs SetUpTable(Context* ctx, const std::string& name, int draw) {
  TableGraphs t;
  t.dir = MakeDir(*ctx, name);
  const std::uint64_t base = 1000 * static_cast<std::uint64_t>(draw);
  for (std::size_t i = 0; i < kTable2Datasets.size(); ++i) {
    const std::string& ds = kTable2Datasets[i];
    SetPhase("setup: gcon_cli generate " + ds);
    t.graphs.push_back(t.dir + "/" + ds + ".graph");
    CliGenerate(*ctx, ds, DeriveSeed(ctx->seed, base + kGraphStream + i),
                t.graphs.back());
    t.train_seeds.push_back(DeriveSeed(ctx->seed, base + kTrainStream + i));
  }
  return t;
}

/// Runs whole Table II passes, cycling over the graph draws, until
/// `seconds` have elapsed; returns the per-dataset process wall times
/// (seconds). Every artifact must round-trip through LoadModel, and a draw
/// trained twice must give the same bytes.
std::vector<std::vector<double>> TrainPasses(
    Context* ctx, const std::vector<TableGraphs>& tables, double seconds,
    SpanRecorder* spans) {
  std::vector<std::vector<double>> times(kTable2Datasets.size());
  std::map<std::string, std::string> first_bytes;
  const Clock::time_point start = Clock::now();
  std::uint64_t pass = 0;
  do {
    const TableGraphs& table = tables[pass % tables.size()];
    ScopedSpan pass_span(spans, "train.pass", pass);
    for (std::size_t i = 0; i < kTable2Datasets.size(); ++i) {
      const std::string& ds = kTable2Datasets[i];
      SetPhase("measure: gcon_cli train " + ds);
      const std::string model = table.dir + "/" + ds + ".model";
      double secs = 0;
      try {
        ScopedSpan span(spans, "cli.train", pass);
        secs = CliTrain(*ctx, table.graphs[i], model, table.train_seeds[i]);
      } catch (const std::exception& e) {
        ctx->report.outcomes().Add(Outcome::kFailed);
        ctx->report.CheckFailed(e.what());
        continue;
      }
      SetPhase("check: artifact " + ds);
      const std::string bytes = ReadFile(model);
      const auto [first, inserted] = first_bytes.emplace(model, bytes);
      const bool ok = RoundTrips(model) && first->second == bytes;
      ctx->report.outcomes().Add(ok ? Outcome::kOk : Outcome::kWrongBits);
      if (!ok) {
        ctx->report.CheckFailed(ds + " artifact does not round-trip through "
                                     "LoadModel or differs between passes");
      }
      times[i].push_back(secs);
    }
    ++pass;
  } while (MicrosBetween(start, Clock::now()) < seconds * 1e6);
  return times;
}

/// Σ over datasets of the median process time, in ms: the time one Table
/// II pass takes.
double PassMs(const std::vector<std::vector<double>>& times) {
  double ms = 0;
  for (const std::vector<double>& t : times) {
    if (t.empty()) throw std::runtime_error("a dataset never trained");
    ms += 1e3 * Median(t);
  }
  return ms;
}

// --------------------------------------------------------------- eps_sweep

struct SweepSetup {
  gcon::Graph graph;
  gcon::Split split;
  std::optional<gcon::GconPrepared> prepared;
  double delta = 0;
};

/// Draw `draw` of the sweep's cora_ml graph, prepared (encoder, propagation)
/// once for every ε.
SweepSetup SetUpSweep(Context* ctx, const std::string& name, int draw) {
  SweepSetup s;
  const std::string dir = MakeDir(*ctx, name);
  const std::uint64_t base = 1000 * static_cast<std::uint64_t>(draw);
  SetPhase("setup: gcon_cli generate cora_ml");
  CliGenerate(*ctx, "cora_ml", DeriveSeed(ctx->seed, base + kGraphStream),
              dir + "/cora_ml.graph");
  SetPhase("setup: PrepareGcon");
  s.graph = gcon::LoadGraph(dir + "/cora_ml.graph");
  const std::uint64_t seed = DeriveSeed(ctx->seed, base + kTrainStream);
  s.split = CliSplit(s.graph, seed);
  s.prepared.emplace(gcon::PrepareGcon(s.graph, s.split, SweepConfig(seed)));
  s.delta = AutoDelta(s.graph);
  return s;
}

/// One released sweep model: TrainPrepared, PrivateInference, test F1.
/// Returns its wall time in ms and counts its outcome. A model whose
/// minimizer stopped above tolerance is counted in *unconverged (reported,
/// not failed: the sweep's check is the F1 floor).
double SweepModel(Context* ctx, const SweepSetup& s, double epsilon,
                  std::uint64_t noise_seed, int* unconverged) {
  double f1 = 0;
  gcon::GconModel model;
  const double secs = TimeIt([&] {
    model = gcon::TrainPrepared(*s.prepared, epsilon, s.delta, noise_seed);
    const gcon::Matrix logits = gcon::PrivateInference(*s.prepared, model);
    f1 = gcon::MicroF1FromLogits(logits, s.graph.labels(), s.split.test,
                                 s.graph.num_classes());
  });
  if (!(model.opt.gradient_norm <=
        s.prepared->config.minimize.gradient_tolerance)) {
    ++*unconverged;
  }
  const bool ok = f1 >= kSweepF1Floor;
  ctx->report.outcomes().Add(ok ? Outcome::kOk : Outcome::kWrongBits);
  if (!ok) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "sweep model at epsilon %g: test micro-F1 %.4f below the "
                  "floor %.2f",
                  epsilon, f1, kSweepF1Floor);
    ctx->report.CheckFailed(buf);
  }
  return 1e3 * secs;
}

/// Whole ε-grid cycles, rotating over the prepared graphs, until `seconds`
/// have elapsed; per-model ms.
std::vector<double> SweepCycles(Context* ctx,
                                const std::vector<SweepSetup>& setups,
                                double seconds, SpanRecorder* spans,
                                std::uint64_t* cycle, int* unconverged) {
  SetPhase("measure: epsilon sweep");
  std::vector<double> ms;
  const Clock::time_point start = Clock::now();
  do {
    const SweepSetup& s = setups[*cycle % setups.size()];
    for (const double epsilon : kSweepEpsilons) {
      ScopedSpan span(spans, "sweep.model", *cycle);
      ms.push_back(SweepModel(ctx, s, epsilon,
                              DeriveSeed(ctx->seed, kNoiseStream + *cycle),
                              unconverged));
    }
    ++*cycle;
  } while (MicrosBetween(start, Clock::now()) < seconds * 1e6);
  return ms;
}

/// Sets up kSetups independent draws of the inputs (reporting the median
/// set-up time as setup_s) and keeps them all: the measurement then rotates
/// over the draws, so no single draw of the inputs decides the result.
template <typename T, typename F>
std::vector<T> RepeatedSetup(Context* ctx, F&& setup) {
  std::vector<double> secs;
  std::vector<T> kept;
  for (int r = 0; r < kSetups; ++r) {
    secs.push_back(TimeIt([&] {
      kept.push_back(setup("setup" + std::to_string(r), r));
    }));
  }
  ctx->report.Metric("setup_s", Median(secs), "s");
  return kept;
}

}  // namespace

void RunTrainTable2(Context* ctx) {
  if (ctx->trace) {
    const std::vector<TableGraphs> tables = {SetUpTable(ctx, "setup0", 0)};
    SpanRecorder off(false, Clock::now());
    SpanRecorder on(true, Clock::now());
    const double untraced =
        PassMs(TrainPasses(ctx, tables, ctx->seconds / 2, &off));
    const double traced =
        PassMs(TrainPasses(ctx, tables, ctx->seconds / 2, &on));
    ReportTraceOverhead(ctx, untraced, traced);
    return;
  }
  const std::vector<TableGraphs> tables = RepeatedSetup<TableGraphs>(
      ctx, [&](const std::string& name, int draw) {
        return SetUpTable(ctx, name, draw);
      });
  SpanRecorder off(false, Clock::now());
  const std::vector<std::vector<double>> times =
      TrainPasses(ctx, tables, ctx->seconds, &off);
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (times[i].empty()) continue;
    ctx->report.Metric("train_s." + kTable2Datasets[i], Median(times[i]), "s");
  }
  const double pass_ms = PassMs(times);
  ctx->report.Metric("op_ms", pass_ms, "ms");
  // One training at a time: throughput is trainings per second of a pass
  // made of median-time trainings.
  ctx->report.Metric("ops_per_s",
                     1e3 * static_cast<double>(kTable2Datasets.size()) /
                         pass_ms,
                     "1/s");

  // The replay check runs after the measured window, on the first draw
  // (trained in the first pass). Artifacts whose minimizer stopped above
  // its tolerance are counted, not failed: `gcon_cli train` releases them
  // today without a convergence check.
  const TableGraphs& table = tables.front();
  int unconverged = 0;
  double max_gradient = 0;
  for (std::size_t i = 0; i < kTable2Datasets.size(); ++i) {
    SetPhase("check: replay gcon_cli train " + kTable2Datasets[i]);
    const ReplicaTimes t = ReplayCliTraining(
        ctx, &off, table.graphs[i],
        table.dir + "/" + kTable2Datasets[i] + ".model", table.train_seeds[i],
        i + 1);
    unconverged += t.converged ? 0 : 1;
    max_gradient = std::max(max_gradient, t.gradient_norm);
  }
  ctx->report.Metric("train.unconverged", unconverged, "count");
  ctx->report.Metric("train.max_gradient_norm", max_gradient, "1");
}

void RunEpsSweep(Context* ctx) {
  std::uint64_t cycle = 0;
  int unconverged = 0;
  if (ctx->trace) {
    std::vector<SweepSetup> setups;
    setups.push_back(SetUpSweep(ctx, "setup0", 0));
    SpanRecorder off(false, Clock::now());
    SpanRecorder on(true, Clock::now());
    const double untraced = Median(SweepCycles(
        ctx, setups, ctx->seconds / 2, &off, &cycle, &unconverged));
    const double traced = Median(SweepCycles(
        ctx, setups, ctx->seconds / 2, &on, &cycle, &unconverged));
    ReportTraceOverhead(ctx, untraced, traced);
    return;
  }
  const std::vector<SweepSetup> setups = RepeatedSetup<SweepSetup>(
      ctx, [&](const std::string& name, int draw) {
        return SetUpSweep(ctx, name, draw);
      });
  SpanRecorder off(false, Clock::now());
  const std::vector<double> ms =
      SweepCycles(ctx, setups, ctx->seconds, &off, &cycle, &unconverged);
  const double median_ms = Median(ms);
  ctx->report.Metric("sweep_model_ms", median_ms, "ms");
  ctx->report.Metric("op_ms", median_ms, "ms");
  // One model at a time: throughput is the reciprocal of the median model
  // time. (The mean would be ruled by the rare stalled minimizer runs,
  // which are reported separately.)
  ctx->report.Metric("ops_per_s", 1e3 / median_ms, "1/s");
  ctx->report.Metric("sweep.models", static_cast<double>(ms.size()), "count");
  ctx->report.Metric("sweep.unconverged", unconverged, "count");
  ctx->report.Metric("sweep.max_model_ms", *std::max_element(ms.begin(),
                                                              ms.end()),
                     "ms");
}

void ProfileTraining(Context* ctx, SpanRecorder* spans) {
  const TableGraphs table = SetUpTable(ctx, "profile_train", 0);
  for (std::size_t i = 0; i < kTable2Datasets.size(); ++i) {
    const std::string& ds = kTable2Datasets[i];
    const std::string model = table.dir + "/" + ds + ".model";
    const std::uint64_t seed = table.train_seeds[i];
    const std::uint64_t id = 1000 + i;
    SetPhase("trace: gcon_cli train " + ds);
    double cli_s = 0;
    {
      ScopedSpan span(spans, "cli.train", id);
      cli_s = CliTrain(*ctx, table.graphs[i], model, seed);
    }
    SetPhase("trace: replay gcon_cli train " + ds);
    const ReplicaTimes t =
        ReplayCliTraining(ctx, spans, table.graphs[i], model, seed, id);
    ctx->report.Metric("cli.train_s." + ds, cli_s, "s");
    ctx->report.Metric("graph.load_ms." + ds, 1e3 * t.load_s, "ms");
    ctx->report.Metric("core.encoder_ms." + ds, 1e3 * t.encoder_s, "ms");
    ctx->report.Metric("linalg.gemm_gflop." + ds, t.encoder_flops * 1e-9,
                       "Gflop");
    ctx->report.Metric("linalg.encoder_gflops." + ds,
                       t.encoder_flops * 1e-9 / t.encoder_s, "Gflop/s");
    ctx->report.Metric("propagation.transition_ms." + ds,
                       1e3 * t.transition_s, "ms");
    ctx->report.Metric("propagation.appr_ms." + ds, 1e3 * t.appr_s, "ms");
    ctx->report.Metric("core.minimize_ms." + ds, 1e3 * t.minimize_s, "ms");
    ctx->report.Metric("core.minimize_iters." + ds, t.minimize_iters, "count");
    ctx->report.Metric("core.save_ms." + ds, 1e3 * t.save_s, "ms");
  }
}

void ProfileSweep(Context* ctx, SpanRecorder* spans) {
  const SweepSetup s = SetUpSweep(ctx, "profile_sweep", 0);
  SetPhase("trace: epsilon sweep layers");
  const gcon::GconConfig& config = s.prepared->config;
  const gcon::ConvexLoss loss =
      gcon::ConvexLoss::MultiLabelSoftMargin(s.prepared->num_classes);
  std::vector<double> theorem_us, noise_us, minimize_ms, iters, infer_ms,
      gflop;
  const int cycles = 2;
  for (int c = 0; c < cycles; ++c) {
    for (const double epsilon : kSweepEpsilons) {
      const std::uint64_t noise_seed = DeriveSeed(ctx->seed, kNoiseStream + c);
      const std::uint64_t id = 2000 + theorem_us.size();
      ScopedSpan root(spans, "sweep.model", id);
      const double flops_before = GemmFlopsSoFar();
      gcon::PrivacyInputs inputs;
      inputs.epsilon = epsilon;
      inputs.delta = s.delta;
      inputs.omega = config.omega;
      inputs.lambda = config.lambda;
      inputs.n1 = static_cast<int>(s.prepared->train_nodes.size());
      inputs.num_classes = s.prepared->num_classes;
      inputs.dim = static_cast<int>(s.prepared->z.cols());
      inputs.psi_z = s.prepared->psi_z;
      gcon::GconModel model;
      theorem_us.push_back(1e6 * Timed(spans, "core.ComputePrivacyParams", id,
                                       [&] {
        model.params = gcon::ComputePrivacyParams(inputs, loss);
      }));
      gcon::Rng rng(noise_seed);
      gcon::Matrix noise;
      noise_us.push_back(1e6 * Timed(spans, "core.SampleNoiseMatrix", id, [&] {
        noise = gcon::SampleNoiseMatrix(
            inputs.dim, inputs.num_classes,
            model.params.zero_noise ? 0.0 : model.params.beta, &rng);
      }));
      const gcon::PerturbedObjective objective(
          &s.prepared->z_train, &s.prepared->y_train, &loss,
          model.params.lambda_total(), &noise);
      minimize_ms.push_back(1e3 * Timed(spans, "core.Minimize", id, [&] {
        model.opt = gcon::Minimize(objective, config.minimize);
      }));
      iters.push_back(model.opt.iterations);
      model.theta = model.opt.theta;
      gcon::Matrix logits;
      infer_ms.push_back(1e3 * Timed(spans, "core.PrivateInference", id, [&] {
        logits = gcon::PrivateInference(*s.prepared, model);
      }));
      gflop.push_back((GemmFlopsSoFar() - flops_before) * 1e-9);
      if (theorem_us.size() == 1) {
        // The decomposition must be TrainPrepared, call for call.
        const gcon::GconModel whole =
            gcon::TrainPrepared(*s.prepared, epsilon, s.delta, noise_seed);
        if (!SameMatrix(whole.theta, model.theta)) {
          ctx->report.CheckFailed("sweep decomposition differs from "
                                  "TrainPrepared");
        }
      }
    }
  }
  ctx->report.Metric("core.theorem1_us", Median(theorem_us), "us");
  ctx->report.Metric("core.noise_us", Median(noise_us), "us");
  ctx->report.Metric("core.minimize_ms.sweep", Median(minimize_ms), "ms");
  ctx->report.Metric("core.minimize_iters.sweep", Median(iters), "count");
  ctx->report.Metric("core.private_inference_ms", Median(infer_ms), "ms");
  ctx->report.Metric("linalg.gemm_gflop.sweep", Median(gflop), "Gflop");
}

}  // namespace perfbench
