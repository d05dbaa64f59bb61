#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "comma_locale.h"
#include "core/gcon.h"
#include "core/model_io.h"
#include "eval/metrics.h"
#include "graph/datasets.h"
#include "linalg/ops.h"
#include "model/adapters.h"
#include "nn/mlp_io.h"
#include "rng/rng.h"

namespace gcon {
namespace {

TEST(MlpIo, RoundTripPreservesWeightsAndPredictions) {
  MlpOptions options;
  options.dims = {5, 7, 3};
  options.hidden_activation = Activation::kTanh;
  options.seed = 3;
  Mlp original(options);

  std::stringstream stream;
  SaveMlp(original, &stream);
  Mlp loaded = LoadMlp(&stream);

  EXPECT_EQ(loaded.num_layers(), original.num_layers());
  for (int l = 0; l < original.num_layers(); ++l) {
    EXPECT_TRUE(loaded.weight(l).AllClose(original.weight(l), 1e-15));
    EXPECT_TRUE(loaded.bias(l).AllClose(original.bias(l), 1e-15));
  }
  Rng rng(4);
  Matrix x(6, 5);
  for (std::size_t k = 0; k < x.size(); ++k) {
    x.data()[k] = rng.Uniform(-1.0, 1.0);
  }
  EXPECT_TRUE(loaded.Forward(x).AllClose(original.Forward(x), 1e-12));
}

TEST(MlpIo, MatrixRowsMatchTheStreamForm) {
  // The artifact writer's bytes must equal `ostream << setprecision(17)`,
  // the form artifacts were written in before, over every class of double.
  const double inf = std::numeric_limits<double>::infinity();
  const double values[] = {0.0,
                           -0.0,
                           4.9406564584124654e-324,
                           -2.2250738585072009e-308,
                           2.2250738585072014e-308,
                           1e300,
                           -1e300,
                           1e-300,
                           -1e-300,
                           1.0,
                           -7.0,
                           123456789.0,
                           1e16,
                           1e17,
                           0.1,
                           1.0 / 3.0,
                           -12345678901234567.0,
                           0.12345678901234568,
                           inf,
                           -inf,
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN()};
  const std::size_t count = sizeof(values) / sizeof(values[0]);
  for (std::size_t cols : {std::size_t{1}, std::size_t{3}, count}) {
    Matrix m(count, cols);
    for (std::size_t k = 0; k < m.size(); ++k) m.data()[k] = values[k % count];
    std::ostringstream stream;
    stream << std::setprecision(17);
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) {
        stream << m(i, j) << (j + 1 == m.cols() ? "" : " ");
      }
      stream << "\n";
    }
    std::string text = "prefix ";
    AppendMatrixRows(m, &text);
    EXPECT_EQ(text, "prefix " + stream.str());
  }
}

TEST(MlpIo, PreservesActivation) {
  for (Activation act : {Activation::kRelu, Activation::kSigmoid,
                         Activation::kIdentity}) {
    MlpOptions options;
    options.dims = {2, 3, 2};
    options.hidden_activation = act;
    Mlp original(options);
    std::stringstream stream;
    SaveMlp(original, &stream);
    Mlp loaded = LoadMlp(&stream);
    EXPECT_EQ(loaded.options().hidden_activation, act);
  }
}

struct Trained {
  Graph graph;
  Split split;
  GconPrepared prepared;
  GconModel model;
};

Trained TrainSmall() {
  const DatasetSpec spec = TinySpec();
  Rng rng(9);
  Graph graph = GenerateDataset(spec, &rng);
  Split split = MakeSplit(spec, graph, &rng);
  GconConfig config;
  config.alpha = 0.7;
  config.steps = {0, 2};
  config.encoder.hidden = 16;
  config.encoder.out_dim = 8;
  config.encoder.epochs = 100;
  config.minimize.max_iterations = 1200;
  config.seed = 11;
  GconPrepared prepared = PrepareGcon(graph, split, config);
  GconModel model = TrainPrepared(prepared, 2.0, 1e-4, 13);
  return Trained{std::move(graph), std::move(split), std::move(prepared),
                 std::move(model)};
}

TEST(ModelIo, ArtifactInferMatchesPipelineInference) {
  const Trained t = TrainSmall();
  const GconArtifact artifact = MakeArtifact(t.prepared, t.model, 2.0, 1e-4);
  const Matrix direct = PrivateInference(t.prepared, t.model);
  const Matrix via_artifact = artifact.Infer(t.graph);
  EXPECT_TRUE(via_artifact.AllClose(direct, 1e-9));
}

TEST(ModelIo, SaveLoadRoundTrip) {
  const Trained t = TrainSmall();
  const GconArtifact artifact = MakeArtifact(t.prepared, t.model, 2.0, 1e-4);
  const std::string path = "/tmp/gcon_model_io_test.model";
  SaveModel(artifact, path);
  const GconArtifact loaded = LoadModel(path);
  std::remove(path.c_str());

  EXPECT_TRUE(loaded.theta.AllClose(artifact.theta, 1e-12));
  EXPECT_EQ(loaded.steps, artifact.steps);
  EXPECT_DOUBLE_EQ(loaded.alpha, artifact.alpha);
  EXPECT_DOUBLE_EQ(loaded.epsilon, 2.0);
  EXPECT_DOUBLE_EQ(loaded.delta, 1e-4);
  EXPECT_NEAR(loaded.params.beta, artifact.params.beta, 1e-12);

  const Matrix before = artifact.Infer(t.graph);
  const Matrix after = loaded.Infer(t.graph);
  EXPECT_TRUE(after.AllClose(before, 1e-9));
}

TEST(ModelIo, LoadedModelServesNewGraph) {
  const Trained t = TrainSmall();
  const GconArtifact artifact = MakeArtifact(t.prepared, t.model, 2.0, 1e-4);
  const std::string path = "/tmp/gcon_model_io_test2.model";
  SaveModel(artifact, path);
  const GconArtifact loaded = LoadModel(path);
  std::remove(path.c_str());

  Rng rng(77);
  const Graph other = GenerateDataset(TinySpec(), &rng);
  const Matrix logits = loaded.Infer(other);
  EXPECT_EQ(logits.rows(), static_cast<std::size_t>(other.num_nodes()));
  std::vector<int> all;
  for (int v = 0; v < other.num_nodes(); ++v) all.push_back(v);
  EXPECT_GT(MicroF1FromLogits(logits, other.labels(), all,
                              other.num_classes()),
            1.0 / other.num_classes());
}

// Every registry method that supports persistence must round-trip
// Save -> fresh instance -> Load -> Predict with *bitwise* stable logits
// (the artifact formats write 17 significant digits, which reproduces
// doubles exactly). Methods without a serialization format must say so
// consistently: Save and Load both return false. A new adapter that gains
// Save/Load is picked up here automatically.
TEST(RegistryPersistence, SaveLoadPredictRoundTripsEveryPersistentMethod) {
  const DatasetSpec spec = TinySpec();
  Rng rng(31);
  const Graph graph = GenerateDataset(spec, &rng);
  const Split split = MakeSplit(spec, graph, &rng);

  int persistent = 0;
  for (const std::string& name : BuiltinModelRegistry().Names()) {
    ModelConfig config;
    config.Set("epsilon", "2");
    config.Set("seed", "7");
    std::unique_ptr<GraphModel> model =
        BuiltinModelRegistry().Create(name, config);
    model->Train(graph, split);
    const Matrix before = model->Predict(graph);

    const std::string path = "/tmp/gcon_registry_roundtrip_" + name + ".model";
    if (!model->Save(path)) {
      std::unique_ptr<GraphModel> fresh =
          BuiltinModelRegistry().Create(name, config);
      EXPECT_FALSE(fresh->Load(path))
          << name << ": Save unsupported but Load claims support";
      continue;
    }
    ++persistent;

    std::unique_ptr<GraphModel> loaded =
        BuiltinModelRegistry().Create(name, config);
    ASSERT_TRUE(loaded->Load(path)) << name;
    std::remove(path.c_str());
    const Matrix after = loaded->Predict(graph);
    ASSERT_EQ(after.rows(), before.rows()) << name;
    ASSERT_EQ(after.cols(), before.cols()) << name;
    EXPECT_EQ(std::memcmp(after.data(), before.data(),
                          after.size() * sizeof(double)),
              0)
        << name << ": logits drifted across the Save/Load round-trip";
  }
  // gcon (release artifact) and mlp (edge-free network) persist today.
  EXPECT_GE(persistent, 2);
}

TEST(ModelIo, HighPrecisionSurvivesRoundTrip) {
  const Trained t = TrainSmall();
  GconArtifact artifact = MakeArtifact(t.prepared, t.model, 2.0, 1e-4);
  artifact.theta(0, 0) = 1.0 / 3.0;
  artifact.theta(1, 0) = 1e-17;
  artifact.theta(2, 0) = -123456.789012345678;
  const std::string path = "/tmp/gcon_model_io_test3.model";
  SaveModel(artifact, path);
  const GconArtifact loaded = LoadModel(path);
  std::remove(path.c_str());
  EXPECT_DOUBLE_EQ(loaded.theta(0, 0), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(loaded.theta(1, 0), 1e-17);
  EXPECT_DOUBLE_EQ(loaded.theta(2, 0), -123456.789012345678);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void ExpectSameArtifactBits(const GconArtifact& a, const GconArtifact& b) {
  EXPECT_TRUE(SameBits(a.theta, b.theta));
  ASSERT_EQ(a.encoder.num_layers(), b.encoder.num_layers());
  for (int l = 0; l < a.encoder.num_layers(); ++l) {
    EXPECT_TRUE(SameBits(a.encoder.weight(l), b.encoder.weight(l)));
    EXPECT_TRUE(SameBits(a.encoder.bias(l), b.encoder.bias(l)));
  }
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.alpha_inference, b.alpha_inference);
  EXPECT_EQ(a.epsilon, b.epsilon);
  EXPECT_EQ(a.delta, b.delta);
  EXPECT_EQ(a.params.beta, b.params.beta);
  EXPECT_EQ(a.params.lambda_bar, b.params.lambda_bar);
  EXPECT_EQ(a.params.lambda_prime, b.params.lambda_prime);
}

TEST(ModelIo, ArtifactIoIgnoresCommaDecimalLocale) {
  // Every stream made after std::locale::global takes the global locale.
  // Under a comma-decimal one an un-pinned SaveModel writes
  // "alpha 0,69999999999999996" and an un-pinned LoadModel reads a C-locale
  // "0.7" as 0, then fails on the key after it. Artifact I/O pins the
  // classic locale, so both directions keep the C-locale bytes and bits.
  const Trained t = TrainSmall();
  const GconArtifact artifact = MakeArtifact(t.prepared, t.model, 2.0, 1e-4);
  const std::string c_path = "/tmp/gcon_model_io_locale_c.model";
  const std::string comma_path = "/tmp/gcon_model_io_locale_comma.model";
  SaveModel(artifact, c_path);
  const std::string c_bytes = ReadFileBytes(c_path);
  const GconArtifact reference = LoadModel(c_path);
  {
    ScopedGlobalLocale comma(CommaLocale());
    SaveModel(artifact, comma_path);
    ExpectSameArtifactBits(LoadModel(c_path), reference);
    std::istringstream in(c_bytes);
    ExpectSameArtifactBits(LoadModel(in, "<comma locale>"), reference);
  }
  EXPECT_EQ(ReadFileBytes(comma_path), c_bytes);
  std::remove(c_path.c_str());
  std::remove(comma_path.c_str());
}

// --- hostile-header bounds ---------------------------------------------------
// A corrupt or malicious artifact must be rejected by its *declared* sizes
// before any allocation happens — the artifact fuzz harness demonstrated
// that an unbounded `steps`/`theta`/`mlp` header turns LoadModel into an
// OOM. These mirror fuzz/corpus/artifact/huge_{steps,theta}.

std::string ArtifactWithTail(const std::string& tail) {
  return "gcon-model v1\nalpha 0.5\nalpha_inference -1\nepsilon 1\n"
         "delta 0.001\nbeta 1\nlambda_bar 0.2\nlambda_prime 0\n" +
         tail;
}

std::string LoadModelError(const std::string& text) {
  std::istringstream in(text);
  try {
    LoadModel(in, "<hostile>");
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ModelIo, RejectsImplausibleStepsCountBeforeAllocating) {
  const std::string error =
      LoadModelError(ArtifactWithTail("steps 99999999999999 1\n"));
  EXPECT_NE(error.find("implausible steps count"), std::string::npos) << error;
}

TEST(ModelIo, RejectsImplausibleThetaShapeBeforeAllocating) {
  const std::string error = LoadModelError(
      ArtifactWithTail("steps 2 1 2\ntheta 999999999 999999999\n"));
  EXPECT_NE(error.find("implausible theta shape"), std::string::npos) << error;
}

TEST(ModelIo, RejectsThetaShapeWhoseProductOverflows) {
  // Each dim alone is under the per-dim cap; the product must still trip
  // the element bound instead of wrapping the allocation size.
  const std::string error = LoadModelError(
      ArtifactWithTail("steps 2 1 2\ntheta 16000000 16000000\n"));
  EXPECT_NE(error.find("implausible theta shape"), std::string::npos) << error;
}

std::string LoadMlpError(const std::string& text) {
  std::istringstream in(text);
  try {
    LoadMlp(&in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(MlpIo, RejectsImplausibleLayerCountBeforeAllocating) {
  const std::string error = LoadMlpError("mlp 99999999999999 3 3 relu\n");
  EXPECT_NE(error.find("implausible layer count"), std::string::npos) << error;
}

TEST(MlpIo, RejectsImplausibleLayerDimension) {
  const std::string error = LoadMlpError("mlp 2 999999999 3 relu\n");
  EXPECT_NE(error.find("implausible layer dimension"), std::string::npos)
      << error;
}

TEST(MlpIo, RejectsWeightShapeWhoseProductExceedsBound) {
  const std::string error = LoadMlpError("mlp 2 16000000 16000000 relu\n");
  EXPECT_NE(error.find("implausible weight shape"), std::string::npos)
      << error;
}

}  // namespace
}  // namespace gcon
