#include "core/encoder.h"

#include <utility>

#include "common/check.h"
#include "linalg/ops.h"

namespace gcon {

EncodedFeatures TrainEncoder(const Graph& graph, const Split& split,
                             const EncoderOptions& options) {
  GCON_CHECK(!split.train.empty());
  GCON_CHECK_GT(graph.feature_dim(), 0);

  MlpOptions mlp_options;
  mlp_options.dims = {graph.feature_dim(), options.hidden, options.out_dim,
                      graph.num_classes()};
  mlp_options.hidden_activation = options.activation;
  mlp_options.learning_rate = options.learning_rate;
  mlp_options.weight_decay = options.weight_decay;
  mlp_options.epochs = options.epochs;
  mlp_options.seed = options.seed;

  EncodedFeatures out{Matrix(), {}, -1.0, Mlp(mlp_options)};
  out.mlp.Train(graph.features(), graph.labels(), split.train, split.val);

  // One pass over the graph gives both the logits and the penultimate layer.
  std::vector<Matrix> outputs = out.mlp.LayerOutputs(graph.features());
  const Matrix& logits = outputs.back();
  out.predictions.resize(static_cast<std::size_t>(graph.num_nodes()));
  for (int v = 0; v < graph.num_nodes(); ++v) {
    out.predictions[static_cast<std::size_t>(v)] =
        static_cast<int>(RowArgMax(logits, static_cast<std::size_t>(v)));
  }
  if (!split.val.empty()) {
    out.val_accuracy = Accuracy(logits, graph.labels(), split.val);
  }
  // Penultimate layer = last hidden representation (d1-dimensional).
  out.features = std::move(outputs[outputs.size() - 2]);
  return out;
}

}  // namespace gcon
