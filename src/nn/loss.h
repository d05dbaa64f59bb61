// Classification losses for the non-convex components (encoder, baselines).
//
// The GCON convex stage uses its own loss family (core/convex_loss.h); this
// header is standard softmax cross-entropy for MLP/GCN training.
#ifndef GCON_NN_LOSS_H_
#define GCON_NN_LOSS_H_

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace gcon {

/// Row-wise softmax (numerically stable).
Matrix Softmax(const Matrix& logits);

/// Mean softmax cross-entropy over the rows of `logits` listed in `index`
/// against integer `labels` (global node ids). If `grad` is non-null it
/// receives d loss / d logits — a full-size matrix, zero outside `index`.
double SoftmaxCrossEntropy(const Matrix& logits, const std::vector<int>& labels,
                           const std::vector<int>& index, Matrix* grad);

/// One row of SoftmaxCrossEntropy: returns the row's loss term
/// log(sum_j exp(logits[j])) - logits[label], and with `grad` set writes the
/// row's gradient (softmax minus the one-hot label) times inv_count. The
/// whole-matrix call is this per listed row, so a caller that splits rows
/// across threads and sums the terms in index order gets the same bits.
double SoftmaxCrossEntropyRow(const double* logits, std::size_t cols,
                              int label, double inv_count, double* grad);

}  // namespace gcon

#endif  // GCON_NN_LOSS_H_
