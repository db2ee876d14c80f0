#ifndef IMCAT_CORE_INDEPENDENCE_H_
#define IMCAT_CORE_INDEPENDENCE_H_

#include "tensor/tensor.h"
#include "util/rng.h"

/// \file independence.h
/// Intent-independence regularisation (Sec. V-D): following KGIN [31], the
/// correlation between different intent sub-embeddings is minimised with
/// distance correlation, ensuring the K intents are disentangled.

namespace imcat {

/// Sample distance correlation dCor(a, b) between two paired sample
/// matrices (n x da) and (n x db), as a differentiable (1 x 1) tensor in
/// [0, ~1]: the two-block case of ops::MeanDistanceCorrelation, which
/// uses the standard S1 - 2 S2 + S3 decomposition of the squared
/// distance covariance.
Tensor DistanceCorrelation(const Tensor& a, const Tensor& b);

/// Mean of dCor over all pairs of intent chunks, evaluated on
/// `sample_rows` randomly sampled rows of `table` (a user or item
/// embedding table of width d split into `num_intents` chunks) by one
/// ops::MeanDistanceCorrelation over the gathered sample. Returns a
/// constant zero tensor when num_intents < 2.
Tensor IntentIndependenceLoss(const Tensor& table, int num_intents,
                              int64_t sample_rows, Rng* rng);

}  // namespace imcat

#endif  // IMCAT_CORE_INDEPENDENCE_H_
