#include "core/independence.h"

#include <algorithm>
#include <vector>

#include "tensor/ops.h"
#include "util/check.h"

namespace imcat {

Tensor DistanceCorrelation(const Tensor& a, const Tensor& b) {
  IMCAT_CHECK_EQ(a.rows(), b.rows());
  return ops::MeanDistanceCorrelation(ops::ConcatCols({a, b}),
                                      {a.cols(), b.cols()});
}

Tensor IntentIndependenceLoss(const Tensor& table, int num_intents,
                              int64_t sample_rows, Rng* rng) {
  if (num_intents < 2) return Tensor(1, 1);
  const int64_t chunk = table.cols() / num_intents;
  IMCAT_CHECK_EQ(chunk * num_intents, table.cols());
  const int64_t n = std::min<int64_t>(sample_rows, table.rows());
  IMCAT_CHECK_GE(n, 2);
  std::vector<int64_t> indices(n);
  for (int64_t i = 0; i < n; ++i) indices[i] = rng->UniformInt(table.rows());
  return ops::MeanDistanceCorrelation(
      ops::Gather(table, indices),
      std::vector<int64_t>(static_cast<size_t>(num_intents), chunk));
}

}  // namespace imcat
