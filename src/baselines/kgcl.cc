#include "baselines/kgcl.h"

#include <algorithm>

#include "graph/adjacency.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace imcat {

Kgcl::Kgcl(const Dataset& dataset, const DataSplit& split,
           const AdamOptions& adam, int64_t batch_size, int64_t embedding_dim,
           uint64_t seed, int num_layers, float ssl_weight, float ssl_tau)
    : FactorModelBase("KGCL", dataset, split, adam, batch_size, embedding_dim),
      num_layers_(num_layers),
      ssl_weight_(ssl_weight),
      ssl_tau_(ssl_tau),
      cf_adjacency_(BuildUserItemAdjacency(dataset.num_users,
                                           dataset.num_items, split.train)),
      kg_adjacency_(BuildItemTagAdjacency(dataset.num_items, dataset.num_tags,
                                          dataset.item_tags)) {
  Rng rng(seed);
  cf_table_ = XavierUniform(dataset.num_users + dataset.num_items,
                            embedding_dim, &rng, true);
  kg_table_ = XavierUniform(dataset.num_items + dataset.num_tags,
                            embedding_dim, &rng, true);
  RegisterParameters({cf_table_, kg_table_});
}

namespace {
Tensor LayerAveraged(const SparseMatrix& adjacency, const Tensor& base,
                     int num_layers) {
  Tensor layer = base;
  Tensor sum = base;
  for (int l = 0; l < num_layers; ++l) {
    layer = ops::SpMM(adjacency, layer);
    sum = ops::Add(sum, layer);
  }
  return ops::ScalarMul(sum, 1.0f / static_cast<float>(num_layers + 1));
}
}  // namespace

Tensor Kgcl::PropagateCf() const {
  return LayerAveraged(cf_adjacency_, cf_table_, num_layers_);
}

Tensor Kgcl::PropagateKg() const {
  return LayerAveraged(kg_adjacency_, kg_table_, num_layers_);
}

Tensor Kgcl::BuildLoss(const TripletBatch& batch, Rng* rng) {
  (void)rng;
  Tensor cf = PropagateCf();
  Tensor users = ops::Gather(cf, batch.anchors);
  std::vector<int64_t> pos_nodes, neg_nodes;
  for (int64_t v : batch.positives) pos_nodes.push_back(num_users() + v);
  for (int64_t v : batch.negatives) neg_nodes.push_back(num_users() + v);
  Tensor pos = ops::Gather(cf, pos_nodes);
  Tensor neg = ops::Gather(cf, neg_nodes);
  Tensor ranking = BprLossFromScores(ops::RowSum(ops::Mul(users, pos)),
                                     ops::RowSum(ops::Mul(users, neg)));

  // Cross-view contrast on the batch's positive items (unique within the
  // SSL batch: duplicates would be false negatives of themselves): CF-view
  // item rows against KG-view item rows.
  std::vector<int64_t> items = batch.positives;
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  std::vector<int64_t> item_nodes;
  item_nodes.reserve(items.size());
  for (int64_t v : items) item_nodes.push_back(num_users() + v);
  Tensor kg = PropagateKg();
  Tensor cf_items = ops::L2NormalizeRows(ops::Gather(cf, item_nodes));
  Tensor kg_items = ops::L2NormalizeRows(ops::Gather(kg, items));
  std::vector<float> weights(items.size(),
                             1.0f / static_cast<float>(items.size()));
  Tensor ssl =
      ops::SymmetricInfoNce(cf_items, kg_items, 1.0f / ssl_tau_, weights);
  return ops::Add(ranking, ops::ScalarMul(ssl, 0.5f * ssl_weight_));
}

void Kgcl::ComputeEvalFactors(std::vector<float>* user_factors,
                              std::vector<float>* item_factors) const {
  Tensor cf = PropagateCf();
  const float* data = cf.data();
  const int64_t d = embedding_dim();
  user_factors->assign(data, data + num_users() * d);
  item_factors->assign(data + num_users() * d,
                       data + (num_users() + num_items()) * d);
}

}  // namespace imcat
