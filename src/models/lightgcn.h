#ifndef IMCAT_MODELS_LIGHTGCN_H_
#define IMCAT_MODELS_LIGHTGCN_H_

#include <string>
#include <vector>

#include "graph/adjacency.h"
#include "models/backbone.h"
#include "tensor/sparse.h"

/// \file lightgcn.h
/// LightGCN backbone [57]: linear propagation over the symmetrically
/// normalised user-item graph with layer averaging,
///   E^(l+1) = A_hat E^(l),  E = mean(E^(0..L)).
/// The paper uses two convolution layers for all GNN models (Sec. V-D).
/// L-IMCAT plugs IMCAT into this model.

namespace imcat {

class LightGcn : public Backbone {
 public:
  /// Builds the propagation graph from the *training* interactions only.
  LightGcn(int64_t num_users, int64_t num_items, const EdgeList& train_edges,
           const BackboneOptions& options, int num_layers = 2);

  std::string name() const override { return "LightGCN"; }
  int64_t embedding_dim() const override { return dim_; }
  int64_t num_users() const override { return num_users_; }
  int64_t num_items() const override { return num_items_; }

  /// Runs the propagation for this step; the embedding accessors return
  /// the propagated (layer-averaged) tables.
  void BeginStep() override;
  Tensor UserEmbeddings() override;
  Tensor ItemEmbeddings() override;
  Tensor PairScores(const std::vector<int64_t>& users,
                    const std::vector<int64_t>& items) override;
  std::vector<Tensor> Parameters() override;

  void ScoreItemsForUser(int64_t user,
                         std::vector<float>* scores) const override;
  /// Builds the propagated factor cache up front; required before
  /// concurrent ScoreItemsForUser calls (the cache is shared state).
  void PrepareScoring() const override {
    if (!EvalCacheFresh()) RefreshEvalCache();
  }
  void InvalidateEvalCache() override { eval_cache_valid_ = false; }

  int num_layers() const { return num_layers_; }

 private:
  void EnsurePropagated();
  /// False after InvalidateEvalCache() or a restore of base_table_.
  bool EvalCacheFresh() const {
    return eval_cache_valid_ && eval_cache_version_ == base_table_.version();
  }
  void RefreshEvalCache() const;

  int64_t num_users_;
  int64_t num_items_;
  int64_t dim_;
  int num_layers_;
  SparseMatrix adjacency_;  ///< Symmetric, so it equals its transpose.
  Tensor base_table_;       ///< (U+V x d) trainable layer-0 embeddings.
  Tensor user_final_;       ///< Per-step propagated user table.
  Tensor item_final_;       ///< Per-step propagated item table.
  bool propagated_ = false;

  mutable bool eval_cache_valid_ = false;
  mutable uint64_t eval_cache_version_ = 0;  ///< base_table_ version cached.
  mutable std::vector<float> eval_factors_;  ///< (U+V x d) propagated, raw.
};

}  // namespace imcat

#endif  // IMCAT_MODELS_LIGHTGCN_H_
