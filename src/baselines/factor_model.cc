#include "baselines/factor_model.h"

#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "tensor/score_kernel.h"
#include "util/check.h"

namespace imcat {

FactorModelBase::FactorModelBase(std::string name, const Dataset& dataset,
                                 const DataSplit& split,
                                 const AdamOptions& adam, int64_t batch_size,
                                 int64_t embedding_dim)
    : name_(std::move(name)),
      num_users_(dataset.num_users),
      num_items_(dataset.num_items),
      dim_(embedding_dim),
      batch_size_(batch_size),
      sampler_(dataset.num_users, dataset.num_items, split.train),
      optimizer_(adam) {}

void FactorModelBase::RegisterParameters(
    const std::vector<Tensor>& parameters) {
  optimizer_.AddParameters(parameters);
  for (const Tensor& p : parameters) parameters_.push_back(p);
}

double FactorModelBase::TrainStep(Rng* rng) {
  TripletBatch batch;
  sampler_.SampleBatch(batch_size_, rng, &batch, pool_);
  Tensor loss = BuildLoss(batch, rng);
  optimizer_.ZeroGrad();
  Backward(loss);
  optimizer_.Step();
  cache_valid_ = false;
  ++step_;
  return loss.item();
}

int64_t FactorModelBase::StepsPerEpoch() const {
  return (sampler_.num_edges() + batch_size_ - 1) / batch_size_;
}

uint64_t FactorModelBase::ParameterVersion() const {
  uint64_t version = 0;
  for (const Tensor& p : parameters_) version += p.version();
  return version;
}

void FactorModelBase::PrepareScoring() const {
  if (CacheFresh()) return;
  ComputeEvalFactors(&user_factors_, &item_factors_);
  IMCAT_CHECK_EQ(static_cast<int64_t>(user_factors_.size()),
                 num_users_ * dim_);
  IMCAT_CHECK_EQ(static_cast<int64_t>(item_factors_.size()),
                 num_items_ * dim_);
  cache_valid_ = true;
  cache_version_ = ParameterVersion();
}

void FactorModelBase::ScoreItemsForUser(int64_t user,
                                        std::vector<float>* scores) const {
  if (!CacheFresh()) PrepareScoring();
  scores->assign(num_items_, 0.0f);
  const float* u = user_factors_.data() + user * dim_;
  for (int64_t v = 0; v < num_items_; ++v) {
    const float* iv = item_factors_.data() + v * dim_;
    float acc = 0.0f;
    for (int64_t c = 0; c < dim_; ++c) acc += u[c] * iv[c];
    (*scores)[v] = acc;
  }
}

void FactorModelBase::ScoreItemsForUsers(const std::vector<int64_t>& users,
                                         std::vector<float>* scores) const {
  if (!CacheFresh()) PrepareScoring();
  scores->assign(users.size() * static_cast<size_t>(num_items_), 0.0f);
  std::vector<const float*> user_rows(users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    user_rows[i] = user_factors_.data() + users[i] * dim_;
  }
  ScoreAllItemsBlocked(user_rows.data(), static_cast<int64_t>(users.size()),
                       item_factors_.data(), num_items_, dim_,
                       kDefaultScoreBlockItems, scores->data(), num_items_);
}

Tensor BprLossFromScores(const Tensor& positive_scores,
                         const Tensor& negative_scores) {
  Tensor margin = ops::Sub(positive_scores, negative_scores);
  return ops::ScalarMul(ops::Mean(ops::LogSigmoid(margin)), -1.0f);
}

}  // namespace imcat
