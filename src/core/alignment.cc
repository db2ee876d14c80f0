#include "core/alignment.h"

#include "tensor/init.h"
#include "tensor/ops.h"

namespace imcat {

AlignmentHead::AlignmentHead(int num_intents, int64_t dim, uint64_t seed)
    : num_intents_(num_intents), dim_(dim), chunk_(dim / num_intents) {
  IMCAT_CHECK_GE(num_intents, 1);
  // d must be divisible by K (Sec. IV-A1).
  IMCAT_CHECK_EQ(chunk_ * num_intents, dim);
  Rng rng(seed);
  for (int k = 0; k < num_intents_; ++k) {
    w0_.push_back(XavierUniform(dim_, chunk_, &rng));
    b0_.push_back(ZerosParameter(1, chunk_));
    w1_.push_back(XavierUniform(chunk_, chunk_, &rng));
    b1_.push_back(ZerosParameter(1, chunk_));
    w2_.push_back(XavierUniform(chunk_, chunk_, &rng));
  }
}

std::vector<Tensor> AlignmentHead::Parameters() {
  std::vector<Tensor> params;
  for (int k = 0; k < num_intents_; ++k) {
    params.push_back(w0_[k]);
    params.push_back(b0_[k]);
    params.push_back(w1_[k]);
    params.push_back(b1_[k]);
    params.push_back(w2_[k]);
  }
  return params;
}

Tensor AlignmentHead::Loss(const Tensor& user_agg,
                           const std::vector<Tensor>& tag_aggs,
                           const std::vector<Tensor>& item_embs,
                           const std::vector<std::vector<float>>& row_weights,
                           const ImcatConfig& config) const {
  IMCAT_CHECK_EQ(static_cast<int>(tag_aggs.size()), num_intents_);
  IMCAT_CHECK_EQ(static_cast<int>(item_embs.size()), num_intents_);
  IMCAT_CHECK_EQ(static_cast<int>(row_weights.size()), num_intents_);
  IMCAT_CHECK_EQ(user_agg.cols(), dim_);
  const int64_t batch = user_agg.rows();
  IMCAT_CHECK_GT(batch, 0);
  IMCAT_CHECK(config.align_include_item || config.align_include_tag);

  const float inv_tau = 1.0f / config.tau;
  Tensor total;
  for (int k = 0; k < num_intents_; ++k) {
    // u-bar^k: the k-th chunk of the aggregated user representation.
    Tensor u = ops::SliceCols(user_agg, k * chunk_, (k + 1) * chunk_);

    // z-bar^k = l2norm(t-hat^k) + l2norm(v^k)  (Sec. IV-B2).
    Tensor z;
    if (config.align_include_tag) {
      Tensor t_hat = ops::AddRowBroadcast(ops::MatMul(tag_aggs[k], w0_[k]),
                                          b0_[k]);  // Eq. 10.
      z = ops::L2NormalizeRows(t_hat);
    }
    if (config.align_include_item) {
      Tensor v = ops::L2NormalizeRows(
          ops::SliceCols(item_embs[k], k * chunk_, (k + 1) * chunk_));
      z = z.defined() ? ops::Add(z, v) : v;
    }

    if (config.enable_nlt) {
      // Shared per-intent projection head (Eq. 14).
      auto project = [&](const Tensor& x) {
        Tensor hidden = ops::LeakyRelu(
            ops::AddRowBroadcast(ops::MatMul(x, w1_[k]), b1_[k]));
        return ops::MatMul(hidden, w2_[k]);
      };
      u = project(u);
      z = project(z);
    }

    // L^k_u2it + L^k_it2u (Eqs. 12-13), from one logits GEMM.
    Tensor pair = ops::SymmetricInfoNce(u, z, inv_tau, row_weights[k]);
    total = total.defined() ? ops::Add(total, pair) : pair;
  }
  return ops::ScalarMul(
      total, 1.0f / (2.0f * static_cast<float>(num_intents_) *
                     static_cast<float>(batch)));
}

}  // namespace imcat
