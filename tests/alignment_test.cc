#include "core/alignment.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/autograd.h"
#include "tensor/init.h"
#include "tensor/optimizer.h"
#include "tests/gradcheck.h"

namespace imcat {
namespace {

struct AlignmentFixture {
  static constexpr int kIntents = 2;
  static constexpr int64_t kDim = 8;
  static constexpr int64_t kBatch = 6;

  Rng rng{7};
  AlignmentHead head{kIntents, kDim, 11};
  Tensor user_agg = RandomNormal(kBatch, kDim, &rng);
  std::vector<Tensor> tag_aggs;
  std::vector<Tensor> item_embs;
  std::vector<std::vector<float>> weights;

  AlignmentFixture() {
    for (int k = 0; k < kIntents; ++k) {
      tag_aggs.push_back(RandomNormal(kBatch, kDim, &rng));
      item_embs.push_back(RandomNormal(kBatch, kDim, &rng));
      weights.emplace_back(kBatch, 1.0f / kIntents);
    }
  }
};

TEST(AlignmentHeadTest, ParameterShapes) {
  AlignmentHead head(4, 16, 3);
  EXPECT_EQ(head.chunk_dim(), 4);
  // 5 parameter tensors per intent.
  EXPECT_EQ(head.Parameters().size(), 20u);
}

TEST(AlignmentHeadTest, LossIsFiniteAndPositive) {
  AlignmentFixture fx;
  ImcatConfig config;
  config.num_intents = AlignmentFixture::kIntents;
  Tensor loss = fx.head.Loss(fx.user_agg, fx.tag_aggs, fx.item_embs,
                             fx.weights, config);
  EXPECT_TRUE(std::isfinite(loss.item()));
  EXPECT_GT(loss.item(), 0.0f);
}

TEST(AlignmentHeadTest, AblationSwitchesChangeTheLoss) {
  AlignmentFixture fx;
  ImcatConfig config;
  config.num_intents = AlignmentFixture::kIntents;
  const float full = fx.head
                         .Loss(fx.user_agg, fx.tag_aggs, fx.item_embs,
                               fx.weights, config)
                         .item();
  config.align_include_tag = false;  // w/o UT.
  const float no_tag = fx.head
                           .Loss(fx.user_agg, fx.tag_aggs, fx.item_embs,
                                 fx.weights, config)
                           .item();
  config.align_include_tag = true;
  config.align_include_item = false;  // w/o UI.
  const float no_item = fx.head
                            .Loss(fx.user_agg, fx.tag_aggs, fx.item_embs,
                                  fx.weights, config)
                            .item();
  config.align_include_item = true;
  config.enable_nlt = false;  // w/o NLT.
  const float no_nlt = fx.head
                           .Loss(fx.user_agg, fx.tag_aggs, fx.item_embs,
                                 fx.weights, config)
                           .item();
  EXPECT_NE(full, no_tag);
  EXPECT_NE(full, no_item);
  EXPECT_NE(full, no_nlt);
}

TEST(AlignmentHeadTest, ZeroWeightsZeroLoss) {
  AlignmentFixture fx;
  ImcatConfig config;
  config.num_intents = AlignmentFixture::kIntents;
  for (auto& w : fx.weights) std::fill(w.begin(), w.end(), 0.0f);
  Tensor loss = fx.head.Loss(fx.user_agg, fx.tag_aggs, fx.item_embs,
                             fx.weights, config);
  EXPECT_NEAR(loss.item(), 0.0f, 1e-6f);
}

TEST(AlignmentHeadTest, GradcheckWithRowWeights) {
  // Gradients reach the user, tag and item inputs through the projection
  // heads and the per-intent symmetric InfoNCE, with M-style row weights
  // that differ per intent (one row weighted zero).
  AlignmentFixture fx;
  fx.weights[0] = {0.9f, 0.1f, 0.0f, 0.5f, 0.3f, 0.7f};
  fx.weights[1] = {0.1f, 0.9f, 1.0f, 0.5f, 0.7f, 0.3f};
  ImcatConfig config;
  config.num_intents = AlignmentFixture::kIntents;
  testing::ExpectGradientsMatch(
      [&](const std::vector<Tensor>& in) {
        return fx.head.Loss(in[0], {in[1], in[2]}, {in[3], in[4]},
                            fx.weights, config);
      },
      {fx.user_agg, fx.tag_aggs[0], fx.tag_aggs[1], fx.item_embs[0],
       fx.item_embs[1]});
}

TEST(AlignmentHeadTest, OptimisationAlignsPositivePairs) {
  // Minimising the loss should raise the diagonal (positive-pair)
  // similarity relative to off-diagonal pairs in the projected space.
  AlignmentFixture fx;
  ImcatConfig config;
  config.num_intents = AlignmentFixture::kIntents;
  config.tau = 0.5f;

  AdamOptions adam;
  adam.learning_rate = 0.02f;
  AdamOptimizer optimizer(adam);
  optimizer.AddParameter(fx.user_agg);
  for (auto& t : fx.tag_aggs) optimizer.AddParameter(t);
  for (auto& t : fx.item_embs) optimizer.AddParameter(t);
  optimizer.AddParameters(fx.head.Parameters());

  const float initial = fx.head
                            .Loss(fx.user_agg, fx.tag_aggs, fx.item_embs,
                                  fx.weights, config)
                            .item();
  float final_loss = initial;
  for (int step = 0; step < 120; ++step) {
    optimizer.ZeroGrad();
    Tensor loss = fx.head.Loss(fx.user_agg, fx.tag_aggs, fx.item_embs,
                               fx.weights, config);
    Backward(loss);
    optimizer.Step();
    final_loss = loss.item();
  }
  EXPECT_LT(final_loss, 0.5f * initial);
}

TEST(AlignmentHeadTest, PerfectAlignmentHasLowLoss) {
  // When u equals z for every row and rows are mutually distant, the
  // diagonal dominates and the loss is below the uniform-logit value.
  const int intents = 1;
  const int64_t dim = 4;
  const int64_t batch = 4;
  AlignmentHead head(intents, dim, 5);
  ImcatConfig config;
  config.num_intents = intents;
  config.enable_nlt = false;        // Identity-free comparison.
  config.align_include_tag = false; // z = normalised item embedding only.
  config.tau = 0.05f;

  Tensor user_agg(batch, dim);
  Tensor items(batch, dim);
  for (int64_t i = 0; i < batch; ++i) {
    user_agg.set(i, i % dim, 1.0f);
    items.set(i, i % dim, 1.0f);
  }
  std::vector<std::vector<float>> weights = {
      std::vector<float>(batch, 1.0f)};
  Tensor loss = head.Loss(user_agg, {items}, {items}, weights, config);
  const float uniform = std::log(static_cast<float>(batch));
  EXPECT_LT(loss.item(), 0.1f * uniform);
}

TEST(AlignmentHeadTest, RequiresAtLeastOneSource) {
  AlignmentFixture fx;
  ImcatConfig config;
  config.num_intents = AlignmentFixture::kIntents;
  config.align_include_item = false;
  config.align_include_tag = false;
  EXPECT_DEATH(fx.head.Loss(fx.user_agg, fx.tag_aggs, fx.item_embs,
                            fx.weights, config),
               "align_include");
}

}  // namespace
}  // namespace imcat
