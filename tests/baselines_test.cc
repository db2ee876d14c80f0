#include "baselines/registry.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "baselines/sgl.h"
#include "baselines/tag_profiles.h"
#include "baselines/tgcn.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"

namespace imcat {
namespace {

struct BaselineWorkbench {
  Dataset ds;
  DataSplit split;
  Evaluator evaluator;

  BaselineWorkbench()
      : ds(MakeDataset()),
        split(SplitByUser(ds, SplitOptions{})),
        evaluator(ds, split) {}

  static Dataset MakeDataset() {
    SyntheticConfig config;
    config.num_users = 50;
    config.num_items = 80;
    config.num_tags = 20;
    config.num_interactions = 1400;
    config.num_item_tags = 350;
    config.user_intent_alpha = 0.25;
    config.seed = 31;
    return GenerateSynthetic(config);
  }

  ModelFactoryOptions Options() const {
    ModelFactoryOptions options;
    options.embedding_dim = 16;
    options.batch_size = 256;
    options.adam.learning_rate = 5e-3f;
    options.imcat.num_intents = 2;
    options.imcat.pretrain_steps = 10;
    options.imcat.ca_batch_size = 64;
    options.imcat.independence_sample_rows = 24;
    return options;
  }
};

TEST(TagProfilesTest, UserProfilesRowNormalised) {
  BaselineWorkbench wb;
  SparseMatrix profiles = BuildUserTagProfiles(wb.ds, wb.split.train);
  EXPECT_EQ(profiles.rows(), wb.ds.num_users);
  EXPECT_EQ(profiles.cols(), wb.ds.num_tags);
  for (int64_t u = 0; u < profiles.rows(); ++u) {
    float sum = 0.0f;
    for (int64_t k = profiles.indptr()[u]; k < profiles.indptr()[u + 1]; ++k) {
      EXPECT_GT(profiles.values()[k], 0.0f);
      sum += profiles.values()[k];
    }
    if (profiles.indptr()[u + 1] > profiles.indptr()[u]) {
      EXPECT_NEAR(sum, 1.0f, 1e-4f);
    }
  }
}

TEST(TagProfilesTest, ItemProfilesMatchTagSets) {
  Dataset ds;
  ds.num_users = 1;
  ds.num_items = 3;
  ds.num_tags = 4;
  ds.item_tags = {{0, 0}, {0, 2}, {2, 3}};
  SparseMatrix profiles = BuildItemTagProfiles(ds);
  EXPECT_EQ(profiles.nnz(), 3);
  // Item 0 has two tags at weight 0.5.
  EXPECT_EQ(profiles.indptr()[1] - profiles.indptr()[0], 2);
  EXPECT_NEAR(profiles.values()[0], 0.5f, 1e-6f);
  // Item 1 has none.
  EXPECT_EQ(profiles.indptr()[2] - profiles.indptr()[1], 0);
}

TEST(RowStochasticTest, RowsSumToOne) {
  EdgeList edges = {{0, 1}, {0, 2}, {1, 0}};
  SparseMatrix m = RowStochasticFromEdges(2, 3, edges);
  EXPECT_NEAR(m.values()[0] + m.values()[1], 1.0f, 1e-6f);
  EXPECT_NEAR(m.values()[2], 1.0f, 1e-6f);
}

TEST(RegistryTest, AllModelNamesAreCreatable) {
  BaselineWorkbench wb;
  ModelFactoryOptions options = wb.Options();
  EXPECT_EQ(AllModelNames().size(), 15u);
  for (const std::string& name : AllModelNames()) {
    auto model = CreateModel(name, wb.ds, wb.split, options);
    ASSERT_TRUE(model.ok()) << name;
    EXPECT_EQ(model.value()->name(), name);
  }
}

TEST(RegistryTest, UnknownModelIsNotFound) {
  BaselineWorkbench wb;
  auto model = CreateModel("NoSuchModel", wb.ds, wb.split, wb.Options());
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Every registered model: trains with finite losses, scores all items, and
// improves over its own initialisation on validation recall.
// ---------------------------------------------------------------------------

class EveryModelTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryModelTest, ShortTrainingIsFiniteAndScores) {
  BaselineWorkbench wb;
  auto created = CreateModel(GetParam(), wb.ds, wb.split, wb.Options());
  ASSERT_TRUE(created.ok());
  std::unique_ptr<TrainableModel>& model = created.value();

  Rng rng(7);
  model->OnEpochBegin(0);
  for (int step = 0; step < 15; ++step) {
    const double loss = model->TrainStep(&rng);
    EXPECT_TRUE(std::isfinite(loss)) << GetParam() << " step " << step;
  }
  model->OnEpochBegin(1);
  EXPECT_TRUE(std::isfinite(model->TrainStep(&rng)));

  std::vector<float> scores;
  model->ScoreItemsForUser(0, &scores);
  ASSERT_EQ(scores.size(), static_cast<size_t>(wb.ds.num_items));
  for (float s : scores) EXPECT_TRUE(std::isfinite(s));
  EXPECT_FALSE(model->Parameters().empty());
  EXPECT_GT(model->StepsPerEpoch(), 0);
}

TEST_P(EveryModelTest, TrainingImprovesValidationRecall) {
  BaselineWorkbench wb;
  auto created = CreateModel(GetParam(), wb.ds, wb.split, wb.Options());
  ASSERT_TRUE(created.ok());
  std::unique_ptr<TrainableModel>& model = created.value();

  const double before =
      wb.evaluator.Evaluate(*model, wb.split.validation, 20).recall;
  Rng rng(11);
  const int64_t steps_per_epoch = model->StepsPerEpoch();
  // Track the best validation recall, mirroring the early-stopping
  // protocol (models may peak early and then overfit on this tiny set).
  double best = 0.0;
  for (int epoch = 0; epoch < 55; ++epoch) {
    model->OnEpochBegin(epoch);
    for (int64_t s = 0; s < steps_per_epoch; ++s) model->TrainStep(&rng);
    if ((epoch + 1) % 5 == 0) {
      best = std::max(
          best, wb.evaluator.Evaluate(*model, wb.split.validation, 20).recall);
    }
  }
  EXPECT_GT(best, before) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, EveryModelTest,
    ::testing::ValuesIn(AllModelNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-' || c == '.') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Model-specific behaviours.
// ---------------------------------------------------------------------------

TEST(SglTest, AugmentationViewsResampledEachEpoch) {
  BaselineWorkbench wb;
  Sgl sgl(wb.ds, wb.split, AdamOptions{}, 128, 16, 3);
  Rng rng(5);
  sgl.OnEpochBegin(0);
  const double loss_a = sgl.TrainStep(&rng);
  sgl.OnEpochBegin(1);
  const double loss_b = sgl.TrainStep(&rng);
  // Both steps run on freshly sampled views without error.
  EXPECT_TRUE(std::isfinite(loss_a));
  EXPECT_TRUE(std::isfinite(loss_b));
}

// After Fit restores the best epoch, a factor baseline scores with the
// restored parameters, not with the factor cache its last validation
// built: it evaluates exactly as a fresh model holding those parameters.
TEST(FactorModelTest, RestoredBestEpochScoresWithRestoredParameters) {
  BaselineWorkbench wb;
  ModelFactoryOptions options = wb.Options();
  options.adam.learning_rate = 0.5f;  // Noisy: the best epoch is early.
  auto trained = CreateModel("KGCL", wb.ds, wb.split, options);
  auto fresh = CreateModel("KGCL", wb.ds, wb.split, options);
  ASSERT_TRUE(trained.ok() && fresh.ok());

  TrainerOptions trainer_options;
  trainer_options.max_epochs = 8;
  trainer_options.eval_every = 1;
  trainer_options.patience = trainer_options.max_epochs + 1;
  trainer_options.restore_best = true;
  trainer_options.seed = 3;
  const TrainHistory history = Trainer(&wb.evaluator, &wb.split)
                                   .Fit(trained.value().get(), trainer_options);
  ASSERT_TRUE(history.status.ok()) << history.status.ToString();
  ASSERT_LT(history.best_epoch, history.epochs_run);

  std::vector<Tensor> restored = trained.value()->Parameters();
  std::vector<Tensor> copies = fresh.value()->Parameters();
  ASSERT_EQ(restored.size(), copies.size());
  for (size_t i = 0; i < restored.size(); ++i) {
    std::copy(restored[i].data(), restored[i].data() + restored[i].size(),
              copies[i].data());
  }
  const EvalResult served =
      wb.evaluator.Evaluate(*trained.value(), wb.split.test, 20);
  const EvalResult expected =
      wb.evaluator.Evaluate(*fresh.value(), wb.split.test, 20);
  EXPECT_EQ(served.recall, expected.recall);
  EXPECT_EQ(served.ndcg, expected.ndcg);
  EXPECT_EQ(served.mrr, expected.mrr);
}

TEST(TgcnTest, HandlesItemsWithoutTags) {
  Dataset ds;
  ds.num_users = 2;
  ds.num_items = 3;
  ds.num_tags = 2;
  ds.interactions = {{0, 0}, {0, 1}, {1, 1}, {1, 2}};
  ds.item_tags = {{0, 0}};  // Items 1 and 2 are untagged.
  DataSplit split;
  split.train = ds.interactions;
  Tgcn tgcn(ds, split, AdamOptions{}, 4, 8, 3);
  Rng rng(5);
  EXPECT_TRUE(std::isfinite(tgcn.TrainStep(&rng)));
  std::vector<float> scores;
  tgcn.ScoreItemsForUser(0, &scores);
  for (float s : scores) EXPECT_TRUE(std::isfinite(s));
}

}  // namespace
}  // namespace imcat
