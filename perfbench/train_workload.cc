// Workload train_limcat: Trainer::Fit of L-IMCAT on the CiteULike preset
// for a fixed epoch budget (pre-training, then the joint objective), with
// validation through a pool every few epochs and early stopping that
// cannot fire. Each round builds a fresh model and runs four operations:
// evaluate it untrained, Fit it, evaluate it on the test split (with the
// output checks), and export it for serving.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/alignment.h"
#include "core/independence.h"
#include "core/intent_clustering.h"
#include "core/positive_samples.h"
#include "core/set_alignment.h"
#include "serve/recommender.h"
#include "serve/snapshot.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "trace.h"
#include "train/sampler.h"
#include "train/trainer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

constexpr const char* kPreset = "CiteULike";
constexpr double kScale = 0.1;
constexpr int64_t kDim = 32;
constexpr int64_t kEpochs = 20;
constexpr int64_t kEvalEvery = 5;
constexpr int kTopN = 20;
constexpr int64_t kExportCheckUsers = 32;
constexpr int kProbeReps = 5;

/// Forwards every call to the L-IMCAT model, stamps the start of each epoch
/// and, in the traced run, opens a span around each call Fit makes into
/// it: one per TrainStep (named by the phase the step runs in) and one per
/// validation pass, which starts when the Evaluator prepares the ranker and
/// ends when training resumes.
class TracedModel : public imcat::TrainableModel {
 public:
  explicit TracedModel(imcat::ImcatModel* inner) : inner_(inner) {}

  double TrainStep(imcat::Rng* rng) override {
    EndValidation();
    const bool joint = steps_ >= inner_->config().pretrain_steps;
    ++steps_;
    Span span(joint ? "train.joint_step" : "train.pretrain_step");
    return inner_->TrainStep(rng);
  }
  int64_t StepsPerEpoch() const override { return inner_->StepsPerEpoch(); }
  void OnEpochBegin(int64_t epoch) override {
    EndValidation();
    epoch_starts_.push_back(NowSec());
    inner_->OnEpochBegin(epoch);
  }
  std::vector<imcat::Tensor> Parameters() override {
    return inner_->Parameters();
  }
  imcat::AdamOptimizer* optimizer() override { return inner_->optimizer(); }
  void set_thread_pool(imcat::ThreadPool* pool) override {
    inner_->set_thread_pool(pool);
  }
  std::string name() const override { return inner_->name(); }
  void ScoreItemsForUser(int64_t user,
                         std::vector<float>* scores) const override {
    inner_->ScoreItemsForUser(user, scores);
  }
  void ScoreItemsForUsers(const std::vector<int64_t>& users,
                          std::vector<float>* scores) const override {
    inner_->ScoreItemsForUsers(users, scores);
  }
  void PrepareScoring() const override {
    if (validation_span_ < 0) validation_span_ = Trace::Begin("train.validate");
    inner_->PrepareScoring();
  }

  /// Closes an open validation span (also called once Fit returns).
  void EndValidation() const {
    Trace::End(validation_span_);
    validation_span_ = -1;
  }

  /// When each epoch began (NowSec), in order.
  const std::vector<double>& epoch_starts() const { return epoch_starts_; }

 private:
  imcat::ImcatModel* inner_;
  std::vector<double> epoch_starts_;
  int64_t steps_ = 0;
  mutable int64_t validation_span_ = -1;
};

std::vector<std::vector<int64_t>> TrainItemsByUser(const Data& data) {
  std::vector<std::vector<int64_t>> out(
      static_cast<size_t>(data.dataset.num_users));
  for (const auto& [u, v] : data.split.train) {
    out[static_cast<size_t>(u)].push_back(v);
  }
  return out;
}

/// The serving export operation: export the trained model, load it the
/// way the serving layer does, and require the snapshot's top-K (training
/// items excluded) to equal the Evaluator's top-N for sampled users.
bool ExportAndCompare(imcat::ImcatModel* model, const Data& data,
                      const imcat::Evaluator& evaluator,
                      const std::string& path, uint64_t seed,
                      std::string* error) {
  Span span("serve.export_check");
  imcat::Status exported = imcat::ExportServingCheckpoint(model, path);
  if (!exported.ok()) {
    *error = "ExportServingCheckpoint: " + exported.ToString();
    return false;
  }
  auto loaded = imcat::EmbeddingSnapshot::Load(path);
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  if (!loaded.ok()) {
    *error = "EmbeddingSnapshot::Load of the exported L-IMCAT: " +
             loaded.status().ToString();
    return false;
  }
  const imcat::EmbeddingSnapshot& snapshot = *loaded.value();
  const auto seen = TrainItemsByUser(data);
  imcat::Recommender recommender;
  imcat::Rng rng(SubSeed(seed, 40));
  for (int64_t i = 0; i < kExportCheckUsers; ++i) {
    const int64_t u = rng.UniformInt(data.dataset.num_users);
    std::vector<imcat::ScoredItem> served;
    imcat::Status st = recommender.TopK(snapshot, u, kTopN, -1.0,
                                        seen[static_cast<size_t>(u)], &served);
    const std::vector<int64_t> expected =
        evaluator.TopNForUser(*model, u, kTopN);
    bool same = st.ok() && served.size() == expected.size();
    for (size_t r = 0; same && r < served.size(); ++r) {
      same = served[r].item == expected[r];
    }
    if (!same) {
      *error = "snapshot top-K of user " + std::to_string(u) +
               " differs from Evaluator::TopNForUser";
      return false;
    }
  }
  return true;
}

template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const double start = NowMs();
    fn();
    ms.push_back(NowMs() - start);
  }
  return Median(ms);
}

/// Per-step component probes: one training step assembled from the same
/// public calls ImcatModel::TrainStep makes, at this workload's shapes and
/// the trained model's state, each call timed on its own.
void ProbeStepComponents(imcat::ImcatModel* model, const Data& data,
                         imcat::ThreadPool* pool, uint64_t seed,
                         Report* report) {
  const imcat::ImcatConfig& config = model->config();
  const imcat::Dataset& ds = data.dataset;
  imcat::Backbone* backbone = model->backbone();
  imcat::Tensor tags = model->tag_embeddings();
  imcat::Rng rng(SubSeed(seed, 50));

  imcat::TripletSampler ui(ds.num_users, ds.num_items, data.split.train);
  imcat::TripletSampler vt(ds.num_items, ds.num_tags, ds.item_tags);
  imcat::ItemBatchSampler items(ds.num_items, data.split.train);
  report->Detail("train.sample_ms", MedianMs(kProbeReps, [&] {
                     imcat::TripletBatch a, b;
                     std::vector<int64_t> anchors;
                     ui.SampleBatch(config.batch_size, &rng, &a, pool);
                     vt.SampleBatch(config.batch_size, &rng, &b, pool);
                     items.SampleBatch(config.ca_batch_size, &rng, &anchors);
                   }),
                   "ms");

  report->Detail("models.propagate_ms", MedianMs(kProbeReps, [&] {
                     backbone->BeginStep();
                   }),
                   "ms");

  imcat::AlignmentHead head(config.num_intents, backbone->embedding_dim(),
                            config.seed ^ 0xa11a9bedULL);
  std::vector<double> ca_ms, loss_ms, backward_ms;
  for (int r = 0; r < kProbeReps; ++r) {
    backbone->BeginStep();
    std::vector<int64_t> anchors;
    items.SampleBatch(config.ca_batch_size, &rng, &anchors);
    double start = NowMs();
    imcat::CaBatch batch = imcat::BuildCaBatch(
        model->positive_index(), backbone->UserEmbeddings(), tags,
        backbone->ItemEmbeddings(), anchors, config, &rng);
    ca_ms.push_back(NowMs() - start);
    start = NowMs();
    imcat::Tensor loss = head.Loss(batch.user_agg, batch.tag_aggs,
                                   batch.item_embs, batch.weights, config);
    loss_ms.push_back(NowMs() - start);
    start = NowMs();
    imcat::Backward(loss);
    backward_ms.push_back(NowMs() - start);
  }
  report->Detail("core.ca_batch_ms", Median(ca_ms), "ms");
  report->Detail("core.align_loss_ms", Median(loss_ms), "ms");
  report->Detail("core.align_backward_ms", Median(backward_ms), "ms");

  report->Detail("core.kl_loss_ms", MedianMs(kProbeReps, [&] {
                     model->clustering().KlLoss(tags);
                   }),
                   "ms");
  report->Detail("core.independence_ms", MedianMs(kProbeReps, [&] {
                     imcat::IntentIndependenceLoss(
                         backbone->UserEmbeddings(), config.num_intents,
                         config.independence_sample_rows, &rng);
                   }),
                   "ms");

  imcat::IntentClustering clustering(config.num_intents,
                                     backbone->embedding_dim(), config.eta,
                                     config.seed ^ 0x5eedbeefULL);
  clustering.WarmStart(tags, &rng);
  imcat::PositiveSampleIndex index(ds, data.split.train, config.num_intents);
  report->Detail("core.cluster_refresh_ms", MedianMs(kProbeReps, [&] {
                     clustering.UpdateHardAssignments(tags);
                     index.SetAssignments(clustering.assignments());
                   }),
                   "ms");
  report->Detail("core.isa_rebuild_ms", MedianMs(kProbeReps, [&] {
                     index.BuildSimilarSets(config.jaccard_threshold,
                                            config.max_similar_items);
                   }),
                   "ms");
  // Runs last: the step applies the gradients the probes accumulated.
  report->Detail("tensor.adam_step_ms", MedianMs(kProbeReps, [&] {
                     model->optimizer()->Step();
                   }),
                   "ms");

  // The alignment logits GEMM (B x c) * (B x c)^T, c = d / K, outside
  // autograd; and the forward GEMM flops one AlignmentHead::Loss call
  // issues at these shapes (tag projection, two NLT layers on each side,
  // two logits products per intent).
  const int64_t b = config.ca_batch_size;
  const int64_t d = backbone->embedding_dim();
  const int64_t c = d / config.num_intents;
  imcat::Tensor lhs(b, c, std::vector<float>(static_cast<size_t>(b * c), 0.5f));
  imcat::Tensor rhs(b, c, std::vector<float>(static_cast<size_t>(b * c), 0.25f));
  int64_t reps = 0;
  const double start = NowSec();
  while (NowSec() - start < 0.2) {
    imcat::ops::MatMulNT(lhs, rhs);
    ++reps;
  }
  const double seconds = NowSec() - start;
  report->Detail("tensor.gemm_gflops",
                   2.0 * b * b * c * static_cast<double>(reps) / seconds / 1e9,
                   "GFLOP/s");
  const double flops = static_cast<double>(config.num_intents) *
                       (2.0 * b * d * c + 8.0 * b * c * c + 4.0 * b * b * c);
  report->Detail("core.align_gemm_flops", flops, "count");
}

/// Scoring cost per user of the trained model: ScoreItemsForUsers over the
/// test users in the Evaluator's blocks, a fresh score buffer per block as
/// in Evaluate. Median of kProbeReps passes.
double ScoreUsPerUser(const imcat::ImcatModel& model, const Data& data,
                      const imcat::Evaluator& evaluator) {
  const std::vector<imcat::ItemSet> relevant =
      evaluator.RelevantSets(data.split.test);
  std::vector<int64_t> users;
  for (int64_t u = 0; u < data.dataset.num_users; ++u) {
    if (!relevant[static_cast<size_t>(u)].empty()) users.push_back(u);
  }
  const size_t batch = static_cast<size_t>(evaluator.batch_users());
  model.PrepareScoring();
  const double pass_ms = MedianMs(kProbeReps, [&] {
    for (size_t lo = 0; lo < users.size(); lo += batch) {
      const std::vector<int64_t> block(
          users.begin() + static_cast<std::ptrdiff_t>(lo),
          users.begin() + static_cast<std::ptrdiff_t>(
                              std::min(users.size(), lo + batch)));
      std::vector<float> scores;
      model.ScoreItemsForUsers(block, &scores);
    }
  });
  return pass_ms * 1e3 / static_cast<double>(std::max<size_t>(1, users.size()));
}

}  // namespace

void RunTrainLimcat(const Args& args, Report* report) {
  const Data data = MakeData(kPreset, kScale, args.seed);
  imcat::Evaluator evaluator(data.dataset, data.split);
  imcat::ThreadPoolOptions pool_options;
  pool_options.num_threads = PoolThreads();
  imcat::ThreadPool pool(pool_options);
  const std::string export_path =
      args.out_dir + "/limcat-export-" + std::to_string(::getpid()) + ".ims";
  const double setup_s = SecondsSinceProcessStart();

  std::vector<double> fit_s, serial_ms, pooled_ms;
  // Fit's wall time cut at each epoch start: segment 0 runs from the call
  // to the first epoch, segment e + 1 is epoch e with its validation (the
  // last one ends when Fit returns). One vector of durations per segment.
  std::vector<std::vector<double>> segment_s(kEpochs + 1);
  double test_recall = 0.0, test_ndcg = 0.0;
  std::unique_ptr<imcat::ImcatModel> model;
  const uint64_t model_seed = SubSeed(args.seed, 3);
  const double begin = NowSec();
  do {
    model = MakeImcat("LightGCN", data, kDim, model_seed);

    // Operation 1: the untrained model's test quality (the floor the
    // trained model must beat).
    const imcat::EvalResult untrained =
        evaluator.Evaluate(*model, data.split.test, kTopN);
    report->Operation(untrained.num_users > 0, "untrained evaluation");

    // Operation 2: Fit for the fixed epoch budget.
    imcat::TrainerOptions options;
    options.max_epochs = kEpochs;
    options.eval_every = kEvalEvery;
    options.patience = kEpochs + 1;  // Early stopping cannot fire.
    options.top_n = kTopN;
    options.seed = SubSeed(args.seed, 4);
    options.pool = &pool;
    TracedModel traced(model.get());
    const double fit_start = NowSec();
    imcat::TrainHistory history;
    {
      Span span("train.fit");
      history = imcat::Trainer(&evaluator, &data.split).Fit(&traced, options);
      traced.EndValidation();
    }
    const double fit_end = NowSec();
    fit_s.push_back(fit_end - fit_start);
    std::vector<double> cuts = {fit_start};
    cuts.insert(cuts.end(), traced.epoch_starts().begin(),
                traced.epoch_starts().end());
    cuts.push_back(fit_end);
    if (cuts.size() == segment_s.size() + 1) {
      for (size_t k = 0; k < segment_s.size(); ++k) {
        segment_s[k].push_back(cuts[k + 1] - cuts[k]);
      }
    }
    report->Operation(history.status.ok() && history.epochs_run == kEpochs,
                      "Fit: " + history.status.ToString() + ", " +
                          std::to_string(history.epochs_run) + " epochs");

    // Operation 3: test evaluation, serial and pooled, with the checks.
    imcat::EvalResult serial, pooled;
    {
      Span span("eval.test");
      double start = NowMs();
      serial = evaluator.Evaluate(*model, data.split.test, kTopN);
      serial_ms.push_back(NowMs() - start);
      start = NowMs();
      pooled = evaluator.Evaluate(*model, data.split.test, kTopN, {}, &pool);
      pooled_ms.push_back(NowMs() - start);
    }
    report->Operation(serial.num_users > 0, "test evaluation");
    report->Check(BitIdentical(serial, pooled),
                  "pooled Evaluate differs from serial Evaluate");
    CheckAgainstReference(
        "L-IMCAT test",
        serial,
        ReferenceFullRank(*model, data.dataset.num_users,
                          data.dataset.num_items, data.split.train,
                          data.split.test, kTopN),
        report);
    report->Check(serial.recall > untrained.recall &&
                      serial.ndcg > untrained.ndcg,
                  "trained L-IMCAT does not beat the untrained model");
    test_recall = serial.recall;
    test_ndcg = serial.ndcg;

    // Operation 4: serving export of the trained model.
    std::string error;
    const bool exported =
        ExportAndCompare(model.get(), data, evaluator, export_path,
                         args.seed, &error);
    report->Operation(exported, "L-IMCAT serving export: " + error);
  } while (NowSec() - begin < args.seconds);

  // The common metrics: latency_ms is one Fit, summed over its segments,
  // each the fastest of the rounds; latency_alt_ms is the fastest serial
  // test Evaluate of the trained model.
  double latency_ms = 0.0;
  for (const std::vector<double>& segment : segment_s) {
    latency_ms += Fastest(segment) * 1e3;
  }
  const double latency_alt_ms = Fastest(serial_ms);
  report->EndToEnd("setup_s", setup_s, "s");
  report->EndToEnd("latency_ms", latency_ms, "ms");
  report->EndToEnd("latency_alt_ms", latency_alt_ms, "ms");
  report->PerLayer("data.generate_ms", data.generate_ms, "ms");
  report->PerLayer("data.split_ms", data.split_ms, "ms");
  report->PerLayer("traced_latency_ms", latency_ms, "ms");
  report->PerLayer("traced_latency_alt_ms", latency_alt_ms, "ms");

  report->Detail("train.fit_s", Median(fit_s), "s");
  report->Detail("train.test_serial_ms", Median(serial_ms), "ms");
  report->Detail("train.test_pooled_ms", Median(pooled_ms), "ms");
  report->Detail("train.test_recall20", test_recall, "ratio");
  report->Detail("train.test_ndcg20", test_ndcg, "ratio");
  if (Trace::enabled()) {
    report->PerLayer("score_us_per_user",
                     ScoreUsPerUser(*model, data, evaluator), "us");
    const auto totals = Trace::Summarize();
    auto mean_ms = [&](const char* name) {
      auto it = totals.find(name);
      return it == totals.end() || it->second.count == 0
                 ? 0.0
                 : it->second.total_ms / static_cast<double>(it->second.count);
    };
    report->Detail("train.pretrain_step_ms", mean_ms("train.pretrain_step"),
                   "ms");
    report->Detail("train.joint_step_ms", mean_ms("train.joint_step"), "ms");
    report->Detail("train.validate_ms", mean_ms("train.validate"), "ms");
    // Share of Fit's wall time the step and validation spans cover.
    auto total = [&](const char* name) {
      auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.total_ms;
    };
    const double fit_ms = total("train.fit");
    report->Detail("train.traced_fit_s",
                   fit_ms / 1e3 / static_cast<double>(fit_s.size()), "s");
    report->Detail(
        "train.layer_share",
        fit_ms > 0.0 ? (total("train.pretrain_step") +
                        total("train.joint_step") + total("train.validate")) /
                           fit_ms
                     : 0.0,
        "ratio");
    ProbeStepComponents(model.get(), data, &pool, args.seed, report);
  }
}

}  // namespace perfbench
