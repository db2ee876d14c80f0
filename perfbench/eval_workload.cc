// Workload eval_fullrank: repeated full-rank Evaluator::Evaluate passes
// over the test split for a trained L-IMCAT and a trained B-IMCAT, on a
// larger scale of the CiteULike preset than train_limcat. Each round
// evaluates each model serially and through the pool (four operations);
// every pooled result must be bit-identical to the serial one.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "eval/metrics.h"
#include "trace.h"
#include "train/trainer.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

constexpr const char* kPreset = "CiteULike";
constexpr double kScale = 0.5;
constexpr int64_t kDim = 32;
constexpr int64_t kSetupEpochs = 4;
constexpr int kTopN = 20;

struct Model {
  std::string label;  ///< "limcat" / "bimcat".
  std::unique_ptr<imcat::ImcatModel> model;
  imcat::EvalResult serial;
  std::vector<double> serial_s;
  std::vector<double> pooled_s;
};

/// One Evaluate pass assembled from the public calls Evaluate makes, each
/// stage timed: scoring in batch_users blocks, top-N selection, metrics.
/// Returns the scoring stage's time (ms) and adds the users it scored to
/// `*scored_users`.
double ProbeStages(const Model& m, const Data& data,
                   const imcat::Evaluator& evaluator, int64_t* scored_users,
                   Report* report) {
  const std::string prefix = "eval." + m.label + ".";
  m.model->backbone()->InvalidateEvalCache();
  double start = NowMs();
  m.model->PrepareScoring();
  report->Detail(prefix + "prepare_ms", NowMs() - start, "ms");

  const std::vector<imcat::ItemSet> relevant =
      evaluator.RelevantSets(data.split.test);
  std::vector<int64_t> users;
  for (int64_t u = 0; u < data.dataset.num_users; ++u) {
    if (!relevant[static_cast<size_t>(u)].empty()) users.push_back(u);
  }
  const int64_t batch = evaluator.batch_users();
  const int64_t items = data.dataset.num_items;
  double score_ms = 0.0, select_ms = 0.0, metrics_ms = 0.0, sink = 0.0;
  for (size_t lo = 0; lo < users.size(); lo += static_cast<size_t>(batch)) {
    const std::vector<int64_t> block(
        users.begin() + static_cast<std::ptrdiff_t>(lo),
        users.begin() + static_cast<std::ptrdiff_t>(
                            std::min(users.size(), lo + batch)));
    start = NowMs();
    std::vector<float> scores;  // Fresh per block, as in Evaluate.
    m.model->ScoreItemsForUsers(block, &scores);
    score_ms += NowMs() - start;
    for (size_t pos = 0; pos < block.size(); ++pos) {
      start = NowMs();
      const std::vector<int64_t> top = evaluator.TopNFromScores(
          block[pos], scores.data() + static_cast<int64_t>(pos) * items,
          kTopN);
      select_ms += NowMs() - start;
      start = NowMs();
      const imcat::ItemSet& rel = relevant[static_cast<size_t>(block[pos])];
      sink += imcat::RecallAtN(top, rel, kTopN) +
              imcat::NdcgAtN(top, rel, kTopN) +
              imcat::PrecisionAtN(top, rel, kTopN) +
              imcat::HitRateAtN(top, rel, kTopN) +
              imcat::MrrAtN(top, rel, kTopN);
      metrics_ms += NowMs() - start;
    }
  }
  report->Check(sink >= 0.0, prefix + "stage probe produced a bad metric");
  report->Detail(prefix + "score_ms", score_ms, "ms");
  report->Detail(prefix + "select_ms", select_ms, "ms");
  report->Detail(prefix + "metrics_ms", metrics_ms, "ms");
  const double serial_ms = Median(m.serial_s) * 1e3;
  report->Detail(prefix + "stage_share",
                   serial_ms > 0.0
                       ? (score_ms + select_ms + metrics_ms) / serial_ms
                       : 0.0,
                   "ratio");
  report->Detail(prefix + "pool_speedup",
                 Median(m.serial_s) / Median(m.pooled_s), "ratio");
  *scored_users += static_cast<int64_t>(users.size());
  return score_ms;
}

}  // namespace

void RunEvalFullrank(const Args& args, Report* report) {
  const Data data = MakeData(kPreset, kScale, args.seed);
  imcat::Evaluator evaluator(data.dataset, data.split);
  imcat::ThreadPoolOptions pool_options;
  pool_options.num_threads = PoolThreads();
  imcat::ThreadPool pool(pool_options);

  // Set-up: train each model briefly; it must beat its untrained self.
  std::vector<Model> models(2);
  models[0].label = "limcat";
  models[0].model = MakeImcat("LightGCN", data, kDim, SubSeed(args.seed, 3));
  models[1].label = "bimcat";
  models[1].model = MakeImcat("BPRMF", data, kDim, SubSeed(args.seed, 5));
  for (Model& m : models) {
    Span span("train.setup_fit");
    const imcat::EvalResult untrained =
        evaluator.Evaluate(*m.model, data.split.test, kTopN, {}, &pool);
    imcat::TrainerOptions options;
    options.max_epochs = kSetupEpochs;
    options.eval_every = kSetupEpochs;
    options.patience = kSetupEpochs + 1;
    options.seed = SubSeed(args.seed, 4);
    options.pool = &pool;
    const imcat::TrainHistory history =
        imcat::Trainer(&evaluator, &data.split).Fit(m.model.get(), options);
    report->Check(history.status.ok(),
                  m.label + " set-up Fit: " + history.status.ToString());
    m.serial = evaluator.Evaluate(*m.model, data.split.test, kTopN);
    report->Check(m.serial.recall > untrained.recall &&
                      m.serial.ndcg > untrained.ndcg,
                  m.label + ": trained model does not beat its untrained self");
  }
  const double setup_s = SecondsSinceProcessStart();

  std::vector<double> pooled_rate, serial_rate;
  const double begin = NowSec();
  do {
    int64_t users = 0;
    double serial_total = 0.0, pooled_total = 0.0;
    for (Model& m : models) {
      double start = NowSec();
      imcat::EvalResult serial, pooled;
      {
        Span span("eval.evaluate_serial");
        serial = evaluator.Evaluate(*m.model, data.split.test, kTopN);
      }
      m.serial_s.push_back(NowSec() - start);
      report->Operation(serial.num_users > 0, m.label + " serial Evaluate");
      start = NowSec();
      {
        Span span("eval.evaluate_pooled");
        pooled =
            evaluator.Evaluate(*m.model, data.split.test, kTopN, {}, &pool);
      }
      m.pooled_s.push_back(NowSec() - start);
      report->Operation(pooled.num_users > 0, m.label + " pooled Evaluate");
      report->Check(BitIdentical(serial, m.serial) &&
                        BitIdentical(pooled, m.serial),
                    m.label + ": Evaluate is not bit-identical across passes "
                              "and pool use");
      users += serial.num_users;
      serial_total += m.serial_s.back();
      pooled_total += m.pooled_s.back();
    }
    serial_rate.push_back(static_cast<double>(users) / serial_total);
    pooled_rate.push_back(static_cast<double>(users) / pooled_total);
  } while (NowSec() - begin < args.seconds);

  // Independent recomputation of the ranking metrics, after measuring.
  for (const Model& m : models) {
    CheckAgainstReference(
        m.label + " test", m.serial,
        ReferenceFullRank(*m.model, data.dataset.num_users,
                          data.dataset.num_items, data.split.train,
                          data.split.test, kTopN),
        report);
  }

  // The common metrics: latency_ms is one pooled full-rank pass of both
  // models, latency_alt_ms one serial pass; each model's pass is the
  // fastest of the rounds.
  double latency_ms = 0.0, latency_alt_ms = 0.0;
  for (const Model& m : models) {
    latency_ms += Fastest(m.pooled_s) * 1e3;
    latency_alt_ms += Fastest(m.serial_s) * 1e3;
  }
  report->EndToEnd("setup_s", setup_s, "s");
  report->EndToEnd("latency_ms", latency_ms, "ms");
  report->EndToEnd("latency_alt_ms", latency_alt_ms, "ms");
  report->PerLayer("data.generate_ms", data.generate_ms, "ms");
  report->PerLayer("data.split_ms", data.split_ms, "ms");
  report->PerLayer("traced_latency_ms", latency_ms, "ms");
  report->PerLayer("traced_latency_alt_ms", latency_alt_ms, "ms");

  report->Detail("eval.users_per_s", Median(pooled_rate), "users/s");
  report->Detail("eval.serial_users_per_s", Median(serial_rate), "users/s");
  for (const Model& m : models) {
    report->Detail("eval." + m.label + ".test_recall20", m.serial.recall,
                   "ratio");
    report->Detail("eval." + m.label + ".test_ndcg20", m.serial.ndcg,
                   "ratio");
  }
  if (Trace::enabled()) {
    double score_ms = 0.0;
    int64_t scored_users = 0;
    for (const Model& m : models) {
      score_ms += ProbeStages(m, data, evaluator, &scored_users, report);
    }
    report->PerLayer("score_us_per_user",
                     score_ms * 1e3 /
                         static_cast<double>(std::max<int64_t>(1, scored_users)),
                     "us");
  }
}

}  // namespace perfbench
