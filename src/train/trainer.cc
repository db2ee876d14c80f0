#include "train/trainer.h"

#include <cstring>
#include <fstream>

#include "serve/shard_format.h"
#include "serve/snapshot_store.h"
#include "tensor/checkpoint.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace imcat {

namespace {

std::vector<std::vector<float>> SnapshotParameters(TrainableModel* model) {
  std::vector<std::vector<float>> snapshot;
  for (Tensor& t : model->Parameters()) {
    snapshot.emplace_back(t.data(), t.data() + t.size());
  }
  return snapshot;
}

void RestoreParameters(TrainableModel* model,
                       const std::vector<std::vector<float>>& snapshot) {
  std::vector<Tensor> params = model->Parameters();
  IMCAT_CHECK_EQ(params.size(), snapshot.size());
  for (size_t i = 0; i < params.size(); ++i) {
    IMCAT_CHECK_EQ(static_cast<size_t>(params[i].size()), snapshot[i].size());
    std::memcpy(params[i].data(), snapshot[i].data(),
                snapshot[i].size() * sizeof(float));
    params[i].MarkRestored();
  }
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

/// Everything needed to rewind the training loop to an epoch boundary:
/// parameters, optimiser moments and the RNG stream. Best-validation
/// tracking is not included because it only advances on healthy epochs,
/// which are never rolled back.
struct HealthySnapshot {
  int64_t next_epoch = 0;
  std::vector<std::vector<float>> params;
  bool has_optimizer = false;
  AdamStateSnapshot optimizer;
  RngState rng;
};

HealthySnapshot TakeSnapshot(TrainableModel* model, AdamOptimizer* optimizer,
                             const Rng& rng, int64_t next_epoch) {
  HealthySnapshot snapshot;
  snapshot.next_epoch = next_epoch;
  snapshot.params = SnapshotParameters(model);
  if (optimizer != nullptr) {
    snapshot.has_optimizer = true;
    snapshot.optimizer = optimizer->ExportState();
  }
  snapshot.rng = rng.GetState();
  return snapshot;
}

void RestoreSnapshot(const HealthySnapshot& snapshot, TrainableModel* model,
                     AdamOptimizer* optimizer, Rng* rng) {
  RestoreParameters(model, snapshot.params);
  if (snapshot.has_optimizer && optimizer != nullptr) {
    Status st = optimizer->ImportState(snapshot.optimizer);
    IMCAT_CHECK(st.ok());  // Same-process snapshot: sizes always match.
  }
  rng->SetState(snapshot.rng);
}

}  // namespace

Trainer::Trainer(const Evaluator* evaluator, const DataSplit* split)
    : evaluator_(evaluator), split_(split) {
  IMCAT_CHECK(evaluator != nullptr);
  IMCAT_CHECK(split != nullptr);
}

TrainHistory Trainer::Fit(TrainableModel* model,
                          const TrainerOptions& options) const {
  IMCAT_CHECK(model != nullptr);
  IMCAT_CHECK_GT(options.max_epochs, 0);
  IMCAT_CHECK_GT(options.eval_every, 0);
  IMCAT_CHECK_GT(options.health.lr_backoff, 0.0);
  IMCAT_CHECK_LT(options.health.lr_backoff, 1.0);

  Rng rng(options.seed);
  TrainHistory history;
  AdamOptimizer* optimizer = model->optimizer();
  HealthMonitor health(options.health);
  model->set_thread_pool(options.pool);

  // Observability handles (DESIGN.md §9); all null when uninstrumented so
  // the loop below pays nothing but a pointer test per site.
  Counter* epochs_total = nullptr;
  Counter* steps_total = nullptr;
  Counter* rollbacks_total = nullptr;
  Counter* ckpt_writes_total = nullptr;
  Counter* ckpt_failures_total = nullptr;
  Gauge* loss_gauge = nullptr;
  Gauge* grad_norm_gauge = nullptr;
  Gauge* lr_scale_gauge = nullptr;
  Gauge* steps_per_sec_gauge = nullptr;
  Histogram* epoch_ms_hist = nullptr;
  Histogram* step_ms_hist = nullptr;
  Histogram* eval_ms_hist = nullptr;
  if (options.metrics != nullptr) {
    MetricsRegistry* m = options.metrics;
    epochs_total = m->GetCounter("train_epochs_total");
    steps_total = m->GetCounter("train_steps_total");
    rollbacks_total = m->GetCounter("train_rollbacks_total");
    ckpt_writes_total = m->GetCounter("train_checkpoint_writes_total");
    ckpt_failures_total = m->GetCounter("train_checkpoint_failures_total");
    loss_gauge = m->GetGauge("train_loss");
    grad_norm_gauge = m->GetGauge("train_grad_norm");
    lr_scale_gauge = m->GetGauge("train_lr_scale");
    steps_per_sec_gauge = m->GetGauge("train_steps_per_sec");
    epoch_ms_hist = m->GetHistogram("train_epoch_ms");
    step_ms_hist = m->GetHistogram("train_step_ms");
    eval_ms_hist = m->GetHistogram("train_eval_ms");
  }
  RunJournal* journal = options.journal;
  // Appends "run_end", flushes the journal and dumps the metrics snapshot;
  // runs on every exit path of Fit, including resume failures.
  auto finish_run = [&]() {
    if (journal != nullptr) {
      JournalEvent event("run_end");
      event.Set("model", model->name())
          .Set("epochs_run", history.epochs_run)
          .Set("best_epoch", history.best_epoch)
          .Set("best_recall", history.best_validation.recall)
          .Set("rollbacks", history.rollbacks)
          .Set("train_seconds", history.train_seconds)
          .Set("ok", history.status.ok());
      if (!history.status.ok()) event.Set("error", history.status.ToString());
      journal->Append(event);
      Status flushed = journal->Flush();
      if (!flushed.ok()) {
        IMCAT_LOG(WARNING) << model->name()
                           << " journal flush failed: " << flushed.ToString();
      }
    }
    if (options.metrics != nullptr && !options.metrics_out.empty()) {
      Status written = WriteMetricsFile(*options.metrics, options.metrics_out);
      if (!written.ok()) {
        IMCAT_LOG(WARNING) << model->name() << " metrics dump failed: "
                           << written.ToString();
      }
    }
  };

  if (options.verbose && !options.data_provenance.empty()) {
    IMCAT_LOG(INFO) << model->name()
                    << " ingest: " << options.data_provenance;
  }

  std::vector<std::vector<float>> best_snapshot;
  double best_recall = -1.0;
  int64_t evals_without_improvement = 0;
  double train_seconds = 0.0;
  double lr_scale = 1.0;
  int64_t start_epoch = 0;

  if (!options.resume_path.empty() && FileExists(options.resume_path)) {
    std::vector<Tensor> params = model->Parameters();
    TrainState state;
    bool has_state = false;
    Status st = LoadTrainingCheckpoint(options.resume_path, &params, &state,
                                       &has_state);
    if (!st.ok()) {
      history.status = st;
      finish_run();
      return history;
    }
    if (has_state) {
      rng.SetState(state.rng);
      start_epoch = state.epoch;
      best_recall = state.best_recall;
      evals_without_improvement = state.evals_without_improvement;
      train_seconds = state.train_seconds;
      lr_scale = state.lr_scale;
      history.best_epoch = state.best_epoch;
      if (best_recall >= 0.0) {
        history.best_validation.recall = state.best_recall;
        history.best_validation.ndcg = state.best_ndcg;
        history.best_validation.precision = state.best_precision;
        history.best_validation.hit_rate = state.best_hit_rate;
        history.best_validation.mrr = state.best_mrr;
        history.best_validation.num_users = state.best_num_users;
      }
      if (optimizer != nullptr) {
        if (state.has_optimizer) {
          st = optimizer->ImportState(state.optimizer);
          if (!st.ok()) {
            history.status = st;
            finish_run();
            return history;
          }
        }
        if (lr_scale != 1.0) {
          optimizer->ScaleLearningRate(static_cast<float>(lr_scale));
        }
      }
      if (state.has_best_params) best_snapshot = std::move(state.best_params);
    }
    history.resumed = true;
    history.start_epoch = start_epoch;
    history.epochs_run = start_epoch;
    if (options.verbose) {
      IMCAT_LOG(INFO) << model->name() << " resumed from "
                      << options.resume_path << " at epoch " << start_epoch;
    }
  }

  if (journal != nullptr) {
    journal->Append(JournalEvent("run_start")
                        .Set("model", model->name())
                        .Set("max_epochs", options.max_epochs)
                        .Set("seed", static_cast<int64_t>(options.seed))
                        .Set("resumed", history.resumed)
                        .Set("start_epoch", start_epoch));
  }

  auto write_checkpoint = [&](int64_t next_epoch) {
    TrainState state;
    state.epoch = next_epoch;
    state.best_epoch = history.best_epoch;
    state.best_recall = best_recall;
    state.best_ndcg = history.best_validation.ndcg;
    state.best_precision = history.best_validation.precision;
    state.best_hit_rate = history.best_validation.hit_rate;
    state.best_mrr = history.best_validation.mrr;
    state.best_num_users = history.best_validation.num_users;
    state.train_seconds = train_seconds;
    state.evals_without_improvement = evals_without_improvement;
    state.lr_scale = lr_scale;
    state.rng = rng.GetState();
    if (optimizer != nullptr) {
      state.has_optimizer = true;
      state.optimizer = optimizer->ExportState();
    }
    if (!best_snapshot.empty()) {
      state.has_best_params = true;
      state.best_params = best_snapshot;
    }
    Status st = SaveTrainingCheckpoint(options.checkpoint_path,
                                       model->Parameters(), state);
    if (!st.ok()) {
      // A failed periodic save must not kill the run: thanks to the atomic
      // write, any previous checkpoint survived and resume still works.
      IMCAT_LOG(WARNING) << model->name()
                         << " checkpoint failed: " << st.ToString();
      if (ckpt_failures_total != nullptr) ckpt_failures_total->Increment();
    } else if (ckpt_writes_total != nullptr) {
      ckpt_writes_total->Increment();
    }
    if (journal != nullptr) {
      JournalEvent event("checkpoint");
      event.Set("epoch", next_epoch)
          .Set("path", options.checkpoint_path)
          .Set("ok", st.ok());
      if (!st.ok()) event.Set("error", st.ToString());
      journal->Append(event);
    }
  };

  HealthySnapshot healthy;
  if (options.health.enabled) {
    healthy = TakeSnapshot(model, optimizer, rng, start_epoch);
  }

  for (int64_t epoch = start_epoch; epoch < options.max_epochs; ++epoch) {
    Stopwatch epoch_watch;
    model->OnEpochBegin(epoch);
    double loss_sum = 0.0;
    const int64_t steps = model->StepsPerEpoch();
    IMCAT_CHECK_GT(steps, 0);
    bool diverged = false;
    std::string divergence_reason;
    for (int64_t s = 0; s < steps; ++s) {
      const double step_start =
          step_ms_hist != nullptr ? MetricsNowMs() : 0.0;
      const double loss = model->TrainStep(&rng);
      if (step_ms_hist != nullptr) {
        step_ms_hist->Record(MetricsNowMs() - step_start);
      }
      if (options.health.enabled) {
        HealthVerdict verdict = health.CheckLoss(loss);
        if (!verdict.healthy) {
          diverged = true;
          divergence_reason = verdict.reason;
          break;
        }
      }
      loss_sum += loss;
    }
    if (!diverged && options.health.enabled &&
        options.health.check_parameters) {
      HealthVerdict verdict = health.CheckTensors(model->Parameters());
      if (!verdict.healthy) {
        diverged = true;
        divergence_reason = verdict.reason;
      }
    }
    const double epoch_seconds = epoch_watch.ElapsedSeconds();
    train_seconds += epoch_seconds;

    if (diverged) {
      if (!health.CanRollback()) {
        history.status = Status::FailedPrecondition(
            model->name() + " diverged at epoch " + std::to_string(epoch + 1) +
            " (" + divergence_reason + ") after exhausting " +
            std::to_string(options.health.max_rollbacks) + " rollbacks");
        RestoreSnapshot(healthy, model, optimizer, &rng);
        if (journal != nullptr) {
          journal->Append(JournalEvent("rollback")
                              .Set("epoch", epoch + 1)
                              .Set("reason", divergence_reason)
                              .Set("budget_exhausted", true));
        }
        break;
      }
      health.RecordRollback();
      ++history.rollbacks;
      history.rollback_epochs.push_back(epoch + 1);
      if (rollbacks_total != nullptr) rollbacks_total->Increment();
      RestoreSnapshot(healthy, model, optimizer, &rng);
      lr_scale *= options.health.lr_backoff;
      if (optimizer != nullptr) {
        optimizer->ScaleLearningRate(
            static_cast<float>(options.health.lr_backoff));
      }
      if (options.verbose) {
        IMCAT_LOG(WARNING) << model->name() << " epoch " << (epoch + 1)
                           << " diverged (" << divergence_reason
                           << "); rolled back to epoch " << healthy.next_epoch
                           << ", lr scale now " << lr_scale;
      }
      if (lr_scale_gauge != nullptr) lr_scale_gauge->Set(lr_scale);
      if (journal != nullptr) {
        journal->Append(JournalEvent("rollback")
                            .Set("epoch", epoch + 1)
                            .Set("reason", divergence_reason)
                            .Set("restored_epoch", healthy.next_epoch)
                            .Set("lr_scale", lr_scale));
      }
      epoch = healthy.next_epoch - 1;  // Loop increment re-runs next_epoch.
      continue;
    }

    history.epochs_run = epoch + 1;
    const double mean_loss = loss_sum / static_cast<double>(steps);
    const double last_grad_norm =
        optimizer != nullptr ? optimizer->last_grad_norm() : -1.0;
    if (epochs_total != nullptr) epochs_total->Increment();
    if (steps_total != nullptr) steps_total->Add(steps);
    if (epoch_ms_hist != nullptr) epoch_ms_hist->Record(epoch_seconds * 1e3);
    if (loss_gauge != nullptr) loss_gauge->Set(mean_loss);
    if (grad_norm_gauge != nullptr) grad_norm_gauge->Set(last_grad_norm);
    if (lr_scale_gauge != nullptr) lr_scale_gauge->Set(lr_scale);
    if (steps_per_sec_gauge != nullptr && epoch_seconds > 0.0) {
      steps_per_sec_gauge->Set(static_cast<double>(steps) / epoch_seconds);
    }
    if (options.health.enabled) {
      if (optimizer != nullptr) {
        health.RecordGradNorm(optimizer->last_grad_norm());
      }
      healthy = TakeSnapshot(model, optimizer, rng, epoch + 1);
    }

    bool stop = false;
    JournalEvent epoch_event("epoch");
    epoch_event.Set("epoch", epoch + 1)
        .Set("loss", mean_loss)
        .Set("grad_norm", last_grad_norm)
        .Set("lr_scale", lr_scale)
        .Set("steps", steps)
        .Set("epoch_ms", epoch_seconds * 1e3);
    const bool should_eval = (epoch + 1) % options.eval_every == 0 ||
                             epoch + 1 == options.max_epochs;
    if (should_eval) {
      const double eval_start =
          eval_ms_hist != nullptr || journal != nullptr ? MetricsNowMs() : 0.0;
      const EvalResult val = evaluator_->Evaluate(
          *model, split_->validation, options.top_n, {}, options.pool);
      if (eval_ms_hist != nullptr || journal != nullptr) {
        const double eval_ms = MetricsNowMs() - eval_start;
        if (eval_ms_hist != nullptr) eval_ms_hist->Record(eval_ms);
        epoch_event.Set("eval_ms", eval_ms)
            .Set("val_recall", val.recall)
            .Set("val_ndcg", val.ndcg);
      }
      ValidationPoint point;
      point.epoch = epoch + 1;
      point.train_loss = mean_loss;
      point.validation = val;
      point.elapsed_seconds = train_seconds;
      if (optimizer != nullptr) point.grad_norm = optimizer->last_grad_norm();
      history.points.push_back(point);
      if (options.verbose) {
        IMCAT_LOG(INFO) << model->name() << " epoch " << (epoch + 1)
                        << " loss=" << point.train_loss
                        << " val R@" << options.top_n << "=" << val.recall
                        << " N@" << options.top_n << "=" << val.ndcg;
      }

      if (val.recall > best_recall) {
        best_recall = val.recall;
        history.best_epoch = epoch + 1;
        history.best_validation = val;
        evals_without_improvement = 0;
        if (options.restore_best) best_snapshot = SnapshotParameters(model);
      } else {
        ++evals_without_improvement;
        if (evals_without_improvement >= options.patience) {
          if (options.verbose) {
            IMCAT_LOG(INFO) << model->name() << " early stop at epoch "
                            << (epoch + 1);
          }
          stop = true;
        }
      }
    }

    if (journal != nullptr) journal->Append(epoch_event);

    if (!options.checkpoint_path.empty() && options.checkpoint_every > 0 &&
        ((epoch + 1) % options.checkpoint_every == 0 || stop ||
         epoch + 1 == options.max_epochs)) {
      write_checkpoint(epoch + 1);
    }
    if (stop) break;
  }

  if (options.restore_best && !best_snapshot.empty()) {
    RestoreParameters(model, best_snapshot);
    // The restore made the eval caches stale (their version stamps no
    // longer match); rebuild them now, as the last validation did for the
    // last epoch, so Fit returns a model ready to score.
    model->PrepareScoring();
  }
  history.train_seconds = train_seconds;
  history.lr_scale = lr_scale;
  finish_run();
  return history;
}

Status ExportServingCheckpoint(TrainableModel* model, const std::string& path,
                               const ServingExportOptions& options) {
  std::vector<Tensor> params = model->Parameters();
  // Factor models export as a sharded snapshot; anything else (extra
  // towers, projection heads) keeps the monolithic v2 layout, which the
  // snapshot loader also accepts.
  if (params.size() == 2 && params[0].rows() > 0 && params[1].rows() > 0 &&
      params[0].cols() > 0 && params[0].cols() == params[1].cols()) {
    ShardedSnapshotOptions sharded;
    sharded.items_per_shard = options.items_per_shard;
    sharded.version = options.version;
    return WriteShardedSnapshot(path, params[0], params[1], sharded);
  }
  return SaveCheckpoint(path, params);
}

Status ExportServingCheckpoint(TrainableModel* model,
                               const std::string& path) {
  return ExportServingCheckpoint(model, path, ServingExportOptions{});
}

Status ExportServingCheckpoint(TrainableModel* model, SnapshotStore* store,
                               const ServingExportOptions& options) {
  std::vector<Tensor> params = model->Parameters();
  if (params.size() != 2 || params[0].rows() <= 0 || params[1].rows() <= 0 ||
      params[0].cols() <= 0 || params[0].cols() != params[1].cols()) {
    return Status::InvalidArgument(
        "store-routed serving export requires the two-tensor factor "
        "layout (user table, item table); export this model with the "
        "path-based ExportServingCheckpoint instead");
  }
  const int64_t version =
      options.version > 0 ? options.version : store->NextVersion();
  ShardedSnapshotOptions sharded;
  sharded.items_per_shard = options.items_per_shard;
  sharded.version = version;
  IMCAT_RETURN_IF_ERROR(WriteShardedSnapshot(store->FullPath(version),
                                             params[0], params[1], sharded));
  return store->CommitFull(version);
}

}  // namespace imcat
