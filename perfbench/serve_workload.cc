// Workload serve_online: a BPR-MF model trained in set-up is exported into
// a SnapshotStore and loaded into a RecService with request coalescing and
// overload control. One generator thread sends open-loop Zipf user traffic
// (Poisson arrivals) at a low and a high fixed rate, alternating every
// second, while an updater thread streams held-out interactions as
// micro-batches through OnlineUpdater -> PublishDelta (store) ->
// RecService::LoadDelta. A
// capacity probe then finds the highest offered rate that meets the p99
// limit with nothing shed. Afterwards every response is checked against a
// naive top-K over the snapshot version that served it, the outcome tally
// against the service's counters, and every folded-in user row against
// its ridge system.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "models/backbone.h"
#include "models/bprmf.h"
#include "obs/metrics.h"
#include "serve/popularity.h"
#include "serve/rec_service.h"
#include "serve/recommender.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "trace.h"
#include "train/online_updater.h"
#include "train/trainer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

constexpr const char* kPreset = "CiteULike";
constexpr double kScale = 0.5;
constexpr int64_t kDim = 64;
constexpr int64_t kTrainEpochs = 3;
constexpr int64_t kItemsPerShard = 512;

constexpr int64_t kWorkers = 2;
constexpr int64_t kQueueCapacity = 1024;
constexpr int64_t kMaxBatch = 8;
constexpr int64_t kTopK = 20;
constexpr double kZipfExponent = 1.1;
constexpr double kBatchShare = 0.2;     ///< Batch-priority requests.
constexpr double kRangeShare = 0.25;    ///< Requests restricted to a range.
constexpr int64_t kCategories = 4;      ///< Equal item-id ranges.
constexpr double kInteractiveDeadlineMs = 50.0;
constexpr double kBatchDeadlineMs = 100.0;

constexpr double kLowRate = 2000.0;    ///< req/s.
constexpr double kHighRate = 4000.0;   ///< req/s.
constexpr double kChunkSeconds = 1.0;  ///< Alternation period of the rates.
/// Latency percentiles are taken per window of this many requests; the
/// phase reports the median window value, so one scheduling stall of the
/// host moves one window, not the figure.
constexpr size_t kWindowRequests = 1000;
constexpr double kP99LimitMs = 25.0;   ///< Limit behind serve.max_qps.
constexpr double kProbeStepSeconds = 0.5;
constexpr double kProbeGrowth = 1.5;
constexpr int kProbeBisections = 4;

constexpr int64_t kMicroBatchEdges = 64;
constexpr double kUpdatePeriodMs = 400.0;
constexpr double kFoldInL2 = 0.1;

/// Zipf(s) over users: rank r has weight r^-s; ranks map to users through
/// a seeded permutation so the hot users differ per seed.
class ZipfUsers {
 public:
  ZipfUsers(int64_t n, double s, imcat::Rng* rng) : users_(n) {
    cdf_.resize(static_cast<size_t>(n));
    double total = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[static_cast<size_t>(i)] = total;
    }
    for (double& c : cdf_) c /= total;
    for (int64_t i = 0; i < n; ++i) users_[static_cast<size_t>(i)] = i;
    rng->Shuffle(&users_);
  }
  int64_t Sample(imcat::Rng* rng) const {
    const double u = rng->Uniform();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return users_[std::min(rank, users_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<int64_t> users_;
};

/// One request of an open-loop phase and what came back.
struct Sent {
  int64_t user = 0;
  int64_t item_begin = 0;
  int64_t item_end = 0;
  bool batch = false;
  double due_ms = 0.0;
  double sent_ms = 0.0;
  double done_ms = 0.0;
  imcat::RecResponse response;
  std::future<imcat::RecResponse> future;
};

/// The generated traffic of one phase: Poisson arrivals at `rate` for
/// `seconds`, each request drawn from the mix.
std::deque<Sent> MakeTraffic(double rate, double seconds, int64_t num_items,
                             const ZipfUsers& zipf, imcat::Rng* rng) {
  std::deque<Sent> traffic;
  const int64_t span = num_items / kCategories;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng->Uniform()) / rate * 1e3;
    if (t >= seconds * 1e3) break;
    Sent s;
    s.due_ms = t;
    s.user = zipf.Sample(rng);
    s.batch = rng->Uniform() < kBatchShare;
    if (rng->Uniform() < kRangeShare) {
      const int64_t c = rng->UniformInt(kCategories);
      s.item_begin = c * span;
      s.item_end = c + 1 == kCategories ? num_items : (c + 1) * span;
    }
    traffic.push_back(std::move(s));
  }
  return traffic;
}

/// Sends `traffic` open-loop (each request at its due time, whatever the
/// service does) and stamps each completion from a FIFO harvester thread.
void SendOpenLoop(imcat::RecService* service, std::deque<Sent>* traffic,
                  const std::vector<std::vector<int64_t>>& seen) {
  std::mutex mu;
  std::condition_variable cv;
  size_t ready = 0;
  bool done = false;
  std::thread harvester([&] {
    size_t next = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return next < ready || done; });
        if (next >= ready) return;
      }
      Sent& s = (*traffic)[next++];
      s.response = s.future.get();
      s.done_ms = NowMs();
    }
  });
  const double start = NowMs() + 1.0;
  for (size_t i = 0; i < traffic->size(); ++i) {
    Sent& s = (*traffic)[i];
    s.due_ms += start;
    const double wait_ms = s.due_ms - NowMs();
    if (wait_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(wait_ms));
    }
    imcat::RecRequest request;
    request.user = s.user;
    request.top_k = kTopK;
    request.deadline_ms = s.batch ? kBatchDeadlineMs : kInteractiveDeadlineMs;
    request.exclude = seen[static_cast<size_t>(s.user)];
    request.item_begin = s.item_begin;
    request.item_end = s.item_end;
    request.priority = s.batch ? imcat::RequestPriority::kBatch
                               : imcat::RequestPriority::kInteractive;
    s.sent_ms = NowMs();
    s.future = service->Submit(std::move(request));
    {
      std::lock_guard<std::mutex> lock(mu);
      ready = i + 1;
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  harvester.join();
}

bool ServedByModel(const imcat::RecResponse& r) {
  return r.status.ok() && !r.degraded && !r.partial_degraded &&
         r.brownout_level == 0;
}

/// Latency from the due time; a request that was not served by the model
/// counts as missing every limit (+inf).
std::vector<double> LatenciesFromDue(const std::deque<Sent>& traffic) {
  std::vector<double> out;
  out.reserve(traffic.size());
  for (const Sent& s : traffic) {
    out.push_back(ServedByModel(s.response)
                      ? s.done_ms - s.due_ms
                      : std::numeric_limits<double>::infinity());
  }
  return out;
}

/// The `across`-quantile (default: the median) over consecutive windows of
/// kWindowRequests requests (in send order) of the window's q-quantile of
/// latency from the due time.
double WindowedQuantile(const std::deque<Sent>& traffic, double q,
                        double across = 0.5) {
  const std::vector<double> latency = LatenciesFromDue(traffic);
  std::vector<double> per_window;
  for (size_t lo = 0; lo + kWindowRequests <= latency.size();
       lo += kWindowRequests) {
    per_window.push_back(Quantile(
        std::vector<double>(latency.begin() + static_cast<std::ptrdiff_t>(lo),
                            latency.begin() + static_cast<std::ptrdiff_t>(
                                                  lo + kWindowRequests)),
        q));
  }
  return per_window.empty() ? Quantile(latency, q)
                            : Quantile(per_window, across);
}

/// Outcome tally of a set of responses, compared with the service's own
/// `serve_*` counters (the 10-term accounting identity).
struct Tally {
  int64_t total = 0, ok = 0, degraded = 0, partial = 0, unavailable = 0,
          deadline = 0, invalid = 0, error = 0;
  void Add(const imcat::RecResponse& r) {
    ++total;
    switch (r.status.code()) {
      case imcat::StatusCode::kOk:
        if (r.degraded) {
          ++degraded;
        } else if (r.partial_degraded) {
          ++partial;
        } else {
          ++ok;
        }
        break;
      case imcat::StatusCode::kUnavailable:
        ++unavailable;
        break;
      case imcat::StatusCode::kDeadlineExceeded:
        ++deadline;
        break;
      case imcat::StatusCode::kInvalidArgument:
        ++invalid;
        break;
      default:
        ++error;
    }
  }
};

void CheckTally(const std::string& label, const Tally& tally,
                const imcat::MetricsRegistry& metrics, Report* report) {
  const imcat::MetricsSnapshot m = metrics.Snapshot();
  auto c = [&](const char* name) { return m.CounterValue(name); };
  const int64_t shed = c("serve_requests_shed_total") +
                       c("serve_requests_shed_queue_delay_total") +
                       c("serve_requests_shed_predicted_late_total") +
                       c("serve_requests_cancelled_total");
  const int64_t identity =
      c("serve_requests_ok_total") + c("serve_requests_degraded_total") +
      c("serve_requests_partial_degraded_total") + shed +
      c("serve_requests_deadline_exceeded_total") +
      c("serve_requests_invalid_total") + c("serve_requests_error_total");
  report->Check(c("serve_requests_total") == tally.total &&
                    identity == tally.total &&
                    c("serve_requests_ok_total") == tally.ok &&
                    c("serve_requests_degraded_total") == tally.degraded &&
                    c("serve_requests_partial_degraded_total") ==
                        tally.partial &&
                    shed == tally.unavailable &&
                    c("serve_requests_deadline_exceeded_total") ==
                        tally.deadline &&
                    c("serve_requests_invalid_total") == tally.invalid &&
                    c("serve_requests_error_total") == tally.error,
                label + ": outcome tally (" + std::to_string(tally.total) +
                    " requests, " + std::to_string(tally.ok) +
                    " ok) differs from the serve_* counters (" +
                    std::to_string(c("serve_requests_total")) + " total, " +
                    std::to_string(c("serve_requests_ok_total")) + " ok)");
}

/// Naive top-K over the snapshot rows: dot products accumulated in fp32
/// over ascending dimensions, exclusions and the item range honoured,
/// score descending then id ascending.
std::vector<imcat::ScoredItem> NaiveTopK(
    const imcat::EmbeddingSnapshot& snap, int64_t user, int64_t begin,
    int64_t end, const std::vector<int64_t>& exclude_sorted) {
  if (end == 0) end = snap.num_items();
  const float* p = snap.user(user);
  std::vector<imcat::ScoredItem> all;
  all.reserve(static_cast<size_t>(end - begin));
  for (int64_t i = begin; i < end; ++i) {
    if (std::binary_search(exclude_sorted.begin(), exclude_sorted.end(), i)) {
      continue;
    }
    const float* v = snap.item(i);
    float s = 0.0f;
    for (int64_t d = 0; d < snap.dim(); ++d) s += p[d] * v[d];
    all.push_back({i, s});
  }
  const size_t k = std::min<size_t>(static_cast<size_t>(kTopK), all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k),
                    all.end(), [](const auto& a, const auto& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.item < b.item;
                    });
  all.resize(k);
  return all;
}

/// One micro-batch through the update path.
struct Update {
  int64_t version = 0;
  std::vector<int64_t> users;  ///< Users touched by the micro-batch.
  double lag_ms = 0.0;
  double fold_ms = 0.0;
  double publish_ms = 0.0;
  double load_ms = 0.0;
  double bytes = 0.0;
  double dirty_shards = 0.0;
};

/// Checks that user `u`'s row in `after` solves its fold-in ridge system
/// (l2 I + sum v v^T) p = sum v over its observed items, with the item rows
/// of `before` (the version the solve ran against), in double precision:
/// the normwise backward error must be at fp32 rounding level.
bool RidgeSolved(const imcat::EmbeddingSnapshot& before,
                 const imcat::EmbeddingSnapshot& after, int64_t u,
                 const std::vector<int64_t>& items) {
  const int64_t d = after.dim();
  std::vector<double> a(static_cast<size_t>(d * d), 0.0);
  std::vector<double> b(static_cast<size_t>(d), 0.0);
  for (int64_t i : items) {
    const float* v = before.item(i);
    for (int64_t r = 0; r < d; ++r) {
      b[r] += v[r];
      for (int64_t c = 0; c < d; ++c) {
        a[r * d + c] += static_cast<double>(v[r]) * v[c];
      }
    }
  }
  for (int64_t r = 0; r < d; ++r) a[r * d + r] += kFoldInL2;
  const float* p = after.user(u);
  double residual = 0.0, a_norm = 0.0, p_norm = 0.0, b_norm = 0.0;
  for (int64_t r = 0; r < d; ++r) {
    double row = 0.0, row_abs = 0.0;
    for (int64_t c = 0; c < d; ++c) {
      row += a[r * d + c] * p[c];
      row_abs += std::fabs(a[r * d + c]);
    }
    residual = std::max(residual, std::fabs(row - b[r]));
    a_norm = std::max(a_norm, row_abs);
    p_norm = std::max(p_norm, std::fabs(static_cast<double>(p[r])));
    b_norm = std::max(b_norm, std::fabs(b[r]));
  }
  return residual <= 1e-5 * (a_norm * p_norm + b_norm);
}

}  // namespace

void RunServeOnline(const Args& args, Report* report) {
  const Data data = MakeData(kPreset, kScale, args.seed);
  const imcat::Dataset& ds = data.dataset;
  std::vector<std::vector<int64_t>> seen(static_cast<size_t>(ds.num_users));
  for (const auto& [u, v] : data.split.train) {
    seen[static_cast<size_t>(u)].push_back(v);
  }
  for (auto& items : seen) std::sort(items.begin(), items.end());

  // Set-up: train BPR-MF, export it into a store, load it into a service.
  imcat::Evaluator evaluator(ds, data.split);
  imcat::ThreadPoolOptions pool_options;
  pool_options.num_threads = PoolThreads();
  imcat::BackboneOptions backbone;
  backbone.embedding_dim = kDim;
  backbone.seed = SubSeed(args.seed, 3);
  imcat::AdamOptions adam;
  adam.learning_rate = 5e-3f;
  adam.weight_decay = 1e-3f;
  imcat::BprModel model(
      std::make_unique<imcat::Bprmf>(ds.num_users, ds.num_items, backbone),
      ds, data.split, adam);
  {
    Span span("train.setup_fit");
    imcat::ThreadPool pool(pool_options);
    imcat::TrainerOptions options;
    options.max_epochs = kTrainEpochs;
    options.eval_every = kTrainEpochs;
    options.patience = kTrainEpochs + 1;
    options.seed = SubSeed(args.seed, 4);
    options.pool = &pool;
    const imcat::TrainHistory history =
        imcat::Trainer(&evaluator, &data.split).Fit(&model, options);
    report->Check(history.status.ok(),
                  "BPR-MF set-up Fit: " + history.status.ToString());
  }
  const std::string store_dir =
      args.out_dir + "/store-" + std::to_string(::getpid());
  std::filesystem::remove_all(store_dir);
  imcat::SnapshotStoreOptions store_options;
  store_options.gc_on_commit = false;
  auto opened = imcat::SnapshotStore::Open(store_dir, store_options);
  if (!opened.ok()) {
    report->Check(false, "SnapshotStore::Open: " + opened.status().ToString());
    return;
  }
  imcat::SnapshotStore& store = *opened.value();
  double start = NowMs();
  imcat::ServingExportOptions export_options;
  export_options.items_per_shard = kItemsPerShard;
  {
    Span span("serve.export");
    report->Check(
        imcat::ExportServingCheckpoint(&model, &store, export_options).ok(),
        "ExportServingCheckpoint into the store failed");
  }
  const double export_ms = NowMs() - start;
  const int64_t base_version = store.NextVersion() - 1;

  auto fallback = std::make_shared<imcat::PopularityRanker>(ds.num_items,
                                                            data.split.train);
  imcat::MetricsRegistry metrics;
  imcat::RecServiceOptions service_options;
  service_options.num_workers = kWorkers;
  service_options.queue_capacity = kQueueCapacity;
  service_options.max_batch_size = kMaxBatch;
  service_options.default_top_k = kTopK;
  service_options.default_deadline_ms = kInteractiveDeadlineMs;
  service_options.overload.enabled = true;
  service_options.metrics = &metrics;
  imcat::RecService service(fallback, service_options);
  start = NowMs();
  {
    Span span("serve.snapshot_load");
    report->Check(store.LoadInto(&service).ok(), "SnapshotStore::LoadInto");
  }
  const double snapshot_load_ms = NowMs() - start;
  std::map<int64_t, std::shared_ptr<const imcat::EmbeddingSnapshot>> versions;
  versions[base_version] = service.snapshot();
  report->Check(service.snapshot() != nullptr &&
                    service.snapshot()->version() == base_version,
                "the exported version is not live");

  imcat::OnlineUpdaterOptions updater_options;
  updater_options.l2 = kFoldInL2;
  auto made = imcat::OnlineUpdater::FromSnapshot(store.FullPath(base_version),
                                                 data.split.train,
                                                 updater_options);
  if (!made.ok()) {
    report->Check(false, "OnlineUpdater::FromSnapshot: " +
                             made.status().ToString());
    return;
  }
  imcat::OnlineUpdater& updater = *made.value();

  // Held-out interactions (validation + test), shuffled, in micro-batches.
  imcat::EdgeList stream = data.split.validation;
  stream.insert(stream.end(), data.split.test.begin(), data.split.test.end());
  imcat::Rng rng(SubSeed(args.seed, 6));
  rng.Shuffle(&stream);
  const ZipfUsers zipf(ds.num_users, kZipfExponent, &rng);
  // Each rate gets a third of the run, sent as alternating one-second
  // chunks (low, high, low, ...), so a slow spell of the host falls on
  // both rates alike.
  const int64_t chunks = std::max<int64_t>(
      1, static_cast<int64_t>(std::lround(args.seconds / 3.0 / kChunkSeconds)));
  std::vector<std::deque<Sent>> lo_chunks, hi_chunks;
  for (int64_t c = 0; c < chunks; ++c) {
    lo_chunks.push_back(
        MakeTraffic(kLowRate, kChunkSeconds, ds.num_items, zipf, &rng));
    hi_chunks.push_back(
        MakeTraffic(kHighRate, kChunkSeconds, ds.num_items, zipf, &rng));
  }
  const double setup_s = SecondsSinceProcessStart();

  // The updater thread: one micro-batch per period while traffic runs.
  std::vector<Update> updates;
  std::vector<std::vector<int64_t>> observed = seen;  // Train + streamed.
  std::vector<std::vector<std::vector<int64_t>>> observed_at;  // Per update.
  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stop = false;
  std::thread updater_thread([&] {
    size_t cursor = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(stop_mu);
        if (stop_cv.wait_for(
                lock, std::chrono::duration<double, std::milli>(
                          kUpdatePeriodMs),
                [&] { return stop; })) {
          return;
        }
      }
      if (cursor + kMicroBatchEdges > stream.size()) continue;  // Drained.
      const imcat::EdgeList batch(
          stream.begin() + static_cast<std::ptrdiff_t>(cursor),
          stream.begin() + static_cast<std::ptrdiff_t>(cursor +
                                                       kMicroBatchEdges));
      cursor += kMicroBatchEdges;
      Update up;
      up.version = updater.published_version() + 1;
      const double begin = NowMs();
      bool ok;
      {
        Span span("train.fold_in");
        ok = updater.AddInteractions(batch).ok() &&
             updater.ApplyPending().ok();
      }
      up.fold_ms = NowMs() - begin;
      up.dirty_shards = static_cast<double>(updater.dirty_shard_count());
      double t = NowMs();
      {
        Span span("serve.delta_publish");
        ok = ok && updater.PublishDelta(&store).ok();
      }
      up.publish_ms = NowMs() - t;
      const std::string path = store.DeltaPath(up.version - 1, up.version);
      std::error_code ec;
      up.bytes = static_cast<double>(std::filesystem::file_size(path, ec));
      t = NowMs();
      {
        Span span("serve.delta_load");
        ok = ok && service.LoadDelta(path).ok();
      }
      up.load_ms = NowMs() - t;
      up.lag_ms = NowMs() - begin;
      auto live = service.snapshot();
      const bool in_order = live != nullptr && live->version() == up.version;
      report->Operation(ok && in_order,
                        "micro-batch to version " +
                            std::to_string(up.version));
      if (ok && in_order) versions[up.version] = live;
      for (const auto& [u, v] : batch) {
        std::vector<int64_t>& items = observed[static_cast<size_t>(u)];
        if (!std::binary_search(items.begin(), items.end(), v)) {
          items.insert(std::lower_bound(items.begin(), items.end(), v), v);
        }
        up.users.push_back(u);
      }
      std::sort(up.users.begin(), up.users.end());
      up.users.erase(std::unique(up.users.begin(), up.users.end()),
                     up.users.end());
      std::vector<std::vector<int64_t>> snapshot_items;
      for (int64_t u : up.users) {
        snapshot_items.push_back(observed[static_cast<size_t>(u)]);
      }
      observed_at.push_back(std::move(snapshot_items));
      updates.push_back(std::move(up));
    }
  });

  for (int64_t c = 0; c < chunks; ++c) {
    {
      Span span("serve.chunk_lo");
      SendOpenLoop(&service, &lo_chunks[static_cast<size_t>(c)], seen);
    }
    {
      Span span("serve.chunk_hi");
      SendOpenLoop(&service, &hi_chunks[static_cast<size_t>(c)], seen);
    }
  }
  // Each rate's requests in send order.
  std::deque<Sent> lo, hi;
  for (int64_t c = 0; c < chunks; ++c) {
    for (Sent& sent : lo_chunks[static_cast<size_t>(c)]) {
      lo.push_back(std::move(sent));
    }
    for (Sent& sent : hi_chunks[static_cast<size_t>(c)]) {
      hi.push_back(std::move(sent));
    }
  }
  {
    std::lock_guard<std::mutex> lock(stop_mu);
    stop = true;
  }
  stop_cv.notify_one();
  updater_thread.join();
  const imcat::HistogramSnapshot batch_sizes = [&] {
    for (const auto& [name, h] : metrics.Snapshot().histograms) {
      if (name == "serve_batch_size") return h;
    }
    return imcat::HistogramSnapshot();
  }();

  // Capacity probe: ascending offered rates (x kProbeGrowth) until a step
  // misses the p99 limit or refuses anything, then bisection between the
  // last passing and the first failing rate. Each step runs on a fresh
  // service loaded from the base snapshot, so no step inherits the
  // previous one's overload state.
  auto probe_step = [&](double rate) {
    Span span("serve.probe_step");
    imcat::MetricsRegistry probe_metrics;
    imcat::RecServiceOptions options = service_options;
    options.metrics = &probe_metrics;
    imcat::RecService probe(fallback, options);
    if (!probe.LoadSnapshot(store.FullPath(base_version)).ok()) {
      report->Check(false, "capacity probe: LoadSnapshot failed");
      return false;
    }
    std::deque<Sent> traffic =
        MakeTraffic(rate, kProbeStepSeconds, ds.num_items, zipf, &rng);
    SendOpenLoop(&probe, &traffic, seen);
    probe.Shutdown();
    Tally tally;
    for (const Sent& s : traffic) tally.Add(s.response);
    CheckTally("capacity probe", tally, probe_metrics, report);
    const std::vector<double> latency = LatenciesFromDue(traffic);
    return Quantile(latency, 0.99) <= kP99LimitMs &&
           traffic.back().done_ms - traffic.back().due_ms <= kP99LimitMs;
  };
  // A rate fails only when two steps at it miss in a row, so one
  // scheduling stall of the host does not end the ladder.
  auto passes = [&](double rate) {
    return probe_step(rate) || probe_step(rate);
  };
  double pass = 0.0, fail = 0.0;
  for (double rate = kLowRate;; rate *= kProbeGrowth) {
    if (passes(rate)) {
      pass = rate;
    } else {
      fail = rate;
      break;
    }
  }
  for (int i = 0; i < kProbeBisections && pass > 0.0; ++i) {
    const double mid = std::sqrt(pass * fail);
    if (passes(mid)) {
      pass = mid;
    } else {
      fail = mid;
    }
  }

  // Per-user top-K batch cost straight through the Recommender.
  auto topk_us_per_user = [&](int64_t batch) {
    imcat::Recommender recommender;
    std::vector<imcat::Recommender::BatchQuery> queries(
        static_cast<size_t>(batch));
    for (int64_t q = 0; q < batch; ++q) {
      queries[static_cast<size_t>(q)].user = zipf.Sample(&rng);
      queries[static_cast<size_t>(q)].k = kTopK;
      queries[static_cast<size_t>(q)].exclude =
          &seen[static_cast<size_t>(queries[static_cast<size_t>(q)].user)];
    }
    std::vector<imcat::Recommender::BatchQueryResult> results;
    const auto snap = service.snapshot();
    int64_t calls = 0;
    const double t0 = NowSec();
    while (NowSec() - t0 < 0.1) {
      recommender.TopKBatch(*snap, queries, 0, 0, 0, &results);
      ++calls;
    }
    return (NowSec() - t0) * 1e6 / static_cast<double>(calls * batch);
  };
  const double topk_b1 = topk_us_per_user(1);
  const double topk_b8 = topk_us_per_user(8);
  service.Shutdown();

  // Operations: every request of the two fixed-rate phases.
  Tally tally;
  for (const std::deque<Sent>* phase : {&lo, &hi}) {
    for (const Sent& s : *phase) {
      tally.Add(s.response);
      // A request fails when the service answers outside its contract;
      // a load refusal (kUnavailable) or an expired deadline is a
      // contract answer and counts against latency instead.
      const imcat::StatusCode code = s.response.status.code();
      report->Operation(code == imcat::StatusCode::kOk ||
                            code == imcat::StatusCode::kUnavailable ||
                            code == imcat::StatusCode::kDeadlineExceeded,
                        "request: " + s.response.status.ToString());
    }
  }
  CheckTally("fixed-rate phases", tally, metrics, report);

  // Naive top-K of every model-served response, against the rows of the
  // snapshot version that served it.
  std::vector<const Sent*> served;
  for (const std::deque<Sent>* phase : {&lo, &hi}) {
    for (const Sent& s : *phase) {
      if (ServedByModel(s.response)) served.push_back(&s);
    }
  }
  std::vector<char> mismatch(served.size(), 0);
  auto verify = [&](size_t first, size_t stride) {
    for (size_t i = first; i < served.size(); i += stride) {
      const Sent& s = *served[i];
      auto it = versions.find(s.response.snapshot_version);
      if (it == versions.end()) {
        mismatch[i] = 1;
        continue;
      }
      const auto naive = NaiveTopK(*it->second, s.user, s.item_begin,
                                   s.item_end, seen[static_cast<size_t>(s.user)]);
      bool same = naive.size() == s.response.items.size();
      for (size_t r = 0; same && r < naive.size(); ++r) {
        same = naive[r].item == s.response.items[r].item &&
               std::memcmp(&naive[r].score, &s.response.items[r].score,
                           sizeof(float)) == 0;
      }
      mismatch[i] = same ? 0 : 1;
    }
  };
  {
    std::vector<std::thread> workers;
    const int threads = PoolThreads();
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back(verify, static_cast<size_t>(t),
                           static_cast<size_t>(threads));
    }
    for (std::thread& worker : workers) worker.join();
  }
  int64_t mismatches = 0;
  for (char m : mismatch) mismatches += m;
  report->Check(mismatches == 0,
                std::to_string(mismatches) + " of " +
                    std::to_string(served.size()) +
                    " served responses differ from the naive top-K of their "
                    "snapshot version");

  // Fold-in rows: every user a micro-batch touched solves its ridge system
  // against the item rows of the version before it.
  int64_t unsolved = 0;
  for (size_t k = 0; k < updates.size(); ++k) {
    auto after = versions.find(updates[k].version);
    auto before = versions.find(updates[k].version - 1);
    if (after == versions.end() || before == versions.end()) continue;
    for (size_t j = 0; j < updates[k].users.size(); ++j) {
      if (!RidgeSolved(*before->second, *after->second, updates[k].users[j],
                       observed_at[k][j])) {
        ++unsolved;
      }
    }
  }
  report->Check(unsolved == 0, std::to_string(unsolved) +
                                   " folded-in user rows do not solve their "
                                   "ridge system");
  std::filesystem::remove_all(store_dir);

  std::vector<double> lag, fold, publish, load, bytes, dirty;
  for (const Update& up : updates) {
    lag.push_back(up.lag_ms);
    fold.push_back(up.fold_ms);
    publish.push_back(up.publish_ms);
    load.push_back(up.load_ms);
    bytes.push_back(up.bytes);
    dirty.push_back(up.dirty_shards);
  }
  // The common metrics: latency_ms is the p50 request latency at the low
  // rate, latency_alt_ms at the high rate, each the fastest of the
  // per-window figures.
  const double latency_ms = WindowedQuantile(lo, 0.5, 0.0);
  const double latency_alt_ms = WindowedQuantile(hi, 0.5, 0.0);
  report->EndToEnd("setup_s", setup_s, "s");
  report->EndToEnd("latency_ms", latency_ms, "ms");
  report->EndToEnd("latency_alt_ms", latency_alt_ms, "ms");
  report->PerLayer("data.generate_ms", data.generate_ms, "ms");
  report->PerLayer("data.split_ms", data.split_ms, "ms");
  report->PerLayer("traced_latency_ms", latency_ms, "ms");
  report->PerLayer("traced_latency_alt_ms", latency_alt_ms, "ms");
  report->PerLayer("score_us_per_user", topk_b8, "us");

  report->Detail("serve.lo.p50_ms", WindowedQuantile(lo, 0.5), "ms");
  report->Detail("serve.hi.p50_ms", WindowedQuantile(hi, 0.5), "ms");
  report->Detail("serve.lo.p99_ms", WindowedQuantile(lo, 0.99), "ms");
  report->Detail("serve.hi.p99_ms", WindowedQuantile(hi, 0.99), "ms");
  report->Detail("serve.max_qps", pass, "req/s");
  report->Detail("serve.update_lag_ms", Median(lag), "ms");

  std::vector<double> queue_wait, service_ms, late;
  for (const Sent& s : hi) {
    late.push_back(s.sent_ms - s.due_ms);
    if (!ServedByModel(s.response)) continue;
    queue_wait.push_back(s.response.queue_wait_ms);
    service_ms.push_back(s.done_ms - s.sent_ms - s.response.queue_wait_ms);
  }
  report->Detail("serve.export_ms", export_ms, "ms");
  report->Detail("serve.snapshot_load_ms", snapshot_load_ms, "ms");
  report->Detail("serve.queue_wait_ms", Mean(queue_wait), "ms");
  report->Detail("serve.service_ms", Mean(service_ms), "ms");
  report->Detail("serve.generator_late_ms", Quantile(late, 0.99), "ms");
  report->Detail("serve.batch_size_mean",
                   batch_sizes.count > 0
                       ? batch_sizes.sum / static_cast<double>(batch_sizes.count)
                       : 0.0,
                   "count");
  report->Detail("serve.topk_batch_us_per_user.b1", topk_b1, "us");
  report->Detail("serve.topk_batch_us_per_user.b8", topk_b8, "us");
  report->Detail("train.fold_in_ms", Median(fold), "ms");
  report->Detail("serve.delta_publish_ms", Median(publish), "ms");
  report->Detail("serve.delta_load_ms", Median(load), "ms");
  report->Detail("serve.delta_bytes", Median(bytes), "bytes");
  report->Detail("serve.dirty_shards", Median(dirty), "count");
}

}  // namespace perfbench
