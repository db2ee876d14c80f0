#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <sstream>
#include <thread>

#include "data/presets.h"
#include "models/bprmf.h"
#include "models/lightgcn.h"
#include "trace.h"

namespace perfbench {

namespace {

const double kProcessStartSec = NowSec();

std::string JsonNumber(double value) {
  // A latency percentile over requests that were refused is +inf; JSON
  // has no infinity, so it is written as a huge finite value.
  if (!std::isfinite(value)) value = value > 0 ? 1e300 : -1e300;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void AppendFamily(
    std::ostringstream* out,
    const std::map<std::string, std::pair<double, std::string>>& family) {
  bool first = true;
  for (const auto& [name, entry] : family) {
    if (!first) *out << ", ";
    first = false;
    *out << "\"" << name << "\": {\"value\": " << JsonNumber(entry.first)
         << ", \"unit\": \"" << entry.second << "\"}";
  }
}

}  // namespace

int PoolThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp<unsigned>(hw, 2, 4)) - 1;
}

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NowMs() { return NowSec() * 1e3; }

double SecondsSinceProcessStart() { return NowSec() - kProcessStartSec; }

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || values[lo] == values[hi]) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;  // May be +inf.
}

double Fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over (seed, stream): distinct, well-mixed stream seeds.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_[name] = {value, unit};
}

void Report::PerLayer(const std::string& name, double value,
                      const std::string& unit) {
  per_layer_[name] = {value, unit};
}

void Report::Detail(const std::string& name, double value,
                    const std::string& unit) {
  detail_[name] = {value, unit};
}

void Report::Operation(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failed_ <= 3) std::fprintf(stderr, "[op failed] %s\n", what.c_str());
  }
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  if (++checks_failed_logged_ <= 20) {
    std::fprintf(stderr, "[check failed] %s\n", what.c_str());
  }
}

std::string Report::Json(bool per_layer) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  AppendFamily(&out, per_layer ? per_layer_ : end_to_end_);
  out << "}}";
  return out.str();
}

std::string Report::DetailJson() const {
  std::ostringstream out;
  out << "{";
  AppendFamily(&out, detail_);
  out << "}";
  return out.str();
}

ReferenceMetrics ReferenceFullRank(const imcat::Ranker& ranker,
                                   int64_t num_users, int64_t num_items,
                                   const imcat::EdgeList& train,
                                   const imcat::EdgeList& eval_edges,
                                   int top_n) {
  std::vector<std::vector<int64_t>> seen(static_cast<size_t>(num_users));
  for (const auto& [u, v] : train) seen[static_cast<size_t>(u)].push_back(v);
  std::vector<std::vector<int64_t>> relevant(static_cast<size_t>(num_users));
  for (const auto& [u, v] : eval_edges) {
    relevant[static_cast<size_t>(u)].push_back(v);
  }
  for (auto& rel : relevant) {
    std::sort(rel.begin(), rel.end());
    rel.erase(std::unique(rel.begin(), rel.end()), rel.end());
  }
  ranker.PrepareScoring();
  // Per-user (recall, ndcg); users are split over a few threads and the
  // average is taken serially in user order.
  std::vector<std::pair<double, double>> per_user(
      static_cast<size_t>(num_users), {-1.0, -1.0});
  auto rank_users = [&](int64_t first, int64_t stride) {
    std::vector<float> scores;
    std::vector<int64_t> order(static_cast<size_t>(num_items));
    std::vector<char> masked(static_cast<size_t>(num_items), 0);
    for (int64_t u = first; u < num_users; u += stride) {
      const std::vector<int64_t>& rel = relevant[static_cast<size_t>(u)];
      if (rel.empty()) continue;
      ranker.ScoreItemsForUser(u, &scores);
      for (int64_t v : seen[static_cast<size_t>(u)]) {
        masked[static_cast<size_t>(v)] = 1;
      }
      std::iota(order.begin(), order.end(), int64_t{0});
      std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
        const float sa = scores[static_cast<size_t>(a)];
        const float sb = scores[static_cast<size_t>(b)];
        if (sa != sb) return sa > sb;
        return a < b;
      });
      int64_t hits = 0;
      double dcg = 0.0;
      int64_t rank = 0;
      for (int64_t v : order) {
        if (rank == top_n) break;
        if (masked[static_cast<size_t>(v)]) continue;
        if (std::binary_search(rel.begin(), rel.end(), v)) {
          ++hits;
          dcg += 1.0 / std::log2(static_cast<double>(rank) + 2.0);
        }
        ++rank;
      }
      double idcg = 0.0;
      const int64_t ideal =
          std::min<int64_t>(top_n, static_cast<int64_t>(rel.size()));
      for (int64_t r = 0; r < ideal; ++r) {
        idcg += 1.0 / std::log2(static_cast<double>(r) + 2.0);
      }
      per_user[static_cast<size_t>(u)] = {
          static_cast<double>(hits) / static_cast<double>(rel.size()),
          dcg / idcg};
      for (int64_t v : seen[static_cast<size_t>(u)]) {
        masked[static_cast<size_t>(v)] = 0;
      }
    }
  };
  const int threads = PoolThreads();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) workers.emplace_back(rank_users, t, threads);
  for (std::thread& worker : workers) worker.join();

  ReferenceMetrics out;
  for (const auto& [recall, ndcg] : per_user) {
    if (recall < 0.0) continue;
    out.recall += recall;
    out.ndcg += ndcg;
    ++out.num_users;
  }
  if (out.num_users > 0) {
    out.recall /= static_cast<double>(out.num_users);
    out.ndcg /= static_cast<double>(out.num_users);
  }
  return out;
}

void CheckAgainstReference(const std::string& label,
                           const imcat::EvalResult& result,
                           const ReferenceMetrics& reference, Report* report) {
  auto in_unit = [](double x) { return x >= 0.0 && x <= 1.0; };
  report->Check(in_unit(result.recall) && in_unit(result.ndcg) &&
                    in_unit(result.precision) && in_unit(result.hit_rate) &&
                    in_unit(result.mrr),
                label + ": a ranking metric lies outside [0, 1]");
  report->Check(result.num_users == reference.num_users,
                label + ": evaluated " + std::to_string(result.num_users) +
                    " users, reference " +
                    std::to_string(reference.num_users));
  report->Check(std::fabs(result.recall - reference.recall) <= 1e-9,
                label + ": Recall@20 " + std::to_string(result.recall) +
                    " differs from the reference " +
                    std::to_string(reference.recall));
  report->Check(std::fabs(result.ndcg - reference.ndcg) <= 1e-9,
                label + ": NDCG@20 " + std::to_string(result.ndcg) +
                    " differs from the reference " +
                    std::to_string(reference.ndcg));
}

bool BitIdentical(const imcat::EvalResult& a, const imcat::EvalResult& b) {
  return std::memcmp(&a.recall, &b.recall, sizeof(double)) == 0 &&
         std::memcmp(&a.ndcg, &b.ndcg, sizeof(double)) == 0 &&
         std::memcmp(&a.precision, &b.precision, sizeof(double)) == 0 &&
         std::memcmp(&a.hit_rate, &b.hit_rate, sizeof(double)) == 0 &&
         std::memcmp(&a.mrr, &b.mrr, sizeof(double)) == 0 &&
         a.num_users == b.num_users;
}

Data MakeData(const std::string& preset, double scale, uint64_t seed) {
  Data data;
  double start = NowMs();
  {
    Span span("data.generate");
    data.dataset = imcat::GeneratePreset(preset, scale, SubSeed(seed, 1));
  }
  data.generate_ms = NowMs() - start;
  start = NowMs();
  {
    Span span("data.split");
    imcat::SplitOptions options;
    options.seed = SubSeed(seed, 2);
    data.split = imcat::SplitByUser(data.dataset, options);
  }
  data.split_ms = NowMs() - start;
  return data;
}

std::unique_ptr<imcat::ImcatModel> MakeImcat(const std::string& backbone,
                                             const Data& data, int64_t dim,
                                             uint64_t seed) {
  imcat::BackboneOptions backbone_options;
  backbone_options.embedding_dim = dim;
  backbone_options.seed = seed;
  const imcat::Dataset& ds = data.dataset;
  std::unique_ptr<imcat::Backbone> net;
  if (backbone == "LightGCN") {
    net = std::make_unique<imcat::LightGcn>(ds.num_users, ds.num_items,
                                            data.split.train,
                                            backbone_options);
  } else {
    net = std::make_unique<imcat::Bprmf>(ds.num_users, ds.num_items,
                                         backbone_options);
  }
  const int64_t train_edges = static_cast<int64_t>(data.split.train.size());
  imcat::ImcatConfig config;
  config.batch_size = std::clamp<int64_t>(train_edges / 8, 128, 1024);
  config.pretrain_steps =
      10 * ((train_edges + config.batch_size - 1) / config.batch_size);
  config.ca_batch_size = 128;
  config.seed = seed;
  imcat::AdamOptions adam;
  adam.learning_rate = 5e-3f;
  adam.weight_decay = 1e-3f;
  return std::make_unique<imcat::ImcatModel>(std::move(net), ds, data.split,
                                             config, adam);
}

}  // namespace perfbench
