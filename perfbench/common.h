#ifndef IMCAT_PERFBENCH_COMMON_H_
#define IMCAT_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/imcat.h"
#include "data/dataset.h"
#include "data/split.h"
#include "eval/evaluator.h"

/// \file common.h
/// Shared plumbing of the benchmark driver: command-line arguments, the
/// result record every workload fills in (metrics, operation counts,
/// correctness), clocks, summary statistics and the independent reference
/// computations the output checks compare the program against.

namespace perfbench {

/// Parsed command line: `--workload <name> --seed <n> --seconds <s>
/// --trace <0|1> [--out-dir <dir>]`.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span dump of traced runs and scratch files
  /// (snapshot stores, exported checkpoints); relative to the cwd.
  std::string out_dir = ".bench_out";
};

/// Fixed parallelism of every pool the benchmark creates: one thread less
/// than min(4, cores), at least one. The thread that calls
/// ThreadPool::ParallelFor runs queued chunks too, so a loop keeps at most
/// min(4, cores) threads busy and never oversubscribes the host.
int PoolThreads();

/// Monotonic clock in seconds / milliseconds.
double NowSec();
double NowMs();

/// Seconds since the driver process started (stamped by a static
/// initializer, i.e. before main).
double SecondsSinceProcessStart();

/// Peak resident set size of this process in MiB (getrusage).
double PeakRssMb();

/// Median / mean / quantile (linear interpolation) of a sample.
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
double Quantile(std::vector<double> values, double q);

/// The fastest of repeated timings of one operation (0 when empty): the
/// figure every timed end-to-end metric is built from. The host's
/// single-thread speed swings by up to 2x over seconds as neighbours load
/// shared cores; a median follows those swings from run to run, while the
/// fastest of many short repetitions stays put (perfbench/README.md).
double Fastest(const std::vector<double>& values);

/// Derives an independent 64-bit seed for one input stream of a run.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// What one run reports: the JSON line printed last on stdout.
class Report {
 public:
  /// Records a metric (name, value, unit); per-layer metrics are kept
  /// apart so the driver prints exactly one family per run. Both families
  /// hold the same names in every workload (BENCHMARK.json); what a name
  /// measures in each workload is in perfbench/README.md.
  void EndToEnd(const std::string& name, double value,
                const std::string& unit);
  void PerLayer(const std::string& name, double value,
                const std::string& unit);
  /// Records a workload-specific layer figure. Details are not part of the
  /// result line; the driver writes them to a file of their own.
  void Detail(const std::string& name, double value, const std::string& unit);

  /// Counts one attempted operation; `ok == false` counts it as failed
  /// and logs `what` to stderr.
  void Operation(bool ok, const std::string& what);

  /// Records an output check; a failed check makes the run incorrect.
  void Check(bool ok, const std::string& what);

  bool correct() const { return correct_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  /// The result line for the requested family.
  std::string Json(bool per_layer) const;
  /// The details as one JSON object of {name: {value, unit}}.
  std::string DetailJson() const;

 private:
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t checks_failed_logged_ = 0;
  std::map<std::string, std::pair<double, std::string>> end_to_end_;
  std::map<std::string, std::pair<double, std::string>> per_layer_;
  std::map<std::string, std::pair<double, std::string>> detail_;
};

/// Independent full-ranking reference: for every user with held-out
/// items, scores the catalogue through the ranker's per-user entry point,
/// masks the user's training items, fully sorts (score desc, id asc) and
/// averages Recall@N and NDCG@N with textbook formulas. Shares no code
/// with the Evaluator beyond the ranker's scores.
struct ReferenceMetrics {
  double recall = 0.0;
  double ndcg = 0.0;
  int64_t num_users = 0;
};
ReferenceMetrics ReferenceFullRank(const imcat::Ranker& ranker,
                                   int64_t num_users, int64_t num_items,
                                   const imcat::EdgeList& train,
                                   const imcat::EdgeList& eval_edges,
                                   int top_n);

/// Checks an EvalResult against the reference (users counted, Recall@N and
/// NDCG@N within 1e-9) and that every averaged metric lies in [0, 1].
void CheckAgainstReference(const std::string& label,
                           const imcat::EvalResult& result,
                           const ReferenceMetrics& reference, Report* report);

/// True when two EvalResults are bit-identical in every field.
bool BitIdentical(const imcat::EvalResult& a, const imcat::EvalResult& b);

/// A generated preset with its per-user 7:1:2 split. Generation and the
/// split are timed (data.generate_ms / data.split_ms) and traced.
struct Data {
  imcat::Dataset dataset;
  imcat::DataSplit split;
  double generate_ms = 0.0;
  double split_ms = 0.0;
};
Data MakeData(const std::string& preset, double scale, uint64_t seed);

/// Builds an IMCAT model over `backbone` ("LightGCN" -> L-IMCAT, "BPRMF"
/// -> B-IMCAT) with the schedule bench/runner derives for scaled presets:
/// batch = clamp(|train| / 8, 128, 1024), ten epochs of pre-training,
/// 128 contrastive anchors, K = 4, Adam lr = wd = 1e-3.
std::unique_ptr<imcat::ImcatModel> MakeImcat(const std::string& backbone,
                                             const Data& data, int64_t dim,
                                             uint64_t seed);

/// Workload entry points (one per file).
void RunTrainLimcat(const Args& args, Report* report);
void RunEvalFullrank(const Args& args, Report* report);
void RunServeOnline(const Args& args, Report* report);

}  // namespace perfbench

#endif  // IMCAT_PERFBENCH_COMMON_H_
