// Benchmark driver: runs one workload against the IMCAT libraries and
// prints one JSON result line (the last line of stdout):
//
//   perfbench_driver --workload <train_limcat|eval_fullrank|serve_online>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--out-dir <dir>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans around
// every call into a layer, writes them to <out-dir>/trace-<workload>-<seed>
// .jsonl and reports the per-layer metrics instead. Every workload reports
// the same metric names. The workload's own layer figures (step phases,
// evaluation stages, the serving and delta paths) are written to
// <out-dir>/detail-<workload>-<seed>-trace<0|1>.json and echoed to stderr.
// Diagnostics go to stderr.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "trace.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return have_workload && (argc % 2) == 1 && args->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.out_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  perfbench::Trace::Enable(args.trace);
  perfbench::Report report;
  if (args.workload == "train_limcat") {
    perfbench::RunTrainLimcat(args, &report);
  } else if (args.workload == "eval_fullrank") {
    perfbench::RunEvalFullrank(args, &report);
  } else if (args.workload == "serve_online") {
    perfbench::RunServeOnline(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  report.EndToEnd("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  const std::string detail_path = args.out_dir + "/detail-" + args.workload +
                                  "-" + std::to_string(args.seed) + "-trace" +
                                  (args.trace ? "1" : "0") + ".json";
  const std::string detail = report.DetailJson();
  std::fprintf(stderr, "detail: %s\n", detail.c_str());
  if (std::FILE* f = std::fopen(detail_path.c_str(), "w")) {
    std::fprintf(f, "%s\n", detail.c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write %s\n", detail_path.c_str());
    return 1;
  }
  if (args.trace) {
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (!perfbench::Trace::Write(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "spans written to %s\n", path.c_str());
  }
  std::printf("%s\n", report.Json(args.trace).c_str());
  std::fflush(stdout);
  return 0;
}
