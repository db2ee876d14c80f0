// Micro-benchmarks of the training substrate (google-benchmark): dense
// GEMM, sparse propagation, embedding gather/scatter, the fused InfoNCE
// and intent-independence ops, autograd overhead, and a full IMCAT
// training step. These quantify the
// building blocks behind the Fig. 9 efficiency numbers.

#include <benchmark/benchmark.h>

#include "core/imcat.h"
#include "core/independence.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "graph/adjacency.h"
#include "models/bprmf.h"
#include "tensor/autograd.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace imcat {
namespace {

Tensor RandomTensor(int64_t rows, int64_t cols, Rng* rng, bool grad) {
  Tensor t(rows, cols, grad);
  for (int64_t i = 0; i < t.size(); ++i)
    t.data()[i] = static_cast<float>(rng->Uniform(-1.0, 1.0));
  return t;
}

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = RandomTensor(n, n, &rng, false);
  Tensor b = RandomTensor(n, n, &rng, false);
  for (auto _ : state) {
    Tensor c = ops::MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_MatMulBackward(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = RandomTensor(n, n, &rng, true);
  Tensor b = RandomTensor(n, n, &rng, true);
  for (auto _ : state) {
    Tensor loss = ops::Sum(ops::MatMul(a, b));
    Backward(loss);
    a.ZeroGrad();
    b.ZeroGrad();
  }
}
BENCHMARK(BM_MatMulBackward)->Arg(32)->Arg(64);

void BM_SpMM(benchmark::State& state) {
  const int64_t nodes = state.range(0);
  Rng rng(2);
  EdgeList edges;
  for (int64_t i = 0; i < nodes * 10; ++i) {
    edges.emplace_back(rng.UniformInt(nodes / 2),
                       rng.UniformInt(nodes / 2));
  }
  SparseMatrix adj = BuildUserItemAdjacency(nodes / 2, nodes / 2, edges);
  Tensor x = RandomTensor(nodes, 16, &rng, false);
  for (auto _ : state) {
    Tensor y = ops::SpMM(adj, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * 16);
}
BENCHMARK(BM_SpMM)->Arg(1000)->Arg(10000);

void BM_GatherScatter(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Rng rng(3);
  Tensor table = RandomTensor(rows, 16, &rng, true);
  std::vector<int64_t> indices(1024);
  for (auto& i : indices) i = rng.UniformInt(rows);
  for (auto _ : state) {
    Tensor g = ops::Gather(table, indices);
    Tensor loss = ops::Sum(ops::Mul(g, g));
    Backward(loss);
    table.ZeroGrad();
  }
}
BENCHMARK(BM_GatherScatter)->Arg(1000)->Arg(100000);

// The bidirectional InfoNCE of the alignment loss (one intent), forward
// and backward.
void BM_InfoNce(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Rng rng(4);
  Tensor a = RandomTensor(batch, 16, &rng, true);
  Tensor b = RandomTensor(batch, 16, &rng, true);
  std::vector<float> weights(batch, 1.0f / batch);
  for (auto _ : state) {
    Tensor loss = ops::SymmetricInfoNce(a, b, 5.0f, weights);
    Backward(loss);
    a.ZeroGrad();
    b.ZeroGrad();
  }
}
BENCHMARK(BM_InfoNce)->Arg(128)->Arg(512);

// The intent-independence regulariser on a (rows x 32) table in 4 intent
// chunks, 64 sampled rows, forward and backward.
void BM_IntentIndependence(benchmark::State& state) {
  Rng rng(7);
  Tensor table = RandomTensor(state.range(0), 32, &rng, true);
  for (auto _ : state) {
    Tensor loss = IntentIndependenceLoss(table, 4, 64, &rng);
    Backward(loss);
    table.ZeroGrad();
  }
}
BENCHMARK(BM_IntentIndependence)->Arg(1000);

void BM_BprTrainStep(benchmark::State& state) {
  SyntheticConfig config;
  config.num_users = 300;
  config.num_items = 500;
  config.num_tags = 60;
  config.num_interactions = 8000;
  config.num_item_tags = 2000;
  Dataset ds = GenerateSynthetic(config);
  DataSplit split = SplitByUser(ds, SplitOptions{});
  BackboneOptions bopts;
  bopts.embedding_dim = 16;
  BprModel model(std::make_unique<Bprmf>(ds.num_users, ds.num_items, bopts),
                 ds, split, AdamOptions{}, 1024);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.TrainStep(&rng));
  }
}
BENCHMARK(BM_BprTrainStep);

void BM_ImcatTrainStep(benchmark::State& state) {
  SyntheticConfig config;
  config.num_users = 300;
  config.num_items = 500;
  config.num_tags = 60;
  config.num_interactions = 8000;
  config.num_item_tags = 2000;
  Dataset ds = GenerateSynthetic(config);
  DataSplit split = SplitByUser(ds, SplitOptions{});
  BackboneOptions bopts;
  bopts.embedding_dim = 16;
  ImcatConfig iconfig;
  iconfig.pretrain_steps = 0;  // Benchmark the full joint objective.
  iconfig.ca_batch_size = 256;
  ImcatModel model(
      std::make_unique<Bprmf>(ds.num_users, ds.num_items, bopts), ds, split,
      iconfig, AdamOptions{});
  Rng rng(6);
  model.TrainStep(&rng);  // Warm up: activates clustering + ISA build.
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.TrainStep(&rng));
  }
}
BENCHMARK(BM_ImcatTrainStep);

}  // namespace
}  // namespace imcat

BENCHMARK_MAIN();
