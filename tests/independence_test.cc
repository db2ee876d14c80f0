#include "core/independence.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/autograd.h"
#include "tensor/init.h"
#include "tensor/optimizer.h"
#include "tensor/ops.h"
#include "tests/gradcheck.h"

namespace imcat {
namespace {

Tensor RandomMatrix(int64_t rows, int64_t cols, Rng* rng, bool grad = false) {
  Tensor t(rows, cols, grad);
  for (int64_t i = 0; i < t.size(); ++i)
    t.data()[i] = static_cast<float>(rng->Normal());
  return t;
}

TEST(DistanceCorrelationTest, IdenticalSamplesNearOne) {
  Rng rng(3);
  Tensor a = RandomMatrix(24, 3, &rng);
  Tensor dcor = DistanceCorrelation(a, a);
  EXPECT_NEAR(dcor.item(), 1.0f, 0.02f);
}

TEST(DistanceCorrelationTest, LinearlyRelatedNearOne) {
  Rng rng(4);
  Tensor a = RandomMatrix(24, 2, &rng);
  Tensor b(24, 2);
  for (int64_t i = 0; i < a.size(); ++i) b.data()[i] = 3.0f * a.data()[i];
  Tensor dcor = DistanceCorrelation(a, b);
  EXPECT_GT(dcor.item(), 0.95f);
}

TEST(DistanceCorrelationTest, IndependentSamplesLow) {
  Rng rng(5);
  Tensor a = RandomMatrix(64, 2, &rng);
  Tensor b = RandomMatrix(64, 2, &rng);
  Tensor dcor = DistanceCorrelation(a, b);
  // Finite-sample dCor of independent data is positive but small.
  EXPECT_LT(dcor.item(), 0.45f);
}

TEST(DistanceCorrelationTest, OrderingIndependentVsDependent) {
  Rng rng(6);
  Tensor a = RandomMatrix(40, 2, &rng);
  Tensor dependent(40, 2);
  for (int64_t i = 0; i < a.size(); ++i) {
    dependent.data()[i] = a.data()[i] + 0.1f * static_cast<float>(rng.Normal());
  }
  Tensor unrelated = RandomMatrix(40, 2, &rng);
  EXPECT_GT(DistanceCorrelation(a, dependent).item(),
            DistanceCorrelation(a, unrelated).item());
}

TEST(DistanceCorrelationTest, Gradcheck) {
  Rng rng(7);
  testing::ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return DistanceCorrelation(in[0], in[1]);
      },
      {RandomMatrix(6, 2, &rng, true), RandomMatrix(6, 2, &rng, true)},
      /*abs_tol=*/5e-2, /*rel_tol=*/5e-2);
}

// The composite formula MeanDistanceCorrelation fuses, built from
// elementary ops: per pair, dCov^2 = S1 - 2 S2 + S3 over eps-shifted
// distance matrices, and dCor = sqrt(dCov^2(a,b) + eps) /
// (dVar^2(a) dVar^2(b) + eps)^(1/4).
Tensor CompositeDcov2(const Tensor& dist_a, const Tensor& dist_b) {
  const int64_t n = dist_a.rows();
  const float inv_n2 = 1.0f / static_cast<float>(n * n);
  Tensor s1 = ops::ScalarMul(ops::Sum(ops::Mul(dist_a, dist_b)), inv_n2);
  Tensor s2 = ops::ScalarMul(
      ops::Sum(ops::Mul(ops::RowSum(dist_a), ops::RowSum(dist_b))),
      inv_n2 / static_cast<float>(n));
  Tensor s3 = ops::ScalarMul(ops::Mul(ops::Sum(dist_a), ops::Sum(dist_b)),
                             inv_n2 * inv_n2);
  return ops::Add(ops::Sub(s1, ops::ScalarMul(s2, 2.0f)), s3);
}

Tensor CompositeMeanDcor(const Tensor& x, int blocks) {
  const int64_t width = x.cols() / blocks;
  std::vector<Tensor> dist;
  for (int k = 0; k < blocks; ++k) {
    Tensor chunk = ops::SliceCols(x, k * width, (k + 1) * width);
    dist.push_back(ops::Pow(
        ops::ScalarAdd(ops::PairwiseSqDist(chunk, chunk), 1e-10f), 0.5f));
  }
  Tensor total;
  for (int k = 0; k < blocks; ++k) {
    for (int l = k + 1; l < blocks; ++l) {
      Tensor num = ops::Pow(
          ops::ScalarAdd(CompositeDcov2(dist[k], dist[l]), 1e-10f), 0.5f);
      Tensor den = ops::Pow(
          ops::ScalarAdd(ops::Mul(CompositeDcov2(dist[k], dist[k]),
                                  CompositeDcov2(dist[l], dist[l])),
                         1e-10f),
          0.25f);
      Tensor dcor = ops::Mul(num, ops::Pow(den, -1.0f));
      total = total.defined() ? ops::Add(total, dcor) : dcor;
    }
  }
  return ops::ScalarMul(total, 2.0f / static_cast<float>(blocks * (blocks - 1)));
}

TEST(MeanDistanceCorrelationTest, GradcheckTwoBlocks) {
  Rng rng(14);
  testing::ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return ops::MeanDistanceCorrelation(in[0], {2, 3});
      },
      {RandomMatrix(7, 5, &rng, true)}, /*abs_tol=*/5e-2, /*rel_tol=*/5e-2);
}

TEST(MeanDistanceCorrelationTest, GradcheckFourBlocks) {
  Rng rng(15);
  testing::ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return ops::MeanDistanceCorrelation(in[0], {2, 2, 2, 2});
      },
      {RandomMatrix(6, 8, &rng, true)}, /*abs_tol=*/5e-2, /*rel_tol=*/5e-2);
}

// Value and gradient of the fused op against the composite formula at
// the independence regulariser's shape: 64 sampled rows of a width-32
// table in K = 4 chunks, with correlated chunks so the pairs differ.
TEST(MeanDistanceCorrelationTest, MatchesCompositeFormula) {
  Rng rng(16);
  const int64_t n = 64, width = 32;
  Tensor x(n, width, /*requires_grad=*/true);
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t c = 0; c < width; ++c) {
      const float base = c < 8 ? 0.0f : 0.6f * x.at(r, c - 8);
      x.set(r, c, base + static_cast<float>(rng.Normal()));
    }
  }
  Tensor fused = ops::MeanDistanceCorrelation(x, {8, 8, 8, 8});
  Backward(fused);
  const std::vector<float> fused_grad = x.grad_vector();
  x.ZeroGrad();
  Tensor reference = CompositeMeanDcor(x, 4);
  Backward(reference);
  const std::vector<float>& reference_grad = x.grad_vector();

  EXPECT_NEAR(fused.item(), reference.item(), 1e-5 * reference.item());
  double err = 0.0, norm = 0.0;
  for (size_t i = 0; i < fused_grad.size(); ++i) {
    const double diff = static_cast<double>(fused_grad[i]) - reference_grad[i];
    err += diff * diff;
    norm += static_cast<double>(reference_grad[i]) * reference_grad[i];
  }
  EXPECT_LT(std::sqrt(err / norm), 1e-5);
}

TEST(IntentIndependenceLossTest, SingleIntentIsZero) {
  Rng rng(8);
  Tensor table = RandomMatrix(20, 8, &rng);
  Tensor loss = IntentIndependenceLoss(table, 1, 10, &rng);
  EXPECT_EQ(loss.item(), 0.0f);
}

TEST(IntentIndependenceLossTest, PenalisesDuplicatedChunks) {
  Rng rng(9);
  // Table whose two chunks are identical vs one with independent chunks.
  Tensor dup(40, 8);
  Tensor indep(40, 8);
  for (int64_t r = 0; r < 40; ++r) {
    for (int64_t c = 0; c < 4; ++c) {
      const float v = static_cast<float>(rng.Normal());
      dup.set(r, c, v);
      dup.set(r, 4 + c, v);
      indep.set(r, c, static_cast<float>(rng.Normal()));
      indep.set(r, 4 + c, static_cast<float>(rng.Normal()));
    }
  }
  Rng rng1(10), rng2(10);
  Tensor loss_dup = IntentIndependenceLoss(dup, 2, 32, &rng1);
  Tensor loss_indep = IntentIndependenceLoss(indep, 2, 32, &rng2);
  EXPECT_GT(loss_dup.item(), loss_indep.item() + 0.3f);
}

TEST(IntentIndependenceLossTest, OptimisationReducesCorrelation) {
  Rng rng(11);
  Tensor table(30, 4, /*requires_grad=*/true);
  // Start with strongly (but not perfectly) correlated chunks: at the
  // exactly symmetric point both chunks receive identical gradients and
  // would never separate.
  for (int64_t r = 0; r < 30; ++r) {
    for (int64_t c = 0; c < 2; ++c) {
      const float v = static_cast<float>(rng.Normal());
      table.set(r, c, v);
      table.set(r, 2 + c, v + 0.1f * static_cast<float>(rng.Normal()));
    }
  }
  AdamOptions adam;
  adam.learning_rate = 0.05f;
  AdamOptimizer optimizer(adam);
  optimizer.AddParameter(table);
  Rng loss_rng(12);
  const float initial = IntentIndependenceLoss(table, 2, 30, &loss_rng).item();
  float final_loss = initial;
  for (int step = 0; step < 80; ++step) {
    optimizer.ZeroGrad();
    Rng step_rng(13);
    Tensor loss = IntentIndependenceLoss(table, 2, 30, &step_rng);
    Backward(loss);
    optimizer.Step();
    final_loss = loss.item();
  }
  EXPECT_LT(final_loss, 0.8f * initial);
}

}  // namespace
}  // namespace imcat
