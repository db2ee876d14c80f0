#include "tensor/ops.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/autograd.h"
#include "tensor/init.h"
#include "tests/gradcheck.h"
#include "util/rng.h"

namespace imcat {
namespace {

using ops::Add;
using ops::AddRowBroadcast;
using ops::ConcatCols;
using ops::Detach;
using ops::Exp;
using ops::Gather;
using ops::L2NormalizeRows;
using ops::LeakyRelu;
using ops::Log;
using ops::LogSigmoid;
using ops::MatMul;
using ops::MatMulNT;
using ops::Mean;
using ops::Mul;
using ops::MulColBroadcast;
using ops::PairwiseSqDist;
using ops::Pow;
using ops::Relu;
using ops::RowNormalize;
using ops::RowSum;
using ops::ScalarAdd;
using ops::ScalarMul;
using ops::Sigmoid;
using ops::SliceCols;
using ops::SoftmaxCrossEntropy;
using ops::SpMM;
using ops::SymmetricInfoNce;
using ops::Sub;
using ops::Sum;
using ops::Tanh;

Tensor RandomTensor(int64_t rows, int64_t cols, Rng* rng, bool grad = true,
                    float lo = -1.0f, float hi = 1.0f) {
  Tensor t(rows, cols, grad);
  for (int64_t i = 0; i < t.size(); ++i)
    t.data()[i] = static_cast<float>(rng->Uniform(lo, hi));
  return t;
}

// ---------------------------------------------------------------------------
// Forward-value tests.
// ---------------------------------------------------------------------------

TEST(OpsForwardTest, MatMulValues) {
  Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(OpsForwardTest, MatMulNTMatchesExplicitTranspose) {
  Rng rng(3);
  Tensor a = RandomTensor(3, 4, &rng, false);
  Tensor b = RandomTensor(5, 4, &rng, false);
  Tensor c = MatMulNT(a, b);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 5; ++j) {
      float expect = 0.0f;
      for (int64_t k = 0; k < 4; ++k) expect += a.at(i, k) * b.at(j, k);
      EXPECT_NEAR(c.at(i, j), expect, 1e-5f);
    }
  }
}

TEST(OpsForwardTest, ElementwiseBasics) {
  Tensor a(1, 3, {1, -2, 3});
  Tensor b(1, 3, {4, 5, -6});
  EXPECT_FLOAT_EQ(Add(a, b).at(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(Sub(a, b).at(0, 2), 9.0f);
  EXPECT_FLOAT_EQ(Mul(a, b).at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(ScalarMul(a, -2.0f).at(0, 2), -6.0f);
  EXPECT_FLOAT_EQ(ScalarAdd(a, 10.0f).at(0, 1), 8.0f);
}

TEST(OpsForwardTest, ActivationValues) {
  Tensor a(1, 2, {0.0f, -1.0f});
  EXPECT_FLOAT_EQ(Sigmoid(a).at(0, 0), 0.5f);
  EXPECT_NEAR(Tanh(a).at(0, 1), std::tanh(-1.0f), 1e-6f);
  EXPECT_FLOAT_EQ(Relu(a).at(0, 1), 0.0f);
  EXPECT_NEAR(LeakyRelu(a, 0.1f).at(0, 1), -0.1f, 1e-6f);
  EXPECT_NEAR(LogSigmoid(a).at(0, 0), std::log(0.5), 1e-6f);
}

TEST(OpsForwardTest, LogSigmoidStableForLargeInputs) {
  Tensor a(1, 2, {80.0f, -80.0f});
  Tensor y = LogSigmoid(a);
  EXPECT_NEAR(y.at(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(y.at(0, 1), -80.0f, 1e-4f);
  EXPECT_TRUE(std::isfinite(y.at(0, 1)));
}

TEST(OpsForwardTest, GatherSelectsRows) {
  Tensor table(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor g = Gather(table, {2, 0, 2});
  EXPECT_EQ(g.rows(), 3);
  EXPECT_FLOAT_EQ(g.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(g.at(1, 1), 2.0f);
  EXPECT_FLOAT_EQ(g.at(2, 1), 6.0f);
}

TEST(OpsForwardTest, SliceAndConcatRoundTrip) {
  Rng rng(5);
  Tensor a = RandomTensor(4, 6, &rng, false);
  Tensor left = SliceCols(a, 0, 2);
  Tensor mid = SliceCols(a, 2, 5);
  Tensor right = SliceCols(a, 5, 6);
  Tensor back = ConcatCols({left, mid, right});
  for (int64_t i = 0; i < a.size(); ++i)
    EXPECT_FLOAT_EQ(back.data()[i], a.data()[i]);
}

TEST(OpsForwardTest, Reductions) {
  Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor rs = RowSum(a);
  EXPECT_FLOAT_EQ(rs.at(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(rs.at(1, 0), 15.0f);
  EXPECT_FLOAT_EQ(Sum(a).item(), 21.0f);
  EXPECT_FLOAT_EQ(Mean(a).item(), 3.5f);
}

TEST(OpsForwardTest, L2NormalizeMakesUnitRows) {
  Rng rng(9);
  Tensor a = RandomTensor(5, 7, &rng, false);
  Tensor y = L2NormalizeRows(a);
  for (int64_t r = 0; r < 5; ++r) {
    float ss = 0.0f;
    for (int64_t c = 0; c < 7; ++c) ss += y.at(r, c) * y.at(r, c);
    EXPECT_NEAR(ss, 1.0f, 1e-5f);
  }
}

TEST(OpsForwardTest, L2NormalizeZeroRowStaysZero) {
  Tensor a(1, 3);
  Tensor y = L2NormalizeRows(a);
  for (int64_t c = 0; c < 3; ++c) EXPECT_FLOAT_EQ(y.at(0, c), 0.0f);
}

TEST(OpsForwardTest, RowNormalizeSumsToOne) {
  Tensor a(2, 3, {1, 1, 2, 5, 0.5, 4.5});
  Tensor y = RowNormalize(a);
  for (int64_t r = 0; r < 2; ++r) {
    float s = 0.0f;
    for (int64_t c = 0; c < 3; ++c) s += y.at(r, c);
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
  EXPECT_NEAR(y.at(0, 2), 0.5f, 1e-6f);
}

TEST(OpsForwardTest, PairwiseSqDistValues) {
  Tensor a(2, 2, {0, 0, 1, 1});
  Tensor b(2, 2, {0, 1, 2, 2});
  Tensor d = PairwiseSqDist(a, b);
  EXPECT_FLOAT_EQ(d.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(d.at(0, 1), 8.0f);
  EXPECT_FLOAT_EQ(d.at(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(d.at(1, 1), 2.0f);
}

TEST(OpsForwardTest, SpMMMatchesDense) {
  // S = [[1, 0, 2], [0, 3, 0]]
  SparseMatrix s = SparseMatrix::FromTriplets(2, 3, {0, 0, 1}, {0, 2, 1},
                                              {1.0f, 2.0f, 3.0f});
  Tensor x(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor y = SpMM(s, x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 14.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0), 9.0f);
  EXPECT_FLOAT_EQ(y.at(1, 1), 12.0f);
}

TEST(OpsForwardTest, SoftmaxCrossEntropyUniformLogits) {
  Tensor logits(2, 4);  // all-zero logits -> uniform softmax
  Tensor loss = SoftmaxCrossEntropy(logits, {0, 3}, {1.0f, 1.0f});
  EXPECT_NEAR(loss.item(), 2.0f * std::log(4.0f), 1e-5f);
}

TEST(OpsForwardTest, SoftmaxCrossEntropyWeightsScaleLoss) {
  Rng rng(13);
  Tensor logits = RandomTensor(3, 5, &rng, false);
  Tensor l1 = SoftmaxCrossEntropy(logits, {1, 2, 3}, {1.0f, 1.0f, 1.0f});
  Tensor l2 = SoftmaxCrossEntropy(logits, {1, 2, 3}, {2.0f, 2.0f, 2.0f});
  EXPECT_NEAR(l2.item(), 2.0f * l1.item(), 1e-4f);
}

TEST(OpsForwardTest, DetachBlocksGradient) {
  Tensor a(1, 1, {2.0f}, true);
  Tensor d = Detach(ops::Mul(a, a));
  EXPECT_FALSE(d.requires_grad());
  Tensor loss = ScalarMul(d, 3.0f);
  EXPECT_FALSE(loss.requires_grad());
}

// ---------------------------------------------------------------------------
// Gradient checks (property tests): analytic vs central differences.
// ---------------------------------------------------------------------------

using testing::ExpectGradientsMatch;

TEST(OpsGradTest, MatMul) {
  Rng rng(21);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(Mul(MatMul(in[0], in[1]), in[2]));
      },
      {RandomTensor(3, 4, &rng), RandomTensor(4, 2, &rng),
       RandomTensor(3, 2, &rng, false)});
}

TEST(OpsGradTest, MatMulNT) {
  Rng rng(22);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(Mul(MatMulNT(in[0], in[1]), in[2]));
      },
      {RandomTensor(3, 4, &rng), RandomTensor(5, 4, &rng),
       RandomTensor(3, 5, &rng, false)});
}

TEST(OpsGradTest, AddSubMul) {
  Rng rng(23);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(Mul(Sub(Add(in[0], in[1]), in[2]), in[0]));
      },
      {RandomTensor(2, 3, &rng), RandomTensor(2, 3, &rng),
       RandomTensor(2, 3, &rng)});
}

TEST(OpsGradTest, Broadcasts) {
  Rng rng(24);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(MulColBroadcast(AddRowBroadcast(in[0], in[1]), in[2]));
      },
      {RandomTensor(4, 3, &rng), RandomTensor(1, 3, &rng),
       RandomTensor(4, 1, &rng)});
}

TEST(OpsGradTest, RowAndColBroadcastVariants) {
  Rng rng(44);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(ops::MulRowBroadcast(ops::AddColBroadcast(in[0], in[1]),
                                        in[2]));
      },
      {RandomTensor(4, 3, &rng), RandomTensor(4, 1, &rng),
       RandomTensor(1, 3, &rng)});
}

TEST(OpsForwardTest, TransposeValues) {
  Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor t = ops::Transpose(a);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_FLOAT_EQ(t.at(0, 1), 4.0f);
  EXPECT_FLOAT_EQ(t.at(2, 0), 3.0f);
}

TEST(OpsGradTest, Transpose) {
  Rng rng(45);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(Mul(ops::Transpose(in[0]), in[1]));
      },
      {RandomTensor(3, 4, &rng), RandomTensor(4, 3, &rng, false)});
}

TEST(OpsGradTest, Activations) {
  Rng rng(25);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        Tensor x = in[0];
        Tensor y = Add(Sigmoid(x), Tanh(x));
        y = Add(y, LeakyRelu(x, 0.2f));
        y = Add(y, LogSigmoid(x));
        return Sum(y);
      },
      {RandomTensor(3, 3, &rng, true, -2.0f, 2.0f)});
}

TEST(OpsGradTest, ExpLogPow) {
  Rng rng(26);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        Tensor x = in[0];
        return Sum(Add(Exp(ScalarMul(x, 0.3f)),
                       Add(Log(x), Pow(x, -1.5f))));
      },
      {RandomTensor(3, 3, &rng, true, 0.5f, 2.0f)});
}

TEST(OpsGradTest, GatherScattersIntoTable) {
  Rng rng(27);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        Tensor g = Gather(in[0], {0, 2, 2, 1});
        return Sum(Mul(g, g));
      },
      {RandomTensor(4, 3, &rng)});
}

TEST(OpsGradTest, SliceConcat) {
  Rng rng(28);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        Tensor a = SliceCols(in[0], 0, 2);
        Tensor b = SliceCols(in[0], 2, 4);
        Tensor c = ConcatCols({b, a});
        return Sum(Mul(c, c));
      },
      {RandomTensor(3, 4, &rng)});
}

TEST(OpsGradTest, Reductions) {
  Rng rng(29);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(Mul(RowSum(in[0]), in[1]));
      },
      {RandomTensor(3, 4, &rng), RandomTensor(3, 1, &rng)});
}

TEST(OpsGradTest, MeanGrad) {
  Rng rng(30);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) { return Mean(Mul(in[0], in[0])); },
      {RandomTensor(4, 4, &rng)});
}

TEST(OpsGradTest, L2NormalizeRows) {
  Rng rng(31);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(Mul(L2NormalizeRows(in[0]), in[1]));
      },
      {RandomTensor(3, 4, &rng, true, 0.5f, 1.5f),
       RandomTensor(3, 4, &rng, false)});
}

TEST(OpsGradTest, RowNormalize) {
  Rng rng(32);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(Mul(RowNormalize(in[0]), in[1]));
      },
      {RandomTensor(3, 4, &rng, true, 0.5f, 2.0f),
       RandomTensor(3, 4, &rng, false)});
}

TEST(OpsGradTest, SpMMGrad) {
  Rng rng(33);
  SparseMatrix s = SparseMatrix::FromTriplets(
      3, 4, {0, 0, 1, 2, 2}, {0, 3, 1, 2, 0}, {1.0f, -2.0f, 0.5f, 3.0f, 1.5f});
  ExpectGradientsMatch(
      [&s](const std::vector<Tensor>& in) {
        Tensor y = SpMM(s, in[0]);
        return Sum(Mul(y, y));
      },
      {RandomTensor(4, 3, &rng)});
}

TEST(OpsGradTest, PairwiseSqDist) {
  Rng rng(34);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(Mul(PairwiseSqDist(in[0], in[1]), in[2]));
      },
      {RandomTensor(3, 2, &rng), RandomTensor(4, 2, &rng),
       RandomTensor(3, 4, &rng, false)});
}

TEST(OpsGradTest, SoftmaxCrossEntropy) {
  Rng rng(35);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return SoftmaxCrossEntropy(in[0], {1, 0, 2}, {1.0f, 0.5f, 2.0f});
      },
      {RandomTensor(3, 4, &rng)});
}

TEST(OpsGradTest, SymmetricInfoNceNonUniformWeights) {
  // Non-uniform weights with one zero-weight row: that row still receives
  // gradient as a negative of the other rows.
  Rng rng(38);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return SymmetricInfoNce(in[0], in[1], 2.5f,
                                {1.0f, 0.0f, 0.3f, 2.0f, 0.7f});
      },
      {RandomTensor(5, 3, &rng), RandomTensor(5, 3, &rng)});
}

TEST(OpsGradTest, SymmetricInfoNceLargeLogits) {
  // S_00 = 95 while row 3 peaks at 3.5: the row and column ranges exceed
  // the shared exponential's safe range, so each softmax is shifted by
  // its own max.
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return SymmetricInfoNce(in[0], in[1], 50.0f,
                                {0.5f, 1.0f, 0.0f, 1.5f});
      },
      {Tensor(4, 2, {1.0f, 1.0f, -0.8f, 0.6f, 0.3f, -0.9f, 0.05f, -0.05f},
              true),
       Tensor(4, 2, {0.9f, 1.0f, -0.7f, 0.5f, 0.4f, -1.0f, 0.1f, 0.2f},
              true)},
      /*abs_tol=*/5e-2, /*rel_tol=*/2e-2, /*delta=*/1e-4f);
}

// The composition SymmetricInfoNce replaces: two logits products and two
// row-softmax cross-entropies with diagonal targets.
Tensor TwoCrossEntropies(const Tensor& u, const Tensor& z, float inv_tau,
                         const std::vector<float>& weights) {
  std::vector<int64_t> diagonal(static_cast<size_t>(u.rows()));
  for (size_t i = 0; i < diagonal.size(); ++i) {
    diagonal[i] = static_cast<int64_t>(i);
  }
  return Add(
      SoftmaxCrossEntropy(ScalarMul(MatMulNT(u, z), inv_tau), diagonal,
                          weights),
      SoftmaxCrossEntropy(ScalarMul(MatMulNT(z, u), inv_tau), diagonal,
                          weights));
}

double RelativeError(const std::vector<float>& got,
                     const std::vector<float>& want) {
  double err = 0.0, norm = 0.0;
  for (size_t i = 0; i < want.size(); ++i) {
    err += (static_cast<double>(got[i]) - want[i]) *
           (static_cast<double>(got[i]) - want[i]);
    norm += static_cast<double>(want[i]) * want[i];
  }
  return std::sqrt(err / norm);
}

// Value and gradients of the fused op against the composition, at the
// alignment loss's shape (B = 128 rows, chunk width 8) and on logits
// large enough to take the per-row/per-column shift path.
TEST(OpsEquivalenceTest, SymmetricInfoNceMatchesTwoCrossEntropies) {
  for (const float inv_tau : {5.0f, 400.0f}) {
    Rng rng(40);
    const int64_t batch = 128, width = 8;
    Tensor u = RandomTensor(batch, width, &rng);
    Tensor z = RandomTensor(batch, width, &rng);
    std::vector<float> weights(static_cast<size_t>(batch));
    for (float& w : weights) w = static_cast<float>(rng.Uniform(0.0, 1.0));
    weights[3] = 0.0f;

    Tensor fused = SymmetricInfoNce(u, z, inv_tau, weights);
    Backward(fused);
    const std::vector<float> fused_du = u.grad_vector();
    const std::vector<float> fused_dz = z.grad_vector();
    u.ZeroGrad();
    z.ZeroGrad();
    Tensor reference = TwoCrossEntropies(u, z, inv_tau, weights);
    Backward(reference);

    EXPECT_NEAR(fused.item(), reference.item(),
                1e-5 * std::fabs(reference.item()))
        << "inv_tau " << inv_tau;
    EXPECT_LT(RelativeError(fused_du, u.grad_vector()), 1e-5)
        << "inv_tau " << inv_tau;
    EXPECT_LT(RelativeError(fused_dz, z.grad_vector()), 1e-5)
        << "inv_tau " << inv_tau;
  }
}

TEST(OpsForwardTest, SymmetricInfoNceHugeLogitsStayFinite) {
  // exp of these logits overflows fp32 and double alike without a shift.
  Tensor u(2, 1, {1.0f, -1.0f}, true);
  Tensor z(2, 1, {1.0f, 0.5f}, true);
  Tensor loss = SymmetricInfoNce(u, z, 1e4f, {1.0f, 1.0f});
  Backward(loss);
  EXPECT_TRUE(std::isfinite(loss.item()));
  for (float g : u.grad_vector()) EXPECT_TRUE(std::isfinite(g));
  for (float g : z.grad_vector()) EXPECT_TRUE(std::isfinite(g));
}

TEST(OpsGradTest, SharedInputAccumulatesBothPaths) {
  Rng rng(36);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        Tensor x = in[0];
        // x participates in two branches; gradients must sum.
        return Sum(Add(Mul(x, x), Sigmoid(x)));
      },
      {RandomTensor(3, 3, &rng)});
}

TEST(OpsGradTest, DeepChain) {
  Rng rng(37);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        Tensor h = in[0];
        for (int layer = 0; layer < 4; ++layer) {
          h = Tanh(MatMul(h, in[1]));
        }
        return Mean(h);
      },
      {RandomTensor(2, 3, &rng), RandomTensor(3, 3, &rng)});
}

// ---------------------------------------------------------------------------
// Parameterised sweep: gradcheck across shapes for core ops.
// ---------------------------------------------------------------------------

class OpsGradShapeTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(OpsGradShapeTest, MatMulChainAnyShape) {
  const auto [rows, inner] = GetParam();
  Rng rng(100 + rows * 17 + inner);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Mean(Sigmoid(MatMul(in[0], in[1])));
      },
      {RandomTensor(rows, inner, &rng), RandomTensor(inner, 3, &rng)});
}

TEST_P(OpsGradShapeTest, NormalizeAnyShape) {
  const auto [rows, cols] = GetParam();
  Rng rng(200 + rows * 13 + cols);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(Mul(L2NormalizeRows(in[0]), in[1]));
      },
      {RandomTensor(rows, cols, &rng, true, 0.3f, 1.0f),
       RandomTensor(rows, cols, &rng, false)});
}

INSTANTIATE_TEST_SUITE_P(Shapes, OpsGradShapeTest,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 5},
                                           std::pair{4, 1}, std::pair{2, 7},
                                           std::pair{6, 3}));

}  // namespace
}  // namespace imcat
