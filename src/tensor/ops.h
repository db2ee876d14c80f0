#ifndef IMCAT_TENSOR_OPS_H_
#define IMCAT_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/sparse.h"
#include "tensor/tensor.h"

/// \file ops.h
/// Differentiable operations over Tensor. Every op allocates a fresh output
/// node; if any input requires gradients, the output records a backward
/// closure that accumulates into the inputs' gradient buffers when
/// Backward() (autograd.h) runs.
///
/// Shape conventions: all tensors are 2-D (rows x cols). Bias vectors are
/// (1 x cols); per-row reductions produce (rows x 1).

namespace imcat {
namespace ops {

/// C = A * B. A is (m x k), B is (k x n).
Tensor MatMul(const Tensor& a, const Tensor& b);

/// C = A * B^T. A is (m x d), B is (n x d); result (m x n). This is the
/// similarity-logits primitive for contrastive losses.
Tensor MatMulNT(const Tensor& a, const Tensor& b);

/// Elementwise sum; shapes must match.
Tensor Add(const Tensor& a, const Tensor& b);

/// Elementwise difference; shapes must match.
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise product; shapes must match.
Tensor Mul(const Tensor& a, const Tensor& b);

/// Adds a (1 x cols) bias row to every row of `a`.
Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias);

/// Multiplies every entry of row r by weight (rows x 1) entry r.
Tensor MulColBroadcast(const Tensor& a, const Tensor& col);

/// Adds a (rows x 1) column vector entry to every entry of the matching row.
Tensor AddColBroadcast(const Tensor& a, const Tensor& col);

/// Multiplies every row of `a` elementwise by a (1 x cols) row vector.
Tensor MulRowBroadcast(const Tensor& a, const Tensor& row);

/// a * s.
Tensor ScalarMul(const Tensor& a, float s);

/// a + s.
Tensor ScalarAdd(const Tensor& a, float s);

/// Elementwise power a^p; requires all entries of `a` to be positive when p
/// is non-integral (the caller guarantees the domain).
Tensor Pow(const Tensor& a, float p);

/// Logistic sigmoid.
Tensor Sigmoid(const Tensor& a);

/// Numerically stable log(sigmoid(a)).
Tensor LogSigmoid(const Tensor& a);

/// LeakyReLU with the given negative slope.
Tensor LeakyRelu(const Tensor& a, float negative_slope = 0.01f);

/// ReLU.
Tensor Relu(const Tensor& a);

/// Hyperbolic tangent.
Tensor Tanh(const Tensor& a);

/// Elementwise exp.
Tensor Exp(const Tensor& a);

/// Elementwise log(max(a, eps)).
Tensor Log(const Tensor& a, float eps = 1e-12f);

/// Selects rows of `table` by index: out row i = table row indices[i].
/// Backward scatter-adds into the table (embedding lookup).
Tensor Gather(const Tensor& table, const std::vector<int64_t>& indices);

/// Columns [begin, end) of `a`.
Tensor SliceCols(const Tensor& a, int64_t begin, int64_t end);

/// Horizontal concatenation; all parts share the row count.
Tensor ConcatCols(const std::vector<Tensor>& parts);

/// Per-row sum; result (rows x 1).
Tensor RowSum(const Tensor& a);

/// Sum of all entries; result (1 x 1).
Tensor Sum(const Tensor& a);

/// Mean of all entries; result (1 x 1).
Tensor Mean(const Tensor& a);

/// L2-normalises each row: out_r = a_r / max(||a_r||, eps).
Tensor L2NormalizeRows(const Tensor& a, float eps = 1e-12f);

/// Divides each row by its sum (entries must be positive).
Tensor RowNormalize(const Tensor& a, float eps = 1e-12f);

/// Sparse-dense product: out = S * a, where S is a constant sparse matrix.
Tensor SpMM(const SparseMatrix& s, const Tensor& a);

/// Squared Euclidean distances between rows of `a` (n x d) and rows of `b`
/// (k x d); result (n x k).
Tensor PairwiseSqDist(const Tensor& a, const Tensor& b);

/// Weighted softmax cross-entropy over rows of a logits matrix:
///   loss = sum_i weights[i] * ( -log softmax(logits_i)[targets[i]] ).
/// `targets` and `weights` have logits.rows() entries; `weights` is a plain
/// constant (no gradient flows into it). Result (1 x 1).
Tensor SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<int64_t>& targets,
                           const std::vector<float>& weights);

/// Bidirectional weighted InfoNCE over paired rows of `u` and `z` (both
/// B x c): the InfoNCE primitive (Eqs. 12-13 with the M_{j,k}
/// re-weighting). With S = inv_tau * u z^T and P, Q its row and column
/// softmax,
///   loss = sum_i weights[i] * ( -log P_ii - log Q_ii ),
/// i.e. SoftmaxCrossEntropy over S and over S^T with diagonal targets,
/// built from one GEMM and one exponential per entry of S. Gradient, with
/// dS_ij = weights[i] (P_ij - [i=j]) + weights[j] (Q_ij - [i=j]):
///   dU = inv_tau dS Z,  dZ = inv_tau dS^T U.
/// `weights` is a plain constant. Result (1 x 1).
Tensor SymmetricInfoNce(const Tensor& u, const Tensor& z, float inv_tau,
                        const std::vector<float>& weights);

/// Mean sample distance correlation over all pairs of column blocks of `x`
/// (n x sum(widths)); block k is the next `widths[k]` columns. Each block's
/// distance matrix D^k_ij = sqrt(|x_i^k - x_j^k|^2 + 1e-10) is built once,
/// with its row sums R^k and total T^k; then for every pair of blocks
///   dCov^2(k,l) = sum_ij D^k_ij D^l_ij / n^2 - 2 sum_i R^k_i R^l_i / n^3
///                 + T^k T^l / n^4,
///   dCor(k,l) = sqrt(dCov^2(k,l) + eps) / (dVar^2(k) dVar^2(l) + eps)^(1/4),
/// with dVar^2(k) = dCov^2(k,k). Gradient: with g_kl = dL/d dCov^2(k,l)
/// (g_kk counted for both arguments), block k's coefficient matrix is
///   G^k_ij = sum_l g_kl (D^l_ij / n^2 - 2 R^l_i / n^3 + T^l / n^4),
/// and, with H = (G^k + G^k^T) / D^k elementwise,
///   dx_i^k = sum_j H_ij (x_i^k - x_j^k).
/// Needs n >= 2 and at least two blocks. Result (1 x 1).
Tensor MeanDistanceCorrelation(const Tensor& x,
                               const std::vector<int64_t>& widths);

/// Matrix transpose.
Tensor Transpose(const Tensor& a);

/// Cuts the autograd tape: the result has the same values but no parents,
/// so no gradient flows through it.
Tensor Detach(const Tensor& a);

}  // namespace ops
}  // namespace imcat

#endif  // IMCAT_TENSOR_OPS_H_
