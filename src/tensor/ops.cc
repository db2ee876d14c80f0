#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace imcat {
namespace ops {
namespace {

using Node = internal::TensorNode;

/// C(m x n) += alpha * op(A) * op(B), where op transposes when the flag is
/// set. A naive cache-friendly kernel (ikj order for the NN case).
void GemmAccumulate(bool trans_a, bool trans_b, int64_t m, int64_t n,
                    int64_t k, float alpha, const float* a, const float* b,
                    float* c) {
  if (!trans_a && !trans_b) {
    for (int64_t i = 0; i < m; ++i) {
      const float* ai = a + i * k;
      float* ci = c + i * n;
      for (int64_t p = 0; p < k; ++p) {
        const float av = alpha * ai[p];
        if (av == 0.0f) continue;
        const float* bp = b + p * n;
        for (int64_t j = 0; j < n; ++j) ci[j] += av * bp[j];
      }
    }
  } else if (!trans_a && trans_b) {
    // A (m x k), B (n x k): C_ij += A_i . B_j. Four columns at a time:
    // independent accumulators hide the add latency, and each still sums
    // over p in order, so every entry matches the one-column loop.
    for (int64_t i = 0; i < m; ++i) {
      const float* ai = a + i * k;
      float* ci = c + i * n;
      int64_t j = 0;
      for (; j + 4 <= n; j += 4) {
        const float* b0 = b + j * k;
        const float* b1 = b0 + k;
        const float* b2 = b1 + k;
        const float* b3 = b2 + k;
        float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
        for (int64_t p = 0; p < k; ++p) {
          acc0 += ai[p] * b0[p];
          acc1 += ai[p] * b1[p];
          acc2 += ai[p] * b2[p];
          acc3 += ai[p] * b3[p];
        }
        ci[j] += alpha * acc0;
        ci[j + 1] += alpha * acc1;
        ci[j + 2] += alpha * acc2;
        ci[j + 3] += alpha * acc3;
      }
      for (; j < n; ++j) {
        const float* bj = b + j * k;
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) acc += ai[p] * bj[p];
        ci[j] += alpha * acc;
      }
    }
  } else if (trans_a && !trans_b) {
    // A (k x m), B (k x n): C_ij += sum_p A_pi B_pj
    for (int64_t p = 0; p < k; ++p) {
      const float* ap = a + p * m;
      const float* bp = b + p * n;
      for (int64_t i = 0; i < m; ++i) {
        const float av = alpha * ap[i];
        if (av == 0.0f) continue;
        float* ci = c + i * n;
        for (int64_t j = 0; j < n; ++j) ci[j] += av * bp[j];
      }
    }
  } else {
    // A (k x m), B (n x k): C_ij += sum_p A_pi B_jp
    for (int64_t i = 0; i < m; ++i) {
      float* ci = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) acc += a[p * m + i] * b[j * k + p];
        ci[j] += alpha * acc;
      }
    }
  }
}

/// Allocates the output node of an op, wiring parents and requires_grad.
Tensor NewOp(const char* name, int64_t rows, int64_t cols,
             std::initializer_list<Tensor> parents) {
  Tensor out(rows, cols);
  Node* n = out.node_ptr().get();
  n->op_name = name;
  bool needs_grad = false;
  for (const Tensor& p : parents) {
    n->parents.push_back(p.node_ptr());
    needs_grad = needs_grad || p.node_ptr()->requires_grad;
  }
  n->requires_grad = needs_grad;
  return out;
}

/// True if the op must record a backward closure.
bool NeedsGrad(const Tensor& out) { return out.node_ptr()->requires_grad; }

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  IMCAT_CHECK_EQ(a.cols(), b.rows());
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  Tensor out = NewOp("matmul", m, n, {a, b});
  GemmAccumulate(false, false, m, n, k, 1.0f, a.data(), b.data(), out.data());
  if (NeedsGrad(out)) {
    auto an = a.node_ptr(), bn = b.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, bn, on, m, n, k]() {
      if (an->requires_grad) {
        an->EnsureGrad();
        GemmAccumulate(false, true, m, k, n, 1.0f, on->grad.data(),
                       bn->data.data(), an->grad.data());
      }
      if (bn->requires_grad) {
        bn->EnsureGrad();
        GemmAccumulate(true, false, k, n, m, 1.0f, an->data.data(),
                       on->grad.data(), bn->grad.data());
      }
    };
  }
  return out;
}

Tensor MatMulNT(const Tensor& a, const Tensor& b) {
  IMCAT_CHECK_EQ(a.cols(), b.cols());
  const int64_t m = a.rows(), d = a.cols(), n = b.rows();
  Tensor out = NewOp("matmul_nt", m, n, {a, b});
  GemmAccumulate(false, true, m, n, d, 1.0f, a.data(), b.data(), out.data());
  if (NeedsGrad(out)) {
    auto an = a.node_ptr(), bn = b.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, bn, on, m, n, d]() {
      if (an->requires_grad) {
        an->EnsureGrad();
        // dA = dC * B : (m x n)(n x d)
        GemmAccumulate(false, false, m, d, n, 1.0f, on->grad.data(),
                       bn->data.data(), an->grad.data());
      }
      if (bn->requires_grad) {
        bn->EnsureGrad();
        // dB = dC^T * A : (n x m)(m x d)
        GemmAccumulate(true, false, n, d, m, 1.0f, on->grad.data(),
                       an->data.data(), bn->grad.data());
      }
    };
  }
  return out;
}

namespace {

template <typename Fwd, typename BwdA, typename BwdB>
Tensor ElementwiseBinary(const char* name, const Tensor& a, const Tensor& b,
                         Fwd fwd, BwdA da_of, BwdB db_of) {
  IMCAT_CHECK_EQ(a.rows(), b.rows());
  IMCAT_CHECK_EQ(a.cols(), b.cols());
  Tensor out = NewOp(name, a.rows(), a.cols(), {a, b});
  const int64_t size = a.size();
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (int64_t i = 0; i < size; ++i) po[i] = fwd(pa[i], pb[i]);
  if (NeedsGrad(out)) {
    auto an = a.node_ptr(), bn = b.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, bn, on, size, da_of, db_of]() {
      const float* g = on->grad.data();
      if (an->requires_grad) {
        an->EnsureGrad();
        float* ga = an->grad.data();
        for (int64_t i = 0; i < size; ++i)
          ga[i] += g[i] * da_of(an->data[i], bn->data[i]);
      }
      if (bn->requires_grad) {
        bn->EnsureGrad();
        float* gb = bn->grad.data();
        for (int64_t i = 0; i < size; ++i)
          gb[i] += g[i] * db_of(an->data[i], bn->data[i]);
      }
    };
  }
  return out;
}

template <typename Fwd, typename BwdScale>
Tensor ElementwiseUnary(const char* name, const Tensor& a, Fwd fwd,
                        BwdScale dscale) {
  Tensor out = NewOp(name, a.rows(), a.cols(), {a});
  const int64_t size = a.size();
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t i = 0; i < size; ++i) po[i] = fwd(pa[i]);
  if (NeedsGrad(out)) {
    auto an = a.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, on, size, dscale]() {
      if (!an->requires_grad) return;
      an->EnsureGrad();
      const float* g = on->grad.data();
      float* ga = an->grad.data();
      for (int64_t i = 0; i < size; ++i)
        ga[i] += g[i] * dscale(an->data[i], on->data[i]);
    };
  }
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(
      "add", a, b, [](float x, float y) { return x + y; },
      [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(
      "sub", a, b, [](float x, float y) { return x - y; },
      [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(
      "mul", a, b, [](float x, float y) { return x * y; },
      [](float, float y) { return y; }, [](float x, float) { return x; });
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias) {
  IMCAT_CHECK_EQ(bias.rows(), 1);
  IMCAT_CHECK_EQ(bias.cols(), a.cols());
  Tensor out = NewOp("add_row_broadcast", a.rows(), a.cols(), {a, bias});
  const int64_t rows = a.rows(), cols = a.cols();
  const float* pa = a.data();
  const float* pb = bias.data();
  float* po = out.data();
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) po[r * cols + c] = pa[r * cols + c] + pb[c];
  }
  if (NeedsGrad(out)) {
    auto an = a.node_ptr(), bn = bias.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, bn, on, rows, cols]() {
      const float* g = on->grad.data();
      if (an->requires_grad) {
        an->EnsureGrad();
        float* ga = an->grad.data();
        for (int64_t i = 0; i < rows * cols; ++i) ga[i] += g[i];
      }
      if (bn->requires_grad) {
        bn->EnsureGrad();
        float* gb = bn->grad.data();
        for (int64_t r = 0; r < rows; ++r)
          for (int64_t c = 0; c < cols; ++c) gb[c] += g[r * cols + c];
      }
    };
  }
  return out;
}

Tensor MulColBroadcast(const Tensor& a, const Tensor& col) {
  IMCAT_CHECK_EQ(col.cols(), 1);
  IMCAT_CHECK_EQ(col.rows(), a.rows());
  Tensor out = NewOp("mul_col_broadcast", a.rows(), a.cols(), {a, col});
  const int64_t rows = a.rows(), cols = a.cols();
  const float* pa = a.data();
  const float* pc = col.data();
  float* po = out.data();
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c) po[r * cols + c] = pa[r * cols + c] * pc[r];
  if (NeedsGrad(out)) {
    auto an = a.node_ptr(), cn = col.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, cn, on, rows, cols]() {
      const float* g = on->grad.data();
      if (an->requires_grad) {
        an->EnsureGrad();
        float* ga = an->grad.data();
        for (int64_t r = 0; r < rows; ++r)
          for (int64_t c = 0; c < cols; ++c)
            ga[r * cols + c] += g[r * cols + c] * cn->data[r];
      }
      if (cn->requires_grad) {
        cn->EnsureGrad();
        float* gc = cn->grad.data();
        for (int64_t r = 0; r < rows; ++r) {
          float acc = 0.0f;
          for (int64_t c = 0; c < cols; ++c)
            acc += g[r * cols + c] * an->data[r * cols + c];
          gc[r] += acc;
        }
      }
    };
  }
  return out;
}

Tensor AddColBroadcast(const Tensor& a, const Tensor& col) {
  IMCAT_CHECK_EQ(col.cols(), 1);
  IMCAT_CHECK_EQ(col.rows(), a.rows());
  Tensor out = NewOp("add_col_broadcast", a.rows(), a.cols(), {a, col});
  const int64_t rows = a.rows(), cols = a.cols();
  const float* pa = a.data();
  const float* pc = col.data();
  float* po = out.data();
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c) po[r * cols + c] = pa[r * cols + c] + pc[r];
  if (NeedsGrad(out)) {
    auto an = a.node_ptr(), cn = col.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, cn, on, rows, cols]() {
      const float* g = on->grad.data();
      if (an->requires_grad) {
        an->EnsureGrad();
        float* ga = an->grad.data();
        for (int64_t i = 0; i < rows * cols; ++i) ga[i] += g[i];
      }
      if (cn->requires_grad) {
        cn->EnsureGrad();
        float* gc = cn->grad.data();
        for (int64_t r = 0; r < rows; ++r) {
          float acc = 0.0f;
          for (int64_t c = 0; c < cols; ++c) acc += g[r * cols + c];
          gc[r] += acc;
        }
      }
    };
  }
  return out;
}

Tensor MulRowBroadcast(const Tensor& a, const Tensor& row) {
  IMCAT_CHECK_EQ(row.rows(), 1);
  IMCAT_CHECK_EQ(row.cols(), a.cols());
  Tensor out = NewOp("mul_row_broadcast", a.rows(), a.cols(), {a, row});
  const int64_t rows = a.rows(), cols = a.cols();
  const float* pa = a.data();
  const float* pr = row.data();
  float* po = out.data();
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c) po[r * cols + c] = pa[r * cols + c] * pr[c];
  if (NeedsGrad(out)) {
    auto an = a.node_ptr(), rn = row.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, rn, on, rows, cols]() {
      const float* g = on->grad.data();
      if (an->requires_grad) {
        an->EnsureGrad();
        float* ga = an->grad.data();
        for (int64_t r = 0; r < rows; ++r)
          for (int64_t c = 0; c < cols; ++c)
            ga[r * cols + c] += g[r * cols + c] * rn->data[c];
      }
      if (rn->requires_grad) {
        rn->EnsureGrad();
        float* gr = rn->grad.data();
        for (int64_t r = 0; r < rows; ++r)
          for (int64_t c = 0; c < cols; ++c)
            gr[c] += g[r * cols + c] * an->data[r * cols + c];
      }
    };
  }
  return out;
}

Tensor ScalarMul(const Tensor& a, float s) {
  return ElementwiseUnary(
      "scalar_mul", a, [s](float x) { return x * s; },
      [s](float, float) { return s; });
}

Tensor ScalarAdd(const Tensor& a, float s) {
  return ElementwiseUnary(
      "scalar_add", a, [s](float x) { return x + s; },
      [](float, float) { return 1.0f; });
}

Tensor Pow(const Tensor& a, float p) {
  return ElementwiseUnary(
      "pow", a, [p](float x) { return std::pow(x, p); },
      [p](float x, float) { return p * std::pow(x, p - 1.0f); });
}

Tensor Sigmoid(const Tensor& a) {
  return ElementwiseUnary(
      "sigmoid", a,
      [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor LogSigmoid(const Tensor& a) {
  return ElementwiseUnary(
      "log_sigmoid", a,
      [](float x) {
        // Stable: logsig(x) = min(x,0) - log1p(exp(-|x|)).
        const float m = x < 0.0f ? x : 0.0f;
        return m - std::log1p(std::exp(-std::fabs(x)));
      },
      [](float x, float) { return 1.0f / (1.0f + std::exp(x)); });
}

Tensor LeakyRelu(const Tensor& a, float negative_slope) {
  return ElementwiseUnary(
      "leaky_relu", a,
      [negative_slope](float x) { return x >= 0.0f ? x : negative_slope * x; },
      [negative_slope](float x, float) {
        return x >= 0.0f ? 1.0f : negative_slope;
      });
}

Tensor Relu(const Tensor& a) {
  return ElementwiseUnary(
      "relu", a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor Tanh(const Tensor& a) {
  return ElementwiseUnary(
      "tanh", a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Exp(const Tensor& a) {
  return ElementwiseUnary(
      "exp", a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor Log(const Tensor& a, float eps) {
  return ElementwiseUnary(
      "log", a, [eps](float x) { return std::log(x > eps ? x : eps); },
      [eps](float x, float) { return 1.0f / (x > eps ? x : eps); });
}

Tensor Gather(const Tensor& table, const std::vector<int64_t>& indices) {
  const int64_t cols = table.cols();
  const int64_t n = static_cast<int64_t>(indices.size());
  Tensor out = NewOp("gather", n, cols, {table});
  const float* pt = table.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) {
    IMCAT_CHECK(indices[i] >= 0 && indices[i] < table.rows());
    std::memcpy(po + i * cols, pt + indices[i] * cols,
                sizeof(float) * static_cast<size_t>(cols));
  }
  if (NeedsGrad(out)) {
    auto tn = table.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [tn, on, indices, n, cols]() {
      if (!tn->requires_grad) return;
      tn->EnsureGrad();
      const float* g = on->grad.data();
      float* gt = tn->grad.data();
      for (int64_t i = 0; i < n; ++i) {
        float* row = gt + indices[i] * cols;
        const float* gi = g + i * cols;
        for (int64_t c = 0; c < cols; ++c) row[c] += gi[c];
      }
    };
  }
  return out;
}

Tensor SliceCols(const Tensor& a, int64_t begin, int64_t end) {
  IMCAT_CHECK(begin >= 0 && begin < end && end <= a.cols());
  const int64_t rows = a.rows(), cols = a.cols(), width = end - begin;
  Tensor out = NewOp("slice_cols", rows, width, {a});
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t r = 0; r < rows; ++r) {
    std::memcpy(po + r * width, pa + r * cols + begin,
                sizeof(float) * static_cast<size_t>(width));
  }
  if (NeedsGrad(out)) {
    auto an = a.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, on, rows, cols, begin, width]() {
      if (!an->requires_grad) return;
      an->EnsureGrad();
      const float* g = on->grad.data();
      float* ga = an->grad.data();
      for (int64_t r = 0; r < rows; ++r)
        for (int64_t c = 0; c < width; ++c)
          ga[r * cols + begin + c] += g[r * width + c];
    };
  }
  return out;
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  IMCAT_CHECK(!parts.empty());
  const int64_t rows = parts[0].rows();
  int64_t total_cols = 0;
  bool needs_grad = false;
  for (const Tensor& p : parts) {
    IMCAT_CHECK_EQ(p.rows(), rows);
    total_cols += p.cols();
    needs_grad = needs_grad || p.node_ptr()->requires_grad;
  }
  Tensor out(rows, total_cols);
  Node* on = out.node_ptr().get();
  on->op_name = "concat_cols";
  on->requires_grad = needs_grad;
  for (const Tensor& p : parts) on->parents.push_back(p.node_ptr());

  float* po = out.data();
  int64_t offset = 0;
  for (const Tensor& p : parts) {
    const float* pp = p.data();
    const int64_t pc = p.cols();
    for (int64_t r = 0; r < rows; ++r) {
      std::memcpy(po + r * total_cols + offset, pp + r * pc,
                  sizeof(float) * static_cast<size_t>(pc));
    }
    offset += pc;
  }
  if (needs_grad) {
    std::vector<std::shared_ptr<Node>> pnodes;
    std::vector<int64_t> widths;
    for (const Tensor& p : parts) {
      pnodes.push_back(p.node_ptr());
      widths.push_back(p.cols());
    }
    on->backward_fn = [on, pnodes, widths, rows, total_cols]() {
      const float* g = on->grad.data();
      int64_t offset = 0;
      for (size_t k = 0; k < pnodes.size(); ++k) {
        Node* pn = pnodes[k].get();
        const int64_t w = widths[k];
        if (pn->requires_grad) {
          pn->EnsureGrad();
          float* gp = pn->grad.data();
          for (int64_t r = 0; r < rows; ++r)
            for (int64_t c = 0; c < w; ++c)
              gp[r * w + c] += g[r * total_cols + offset + c];
        }
        offset += w;
      }
    };
  }
  return out;
}

Tensor RowSum(const Tensor& a) {
  const int64_t rows = a.rows(), cols = a.cols();
  Tensor out = NewOp("row_sum", rows, 1, {a});
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t r = 0; r < rows; ++r) {
    float acc = 0.0f;
    for (int64_t c = 0; c < cols; ++c) acc += pa[r * cols + c];
    po[r] = acc;
  }
  if (NeedsGrad(out)) {
    auto an = a.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, on, rows, cols]() {
      if (!an->requires_grad) return;
      an->EnsureGrad();
      const float* g = on->grad.data();
      float* ga = an->grad.data();
      for (int64_t r = 0; r < rows; ++r)
        for (int64_t c = 0; c < cols; ++c) ga[r * cols + c] += g[r];
    };
  }
  return out;
}

Tensor Sum(const Tensor& a) {
  Tensor out = NewOp("sum", 1, 1, {a});
  const float* pa = a.data();
  const int64_t size = a.size();
  double acc = 0.0;
  for (int64_t i = 0; i < size; ++i) acc += pa[i];
  out.data()[0] = static_cast<float>(acc);
  if (NeedsGrad(out)) {
    auto an = a.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, on, size]() {
      if (!an->requires_grad) return;
      an->EnsureGrad();
      const float g = on->grad[0];
      float* ga = an->grad.data();
      for (int64_t i = 0; i < size; ++i) ga[i] += g;
    };
  }
  return out;
}

Tensor Mean(const Tensor& a) {
  IMCAT_CHECK_GT(a.size(), 0);
  Tensor s = Sum(a);
  return ScalarMul(s, 1.0f / static_cast<float>(a.size()));
}

Tensor L2NormalizeRows(const Tensor& a, float eps) {
  const int64_t rows = a.rows(), cols = a.cols();
  Tensor out = NewOp("l2_normalize_rows", rows, cols, {a});
  const float* pa = a.data();
  float* po = out.data();
  std::vector<float> norms(rows);
  for (int64_t r = 0; r < rows; ++r) {
    float ss = 0.0f;
    for (int64_t c = 0; c < cols; ++c) ss += pa[r * cols + c] * pa[r * cols + c];
    float n = std::sqrt(ss);
    norms[r] = n > eps ? n : eps;
    for (int64_t c = 0; c < cols; ++c) po[r * cols + c] = pa[r * cols + c] / norms[r];
  }
  if (NeedsGrad(out)) {
    auto an = a.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, on, rows, cols, norms, eps]() {
      if (!an->requires_grad) return;
      an->EnsureGrad();
      const float* g = on->grad.data();
      const float* y = on->data.data();
      float* ga = an->grad.data();
      for (int64_t r = 0; r < rows; ++r) {
        const float inv_n = 1.0f / norms[r];
        // If the norm was clamped to eps, the denominator is constant.
        const bool clamped = norms[r] <= eps;
        float dot = 0.0f;
        if (!clamped) {
          for (int64_t c = 0; c < cols; ++c) dot += g[r * cols + c] * y[r * cols + c];
        }
        for (int64_t c = 0; c < cols; ++c) {
          ga[r * cols + c] +=
              inv_n * (g[r * cols + c] - (clamped ? 0.0f : dot * y[r * cols + c]));
        }
      }
    };
  }
  return out;
}

Tensor RowNormalize(const Tensor& a, float eps) {
  const int64_t rows = a.rows(), cols = a.cols();
  Tensor out = NewOp("row_normalize", rows, cols, {a});
  const float* pa = a.data();
  float* po = out.data();
  std::vector<float> sums(rows);
  for (int64_t r = 0; r < rows; ++r) {
    float s = 0.0f;
    for (int64_t c = 0; c < cols; ++c) s += pa[r * cols + c];
    sums[r] = s > eps ? s : eps;
    for (int64_t c = 0; c < cols; ++c) po[r * cols + c] = pa[r * cols + c] / sums[r];
  }
  if (NeedsGrad(out)) {
    auto an = a.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, on, rows, cols, sums]() {
      if (!an->requires_grad) return;
      an->EnsureGrad();
      const float* g = on->grad.data();
      const float* y = on->data.data();
      float* ga = an->grad.data();
      for (int64_t r = 0; r < rows; ++r) {
        float dot = 0.0f;
        for (int64_t c = 0; c < cols; ++c) dot += g[r * cols + c] * y[r * cols + c];
        const float inv_s = 1.0f / sums[r];
        for (int64_t c = 0; c < cols; ++c)
          ga[r * cols + c] += inv_s * (g[r * cols + c] - dot);
      }
    };
  }
  return out;
}

Tensor SpMM(const SparseMatrix& s, const Tensor& a) {
  IMCAT_CHECK_EQ(s.cols(), a.rows());
  const int64_t cols = a.cols();
  Tensor out = NewOp("spmm", s.rows(), cols, {a});
  s.Multiply(a.data(), cols, out.data());
  if (NeedsGrad(out)) {
    auto an = a.node_ptr();
    Node* on = out.node_ptr().get();
    // The sparse matrix must outlive any Backward() call on this graph;
    // adjacency matrices are owned by the models for their whole lifetime.
    const SparseMatrix* sp = &s;
    out.node_ptr()->backward_fn = [an, on, sp, cols]() {
      if (!an->requires_grad) return;
      an->EnsureGrad();
      // dA += S^T dOut, computed by scattering over S's rows.
      const float* g = on->grad.data();
      float* ga = an->grad.data();
      const auto& indptr = sp->indptr();
      const auto& indices = sp->indices();
      const auto& values = sp->values();
      for (int64_t r = 0; r < sp->rows(); ++r) {
        const float* gr = g + r * cols;
        for (int64_t k = indptr[r]; k < indptr[r + 1]; ++k) {
          float* row = ga + indices[k] * cols;
          const float v = values[k];
          for (int64_t c = 0; c < cols; ++c) row[c] += v * gr[c];
        }
      }
    };
  }
  return out;
}

Tensor PairwiseSqDist(const Tensor& a, const Tensor& b) {
  IMCAT_CHECK_EQ(a.cols(), b.cols());
  const int64_t n = a.rows(), k = b.rows(), d = a.cols();
  Tensor out = NewOp("pairwise_sqdist", n, k, {a, b});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) {
    const float* ai = pa + i * d;
    for (int64_t j = 0; j < k; ++j) {
      const float* bj = pb + j * d;
      float acc = 0.0f;
      for (int64_t c = 0; c < d; ++c) {
        const float diff = ai[c] - bj[c];
        acc += diff * diff;
      }
      po[i * k + j] = acc;
    }
  }
  if (NeedsGrad(out)) {
    auto an = a.node_ptr(), bn = b.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, bn, on, n, k, d]() {
      const float* g = on->grad.data();
      const float* pa = an->data.data();
      const float* pb = bn->data.data();
      if (an->requires_grad) an->EnsureGrad();
      if (bn->requires_grad) bn->EnsureGrad();
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < k; ++j) {
          const float gij = 2.0f * g[i * k + j];
          if (gij == 0.0f) continue;
          for (int64_t c = 0; c < d; ++c) {
            const float diff = pa[i * d + c] - pb[j * d + c];
            if (an->requires_grad) an->grad[i * d + c] += gij * diff;
            if (bn->requires_grad) bn->grad[j * d + c] -= gij * diff;
          }
        }
      }
    };
  }
  return out;
}

Tensor SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<int64_t>& targets,
                           const std::vector<float>& weights) {
  const int64_t rows = logits.rows(), cols = logits.cols();
  IMCAT_CHECK_EQ(static_cast<int64_t>(targets.size()), rows);
  IMCAT_CHECK_EQ(static_cast<int64_t>(weights.size()), rows);
  Tensor out = NewOp("softmax_xent", 1, 1, {logits});
  const float* pl = logits.data();
  // Cache the softmax probabilities for the backward pass.
  std::vector<float> probs(static_cast<size_t>(rows * cols));
  double loss = 0.0;
  for (int64_t r = 0; r < rows; ++r) {
    IMCAT_CHECK(targets[r] >= 0 && targets[r] < cols);
    const float* lr = pl + r * cols;
    float mx = lr[0];
    for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, lr[c]);
    double z = 0.0;
    for (int64_t c = 0; c < cols; ++c) z += std::exp(static_cast<double>(lr[c] - mx));
    const double log_z = std::log(z) + mx;
    for (int64_t c = 0; c < cols; ++c) {
      probs[r * cols + c] =
          static_cast<float>(std::exp(static_cast<double>(lr[c]) - log_z));
    }
    loss += weights[r] * (log_z - lr[targets[r]]);
  }
  out.data()[0] = static_cast<float>(loss);
  if (NeedsGrad(out)) {
    auto ln = logits.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [ln, on, probs = std::move(probs), targets,
                                   weights, rows, cols]() {
      if (!ln->requires_grad) return;
      ln->EnsureGrad();
      const float g = on->grad[0];
      float* gl = ln->grad.data();
      for (int64_t r = 0; r < rows; ++r) {
        const float w = g * weights[r];
        for (int64_t c = 0; c < cols; ++c)
          gl[r * cols + c] += w * probs[r * cols + c];
        gl[r * cols + targets[r]] -= w;
      }
    };
  }
  return out;
}

Tensor SymmetricInfoNce(const Tensor& u, const Tensor& z, float inv_tau,
                        const std::vector<float>& weights) {
  IMCAT_CHECK_EQ(u.rows(), z.rows());
  IMCAT_CHECK_EQ(u.cols(), z.cols());
  const int64_t b = u.rows(), d = u.cols();
  IMCAT_CHECK_GT(b, 0);
  IMCAT_CHECK_EQ(static_cast<int64_t>(weights.size()), b);
  Tensor out = NewOp("symmetric_info_nce", 1, 1, {u, z});
  // S = inv_tau * u z^T; the buffer becomes dS once the loss is known.
  std::vector<float> s(static_cast<size_t>(b * b), 0.0f);
  GemmAccumulate(false, true, b, b, d, inv_tau, u.data(), z.data(), s.data());

  std::vector<float> row_shift(b, -INFINITY), col_shift(b, -INFINITY);
  for (int64_t i = 0; i < b; ++i) {
    const float* si = s.data() + i * b;
    for (int64_t j = 0; j < b; ++j) {
      row_shift[i] = std::max(row_shift[i], si[j]);
      col_shift[j] = std::max(col_shift[j], si[j]);
    }
  }
  // When every row and column max lies within kSharedRange of the global
  // max, no row or column sum can lose its leading term to fp32
  // underflow, so one exponential per entry, shifted by the global max,
  // serves both softmaxes. Otherwise (extreme logits) rows and columns
  // are shifted by their own max, at two exponentials per entry.
  constexpr float kSharedRange = 60.0f;
  const float global = *std::max_element(row_shift.begin(), row_shift.end());
  const bool shared =
      *std::min_element(row_shift.begin(), row_shift.end()) >=
          global - kSharedRange &&
      *std::min_element(col_shift.begin(), col_shift.end()) >=
          global - kSharedRange;
  if (shared) {
    std::fill(row_shift.begin(), row_shift.end(), global);
    std::fill(col_shift.begin(), col_shift.end(), global);
  }
  std::vector<float> row_exp(static_cast<size_t>(b * b));
  std::vector<float> col_exp(shared ? 0 : static_cast<size_t>(b * b));
  std::vector<double> row_sum(b, 0.0), col_sum(b, 0.0);
  for (int64_t i = 0; i < b; ++i) {
    const float* si = s.data() + i * b;
    float* ri = row_exp.data() + i * b;
    for (int64_t j = 0; j < b; ++j) {
      ri[j] = std::exp(si[j] - row_shift[i]);
      row_sum[i] += ri[j];
    }
    if (shared) {
      for (int64_t j = 0; j < b; ++j) col_sum[j] += ri[j];
    } else {
      float* ci = col_exp.data() + i * b;
      for (int64_t j = 0; j < b; ++j) {
        ci[j] = std::exp(si[j] - col_shift[j]);
        col_sum[j] += ci[j];
      }
    }
  }
  double loss = 0.0;
  for (int64_t i = 0; i < b; ++i) {
    const double diag = s[i * b + i];
    const double row_lse = row_shift[i] + std::log(row_sum[i]);
    const double col_lse = col_shift[i] + std::log(col_sum[i]);
    loss += weights[i] * ((row_lse - diag) + (col_lse - diag));
  }
  out.data()[0] = static_cast<float>(loss);

  if (NeedsGrad(out)) {
    // dS_ij = w_i P_ij + w_j Q_ij - 2 w_i [i=j], with P_ij = row_exp_ij /
    // row_sum_i and Q_ij = col_exp_ij / col_sum_j.
    const std::vector<float>& col_src = shared ? row_exp : col_exp;
    std::vector<float> row_scale(b), col_scale(b);
    for (int64_t i = 0; i < b; ++i) {
      row_scale[i] = static_cast<float>(weights[i] / row_sum[i]);
      col_scale[i] = static_cast<float>(weights[i] / col_sum[i]);
    }
    for (int64_t i = 0; i < b; ++i) {
      float* si = s.data() + i * b;
      const float* ri = row_exp.data() + i * b;
      const float* ci = col_src.data() + i * b;
      for (int64_t j = 0; j < b; ++j) {
        si[j] = ri[j] * row_scale[i] + ci[j] * col_scale[j];
      }
      si[i] -= 2.0f * weights[i];
    }
    auto un = u.node_ptr(), zn = z.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [un, zn, on, ds = std::move(s), b, d,
                                   inv_tau]() {
      const float alpha = on->grad[0] * inv_tau;
      if (un->requires_grad) {
        un->EnsureGrad();
        // dU = alpha dS Z : (b x b)(b x d)
        GemmAccumulate(false, false, b, d, b, alpha, ds.data(),
                       zn->data.data(), un->grad.data());
      }
      if (zn->requires_grad) {
        zn->EnsureGrad();
        // dZ = alpha dS^T U : (b x b)^T (b x d)
        GemmAccumulate(true, false, b, d, b, alpha, ds.data(),
                       un->data.data(), zn->grad.data());
      }
    };
  }
  return out;
}

Tensor MeanDistanceCorrelation(const Tensor& x,
                               const std::vector<int64_t>& widths) {
  const int64_t n = x.rows(), cols = x.cols();
  const int64_t blocks = static_cast<int64_t>(widths.size());
  IMCAT_CHECK_GE(n, 2);
  IMCAT_CHECK_GE(blocks, 2);
  std::vector<int64_t> offsets(blocks + 1, 0);
  for (int64_t k = 0; k < blocks; ++k) {
    IMCAT_CHECK_GT(widths[k], 0);
    offsets[k + 1] = offsets[k] + widths[k];
  }
  IMCAT_CHECK_EQ(offsets[blocks], cols);
  Tensor out = NewOp("mean_distance_correlation", 1, 1, {x});
  constexpr float kEps = 1e-10f;
  const int64_t nn = n * n;
  const float* px = x.data();

  // Per block: the distance matrix, its row sums and its total.
  std::vector<float> dist(static_cast<size_t>(blocks * nn));
  std::vector<double> row_sums(static_cast<size_t>(blocks * n), 0.0);
  std::vector<double> totals(blocks, 0.0);
  const float diagonal = std::sqrt(kEps);
  for (int64_t k = 0; k < blocks; ++k) {
    float* dk = dist.data() + k * nn;
    double* rk = row_sums.data() + k * n;
    for (int64_t i = 0; i < n; ++i) {
      const float* xi = px + i * cols + offsets[k];
      dk[i * n + i] = diagonal;
      for (int64_t j = i + 1; j < n; ++j) {
        const float* xj = px + j * cols + offsets[k];
        float sq = 0.0f;
        for (int64_t c = 0; c < widths[k]; ++c) {
          const float diff = xi[c] - xj[c];
          sq += diff * diff;
        }
        dk[i * n + j] = dk[j * n + i] = std::sqrt(sq + kEps);
      }
      for (int64_t j = 0; j < n; ++j) rk[i] += dk[i * n + j];
      totals[k] += rk[i];
    }
  }

  // dCov^2 of every pair (k, l), the diagonal being dVar^2.
  const double inv_n2 = 1.0 / static_cast<double>(nn);
  const double inv_n3 = inv_n2 / static_cast<double>(n);
  std::vector<double> dcov2(static_cast<size_t>(blocks * blocks));
  for (int64_t k = 0; k < blocks; ++k) {
    for (int64_t l = k; l < blocks; ++l) {
      const float* dk = dist.data() + k * nn;
      const float* dl = dist.data() + l * nn;
      double s1 = 0.0, s2 = 0.0;
      for (int64_t e = 0; e < nn; ++e) {
        s1 += static_cast<double>(dk[e]) * dl[e];
      }
      for (int64_t i = 0; i < n; ++i) {
        s2 += row_sums[k * n + i] * row_sums[l * n + i];
      }
      dcov2[k * blocks + l] = dcov2[l * blocks + k] =
          s1 * inv_n2 - 2.0 * s2 * inv_n3 +
          totals[k] * totals[l] * inv_n2 * inv_n2;
    }
  }

  // Mean dCor over pairs, and g_kl = dL/d dCov^2(k,l) for the backward:
  // off the diagonal for the pair's numerator, on it for the
  // denominators (doubled there, since dVar^2(k) has D^k in both
  // arguments).
  const double pairs = static_cast<double>(blocks * (blocks - 1) / 2);
  std::vector<double> coef(static_cast<size_t>(blocks * blocks), 0.0);
  double loss = 0.0;
  for (int64_t k = 0; k < blocks; ++k) {
    for (int64_t l = k + 1; l < blocks; ++l) {
      const double var_kk = dcov2[k * blocks + k];
      const double var_ll = dcov2[l * blocks + l];
      const double num = std::sqrt(dcov2[k * blocks + l] + kEps);
      const double den_sq = var_kk * var_ll + kEps;
      const double den = std::pow(den_sq, 0.25);
      const double dcor = num / den;
      loss += dcor;
      coef[k * blocks + l] = coef[l * blocks + k] = 0.5 / (num * den) / pairs;
      coef[k * blocks + k] += -2.0 * dcor * var_ll / (4.0 * den_sq) / pairs;
      coef[l * blocks + l] += -2.0 * dcor * var_kk / (4.0 * den_sq) / pairs;
    }
  }
  out.data()[0] = static_cast<float>(loss / pairs);

  if (NeedsGrad(out)) {
    auto xn = x.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [xn, on, n, cols, blocks, widths, offsets,
                                   dist = std::move(dist),
                                   row_sums = std::move(row_sums),
                                   totals = std::move(totals),
                                   coef = std::move(coef), inv_n2, inv_n3]() {
      if (!xn->requires_grad) return;
      xn->EnsureGrad();
      const float g = on->grad[0];
      const int64_t nn = n * n;
      const float* px = xn->data.data();
      float* gx = xn->grad.data();
      std::vector<float> h(static_cast<size_t>(nn));
      std::vector<double> rho(n);
      std::vector<float> acc;
      for (int64_t k = 0; k < blocks; ++k) {
        // H = (G^k + G^k^T) / D^k; G^k's row term is rho, its constant tau.
        double tau = 0.0;
        std::fill(rho.begin(), rho.end(), 0.0);
        std::fill(h.begin(), h.end(), 0.0f);
        for (int64_t l = 0; l < blocks; ++l) {
          const double c = coef[k * blocks + l];
          tau += c * totals[l] * inv_n2 * inv_n2;
          for (int64_t i = 0; i < n; ++i) rho[i] += c * row_sums[l * n + i];
          const float scale = static_cast<float>(2.0 * c * inv_n2);
          const float* dl = dist.data() + l * nn;
          for (int64_t e = 0; e < nn; ++e) h[e] += scale * dl[e];
        }
        // The diagonal is skipped: x_i - x_i = 0, and 1 / D_ii = 1e5
        // would only add rounding noise.
        const float* dk = dist.data() + k * nn;
        for (int64_t i = 0; i < n; ++i) {
          for (int64_t j = 0; j < n; ++j) {
            const double shift = 2.0 * tau - 2.0 * (rho[i] + rho[j]) * inv_n3;
            const float hij = static_cast<float>(h[i * n + j] + shift);
            h[i * n + j] = i == j ? 0.0f : g * hij / dk[i * n + j];
          }
        }
        // dx_i^k += sum_j H_ij (x_i^k - x_j^k).
        const int64_t w = widths[k];
        for (int64_t i = 0; i < n; ++i) {
          const float* hi = h.data() + i * n;
          const float* xi = px + i * cols + offsets[k];
          float* gi = gx + i * cols + offsets[k];
          acc.assign(static_cast<size_t>(w), 0.0f);
          float h_sum = 0.0f;
          for (int64_t j = 0; j < n; ++j) {
            const float* xj = px + j * cols + offsets[k];
            h_sum += hi[j];
            for (int64_t c = 0; c < w; ++c) acc[c] += hi[j] * xj[c];
          }
          for (int64_t c = 0; c < w; ++c) gi[c] += h_sum * xi[c] - acc[c];
        }
      }
    };
  }
  return out;
}

Tensor Transpose(const Tensor& a) {
  const int64_t rows = a.rows(), cols = a.cols();
  Tensor out = NewOp("transpose", cols, rows, {a});
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c) po[c * rows + r] = pa[r * cols + c];
  if (NeedsGrad(out)) {
    auto an = a.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, on, rows, cols]() {
      if (!an->requires_grad) return;
      an->EnsureGrad();
      const float* g = on->grad.data();
      float* ga = an->grad.data();
      for (int64_t r = 0; r < rows; ++r)
        for (int64_t c = 0; c < cols; ++c) ga[r * cols + c] += g[c * rows + r];
    };
  }
  return out;
}

Tensor Detach(const Tensor& a) { return a.DetachedCopy(); }

}  // namespace ops
}  // namespace imcat
