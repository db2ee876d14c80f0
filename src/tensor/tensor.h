#ifndef IMCAT_TENSOR_TENSOR_H_
#define IMCAT_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/check.h"

/// \file tensor.h
/// A small dense 2-D tensor with reverse-mode automatic differentiation.
///
/// This is the training substrate for the whole library: every model
/// (backbones, IMCAT, baselines) expresses its forward pass with the ops in
/// ops.h, and gradients are obtained with Backward() in autograd.h. The
/// design follows the classic define-by-run tape: each op allocates a new
/// node holding its output, its parents, and a closure that accumulates
/// gradients into the parents.
///
/// Tensors are cheap shared handles: copying a Tensor aliases the same
/// storage and autograd node.

namespace imcat {

namespace internal {

struct TensorNode {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<float> data;
  std::vector<float> grad;  // Lazily allocated; same size as data.
  bool requires_grad = false;
  // Parents in the autograd graph (kept alive for backward).
  std::vector<std::shared_ptr<TensorNode>> parents;
  // Accumulates this node's grad into its parents' grads.
  std::function<void()> backward_fn;
  std::string op_name;  // For error messages / debugging.
  // Bumped by writes that bypass the optimiser (parameter restores).
  uint64_t version = 0;

  void EnsureGrad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  }
};

}  // namespace internal

/// A 2-D float tensor handle participating in the autograd graph.
///
/// A default-constructed Tensor is null; all accessors require a non-null
/// handle. Shapes are (rows, cols); vectors are represented as (n, 1) or
/// (1, n) depending on the op's convention.
class Tensor {
 public:
  /// Null tensor.
  Tensor() = default;

  /// Allocates a zero-filled tensor. If `requires_grad` is true, gradients
  /// flow into this tensor during Backward() (leaf parameter).
  Tensor(int64_t rows, int64_t cols, bool requires_grad = false);

  /// Allocates a tensor initialised from `values` (row-major). The size of
  /// `values` must be rows*cols.
  Tensor(int64_t rows, int64_t cols, std::vector<float> values,
         bool requires_grad = false);

  /// True if this handle refers to storage.
  bool defined() const { return node_ != nullptr; }

  int64_t rows() const { return node()->rows; }
  int64_t cols() const { return node()->cols; }
  int64_t size() const { return node()->rows * node()->cols; }

  /// Raw row-major storage.
  float* data() { return node()->data.data(); }
  const float* data() const { return node()->data.data(); }

  /// Element accessors (row-major). Bounds-checked.
  float at(int64_t r, int64_t c) const {
    IMCAT_CHECK(r >= 0 && r < rows() && c >= 0 && c < cols());
    return node()->data[r * cols() + c];
  }
  void set(int64_t r, int64_t c, float v) {
    IMCAT_CHECK(r >= 0 && r < rows() && c >= 0 && c < cols());
    node()->data[r * cols() + c] = v;
  }

  /// Gradient storage; allocated on demand (zero-filled).
  float* grad() {
    node()->EnsureGrad();
    return node()->grad.data();
  }
  const std::vector<float>& grad_vector() const {
    node()->EnsureGrad();
    return node()->grad;
  }

  bool requires_grad() const { return node()->requires_grad; }

  /// Version stamp of the values: MarkRestored() bumps it after a restore
  /// overwrites them (best-epoch restore, rollback, checkpoint resume), so
  /// caches derived from the values can tell they are stale even when the
  /// restore reached the tensor through a wrapper model.
  uint64_t version() const { return node()->version; }
  void MarkRestored() { ++node()->version; }

  /// Zeroes the gradient buffer (no-op if never allocated).
  void ZeroGrad();

  /// Returns a detached copy sharing no autograd history (fresh leaf with
  /// requires_grad=false, data copied).
  Tensor DetachedCopy() const;

  /// For a 1x1 tensor, returns the single value.
  float item() const {
    IMCAT_CHECK_EQ(size(), 1);
    return node()->data[0];
  }

  /// Internal: autograd node access (used by ops.cc / autograd.cc).
  const std::shared_ptr<internal::TensorNode>& node_ptr() const {
    IMCAT_CHECK(node_ != nullptr);
    return node_;
  }

 private:
  internal::TensorNode* node() const {
    IMCAT_CHECK(node_ != nullptr);
    return node_.get();
  }

  std::shared_ptr<internal::TensorNode> node_;
};

}  // namespace imcat

#endif  // IMCAT_TENSOR_TENSOR_H_
