// Tape-based reverse-mode automatic differentiation over pddl::Matrix.
//
// A Tape owns a DAG of nodes; each op appends a node whose `backward` closure
// scatters the node's gradient into its parents.  Var is a cheap handle
// (tape pointer + node id).  Typical use:
//
//   Ctx ctx;
//   Var x = ctx.leaf(weights);          // leaf bound to a parameter Matrix
//   Var y = tanh(matmul(x, ctx.constant(input)));
//   Var loss = mse(y, target);
//   ctx.backward(loss);
//   Matrix& g = ctx.grad(weights);      // dLoss/dweights
//
// The GHN-2 GatedGNN builds thousands of small nodes per graph traversal;
// node storage is a flat vector so construction and the reverse sweep are
// cache-friendly.
#pragma once

#include <cstddef>
#include <functional>
#include <unordered_map>
#include <vector>

#include "tensor/matrix.hpp"

namespace pddl::ag {

class Tape;

// Handle to a tape node.  Valid only while the owning Tape is alive.
struct Var {
  Tape* tape = nullptr;
  std::size_t id = 0;

  const Matrix& value() const;
  std::size_t rows() const { return value().rows(); }
  std::size_t cols() const { return value().cols(); }
};

class Tape {
 public:
  struct Node {
    Matrix value;
    Matrix grad;  // allocated lazily during backward()
    // Accumulates this node's grad into its parents' grads.
    std::function<void(Tape&, const Matrix& grad_out)> backward;
    bool needs_grad = false;
  };

  // Leaf that participates in differentiation.
  Var leaf(Matrix value);
  // Constant input: no gradient is propagated into it.
  Var constant(Matrix value);

  // Append an interior node.  `parents` lists nodes whose needs_grad status
  // propagates; `backward` is invoked only if the node needs a gradient.
  Var make_node(Matrix value, std::initializer_list<Var> parents,
                std::function<void(Tape&, const Matrix&)> backward);

  const Matrix& value(std::size_t id) const { return nodes_[id].value; }
  Matrix& grad(std::size_t id);
  bool needs_grad(std::size_t id) const { return nodes_[id].needs_grad; }

  // Reverse sweep from `root` (must be 1×1).  Gradients accumulate in
  // Node::grad; query through grad(id).
  void backward(Var root);

  // Add `delta` into node `id`'s gradient (helper for backward closures).
  // The rvalue form moves `delta` into a still-empty slot instead of adding
  // it onto zeros; both leave the same bits (DESIGN.md §17).
  void accumulate(std::size_t id, const Matrix& delta);
  void accumulate(std::size_t id, Matrix&& delta);

  std::size_t size() const { return nodes_.size(); }

 private:
  std::vector<Node> nodes_;
};

// ---- Core ops (all shapes checked, all differentiable) ----

Var add(Var a, Var b);                    // same shape
Var sub(Var a, Var b);                    // same shape
Var mul(Var a, Var b);                    // elementwise, same shape
Var matmul(Var a, Var b);                 // (m×k)·(k×n)
Var scale(Var a, double s);               // a * s
Var add_scalar(Var a, double s);          // a + s
// Add a 1×n row vector to every row of an m×n matrix (bias broadcast).
Var add_row_broadcast(Var a, Var row);
Var sigmoid(Var a);
Var tanh_op(Var a);
Var relu(Var a);
Var square(Var a);
Var abs_op(Var a);                        // |a|, subgradient 0 at 0
// Mean over all elements → 1×1.
Var mean_all(Var a);
// Sum over all elements → 1×1.
Var sum_all(Var a);
// Mean squared error between same-shape matrices → 1×1.
Var mse(Var pred, Var target);
// Concatenate horizontally: (m×a)⊕(m×b) → m×(a+b).
Var concat_cols(Var a, Var b);
// Extract columns [begin, end) → m×(end−begin).
Var slice_cols(Var a, std::size_t begin, std::size_t end);
// Mean over rows: m×n → 1×n (used for the GHN graph readout).
Var mean_rows(Var a);

// ---- Parameter context ----
//
// Binds external parameter Matrix objects to tape leaves exactly once per
// forward pass, and exposes their gradients after backward().
class Ctx {
 public:
  Tape& tape() { return tape_; }

  // Leaf bound to an external parameter (gradient retrievable via grad()).
  Var leaf(Matrix& param);
  // Unbound constant.
  Var constant(Matrix value) { return tape_.constant(std::move(value)); }

  void backward(Var loss) { tape_.backward(loss); }

  // Gradient of the bound parameter; zero matrix if it never influenced the
  // loss.  Must be called after backward().
  Matrix grad(const Matrix& param);

 private:
  Tape tape_;
  std::unordered_map<const Matrix*, std::size_t> bound_;
};

}  // namespace pddl::ag
