#include "autograd/tape.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/simd.hpp"

namespace pddl::ag {

const Matrix& Var::value() const {
  PDDL_CHECK(tape != nullptr, "Var is not bound to a tape");
  return tape->value(id);
}

Var Tape::leaf(Matrix value) {
  Node n;
  n.value = std::move(value);
  n.needs_grad = true;
  nodes_.push_back(std::move(n));
  return {this, nodes_.size() - 1};
}

Var Tape::constant(Matrix value) {
  Node n;
  n.value = std::move(value);
  n.needs_grad = false;
  nodes_.push_back(std::move(n));
  return {this, nodes_.size() - 1};
}

Var Tape::make_node(Matrix value, std::initializer_list<Var> parents,
                    std::function<void(Tape&, const Matrix&)> backward) {
  Node n;
  n.value = std::move(value);
  for (const Var& p : parents) {
    PDDL_CHECK(p.tape == this, "op mixes Vars from different tapes");
    if (nodes_[p.id].needs_grad) n.needs_grad = true;
  }
  if (n.needs_grad) n.backward = std::move(backward);
  nodes_.push_back(std::move(n));
  return {this, nodes_.size() - 1};
}

Matrix& Tape::grad(std::size_t id) {
  Node& n = nodes_[id];
  if (n.grad.empty()) n.grad = Matrix(n.value.rows(), n.value.cols());
  return n.grad;
}

void Tape::accumulate(std::size_t id, const Matrix& delta) {
  if (!nodes_[id].needs_grad) return;
  grad(id) += delta;
}

void Tape::accumulate(std::size_t id, Matrix&& delta) {
  Node& n = nodes_[id];
  if (!n.needs_grad) return;
  if (!n.grad.empty()) {
    n.grad += delta;
    return;
  }
  // First contribution: take the buffer instead of adding it onto zeros.
  // 0 + x is x for every x except −0, which it turns into +0, so the same
  // "+ 0.0" keeps the slot's bits exactly what the zero-fill path gave.
  PDDL_CHECK(delta.rows() == n.value.rows() && delta.cols() == n.value.cols(),
             "accumulate: gradient shape mismatch");
  double* d = delta.data();
  for (std::size_t i = 0; i < delta.size(); ++i) d[i] += 0.0;
  n.grad = std::move(delta);
}

void Tape::backward(Var root) {
  PDDL_CHECK(root.tape == this, "backward: root from another tape");
  PDDL_CHECK(root.value().rows() == 1 && root.value().cols() == 1,
             "backward: root must be a scalar (1x1)");
  grad(root.id)(0, 0) = 1.0;
  // Nodes are appended in topological order, so a reverse sweep visits every
  // node after all of its consumers.
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    Node& n = nodes_[i];
    if (!n.needs_grad || !n.backward || n.grad.empty()) continue;
    n.backward(*this, n.grad);
  }
}

// ---- ops ----
//
// Backward closures capture node ids, never Vars, so every closure fits in
// std::function's inline buffer (no heap allocation per node).  A delta
// built for one parent is passed as an rvalue, so it moves into an empty
// gradient slot.

namespace {
Tape* tape_of(Var a, Var b) {
  PDDL_CHECK(a.tape != nullptr && a.tape == b.tape,
             "binary op requires Vars on the same tape");
  return a.tape;
}

// Elementwise op y = F(x).  The backward sets da[i] = D(g[i], x[i], y[i]),
// reading x from the parent and y from the node itself (the next slot of
// the tape); F and D are captureless lambdas, passed by type.
template <typename F, typename D>
Var elementwise(Var a, F, D) {
  Matrix out = a.value();
  double* y = out.data();
  for (std::size_t i = 0; i < out.size(); ++i) y[i] = F{}(y[i]);
  const std::size_t self = a.tape->size();
  return a.tape->make_node(
      std::move(out), {a}, [ia = a.id, self](Tape& tp, const Matrix& g) {
        const double* x = tp.value(ia).data();
        const double* yv = tp.value(self).data();
        Matrix da = g;
        double* d = da.data();
        for (std::size_t i = 0; i < da.size(); ++i) {
          d[i] = D{}(d[i], x[i], yv[i]);
        }
        tp.accumulate(ia, std::move(da));
      });
}

// grad_b += aᵀ·g without materializing aᵀ or the product.  Row r of the
// product is Σ_i a(i, r)·g[i, :] summed in ascending i and skipping a zero
// a(i, r): the per-element order of matmul(aᵀ, g).  With one row (every GHN
// node update) that sum is a single scaled row, added straight into the
// gradient; otherwise it is summed into a scratch row first and then added,
// so the gradient still sees one add of the finished sum.  axpy with s = 1
// is that add: 1·x is x bit for bit.
void accumulate_at_g(Matrix& grad_b, const Matrix& a, const Matrix& g) {
  const std::size_t m = a.rows(), k = a.cols(), n = g.cols();
  if (m == 1) {
    for (std::size_t r = 0; r < k; ++r) {
      const double s = a(0, r);
      if (s != 0.0) simd::axpy_f64(grad_b.row_ptr(r), g.data(), s, n);
    }
    return;
  }
  Vector row(n);
  for (std::size_t r = 0; r < k; ++r) {
    std::fill(row.begin(), row.end(), 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      const double s = a(i, r);
      if (s != 0.0) simd::axpy_f64(row.data(), g.row_ptr(i), s, n);
    }
    simd::axpy_f64(grad_b.row_ptr(r), row.data(), 1.0, n);
  }
}
}  // namespace

Var add(Var a, Var b) {
  Tape* t = tape_of(a, b);
  PDDL_CHECK(a.value().same_shape(b.value()), "add: shape mismatch");
  return t->make_node(a.value() + b.value(), {a, b},
                      [ia = a.id, ib = b.id](Tape& tp, const Matrix& g) {
                        tp.accumulate(ia, g);
                        tp.accumulate(ib, g);
                      });
}

Var sub(Var a, Var b) {
  Tape* t = tape_of(a, b);
  PDDL_CHECK(a.value().same_shape(b.value()), "sub: shape mismatch");
  return t->make_node(a.value() - b.value(), {a, b},
                      [ia = a.id, ib = b.id](Tape& tp, const Matrix& g) {
                        tp.accumulate(ia, g);
                        if (tp.needs_grad(ib)) tp.accumulate(ib, g * -1.0);
                      });
}

Var mul(Var a, Var b) {
  Tape* t = tape_of(a, b);
  PDDL_CHECK(a.value().same_shape(b.value()), "mul: shape mismatch");
  return t->make_node(
      hadamard(a.value(), b.value()), {a, b},
      [ia = a.id, ib = b.id](Tape& tp, const Matrix& g) {
        if (tp.needs_grad(ia)) tp.accumulate(ia, hadamard(g, tp.value(ib)));
        if (tp.needs_grad(ib)) tp.accumulate(ib, hadamard(g, tp.value(ia)));
      });
}

Var matmul(Var a, Var b) {
  Tape* t = tape_of(a, b);
  return t->make_node(
      pddl::matmul(a.value(), b.value()), {a, b},
      [ia = a.id, ib = b.id](Tape& tp, const Matrix& g) {
        // dA = g·Bᵀ: the same ascending dot per element as matmul(g, Bᵀ),
        // read from B in place.  dB = Aᵀ·g, accumulated in place.
        if (tp.needs_grad(ia)) {
          tp.accumulate(ia, matmul_transposed_b(g, tp.value(ib)));
        }
        if (tp.needs_grad(ib)) accumulate_at_g(tp.grad(ib), tp.value(ia), g);
      });
}

Var scale(Var a, double s) {
  return a.tape->make_node(a.value() * s, {a},
                           [ia = a.id, s](Tape& tp, const Matrix& g) {
                             tp.accumulate(ia, g * s);
                           });
}

Var add_scalar(Var a, double s) {
  Matrix out = a.value();
  for (std::size_t i = 0; i < out.size(); ++i) out.data()[i] += s;
  return a.tape->make_node(std::move(out), {a},
                           [ia = a.id](Tape& tp, const Matrix& g) {
                             tp.accumulate(ia, g);
                           });
}

Var add_row_broadcast(Var a, Var row) {
  Tape* t = tape_of(a, row);
  PDDL_CHECK(row.value().rows() == 1 && row.value().cols() == a.value().cols(),
             "add_row_broadcast: row must be 1×cols(a)");
  Matrix out = a.value();
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) out(r, c) += row.value()(0, c);
  }
  return t->make_node(std::move(out), {a, row},
                      [ia = a.id, irow = row.id](Tape& tp, const Matrix& g) {
                        tp.accumulate(ia, g);
                        if (!tp.needs_grad(irow)) return;
                        Matrix rg(1, g.cols());
                        for (std::size_t r = 0; r < g.rows(); ++r) {
                          for (std::size_t c = 0; c < g.cols(); ++c) {
                            rg(0, c) += g(r, c);
                          }
                        }
                        tp.accumulate(irow, std::move(rg));
                      });
}

Var sigmoid(Var a) {
  return elementwise(
      a, [](double x) { return 1.0 / (1.0 + std::exp(-x)); },
      [](double g, double, double y) { return g * (y * (1.0 - y)); });
}

Var tanh_op(Var a) {
  return elementwise(
      a, [](double x) { return std::tanh(x); },
      [](double g, double, double y) { return g * (1.0 - y * y); });
}

Var relu(Var a) {
  return elementwise(
      a, [](double x) { return x < 0.0 ? 0.0 : x; },
      [](double g, double x, double) { return x <= 0.0 ? 0.0 : g; });
}

Var square(Var a) {
  return elementwise(a, [](double x) { return x * x; },
                     [](double g, double x, double) { return g * x * 2.0; });
}

Var abs_op(Var a) {
  return elementwise(a, [](double x) { return std::fabs(x); },
                     [](double g, double x, double) {
                       return g * ((x > 0.0) - (x < 0.0));
                     });
}

Var mean_all(Var a) {
  const double n = static_cast<double>(a.value().size());
  return a.tape->make_node(Matrix(1, 1, a.value().sum() / n), {a},
                           [ia = a.id, n](Tape& tp, const Matrix& g) {
                             const Matrix& x = tp.value(ia);
                             tp.accumulate(ia, Matrix(x.rows(), x.cols(),
                                                      g(0, 0) / n));
                           });
}

Var sum_all(Var a) {
  return a.tape->make_node(Matrix(1, 1, a.value().sum()), {a},
                           [ia = a.id](Tape& tp, const Matrix& g) {
                             const Matrix& x = tp.value(ia);
                             tp.accumulate(ia, Matrix(x.rows(), x.cols(),
                                                      g(0, 0)));
                           });
}

Var mse(Var pred, Var target) { return mean_all(square(sub(pred, target))); }

Var concat_cols(Var a, Var b) {
  Tape* t = tape_of(a, b);
  PDDL_CHECK(a.value().rows() == b.value().rows(),
             "concat_cols: row count mismatch");
  const std::size_t m = a.value().rows();
  const std::size_t ca = a.value().cols(), cb = b.value().cols();
  Matrix out(m, ca + cb);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < ca; ++c) out(r, c) = a.value()(r, c);
    for (std::size_t c = 0; c < cb; ++c) out(r, ca + c) = b.value()(r, c);
  }
  return t->make_node(std::move(out), {a, b},
                      [ia = a.id, ib = b.id](Tape& tp, const Matrix& g) {
                        const std::size_t ca = tp.value(ia).cols();
                        const std::size_t cb = tp.value(ib).cols();
                        Matrix da(g.rows(), ca), db(g.rows(), cb);
                        for (std::size_t r = 0; r < g.rows(); ++r) {
                          const double* gr = g.row_ptr(r);
                          std::copy(gr, gr + ca, da.row_ptr(r));
                          std::copy(gr + ca, gr + ca + cb, db.row_ptr(r));
                        }
                        tp.accumulate(ia, std::move(da));
                        tp.accumulate(ib, std::move(db));
                      });
}

Var slice_cols(Var a, std::size_t begin, std::size_t end) {
  PDDL_CHECK(begin < end && end <= a.value().cols(), "slice_cols: bad range");
  const std::size_t m = a.value().rows();
  Matrix out(m, end - begin);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = begin; c < end; ++c) out(r, c - begin) = a.value()(r, c);
  }
  return a.tape->make_node(std::move(out), {a},
                           [ia = a.id, begin](Tape& tp, const Matrix& g) {
                             const Matrix& x = tp.value(ia);
                             Matrix da(x.rows(), x.cols());
                             for (std::size_t r = 0; r < g.rows(); ++r) {
                               for (std::size_t c = 0; c < g.cols(); ++c) {
                                 da(r, begin + c) = g(r, c);
                               }
                             }
                             tp.accumulate(ia, std::move(da));
                           });
}

Var mean_rows(Var a) {
  const std::size_t m = a.value().rows(), n = a.value().cols();
  Matrix out(1, n);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < n; ++c) out(0, c) += a.value()(r, c);
  }
  out *= 1.0 / static_cast<double>(m);
  return a.tape->make_node(std::move(out), {a},
                           [ia = a.id, m](Tape& tp, const Matrix& g) {
                             const double inv = 1.0 / static_cast<double>(m);
                             Matrix da(m, g.cols());
                             for (std::size_t r = 0; r < m; ++r) {
                               for (std::size_t c = 0; c < g.cols(); ++c) {
                                 da(r, c) = g(0, c) * inv;
                               }
                             }
                             tp.accumulate(ia, std::move(da));
                           });
}

// ---- Ctx ----

Var Ctx::leaf(Matrix& param) {
  auto it = bound_.find(&param);
  if (it != bound_.end()) return {&tape_, it->second};
  Var v = tape_.leaf(param);
  bound_.emplace(&param, v.id);
  return v;
}

Matrix Ctx::grad(const Matrix& param) {
  auto it = bound_.find(&param);
  // A parameter that was never bound (or never reached the loss) has a zero
  // gradient — e.g. the op-type gains of a GHN for ops absent from the
  // current graph.
  if (it == bound_.end()) return Matrix(param.rows(), param.cols());
  Matrix g = tape_.grad(it->second);
  if (g.empty()) g = Matrix(param.rows(), param.cols());
  return g;
}

}  // namespace pddl::ag
