#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "io/tensor_io.hpp"

namespace pddl::nn {

Var activate(Var x, Activation act) {
  switch (act) {
    case Activation::kNone:
      return x;
    case Activation::kRelu:
      return ag::relu(x);
    case Activation::kTanh:
      return ag::tanh_op(x);
    case Activation::kSigmoid:
      return ag::sigmoid(x);
  }
  PDDL_CHECK(false, "unknown activation");
}

double activate_scalar(double x, Activation act) {
  switch (act) {
    case Activation::kNone:
      return x;
    case Activation::kRelu:
      return x < 0.0 ? 0.0 : x;
    case Activation::kTanh:
      return std::tanh(x);
    case Activation::kSigmoid:
      return 1.0 / (1.0 + std::exp(-x));
  }
  PDDL_CHECK(false, "unknown activation");
}

std::size_t Module::num_scalars() const {
  std::size_t n = 0;
  for (const Matrix* p : parameters()) n += p->size();
  return n;
}

namespace {
// Xavier/Glorot uniform: U(−a, a) with a = sqrt(6 / (fan_in + fan_out)).
Matrix xavier(std::size_t in, std::size_t out, Rng& rng) {
  const double a = std::sqrt(6.0 / static_cast<double>(in + out));
  return Matrix::uniform(in, out, rng, -a, a);
}
}  // namespace

Linear::Linear(std::size_t in, std::size_t out, Rng& rng, bool bias)
    : w_(xavier(in, out, rng)), has_bias_(bias) {
  if (bias) b_ = Matrix(1, out);
}

Var Linear::forward(Ctx& ctx, Var x) {
  Var y = ag::matmul(x, ctx.leaf(w_));
  if (has_bias_) y = ag::add_row_broadcast(y, ctx.leaf(b_));
  return y;
}

std::vector<Matrix*> Linear::parameters() {
  std::vector<Matrix*> ps{&w_};
  if (has_bias_) ps.push_back(&b_);
  return ps;
}

Mlp::Mlp(const std::vector<std::size_t>& dims, Rng& rng, Activation hidden_act)
    : hidden_act_(hidden_act) {
  PDDL_CHECK(dims.size() >= 2, "Mlp needs at least {in, out} dims");
  layers_.reserve(dims.size() - 1);
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

Var Mlp::forward(Ctx& ctx, Var x) {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    x = layers_[i].forward(ctx, x);
    if (i + 1 < layers_.size()) x = activate(x, hidden_act_);
  }
  return x;
}

std::size_t Mlp::max_width() const {
  std::size_t w = in_features();
  for (const Linear& l : layers_) w = std::max(w, l.out_features());
  return w;
}

std::vector<Matrix*> Mlp::parameters() {
  std::vector<Matrix*> ps;
  for (auto& l : layers_) {
    for (Matrix* p : l.parameters()) ps.push_back(p);
  }
  return ps;
}

GruCell::GruCell(std::size_t input_dim, std::size_t hidden_dim, Rng& rng)
    : wz_(xavier(input_dim, hidden_dim, rng)),
      uz_(xavier(hidden_dim, hidden_dim, rng)),
      bz_(1, hidden_dim),
      wr_(xavier(input_dim, hidden_dim, rng)),
      ur_(xavier(hidden_dim, hidden_dim, rng)),
      br_(1, hidden_dim),
      wn_(xavier(input_dim, hidden_dim, rng)),
      un_(xavier(hidden_dim, hidden_dim, rng)),
      bn_(1, hidden_dim) {}

Var GruCell::forward(Ctx& ctx, Var h, Var m) {
  PDDL_CHECK(h.cols() == hidden_dim(), "GruCell: h has wrong width");
  PDDL_CHECK(m.cols() == input_dim(), "GruCell: m has wrong width");
  using namespace ag;
  Var z = sigmoid(add_row_broadcast(
      add(matmul(m, ctx.leaf(wz_)), matmul(h, ctx.leaf(uz_))), ctx.leaf(bz_)));
  Var r = sigmoid(add_row_broadcast(
      add(matmul(m, ctx.leaf(wr_)), matmul(h, ctx.leaf(ur_))), ctx.leaf(br_)));
  Var n = tanh_op(add_row_broadcast(
      add(matmul(m, ctx.leaf(wn_)), matmul(mul(r, h), ctx.leaf(un_))),
      ctx.leaf(bn_)));
  // h' = (1 − z)∘n + z∘h = n − z∘n + z∘h.
  return add(sub(n, mul(z, n)), mul(z, h));
}

std::vector<Matrix*> GruCell::parameters() {
  return {&wz_, &uz_, &bz_, &wr_, &ur_, &br_, &wn_, &un_, &bn_};
}

// ---- serialization ----

namespace {
constexpr char kMagic[4] = {'P', 'D', 'N', 'N'};
}  // namespace

void save_parameters(io::BinaryWriter& w,
                     const std::vector<const Matrix*>& ps) {
  w.magic(kMagic);
  w.u32(static_cast<std::uint32_t>(ps.size()));
  for (const Matrix* p : ps) io::write_matrix(w, *p);
}

void load_parameters(io::BinaryReader& r, const std::vector<Matrix*>& ps) {
  r.expect_magic(kMagic, "parameter blob");
  const std::uint32_t count = r.u32();
  PDDL_CHECK(count == ps.size(), "parameter count mismatch: file has ", count,
             ", module expects ", ps.size());
  for (Matrix* p : ps) {
    Matrix m = io::read_matrix(r);
    PDDL_CHECK(m.rows() == p->rows() && m.cols() == p->cols(),
               "parameter shape mismatch: file has ", m.rows(), "x", m.cols(),
               ", module expects ", p->rows(), "x", p->cols());
    *p = std::move(m);
  }
}

void save_parameters(std::ostream& os, const std::vector<const Matrix*>& ps) {
  io::BinaryWriter w(os);
  save_parameters(w, ps);
}

void load_parameters(std::istream& is, const std::vector<Matrix*>& ps) {
  io::BinaryReader r(is, "parameter stream");
  load_parameters(r, ps);
}

}  // namespace pddl::nn
