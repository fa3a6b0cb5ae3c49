// Neural-network building blocks on top of the autograd engine.
//
// Modules own their parameter matrices and build tape nodes on demand via
// forward(Ctx&, Var).  parameters() exposes raw pointers for optimizer
// registration and binary (de)serialization.  These blocks implement the
// learnable pieces of GHN-2 (Eq. 3–4): the per-op embedding layer, the MLP
// message functions, and the GRU update cell — and double as the MLP
// regressor used by the Inference Engine (§IV-B2).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "autograd/tape.hpp"
#include "common/rng.hpp"
#include "io/binary.hpp"

namespace pddl::nn {

using ag::Ctx;
using ag::Var;

enum class Activation { kNone, kRelu, kTanh, kSigmoid };

// Applies the given activation as a tape op (kNone is the identity).
Var activate(Var x, Activation act);

// Tape-free scalar form of the same activations, guaranteed to match the
// tape ops bit-for-bit (same formulas, same libm calls).  The gradient-free
// GHN inference engine (src/ghn/infer.hpp) is built on these.
double activate_scalar(double x, Activation act);

class Module {
 public:
  virtual ~Module() = default;
  // All learnable matrices, in a stable order (serialization relies on it).
  virtual std::vector<Matrix*> parameters() = 0;

  std::vector<const Matrix*> parameters() const {
    auto ps = const_cast<Module*>(this)->parameters();
    return {ps.begin(), ps.end()};
  }

  std::size_t num_scalars() const;
};

// Fully connected layer: y = x·W + b, with x of shape (batch × in).
class Linear final : public Module {
 public:
  Linear(std::size_t in, std::size_t out, Rng& rng, bool bias = true);

  Var forward(Ctx& ctx, Var x);
  std::vector<Matrix*> parameters() override;

  std::size_t in_features() const { return w_.rows(); }
  std::size_t out_features() const { return w_.cols(); }

  // Raw read access for tape-free engines that pre-transform the weights
  // (e.g. transpose them once for a dot micro-kernel).
  const Matrix& weight() const { return w_; }
  const Matrix& bias() const { return b_; }  // empty when bias is disabled
  bool has_bias() const { return has_bias_; }

 private:
  Matrix w_;  // in × out, Xavier-uniform init
  Matrix b_;  // 1 × out (empty if bias disabled)
  bool has_bias_;
};

// Multi-layer perceptron with a uniform hidden activation and linear output.
class Mlp final : public Module {
 public:
  // dims = {in, h1, ..., out}; requires at least {in, out}.
  Mlp(const std::vector<std::size_t>& dims, Rng& rng,
      Activation hidden_act = Activation::kRelu);

  Var forward(Ctx& ctx, Var x);
  std::vector<Matrix*> parameters() override;

  std::size_t in_features() const { return layers_.front().in_features(); }
  std::size_t out_features() const { return layers_.back().out_features(); }
  // Widest intermediate row any layer produces (scratch sizing).
  std::size_t max_width() const;

  const std::vector<Linear>& layers() const { return layers_; }
  Activation hidden_activation() const { return hidden_act_; }

 private:
  std::vector<Linear> layers_;
  Activation hidden_act_;
};

// Gated Recurrent Unit cell (Cho et al., 2014), the update function of the
// GatedGNN in Eq. 3:  h' = GRU(h, m).
//   z = σ(m·Wz + h·Uz + bz)
//   r = σ(m·Wr + h·Ur + br)
//   ñ = tanh(m·Wn + (r∘h)·Un + bn)
//   h' = (1 − z)∘ñ + z∘h
class GruCell final : public Module {
 public:
  GruCell(std::size_t input_dim, std::size_t hidden_dim, Rng& rng);

  // h and m are (batch × hidden_dim) / (batch × input_dim).
  Var forward(Ctx& ctx, Var h, Var m);
  std::vector<Matrix*> parameters() override;

  std::size_t hidden_dim() const { return uz_.rows(); }
  std::size_t input_dim() const { return wz_.rows(); }

  // Raw read access to the gate weights (order as in Eq. above) for
  // tape-free engines that pre-transpose / pre-multiply them.
  const Matrix& wz() const { return wz_; }
  const Matrix& uz() const { return uz_; }
  const Matrix& bz() const { return bz_; }
  const Matrix& wr() const { return wr_; }
  const Matrix& ur() const { return ur_; }
  const Matrix& br() const { return br_; }
  const Matrix& wn() const { return wn_; }
  const Matrix& un() const { return un_; }
  const Matrix& bn() const { return bn_; }

 private:
  Matrix wz_, uz_, bz_;
  Matrix wr_, ur_, br_;
  Matrix wn_, un_, bn_;
};

// ---- Parameter (de)serialization ----
// Binary format (io layer, little-endian): magic "PDNN", u32 count, then per
// matrix u64 rows, u64 cols, doubles row-major.  Shapes must match the
// module exactly on load.  The writer/reader overloads are the composable
// form used inside snapshot sections (src/io/snapshot.hpp); the stream
// overloads wrap them for standalone files.
void save_parameters(io::BinaryWriter& w, const std::vector<const Matrix*>& ps);
void load_parameters(io::BinaryReader& r, const std::vector<Matrix*>& ps);
void save_parameters(std::ostream& os, const std::vector<const Matrix*>& ps);
void load_parameters(std::istream& is, const std::vector<Matrix*>& ps);

}  // namespace pddl::nn
