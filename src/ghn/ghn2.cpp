#include "ghn/ghn2.hpp"

#include <bit>
#include <fstream>

#include "common/atomic_file.hpp"

namespace pddl::ghn {

using ag::Var;
using graph::CompGraph;

Ghn2::Ghn2(const GhnConfig& cfg, Rng& rng)
    : cfg_(cfg),
      embed_layer_(CompGraph::kNodeFeatureDim, cfg.hidden_dim, rng),
      msg_mlp_({cfg.hidden_dim, cfg.mlp_hidden, cfg.hidden_dim}, rng,
               nn::Activation::kRelu),
      msg_mlp_sp_({cfg.hidden_dim, cfg.mlp_hidden, cfg.hidden_dim}, rng,
                  nn::Activation::kRelu),
      gru_(cfg.hidden_dim, cfg.hidden_dim, rng) {
  PDDL_CHECK(cfg.hidden_dim > 0 && cfg.mlp_hidden > 0 && cfg.num_passes > 0,
             "invalid GhnConfig");
  PDDL_CHECK(cfg.s_max >= 2, "s_max must be at least 2");
  op_gains_.reserve(graph::kNumOpTypes);
  for (std::size_t i = 0; i < graph::kNumOpTypes; ++i) {
    op_gains_.emplace_back(1, cfg.hidden_dim, 1.0);  // init to identity gain
  }
}

Var Ghn2::embed(nn::Ctx& ctx, const CompGraph& g) {
  const int n = static_cast<int>(g.num_nodes());
  PDDL_CHECK(n > 0, "cannot embed an empty graph");

  // Module 1: per-node embedding layer H₀ → H₁.
  const Matrix h0 = g.node_features();
  std::vector<Var> h(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    Matrix row = Matrix::row_vector(h0.row(static_cast<std::size_t>(v)));
    h[static_cast<std::size_t>(v)] =
        embed_layer_.forward(ctx, ctx.constant(std::move(row)));
  }

  // Virtual-edge neighbour lists: (u, 1/s_vu) for 1 < s_vu ≤ s_max.
  // fw uses distances u→v (u is "upstream"), bw uses v→u; both u-ascending,
  // the order the inference engine accumulates in.
  std::vector<std::vector<std::pair<int, double>>> vfw, vbw;
  if (cfg_.virtual_edges) {
    vfw.resize(static_cast<std::size_t>(n));
    vbw.resize(static_cast<std::size_t>(n));
    std::vector<int> dist(static_cast<std::size_t>(n), -1);
    std::vector<int> queue(static_cast<std::size_t>(n));
    graph::for_each_virtual_edge(
        g, cfg_.s_max, dist.data(), queue.data(), [&](int s, int t, int d) {
          vfw[static_cast<std::size_t>(t)].push_back({s, 1.0 / d});
          vbw[static_cast<std::size_t>(s)].push_back({t, 1.0 / d});
        });
  }

  const Matrix zero_msg(1, cfg_.hidden_dim);

  // One sequential node update: aggregate messages, GRU, normalize.
  auto update_node = [&](int v, bool forward_pass) {
    const auto& direct =
        forward_pass ? g.in_edges(v) : g.out_edges(v);
    Var msg = ctx.constant(zero_msg);
    bool has_msg = false;
    for (int u : direct) {
      Var mu = msg_mlp_.forward(ctx, h[static_cast<std::size_t>(u)]);
      msg = has_msg ? ag::add(msg, mu) : mu;
      has_msg = true;
    }
    if (cfg_.virtual_edges) {
      const auto& virt = forward_pass ? vfw[static_cast<std::size_t>(v)]
                                      : vbw[static_cast<std::size_t>(v)];
      for (const auto& [u, w] : virt) {
        Var mu = ag::scale(
            msg_mlp_sp_.forward(ctx, h[static_cast<std::size_t>(u)]), w);
        msg = has_msg ? ag::add(msg, mu) : mu;
        has_msg = true;
      }
    }
    Var hv = gru_.forward(ctx, h[static_cast<std::size_t>(v)], msg);
    if (cfg_.op_normalization) {
      const auto op = static_cast<std::size_t>(g.node(v).type);
      hv = ag::mul(ag::tanh_op(hv), ctx.leaf(op_gains_[op]));
    }
    h[static_cast<std::size_t>(v)] = hv;
  };

  // Module 2: T rounds of fw then bw traversal (Eq. 3–4).  Node ids are in
  // topological order, so ascending ids == forward order π_fw.
  for (int t = 0; t < cfg_.num_passes; ++t) {
    for (int v = 0; v < n; ++v) update_node(v, /*forward_pass=*/true);
    for (int v = n - 1; v >= 0; --v) update_node(v, /*forward_pass=*/false);
  }

  // Module 3 is skipped (PredictDDL §III-E): mean-pool node states instead
  // of decoding weights.
  Var acc = h[0];
  for (int v = 1; v < n; ++v) acc = ag::add(acc, h[static_cast<std::size_t>(v)]);
  return ag::scale(acc, 1.0 / static_cast<double>(n));
}

Vector Ghn2::embedding(const CompGraph& g) {
  nn::Ctx ctx;
  Var e = embed(ctx, g);
  return e.value().row(0);
}

std::vector<Matrix*> Ghn2::parameters() {
  invalidate_checksum();  // mutable pointers escape below
  std::vector<Matrix*> ps;
  for (Matrix* p : embed_layer_.parameters()) ps.push_back(p);
  for (Matrix* p : msg_mlp_.parameters()) ps.push_back(p);
  for (Matrix* p : msg_mlp_sp_.parameters()) ps.push_back(p);
  for (Matrix* p : gru_.parameters()) ps.push_back(p);
  for (Matrix& g : op_gains_) ps.push_back(&g);
  return ps;
}

namespace {
constexpr char kMagic[4] = {'P', 'G', 'H', 'N'};
// Version 2 moved the format onto the io layer (explicit little-endian,
// versioned, CRC-trailed standalone files).
constexpr std::uint32_t kVersion = 2;
}  // namespace

void save_ghn(io::BinaryWriter& w, const Ghn2& ghn) {
  const GhnConfig& c = ghn.config();
  w.magic(kMagic);
  w.u32(kVersion);
  w.u64(c.hidden_dim);
  w.u64(c.mlp_hidden);
  w.i32(c.num_passes);
  w.boolean(c.virtual_edges);
  w.i32(c.s_max);
  w.boolean(c.op_normalization);
  nn::save_parameters(w, ghn.parameters());
}

std::unique_ptr<Ghn2> load_ghn(io::BinaryReader& r) {
  r.expect_magic(kMagic, "GHN");
  const std::uint32_t version = r.u32();
  PDDL_CHECK(version == kVersion, r.what(), ": unsupported GHN file version ",
             version, " (this build reads version ", kVersion, ")");
  GhnConfig c;
  c.hidden_dim = r.u64();
  c.mlp_hidden = r.u64();
  c.num_passes = r.i32();
  c.virtual_edges = r.boolean();
  c.s_max = r.i32();
  c.op_normalization = r.boolean();
  PDDL_CHECK(c.hidden_dim > 0 && c.hidden_dim <= (1u << 16) &&
                 c.mlp_hidden > 0 && c.mlp_hidden <= (1u << 16),
             r.what(), ": implausible GHN dimensions ", c.hidden_dim, "/",
             c.mlp_hidden);
  Rng rng(0);  // parameters are overwritten immediately
  auto ghn = std::make_unique<Ghn2>(c, rng);
  nn::load_parameters(r, ghn->parameters());
  return ghn;
}

void save_ghn(const std::string& path, const Ghn2& ghn) {
  std::string bytes;
  io::BinaryWriter w(bytes);
  save_ghn(w, ghn);
  w.finish_crc();
  io::write_file_atomic(path, bytes);
}

std::unique_ptr<Ghn2> load_ghn(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  PDDL_CHECK(is.good(), "cannot open for read: ", path);
  io::BinaryReader r(is, path);
  auto ghn = load_ghn(r);
  r.verify_crc();
  return ghn;
}

std::uint64_t ghn_checksum(const Ghn2& ghn) {
  if (ghn.checksum_valid_.load(std::memory_order_acquire)) {
    return ghn.checksum_value_.load(std::memory_order_relaxed);
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  const GhnConfig& c = ghn.config();
  mix(c.hidden_dim);
  mix(c.mlp_hidden);
  mix(static_cast<std::uint64_t>(c.num_passes));
  mix(c.virtual_edges ? 1 : 0);
  mix(static_cast<std::uint64_t>(c.s_max));
  mix(c.op_normalization ? 1 : 0);
  for (const Matrix* p : ghn.parameters()) {
    mix(p->rows());
    mix(p->cols());
    for (std::size_t i = 0; i < p->size(); ++i) {
      mix(std::bit_cast<std::uint64_t>(p->data()[i]));
    }
  }
  // parameters() above marked the cache dirty (its const overload routes
  // through the non-const one); publish value before flag so a concurrent
  // reader that observes `valid` also observes the matching digest.
  ghn.checksum_value_.store(h, std::memory_order_relaxed);
  ghn.checksum_valid_.store(true, std::memory_order_release);
  return h;
}

}  // namespace pddl::ghn
