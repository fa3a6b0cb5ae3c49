#include "ghn/infer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/simd.hpp"

namespace pddl::ghn {

using graph::CompGraph;

namespace {

// Precision-overloaded shims onto the dispatch layer (tensor/simd.hpp) so
// embed_batch_impl<T> reads identically for both element types.  The f64
// panel squashings stay plain libm loops — exactly the expressions the tape
// evaluates — while f32 routes to the dispatched fast transcendentals,
// which are bit-identical between their own scalar and AVX2 forms.

inline void k_dot(const double* x, const double* bt, std::size_t n,
                  std::size_t k_dim, const double* bias, double* y) {
  simd::dot_rows_transposed_f64(x, bt, n, k_dim, bias, y);
}
inline void k_dot(const float* x, const float* bt, std::size_t n,
                  std::size_t k_dim, const float* bias, float* y) {
  simd::dot_rows_transposed_f32(x, bt, n, k_dim, bias, y);
}

inline void k_rows(const double* a, std::size_t m, const double* bt,
                   std::size_t n, std::size_t k_dim, double* out) {
  simd::matmul_rows_transposed_b_f64(a, m, bt, n, k_dim, out);
}
inline void k_rows(const float* a, std::size_t m, const float* bt,
                   std::size_t n, std::size_t k_dim, float* out) {
  simd::matmul_rows_transposed_b_f32(a, m, bt, n, k_dim, out);
}

inline void k_gemm(const double* a, std::size_t m, std::size_t k,
                   const double* w, std::size_t ncols, double* dst) {
  simd::gemm_rows_f64(a, m, k, w, ncols, dst);
}
inline void k_gemm(const float* a, std::size_t m, std::size_t k,
                   const float* w, std::size_t ncols, float* dst) {
  simd::gemm_rows_f32(a, m, k, w, ncols, dst);
}

inline void k_axpy(double* dst, const double* src, double s, std::size_t n) {
  simd::axpy_f64(dst, src, s, n);
}
inline void k_axpy(float* dst, const float* src, float s, std::size_t n) {
  simd::axpy_f32(dst, src, s, n);
}

inline void k_sigmoid(double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = 1.0 / (1.0 + std::exp(-x[i]));
}
inline void k_sigmoid(float* x, std::size_t n) {
  simd::sigmoid_inplace_f32(x, n);
}

inline void k_tanh(double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
}
inline void k_tanh(float* x, std::size_t n) { simd::tanh_inplace_f32(x, n); }

// Scalar hidden-layer activation.  The double form is nn::activate_scalar
// verbatim (tape parity); the float form mirrors it with the same fast
// transcendentals the panel squashings use.
inline double activate_one(double x, nn::Activation act) {
  return nn::activate_scalar(x, act);
}
inline float activate_one(float x, nn::Activation act) {
  switch (act) {
    case nn::Activation::kNone:
      return x;
    case nn::Activation::kRelu:
      return x < 0.0f ? 0.0f : x;
    case nn::Activation::kTanh:
      return simd::fast_tanhf(x);
    case nn::Activation::kSigmoid:
      return simd::fast_sigmoidf(x);
  }
  return x;
}

template <typename T>
T* arena_take(ScratchArena& arena, std::size_t n);
template <>
double* arena_take<double>(ScratchArena& arena, std::size_t n) {
  return arena.doubles(n);
}
template <>
float* arena_take<float>(ScratchArena& arena, std::size_t n) {
  return arena.floats(n);
}

}  // namespace

const char* precision_name(Precision p) {
  return p == Precision::kF32 ? "f32" : "f64";
}

bool parse_precision(std::string_view text, Precision& out) {
  if (text == "f32") {
    out = Precision::kF32;
    return true;
  }
  if (text == "f64") {
    out = Precision::kF64;
    return true;
  }
  return false;
}

template <typename T>
void GhnInference::TMlpT<T>::forward_row(const T* x, T* y, T* scratch) const {
  T* ping = scratch;
  T* pong = scratch + max_width;
  const T* cur = x;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const TLinearT<T>& l = layers[i];
    T* dst = i + 1 == layers.size() ? y : (i % 2 == 0 ? ping : pong);
    k_dot(cur, l.wt.data(), l.out, l.in, l.b.empty() ? nullptr : l.b.data(),
          dst);
    if (i + 1 < layers.size()) {
      for (std::size_t j = 0; j < l.out; ++j) {
        dst[j] = activate_one(dst[j], act);
      }
    }
    cur = dst;
  }
}

template <typename T>
void GhnInference::build_weights(const Ghn2& ghn, WeightsT<T>& w) {
  const std::size_t H = cfg_.hidden_dim;
  auto flat = [](const Matrix& m, std::vector<T>& dst) {
    dst.resize(m.size());
    const double* p = m.data();
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = static_cast<T>(p[i]);
  };
  flat(ghn.embed_layer().weight(), w.embed_w);
  if (ghn.embed_layer().has_bias()) {
    flat(ghn.embed_layer().bias(), w.embed_b);
  } else {
    w.embed_b.assign(H, T(0));
  }
  auto transpose_mlp = [&flat](const nn::Mlp& m, TMlpT<T>& t) {
    t.act = m.hidden_activation();
    t.max_width = m.max_width();
    t.layers.clear();
    t.layers.reserve(m.layers().size());
    for (const nn::Linear& l : m.layers()) {
      TLinearT<T> tl;
      const Matrix wt = l.weight().transposed();
      tl.out = wt.rows();
      tl.in = wt.cols();
      flat(wt, tl.wt);
      if (l.has_bias()) flat(l.bias(), tl.b);
      t.layers.push_back(std::move(tl));
    }
  };
  transpose_mlp(ghn.msg_mlp(), w.msg_mlp);
  transpose_mlp(ghn.msg_mlp_sp(), w.msg_mlp_sp);
  flat(ghn.gru().wz().transposed(), w.gru_wzt);
  flat(ghn.gru().wr().transposed(), w.gru_wrt);
  flat(ghn.gru().wn().transposed(), w.gru_wnt);
  flat(ghn.gru().uz(), w.gru_uz);
  flat(ghn.gru().ur(), w.gru_ur);
  flat(ghn.gru().un().transposed(), w.gru_unt);
  flat(ghn.gru().bz(), w.gru_bz);
  flat(ghn.gru().br(), w.gru_br);
  flat(ghn.gru().bn(), w.gru_bn);
  w.op_gains.resize(graph::kNumOpTypes * H);
  for (std::size_t op = 0; op < graph::kNumOpTypes; ++op) {
    const double* g = ghn.op_gains()[op].row_ptr(0);
    for (std::size_t j = 0; j < H; ++j) {
      w.op_gains[op * H + j] = static_cast<T>(g[j]);
    }
  }
}

GhnInference::GhnInference(const Ghn2& ghn, Precision precision)
    : cfg_(ghn.config()),
      precision_(precision),
      source_checksum_(ghn_checksum(ghn)) {
  if (precision_ == Precision::kF32) {
    build_weights(ghn, w32_);
  } else {
    build_weights(ghn, w64_);
  }
}

ScratchArena& GhnInference::thread_arena() {
  static thread_local ScratchArena arena;
  return arena;
}

Vector GhnInference::embedding(const CompGraph& g) const {
  Vector out;
  embed_into(g, out);
  return out;
}

void GhnInference::embed_into(const CompGraph& g, Vector& out) const {
  const CompGraph* gp = &g;
  Vector* op = &out;
  embed_batch_into(std::span<const CompGraph* const>(&gp, 1),
                   std::span<Vector* const>(&op, 1));
}

void GhnInference::embed_batch_into(std::span<const CompGraph* const> graphs,
                                    std::span<Vector* const> outs) const {
  if (precision_ == Precision::kF32) {
    embed_batch_impl<float>(w32_, graphs, outs);
  } else {
    embed_batch_impl<double>(w64_, graphs, outs);
  }
}

// Batched layout: graph g's node v occupies global row off[g]+v of one
// concatenated node space of N = Σ n_g rows.  Everything that was per-node
// in the one-graph path (features, states, memo tables, hu projections, the
// virtual-edge CSR) is indexed by global row, so the embed layer and the
// gate halves run as single N-row GEMMs; everything that was per-*step*
// (the three message-gate products) gathers one row per live graph into a
// compact L×H panel and runs as one fused GEMM against each weight matrix.
template <typename T>
void GhnInference::embed_batch_impl(const WeightsT<T>& w,
                                    std::span<const CompGraph* const> graphs,
                                    std::span<Vector* const> outs) const {
  const std::size_t G = graphs.size();
  PDDL_CHECK(G > 0, "cannot embed an empty batch");
  PDDL_CHECK(outs.size() == G,
             "embed_batch_into: graphs/outs length mismatch (", G, " vs ",
             outs.size(), ")");
  const std::size_t H = cfg_.hidden_dim;
  const std::size_t F = CompGraph::kNodeFeatureDim;
  ScratchArena& arena = thread_arena();
  arena.reset();

  // ---- global row offsets ----
  int* off = arena.ints(G + 1);
  off[0] = 0;
  std::size_t max_n = 0;
  for (std::size_t g = 0; g < G; ++g) {
    const std::size_t n = graphs[g]->num_nodes();
    PDDL_CHECK(n > 0, "cannot embed an empty graph");
    off[g + 1] = off[g] + static_cast<int>(n);
    max_n = std::max(max_n, n);
  }
  const std::size_t N = static_cast<std::size_t>(off[G]);

  // ---- module 1: node features + one batch-wide embedding GEMM ----
  // Features are computed in double (the tape's arithmetic) and narrowed on
  // store, so f32 rounds inputs once instead of compounding per term.
  T* feats = arena_take<T>(arena, N * F);
  for (std::size_t g = 0; g < G; ++g) {
    graphs[g]->node_features_into(feats + static_cast<std::size_t>(off[g]) * F);
  }
  T* h = arena_take<T>(arena, N * H);
  k_gemm(feats, N, F, w.embed_w.data(), H, h);
  const T* eb = w.embed_b.data();
  for (std::size_t i = 0; i < N; ++i) {
    T* hrow = h + i * H;
    for (std::size_t j = 0; j < H; ++j) hrow[j] += eb[j];
  }

  // ---- virtual edges (Eq. 4): per-graph builder → one global CSR ----
  // graph::for_each_virtual_edge is the tape's builder too: a depth-capped
  // BFS per source (only hops 1 < d ≤ s_max matter, so no n×n hop matrix),
  // emitting sources ascending and each source's targets ascending.  fw
  // lists pair global row off[g]+v with its upstream sources off[g]+u
  // (dist u→v), bw with downstream ones, u-ascending per graph exactly like
  // the tape's lists, so message accumulation order is preserved.
  int* fw_off = nullptr;
  int* fw_u = nullptr;
  T* fw_w = nullptr;
  int* bw_off = nullptr;
  int* bw_u = nullptr;
  T* bw_w = nullptr;
  if (cfg_.virtual_edges) {
    int* dist = arena.ints(max_n);
    int* queue = arena.ints(max_n);
    std::fill(dist, dist + max_n, -1);
    fw_off = arena.ints(N + 1);
    bw_off = arena.ints(N + 1);
    std::fill(fw_off, fw_off + N + 1, 0);
    std::fill(bw_off, bw_off + N + 1, 0);
    // Count pass: fw_off[r+1]/bw_off[r+1] hold per-node degrees until the
    // prefix sum below turns them into offsets.
    for (std::size_t g = 0; g < G; ++g) {
      const int base = off[g];
      graph::for_each_virtual_edge(*graphs[g], cfg_.s_max, dist, queue,
                                   [&](int s, int t, int) {
                                     ++fw_off[base + t + 1];
                                     ++bw_off[base + s + 1];
                                   });
    }
    for (std::size_t r = 0; r < N; ++r) {
      fw_off[r + 1] += fw_off[r];
      bw_off[r + 1] += bw_off[r];
    }
    fw_u = arena.ints(static_cast<std::size_t>(fw_off[N]));
    fw_w = arena_take<T>(arena, static_cast<std::size_t>(fw_off[N]));
    bw_u = arena.ints(static_cast<std::size_t>(bw_off[N]));
    bw_w = arena_take<T>(arena, static_cast<std::size_t>(bw_off[N]));
    int* fw_fill = arena.ints(N);
    std::copy(fw_off, fw_off + N, fw_fill);
    // Fill pass: the emission order is the bw CSR order (global row, then
    // target), so bw entries append; fw entries scatter to their target.
    int pb = 0;
    for (std::size_t g = 0; g < G; ++g) {
      const int base = off[g];
      graph::for_each_virtual_edge(
          *graphs[g], cfg_.s_max, dist, queue, [&](int s, int t, int d) {
            const int pf = fw_fill[base + t]++;
            fw_u[pf] = base + s;
            fw_w[pf] = static_cast<T>(1.0 / d);
            bw_u[pb] = base + t;
            bw_w[pb++] = static_cast<T>(1.0 / d);
          });
    }
  }

  // ---- module 2: T rounds of fw/bw gated message passing, interleaved ----
  T* hu_z = arena_take<T>(arena, N * H);    // pass-start h·Uz (batched)
  T* hu_r = arena_take<T>(arena, N * H);    // pass-start h·Ur (batched)
  T* memo_d = arena_take<T>(arena, N * H);  // lazily memoized MLP(h_u)
  T* memo_s = cfg_.virtual_edges ? arena_take<T>(arena, N * H) : nullptr;
  int* have_d = arena.ints(N);
  int* have_s = cfg_.virtual_edges ? arena.ints(N) : nullptr;
  // Per-step gather panels: one row per live graph.
  int* live = arena.ints(G);  // graph index per panel row
  T* mpan = arena_take<T>(arena, G * H);  // messages m_v
  T* gz = arena_take<T>(arena, G * H);
  T* gr = arena_take<T>(arena, G * H);
  T* gn = arena_take<T>(arena, G * H);
  T* rh = arena_take<T>(arena, G * H);
  T* rhu = arena_take<T>(arena, G * H);
  const std::size_t mlp_w =
      std::max(w.msg_mlp.max_width, w.msg_mlp_sp.max_width);
  T* mlp_scratch = arena_take<T>(arena, 2 * mlp_w);

  // MLP(h_u) for the current half-pass, computed at most once per global
  // node.  Exact (not approximate) because u's state is final for the
  // half-pass before any consumer v reads it — node ids are topological
  // within each graph and the interleaving never reorders a graph against
  // itself — see the invariant in the header.
  auto memo_row = [&](const TMlpT<T>& mlp, T* table, int* have,
                      int u) -> const T* {
    T* row = table + static_cast<std::size_t>(u) * H;
    if (!have[u]) {
      mlp.forward_row(h + static_cast<std::size_t>(u) * H, row, mlp_scratch);
      have[u] = 1;
    }
    return row;
  };

  auto run_half_pass = [&](bool forward) {
    // Old-state GRU projections as two N×H GEMMs over the whole batch.
    // Valid batched: node v's gates read h_v *before* its own (unique)
    // update, i.e. the half-pass-start value these products hold.
    k_gemm(h, N, H, w.gru_uz.data(), H, hu_z);
    k_gemm(h, N, H, w.gru_ur.data(), H, hu_r);
    std::fill(have_d, have_d + N, 0);
    if (cfg_.virtual_edges) std::fill(have_s, have_s + N, 0);

    // Step s updates node s (forward) / n_g−1−s (backward) of every graph
    // that still has one; graphs retire from the panel as s passes their
    // size.  Sources are always from earlier steps of the same graph, so
    // gathering all messages before any of the step's state updates cannot
    // read a stale or early value.
    for (std::size_t s = 0; s < max_n; ++s) {
      std::size_t L = 0;
      for (std::size_t g = 0; g < G; ++g) {
        if (graphs[g]->num_nodes() > s) live[L++] = static_cast<int>(g);
      }
      // 1) gather messages, one panel row per live graph.
      for (std::size_t l = 0; l < L; ++l) {
        const std::size_t g = static_cast<std::size_t>(live[l]);
        const CompGraph& cg = *graphs[g];
        const std::size_t n = cg.num_nodes();
        const int v =
            forward ? static_cast<int>(s) : static_cast<int>(n - 1 - s);
        const std::size_t base = static_cast<std::size_t>(off[g]);
        const std::size_t gv = base + static_cast<std::size_t>(v);
        T* mrow = mpan + l * H;
        // m_v: direct neighbours first, then virtual ones, same order and
        // association as the tape's sequential adds (+= 1·mu is exact).
        const auto& direct = forward ? cg.in_edges(v) : cg.out_edges(v);
        std::fill(mrow, mrow + H, T(0));
        for (int u : direct) {
          const T* mu = memo_row(w.msg_mlp, memo_d, have_d,
                                 static_cast<int>(base) + u);
          k_axpy(mrow, mu, T(1), H);
        }
        if (cfg_.virtual_edges) {
          const int* voff = forward ? fw_off : bw_off;
          const int* vus = forward ? fw_u : bw_u;
          const T* vws = forward ? fw_w : bw_w;
          for (int p = voff[gv]; p < voff[gv + 1]; ++p) {
            const T* mu = memo_row(w.msg_mlp_sp, memo_s, have_s, vus[p]);
            k_axpy(mrow, mu, vws[p], H);
          }
        }
      }
      // 2) the three gate products, fused across the panel: one kernel call
      // per weight matrix per step instead of one dot per graph.
      k_rows(mpan, L, w.gru_wzt.data(), H, H, gz);
      k_rows(mpan, L, w.gru_wrt.data(), H, H, gr);
      k_rows(mpan, L, w.gru_wnt.data(), H, H, gn);
      // 3) pre-activation sums first (same association as GruCell::forward:
      // m·W dot, + h·U, + bias), then one panel-wide squashing sweep —
      // identical per-element math, but the f32 sweep runs 8 lanes wide.
      for (std::size_t l = 0; l < L; ++l) {
        const std::size_t g = static_cast<std::size_t>(live[l]);
        const std::size_t n = graphs[g]->num_nodes();
        const std::size_t gv = static_cast<std::size_t>(off[g]) +
                               (forward ? s : n - 1 - s);
        const T* huz = hu_z + gv * H;
        const T* hur = hu_r + gv * H;
        T* gzr = gz + l * H;
        T* grr = gr + l * H;
        for (std::size_t j = 0; j < H; ++j) {
          gzr[j] = (gzr[j] + huz[j]) + w.gru_bz[j];
          grr[j] = (grr[j] + hur[j]) + w.gru_br[j];
        }
      }
      k_sigmoid(gz, L * H);
      k_sigmoid(gr, L * H);
      for (std::size_t l = 0; l < L; ++l) {
        const std::size_t g = static_cast<std::size_t>(live[l]);
        const std::size_t n = graphs[g]->num_nodes();
        const std::size_t gv = static_cast<std::size_t>(off[g]) +
                               (forward ? s : n - 1 - s);
        const T* hrow = h + gv * H;
        const T* grr = gr + l * H;
        T* rhr = rh + l * H;
        for (std::size_t j = 0; j < H; ++j) rhr[j] = grr[j] * hrow[j];
      }
      // 4) candidate-state projection, fused.
      k_rows(rh, L, w.gru_unt.data(), H, H, rhu);
      for (std::size_t l = 0; l < L; ++l) {
        const T* rhur = rhu + l * H;
        T* gnr = gn + l * H;
        for (std::size_t j = 0; j < H; ++j) {
          gnr[j] = (gnr[j] + rhur[j]) + w.gru_bn[j];
        }
      }
      k_tanh(gn, L * H);
      // 5) state update + optional op normalization.
      for (std::size_t l = 0; l < L; ++l) {
        const std::size_t g = static_cast<std::size_t>(live[l]);
        const CompGraph& cg = *graphs[g];
        const std::size_t n = cg.num_nodes();
        const int v =
            forward ? static_cast<int>(s) : static_cast<int>(n - 1 - s);
        const std::size_t gv = static_cast<std::size_t>(off[g]) +
                               static_cast<std::size_t>(v);
        T* hrow = h + gv * H;
        const T* gzr = gz + l * H;
        const T* gnr = gn + l * H;
        for (std::size_t j = 0; j < H; ++j) {
          const T nj = gnr[j];
          // h' = (n − z∘n) + z∘h, the tape's association.
          hrow[j] = (nj - gzr[j] * nj) + gzr[j] * hrow[j];
        }
        if (cfg_.op_normalization) {
          const T* gain =
              w.op_gains.data() +
              static_cast<std::size_t>(cg.node(v).type) * H;
          k_tanh(hrow, H);
          for (std::size_t j = 0; j < H; ++j) hrow[j] *= gain[j];
        }
      }
    }
  };

  for (int t = 0; t < cfg_.num_passes; ++t) {
    run_half_pass(/*forward=*/true);
    run_half_pass(/*forward=*/false);
  }

  // ---- module 3 (skipped per PredictDDL §III-E): mean-pool readout ----
  T* acc = mpan;  // panel scratch is free now
  for (std::size_t g = 0; g < G; ++g) {
    const std::size_t n = graphs[g]->num_nodes();
    const T* grows = h + static_cast<std::size_t>(off[g]) * H;
    std::copy(grows, grows + H, acc);
    for (std::size_t v = 1; v < n; ++v) {
      const T* hrow = grows + v * H;
      for (std::size_t j = 0; j < H; ++j) acc[j] += hrow[j];
    }
    const T inv = static_cast<T>(1.0 / static_cast<double>(n));
    Vector& out = *outs[g];
    if (out.size() != H) out.resize(H);
    for (std::size_t j = 0; j < H; ++j) {
      out[j] = static_cast<double>(acc[j] * inv);
    }
  }
}

template void GhnInference::embed_batch_impl<double>(
    const WeightsT<double>&, std::span<const graph::CompGraph* const>,
    std::span<Vector* const>) const;
template void GhnInference::embed_batch_impl<float>(
    const WeightsT<float>&, std::span<const graph::CompGraph* const>,
    std::span<Vector* const>) const;

}  // namespace pddl::ghn
