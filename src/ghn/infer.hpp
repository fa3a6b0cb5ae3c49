// Tape-free GHN inference engine — the serving hot path (DESIGN.md §10, §15).
//
// Ghn2::embedding builds a full autograd tape per call: thousands of tape
// nodes, one 1×H Matrix allocation each, and one message-MLP forward per
// *edge* per traversal even though a node's state is frozen once its own
// update ran.  Inference needs none of that.  GhnInference snapshots the
// GHN's parameters once (weights pre-transposed for unit-stride dot
// micro-kernels) and then evaluates the identical arithmetic on the tape's
// own graph-side inputs (CompGraph::node_features_into for H₀,
// graph::for_each_virtual_edge for the Eq. 4 virtual edges, emitted in the
// order that keeps message sums bit-exact) with
//
//   1. per-pass message memoization — MLP(h_u) / MLP_sp(h_u) computed
//      lazily once per node per traversal direction and reused by every
//      out-neighbour: O(N) MLP forwards instead of O(E).  Exact because
//      node ids are topological: in a forward half-pass every message
//      source u < v has already taken its (unique) update for the pass,
//      so h_u is final when any consumer reads it; symmetrically for the
//      backward half-pass.
//   2. row-batched GEMMs — the embedding layer runs as one N×F · F×H
//      product, and the GRU's old-state projections H·Uz / H·Ur as two
//      N×H · H×H products per half-pass (valid because each node reads its
//      own pre-update state, which is the half-pass-start state).  The GRU
//      recurrence itself stays sequential per node in topological order.
//   3. a per-thread ScratchArena — every intermediate (features, states,
//      memo tables, BFS scratch, virtual-edge CSR) lives in
//      reusable chunked buffers, so a steady-state embed performs zero
//      heap allocations and concurrent embeds from the micro-batch
//      ThreadPool never share scratch.
//   4. runtime-dispatched SIMD kernels (tensor/simd.hpp) — every GEMM/dot
//      below routes through the dispatch layer, so the same binary runs
//      AVX2 where the CPU has it and the bit-identical scalar fallback
//      elsewhere (or under the PDDL_DISPATCH=scalar override).
//
// Precision (DESIGN.md §15): an engine is constructed at kF64 (default) or
// kF32.  The f64 engine carries the original parity guarantee: every kernel
// accumulates partial sums in the same (ascending-k) order as the tape ops,
// so embeddings agree with Ghn2::embedding to ≤ 1e-9 relative.  The f32
// engine stores the pre-transposed weights and all arena scratch in single
// precision — half the memory bandwidth on the embed-layer and GRU-gate
// GEMMs, twice the SIMD lanes — and replaces libm's exp/tanh with the
// dispatch layer's fast float transcendentals.  Its contract is NOT the
// 1e-9 bound (that stays double-only) but an empirically derived error
// budget against the f64 oracle, asserted across every CNN and transformer
// family in tests/ghn_infer_test.cpp; the f64 engine remains the default
// library precision and the serving ablation path.  Both precisions are
// bit-identical across dispatch levels and across batch widths.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "ghn/ghn2.hpp"

namespace pddl::ghn {

// Numeric precision of an inference engine's weights and scratch.
enum class Precision : std::uint8_t { kF64 = 0, kF32 = 1 };
// "f64" / "f32" — the CLI and metrics spelling.
const char* precision_name(Precision p);
// Parses the CLI spelling; returns false (leaving `out` untouched) on
// anything but "f32" / "f64".
bool parse_precision(std::string_view text, Precision& out);

// Chunked bump allocator for embed-local scratch.  take() hands out spans
// from pre-allocated blocks; when the active block is exhausted the arena
// opens the next one (growing geometrically), so previously returned spans
// never move.  reset() rewinds every block without releasing memory: after
// one warm-up embed, later embeds of same-or-smaller graphs allocate
// nothing.  One arena per thread (GhnInference::thread_arena) keeps this
// safe under concurrent embeds.
class ScratchArena {
 public:
  double* doubles(std::size_t n) { return doubles_.take(n); }
  float* floats(std::size_t n) { return floats_.take(n); }
  int* ints(std::size_t n) { return ints_.take(n); }

  // Rewind all blocks; outstanding spans become invalid, capacity is kept.
  void reset() {
    doubles_.reset();
    floats_.reset();
    ints_.reset();
  }

  // Observability / test hooks.
  std::size_t block_allocations() const {
    return doubles_.allocations + floats_.allocations + ints_.allocations;
  }
  std::size_t capacity_bytes() const {
    return doubles_.bytes() + floats_.bytes() + ints_.bytes();
  }
  // Live blocks across all pools — with capacity_bytes() this is the
  // arena's high-water mark the service's metrics report: capacity only
  // grows, so (bytes, chunks) after an embed is the footprint every later
  // same-shape embed reuses allocation-free.
  std::size_t chunk_count() const {
    return doubles_.blocks.size() + floats_.blocks.size() +
           ints_.blocks.size();
  }

 private:
  template <typename T>
  struct Pool {
    struct Block {
      std::unique_ptr<T[]> data;
      std::size_t cap = 0;
      std::size_t used = 0;
    };
    std::vector<Block> blocks;
    std::size_t cursor = 0;  // index of the block currently being filled
    std::size_t allocations = 0;

    T* take(std::size_t n) {
      while (cursor < blocks.size()) {
        Block& b = blocks[cursor];
        if (b.used + n <= b.cap) {
          T* p = b.data.get() + b.used;
          b.used += n;
          return p;
        }
        ++cursor;  // tail of this block is skipped for the rest of the round
      }
      const std::size_t last = blocks.empty() ? 0 : blocks.back().cap;
      const std::size_t cap = std::max<std::size_t>(
          n, std::max<std::size_t>(4096, 2 * last));
      Block b;
      b.data = std::make_unique<T[]>(cap);
      b.cap = cap;
      b.used = n;
      blocks.push_back(std::move(b));
      ++allocations;
      return blocks.back().data.get();
    }
    void reset() {
      for (Block& b : blocks) b.used = 0;
      cursor = 0;
    }
    std::size_t bytes() const {
      std::size_t s = 0;
      for (const Block& b : blocks) s += b.cap * sizeof(T);
      return s;
    }
  };

  Pool<double> doubles_;
  Pool<float> floats_;
  Pool<int> ints_;
};

// Immutable, gradient-free snapshot of one Ghn2 at a chosen precision.
// Construction copies (and pre-transposes) every parameter, so the engine
// stays valid and thread-safe even if the source GHN is later retrained or
// destroyed; GhnRegistry invalidates its engines whenever a GHN is replaced
// and keeps one engine slot per precision.
class GhnInference {
 public:
  explicit GhnInference(const Ghn2& ghn,
                        Precision precision = Precision::kF64);

  const GhnConfig& config() const { return cfg_; }
  std::size_t hidden_dim() const { return cfg_.hidden_dim; }
  Precision precision() const { return precision_; }
  // ghn_checksum of the source GHN at snapshot time (staleness key).  The
  // checksum carries no precision tag: both engines of one GHN share it,
  // and cross-precision cache reuse is covered by the f32 error budget.
  std::uint64_t source_checksum() const { return source_checksum_; }

  // Tape-free embedding; ≤ 1e-9 relative from Ghn2::embedding(g) at kF64,
  // within the documented f32 error budget at kF32.  The convenience form
  // allocates only the returned Vector.
  Vector embedding(const graph::CompGraph& g) const;
  // Zero-allocation form: writes hidden_dim() values into `out`.  With a
  // warm arena and `out` already at size, a call performs no heap
  // allocation at all (asserted by the allocation-counting test).  This is
  // the width-1 wrapper over embed_batch_into, so its parity contract is the
  // batched engine's.
  void embed_into(const graph::CompGraph& g, Vector& out) const;
  // Batched multi-graph form: embeds graphs[i] into *outs[i], all from one
  // widened arena layout (concatenated node-row space, one global
  // virtual-edge CSR, per-step gather buffers).  The embed layer and the
  // H·Uz/H·Ur gate halves run as single GEMMs over every node of every
  // graph, and the per-node GRU recurrence is interleaved across graphs in
  // schedule order: step s updates node s (forward half-pass) or n_g−1−s
  // (backward) of every still-live graph, with the three message-gate
  // products fused into one matmul_rows_transposed_b call per step instead
  // of one dot per graph — the batch shares each weight row's cache traffic.
  // Exactness: every fused row is the same independent ascending-k dot the
  // one-graph path computes, and cross-graph interleaving preserves each
  // graph's internal update order, so per-graph results are bit-identical to
  // embed_into at any batch width (and the ≤1e-9 tape contract carries
  // over; asserted at widths 2/4/8 in ghn_infer_test).
  void embed_batch_into(std::span<const graph::CompGraph* const> graphs,
                        std::span<Vector* const> outs) const;

  // The calling thread's scratch arena (exposed for warm-up and the
  // allocation / reuse tests; embeds reset it on entry).
  static ScratchArena& thread_arena();

 private:
  // One Linear with the weight stored transposed (out × in, flat row-major)
  // so a row forward is a unit-stride dot per output.
  template <typename T>
  struct TLinearT {
    std::vector<T> wt;
    std::size_t out = 0;
    std::size_t in = 0;
    std::vector<T> b;  // empty when the source layer has no bias
  };
  template <typename T>
  struct TMlpT {
    std::vector<TLinearT<T>> layers;
    nn::Activation act = nn::Activation::kRelu;
    std::size_t max_width = 0;
    // y = mlp(x); scratch holds ≥ 2×max_width elements.
    void forward_row(const T* x, T* y, T* scratch) const;
  };
  // Full parameter snapshot in one precision.  Only the constructed
  // precision's instance is populated — an f32 engine stores no doubles.
  template <typename T>
  struct WeightsT {
    std::vector<T> embed_w;  // F × H, tape layout (row-batched i-k-j GEMM)
    std::vector<T> embed_b;  // H (zeros when the layer has no bias)
    TMlpT<T> msg_mlp;        // MLP(·) of Eq. 3
    TMlpT<T> msg_mlp_sp;     // MLP_sp(·) of Eq. 4
    std::vector<T> gru_wzt, gru_wrt, gru_wnt;  // input weights, ᵀ (H × H)
    std::vector<T> gru_uz, gru_ur;  // old-state weights, tape layout
    std::vector<T> gru_unt;         // Un transposed (sequential r∘h proj)
    std::vector<T> gru_bz, gru_br, gru_bn;  // H
    std::vector<T> op_gains;                // kNumOpTypes × H
  };

  template <typename T>
  void build_weights(const Ghn2& ghn, WeightsT<T>& w);

  template <typename T>
  void embed_batch_impl(const WeightsT<T>& w,
                        std::span<const graph::CompGraph* const> graphs,
                        std::span<Vector* const> outs) const;

  GhnConfig cfg_;
  Precision precision_ = Precision::kF64;
  std::uint64_t source_checksum_ = 0;
  WeightsT<double> w64_;
  WeightsT<float> w32_;
};

}  // namespace pddl::ghn
