// Tests for the tape-free GHN inference engine (src/ghn/infer.hpp): parity
// with the autograd-tape oracle across every model family and GHN config,
// the zero-allocation steady-state contract, arena reuse across graph
// sizes, and thread-safety of concurrent embeds (run under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <set>
#include <vector>

#include "ghn/ghn2.hpp"
#include "ghn/infer.hpp"
#include "ghn/registry.hpp"
#include "graph/models.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/simd.hpp"

// ---- allocation-counting hook ----
// The test binary replaces global operator new so individual tests can
// assert that a code region performs zero heap allocations.  Counting is
// per-thread and off by default, so gtest machinery and other threads are
// unaffected.
namespace {
std::atomic<bool> g_count_allocs{false};
thread_local std::size_t t_alloc_count = 0;
}  // namespace

// The replaced operator new below is malloc-backed, so free() in the
// replaced operator delete is the matching deallocator; GCC cannot see the
// pairing at inlined call sites and warns spuriously.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t sz) {
  if (g_count_allocs.load(std::memory_order_relaxed)) ++t_alloc_count;
  if (void* p = std::malloc(sz == 0 ? 1 : sz)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pddl::ghn {
namespace {

// One representative per model family in graph::model_registry().
constexpr const char* kFamilyReps[] = {
    "alexnet",           "vgg11",          "resnet18",
    "resnext50_32x4d",   "wide_resnet50_2", "densenet121",
    "squeezenet1_1",     "mobilenet_v3_small", "efficientnet_b0",
    "shufflenet_v2_x0_5", "googlenet"};

GhnConfig small_config(bool virtual_edges = true,
                       bool op_normalization = true) {
  GhnConfig c;
  c.hidden_dim = 16;
  c.mlp_hidden = 16;
  c.virtual_edges = virtual_edges;
  c.op_normalization = op_normalization;
  return c;
}

void expect_parity(const Vector& tape, const Vector& fast,
                   const std::string& what) {
  ASSERT_EQ(tape.size(), fast.size()) << what;
  for (std::size_t j = 0; j < tape.size(); ++j) {
    const double tol = 1e-9 * std::max(1.0, std::fabs(tape[j]));
    EXPECT_NEAR(fast[j], tape[j], tol) << what << " coordinate " << j;
  }
}

// Tentpole acceptance: the fast engine reproduces the tape path to ≤ 1e-9
// relative for every model family under every {virtual_edges,
// op_normalization} combination.
TEST(GhnInference, MatchesTapeAcrossFamiliesAndConfigs) {
  std::vector<graph::CompGraph> graphs;
  for (const char* name : kFamilyReps) {
    graphs.push_back(graph::build_model(name, {3, 32, 32}, 10));
  }
  for (bool virtual_edges : {false, true}) {
    for (bool op_normalization : {false, true}) {
      Rng rng(11);
      Ghn2 ghn(small_config(virtual_edges, op_normalization), rng);
      const GhnInference inf(ghn);
      for (const graph::CompGraph& g : graphs) {
        const Vector tape = ghn.embedding(g);
        const Vector fast = inf.embedding(g);
        expect_parity(tape, fast,
                      g.name() + (virtual_edges ? " +ve" : " -ve") +
                          (op_normalization ? " +on" : " -on"));
      }
    }
  }
}

// Batched-engine acceptance: one embed_batch_into pass reproduces
// embed_into bit-for-bit for every member, for every family, at widths
// 2/4/8 — and therefore inherits the single-graph path's ≤1e-9 tape
// contract unchanged.
TEST(GhnInference, BatchBitIdenticalToSingleAtWidths248) {
  Rng rng(21);
  Ghn2 ghn(small_config(), rng);
  const GhnInference inf(ghn);
  std::vector<graph::CompGraph> graphs;
  for (const char* name : kFamilyReps) {
    graphs.push_back(graph::build_model(name, {3, 32, 32}, 10));
  }
  std::vector<Vector> single(graphs.size());
  std::vector<Vector> tape;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    inf.embed_into(graphs[i], single[i]);
    tape.push_back(ghn.embedding(graphs[i]));
  }
  for (const std::size_t width :
       {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    // Rotate the batch window so every family leads a batch at every width
    // (the leader drives the interleaved schedule's live-set shrinkage).
    for (std::size_t start = 0; start < graphs.size(); ++start) {
      std::vector<const graph::CompGraph*> gs(width);
      std::vector<Vector> outs(width);
      std::vector<Vector*> ops(width);
      for (std::size_t i = 0; i < width; ++i) {
        gs[i] = &graphs[(start + i) % graphs.size()];
        ops[i] = &outs[i];
      }
      inf.embed_batch_into(std::span<const graph::CompGraph* const>(gs),
                           std::span<Vector* const>(ops));
      for (std::size_t i = 0; i < width; ++i) {
        const std::size_t gi = (start + i) % graphs.size();
        EXPECT_EQ(outs[i], single[gi])
            << graphs[gi].name() << " width " << width << " lane " << i;
        expect_parity(tape[gi], outs[i],
                      graphs[gi].name() + " batched vs tape");
      }
    }
  }
}

TEST(GhnInference, BatchMatchesSingleAcrossConfigs) {
  // The global virtual-edge CSR and per-node op gains are the batch
  // layout's trickiest pieces; exercise all four config combinations.
  std::vector<graph::CompGraph> graphs;
  graphs.push_back(graph::build_model("alexnet", {3, 32, 32}, 10));
  graphs.push_back(graph::build_model("densenet121", {3, 32, 32}, 10));
  graphs.push_back(graph::build_model("googlenet", {3, 32, 32}, 10));
  graphs.push_back(graph::build_model("resnet18", {3, 32, 32}, 10));
  for (bool virtual_edges : {false, true}) {
    for (bool op_normalization : {false, true}) {
      Rng rng(22);
      Ghn2 ghn(small_config(virtual_edges, op_normalization), rng);
      const GhnInference inf(ghn);
      std::vector<const graph::CompGraph*> gs;
      std::vector<Vector> outs(graphs.size());
      std::vector<Vector*> ops;
      for (std::size_t i = 0; i < graphs.size(); ++i) {
        gs.push_back(&graphs[i]);
        ops.push_back(&outs[i]);
      }
      inf.embed_batch_into(std::span<const graph::CompGraph* const>(gs),
                           std::span<Vector* const>(ops));
      for (std::size_t i = 0; i < graphs.size(); ++i) {
        Vector one;
        inf.embed_into(graphs[i], one);
        EXPECT_EQ(outs[i], one)
            << graphs[i].name() << (virtual_edges ? " +ve" : " -ve")
            << (op_normalization ? " +on" : " -on");
      }
    }
  }
}

// The zero-allocation contract extends to the batched path: with a warm
// arena and sized outputs, a whole multi-graph pass allocates nothing.
TEST(GhnInference, SteadyStateBatchEmbedPerformsNoAllocations) {
  Rng rng(23);
  Ghn2 ghn(small_config(), rng);
  const GhnInference inf(ghn);
  std::vector<graph::CompGraph> graphs;
  graphs.push_back(graph::build_model("resnet18", {3, 32, 32}, 10));
  graphs.push_back(graph::build_model("vgg11", {3, 32, 32}, 10));
  graphs.push_back(graph::build_model("alexnet", {3, 32, 32}, 10));
  graphs.push_back(graph::build_model("squeezenet1_1", {3, 32, 32}, 10));
  std::vector<const graph::CompGraph*> gs;
  std::vector<Vector> outs(graphs.size());
  std::vector<Vector*> ops;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    gs.push_back(&graphs[i]);
    ops.push_back(&outs[i]);
  }
  const std::span<const graph::CompGraph* const> gspan(gs);
  const std::span<Vector* const> ospan(ops);
  inf.embed_batch_into(gspan, ospan);  // warm-up: sizes arena and outputs
  const std::vector<Vector> warm = outs;

  g_count_allocs.store(true, std::memory_order_relaxed);
  t_alloc_count = 0;
  inf.embed_batch_into(gspan, ospan);
  const std::size_t allocs = t_alloc_count;
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(allocs, 0u);
  for (std::size_t i = 0; i < outs.size(); ++i) EXPECT_EQ(outs[i], warm[i]);
}

TEST(GhnInference, MatchesTapeAtDefaultDimensions) {
  // Default hidden_dim 32 exercises wider GEMMs than small_config.
  GhnConfig cfg;
  Rng rng(12);
  Ghn2 ghn(cfg, rng);
  const GhnInference inf(ghn);
  const auto g = graph::build_model("resnet50", {3, 32, 32}, 10);
  expect_parity(ghn.embedding(g), inf.embedding(g), "resnet50 @ default cfg");
}

TEST(GhnInference, SnapshotSurvivesSourceMutation) {
  Rng rng(13);
  Ghn2 ghn(small_config(), rng);
  const auto g = graph::build_model("alexnet", {3, 32, 32}, 10);
  const Vector before = ghn.embedding(g);
  const GhnInference inf(ghn);
  // Perturb the source GHN; the engine holds copies, so it keeps producing
  // the snapshot-time embedding.
  for (Matrix* p : ghn.parameters()) (*p) *= 1.5;
  EXPECT_NE(ghn.embedding(g), before);
  expect_parity(before, inf.embedding(g), "snapshot after mutation");
}

TEST(GhnInference, SourceChecksumMatchesSnapshotTimeChecksum) {
  Rng rng(14);
  Ghn2 ghn(small_config(), rng);
  const std::uint64_t sum = ghn_checksum(ghn);
  const GhnInference inf(ghn);
  EXPECT_EQ(inf.source_checksum(), sum);
  for (Matrix* p : ghn.parameters()) (*p) *= 2.0;
  EXPECT_NE(ghn_checksum(ghn), inf.source_checksum());
}

// Acceptance: steady-state embed_into performs zero heap allocations — the
// arena is warm, the output vector is sized, and nothing else on the path
// allocates.
TEST(GhnInference, SteadyStateEmbedPerformsNoAllocations) {
  Rng rng(15);
  Ghn2 ghn(small_config(), rng);
  const GhnInference inf(ghn);
  const auto g = graph::build_model("resnet18", {3, 32, 32}, 10);
  Vector out;
  inf.embed_into(g, out);  // warm-up: sizes the arena and `out`
  const Vector warm = out;

  g_count_allocs.store(true, std::memory_order_relaxed);
  t_alloc_count = 0;
  inf.embed_into(g, out);
  const std::size_t allocs = t_alloc_count;
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(out, warm);
}

TEST(GhnInference, ArenaIsReusedAcrossGraphSizes) {
  Rng rng(16);
  Ghn2 ghn(small_config(), rng);
  const GhnInference inf(ghn);
  const auto big = graph::build_model("densenet121", {3, 32, 32}, 10);
  const auto small = graph::build_model("alexnet", {3, 32, 32}, 10);
  Vector out;
  inf.embed_into(big, out);  // largest graph first: arena at high-water mark
  const std::size_t blocks =
      GhnInference::thread_arena().block_allocations();
  const std::size_t bytes = GhnInference::thread_arena().capacity_bytes();
  // Smaller (and repeat) embeds must fit the existing blocks.
  inf.embed_into(small, out);
  inf.embed_into(big, out);
  inf.embed_into(small, out);
  EXPECT_EQ(GhnInference::thread_arena().block_allocations(), blocks);
  EXPECT_EQ(GhnInference::thread_arena().capacity_bytes(), bytes);
}

// Run under TSan in CI: concurrent embeds on pool threads must not share
// scratch (each thread has its own arena) and must agree with the oracle.
TEST(GhnInference, ConcurrentEmbedsAreRaceFreeAndCorrect) {
  Rng rng(17);
  Ghn2 ghn(small_config(), rng);
  const GhnInference inf(ghn);
  std::vector<graph::CompGraph> graphs;
  for (const char* name : kFamilyReps) {
    graphs.push_back(graph::build_model(name, {3, 32, 32}, 10));
  }
  std::vector<Vector> expected;
  for (const auto& g : graphs) expected.push_back(ghn.embedding(g));

  ThreadPool pool(4);
  constexpr int kRounds = 3;  // repeats reuse each pool thread's warm arena
  for (int round = 0; round < kRounds; ++round) {
    std::vector<Vector> got(graphs.size());
    parallel_for(pool, 0, graphs.size(),
                 [&](std::size_t i) { got[i] = inf.embedding(graphs[i]); });
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      expect_parity(expected[i], got[i], graphs[i].name() + " (concurrent)");
    }
  }
}

TEST(ScratchArena, SpansAreStableAcrossGrowth) {
  ScratchArena arena;
  double* first = arena.doubles(100);
  first[0] = 42.0;
  // Force several new blocks; the first span must not move.
  for (int i = 0; i < 20; ++i) arena.ints(1 << 12);
  (void)arena.doubles(1 << 20);
  EXPECT_EQ(first[0], 42.0);
  const std::size_t cap = arena.capacity_bytes();
  arena.reset();
  // reset() keeps capacity: re-taking the same sizes allocates no blocks.
  const std::size_t blocks = arena.block_allocations();
  (void)arena.doubles(100);
  (void)arena.doubles(1 << 20);
  EXPECT_EQ(arena.block_allocations(), blocks);
  EXPECT_EQ(arena.capacity_bytes(), cap);
}

// ---- f32 engine (DESIGN.md §15) ----
// The single-precision engine trades the ≤1e-9 tape contract for an
// empirically derived error budget against the f64 oracle.  Measured worst
// case across every CNN family below plus the BERT/GPT transformer
// families, at both the small and the default (32-d) configuration:
// 4.4e-7 scaled-relative (‖f32 − f64‖∞ / ‖f64‖∞).  The assertion uses
// 1e-5 — >20× headroom, yet still five orders tighter than the embedding
// scale — so a genuine precision regression (e.g. an accidentally
// contracted kernel or a broken transcendental) trips it long before it
// could move a prediction.
constexpr double kF32EmbedBudget = 1e-5;

// Transformer family representatives (token-shaped inputs).
constexpr const char* kTransformerReps[] = {"bert_tiny", "bert_mini",
                                            "gpt_tiny", "gpt_mini"};

std::vector<graph::CompGraph> all_family_graphs() {
  std::vector<graph::CompGraph> graphs;
  for (const char* name : kFamilyReps) {
    graphs.push_back(graph::build_model(name, {3, 32, 32}, 10));
  }
  for (const char* name : kTransformerReps) {
    graphs.push_back(graph::build_model(name, {1, 128, 1}, 1000));
  }
  return graphs;
}

TEST(GhnInferenceF32, WithinErrorBudgetOfF64OracleAcrossAllFamilies) {
  const std::vector<graph::CompGraph> graphs = all_family_graphs();
  for (const bool default_dims : {false, true}) {
    GhnConfig cfg = default_dims ? GhnConfig{} : small_config();
    Rng rng(31);
    Ghn2 ghn(cfg, rng);
    const GhnInference oracle(ghn, Precision::kF64);
    const GhnInference fast(ghn, Precision::kF32);
    EXPECT_EQ(oracle.precision(), Precision::kF64);
    EXPECT_EQ(fast.precision(), Precision::kF32);
    for (const graph::CompGraph& g : graphs) {
      Vector a, b;
      oracle.embed_into(g, a);
      fast.embed_into(g, b);
      ASSERT_EQ(a.size(), b.size());
      double scale = 0.0;
      for (const double v : a) scale = std::max(scale, std::fabs(v));
      for (std::size_t j = 0; j < a.size(); ++j) {
        EXPECT_NEAR(b[j], a[j], kF32EmbedBudget * std::max(scale, 1e-12))
            << g.name() << (default_dims ? " @ default dims" : " @ small")
            << " coordinate " << j;
      }
    }
  }
}

// Restores the active dispatch level on scope exit.
class DispatchGuard {
 public:
  explicit DispatchGuard(simd::DispatchLevel level)
      : prev_(simd::set_dispatch_level(level)) {}
  ~DispatchGuard() { simd::set_dispatch_level(prev_); }

 private:
  simd::DispatchLevel prev_;
};

// Both engines must produce the same bits at forced-scalar and at the
// hardware maximum — the kernel-level parity sweeps in tensor_test, lifted
// to whole embeddings.  (Under PDDL_DISPATCH=scalar, max == scalar and this
// degenerates to a determinism check; the AVX2 leg runs where CI has it.)
TEST(GhnInferenceF32, EmbeddingsBitIdenticalAcrossDispatchLevels) {
  Rng rng(32);
  Ghn2 ghn(small_config(), rng);
  const GhnInference f32(ghn, Precision::kF32);
  const GhnInference f64(ghn, Precision::kF64);
  for (const graph::CompGraph& g : all_family_graphs()) {
    Vector lo32, hi32, lo64, hi64;
    {
      DispatchGuard guard(simd::DispatchLevel::kScalar);
      f32.embed_into(g, lo32);
      f64.embed_into(g, lo64);
    }
    {
      DispatchGuard guard(simd::max_supported_level());
      f32.embed_into(g, hi32);
      f64.embed_into(g, hi64);
    }
    EXPECT_EQ(lo32, hi32) << g.name() << " f32";
    EXPECT_EQ(lo64, hi64) << g.name() << " f64";
  }
}

// The f64 tape contract also holds for transformer graphs (the CNN families
// are covered by MatchesTapeAcrossFamiliesAndConfigs above).
TEST(GhnInference, MatchesTapeOnTransformerFamilies) {
  Rng rng(33);
  Ghn2 ghn(small_config(), rng);
  const GhnInference inf(ghn);
  for (const char* name : kTransformerReps) {
    const auto g = graph::build_model(name, {1, 128, 1}, 1000);
    expect_parity(ghn.embedding(g), inf.embedding(g), g.name());
  }
}

// Batch-vs-single bit-identity carries over to the f32 engine unchanged:
// the batched schedule fuses kernels but never reorders any graph's
// arithmetic, at either precision.
TEST(GhnInferenceF32, BatchBitIdenticalToSingleAtWidths248) {
  Rng rng(34);
  Ghn2 ghn(small_config(), rng);
  const GhnInference inf(ghn, Precision::kF32);
  std::vector<graph::CompGraph> graphs;
  for (const char* name : kFamilyReps) {
    graphs.push_back(graph::build_model(name, {3, 32, 32}, 10));
  }
  std::vector<Vector> single(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    inf.embed_into(graphs[i], single[i]);
  }
  for (const std::size_t width :
       {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    for (std::size_t start = 0; start < graphs.size(); ++start) {
      std::vector<const graph::CompGraph*> gs(width);
      std::vector<Vector> outs(width);
      std::vector<Vector*> ops(width);
      for (std::size_t i = 0; i < width; ++i) {
        gs[i] = &graphs[(start + i) % graphs.size()];
        ops[i] = &outs[i];
      }
      inf.embed_batch_into(std::span<const graph::CompGraph* const>(gs),
                           std::span<Vector* const>(ops));
      for (std::size_t i = 0; i < width; ++i) {
        const std::size_t gi = (start + i) % graphs.size();
        EXPECT_EQ(outs[i], single[gi])
            << graphs[gi].name() << " width " << width << " lane " << i;
      }
    }
  }
}

// The zero-allocation steady-state contract is precision-independent: the
// arena simply hands out float chunks instead of double ones.
TEST(GhnInferenceF32, SteadyStateEmbedPerformsNoAllocations) {
  Rng rng(35);
  Ghn2 ghn(small_config(), rng);
  const GhnInference inf(ghn, Precision::kF32);
  const auto g = graph::build_model("resnet18", {3, 32, 32}, 10);
  Vector out;
  inf.embed_into(g, out);  // warm-up: sizes the arena and `out`
  const Vector warm = out;

  g_count_allocs.store(true, std::memory_order_relaxed);
  t_alloc_count = 0;
  inf.embed_into(g, out);
  const std::size_t allocs = t_alloc_count;
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(out, warm);
}

TEST(GhnRegistry, CachesOneEnginePerPrecision) {
  GhnRegistry reg;
  Rng rng(37);
  reg.put("cifar10", std::make_unique<Ghn2>(small_config(), rng));
  auto f64a = reg.inference("cifar10");  // default precision is kF64
  auto f32a = reg.inference("cifar10", Precision::kF32);
  EXPECT_EQ(f64a->precision(), Precision::kF64);
  EXPECT_EQ(f32a->precision(), Precision::kF32);
  EXPECT_NE(f64a.get(), f32a.get());  // distinct engines per precision
  // Each slot is cached independently…
  EXPECT_EQ(reg.inference("cifar10", Precision::kF64).get(), f64a.get());
  EXPECT_EQ(reg.inference("cifar10", Precision::kF32).get(), f32a.get());
  // …and both are invalidated together when the GHN is replaced.
  reg.put("cifar10", std::make_unique<Ghn2>(small_config(), rng));
  EXPECT_NE(reg.inference("cifar10", Precision::kF64).get(), f64a.get());
  EXPECT_NE(reg.inference("cifar10", Precision::kF32).get(), f32a.get());
}

TEST(GhnRegistry, InferenceEngineIsCachedAndInvalidatedByPut) {
  GhnRegistry reg;
  Rng rng(18);
  reg.put("cifar10", std::make_unique<Ghn2>(small_config(), rng));
  auto a = reg.inference("cifar10");
  auto b = reg.inference("cifar10");
  EXPECT_EQ(a.get(), b.get());  // built once, cached
  reg.put("cifar10", std::make_unique<Ghn2>(small_config(), rng));
  auto c = reg.inference("cifar10");
  EXPECT_NE(a.get(), c.get());  // replaced GHN → fresh engine
  EXPECT_EQ(c->source_checksum(), ghn_checksum(*reg.model("cifar10")));
  EXPECT_THROW((void)reg.inference("unknown"), std::exception);
}

TEST(GhnRegistry, EmbeddingPathUsesEngineButMatchesTape) {
  GhnRegistry reg;
  Rng rng(19);
  auto ghn = std::make_unique<Ghn2>(small_config(), rng);
  const auto g = graph::build_model("googlenet", {3, 32, 32}, 10);
  const Vector tape = ghn->embedding(g);
  reg.put("cifar10", std::move(ghn));
  expect_parity(tape, reg.embedding("cifar10", g), "registry embedding");
  // Batch path too (concurrent fast embeds + cache publish).
  ThreadPool pool(2);
  const auto g2 = graph::build_model("alexnet", {3, 32, 32}, 10);
  const Vector tape2 = reg.model("cifar10")->embedding(g2);
  auto out = reg.embeddings("cifar10", {&g, &g2}, pool);
  ASSERT_EQ(out.size(), 2u);
  expect_parity(tape, out[0], "registry batch [0]");
  expect_parity(tape2, out[1], "registry batch [1]");
}

}  // namespace
}  // namespace pddl::ghn
