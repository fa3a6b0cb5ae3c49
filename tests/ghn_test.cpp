#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "ghn/ghn2.hpp"
#include "ghn/registry.hpp"
#include "ghn/trainer.hpp"
#include "graph/builder.hpp"
#include "graph/darts.hpp"
#include "graph/models.hpp"
#include "workload/workload.hpp"

namespace pddl::ghn {
namespace {

GhnConfig small_config() {
  GhnConfig c;
  c.hidden_dim = 16;
  c.mlp_hidden = 16;
  return c;
}

graph::CompGraph tiny_graph(const std::string& name = "tiny") {
  graph::GraphBuilder b(name, {3, 8, 8});
  int x = b.conv_bn_relu(b.input(), 8, 3, 1);
  x = b.conv_bn_relu(x, 16, 3, 2);
  (void)x;
  return std::move(b).finish(4);
}

TEST(Ghn2, EmbeddingHasConfiguredDimension) {
  Rng rng(1);
  Ghn2 ghn(small_config(), rng);
  Vector e = ghn.embedding(tiny_graph());
  EXPECT_EQ(e.size(), 16u);
}

TEST(Ghn2, EmbeddingIsDeterministic) {
  Rng rng(2);
  Ghn2 ghn(small_config(), rng);
  Vector a = ghn.embedding(tiny_graph());
  Vector b = ghn.embedding(tiny_graph());
  EXPECT_EQ(a, b);
}

TEST(Ghn2, EmbeddingIsBoundedWithOpNormalization) {
  // tanh squashing × unit gains bounds every coordinate by 1 at init.
  Rng rng(3);
  Ghn2 ghn(small_config(), rng);
  Vector e = ghn.embedding(graph::build_model("resnet18", {3, 32, 32}, 10));
  for (double v : e) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_LE(std::fabs(v), 1.0 + 1e-9);
  }
}

TEST(Ghn2, DifferentArchitecturesGetDifferentEmbeddings) {
  Rng rng(4);
  Ghn2 ghn(small_config(), rng);
  Vector a = ghn.embedding(graph::build_model("alexnet", {3, 32, 32}, 10));
  Vector b = ghn.embedding(graph::build_model("resnet18", {3, 32, 32}, 10));
  EXPECT_GT(norm2(vsub(a, b)), 1e-6);
}

TEST(Ghn2, VirtualEdgesChangeTheEmbedding) {
  GhnConfig with = small_config();
  GhnConfig without = small_config();
  without.virtual_edges = false;
  Rng r1(5), r2(5);
  Ghn2 ghn_with(with, r1);
  Ghn2 ghn_without(without, r2);  // identical init (same seed, same shapes)
  const auto g = tiny_graph();
  Vector a = ghn_with.embedding(g);
  Vector b = ghn_without.embedding(g);
  EXPECT_GT(norm2(vsub(a, b)), 1e-9);
}

TEST(Ghn2, GradientsReachAllParameters) {
  Rng rng(6);
  Ghn2 ghn(small_config(), rng);
  nn::Ctx ctx;
  ag::Var emb = ghn.embed(ctx, tiny_graph());
  ctx.backward(ag::sum_all(ag::square(emb)));
  std::size_t nonzero = 0;
  for (Matrix* p : ghn.parameters()) {
    if (ctx.grad(*p).frobenius_norm() > 0.0) ++nonzero;
  }
  // All parameter tensors should receive gradient signal (op gains for op
  // types absent from the tiny graph stay at zero).
  EXPECT_GT(nonzero, ghn.parameters().size() / 2);
}

TEST(Ghn2, InvalidConfigRejected) {
  Rng rng(7);
  GhnConfig c = small_config();
  c.s_max = 1;
  EXPECT_THROW(Ghn2(c, rng), Error);
  GhnConfig c2 = small_config();
  c2.num_passes = 0;
  EXPECT_THROW(Ghn2(c2, rng), Error);
}

TEST(Ghn2, SerializationRoundTrip) {
  Rng rng(8);
  Ghn2 ghn(small_config(), rng);
  const auto g = tiny_graph();
  Vector before = ghn.embedding(g);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ghn_test.bin").string();
  save_ghn(path, ghn);
  auto loaded = load_ghn(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded->config().hidden_dim, 16u);
  Vector after = loaded->embedding(g);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_DOUBLE_EQ(before[i], after[i]);
  }
}

TEST(Ghn2, ChecksumIsStableAcrossRepeatCalls) {
  Rng rng(81);
  Ghn2 ghn(small_config(), rng);
  const std::uint64_t first = ghn_checksum(ghn);
  // Second call returns the memoized digest; both must agree with a fresh
  // hash after an explicit invalidation (nothing changed).
  EXPECT_EQ(ghn_checksum(ghn), first);
  ghn.invalidate_checksum();
  EXPECT_EQ(ghn_checksum(ghn), first);
}

TEST(Ghn2, ChecksumTracksParameterMutation) {
  Rng rng(82);
  Ghn2 ghn(small_config(), rng);
  const std::uint64_t before = ghn_checksum(ghn);
  // parameters() hands out mutable pointers and must drop the memo, so a
  // write through them is reflected by the next checksum call.
  std::vector<Matrix*> ps = ghn.parameters();
  (*ps.front())(0, 0) += 1.0;
  EXPECT_NE(ghn_checksum(ghn), before);
  (*ps.front())(0, 0) -= 1.0;
  ghn.invalidate_checksum();  // mutation through a stale pointer
  EXPECT_EQ(ghn_checksum(ghn), before);
}

TEST(Ghn2, TrainingInvalidatesChecksumMemo) {
  Rng rng(83);
  Ghn2 ghn(small_config(), rng);
  const std::uint64_t untrained = ghn_checksum(ghn);
  TrainerConfig tcfg;
  tcfg.corpus_size = 4;
  tcfg.epochs = 1;
  tcfg.batch_size = 2;
  tcfg.darts.input = {3, 16, 16};
  tcfg.darts.max_cells = 3;
  GhnTrainer trainer(ghn, tcfg);
  ThreadPool pool(2);
  trainer.train(pool);
  // The optimizer wrote through pointers captured before training; the
  // trainer must have dropped the memo so the digest reflects new weights.
  EXPECT_NE(ghn_checksum(ghn), untrained);
}

TEST(ComplexityTargets, DimensionAndMonotonicity) {
  Vector small = complexity_targets(
      graph::build_model("mobilenet_v3_small", {3, 32, 32}, 10));
  Vector big =
      complexity_targets(graph::build_model("resnet50", {3, 32, 32}, 10));
  EXPECT_EQ(small.size(), kNumTargets);
  EXPECT_LT(small[0], big[0]);  // log flops
  EXPECT_LT(small[1], big[1]);  // log params
}

TEST(Trainer, LossDecreasesOnTinyCorpus) {
  Rng rng(9);
  Ghn2 ghn(small_config(), rng);
  TrainerConfig tc;
  tc.corpus_size = 12;
  tc.epochs = 8;
  tc.batch_size = 4;
  tc.seed = 11;
  tc.darts.input = {3, 16, 16};
  tc.darts.max_cells = 3;
  GhnTrainer trainer(ghn, tc);
  ThreadPool pool(4);
  TrainReport rep = trainer.train(pool);
  ASSERT_EQ(rep.epoch_losses.size(), 8u);
  EXPECT_LT(rep.final_loss, rep.epoch_losses.front());
}

TEST(Trainer, TrainedEmbeddingSeparatesComplexityBetterThanRandom) {
  // After surrogate training, cosine similarity between two similar-size
  // architectures should exceed similarity between a small and a huge one.
  Rng rng(10);
  Ghn2 ghn(small_config(), rng);
  TrainerConfig tc;
  tc.corpus_size = 24;
  tc.epochs = 12;
  tc.batch_size = 6;
  tc.seed = 17;
  tc.darts.input = {3, 16, 16};
  tc.darts.max_cells = 3;
  GhnTrainer trainer(ghn, tc);
  ThreadPool pool(4);
  trainer.train(pool);

  const graph::TensorShape in{3, 32, 32};
  Vector r18 = ghn.embedding(graph::build_model("resnet18", in, 10));
  Vector r34 = ghn.embedding(graph::build_model("resnet34", in, 10));
  Vector mnet = ghn.embedding(graph::build_model("mobilenet_v3_small", in, 10));
  // ResNet-18 is architecturally closer to ResNet-34 than to MobileNet.
  EXPECT_GT(cosine_similarity(r18, r34), cosine_similarity(r18, mnet));
}

TEST(Registry, PutHasAndEmbed) {
  GhnRegistry reg;
  EXPECT_FALSE(reg.has_model("cifar10"));
  Rng rng(11);
  reg.put("cifar10", std::make_unique<Ghn2>(small_config(), rng));
  EXPECT_TRUE(reg.has_model("cifar10"));
  EXPECT_EQ(reg.size(), 1u);
  Vector e = reg.embedding("cifar10", tiny_graph("g1"));
  EXPECT_EQ(e.size(), 16u);
}

TEST(Registry, MissingDatasetThrows) {
  GhnRegistry reg;
  EXPECT_THROW(reg.embedding("imagenet", tiny_graph()), Error);
}

TEST(Registry, FingerprintIgnoresNameButTracksStructure) {
  // Same structure under different names → one fingerprint (the GHN never
  // sees the name); structurally different graphs → distinct fingerprints.
  EXPECT_EQ(structural_fingerprint(tiny_graph("a")),
            structural_fingerprint(tiny_graph("b")));
  const auto resnet = graph::build_model("resnet18", {3, 32, 32}, 10);
  const auto vgg = graph::build_model("vgg11", {3, 32, 32}, 10);
  EXPECT_NE(structural_fingerprint(resnet), structural_fingerprint(vgg));
  // Input resolution changes every node's output shape → new fingerprint.
  const auto resnet64 = graph::build_model("resnet18", {3, 64, 64}, 10);
  EXPECT_NE(structural_fingerprint(resnet), structural_fingerprint(resnet64));
}

TEST(Registry, CachesByGraphName) {
  GhnRegistry reg;
  Rng rng(12);
  reg.put("cifar10", std::make_unique<Ghn2>(small_config(), rng));
  Vector a = reg.embedding("cifar10", tiny_graph("same"));
  Vector b = reg.embedding("cifar10", tiny_graph("same"));
  EXPECT_EQ(a, b);
}

TEST(Registry, DifferentGraphsWithSameNameDoNotCollide) {
  // Regression test: two independently sampled DARTS corpora both name
  // their graphs "darts_0"; the cache must distinguish them structurally.
  GhnRegistry reg;
  Rng rng(13);
  reg.put("cifar10", std::make_unique<Ghn2>(small_config(), rng));
  auto a = graph::sample_darts_corpus(1, /*seed=*/1)[0];
  auto b = graph::sample_darts_corpus(1, /*seed=*/2)[0];
  ASSERT_EQ(a.name(), b.name());
  ASSERT_NE(a.num_nodes(), b.num_nodes());  // structurally different
  Vector ea = reg.embedding("cifar10", a);
  Vector eb = reg.embedding("cifar10", b);
  EXPECT_GT(norm2(vsub(ea, eb)), 1e-9);
}

TEST(Registry, BatchEmbeddingsMatchSequential) {
  GhnRegistry reg;
  Rng rng(14);
  reg.put("cifar10", std::make_unique<Ghn2>(small_config(), rng));
  auto corpus = graph::sample_darts_corpus(6, 9);
  std::vector<const graph::CompGraph*> ptrs;
  for (const auto& g : corpus) ptrs.push_back(&g);
  ThreadPool pool(4);
  const auto batch = reg.embeddings("cifar10", ptrs, pool);
  ASSERT_EQ(batch.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(batch[i], reg.embedding("cifar10", corpus[i])) << i;
  }
}

TEST(Registry, BatchEmbeddingsRejectNull) {
  GhnRegistry reg;
  Rng rng(15);
  reg.put("cifar10", std::make_unique<Ghn2>(small_config(), rng));
  ThreadPool pool(2);
  std::vector<const graph::CompGraph*> ptrs{nullptr};
  EXPECT_THROW(reg.embeddings("cifar10", ptrs, pool), Error);
}

TEST(Registry, TrainAndRegisterProducesUsableModel) {
  GhnRegistry reg;
  TrainerConfig tc;
  tc.corpus_size = 8;
  tc.epochs = 3;
  tc.batch_size = 4;
  tc.darts.input = {3, 16, 16};
  tc.darts.max_cells = 3;
  ThreadPool pool(4);
  TrainReport rep = reg.train_and_register("tiny_imagenet", small_config(), tc, pool);
  EXPECT_EQ(rep.epoch_losses.size(), 3u);
  EXPECT_TRUE(reg.has_model("tiny_imagenet"));
  EXPECT_NE(reg.model("tiny_imagenet"), nullptr);
  Vector e = reg.embedding("tiny_imagenet", tiny_graph());
  EXPECT_EQ(e.size(), 16u);
}

// FNV-1a (64-bit) over the bit patterns of a vector of doubles.
std::uint64_t fnv1a_bits(const Vector& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double x : v) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(Trainer, GoldenTrainedChecksumsStayPinned) {
  // Golden fixture recorded once: the trained GHN of each dataset at a small
  // fixed-seed config (the PredictDdl::ensure_ghn recipe: a DARTS corpus at
  // the dataset's resolution and class count, default GhnConfig), plus the
  // f64 embedding of resnet18 under the cifar10 GHN.  Training is meant to
  // be bit-reproducible at every kernel dispatch level, so every literal is
  // exact; a change to the training tape that moves one changed the
  // arithmetic, not just its speed.
  struct Golden {
    const char* dataset;
    std::uint64_t checksum;
  };
  const std::vector<Golden> golden = {
      {"cifar10", 0x157b030aff94a0b2ull},
      {"tiny_imagenet", 0xbe51320f18576cbfull},
      {"wikitext103", 0x25e49e4f93c5c2cdull},
  };
  GhnRegistry reg;
  ThreadPool pool(4);
  for (const Golden& g : golden) {
    const workload::DatasetDescriptor ds = workload::dataset_by_name(g.dataset);
    TrainerConfig tc;
    tc.corpus_size = 8;
    tc.epochs = 3;
    tc.seed = 1;
    tc.darts.input = ds.input;
    tc.darts.num_classes = ds.num_classes;
    reg.train_and_register(g.dataset, GhnConfig{}, tc, pool);
    EXPECT_EQ(reg.model_checksum(g.dataset), g.checksum) << g.dataset;
  }
  const Vector e = reg.embedding(
      "cifar10", graph::build_model("resnet18", {3, 32, 32}, 10));
  ASSERT_EQ(e.size(), 32u);
  EXPECT_EQ(fnv1a_bits(e), 0x0e370c73ddac60fdull);
}

class PassesProperty : public ::testing::TestWithParam<int> {};

TEST_P(PassesProperty, MorePassesStillFiniteAndDeterministic) {
  GhnConfig c = small_config();
  c.num_passes = GetParam();
  Rng rng(20);
  Ghn2 ghn(c, rng);
  Vector a = ghn.embedding(tiny_graph());
  Vector b = ghn.embedding(tiny_graph());
  EXPECT_EQ(a, b);
  for (double v : a) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(Passes, PassesProperty, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace pddl::ghn
