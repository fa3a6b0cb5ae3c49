#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <tuple>

#include "graph/builder.hpp"
#include "graph/comp_graph.hpp"
#include "graph/darts.hpp"
#include "graph/models.hpp"
#include "graph/models_extended.hpp"
#include "graph/models_transformer.hpp"

namespace pddl::graph {
namespace {

TEST(OpType, NamesAreStableAndDistinct) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < kNumOpTypes; ++i) {
    names.insert(op_name(static_cast<OpType>(i)));
  }
  EXPECT_EQ(names.size(), kNumOpTypes);
  EXPECT_EQ(op_name(OpType::kConv), "conv");
  EXPECT_EQ(op_name(OpType::kBatchNorm), "batch_norm");
}

TEST(OpType, Classification) {
  EXPECT_TRUE(op_is_conv(OpType::kDepthwiseConv));
  EXPECT_FALSE(op_is_conv(OpType::kLinear));
  EXPECT_TRUE(op_is_activation(OpType::kHardSwish));
  EXPECT_FALSE(op_is_activation(OpType::kAdd));
  EXPECT_TRUE(op_has_params(OpType::kBatchNorm));
  EXPECT_FALSE(op_has_params(OpType::kMaxPool));
}

TEST(CompGraph, FirstNodeMustBeInput) {
  CompGraph g("bad");
  CompGraph::Node n;
  n.type = OpType::kConv;
  EXPECT_THROW(g.add_node(n, {}), Error);
}

TEST(CompGraph, EdgesMustPointBackward) {
  CompGraph g("bad");
  CompGraph::Node in;
  in.type = OpType::kInput;
  g.add_node(in, {});
  CompGraph::Node c;
  c.type = OpType::kConv;
  EXPECT_THROW(g.add_node(c, {5}), Error);  // forward reference
}

TEST(GraphBuilder, ShapePropagationThroughConvAndPool) {
  GraphBuilder b("t", {3, 32, 32});
  int x = b.conv(b.input(), 64, 3, 1);
  EXPECT_EQ(b.shape(x), (TensorShape{64, 32, 32}));
  x = b.conv(x, 128, 3, 2);
  EXPECT_EQ(b.shape(x), (TensorShape{128, 16, 16}));
  x = b.max_pool(x, 2, 2);
  EXPECT_EQ(b.shape(x), (TensorShape{128, 8, 8}));
  x = b.global_avg_pool(x);
  EXPECT_EQ(b.shape(x), (TensorShape{128, 1, 1}));
}

TEST(GraphBuilder, ConvParamAndFlopFormulas) {
  GraphBuilder b("t", {3, 32, 32});
  int x = b.conv(b.input(), 64, 3, 1);
  // params = 3·3·3·64; flops = 2·3·3·3·(64·32·32).
  GraphBuilder b2("t2", {3, 32, 32});
  (void)b2;
  CompGraph g = std::move(b).finish(10);
  EXPECT_EQ(g.node(x).params, 3 * 3 * 3 * 64);
  EXPECT_EQ(g.node(x).flops, 2LL * 3 * 3 * 3 * 64 * 32 * 32);
}

TEST(GraphBuilder, DepthwiseUsesPerChannelParams) {
  GraphBuilder b("t", {32, 16, 16});
  int x = b.depthwise_conv(b.input(), 3, 1);
  CompGraph g = std::move(b).finish(10);
  EXPECT_EQ(g.node(x).params, 3 * 3 * 32);
  EXPECT_EQ(g.node(x).attrs.groups, 32);
}

TEST(GraphBuilder, GroupConvDividesParams) {
  GraphBuilder b("t", {64, 8, 8});
  int x = b.group_conv(b.input(), 64, 3, 1, 4);
  CompGraph g = std::move(b).finish(10);
  EXPECT_EQ(g.node(x).params, 3 * 3 * (64 / 4) * 64);
}

TEST(GraphBuilder, AddRequiresMatchingShapes) {
  GraphBuilder b("t", {3, 8, 8});
  int a = b.conv(b.input(), 16, 3, 1);
  int c = b.conv(b.input(), 32, 3, 1);
  EXPECT_THROW(b.add({a, c}), Error);
}

TEST(GraphBuilder, ConcatSumsChannels) {
  GraphBuilder b("t", {3, 8, 8});
  int a = b.conv(b.input(), 16, 3, 1);
  int c = b.conv(b.input(), 32, 3, 1);
  int d = b.concat({a, c});
  EXPECT_EQ(b.shape(d).c, 48);
}

TEST(GraphBuilder, FinishAppendsHeadAndValidates) {
  GraphBuilder b("t", {3, 16, 16});
  int x = b.conv_bn_relu(b.input(), 32, 3, 2);
  (void)x;
  CompGraph g = std::move(b).finish(10);
  const auto& last = g.node(static_cast<int>(g.num_nodes()) - 1);
  EXPECT_EQ(last.type, OpType::kSoftmax);
  EXPECT_EQ(last.out_shape.c, 10);
}

TEST(CompGraph, NodeFeaturesOneHotPlusScalars) {
  GraphBuilder b("t", {3, 8, 8});
  b.conv(b.input(), 8, 3, 1);
  CompGraph g = std::move(b).finish(4);
  Matrix h0 = g.node_features();
  EXPECT_EQ(h0.cols(), CompGraph::kNodeFeatureDim);
  // Node 1 is the conv: its one-hot must fire exactly at kConv.
  for (std::size_t c = 0; c < kNumOpTypes; ++c) {
    const double expect =
        (c == static_cast<std::size_t>(OpType::kConv)) ? 1.0 : 0.0;
    EXPECT_DOUBLE_EQ(h0(1, c), expect);
  }
}

// for_each_virtual_edge against a brute-force oracle: full (uncapped) BFS
// from every node, then an s-major, t-minor scan of the hop matrix — the
// (source, target, hops) sequence GHN-2's Eq. 4 lists are built from, order
// included.
TEST(CompGraph, VirtualEdgesMatchAllPairsBfs) {
  std::vector<CompGraph> graphs;
  for (const auto& m : model_registry()) graphs.push_back(m.build({3, 32, 32}, 10));
  for (const auto& m : transformer_model_registry()) {
    graphs.push_back(m.build({1, 128, 1}, 1000));
  }
  for (CompGraph& g : sample_darts_corpus(4, 11)) graphs.push_back(std::move(g));

  using Edge = std::tuple<int, int, int>;
  for (const CompGraph& g : graphs) {
    const int n = static_cast<int>(g.num_nodes());
    std::vector<std::vector<int>> hops(static_cast<std::size_t>(n),
                                       std::vector<int>(static_cast<std::size_t>(n), -1));
    for (int s = 0; s < n; ++s) {
      auto& row = hops[static_cast<std::size_t>(s)];
      row[static_cast<std::size_t>(s)] = 0;
      std::deque<int> q{s};
      while (!q.empty()) {
        const int u = q.front();
        q.pop_front();
        for (int v : g.out_edges(u)) {
          if (row[static_cast<std::size_t>(v)] < 0) {
            row[static_cast<std::size_t>(v)] = row[static_cast<std::size_t>(u)] + 1;
            q.push_back(v);
          }
        }
      }
    }
    std::vector<int> dist(static_cast<std::size_t>(n), -1);
    std::vector<int> queue(static_cast<std::size_t>(n));
    for (int s_max = 2; s_max <= 5; ++s_max) {
      std::vector<Edge> expect, got;
      for (int s = 0; s < n; ++s) {
        for (int t = 0; t < n; ++t) {
          const int d = hops[static_cast<std::size_t>(s)][static_cast<std::size_t>(t)];
          if (d > 1 && d <= s_max) expect.emplace_back(s, t, d);
        }
      }
      for_each_virtual_edge(g, s_max, dist.data(), queue.data(),
                            [&](int s, int t, int d) { got.emplace_back(s, t, d); });
      EXPECT_EQ(got, expect) << g.name() << " s_max=" << s_max;
      EXPECT_TRUE(std::all_of(dist.begin(), dist.end(), [](int d) { return d == -1; }))
          << g.name() << ": dist scratch not restored";
    }
  }
}

TEST(CompGraph, DepthOfLinearChain) {
  GraphBuilder b("t", {3, 8, 8});
  int x = b.conv(b.input(), 8, 3, 1);
  x = b.relu(x);
  (void)x;
  CompGraph g = std::move(b).finish(4);
  // input, conv, relu, gap, flatten, linear, softmax = 7 nodes in a chain.
  EXPECT_EQ(g.depth(), 7);
  EXPECT_EQ(g.num_nodes(), 7u);
}

TEST(Models, RegistryHasExactly31Models) {
  EXPECT_EQ(model_registry().size(), 31u);
  std::set<std::string> names;
  for (const auto& m : model_registry()) names.insert(m.name);
  EXPECT_EQ(names.size(), 31u) << "duplicate model names";
}

TEST(Models, LookupWorks) {
  EXPECT_TRUE(has_model("resnet18"));
  EXPECT_TRUE(has_model("efficientnet_b0"));
  EXPECT_FALSE(has_model("resnet1000"));
  EXPECT_THROW(build_model("resnet1000", {3, 32, 32}, 10), Error);
}

TEST(Models, ParameterCountsInExpectedRanges) {
  // Sanity-check against published ImageNet-head param counts (our heads use
  // 10 classes, so totals are smaller, but the backbone ordering must hold).
  const TensorShape in{3, 64, 64};
  const auto p = [&](const std::string& n) {
    return build_model(n, in, 200).total_params();
  };
  const auto resnet18 = p("resnet18");
  const auto resnet50 = p("resnet50");
  const auto resnet152 = p("resnet152");
  const auto mobilenet = p("mobilenet_v3_small");
  const auto vgg16 = p("vgg16");
  EXPECT_LT(mobilenet, resnet18);
  EXPECT_LT(resnet18, resnet50);
  EXPECT_LT(resnet50, resnet152);
  EXPECT_GT(vgg16, resnet50);  // VGG's FC layers dominate
  // ResNet-18 backbone ≈ 11.2M params.
  EXPECT_GT(resnet18, 10'000'000);
  EXPECT_LT(resnet18, 13'000'000);
}

TEST(Models, FlopsOrderingMatchesComplexity) {
  const TensorShape in{3, 32, 32};
  const auto f = [&](const std::string& n) {
    return build_model(n, in, 10).total_flops();
  };
  EXPECT_LT(f("mobilenet_v3_small"), f("mobilenet_v3_large"));
  EXPECT_LT(f("resnet18"), f("resnet34"));
  EXPECT_LT(f("efficientnet_b0"), f("efficientnet_b3"));
  EXPECT_LT(f("shufflenet_v2_x0_5"), f("shufflenet_v2_x1_0"));
  EXPECT_LT(f("vgg11"), f("vgg19"));
}

class AllModelsValidate : public ::testing::TestWithParam<std::string> {};

TEST_P(AllModelsValidate, BuildsAndValidatesOnCifarShape) {
  CompGraph g = build_model(GetParam(), {3, 32, 32}, 10);
  EXPECT_NO_THROW(g.validate());
  EXPECT_GT(g.num_nodes(), 10u);
  EXPECT_GT(g.total_params(), 0);
  EXPECT_GT(g.total_flops(), 0);
  // The sink must be the softmax over classes.
  const auto& sink = g.node(static_cast<int>(g.num_nodes()) - 1);
  EXPECT_EQ(sink.type, OpType::kSoftmax);
  EXPECT_EQ(sink.out_shape.c, 10);
}

TEST_P(AllModelsValidate, BuildsOnTinyImagenetShape) {
  CompGraph g = build_model(GetParam(), {3, 64, 64}, 200);
  EXPECT_NO_THROW(g.validate());
  const auto& sink = g.node(static_cast<int>(g.num_nodes()) - 1);
  EXPECT_EQ(sink.out_shape.c, 200);
  // 64×64 inputs cost more FLOPs than 32×32 on the same architecture.
  CompGraph small = build_model(GetParam(), {3, 32, 32}, 200);
  EXPECT_GT(g.total_flops(), small.total_flops());
}

INSTANTIATE_TEST_SUITE_P(
    Registry, AllModelsValidate, ::testing::ValuesIn([] {
      std::vector<std::string> names;
      for (const auto& m : model_registry()) names.push_back(m.name);
      return names;
    }()));

TEST(ExtendedModels, FiveModelsInThreeNewFamilies) {
  const auto& ext = extended_model_registry();
  EXPECT_EQ(ext.size(), 5u);
  std::set<std::string> families;
  for (const auto& m : ext) {
    families.insert(m.family);
    // None of these families exists in the paper's 31-model registry.
    for (const auto& base : model_registry()) {
      EXPECT_NE(base.family, m.family) << m.name;
      EXPECT_NE(base.name, m.name);
    }
  }
  EXPECT_EQ(families.size(), 3u);
}

class ExtendedModelsValidate : public ::testing::TestWithParam<std::string> {};

TEST_P(ExtendedModelsValidate, BuildsOnBothResolutions) {
  for (const auto& m : extended_model_registry()) {
    if (m.name != GetParam()) continue;
    for (const auto& [shape, classes] :
         std::vector<std::pair<TensorShape, int>>{{{3, 32, 32}, 10},
                                                  {{3, 64, 64}, 200}}) {
      const CompGraph g = m.build(shape, classes);
      EXPECT_NO_THROW(g.validate());
      EXPECT_GT(g.total_params(), 0);
      EXPECT_GT(g.total_flops(), 0);
      EXPECT_EQ(g.node(static_cast<int>(g.num_nodes()) - 1).out_shape.c,
                classes);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Extended, ExtendedModelsValidate, ::testing::ValuesIn([] {
      std::vector<std::string> names;
      for (const auto& m : extended_model_registry()) names.push_back(m.name);
      return names;
    }()));

TEST(ExtendedModels, ScalingRelationsHold) {
  const TensorShape in{3, 32, 32};
  EXPECT_LT(build_mnasnet(0.5, in, 10).total_flops(),
            build_mnasnet(1.0, in, 10).total_flops());
  // RegNet-Y adds SE parameters over RegNet-X at similar width.
  EXPECT_GT(build_regnet_400mf(true, in, 10).op_type_histogram()
                [static_cast<std::size_t>(OpType::kMul)],
            0.0);
}

TEST(Darts, SamplesValidateAndVary) {
  auto corpus = sample_darts_corpus(20, 42);
  ASSERT_EQ(corpus.size(), 20u);
  std::set<std::size_t> sizes;
  for (const auto& g : corpus) {
    EXPECT_NO_THROW(g.validate());
    sizes.insert(g.num_nodes());
  }
  // Random generator should produce diverse graph sizes.
  EXPECT_GT(sizes.size(), 5u);
}

TEST(Darts, DeterministicForSeed) {
  auto a = sample_darts_corpus(5, 7);
  auto b = sample_darts_corpus(5, 7);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(a[i].num_nodes(), b[i].num_nodes());
    EXPECT_EQ(a[i].total_params(), b[i].total_params());
    EXPECT_EQ(a[i].total_flops(), b[i].total_flops());
  }
}

// ---- transformer families (models_transformer.hpp) ----

TEST(TransformerModels, RegistryHasTwoFamiliesAtFourPlusScales) {
  const auto& reg = transformer_model_registry();
  EXPECT_EQ(reg.size(), 9u);
  std::map<std::string, int> scales;
  for (const auto& m : reg) {
    ++scales[m.family];
    // Names and families stay disjoint from the paper-pinned 31-model set.
    for (const auto& base : model_registry()) {
      EXPECT_NE(base.name, m.name);
      EXPECT_NE(base.family, m.family) << m.name;
    }
    // The shared lookup helpers search both registries.
    EXPECT_TRUE(has_model(m.name));
    EXPECT_EQ(model_family(m.name), m.family);
  }
  ASSERT_EQ(scales.size(), 2u);
  EXPECT_GE(scales["bert"], 4);
  EXPECT_GE(scales["gpt"], 4);
}

class TransformerModelsValidate : public ::testing::TestWithParam<std::string> {
};

TEST_P(TransformerModelsValidate, BuildsOnTokenStreamShape) {
  CompGraph g = build_model(GetParam(), {1, 128, 1}, 1000);
  EXPECT_NO_THROW(g.validate());
  EXPECT_GT(g.total_params(), 0);
  EXPECT_GT(g.total_flops(), 0);
  // The op inventory is transformer-shaped: embedding stem and attention
  // matmuls present, no convolutions anywhere.
  const Vector hist = g.op_type_histogram();
  EXPECT_GT(hist[static_cast<std::size_t>(OpType::kEmbedding)], 0.0);
  EXPECT_GT(hist[static_cast<std::size_t>(OpType::kAttentionMatmul)], 0.0);
  EXPECT_GT(hist[static_cast<std::size_t>(OpType::kLayerNorm)], 0.0);
  EXPECT_EQ(hist[static_cast<std::size_t>(OpType::kConv)], 0.0);
  EXPECT_EQ(hist[static_cast<std::size_t>(OpType::kBatchNorm)], 0.0);
  const auto& sink = g.node(static_cast<int>(g.num_nodes()) - 1);
  EXPECT_EQ(sink.type, OpType::kSoftmax);
  EXPECT_EQ(sink.out_shape.c, 1000);
}

INSTANTIATE_TEST_SUITE_P(
    Transformers, TransformerModelsValidate, ::testing::ValuesIn([] {
      std::vector<std::string> names;
      for (const auto& m : transformer_model_registry()) {
        names.push_back(m.name);
      }
      return names;
    }()));

TEST(TransformerModels, ScalesOrderByFlops) {
  const TensorShape tokens{1, 128, 1};
  const auto f = [&](const std::string& n) {
    return build_model(n, tokens, 2048).total_flops();
  };
  EXPECT_LT(f("bert_tiny"), f("bert_mini"));
  EXPECT_LT(f("bert_mini"), f("bert_small"));
  EXPECT_LT(f("bert_small"), f("bert_medium"));
  EXPECT_LT(f("bert_medium"), f("bert_base"));
  EXPECT_LT(f("gpt_tiny"), f("gpt_mini"));
  EXPECT_LT(f("gpt_mini"), f("gpt_medium"));
  EXPECT_LT(f("gpt_medium"), f("gpt2"));
}

TEST(TransformerModels, DecoderLmHeadOutweighsPooledClassifier) {
  // Same trunk scale (L12 d768, h12): the GPT head projects every token onto
  // the full vocabulary while BERT pools the sequence to one classifier row,
  // so at a real vocabulary size the decoder costs strictly more.
  const TensorShape tokens{1, 128, 1};
  const CompGraph bert = build_model("bert_base", tokens, 32768);
  const CompGraph gpt = build_model("gpt2", tokens, 32768);
  EXPECT_GT(gpt.total_params(), bert.total_params());
  EXPECT_GT(gpt.total_flops(), bert.total_flops());
}

TEST(Darts, RespectsInputConfig) {
  DartsConfig cfg;
  cfg.input = {3, 64, 64};
  cfg.num_classes = 200;
  Rng rng(1);
  CompGraph g = sample_darts_architecture(rng, cfg);
  EXPECT_EQ(g.node(0).out_shape, (TensorShape{3, 64, 64}));
  const auto& sink = g.node(static_cast<int>(g.num_nodes()) - 1);
  EXPECT_EQ(sink.out_shape.c, 200);
}

}  // namespace
}  // namespace pddl::graph
