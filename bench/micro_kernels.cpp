// google-benchmark microbenchmarks for the hot kernels: where the wall-clock
// of the offline pipeline and of a prediction request actually goes.
//
// Besides the google-benchmark suite, `--pddl-csv` regenerates the
// committed bench_results/micro_embed{,_batch}.csv series with the
// bench_common min-of-N steady_clock harness (mean + min per row, dispatch
// level stamped on every row) — the numbers README.md's before/after table
// quotes.
#include <benchmark/benchmark.h>

#include <string_view>

#include "bench_common.hpp"
#include "core/features.hpp"
#include "ghn/ghn2.hpp"
#include "ghn/infer.hpp"
#include "ghn/trainer.hpp"
#include "graph/darts.hpp"
#include "graph/models.hpp"
#include "io/binary.hpp"
#include "regress/linear.hpp"
#include "regress/log_target.hpp"
#include "reuse/reuse_index.hpp"
#include "rpc/wire.hpp"
#include "simulator/ddl_simulator.hpp"
#include "tensor/linalg.hpp"
#include "tensor/nnls.hpp"

namespace {

using namespace pddl;

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = Matrix::randn(n, n, rng);
  const Matrix b = Matrix::randn(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          n * n * n);
}
// 32/128 exercise the small i-k-j path, 256/512 the cache-blocked one.
BENCHMARK(BM_Matmul)->Arg(32)->Arg(128)->Arg(256)->Arg(512);

void BM_CholeskySolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  Matrix a = Matrix::randn(n, n, rng);
  Matrix spd = matmul(a.transposed(), a);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += n;
  Vector b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cholesky_solve(spd, b));
  }
}
BENCHMARK(BM_CholeskySolve)->Arg(64)->Arg(256);

void BM_Nnls(benchmark::State& state) {
  Rng rng(3);
  const Matrix a = Matrix::randn(100, 8, rng);
  Vector coef(8, 1.0);
  const Vector b = matvec(a, coef);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nnls(a, b));
  }
}
BENCHMARK(BM_Nnls);

void BM_BuildGraph(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::build_model("densenet201", {3, 32, 32}, 10));
  }
}
BENCHMARK(BM_BuildGraph);

// One representative per registry model family, shared by the tape/fast
// embedding benchmarks below so speedups are directly comparable per line.
constexpr const char* kEmbedModels[] = {
    "alexnet",         "vgg16",      "resnet50",        "resnext50_32x4d",
    "wide_resnet50_2", "densenet201", "squeezenet1_1",  "mobilenet_v2",
    "efficientnet_b0", "shufflenet_v2_x1_0", "googlenet"};
constexpr int kNumEmbedModels =
    static_cast<int>(sizeof(kEmbedModels) / sizeof(kEmbedModels[0]));

// Baseline: the autograd-tape path (Ghn2::embedding) — what serving paid
// before the tape-free engine landed.
void BM_Embed_Tape(benchmark::State& state) {
  ghn::GhnConfig cfg;
  Rng rng(4);
  ghn::Ghn2 ghn(cfg, rng);
  const auto g = graph::build_model(
      kEmbedModels[static_cast<std::size_t>(state.range(0))], {3, 32, 32}, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ghn.embedding(g));
  }
  state.SetLabel(g.name() + " (" + std::to_string(g.num_nodes()) + " nodes)");
}
BENCHMARK(BM_Embed_Tape)->DenseRange(0, kNumEmbedModels - 1);

// The serving hot path: tape-free GhnInference with memoized messages,
// batched GEMM node updates, a warm per-thread scratch arena, and — as of
// the precision plumbing — the f32 engine the serving CLIs default to
// (SIMD-dispatched single-precision kernels + fast transcendentals).
void BM_Embed_Fast(benchmark::State& state) {
  ghn::GhnConfig cfg;
  Rng rng(4);
  ghn::Ghn2 ghn(cfg, rng);
  ghn::GhnInference inf(ghn, ghn::Precision::kF32);
  const auto g = graph::build_model(
      kEmbedModels[static_cast<std::size_t>(state.range(0))], {3, 32, 32}, 10);
  Vector out;
  inf.embed_into(g, out);  // warm the arena outside the timed loop
  for (auto _ : state) {
    inf.embed_into(g, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(g.name() + " (" + std::to_string(g.num_nodes()) + " nodes)");
}
BENCHMARK(BM_Embed_Fast)->DenseRange(0, kNumEmbedModels - 1);

// One GHN training step on one graph: the work GhnTrainer runs per corpus
// graph (tape forward through the GHN and the complexity head, MSE loss,
// reverse sweep, one gradient per parameter).  A seeded DARTS graph at the
// CIFAR-10 resolution, default GhnConfig, as in the offline stand-up.
void BM_GhnTrainStep(benchmark::State& state) {
  Rng rng(8);
  ghn::Ghn2 ghn(ghn::GhnConfig{}, rng);
  nn::Linear head(ghn.config().hidden_dim, ghn::kNumTargets, rng);
  std::vector<Matrix*> params = ghn.parameters();
  for (Matrix* p : head.parameters()) params.push_back(p);
  const graph::CompGraph g = graph::sample_darts_corpus(1, 8, {}).front();
  const Matrix target = Matrix::row_vector(ghn::complexity_targets(g));
  std::vector<Matrix> grads;
  for (auto _ : state) {
    nn::Ctx ctx;
    ag::Var pred = head.forward(ctx, ghn.embed(ctx, g));
    ag::Var loss = ag::mse(pred, ctx.constant(target));
    ctx.backward(loss);
    grads.clear();
    for (Matrix* p : params) grads.push_back(ctx.grad(*p));
    benchmark::DoNotOptimize(grads.data());
  }
  state.SetLabel(std::to_string(g.num_nodes()) + " nodes");
}
BENCHMARK(BM_GhnTrainStep)->Unit(benchmark::kMillisecond);

// One reuse-index probe against a full dataset partition (the default
// ReuseConfig::max_entries = 4096), to read next to BM_Embed_Fast: the
// ReuseCostModel lets a cache miss probe only while a probe is at least
// min_advantage (4x) cheaper than a fresh embed, so these two lines are the
// measured case for keeping it.  Donors are jittered copies of the query's
// own signature, so every entry passes the prefilter and is scored.
void BM_ReuseProbe(benchmark::State& state) {
  reuse::ReuseConfig cfg;
  cfg.enabled = true;
  reuse::ReuseIndex index(cfg);
  const auto g = graph::build_model("squeezenet1_1", {3, 32, 32}, 10);
  const reuse::StructuralSignature sig = reuse::make_signature(g);
  const Vector embedding(ghn::GhnConfig{}.hidden_dim, 0.5);
  Rng rng(5);
  for (std::size_t i = 0; i < cfg.max_entries; ++i) {
    reuse::StructuralSignature donor = sig;
    donor.nodes += static_cast<std::uint32_t>(rng.uniform_int(8));
    donor.op_counts[rng.uniform_int(graph::kNumOpTypes)] +=
        static_cast<std::uint32_t>(rng.uniform_int(4));
    index.insert("cifar10", /*ghn_checksum=*/1, /*fp=*/i + 1, donor,
                 embedding);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.probe("cifar10", 1, /*fp=*/0, sig));
  }
  state.SetLabel(std::to_string(index.size()) + " entries");
}
BENCHMARK(BM_ReuseProbe);

// Ablation: the same tape-free engine at f64 — the ≤1e-9 tape-parity
// oracle.  The gap to BM_Embed_Fast is the price of exactness: double the
// GEMM bandwidth, half the SIMD lanes, libm exp/tanh.
void BM_Embed_FastF64(benchmark::State& state) {
  ghn::GhnConfig cfg;
  Rng rng(4);
  ghn::Ghn2 ghn(cfg, rng);
  ghn::GhnInference inf(ghn, ghn::Precision::kF64);
  const auto g = graph::build_model(
      kEmbedModels[static_cast<std::size_t>(state.range(0))], {3, 32, 32}, 10);
  Vector out;
  inf.embed_into(g, out);  // warm the arena outside the timed loop
  for (auto _ : state) {
    inf.embed_into(g, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(g.name() + " (" + std::to_string(g.num_nodes()) + " nodes)");
}
BENCHMARK(BM_Embed_FastF64)->DenseRange(0, kNumEmbedModels - 1);

// Batched multi-graph embedding: one embed_batch_into pass over `width`
// copies of the same mid-sized graph (resnet50), so items/s is directly
// comparable across widths — the gain over width 1 is the per-graph saving
// from fusing the embed-layer and gate GEMMs and sharing weight traffic
// across the micro-batch.
void BM_EmbedBatch(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  ghn::GhnConfig cfg;
  Rng rng(4);
  ghn::Ghn2 ghn(cfg, rng);
  ghn::GhnInference inf(ghn, ghn::Precision::kF32);
  std::vector<graph::CompGraph> graphs;
  graphs.reserve(width);
  for (std::size_t i = 0; i < width; ++i) {
    graphs.push_back(graph::build_model("resnet50", {3, 32, 32}, 10));
  }
  std::vector<const graph::CompGraph*> gs(width);
  std::vector<Vector> outs(width);
  std::vector<Vector*> ops(width);
  for (std::size_t i = 0; i < width; ++i) {
    gs[i] = &graphs[i];
    ops[i] = &outs[i];
  }
  inf.embed_batch_into(std::span<const graph::CompGraph* const>(gs),
                       std::span<Vector* const>(ops));  // warm the arena
  for (auto _ : state) {
    inf.embed_batch_into(std::span<const graph::CompGraph* const>(gs),
                         std::span<Vector* const>(ops));
    benchmark::DoNotOptimize(outs.front().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(width));
  std::size_t nodes = 0;
  for (const auto& g : graphs) nodes += g.num_nodes();
  state.SetLabel(std::to_string(width) + " graphs, " + std::to_string(nodes) +
                 " nodes total");
}
BENCHMARK(BM_EmbedBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_SimulateRun(benchmark::State& state) {
  sim::DdlSimulator sim;
  const workload::DlWorkload w{"resnet50", workload::cifar10(), 64, 10};
  const auto g = w.build_graph();
  const auto cluster = cluster::make_uniform_cluster("p100", 8);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(w, g, cluster, rng));
  }
}
BENCHMARK(BM_SimulateRun);

void BM_PolyFit(benchmark::State& state) {
  Rng rng(6);
  regress::RegressionData d;
  d.x = Matrix::randn(static_cast<std::size_t>(state.range(0)), 47, rng);
  d.y.resize(d.x.rows());
  for (std::size_t i = 0; i < d.y.size(); ++i) {
    d.y[i] = std::exp(d.x(i, 0));
  }
  for (auto _ : state) {
    regress::LogTargetRegressor pr(
        std::make_unique<regress::PolynomialRegression>());
    pr.fit(d);
    benchmark::DoNotOptimize(pr);
  }
}
BENCHMARK(BM_PolyFit)->Arg(500)->Arg(2000);

// The stand-up ridge fit at its real shape: the paper's log-target
// degree-2 regressor on 1240 rows of 50 features, i.e. a 1325-wide
// expansion, so the time is the Gram matrix plus a 1325×1325 Cholesky.
void BM_RidgeFit(benchmark::State& state) {
  Rng rng(9);
  regress::RegressionData d;
  d.x = Matrix::randn(1240, 50, rng);
  d.y.resize(d.x.rows());
  for (std::size_t i = 0; i < d.y.size(); ++i) {
    d.y[i] = std::exp(d.x(i, 0));
  }
  for (auto _ : state) {
    regress::LogTargetRegressor pr(
        std::make_unique<regress::PolynomialRegression>());
    pr.fit(d);
    benchmark::DoNotOptimize(pr);
  }
}
BENCHMARK(BM_RidgeFit)->Unit(benchmark::kMillisecond);

// One serving-path regressor call: the log-target degree-2 model with
// interactions over 50 features (32 embedding, 10 cluster, 8 workload),
// fitted on 600 rows.
void BM_PolyPredict(benchmark::State& state) {
  Rng rng(7);
  regress::RegressionData d;
  d.x = Matrix::randn(600, 50, rng);
  d.y.resize(d.x.rows());
  for (std::size_t i = 0; i < d.y.size(); ++i) {
    d.y[i] = std::exp(d.x(i, 0));
  }
  regress::LogTargetRegressor pr(
      std::make_unique<regress::PolynomialRegression>());
  pr.fit(d);
  const Vector row = d.x.row(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pr.predict(row));
  }
}
BENCHMARK(BM_PolyPredict);

// CRC-32 over an in-memory buffer: every rpc frame and snapshot pays one
// pass per side.
void BM_Crc32(benchmark::State& state) {
  std::string bytes(static_cast<std::size_t>(state.range(0)), '\0');
  Rng rng(8);
  for (char& c : bytes) c = static_cast<char>(rng.uniform_int(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        io::crc32_update(0xffffffffu, bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32)->Arg(1 << 10)->Arg(64 << 10);

// The rpc codec on a scheduler-sized frame: encode then decode one
// 24-request predict_batch frame (clusters of 4/8/16 servers), reported per
// prediction.
void BM_WirePredictBatch(benchmark::State& state) {
  const char* models[] = {"resnet18", "vgg11", "mobilenet_v3_small",
                          "densenet121"};
  const int servers[] = {4, 8, 16};
  rpc::Request req;
  req.op = rpc::Op::kPredictBatch;
  req.deadline_ms = 250.0;
  for (int i = 0; i < 24; ++i) {
    core::PredictRequest r;
    r.workload = {models[i % 4], workload::cifar10(), 64, 10};
    r.cluster = cluster::make_uniform_cluster("p100", servers[i % 3]);
    req.reqs.push_back(std::move(r));
  }
  std::size_t frame_bytes = 0;
  for (auto _ : state) {
    const std::string frame = rpc::encode_frame(rpc::encode_request(req));
    frame_bytes = frame.size();
    benchmark::DoNotOptimize(rpc::decode_request(rpc::decode_frame(frame)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(req.reqs.size()));
  // Seconds per prediction (the inverse of items_per_second).
  state.counters["s_per_pred"] = benchmark::Counter(
      static_cast<double>(req.reqs.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.counters["frame_bytes"] = static_cast<double>(frame_bytes);
}
BENCHMARK(BM_WirePredictBatch);

// --pddl-csv: regenerate the committed micro_embed CSV series directly
// (bench_common harness, not google-benchmark): per model one row of
//   tape_ms      mean autograd-tape embed (Ghn2::embedding)
//   fast_f64_ms  mean tape-free f64 embed (the parity oracle)
//   fast_ms      mean tape-free f32 embed — the serving default, and the
//                column the README before/after table and the ≥3×-vs-PR5
//                acceptance gate read
//   fast_min_ms  min-of-N of the f32 embed (noise floor)
//   speedup      tape_ms / fast_ms
// plus the batch-width sweep (resnet50 × 1/2/4/8, f32).  emit() stamps the
// dispatch level on every row.
int pddl_csv_main() {
  ghn::GhnConfig cfg;
  Rng rng(4);
  ghn::Ghn2 ghn(cfg, rng);
  ghn::GhnInference f64(ghn, ghn::Precision::kF64);
  ghn::GhnInference f32(ghn, ghn::Precision::kF32);

  Table table({"model", "nodes", "tape_ms", "fast_f64_ms", "fast_ms",
               "fast_min_ms", "speedup"});
  for (int i = 0; i < kNumEmbedModels; ++i) {
    const auto g = graph::build_model(kEmbedModels[i], {3, 32, 32}, 10);
    Vector out;
    const bench::TimingStats tape =
        bench::time_min_of(5, [&] { benchmark::DoNotOptimize(ghn.embedding(g)); });
    f64.embed_into(g, out);  // warm the arena outside the timed reps
    const bench::TimingStats fast64 =
        bench::time_min_of(20, [&] { f64.embed_into(g, out); });
    f32.embed_into(g, out);
    const bench::TimingStats fast32 =
        bench::time_min_of(20, [&] { f32.embed_into(g, out); });
    table.row()
        .add(std::string(kEmbedModels[i]))
        .add(g.num_nodes())
        .add(tape.mean_ms, 3)
        .add(fast64.mean_ms, 3)
        .add(fast32.mean_ms, 3)
        .add(fast32.min_ms, 3)
        .add(tape.mean_ms / fast32.mean_ms, 2);
  }
  bench::emit(table, "tape vs tape-free embedding (per model)",
              "micro_embed.csv");

  Table batch({"width", "nodes_total", "ms_per_pass", "ms_per_graph",
               "per_graph_speedup"});
  double base_ms = 0.0;
  for (const std::size_t width : {1u, 2u, 4u, 8u}) {
    std::vector<graph::CompGraph> graphs;
    graphs.reserve(width);
    for (std::size_t i = 0; i < width; ++i) {
      graphs.push_back(graph::build_model("resnet50", {3, 32, 32}, 10));
    }
    std::vector<const graph::CompGraph*> gs(width);
    std::vector<Vector> outs(width);
    std::vector<Vector*> ops(width);
    for (std::size_t i = 0; i < width; ++i) {
      gs[i] = &graphs[i];
      ops[i] = &outs[i];
    }
    auto run = [&] {
      f32.embed_batch_into(std::span<const graph::CompGraph* const>(gs),
                           std::span<Vector* const>(ops));
    };
    run();  // warm the arena
    const bench::TimingStats t = bench::time_min_of(20, run);
    const double per_graph = t.mean_ms / static_cast<double>(width);
    if (width == 1) base_ms = per_graph;
    std::size_t nodes = 0;
    for (const auto& g : graphs) nodes += g.num_nodes();
    batch.row()
        .add(width)
        .add(nodes)
        .add(t.mean_ms, 3)
        .add(per_graph, 3)
        .add(base_ms / per_graph, 2);
  }
  bench::emit(batch, "batched embedding (resnet50 × width, f32)",
              "micro_embed_batch.csv");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--pddl-csv") return pddl_csv_main();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
