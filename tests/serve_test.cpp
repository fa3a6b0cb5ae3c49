#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ghn/ghn2.hpp"
#include "serve/batch_sizer.hpp"
#include "serve/service.hpp"
#include "tensor/simd.hpp"

namespace pddl::serve {
namespace {

// Small, fast options (mirrors core_test): tiny GHN, reduced campaign.
core::PredictDdlOptions fast_options() {
  core::PredictDdlOptions opts;
  opts.ghn.hidden_dim = 12;
  opts.ghn.mlp_hidden = 12;
  opts.ghn_trainer.corpus_size = 10;
  opts.ghn_trainer.epochs = 4;
  opts.ghn_trainer.batch_size = 5;
  opts.ghn_trainer.darts.max_cells = 3;
  opts.campaign.models = {"alexnet",   "resnet18",           "resnet50",
                          "vgg11",     "mobilenet_v3_small", "squeezenet1_1",
                          "densenet121"};
  opts.campaign.max_servers = 8;
  opts.campaign.batch_sizes = {64};
  return opts;
}

core::PredictRequest make_request(const std::string& model, int servers = 4,
                                  const std::string& sku = "p100") {
  core::PredictRequest req;
  req.workload = {model, workload::cifar10(), /*batch=*/64, /*epochs=*/10};
  req.cluster = cluster::make_uniform_cluster(sku, servers);
  return req;
}

// One PredictDdl trained once for the whole suite — offline training is the
// expensive part, and every test serves from the same frozen state.
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pool_ = new ThreadPool(8);
    sim_ = new sim::DdlSimulator();
    pddl_ = new core::PredictDdl(*sim_, *pool_, fast_options());
    pddl_->train_offline(workload::cifar10());
  }
  static void TearDownTestSuite() {
    delete pddl_;
    delete sim_;
    delete pool_;
    pddl_ = nullptr;
    sim_ = nullptr;
    pool_ = nullptr;
  }

  static ThreadPool* pool_;
  static sim::DdlSimulator* sim_;
  static core::PredictDdl* pddl_;
};

ThreadPool* ServeTest::pool_ = nullptr;
sim::DdlSimulator* ServeTest::sim_ = nullptr;
core::PredictDdl* ServeTest::pddl_ = nullptr;

TEST_F(ServeTest, ServesSingleRequestMatchingDirectPath) {
  PredictionService service(*pddl_);
  const core::PredictRequest req = make_request("resnet18");
  const ServeResult r = service.predict(req);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_GT(r.response.predicted_time_s, 0.0);
  EXPECT_FALSE(r.cache_hit);  // fresh cache
  // Same embedding → same features → same prediction as the direct path.
  const core::PredictResponse direct = pddl_->submit(req);
  EXPECT_DOUBLE_EQ(r.response.predicted_time_s, direct.predicted_time_s);
  EXPECT_GE(r.total_ms, 0.0);
  EXPECT_GE(r.queue_ms, 0.0);
}

TEST_F(ServeTest, DeterministicCacheAccountingOnRepeatTraffic) {
  PredictionService service(*pddl_);
  const core::PredictRequest req = make_request("vgg11");
  const ServeResult first = service.predict(req);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_FALSE(first.cache_hit);
  for (int i = 0; i < 5; ++i) {
    const ServeResult r = service.predict(req);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.cache_hit);
    EXPECT_DOUBLE_EQ(r.response.predicted_time_s,
                     first.response.predicted_time_s);
  }
  const MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.submitted, 6u);
  EXPECT_EQ(m.completed, 6u);
  EXPECT_EQ(m.cache_misses, 1u);
  EXPECT_EQ(m.cache_hits, 5u);
  EXPECT_EQ(m.cache_entries, 1u);
  EXPECT_EQ(m.e2e.count, 6u);
}

TEST_F(ServeTest, EmbedLatencySplitsByCacheOutcome) {
  PredictionService service(*pddl_);
  const core::PredictRequest req = make_request("resnet18");
  ASSERT_TRUE(service.predict(req).ok());  // miss: full forward pass
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(service.predict(req).ok());
  const MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.embed_miss.count, 1u);
  EXPECT_EQ(m.embed_hit.count, 3u);
  // Histogram counts mirror the hit/miss counters by construction.
  EXPECT_EQ(m.embed_hit.count, m.cache_hits);
  EXPECT_EQ(m.embed_miss.count, m.cache_misses);
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"embed_hit\""), std::string::npos);
  EXPECT_NE(json.find("\"embed_miss\""), std::string::npos);
  EXPECT_NE(m.to_string().find("embed_hit"), std::string::npos);
}

TEST_F(ServeTest, F32PrecisionServesWithinBudgetAndReportsEngine) {
  // The f32 embed engine (the CLI serving default; the library default
  // stays f64) must move end-to-end predictions by at most fp32 noise —
  // the embedding-level budget is ~4e-7 scaled-relative (ghn_infer_test),
  // and the downstream feature/regressor path is smooth, so 1e-4 relative
  // on the predicted time is generous yet far below any scheduling-relevant
  // difference.  Every campaign family is checked.
  ServiceConfig f64_cfg;  // default precision: ghn::Precision::kF64
  ServiceConfig f32_cfg;
  f32_cfg.precision = ghn::Precision::kF32;
  PredictionService f64_service(*pddl_, f64_cfg);
  PredictionService f32_service(*pddl_, f32_cfg);
  for (const std::string& model : fast_options().campaign.models) {
    const core::PredictRequest req = make_request(model);
    const ServeResult a = f64_service.predict(req);
    const ServeResult b = f32_service.predict(req);
    ASSERT_TRUE(a.ok()) << a.error;
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_NEAR(b.response.predicted_time_s, a.response.predicted_time_s,
                1e-4 * std::max(1.0, std::fabs(a.response.predicted_time_s)))
        << model;
  }
  // metrics() reports the live engine provenance for both services.
  EXPECT_EQ(f64_service.metrics().engine_precision, "f64");
  EXPECT_EQ(f32_service.metrics().engine_precision, "f32");
  EXPECT_EQ(f32_service.metrics().kernel_dispatch, simd::active_level_name());
  EXPECT_NE(f32_service.metrics().to_string().find("precision=f32"),
            std::string::npos);
}

TEST_F(ServeTest, GoldenPredictionsAndGhnChecksumStayPinned) {
  // Golden fixture for the suite's fixed-seed state, recorded once: refactors
  // under the prediction path must not drift it.  f64 predictions are pinned
  // to 1e-9 relative (a re-association passes, real drift does not), f32
  // predictions must stay within the 1e-4 budget of the same values, and the
  // trained GHN's checksum is exact.  Values are 4 p100 servers, batch 64.
  struct Golden {
    const char* model;
    double seconds;
  };
  const std::vector<Golden> golden = {
      {"alexnet", 117.98101841185748},
      {"resnet18", 79.837223196832767},
      {"resnet50", 142.18034987398167},
      {"vgg11", 187.14510207184489},
      {"mobilenet_v3_small", 36.683633914366297},
      {"squeezenet1_1", 30.458581815283846},
      {"densenet121", 62.984971083337669},
  };
  EXPECT_EQ(ghn::ghn_checksum(*pddl_->registry().model("cifar10")),
            0xc5a019ac12b98cd9ull);

  ServiceConfig f32_cfg;
  f32_cfg.precision = ghn::Precision::kF32;
  PredictionService f64_service(*pddl_);
  PredictionService f32_service(*pddl_, f32_cfg);
  const std::vector<std::string>& models = fast_options().campaign.models;
  ASSERT_EQ(models.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    ASSERT_EQ(models[i], golden[i].model);
    const ServeResult a = f64_service.predict(make_request(golden[i].model));
    const ServeResult b = f32_service.predict(make_request(golden[i].model));
    ASSERT_TRUE(a.ok()) << a.error;
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_NEAR(a.response.predicted_time_s, golden[i].seconds,
                1e-9 * golden[i].seconds)
        << golden[i].model;
    EXPECT_NEAR(b.response.predicted_time_s, golden[i].seconds,
                1e-4 * golden[i].seconds)
        << golden[i].model;
  }

  // Larger clusters lean on the quadratic cross terms between the embedding
  // and the cluster features, which 4-server rows barely exercise.  The
  // fixture campaign stops at 8 servers, so the last two 16-server rows land
  // on the log-target clamp.
  struct GoldenRow {
    const char* model;
    int servers;
    double seconds;
  };
  const std::vector<GoldenRow> rows = {
      {"alexnet", 8, 94.057791260551909},
      {"resnet18", 8, 64.465576892702273},
      {"resnet50", 8, 97.71098598431729},
      {"vgg11", 8, 104.21082571331898},
      {"mobilenet_v3_small", 8, 35.082169525041188},
      {"squeezenet1_1", 8, 35.711040775608012},
      {"densenet121", 8, 56.534586199105711},
      {"alexnet", 16, 593.71588842958795},
      {"resnet18", 16, 486.27307620201736},
      {"resnet50", 16, 533.28730654924209},
      {"vgg11", 16, 325.01916368186937},
      {"mobilenet_v3_small", 16, 338.81501467388409},
      {"squeezenet1_1", 16, 628.87672206504158},
      {"densenet121", 16, 628.87672206504158},
  };
  for (const GoldenRow& row : rows) {
    const core::PredictRequest req = make_request(row.model, row.servers);
    const ServeResult a = f64_service.predict(req);
    const ServeResult b = f32_service.predict(req);
    ASSERT_TRUE(a.ok()) << a.error;
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_NEAR(a.response.predicted_time_s, row.seconds, 1e-9 * row.seconds)
        << row.model << " on " << row.servers << " servers";
    EXPECT_NEAR(b.response.predicted_time_s, row.seconds, 1e-4 * row.seconds)
        << row.model << " on " << row.servers << " servers";
  }

  // Non-data-parallel rows need a predictor fitted on strategy rows (on the
  // dp-only fixture every pp/tp request lands on the clamp).  Same GHN, a
  // dp + pp2x4 + tp2 campaign.
  core::PredictDdlOptions opts = fast_options();
  opts.campaign.strategies = {"dp", "pp2x4", "tp2"};
  core::PredictDdl mixed(*sim_, *pool_, opts);
  mixed.registry().put("cifar10", pddl_->registry().clone_model("cifar10"));
  mixed.train_offline(workload::cifar10());
  PredictionService mixed_service(mixed);
  struct GoldenStrategyRow {
    workload::ParallelismSpec par;
    double seconds;
  };
  for (const GoldenStrategyRow& row :
       {GoldenStrategyRow{workload::ParallelismSpec::pipeline(2, 4),
                          102.79153617129813},
        GoldenStrategyRow{workload::ParallelismSpec::tensor(2),
                          213.16742455455545}}) {
    core::PredictRequest req = make_request("resnet50", 8);
    req.workload.parallelism = row.par;
    const ServeResult a = mixed_service.predict(req);
    ASSERT_TRUE(a.ok()) << a.error;
    EXPECT_NEAR(a.response.predicted_time_s, row.seconds, 1e-9 * row.seconds)
        << row.par.key();
  }
}

TEST_F(ServeTest, CacheKeyIsStructuralAcrossClusterShapes) {
  // Same model on different clusters/batch sizes shares one embedding.
  PredictionService service(*pddl_);
  ASSERT_TRUE(service.predict(make_request("alexnet", 4, "p100")).ok());
  const ServeResult r = service.predict(make_request("alexnet", 8, "e5_2630"));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.cache_hit);
  EXPECT_EQ(service.metrics().cache_misses, 1u);
}

TEST_F(ServeTest, WarmUpPopulatesCache) {
  PredictionService service(*pddl_);
  std::vector<workload::DlWorkload> ws;
  for (const char* model : {"resnet18", "vgg11", "alexnet"}) {
    ws.push_back({model, workload::cifar10(), 64, 10});
  }
  // Workloads for an untrained dataset are skipped, not fatal.
  ws.push_back({"resnet18", workload::tiny_imagenet(), 64, 10});
  EXPECT_EQ(service.warm_up(ws), 3u);
  EXPECT_EQ(service.warm_up(ws), 0u);  // idempotent
  // Warm-up also seeds the fingerprint memo (the skipped workload is never
  // built), so the live requests below are memo hits and add no key.
  EXPECT_EQ(service.fingerprint_memo().size(), 3u);
  for (const char* model : {"resnet18", "vgg11", "alexnet"}) {
    const ServeResult r = service.predict(make_request(model));
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.cache_hit);
  }
  EXPECT_EQ(service.fingerprint_memo().size(), 3u);
  EXPECT_EQ(service.metrics().cache_misses, 0u);
  EXPECT_EQ(service.metrics().cache_hits, 3u);
}

TEST_F(ServeTest, WarmUpTakesTheDispatcherMissPath) {
  // Batch size is not part of the graph, so two vgg11 workloads share one
  // fingerprint: warm-up coalesces them onto one forward pass, exactly as a
  // dispatch would, and both still count as warmed misses.
  PredictionService service(*pddl_);
  const std::vector<workload::DlWorkload> ws = {
      {"vgg11", workload::cifar10(), 64, 10},
      {"vgg11", workload::cifar10(), 128, 10},
      {"alexnet", workload::cifar10(), 64, 10}};
  EXPECT_EQ(service.warm_up(ws), 3u);
  const MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.embed_batches, 1u);
  EXPECT_EQ(m.embed_batch_graphs, 2u);
  EXPECT_EQ(m.embed_coalesced, 1u);
  EXPECT_EQ(m.cache_entries, 2u);
  EXPECT_GT(m.arena_hwm_bytes, 0u);
  // The warmed embedding is the one a cold service computes.
  PredictionService cold(*pddl_);
  const ServeResult warm = service.predict(make_request("vgg11"));
  const ServeResult fresh = cold.predict(make_request("vgg11"));
  ASSERT_TRUE(warm.ok()) << warm.error;
  ASSERT_TRUE(fresh.ok()) << fresh.error;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.response.predicted_time_s, fresh.response.predicted_time_s);
}

TEST_F(ServeTest, FailedGraphBuildIsNeverMemoized) {
  PredictionService service(*pddl_);
  core::PredictRequest unknown = make_request("no_such_model");
  core::PredictRequest degenerate = make_request("resnet18");
  degenerate.workload.dataset.input = {3, 0, 0};
  for (const core::PredictRequest* req : {&unknown, &degenerate}) {
    std::string first_error;
    for (int i = 0; i < 3; ++i) {
      const ServeResult r = service.predict(*req);
      ASSERT_EQ(r.status, ServeStatus::kError);
      ASSERT_FALSE(r.error.empty());
      if (i == 0) first_error = r.error;
      EXPECT_EQ(r.error, first_error);  // same failure on every repeat
    }
  }
  EXPECT_EQ(service.fingerprint_memo().size(), 0u);  // neither key memoized
  // A good request after the failures is served and memoized as usual.
  ASSERT_TRUE(service.predict(make_request("resnet18")).ok());
  EXPECT_EQ(service.fingerprint_memo().size(), 1u);

  const MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.errors, 6u);
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.submitted, m.completed + m.rejected_queue_full +
                             m.rejected_untrained + m.deadline_expired +
                             m.errors);
}

TEST_F(ServeTest, MemoHitAfterGhnSwapBuildsGraphForTheMiss) {
  // swap_ghn purges the embedding cache but not the fingerprint memo, so
  // every request after it is a memo hit that misses the cache and must
  // build its graph for the embed and the reuse signature.  The swapped-in
  // GHN is a clone of the live one, so a fresh service is the reference.
  ServiceConfig cfg;
  cfg.reuse.enabled = true;
  cfg.reuse.use_cost_model = false;  // deterministic probes
  const std::vector<std::string> models = {"vgg11", "resnet18", "alexnet",
                                           "vgg13"};
  PredictionService service(*pddl_, cfg);
  for (const std::string& m : models) {
    ASSERT_TRUE(service.predict(make_request(m)).ok());
  }
  service.swap_ghn("cifar10", pddl_->registry().clone_model("cifar10"),
                   nullptr);
  EXPECT_EQ(service.cache().size(), 0u);
  EXPECT_EQ(service.fingerprint_memo().size(), models.size());

  PredictionService fresh(*pddl_, cfg);
  bool any_reused = false;
  for (const std::string& m : models) {
    const ServeResult r = service.predict(make_request(m));
    const ServeResult ref = fresh.predict(make_request(m));
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_TRUE(ref.ok()) << ref.error;
    EXPECT_FALSE(r.cache_hit);
    EXPECT_EQ(r.response.predicted_time_s, ref.response.predicted_time_s);
    // Donors inserted on the lazy path carry the graph's real signature:
    // a wrong one would change which neighbour is found, and how far.
    EXPECT_EQ(r.confidence, ref.confidence);
    EXPECT_EQ(r.reuse_distance, ref.reuse_distance);
    any_reused = any_reused || r.confidence == Confidence::kReused;
  }
  EXPECT_TRUE(any_reused);  // vgg13 reuses the vgg11 donor
  const MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.errors, 0u);
  EXPECT_EQ(m.completed, m.cache_hits + m.cache_misses + m.reuse_hits);
  EXPECT_EQ(m.reuse_entries, fresh.metrics().reuse_entries);
}

TEST_F(ServeTest, MemoHitAfterCacheEvictionBuildsGraphForTheMiss) {
  // cache_capacity = 2 over 8 shards leaves one entry per shard (capacity
  // 8), so models whose keys share a shard evict each other while the
  // memo, a single LRU of the same capacity, keeps all 8 keys.  Which keys
  // collide depends on the shard hash; the test asserts that some do.
  ServiceConfig cfg;
  cfg.cache_shards = 8;
  cfg.cache_capacity = 2;
  const std::vector<std::string> models = {
      "alexnet",       "resnet18",      "resnet34", "vgg11",
      "vgg13",         "squeezenet1_0", "squeezenet1_1",
      "mobilenet_v3_small"};
  PredictionService service(*pddl_, cfg);
  ASSERT_EQ(service.fingerprint_memo().capacity(), service.cache().capacity());
  ASSERT_EQ(service.fingerprint_memo().capacity(), models.size());
  for (const std::string& m : models) {
    ASSERT_TRUE(service.predict(make_request(m)).ok());
  }
  ASSERT_EQ(service.fingerprint_memo().size(), models.size());
  ASSERT_GT(service.metrics().cache_evictions, 0u);

  PredictionService fresh(*pddl_);
  std::size_t lazy_builds = 0;
  for (const std::string& m : models) {
    const ServeResult r = service.predict(make_request(m));
    ASSERT_TRUE(r.ok()) << r.error;
    if (!r.cache_hit) ++lazy_builds;  // memo hit, evicted embedding
    EXPECT_EQ(r.response.predicted_time_s,
              fresh.predict(make_request(m)).response.predicted_time_s);
  }
  EXPECT_GT(lazy_builds, 0u);
  const MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.errors, 0u);
  EXPECT_EQ(m.completed, 2 * models.size());
  EXPECT_EQ(m.completed, m.cache_hits + m.cache_misses + m.reuse_hits);
}

TEST_F(ServeTest, FingerprintMemoStaysWithinCacheCapacity) {
  ServiceConfig cfg;
  cfg.cache_shards = 1;
  cfg.cache_capacity = 2;
  PredictionService service(*pddl_, cfg);
  PredictionService fresh(*pddl_);
  ASSERT_EQ(service.fingerprint_memo().capacity(), 2u);
  std::size_t sent = 0;
  for (const char* model : {"alexnet", "resnet18", "vgg11"}) {
    // Each of c, h and w varies alone, so the key must carry all three.
    for (const graph::TensorShape input :
         {graph::TensorShape{3, 32, 32}, graph::TensorShape{1, 32, 32},
          graph::TensorShape{3, 64, 32}, graph::TensorShape{3, 32, 64}}) {
      for (int classes : {10, 100}) {
        core::PredictRequest req = make_request(model);
        req.workload.dataset.input = input;
        req.workload.dataset.num_classes = classes;
        const double want = fresh.predict(req).response.predicted_time_s;
        for (int rep = 0; rep < 2; ++rep) {  // the repeat is a memo hit
          const ServeResult r = service.predict(req);
          ASSERT_TRUE(r.ok()) << r.error;
          EXPECT_EQ(r.response.predicted_time_s, want);
          EXPECT_LE(service.fingerprint_memo().size(), 2u);
        }
        ++sent;
      }
    }
  }
  EXPECT_GT(sent, service.fingerprint_memo().capacity());
  EXPECT_EQ(service.fingerprint_memo().size(), 2u);
  EXPECT_EQ(fresh.fingerprint_memo().size(), sent);
}

TEST_F(ServeTest, UntrainedDatasetIsRejectedNotTrained) {
  PredictionService service(*pddl_);
  core::PredictRequest req = make_request("resnet18");
  req.workload.dataset = workload::tiny_imagenet();
  const ServeResult r = service.predict(req);
  EXPECT_EQ(r.status, ServeStatus::kUntrainedDataset);
  EXPECT_FALSE(r.error.empty());
  const MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.rejected_untrained, 1u);
  EXPECT_EQ(m.completed, 0u);
}

TEST_F(ServeTest, RejectsWithReasonWhenQueueSaturated) {
  ServiceConfig cfg;
  cfg.queue_capacity = 4;
  cfg.dispatcher_threads = 1;
  cfg.start_paused = true;  // hold dispatch so the queue fills deterministically
  PredictionService service(*pddl_, cfg);

  std::vector<std::future<ServeResult>> accepted;
  for (int i = 0; i < 4; ++i) {
    accepted.push_back(service.submit(make_request("resnet18")));
  }
  // Queue is at capacity: further admissions must fail fast with a reason.
  for (int i = 0; i < 3; ++i) {
    std::future<ServeResult> f = service.submit(make_request("resnet18"));
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const ServeResult r = f.get();
    EXPECT_EQ(r.status, ServeStatus::kRejectedQueueFull);
    EXPECT_NE(r.error.find("capacity"), std::string::npos);
  }
  EXPECT_EQ(service.queue_depth(), 4u);

  service.resume();
  for (auto& f : accepted) {
    const ServeResult r = f.get();
    EXPECT_TRUE(r.ok()) << r.error;
  }
  const MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.submitted, 7u);
  EXPECT_EQ(m.completed, 4u);
  EXPECT_EQ(m.rejected_queue_full, 3u);
}

TEST_F(ServeTest, DeadlineExpiresWhileQueued) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  PredictionService service(*pddl_, cfg);
  std::future<ServeResult> doomed =
      service.submit(make_request("resnet18"), /*deadline_ms=*/5.0);
  std::future<ServeResult> patient =
      service.submit(make_request("resnet18"));  // no deadline
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  service.resume();
  const ServeResult r = doomed.get();
  EXPECT_EQ(r.status, ServeStatus::kDeadlineExceeded);
  EXPECT_GE(r.queue_ms, 5.0);
  EXPECT_TRUE(patient.get().ok());
  const MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.deadline_expired, 1u);
  EXPECT_EQ(m.completed, 1u);
}

TEST_F(ServeTest, ShutdownRejectsNewButDrainsQueued) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  PredictionService service(*pddl_, cfg);
  std::future<ServeResult> queued = service.submit(make_request("vgg11"));
  service.stop();  // must drain the paused queue, not drop it
  EXPECT_TRUE(queued.get().ok());
  const ServeResult late = service.predict(make_request("vgg11"));
  EXPECT_EQ(late.status, ServeStatus::kShutdown);
}

// The headline concurrency test: N client threads × M requests of mixed
// cached/uncached traffic.  Every request must get exactly one response
// (no lost promises), metrics must stay consistent, and a second identical
// wave over the warm cache must be all hits.
TEST_F(ServeTest, StressManyClientsMixedTraffic) {
  constexpr int kThreads = 16;
  constexpr int kPerThread = 32;
  const std::vector<std::string> models = {
      "alexnet", "resnet18", "resnet50",        "vgg11",
      "vgg16",   "densenet121", "mobilenet_v3_small"};

  ServiceConfig cfg;
  cfg.dispatcher_threads = 4;
  cfg.queue_capacity = kThreads * kPerThread;  // no rejections in this test
  PredictionService service(*pddl_, cfg);

  auto run_wave = [&] {
    std::atomic<int> ok{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t] {
        std::vector<std::future<ServeResult>> futs;
        for (int i = 0; i < kPerThread; ++i) {
          const std::string& model = models[(t + i) % models.size()];
          const int servers = (i % 2 == 0) ? 4 : 8;
          const char* sku = (t % 2 == 0) ? "p100" : "e5_2630";
          futs.push_back(service.submit(make_request(model, servers, sku)));
        }
        for (auto& f : futs) {
          const ServeResult r = f.get();
          if (r.ok() && r.response.predicted_time_s > 0.0) ok.fetch_add(1);
        }
      });
    }
    for (auto& c : clients) c.join();
    return ok.load();
  };

  EXPECT_EQ(run_wave(), kThreads * kPerThread);
  const MetricsSnapshot wave1 = service.metrics();
  EXPECT_EQ(wave1.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(wave1.completed, wave1.submitted);
  EXPECT_EQ(wave1.cache_hits + wave1.cache_misses, wave1.completed);
  // Every distinct architecture misses at least once; concurrent first
  // touches may duplicate a miss, but never exceed request count.
  EXPECT_GE(wave1.cache_misses, models.size());
  EXPECT_EQ(wave1.rejected_queue_full, 0u);
  EXPECT_EQ(wave1.errors, 0u);
  EXPECT_EQ(wave1.e2e.count, wave1.completed);

  // Second wave over a warm cache: zero new misses, all hits.
  EXPECT_EQ(run_wave(), kThreads * kPerThread);
  const MetricsSnapshot wave2 = service.metrics();
  EXPECT_EQ(wave2.completed, 2u * kThreads * kPerThread);
  EXPECT_EQ(wave2.cache_misses, wave1.cache_misses);
  EXPECT_EQ(wave2.cache_hits,
            wave2.completed - wave2.cache_misses);

  // Metrics are monotone across snapshots.
  EXPECT_GE(wave2.submitted, wave1.submitted);
  EXPECT_GE(wave2.cache_hits, wave1.cache_hits);
  EXPECT_GE(wave2.e2e.count, wave1.e2e.count);
  EXPECT_GE(wave2.e2e.max_ms, 0.0);
}

// ---- ShardedEmbeddingCache unit coverage ----

// The GHN checksum the entries below pretend to be computed under.
constexpr std::uint64_t kCk = 0xfeedULL;

TEST(ShardedEmbeddingCache, LruEvictsLeastRecentlyUsed) {
  ShardedEmbeddingCache cache(/*shards=*/1, /*capacity=*/3);
  cache.put("d", 1, kCk, {1.0});
  cache.put("d", 2, kCk, {2.0});
  cache.put("d", 3, kCk, {3.0});
  ASSERT_TRUE(cache.get("d", 1, kCk).has_value());  // promote fp=1 to MRU
  cache.put("d", 4, kCk, {4.0});                    // evicts fp=2 (LRU)
  EXPECT_FALSE(cache.get("d", 2, kCk).has_value());
  EXPECT_TRUE(cache.get("d", 1, kCk).has_value());
  EXPECT_TRUE(cache.get("d", 3, kCk).has_value());
  EXPECT_TRUE(cache.get("d", 4, kCk).has_value());
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 3u);
  EXPECT_EQ(s.inserts, 4u);
}

TEST(ShardedEmbeddingCache, PutRefreshesExistingKey) {
  ShardedEmbeddingCache cache(2, 8);
  cache.put("d", 7, kCk, {1.0});
  cache.put("d", 7, kCk, {9.0});
  const auto v = cache.get("d", 7, kCk);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)[0], 9.0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ShardedEmbeddingCache, DatasetsDoNotCollide) {
  ShardedEmbeddingCache cache(4, 16);
  cache.put("cifar10", 42, kCk, {1.0});
  cache.put("tiny_imagenet", 42, kCk, {2.0});
  EXPECT_EQ((*cache.get("cifar10", 42, kCk))[0], 1.0);
  EXPECT_EQ((*cache.get("tiny_imagenet", 42, kCk))[0], 2.0);
}

TEST(ShardedEmbeddingCache, ChecksumMismatchDropsEntryInsteadOfServing) {
  ShardedEmbeddingCache cache(2, 8);
  cache.put("d", 7, kCk, {1.0});
  // A lookup keyed by a newer GHN generation must not see the old entry —
  // and must erase it, so a stale insert can't linger until a matching
  // old-generation lookup comes along.
  EXPECT_FALSE(cache.get("d", 7, kCk + 1).has_value());
  EXPECT_EQ(cache.size(), 0u);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.stale_drops, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 1u);
  // Refresh under the new checksum re-validates the fingerprint.
  cache.put("d", 7, kCk + 1, {2.0});
  EXPECT_EQ((*cache.get("d", 7, kCk + 1))[0], 2.0);
}

TEST(ShardedEmbeddingCache, PurgeDatasetDropsOnlyThatDataset) {
  ShardedEmbeddingCache cache(4, 16);
  cache.put("cifar10", 1, kCk, {1.0});
  cache.put("cifar10", 2, kCk, {2.0});
  cache.put("wikitext103", 1, kCk, {3.0});
  EXPECT_EQ(cache.purge_dataset("cifar10"), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.get("cifar10", 1, kCk).has_value());
  EXPECT_TRUE(cache.get("wikitext103", 1, kCk).has_value());
  EXPECT_EQ(cache.purge_dataset("cifar10"), 0u);  // idempotent
}

TEST(ShardedEmbeddingCache, ConcurrentHammerStaysConsistent) {
  ShardedEmbeddingCache cache(8, 64);
  constexpr int kThreads = 8;
  constexpr int kOps = 500;
  std::atomic<std::uint64_t> gets{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t fp = static_cast<std::uint64_t>((t * 7 + i) % 96);
        if (i % 3 == 0) {
          cache.put("d", fp, kCk, {static_cast<double>(fp)});
        } else {
          gets.fetch_add(1);
          if (auto v = cache.get("d", fp, kCk)) {
            // A hit must return the value stored under that key.
            EXPECT_EQ((*v)[0], static_cast<double>(fp));
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(cache.size(), cache.capacity());
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, gets.load());
  EXPECT_EQ(s.entries, cache.size());
}

// ---- LatencyHistogram unit coverage ----

TEST(LatencyHistogram, QuantilesLandInTheRightBuckets) {
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) h.record(1.5);   // bucket (1, 2]
  for (int i = 0; i < 10; ++i) h.record(150.0);  // bucket (100, 200]
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.mean_ms, 0.9 * 1.5 + 0.1 * 150.0, 0.01);
  EXPECT_GT(s.p50_ms, 1.0);
  EXPECT_LE(s.p50_ms, 2.0);
  EXPECT_GT(s.p95_ms, 100.0);
  EXPECT_LE(s.p95_ms, 200.0);
  EXPECT_GT(s.p99_ms, 100.0);
  EXPECT_LE(s.p99_ms, 200.0);
  EXPECT_NEAR(s.max_ms, 150.0, 1e-6);
}

TEST(LatencyHistogram, EmptyAndSingleSample) {
  LatencyHistogram h;
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_EQ(h.snapshot().p99_ms, 0.0);
  h.record(3.0);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_GT(s.p50_ms, 2.0);
  EXPECT_LE(s.p50_ms, 5.0);
  EXPECT_NEAR(s.max_ms, 3.0, 1e-6);
}

TEST(LatencyHistogram, OverflowBucketUsesObservedMax) {
  LatencyHistogram h;
  h.record(45000.0);  // beyond the last bound (30 s)
  const auto s = h.snapshot();
  EXPECT_NEAR(s.p99_ms, 45000.0, 1e-3);
}

TEST(DistanceHistogram, QuantilesLandInTheRightBuckets) {
  DistanceHistogram h;
  for (int i = 0; i < 90; ++i) h.record(0.003);  // bucket (2e-3, 5e-3]
  for (int i = 0; i < 10; ++i) h.record(0.3);    // bucket (0.1, 0.5]
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.mean, 0.9 * 0.003 + 0.1 * 0.3, 1e-9);
  EXPECT_GT(s.p50, 2e-3);
  EXPECT_LE(s.p50, 5e-3);
  EXPECT_GT(s.p95, 0.1);
  EXPECT_LE(s.p95, 0.3);  // interpolation is clamped to the observed max
  EXPECT_GT(s.p99, 0.1);
  EXPECT_LE(s.p99, 0.3);
  EXPECT_NEAR(s.max, 0.3, 1e-9);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
}

TEST(DistanceHistogram, EmptyAndOverflowBucketUsesObservedMax) {
  DistanceHistogram h;
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_EQ(h.snapshot().p99, 0.0);
  h.record(3.5);  // beyond the last bound (2.0)
  h.record(-1.0);  // clamped to 0: bucket [0, 1e-5]
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(h.bucket_counts()[DistanceHistogram::kBuckets - 1], 1u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_NEAR(s.max, 3.5, 1e-9);
  EXPECT_NEAR(s.p99, 3.5, 1e-9);
  EXPECT_LE(s.p50, 1e-5);
}

namespace {
std::size_t count_char(const std::string& s, char c) {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), c));
}

// Every key path "group.key" (or "key" at top level) of a JSON document made
// of objects, arrays and scalars, with how often each occurs.  Only as much
// JSON as to_json() writes: no whitespace, no escapes inside strings.
void collect_json_keys(const std::string& s, std::size_t& i,
                       const std::string& prefix,
                       std::map<std::string, int>& out) {
  ASSERT_EQ(s[i], '{');
  ++i;
  while (s[i] != '}') {
    if (s[i] == ',') ++i;
    ASSERT_LT(i, s.size());
    ASSERT_EQ(s[i], '"');
    const std::size_t end = s.find('"', i + 1);
    const std::string key = prefix + s.substr(i + 1, end - i - 1);
    ++out[key];
    i = end + 1;
    ASSERT_EQ(s[i], ':');
    ++i;
    if (s[i] == '{') {
      collect_json_keys(s, i, key + ".", out);
      if (::testing::Test::HasFatalFailure()) return;
    } else if (s[i] == '"') {
      i = s.find('"', i + 1) + 1;
    } else if (s[i] == '[') {
      i = s.find(']', i) + 1;
    } else {
      i = s.find_first_of(",}", i);
    }
    ASSERT_LT(i, s.size());
  }
  ++i;
}
}  // namespace

TEST(Metrics, EveryTableRowAppearsOnceInItsGroupsJsonObject) {
  ServiceMetrics m;
  m.submitted.store(3);
  m.e2e_ms.record(2.0);
  const std::string json = m.snapshot().to_json();
  std::map<std::string, int> keys;
  std::size_t i = 0;
  collect_json_keys(json, i, "", keys);
  EXPECT_EQ(i, json.size());
  // The paths the table implies: each row inside its group's object, each
  // group object itself, and each stat inside a histogram row's object.
  std::map<std::string, int> expected;
  for_each_field([&](const std::string& group, const char* key, auto member,
                     auto) {
    const std::string path = group.empty() ? key : group + "." + key;
    EXPECT_EQ(keys[path], 1) << path;
    ++expected[path];
    if (!group.empty()) expected[group] = 1;
    const auto value = std::invoke(member, MetricsSnapshot{});
    if constexpr (HistogramSnapshot<decltype(value)>) {
      for_each_stat(value, [&](const char* stat, const auto&) {
        ++expected[path + "." + stat];
      });
    }
  });
  EXPECT_EQ(keys, expected);
}

TEST(Metrics, ToJsonZeroRequestSnapshotIsWellFormed) {
  // A snapshot taken before any traffic: every counter zero, every
  // histogram empty.  The JSON must still be complete and finite — no
  // missing sections, no NaN/inf leaking from empty-histogram math.
  ServiceMetrics m;
  const std::string json = m.snapshot().to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(count_char(json, '{'), count_char(json, '}'));
  EXPECT_EQ(count_char(json, '['), count_char(json, ']'));
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_NE(json.find("\"submitted\":0"), std::string::npos);
  EXPECT_NE(json.find("\"feedback\":{\"observations_ingested\":0"),
            std::string::npos);
  EXPECT_NE(json.find("\"batch\":{\"dispatched\":0"), std::string::npos);
  EXPECT_NE(json.find("\"e2e\":{\"count\":0"), std::string::npos);
  EXPECT_NE(json.find("\"mean_ms\":0.000000"), std::string::npos);
  // The size distribution renders all slots (exact sizes + overflow).
  EXPECT_NE(json.find("\"size_counts\":[0,"), std::string::npos);
}

TEST(Metrics, ToJsonReportsFeedbackCounters) {
  ServiceMetrics m;
  m.observations_ingested.store(7);
  m.observations_rejected.store(2);
  m.drift_events.store(3);
  m.refits_started.store(2);
  m.refits_completed.store(1);
  m.refits_failed.store(1);
  m.engine_swaps.store(1);
  const MetricsSnapshot s = m.snapshot();
  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"observations_ingested\":7"), std::string::npos);
  EXPECT_NE(json.find("\"observations_rejected\":2"), std::string::npos);
  EXPECT_NE(json.find("\"drift_events\":3"), std::string::npos);
  EXPECT_NE(json.find("\"refits_started\":2"), std::string::npos);
  EXPECT_NE(json.find("\"refits_completed\":1"), std::string::npos);
  EXPECT_NE(json.find("\"refits_failed\":1"), std::string::npos);
  EXPECT_NE(json.find("\"engine_swaps\":1"), std::string::npos);
  // The human dump grows a feedback line once the loop saw traffic.
  const std::string text = s.to_string();
  EXPECT_NE(text.find("feedback"), std::string::npos);
  EXPECT_NE(text.find("observations_ingested=7"), std::string::npos);
  EXPECT_NE(text.find("refits_started=2 refits_completed=1 refits_failed=1"),
            std::string::npos);
}

TEST(Metrics, QuietSnapshotOmitsOptionalTextSections) {
  // No rpc, batch, or feedback traffic: the human-readable dump keeps only
  // the top-level group and its histograms (json keeps all groups, always).
  const std::string text = ServiceMetrics().snapshot().to_string();
  EXPECT_EQ(text.find("rpc"), std::string::npos);
  EXPECT_EQ(text.find("batch"), std::string::npos);
  EXPECT_EQ(text.find("feedback"), std::string::npos);
}

TEST(Metrics, BatchSizeDistributionTracksExactSlotsAndOverflow) {
  ServiceMetrics m;
  m.record_batch_size(0);  // empty dispatch: not a batch, not counted
  m.record_batch_size(1);
  m.record_batch_size(4);
  m.record_batch_size(4);
  m.record_batch_size(kMaxTrackedBatchSize);       // largest exact slot
  m.record_batch_size(kMaxTrackedBatchSize + 5);   // overflow slot
  const MetricsSnapshot s = m.snapshot();
  EXPECT_EQ(s.batches_dispatched, 5u);
  EXPECT_EQ(s.batch_size_counts[0], 1u);                        // size 1
  EXPECT_EQ(s.batch_size_counts[3], 2u);                        // size 4
  EXPECT_EQ(s.batch_size_counts[kMaxTrackedBatchSize - 1], 1u); // size 32
  EXPECT_EQ(s.batch_size_counts[kMaxTrackedBatchSize], 1u);     // overflow
  // Overflow contributes its slot weight (kMax+1), so the mean is a floor.
  EXPECT_NEAR(s.mean_batch_size(),
              (1.0 + 4.0 + 4.0 + 32.0 + 33.0) / 5.0, 1e-12);
  EXPECT_NE(s.to_json().find("\"dispatched\":5"), std::string::npos);
  EXPECT_NE(s.to_string().find("dispatched=5"), std::string::npos);
}

TEST(Metrics, MeanBatchSizeOfZeroBatchesIsZero) {
  EXPECT_EQ(ServiceMetrics().snapshot().mean_batch_size(), 0.0);
}

TEST_F(ServeTest, DispatcherBatchSizesLandInTheDistribution) {
  // One dispatcher, dispatch held, six queued requests, max_batch 4: resume
  // must produce exactly one batch of 4 and one of 2 — the distribution the
  // ROADMAP's adaptive-sizing work will tune against.
  ServiceConfig cfg;
  cfg.dispatcher_threads = 1;
  cfg.max_batch = 4;
  cfg.queue_capacity = 16;
  cfg.start_paused = true;
  PredictionService service(*pddl_, cfg);
  std::vector<std::future<ServeResult>> futs;
  for (int i = 0; i < 6; ++i) {
    futs.push_back(service.submit(make_request("resnet18")));
  }
  service.resume();
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  const MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.batches_dispatched, 2u);
  EXPECT_EQ(m.batch_size_counts[3], 1u);  // one batch of 4
  EXPECT_EQ(m.batch_size_counts[1], 1u);  // one batch of 2
  EXPECT_DOUBLE_EQ(m.mean_batch_size(), 3.0);
}

// ---- AdaptiveBatchSizer unit coverage (pure: time injected via note_*) ----

TEST(AdaptiveBatchSizer, ColdSizerScalesWithQueueDepthOnly) {
  AdaptiveBatchSizer sizer(AdaptiveBatchConfig{8, 0.2, 0.5});
  // No estimates yet: choose() is the drain term alone, floored at 1.
  EXPECT_EQ(sizer.choose(0), 1u);
  EXPECT_EQ(sizer.choose(1), 1u);   // ceil(0.5)
  EXPECT_EQ(sizer.choose(4), 2u);   // ceil(2.0)
  EXPECT_EQ(sizer.choose(9), 5u);   // ceil(4.5)
  EXPECT_EQ(sizer.choose(100), 8u);  // clamped to max_batch
  EXPECT_EQ(sizer.arrival_rate_hz(), 0.0);
  EXPECT_EQ(sizer.batch_service_s(), 0.0);
}

TEST(AdaptiveBatchSizer, SteadyTraceStaysNarrowBurstyTraceWidens) {
  const AdaptiveBatchConfig cfg{8, 0.2, 0.5};
  // Steady 10 Hz trace with 2 ms batches: work expected per batch is
  // 0.002/0.1 = 0.02 — an empty queue gets single-request dispatches.
  AdaptiveBatchSizer steady(cfg);
  for (int i = 0; i < 50; ++i) steady.note_arrival(0.1 * i);
  for (int i = 0; i < 10; ++i) steady.note_batch(0.002);
  EXPECT_EQ(steady.choose(0), 1u);
  EXPECT_NEAR(steady.arrival_rate_hz(), 10.0, 1e-6);
  EXPECT_NEAR(steady.batch_service_s(), 0.002, 1e-12);

  // Bursty 1 kHz trace with 4 ms batches: λ̂·Ŝ = 4 requests arrive while a
  // batch runs, so even an empty queue dispatches wide.
  AdaptiveBatchSizer bursty(cfg);
  for (int i = 0; i < 50; ++i) bursty.note_arrival(0.001 * i);
  for (int i = 0; i < 10; ++i) bursty.note_batch(0.004);
  EXPECT_EQ(bursty.choose(0), 4u);
  EXPECT_EQ(bursty.choose(8), 8u);  // 4 + 0.5·8 = 8
  EXPECT_GT(bursty.choose(0), steady.choose(0));
}

TEST(AdaptiveBatchSizer, MonotoneInQueueDepthAndClamped) {
  AdaptiveBatchSizer sizer(AdaptiveBatchConfig{6, 0.2, 0.5});
  for (int i = 0; i < 20; ++i) sizer.note_arrival(0.01 * i);
  for (int i = 0; i < 5; ++i) sizer.note_batch(0.003);
  std::size_t prev = 0;
  for (std::size_t d = 0; d <= 64; ++d) {
    const std::size_t n = sizer.choose(d);
    EXPECT_GE(n, 1u);
    EXPECT_LE(n, 6u);
    EXPECT_GE(n, prev) << "choose() not monotone at depth " << d;
    prev = n;
  }
  EXPECT_EQ(sizer.choose(64), 6u);  // deep backlog saturates the clamp
}

TEST(AdaptiveBatchSizer, IgnoresDegenerateObservations) {
  AdaptiveBatchSizer sizer(AdaptiveBatchConfig{8, 0.2, 0.5});
  sizer.note_batch(0.0);    // dropped
  sizer.note_batch(-1.0);   // dropped
  EXPECT_EQ(sizer.batch_service_s(), 0.0);
  sizer.note_arrival(5.0);
  sizer.note_arrival(5.0);  // zero gap clamps, does not divide by zero
  EXPECT_GT(sizer.arrival_rate_hz(), 0.0);
  EXPECT_LE(sizer.choose(0), 8u);
}

// ---- batched miss path ----

// The batched and one-at-a-time miss paths must cache bit-identical
// embeddings: embed_batch_into is bit-compatible with embed_into, so the
// only difference is how many forward passes one dispatch pays for.
TEST_F(ServeTest, BatchedAndSequentialMissPathsCacheIdenticalEmbeddings) {
  const std::vector<std::string> models = {"alexnet", "resnet18", "vgg11",
                                           "densenet121", "squeezenet1_1"};
  ServiceConfig seq_cfg;
  seq_cfg.dispatcher_threads = 1;
  seq_cfg.max_batch = 1;  // every miss embeds alone
  PredictionService sequential(*pddl_, seq_cfg);
  for (const std::string& m : models) {
    ASSERT_TRUE(sequential.predict(make_request(m)).ok());
  }

  ServiceConfig batch_cfg;
  batch_cfg.dispatcher_threads = 1;
  batch_cfg.max_batch = 8;
  batch_cfg.start_paused = true;  // queue everything, then one dispatch
  PredictionService batched(*pddl_, batch_cfg);
  std::vector<std::future<ServeResult>> futs;
  for (const std::string& m : models) {
    futs.push_back(batched.submit(make_request(m)));
  }
  batched.resume();
  std::vector<ServeResult> results;
  for (auto& f : futs) results.push_back(f.get());
  for (const ServeResult& r : results) ASSERT_TRUE(r.ok()) << r.error;

  // One batched pass covered all five unique graphs...
  const MetricsSnapshot bm = batched.metrics();
  EXPECT_EQ(bm.embed_batches, 1u);
  EXPECT_EQ(bm.embed_batch_graphs, models.size());
  EXPECT_EQ(bm.cache_misses, models.size());
  // ...and the cached embeddings are bit-identical to the sequential path's.
  auto entries_by_fp = [](const PredictionService& s) {
    auto es = s.cache().export_entries();
    std::sort(es.begin(), es.end(),
              [](const auto& a, const auto& b) { return a.fp < b.fp; });
    return es;
  };
  const auto seq_entries = entries_by_fp(sequential);
  const auto bat_entries = entries_by_fp(batched);
  ASSERT_EQ(seq_entries.size(), models.size());
  ASSERT_EQ(bat_entries.size(), models.size());
  for (std::size_t i = 0; i < seq_entries.size(); ++i) {
    EXPECT_EQ(seq_entries[i].fp, bat_entries[i].fp);
    EXPECT_EQ(seq_entries[i].embedding, bat_entries[i].embedding)
        << "embedding for fp " << seq_entries[i].fp
        << " differs between batched and sequential miss paths";
  }
}

TEST_F(ServeTest, DuplicateMissesInOneDispatchAreCoalesced) {
  ServiceConfig cfg;
  cfg.dispatcher_threads = 1;
  cfg.max_batch = 8;
  cfg.start_paused = true;
  PredictionService service(*pddl_, cfg);
  std::vector<std::future<ServeResult>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(service.submit(make_request("resnet18")));
  for (int i = 0; i < 2; ++i) futs.push_back(service.submit(make_request("vgg11")));
  service.resume();
  std::vector<ServeResult> results;
  for (auto& f : futs) results.push_back(f.get());
  for (const ServeResult& r : results) ASSERT_TRUE(r.ok()) << r.error;
  // Duplicates share their representative's forward pass but still count as
  // misses (they probed the cache and missed), so the accounting identity
  // completed == cache_hits + cache_misses holds.
  const MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.completed, 6u);
  EXPECT_EQ(m.cache_hits, 0u);
  EXPECT_EQ(m.cache_misses, 6u);
  EXPECT_EQ(m.embed_batches, 1u);
  EXPECT_EQ(m.embed_batch_graphs, 2u);  // one pass, two unique graphs
  EXPECT_EQ(m.embed_coalesced, 4u);
  EXPECT_EQ(m.embed_batch_size_counts[1], 1u);  // width-2 pass
  EXPECT_DOUBLE_EQ(m.mean_embed_batch_width(), 2.0);
  EXPECT_EQ(m.cache_entries, 2u);
  // All four resnet18 requests saw the same embedding → same prediction.
  for (int i = 1; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(results[i].response.predicted_time_s,
                     results[0].response.predicted_time_s);
  }
}

TEST_F(ServeTest, AdaptiveBatchingServesMixedTrafficConsistently) {
  ServiceConfig cfg;
  cfg.dispatcher_threads = 2;
  cfg.max_batch = 8;
  cfg.adaptive_batch = true;
  cfg.queue_capacity = 512;
  PredictionService service(*pddl_, cfg);
  const std::vector<std::string> models = {"alexnet", "resnet18", "vgg11",
                                           "densenet121"};
  std::vector<std::future<ServeResult>> futs;
  for (int i = 0; i < 64; ++i) {
    futs.push_back(service.submit(make_request(models[i % models.size()],
                                               (i % 2 == 0) ? 4 : 8)));
  }
  int ok = 0;
  for (auto& f : futs) ok += f.get().ok() ? 1 : 0;
  EXPECT_EQ(ok, 64);
  const MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.completed, 64u);
  EXPECT_EQ(m.cache_hits + m.cache_misses, m.completed);
  EXPECT_GT(m.adaptive_decisions, 0u);
  EXPECT_GE(m.mean_adaptive_choice(), 1.0);
  EXPECT_LE(m.mean_adaptive_choice(), 8.0);
  // The sizer's gauges surface through the snapshot (arrival EMA warms
  // after the second admitted request).
  EXPECT_GT(m.adaptive_arrival_hz, 0.0);
  const std::string text = m.to_string();
  EXPECT_NE(text.find("adaptive"), std::string::npos);
  EXPECT_NE(m.to_json().find("\"adaptive\""), std::string::npos);
}

TEST(Metrics, EmbedBatchTelemetryTracksWidthsAndCoalescing) {
  ServiceMetrics m;
  m.record_embed_batch(4, 2);
  m.record_embed_batch(1, 0);
  m.record_embed_batch(kMaxTrackedBatchSize + 9, 0);  // overflow slot
  m.record_embed_batch(0, 5);                         // dropped
  const MetricsSnapshot s = m.snapshot();
  EXPECT_EQ(s.embed_batches, 3u);
  EXPECT_EQ(s.embed_batch_graphs, 4u + 1u + kMaxTrackedBatchSize + 9u);
  EXPECT_EQ(s.embed_coalesced, 2u);
  EXPECT_EQ(s.embed_batch_size_counts[3], 1u);
  EXPECT_EQ(s.embed_batch_size_counts[0], 1u);
  EXPECT_EQ(s.embed_batch_size_counts[kMaxTrackedBatchSize], 1u);
  EXPECT_NE(s.to_json().find("\"embed_batch\""), std::string::npos);
  EXPECT_NE(s.to_string().find("embed_batch"), std::string::npos);
}

TEST(Metrics, SnapshotRendersKeyFields) {
  ServiceMetrics m;
  m.submitted.store(10);
  m.completed.store(8);
  m.cache_hits.store(6);
  m.cache_misses.store(2);
  m.e2e_ms.record(1.0);
  const std::string text = m.snapshot().to_string();
  EXPECT_NE(text.find("submitted=10"), std::string::npos);
  EXPECT_NE(text.find("cache_hit_rate=0.750000"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
}

TEST(ServeStatus, ToStringCoversAllStatuses) {
  EXPECT_STREQ(to_string(ServeStatus::kOk), "ok");
  EXPECT_STREQ(to_string(ServeStatus::kRejectedQueueFull),
               "rejected_queue_full");
  EXPECT_STREQ(to_string(ServeStatus::kUntrainedDataset),
               "untrained_dataset");
  EXPECT_STREQ(to_string(ServeStatus::kDeadlineExceeded), "deadline_exceeded");
  EXPECT_STREQ(to_string(ServeStatus::kShutdown), "shutdown");
  EXPECT_STREQ(to_string(ServeStatus::kError), "error");
}

}  // namespace
}  // namespace pddl::serve
