// Coverage for the {fine-tune the GHN → refit} plans of the feedback
// controller's update pipeline.
//
// All tests run over a token-resolution engine (GHN trained on wikitext103,
// regressor fitted on a gpt-only campaign) so the bert family is genuinely
// held out: its observations strain the frozen embedding, fire the
// per-family ghn_drift signal, and the controller fine-tunes + hot-swaps a
// new GHN generation.  The suite asserts the promises the pipeline makes:
//   1. determinism — same weights + corpus + seed → bit-identical fine-tuned
//      parameters (trainer-level AND pipeline-level from a snapshot);
//   2. recovery — the drifted family's windowed error drops across the swap
//      while the in-distribution family stays within noise, with the
//      before/after pair reported through RetrainStatus;
//   3. zero-downtime swap — 16 client threads never see a failed request or
//      a stale-generation embedding while the swap lands mid-flight;
//   4. persistence — retrain state and the new GHN generation round-trip
//      through the state snapshot bit-identically;
//   5. ordering — one FIFO worker, so a refit queued behind a retrain
//      featurizes under the GHN that retrain published;
//   6. golden outputs — the post-swap checksum and predictions are pinned.
// This binary also runs under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include "graph/models.hpp"
#include "feedback/controller.hpp"

namespace pddl::feedback {
namespace {

// Small, fast options (mirrors feedback_test): tiny GHN, gpt-only campaign
// on wikitext103 — bert stays out of the regressor's training set.
core::PredictDdlOptions fast_options() {
  core::PredictDdlOptions opts;
  opts.ghn.hidden_dim = 12;
  opts.ghn.mlp_hidden = 12;
  opts.ghn_trainer.corpus_size = 10;
  opts.ghn_trainer.epochs = 4;
  opts.ghn_trainer.batch_size = 5;
  opts.ghn_trainer.darts.max_cells = 3;
  opts.campaign.models = {"gpt_tiny", "gpt_mini"};
  opts.campaign.max_servers = 6;
  opts.campaign.batch_sizes = {32};
  return opts;
}

core::PredictRequest make_request(const std::string& model, int servers = 4) {
  core::PredictRequest req;
  req.workload = {model, workload::wikitext103(), /*batch=*/32, /*epochs=*/10};
  req.cluster = cluster::make_uniform_cluster("p100", servers);
  return req;
}

// Small windows so a handful of observations crosses min_count; auto_refit
// off so the retrain loop (not the regressor refit path) owns every swap.
FeedbackConfig feedback_cfg() {
  FeedbackConfig cfg;
  cfg.auto_refit = false;
  cfg.auto_retrain = true;
  cfg.drift.window = 16;
  cfg.drift.min_count = 4;
  cfg.drift.rel_p50_threshold = 0.25;
  cfg.seed = 7;
  return cfg;
}

const FamilyErrorDelta* find_delta(const RetrainStatus& s,
                                   const std::string& family) {
  for (const FamilyErrorDelta& d : s.families) {
    if (d.family == family) return &d;
  }
  return nullptr;
}

// One engine trained once for the whole suite.  Retrains swap in new GHN
// generations, but every test measures its own before/after values at
// runtime (never against constants recorded under an earlier generation),
// so suite-level sharing stays order-independent.
class RetrainTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pool_ = new ThreadPool(8);
    sim_ = new sim::DdlSimulator();
    pddl_ = new core::PredictDdl(*sim_, *pool_, fast_options());
    pddl_->train_offline(workload::wikitext103());
  }
  static void TearDownTestSuite() {
    delete pddl_;
    delete sim_;
    delete pool_;
    pddl_ = nullptr;
    sim_ = nullptr;
    pool_ = nullptr;
  }

  // Fine-tune corpus the controller would assemble with no observations: the
  // campaign's unique graphs, sorted by structural fingerprint.
  static std::vector<graph::CompGraph> campaign_corpus() {
    std::map<std::uint64_t, graph::CompGraph> by_fp;
    for (const sim::Measurement& m :
         pddl_->training_measurements("wikitext103")) {
      const workload::DatasetDescriptor ds =
          workload::dataset_by_name(m.dataset);
      graph::CompGraph g =
          graph::build_model(m.model, ds.input, ds.num_classes);
      by_fp.emplace(ghn::structural_fingerprint(g), std::move(g));
    }
    std::vector<graph::CompGraph> corpus;
    for (const auto& [fp, g] : by_fp) corpus.push_back(g);
    return corpus;
  }

  static ThreadPool* pool_;
  static sim::DdlSimulator* sim_;
  static core::PredictDdl* pddl_;
};

ThreadPool* RetrainTest::pool_ = nullptr;
sim::DdlSimulator* RetrainTest::sim_ = nullptr;
core::PredictDdl* RetrainTest::pddl_ = nullptr;

// ---- 1. determinism ----

TEST_F(RetrainTest, FineTuneIsDeterministicGivenSeed) {
  const std::vector<graph::CompGraph> corpus = campaign_corpus();
  ASSERT_FALSE(corpus.empty());

  std::unique_ptr<ghn::Ghn2> a = pddl_->registry().clone_model("wikitext103");
  std::unique_ptr<ghn::Ghn2> b = pddl_->registry().clone_model("wikitext103");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  ghn::TrainerConfig tc;
  tc.epochs = 3;
  tc.batch_size = 4;
  tc.learning_rate = 1e-3;
  tc.seed = 123;
  const ghn::TrainReport ra = ghn::GhnTrainer(*a, tc, corpus).train(*pool_);
  const ghn::TrainReport rb = ghn::GhnTrainer(*b, tc, corpus).train(*pool_);

  // Same weights, corpus, and seed → bit-identical fine-tuned parameters
  // (the checksum covers config + every weight byte)...
  EXPECT_EQ(ghn::ghn_checksum(*a), ghn::ghn_checksum(*b));
  EXPECT_EQ(ra.final_loss, rb.final_loss);
  EXPECT_EQ(ra.epochs_run, rb.epochs_run);
  // ...and training genuinely moved off the live generation.
  EXPECT_NE(ghn::ghn_checksum(*a),
            pddl_->registry().model_checksum("wikitext103"));

  // A different seed shuffles minibatches differently: distinct weights.
  std::unique_ptr<ghn::Ghn2> c = pddl_->registry().clone_model("wikitext103");
  tc.seed = 124;
  ghn::GhnTrainer(*c, tc, corpus).train(*pool_);
  EXPECT_NE(ghn::ghn_checksum(*c), ghn::ghn_checksum(*a));
}

// ---- 2. the acceptance demo: drift → retrain → recovery ----

TEST_F(RetrainTest, GhnDriftRetrainsAndRecoversTheDriftedFamily) {
  serve::PredictionService service(*pddl_);
  FeedbackController fb(service, *pddl_, feedback_cfg());

  const std::uint64_t checksum_before =
      pddl_->registry().model_checksum("wikitext103");

  // Prime the embedding cache and record the pre-swap serving state.
  const core::PredictRequest gpt = make_request("gpt_tiny");
  const core::PredictRequest bert = make_request("bert_tiny");
  const double gpt_live = service.predict(gpt).response.predicted_time_s;
  const double bert_live = service.predict(bert).response.predicted_time_s;
  ASSERT_GT(gpt_live, 0.0);
  ASSERT_GT(bert_live, 0.0);
  const serve::MetricsSnapshot primed = service.metrics();
  EXPECT_TRUE(service.predict(bert).cache_hit);  // cached under old GHN

  // Ground truth the loop must converge to: bert is 3× off, gpt is spot on.
  const double bert_truth = 3.0 * bert_live;

  // In-distribution gpt reports accurate measurements (the clean peer);
  // the held-out bert family drifts and fires exactly one retrain.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fb.observe(gpt, gpt_live).accepted);
  }
  bool ghn_drift_seen = false;
  bool retrain_seen = false;
  for (int i = 0; i < 4; ++i) {
    const ObserveOutcome o = fb.observe(bert, bert_truth);
    ASSERT_TRUE(o.accepted) << o.reason;
    ghn_drift_seen = ghn_drift_seen || o.ghn_drift;
    retrain_seen = retrain_seen || o.retrain_triggered;
  }
  EXPECT_TRUE(ghn_drift_seen);
  EXPECT_TRUE(retrain_seen);

  fb.wait_idle();
  RetrainStatus s = fb.retrain_status();
  EXPECT_EQ(s.generation, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.last_dataset, "wikitext103");
  EXPECT_EQ(s.last_family, "bert");
  EXPECT_GT(s.last_corpus_graphs, 0u);
  EXPECT_GE(s.last_family_graphs, 1u);  // bert_tiny joined the corpus
  EXPECT_GT(s.last_epochs_run, 0);
  EXPECT_TRUE(s.last_error.empty()) << s.last_error;

  // The swap replaced the GHN generation...
  EXPECT_NE(s.live_checksum, 0u);
  EXPECT_NE(s.live_checksum, checksum_before);
  EXPECT_EQ(s.live_checksum, pddl_->registry().model_checksum("wikitext103"));

  // ...and invalidated every old-generation embedding: the re-predict below
  // is a cache MISS (purged), not a hit against stale bytes, and no stale
  // entry was ever served (the checksum-keyed get would count a drop).
  const serve::ServeResult post = service.predict(bert);
  ASSERT_TRUE(post.ok()) << post.error;
  EXPECT_FALSE(post.cache_hit);
  const serve::MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.ghn_drift_events, 1u);
  EXPECT_EQ(m.retrains_started, 1u);
  EXPECT_EQ(m.retrains_completed, 1u);
  EXPECT_EQ(m.retrains_failed, 0u);
  EXPECT_EQ(m.ghn_swaps, 1u);
  EXPECT_EQ(m.engine_swaps, 1u);  // the regressor refit rode along
  EXPECT_EQ(m.cache_stale_drops, 0u);  // zero stale embeddings served
  EXPECT_GT(m.cache_misses, primed.cache_misses);

  // Recovery: replay the same ground truth against the new generation.  The
  // drifted family's windowed error drops measurably; the clean family
  // stays within the drift threshold.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fb.observe(bert, bert_truth).accepted);
    ASSERT_TRUE(fb.observe(gpt, gpt_live).accepted);
  }
  s = fb.retrain_status();
  const FamilyErrorDelta* bd = find_delta(s, "bert");
  const FamilyErrorDelta* gd = find_delta(s, "gpt");
  ASSERT_NE(bd, nullptr);
  ASSERT_NE(gd, nullptr);
  EXPECT_EQ(bd->before.count, 4u);
  EXPECT_NEAR(bd->before.p50_rel, 2.0 / 3.0, 1e-9);  // 3× off pre-swap
  EXPECT_EQ(bd->after.count, 4u);
  EXPECT_LT(bd->after.p50_rel, 0.5 * bd->before.p50_rel);  // measurable drop
  EXPECT_LT(gd->after.p50_rel, 0.25);  // clean peer stays within noise

  // The drift latch re-armed at the swap: no second retrain fired from the
  // post-swap observations (bert's new window no longer drifts).
  EXPECT_EQ(fb.retrain_status().started, 1u);
}

TEST_F(RetrainTest, RetrainOfUnknownDatasetFailsCleanly) {
  serve::PredictionService service(*pddl_);
  FeedbackController fb(service, *pddl_, feedback_cfg());

  ASSERT_TRUE(fb.request_retrain("no_such_dataset", "bert"));
  fb.wait_idle();
  const RetrainStatus s = fb.retrain_status();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.generation, 0u);
  EXPECT_NE(s.last_error.find("no_such_dataset"), std::string::npos);
  EXPECT_EQ(service.metrics().retrains_failed, 1u);
  EXPECT_EQ(service.metrics().ghn_swaps, 0u);

  // The failure left serving untouched.
  EXPECT_TRUE(service.predict(make_request("gpt_tiny")).ok());
}

// ---- 3. zero-downtime swap under 16 concurrent client threads ----

TEST_F(RetrainTest, MidFlightSwapServesEveryRequestWithNoStaleEmbedding) {
  serve::ServiceConfig scfg;
  scfg.dispatcher_threads = 4;
  scfg.queue_capacity = 4096;
  serve::PredictionService service(*pddl_, scfg);
  FeedbackController fb(service, *pddl_, feedback_cfg());

  constexpr int kThreads = 16;
  constexpr int kPerThread = 40;
  const std::vector<std::string> models = {"gpt_tiny", "gpt_mini",
                                           "bert_tiny", "bert_mini"};
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto& model = models[(t + i) % models.size()];
        const serve::ServeResult r =
            service.predict(make_request(model, (i % 2) ? 4 : 8));
        if (r.ok() && r.response.predicted_time_s > 0.0) ok.fetch_add(1);
      }
    });
  }

  // Fire the fine-tune + hot-swap while the 16 threads are in flight.
  ASSERT_TRUE(fb.request_retrain("wikitext103", "bert"));
  fb.wait_idle();
  for (auto& c : clients) c.join();

  EXPECT_EQ(ok.load(), kThreads * kPerThread);  // zero failed requests
  const RetrainStatus s = fb.retrain_status();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_GE(s.generation, 1u);

  const serve::MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.completed, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(m.errors, 0u);
  EXPECT_EQ(m.ghn_swaps, 1u);

  // No embedding is served under a stale ghn_checksum: every post-swap
  // prediction equals a from-scratch recompute under the CURRENT registry
  // GHN and installed engine, bit for bit.  (A stale cached embedding — or
  // an old-generation insert surviving the purge — would shift the serving
  // value off this reference.)
  for (const std::string& model : models) {
    const core::PredictRequest req = make_request(model);
    const serve::ServeResult r = service.predict(req);
    ASSERT_TRUE(r.ok()) << r.error;
    const double fresh = pddl_->predict_from_features(
        "wikitext103", pddl_->features().build(req.workload, req.cluster));
    EXPECT_DOUBLE_EQ(r.response.predicted_time_s, fresh) << model;
  }
}

// ---- 4. persistence: snapshot round-trip of the swapped generation ----

TEST_F(RetrainTest, SnapshotRoundTripsRetrainStateAndNewGeneration) {
  const auto dir =
      std::filesystem::temp_directory_path() / "pddl_retrain_state";
  std::filesystem::remove_all(dir);

  RetrainStatus saved;
  std::uint64_t saved_checksum = 0;
  {
    serve::PredictionService service(*pddl_);
    FeedbackController fb(service, *pddl_, feedback_cfg());

    // One full drift → retrain cycle so there is real state to persist.
    const core::PredictRequest gpt = make_request("gpt_tiny");
    const core::PredictRequest bert = make_request("bert_tiny");
    const double gpt_live = service.predict(gpt).response.predicted_time_s;
    const double bert_live = service.predict(bert).response.predicted_time_s;
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(fb.observe(gpt, gpt_live).accepted);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(fb.observe(bert, 3.0 * bert_live).accepted);
    }
    fb.wait_idle();
    saved = fb.retrain_status();
    ASSERT_EQ(saved.completed, 1u);
    saved_checksum = pddl_->registry().model_checksum("wikitext103");
    ASSERT_EQ(saved.live_checksum, saved_checksum);

    pddl_->save_state(dir.string(),
                      [&](io::SnapshotWriter& snap) { fb.save(snap); });
  }

  // Fresh process: the restored registry serves the SWAPPED GHN generation
  // bit-identically, and the restored controller reports the same history.
  {
    ThreadPool pool(4);
    sim::DdlSimulator sim;
    core::PredictDdl restored(sim, pool, fast_options());
    restored.load_state(dir.string());
    EXPECT_EQ(restored.registry().model_checksum("wikitext103"),
              saved_checksum);

    serve::PredictionService service(restored);
    FeedbackController fb(service, restored, feedback_cfg());
    EXPECT_EQ(fb.load(io::SnapshotReader(dir.string() + "/state.pddl")), 8u);

    const RetrainStatus s = fb.retrain_status();
    EXPECT_EQ(s.generation, saved.generation);
    EXPECT_EQ(s.started, saved.started);
    EXPECT_EQ(s.completed, saved.completed);
    EXPECT_EQ(s.failed, saved.failed);
    EXPECT_EQ(s.last_dataset, saved.last_dataset);
    EXPECT_EQ(s.last_family, saved.last_family);
    EXPECT_EQ(s.last_corpus_graphs, saved.last_corpus_graphs);
    EXPECT_EQ(s.last_family_graphs, saved.last_family_graphs);
    EXPECT_EQ(s.last_epochs_run, saved.last_epochs_run);
    EXPECT_EQ(s.last_final_loss, saved.last_final_loss);
    EXPECT_EQ(s.live_checksum, saved_checksum);
    ASSERT_EQ(s.families.size(), saved.families.size());
    const FamilyErrorDelta* bd = find_delta(s, "bert");
    const FamilyErrorDelta* sbd = find_delta(saved, "bert");
    ASSERT_NE(bd, nullptr);
    ASSERT_NE(sbd, nullptr);
    EXPECT_EQ(bd->before.count, sbd->before.count);
    EXPECT_EQ(bd->before.p50_rel, sbd->before.p50_rel);
    EXPECT_EQ(bd->before.mean_abs_s, sbd->before.mean_abs_s);
  }

  // A pre-retrain snapshot (no section) loads as "nothing to restore".
  {
    ThreadPool pool(2);
    sim::DdlSimulator sim;
    core::PredictDdl plain(sim, pool, fast_options());
    const auto plain_dir =
        std::filesystem::temp_directory_path() / "pddl_retrain_plain";
    std::filesystem::remove_all(plain_dir);
    pddl_->save_state(plain_dir.string());  // no extra sections
    plain.load_state(plain_dir.string());
    serve::PredictionService service(plain);
    FeedbackController fb(service, plain);
    EXPECT_EQ(fb.load(io::SnapshotReader(plain_dir.string() + "/state.pddl")),
              0u);
    EXPECT_EQ(fb.retrain_status().generation, 0u);
    std::filesystem::remove_all(plain_dir);
  }
  std::filesystem::remove_all(dir);
}

// Pipeline-level determinism: two retrains launched from the SAME snapshot
// and the same seed swap in bit-identical GHN generations (satellite promise:
// reruns are reproducible end to end, not just inside the trainer).
TEST_F(RetrainTest, TwoRetrainsFromSameSnapshotAreBitIdentical) {
  const auto dir =
      std::filesystem::temp_directory_path() / "pddl_retrain_det";
  std::filesystem::remove_all(dir);
  pddl_->save_state(dir.string());

  std::uint64_t checksums[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    ThreadPool pool(4);
    sim::DdlSimulator sim;
    core::PredictDdl engine(sim, pool, fast_options());
    engine.load_state(dir.string());
    serve::PredictionService service(engine);
    FeedbackController fb(service, engine, feedback_cfg());
    ASSERT_TRUE(fb.request_retrain("wikitext103", "bert"));
    fb.wait_idle();
    const RetrainStatus s = fb.retrain_status();
    ASSERT_EQ(s.completed, 1u) << s.last_error;
    checksums[run] = engine.registry().model_checksum("wikitext103");
    ASSERT_NE(checksums[run], 0u);
  }
  EXPECT_EQ(checksums[0], checksums[1]);
  std::filesystem::remove_all(dir);
}

// ---- 5. ordering: one worker runs plans in FIFO order ----

// A refit requested while a retrain of the same dataset is queued or running
// runs after it, so it featurizes under the GHN the retrain published: the
// served prediction equals a fresh fit on rows built under the LIVE GHN.
// While either plan is pending, a second request of its key is refused.
TEST_F(RetrainTest, RefitQueuedBehindRetrainFeaturizesUnderTheNewGhn) {
  serve::PredictionService service(*pddl_);
  FeedbackController fb(service, *pddl_, feedback_cfg());
  const std::uint64_t before = pddl_->registry().model_checksum("wikitext103");

  ASSERT_TRUE(fb.request_retrain("wikitext103", "bert"));
  ASSERT_TRUE(fb.request_refit("wikitext103"));
  EXPECT_FALSE(fb.request_retrain("wikitext103", "bert"));
  EXPECT_FALSE(fb.request_refit("wikitext103"));
  fb.wait_idle();

  const serve::MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.ghn_swaps, 1u);
  EXPECT_EQ(m.engine_swaps, 2u);  // the retrain's regressor, then the refit
  EXPECT_EQ(fb.retrain_status().completed, 1u);
  EXPECT_EQ(fb.status().completed, 1u);
  EXPECT_NE(pddl_->registry().model_checksum("wikitext103"), before);

  // No observations were logged, so the refit's rows are the campaign alone.
  const std::shared_ptr<core::InferenceEngine> expected =
      pddl_->fit_fresh_engine(pddl_->features().build_dataset(
          pddl_->training_measurements("wikitext103")));
  for (const char* model : {"gpt_tiny", "bert_tiny"}) {
    const core::PredictRequest req = make_request(model);
    const serve::ServeResult r = service.predict(req);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.response.predicted_time_s,
              expected->predict(
                  pddl_->features().build(req.workload, req.cluster)))
        << model;
  }
}

// ---- 6. golden fixture: the update pipeline's output, pinned ----

// The acceptance demo's drift → fine-tune → refit → publish sequence on an
// engine of its own (the suite's shared engine carries earlier tests' GHN
// generations), with its outputs pinned bit-exactly: the post-swap GHN
// checksum and the post-swap predictions of both families.  Refactors of
// the update pipeline must leave every literal unchanged.
TEST_F(RetrainTest, GoldenRetrainPinsChecksumAndPostSwapPredictions) {
  ThreadPool pool(8);
  sim::DdlSimulator sim;
  core::PredictDdl engine(sim, pool, fast_options());
  engine.train_offline(workload::wikitext103());
  serve::PredictionService service(engine);
  FeedbackController fb(service, engine, feedback_cfg());

  const core::PredictRequest gpt = make_request("gpt_tiny");
  const core::PredictRequest bert = make_request("bert_tiny");
  const double gpt_live = service.predict(gpt).response.predicted_time_s;
  const double bert_live = service.predict(bert).response.predicted_time_s;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(fb.observe(gpt, gpt_live).accepted);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fb.observe(bert, 3.0 * bert_live).accepted);
  }
  fb.wait_idle();
  ASSERT_EQ(service.metrics().ghn_swaps, 1u);

  EXPECT_EQ(engine.registry().model_checksum("wikitext103"),
            0x92109a32a2d9b624ULL);
  EXPECT_EQ(service.predict(bert).response.predicted_time_s,
            2469.437675102201);
  EXPECT_EQ(service.predict(gpt).response.predicted_time_s,
            3446.0392937438528);
}

}  // namespace
}  // namespace pddl::feedback
