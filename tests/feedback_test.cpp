// Coverage for the src/feedback/ subsystem, in three layers.
//
// ObservationLog: bounded append semantics, bit-exact save/load through the
// snapshot container, and the adversarial promise mirrored from io_test —
// every-byte corruption and truncation at every offset surface as clean
// pddl::Error, never as garbage records.
//
// DriftDetector: the sliding-window median rule fires only past the
// configured threshold with the min-count gate, recovers when the window
// refills with small errors, and reset() forgets the old model's errors.
//
// FeedbackController (over a real trained engine + PredictionService):
// observe() scores against the live serving path, rejects unscorable
// measurements, drift auto-triggers a background refit that hot-swaps the
// regressor with zero failed predictions under 16 concurrent client
// threads, and a warm restart restores both the observation log and the
// refitted regressor bit-identically.  This binary also runs under
// ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "feedback/controller.hpp"
#include "io/snapshot.hpp"

namespace pddl::feedback {
namespace {

core::PredictRequest make_request(const std::string& model, int servers = 4,
                                  const std::string& sku = "p100") {
  core::PredictRequest req;
  req.workload = {model, workload::cifar10(), /*batch=*/64, /*epochs=*/10};
  req.cluster = cluster::make_uniform_cluster(sku, servers);
  return req;
}

Observation make_observation(const std::string& model, double measured_s,
                             int servers = 4) {
  Observation obs;
  obs.request = make_request(model, servers);
  obs.measured_s = measured_s;
  obs.predicted_s = measured_s * 0.5;
  return obs;
}

// ---- ObservationLog: append semantics ----

TEST(ObservationLog, AppendAssignsMonotoneSeqAndBoundsCapacity) {
  ObservationLog log(/*capacity=*/4);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(log.append(make_observation("alexnet", 100.0 + i)),
              static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(log.size(), 4u);             // oldest three evicted
  EXPECT_EQ(log.total_appended(), 7u);   // lifetime count survives eviction
  const auto records = log.snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, 3u + i);   // the four newest, in order
    EXPECT_EQ(records[i].measured_s, 103.0 + static_cast<double>(i));
  }
}

TEST(ObservationLog, RejectsZeroCapacity) {
  EXPECT_THROW(ObservationLog(0), Error);
}

TEST(ObservationLog, ForDatasetFiltersByWorkloadDataset) {
  ObservationLog log(8);
  log.append(make_observation("alexnet", 10.0));
  Observation other = make_observation("resnet18", 20.0);
  other.request.workload.dataset = workload::tiny_imagenet();
  log.append(std::move(other));
  log.append(make_observation("vgg11", 30.0));

  const auto cifar = log.for_dataset("cifar10");
  ASSERT_EQ(cifar.size(), 2u);
  EXPECT_EQ(cifar[0].request.workload.model, "alexnet");
  EXPECT_EQ(cifar[1].request.workload.model, "vgg11");
  EXPECT_EQ(log.for_dataset("tiny_imagenet").size(), 1u);
  EXPECT_TRUE(log.for_dataset("no_such_dataset").empty());
}

// ---- ObservationLog: persistence ----

// ObservationLog holds a mutex, so helpers fill a caller-owned instance.
void populate_log(ObservationLog& log) {
  log.append(make_observation("alexnet", 123.5, 2));
  log.append(make_observation("resnet18", 2048.25, 8));
  Observation tuned = make_observation("vgg11", 777.0, 3);
  tuned.request.cluster.servers[1].cpu_availability = 0.375;
  tuned.request.cluster.nfs_bw_bps = 9.87e8;
  tuned.request.workload.dataset.size_bytes = 123456789;
  log.append(std::move(tuned));
}

void expect_logs_identical(const ObservationLog& a, const ObservationLog& b) {
  EXPECT_EQ(a.total_appended(), b.total_appended());
  const auto ra = a.snapshot();
  const auto rb = b.snapshot();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].seq, rb[i].seq);
    EXPECT_EQ(ra[i].measured_s, rb[i].measured_s);
    EXPECT_EQ(ra[i].predicted_s, rb[i].predicted_s);
    EXPECT_EQ(ra[i].request.workload.model, rb[i].request.workload.model);
    EXPECT_EQ(ra[i].request.workload.dataset.name,
              rb[i].request.workload.dataset.name);
    EXPECT_EQ(ra[i].request.workload.dataset.size_bytes,
              rb[i].request.workload.dataset.size_bytes);
    ASSERT_EQ(ra[i].request.cluster.servers.size(),
              rb[i].request.cluster.servers.size());
    for (std::size_t s = 0; s < ra[i].request.cluster.servers.size(); ++s) {
      EXPECT_EQ(ra[i].request.cluster.servers[s].sku,
                rb[i].request.cluster.servers[s].sku);
      EXPECT_EQ(ra[i].request.cluster.servers[s].cpu_availability,
                rb[i].request.cluster.servers[s].cpu_availability);
    }
    EXPECT_EQ(ra[i].request.cluster.nfs_bw_bps,
              rb[i].request.cluster.nfs_bw_bps);
  }
}

TEST(ObservationLog, SaveLoadRoundTripsBitExact) {
  ObservationLog log(16);
  populate_log(log);
  const auto path = std::filesystem::temp_directory_path() / "pddl_obs.pddl";
  std::filesystem::remove(path);
  log.save_file(path.string());

  ObservationLog restored(16);
  restored.load_file(path.string());
  expect_logs_identical(log, restored);

  // Sequence numbering continues where the saved log left off.
  EXPECT_EQ(restored.append(make_observation("alexnet", 1.0)), 3u);
  std::filesystem::remove(path);
}

TEST(ObservationLog, LoadIntoSmallerCapacityTrimsOldestFirst) {
  ObservationLog log(16);
  populate_log(log);
  std::ostringstream os;
  {
    io::SnapshotWriter snap;
    log.save(snap.add("observations"));
    snap.save(os);
  }
  std::istringstream is(os.str());
  const io::SnapshotReader snap(is, "test");
  ObservationLog small(2);
  io::BinaryReader r = snap.reader("observations");
  small.load(r);
  EXPECT_EQ(small.size(), 2u);
  EXPECT_EQ(small.total_appended(), 3u);
  const auto records = small.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].request.workload.model, "resnet18");  // oldest dropped
  EXPECT_EQ(records[1].request.workload.model, "vgg11");
}

std::string valid_log_bytes() {
  ObservationLog log(16);
  populate_log(log);
  std::ostringstream os;
  io::SnapshotWriter snap;
  log.save(snap.add("observations"));
  snap.save(os);
  return os.str();
}

TEST(ObservationLog, AnyCorruptedByteRejected) {
  const std::string bytes = valid_log_bytes();
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x01);
    EXPECT_THROW(
        {
          std::istringstream is(mutated);
          const io::SnapshotReader snap(is, "test");
          ObservationLog log(16);
          io::BinaryReader r = snap.reader("observations");
          log.load(r);
        },
        Error)
        << "byte " << pos;
  }
}

TEST(ObservationLog, TruncationAtEveryOffsetRejected) {
  const std::string bytes = valid_log_bytes();
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    EXPECT_THROW(
        {
          std::istringstream is(bytes.substr(0, keep));
          const io::SnapshotReader snap(is, "test");
          ObservationLog log(16);
          io::BinaryReader r = snap.reader("observations");
          log.load(r);
        },
        Error)
        << "kept " << keep;
  }
}

TEST(ObservationLog, WrongMagicAndVersionRejected) {
  std::ostringstream os;
  {
    io::SnapshotWriter snap;
    io::BinaryWriter& w = snap.add("observations");
    w.magic(kObservationMagic);
    w.u32(kObservationLogVersion + 1);  // future version
    w.u64(0);
    w.u32(0);
    snap.save(os);
  }
  std::istringstream is(os.str());
  const io::SnapshotReader snap(is, "test");
  ObservationLog log(4);
  try {
    io::BinaryReader r = snap.reader("observations");
    log.load(r);
    FAIL() << "expected version check to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

// FNV-1a (64-bit): one number that changes if any byte of a section does.
std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// The v2 "observations" payload, pinned byte for byte: recorded while the
// log was still written field by field.  A change here is a format change
// and needs a kObservationLogVersion bump.
TEST(ObservationLog, GoldenSectionIsByteStable) {
  ObservationLog log(16);
  populate_log(log);
  Observation piped = make_observation("resnet50", 64.5, 2);
  piped.request.workload.parallelism =
      workload::ParallelismSpec::pipeline(4, 8);
  log.append(std::move(piped));
  std::string bytes;
  io::BinaryWriter w(bytes);
  log.save(w);
  EXPECT_EQ(bytes.size(), 1789u);
  EXPECT_EQ(fnv1a64(bytes), 0x7d442b2dd899016aull);

  ObservationLog restored(16);
  io::BinaryReader r(bytes, "golden observations");
  restored.load(r);
  EXPECT_TRUE(r.at_end());
  expect_logs_identical(log, restored);
  EXPECT_EQ(restored.snapshot().back().request.workload.parallelism.key(),
            "pp4x8");
  std::string again;
  io::BinaryWriter w2(again);
  restored.save(w2);
  EXPECT_EQ(again, bytes);
}

// A v1 section (written before the workload carried a parallelism key),
// spelled out field by field, loads with the data-parallel default.
TEST(ObservationLog, LoadsV1SectionWithDataParallelDefault) {
  std::string bytes;
  io::BinaryWriter w(bytes);
  w.magic(kObservationMagic);
  w.u32(1);   // version
  w.u64(5);   // next seq
  w.u32(1);   // count
  w.str("vgg11");  // workload, no parallelism key
  w.str("cifar10");
  w.i64(178000000);
  w.i64(50000);
  w.i32(10);
  w.i32(3);
  w.i32(32);
  w.i32(32);
  w.i32(64);  // batch per server
  w.i32(10);  // epochs
  w.u32(1);   // cluster: one server
  w.str("node0");
  w.str("p100");
  w.i32(8);
  w.f64(1e11);
  w.f64(6.4e10);
  w.f64(5e8);
  w.f64(1.25e9);
  w.i32(1);
  w.f64(9.3e12);
  w.f64(1.6e10);
  w.f64(0.75);
  w.f64(0.5);
  w.f64(9.87e8);  // nfs bandwidth
  w.f64(123.5);   // measured_s
  w.f64(61.75);   // predicted_s
  w.u64(4);       // seq

  ObservationLog log(4);
  io::BinaryReader r(bytes, "v1 observations");
  log.load(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(log.total_appended(), 5u);
  const auto records = log.snapshot();
  ASSERT_EQ(records.size(), 1u);
  const Observation& obs = records[0];
  EXPECT_EQ(obs.seq, 4u);
  EXPECT_EQ(obs.measured_s, 123.5);
  EXPECT_EQ(obs.predicted_s, 61.75);
  const workload::DlWorkload& wl = obs.request.workload;
  EXPECT_EQ(wl.model, "vgg11");
  EXPECT_EQ(wl.dataset.name, "cifar10");
  EXPECT_EQ(wl.dataset.size_bytes, 178000000);
  EXPECT_EQ(wl.dataset.num_classes, 10);
  EXPECT_EQ(wl.batch_size_per_server, 64);
  EXPECT_EQ(wl.epochs, 10);
  EXPECT_TRUE(wl.parallelism.is_default());
  ASSERT_EQ(obs.request.cluster.servers.size(), 1u);
  const cluster::ServerSpec& server = obs.request.cluster.servers[0];
  EXPECT_EQ(server.name, "node0");
  EXPECT_EQ(server.sku, "p100");
  EXPECT_EQ(server.cpu_cores, 8);
  EXPECT_EQ(server.gpus, 1);
  EXPECT_EQ(server.gpu_flops, 9.3e12);
  EXPECT_EQ(server.mem_availability, 0.5);
  EXPECT_EQ(obs.request.cluster.nfs_bw_bps, 9.87e8);
}

// ---- DriftDetector ----

TEST(DriftDetector, ValidatesConfig) {
  EXPECT_THROW(DriftDetector({0, 1, 0.25}), Error);    // window = 0
  EXPECT_THROW(DriftDetector({8, 0, 0.25}), Error);    // min_count = 0
  EXPECT_THROW(DriftDetector({8, 9, 0.25}), Error);    // min_count > window
  EXPECT_THROW(DriftDetector({8, 4, 0.0}), Error);     // threshold <= 0
}

TEST(DriftDetector, FiresOnlyPastMinCountAndThreshold) {
  DriftDetector det({/*window=*/8, /*min_count=*/4, /*rel_p50=*/0.25});
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(det.record(1.0, 0.5));  // below min_count, never fires
  }
  EXPECT_TRUE(det.record(1.0, 0.5));     // 4th sample: median 0.5 > 0.25
  EXPECT_TRUE(det.drifted());
  const ErrorStats s = det.stats();
  EXPECT_EQ(s.count, 4u);
  EXPECT_TRUE(s.drifted);
  EXPECT_DOUBLE_EQ(s.mean_rel, 0.5);
  EXPECT_DOUBLE_EQ(s.p50_rel, 0.5);
  EXPECT_DOUBLE_EQ(s.mean_abs_s, 1.0);
}

TEST(DriftDetector, MedianRuleIsRobustToOutliers) {
  DriftDetector det({8, 4, 0.25});
  // Three accurate samples and one wild outlier: the median stays low, so a
  // single bad measurement cannot flag drift.
  det.record(0.1, 0.01);
  det.record(0.1, 0.02);
  det.record(0.1, 0.01);
  EXPECT_FALSE(det.record(500.0, 25.0));
  EXPECT_FALSE(det.drifted());
}

TEST(DriftDetector, WindowEvictionRecoversAfterGoodSamples) {
  DriftDetector det({/*window=*/4, /*min_count=*/2, /*rel_p50=*/0.25});
  det.record(2.0, 0.6);
  EXPECT_TRUE(det.record(2.0, 0.6));
  // Four small errors push both bad samples out of the window.
  for (int i = 0; i < 4; ++i) det.record(0.05, 0.01);
  EXPECT_FALSE(det.drifted());
  EXPECT_EQ(det.stats().count, 4u);
}

TEST(DriftDetector, ThresholdIsStrictlyExceeded) {
  DriftDetector det({4, 1, 0.25});
  EXPECT_FALSE(det.record(1.0, 0.25));  // exactly at threshold: no drift
  EXPECT_TRUE(det.record(1.0, 0.30));   // median 0.275 crosses it
}

TEST(DriftDetector, ClampsNonFiniteAndNegativeSamples) {
  DriftDetector det({4, 1, 0.25});
  EXPECT_FALSE(det.record(std::nan(""), std::nan("")));
  EXPECT_FALSE(det.record(-3.0, -1.0));
  const ErrorStats s = det.stats();
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.p50_rel, 0.0);
}

TEST(DriftDetector, ResetForgetsTheWindow) {
  DriftDetector det({8, 2, 0.25});
  det.record(1.0, 0.9);
  det.record(1.0, 0.9);
  ASSERT_TRUE(det.drifted());
  det.reset();
  EXPECT_FALSE(det.drifted());
  EXPECT_EQ(det.stats().count, 0u);
  // Re-arms: the same bad errors trigger again after reset.
  det.record(1.0, 0.9);
  EXPECT_TRUE(det.record(1.0, 0.9));
}

TEST(DriftDetector, StatsQuantilesFromKnownSamples) {
  DriftDetector det({16, 1, 10.0});  // threshold high: stats only
  for (int i = 1; i <= 4; ++i) {
    det.record(static_cast<double>(i), 0.1 * i);
  }
  const ErrorStats s = det.stats();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean_abs_s, 2.5);
  EXPECT_DOUBLE_EQ(s.p50_abs_s, 2.5);   // interpolated between 2 and 3
  EXPECT_NEAR(s.p95_abs_s, 3.85, 1e-9);
  EXPECT_NEAR(s.mean_rel, 0.25, 1e-12);
  EXPECT_FALSE(s.drifted);
}

// ---- FeedbackController over a live service ----

// Small, fast options (mirrors serve_test): tiny GHN, reduced campaign.
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

// One PredictDdl trained once for the whole suite.  Refits install a fresh
// regressor into the shared engine, but the GHN and campaign stay frozen
// and every test measures its own before/after predictions at runtime, so
// suite-level sharing stays order-independent.
class FeedbackTest : public ::testing::Test {
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

ThreadPool* FeedbackTest::pool_ = nullptr;
sim::DdlSimulator* FeedbackTest::sim_ = nullptr;
core::PredictDdl* FeedbackTest::pddl_ = nullptr;

TEST_F(FeedbackTest, ObserveScoresAgainstTheLiveServingPath) {
  serve::PredictionService service(*pddl_);
  FeedbackController fb(service, *pddl_);

  const core::PredictRequest req = make_request("resnet18");
  const serve::ServeResult live = service.predict(req);
  ASSERT_TRUE(live.ok()) << live.error;

  // A perfect observation: zero error, no drift, logged.
  const ObserveOutcome o = fb.observe(req, live.response.predicted_time_s);
  EXPECT_TRUE(o.accepted) << o.reason;
  EXPECT_EQ(o.predicted_s, live.response.predicted_time_s);
  EXPECT_EQ(o.abs_error_s, 0.0);
  EXPECT_EQ(o.rel_error, 0.0);
  EXPECT_FALSE(o.drifted);
  EXPECT_FALSE(o.refit_triggered);
  EXPECT_EQ(fb.log().size(), 1u);

  const serve::MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.observations_ingested, 1u);
  EXPECT_EQ(m.observations_rejected, 0u);
  EXPECT_EQ(m.drift_events, 0u);

  const RefitStatus s = fb.status();
  ASSERT_EQ(s.datasets.size(), 1u);
  EXPECT_EQ(s.datasets[0].dataset, "cifar10");
  EXPECT_EQ(s.datasets[0].observations, 1u);
  EXPECT_EQ(s.datasets[0].errors.count, 1u);
}

TEST_F(FeedbackTest, RejectsUnscorableObservations) {
  serve::PredictionService service(*pddl_);
  FeedbackController fb(service, *pddl_);

  const core::PredictRequest req = make_request("alexnet");
  for (double bad : {0.0, -5.0, std::nan(""),
                     std::numeric_limits<double>::infinity()}) {
    const ObserveOutcome o = fb.observe(req, bad);
    EXPECT_FALSE(o.accepted);
    EXPECT_NE(o.reason.find("positive finite"), std::string::npos);
  }

  // A dataset without a fitted predictor cannot be scored either.
  core::PredictRequest untrained = make_request("resnet18");
  untrained.workload.dataset = workload::tiny_imagenet();
  const ObserveOutcome o = fb.observe(untrained, 100.0);
  EXPECT_FALSE(o.accepted);
  EXPECT_NE(o.reason.find("untrained"), std::string::npos);

  EXPECT_EQ(fb.log().size(), 0u);  // rejected observations are never logged
  const serve::MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.observations_ingested, 0u);
  EXPECT_EQ(m.observations_rejected, 5u);
}

TEST_F(FeedbackTest, DriftTriggersBackgroundRefitAndShiftsPredictions) {
  serve::PredictionService service(*pddl_);
  FeedbackConfig cfg;
  cfg.drift.window = 16;
  cfg.drift.min_count = 8;
  cfg.drift.rel_p50_threshold = 0.25;
  FeedbackController fb(service, *pddl_, cfg);

  const core::PredictRequest req = make_request("resnet18");
  const double before = service.predict(req).response.predicted_time_s;
  ASSERT_GT(before, 0.0);

  // Report the measured runtime as 3× the prediction: rel error 2/3, far
  // past the threshold, so the min_count-th observation flags drift and
  // auto-enqueues exactly one refit.
  bool drift_seen = false;
  bool refit_seen = false;
  for (std::size_t i = 0; i < cfg.drift.min_count; ++i) {
    const ObserveOutcome o = fb.observe(req, 3.0 * before);
    ASSERT_TRUE(o.accepted) << o.reason;
    EXPECT_NEAR(o.rel_error, 2.0 / 3.0, 1e-9);
    const bool expect_drift = (i + 1 == cfg.drift.min_count);
    EXPECT_EQ(o.drifted, expect_drift) << "observation " << i;
    drift_seen = drift_seen || o.drifted;
    refit_seen = refit_seen || o.refit_triggered;
  }
  EXPECT_TRUE(drift_seen);
  EXPECT_TRUE(refit_seen);

  fb.wait_idle();
  const RefitStatus s = fb.status();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.last_dataset, "cifar10");
  EXPECT_GT(s.last_campaign_rows, 0u);
  EXPECT_EQ(s.last_observation_rows,
            static_cast<std::uint64_t>(cfg.drift.min_count));
  // Successful refit resets the dataset's error window.
  ASSERT_EQ(s.datasets.size(), 1u);
  EXPECT_FALSE(s.datasets[0].errors.drifted);
  EXPECT_EQ(s.datasets[0].errors.count, 0u);

  // The hot-swapped regressor actually moved: same request, new prediction.
  const double after = service.predict(req).response.predicted_time_s;
  EXPECT_NE(after, before);
  EXPECT_GT(after, 0.0);

  const serve::MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.drift_events, 1u);
  EXPECT_EQ(m.refits_started, 1u);
  EXPECT_EQ(m.refits_completed, 1u);
  EXPECT_EQ(m.refits_failed, 0u);
  EXPECT_EQ(m.engine_swaps, 1u);
}

// The drift fixture above on an engine of its own (the suite's shared one
// carries earlier tests' refitted regressors), with the post-refit
// prediction pinned bit-exactly.  Refactors of the refit path must leave
// the literal unchanged.
TEST_F(FeedbackTest, GoldenPostRefitPredictionStaysPinned) {
  ThreadPool pool(8);
  sim::DdlSimulator sim;
  core::PredictDdl engine(sim, pool, fast_options());
  engine.train_offline(workload::cifar10());
  serve::PredictionService service(engine);
  FeedbackConfig cfg;
  cfg.drift.window = 16;
  cfg.drift.min_count = 8;
  cfg.drift.rel_p50_threshold = 0.25;
  FeedbackController fb(service, engine, cfg);

  const core::PredictRequest req = make_request("resnet18");
  const double before = service.predict(req).response.predicted_time_s;
  EXPECT_EQ(before, 79.837223196834543);
  for (std::size_t i = 0; i < cfg.drift.min_count; ++i) {
    ASSERT_TRUE(fb.observe(req, 3.0 * before).accepted);
  }
  fb.wait_idle();
  ASSERT_EQ(service.metrics().engine_swaps, 1u);
  EXPECT_EQ(service.predict(req).response.predicted_time_s,
            162.33643680618735);
}

TEST_F(FeedbackTest, ExplicitRefitWorksWithoutAnyObservations) {
  serve::PredictionService service(*pddl_);
  FeedbackController fb(service, *pddl_);

  const core::PredictRequest req = make_request("vgg11");
  const double before = service.predict(req).response.predicted_time_s;

  ASSERT_TRUE(fb.request_refit("cifar10"));
  fb.wait_idle();
  const RefitStatus s = fb.status();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_GT(s.last_campaign_rows, 0u);
  EXPECT_EQ(s.last_observation_rows, 0u);  // campaign-only refit

  // Campaign-only refit with the same deterministic fitting procedure still
  // serves a valid prediction (the regressor family is deterministic, so the
  // value may or may not be bit-identical; it must stay positive and sane).
  const double after = service.predict(req).response.predicted_time_s;
  EXPECT_GT(after, 0.0);
  EXPECT_LT(std::fabs(after - before) / before, 0.5);
  EXPECT_EQ(service.metrics().engine_swaps, 1u);
}

TEST_F(FeedbackTest, RefitOfUnknownDatasetFailsCleanly) {
  serve::PredictionService service(*pddl_);
  FeedbackController fb(service, *pddl_);
  ASSERT_TRUE(fb.request_refit("no_such_dataset"));
  fb.wait_idle();
  const RefitStatus s = fb.status();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_NE(s.last_error.find("no_such_dataset"), std::string::npos);
  EXPECT_EQ(service.metrics().refits_failed, 1u);
  EXPECT_EQ(service.metrics().engine_swaps, 0u);

  // The failure left serving untouched.
  EXPECT_TRUE(service.predict(make_request("alexnet")).ok());
}

// The headline zero-downtime test: 16 client threads hammer predict while
// the worker repeatedly refits and hot-swaps the engine underneath them.
// Every prediction must succeed — no failures, no blocking on the fit.
TEST_F(FeedbackTest, HotSwapUnderConcurrentPredictionsNeverFailsARequest) {
  serve::ServiceConfig scfg;
  scfg.dispatcher_threads = 4;
  scfg.queue_capacity = 4096;
  serve::PredictionService service(*pddl_, scfg);
  FeedbackController fb(service, *pddl_);

  constexpr int kThreads = 16;
  constexpr int kPerThread = 40;
  const std::vector<std::string> models = {"alexnet", "resnet18", "vgg11",
                                           "resnet50", "densenet121"};
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
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

  // Interleave refits with the live traffic: each one fits a fresh engine
  // and swaps it in while predictions are in flight.  wait_idle() between
  // requests makes every enqueue succeed, so the count is deterministic.
  constexpr int kRefits = 5;
  for (int k = 0; k < kRefits; ++k) {
    ASSERT_TRUE(fb.request_refit("cifar10"));
    fb.wait_idle();
  }
  for (auto& c : clients) c.join();

  EXPECT_EQ(ok.load(), kThreads * kPerThread);  // zero failed predictions
  const RefitStatus s = fb.status();
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kRefits));
  EXPECT_EQ(s.failed, 0u);

  const serve::MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.completed, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(m.errors, 0u);
  EXPECT_EQ(m.engine_swaps, static_cast<std::uint64_t>(kRefits));
}

TEST_F(FeedbackTest, WarmRestartRestoresObservationsAndRefittedRegressor) {
  const auto dir =
      std::filesystem::temp_directory_path() / "pddl_feedback_state";
  std::filesystem::remove_all(dir);

  const core::PredictRequest req = make_request("resnet18");
  double pre_refit = 0.0;
  double post_refit = 0.0;
  std::vector<Observation> saved_records;
  {
    serve::PredictionService service(*pddl_);
    FeedbackConfig cfg;
    cfg.drift.window = 16;
    cfg.drift.min_count = 6;
    FeedbackController fb(service, *pddl_, cfg);

    pre_refit = service.predict(req).response.predicted_time_s;
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(fb.observe(req, 3.0 * pre_refit).accepted);
    }
    fb.wait_idle();
    ASSERT_EQ(fb.status().completed, 1u);
    post_refit = service.predict(req).response.predicted_time_s;
    ASSERT_NE(post_refit, pre_refit);
    saved_records = fb.log().snapshot();

    // One snapshot holds everything: engine state + observation log.
    pddl_->save_state(dir.string(),
                      [&fb](io::SnapshotWriter& snap) { fb.save(snap); });
  }

  // Fresh process: restore, and serve the REFITTED model bit-identically —
  // a silent fallback to the pre-refit regressor would be a regression.
  {
    ThreadPool pool(4);
    sim::DdlSimulator sim;
    core::PredictDdl restored(sim, pool, fast_options());
    restored.load_state(dir.string());
    serve::PredictionService service(restored);
    FeedbackController fb(service, restored);
    EXPECT_EQ(fb.load(io::SnapshotReader(dir.string() + "/state.pddl")),
              saved_records.size());

    const double warm = service.predict(req).response.predicted_time_s;
    EXPECT_EQ(warm, post_refit);   // bit-identical to the refitted model
    EXPECT_NE(warm, pre_refit);    // and provably not the pre-refit one

    // The observation log came back bit-identically too, and feeds the next
    // refit: sequence numbers, measurements, and requests all survive.
    const auto restored_records = fb.log().snapshot();
    ASSERT_EQ(restored_records.size(), saved_records.size());
    for (std::size_t i = 0; i < saved_records.size(); ++i) {
      EXPECT_EQ(restored_records[i].seq, saved_records[i].seq);
      EXPECT_EQ(restored_records[i].measured_s, saved_records[i].measured_s);
      EXPECT_EQ(restored_records[i].predicted_s,
                saved_records[i].predicted_s);
      EXPECT_EQ(restored_records[i].request.workload.model,
                saved_records[i].request.workload.model);
    }
    ASSERT_TRUE(fb.request_refit("cifar10"));
    fb.wait_idle();
    const RefitStatus s = fb.status();
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.last_observation_rows, saved_records.size());
  }

  // A pre-feedback snapshot (no observation section) restores to an empty
  // log instead of failing.
  {
    ThreadPool pool(2);
    sim::DdlSimulator sim;
    core::PredictDdl plain(sim, pool, fast_options());
    const auto plain_dir =
        std::filesystem::temp_directory_path() / "pddl_feedback_plain";
    std::filesystem::remove_all(plain_dir);
    pddl_->save_state(plain_dir.string());  // no extra sections
    plain.load_state(plain_dir.string());
    serve::PredictionService service(plain);
    FeedbackController fb(service, plain);
    EXPECT_EQ(
        fb.load(io::SnapshotReader(plain_dir.string() + "/state.pddl")), 0u);
    EXPECT_EQ(fb.log().size(), 0u);
    std::filesystem::remove_all(plain_dir);
  }
  std::filesystem::remove_all(dir);
}

// ---- per-family error decomposition & the "retrain the GHN" signal ----

// auto_refit off so the error windows stay inspectable; small window so a
// handful of observations crosses min_count.
FeedbackConfig family_cfg() {
  FeedbackConfig cfg;
  cfg.auto_refit = false;
  cfg.drift.window = 16;
  cfg.drift.min_count = 4;
  cfg.drift.rel_p50_threshold = 0.25;
  return cfg;
}

const FamilyFeedback* find_family(const RefitStatus& s,
                                  const std::string& dataset,
                                  const std::string& family) {
  for (const FamilyFeedback& f : s.families) {
    if (f.dataset == dataset && f.family == family) return &f;
  }
  return nullptr;
}

TEST_F(FeedbackTest, FamilyDriftAgainstCleanPeersFlagsGhnDrift) {
  serve::PredictionService service(*pddl_);
  FeedbackController fb(service, *pddl_, family_cfg());

  // Two in-distribution families report accurate measurements; the
  // squeezenet family comes back 3x off — the signature of a strained
  // embedding, not of a board-wide regressor failure.
  for (const char* model : {"resnet18", "vgg11"}) {
    const core::PredictRequest req = make_request(model);
    const double live = service.predict(req).response.predicted_time_s;
    ASSERT_GT(live, 0.0);
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(fb.observe(req, live).accepted);
  }
  const core::PredictRequest off = make_request("squeezenet1_1");
  const double off_live = service.predict(off).response.predicted_time_s;
  ASSERT_GT(off_live, 0.0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fb.observe(off, 3.0 * off_live).accepted);
  }

  const RefitStatus s = fb.status();
  ASSERT_EQ(s.families.size(), 3u);
  const FamilyFeedback* squeeze = find_family(s, "cifar10", "squeezenet");
  ASSERT_NE(squeeze, nullptr);
  EXPECT_EQ(squeeze->observations, 4u);
  EXPECT_TRUE(squeeze->errors.drifted);
  EXPECT_TRUE(squeeze->ghn_drift);  // lone drifted family, clean peers
  for (const char* fam : {"resnet", "vgg"}) {
    const FamilyFeedback* f = find_family(s, "cifar10", fam);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->observations, 4u);
    EXPECT_FALSE(f->errors.drifted) << fam;
    EXPECT_FALSE(f->ghn_drift) << fam;
  }
  // Family windows never trigger refits: the dataset-level window's median
  // sits on the 8 accurate samples, so no drift fired and nothing ran.
  EXPECT_EQ(s.started, 0u);
  ASSERT_EQ(s.datasets.size(), 1u);
  EXPECT_FALSE(s.datasets[0].errors.drifted);
}

TEST_F(FeedbackTest, BoardWideDriftDoesNotBlameTheGhn) {
  serve::PredictionService service(*pddl_);
  FeedbackController fb(service, *pddl_, family_cfg());

  // Every family is off by the same 3x: the shared regressor (or cluster
  // model) drifted, and retraining the GHN would fix nothing — the signal
  // must stay quiet and leave this to the ordinary refit path.
  for (const char* model : {"resnet18", "vgg11", "squeezenet1_1"}) {
    const core::PredictRequest req = make_request(model);
    const double live = service.predict(req).response.predicted_time_s;
    ASSERT_GT(live, 0.0);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(fb.observe(req, 3.0 * live).accepted);
    }
  }

  const RefitStatus s = fb.status();
  ASSERT_EQ(s.families.size(), 3u);
  for (const FamilyFeedback& f : s.families) {
    EXPECT_TRUE(f.errors.drifted) << f.family;
    EXPECT_FALSE(f.ghn_drift) << f.family;
  }
}

TEST(TransformerFeedback, HeldOutTransformerFamilyFiresGhnDriftSignal) {
  ThreadPool pool(8);
  sim::DdlSimulator sim;
  // Token-resolution engine: GHN trained on wikitext103, regressor fitted
  // on a gpt-only campaign — the bert family is entirely held out.
  core::PredictDdlOptions opts = fast_options();
  opts.campaign.models = {"gpt_tiny", "gpt_mini"};
  opts.campaign.max_servers = 6;
  opts.campaign.batch_sizes = {32};
  core::PredictDdl pddl(sim, pool, opts);
  pddl.train_offline(workload::wikitext103());

  serve::PredictionService service(pddl);
  FeedbackController fb(service, pddl, family_cfg());

  auto request = [](const std::string& model) {
    core::PredictRequest req;
    req.workload = {model, workload::wikitext103(), /*batch=*/32,
                    /*epochs=*/10};
    req.cluster = cluster::make_uniform_cluster("p100", 4);
    return req;
  };

  // In-distribution gpt observations come back accurate; the held-out bert
  // family reports 3x errors — embedding strain on an unseen family.
  const core::PredictRequest gpt = request("gpt_tiny");
  const double gpt_live = service.predict(gpt).response.predicted_time_s;
  ASSERT_GT(gpt_live, 0.0);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(fb.observe(gpt, gpt_live).accepted);

  const core::PredictRequest bert = request("bert_tiny");
  const double bert_live = service.predict(bert).response.predicted_time_s;
  ASSERT_GT(bert_live, 0.0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fb.observe(bert, 3.0 * bert_live).accepted);
  }

  const RefitStatus s = fb.status();
  const FamilyFeedback* b = find_family(s, "wikitext103", "bert");
  const FamilyFeedback* g = find_family(s, "wikitext103", "gpt");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(b->observations, 4u);
  EXPECT_TRUE(b->errors.drifted);
  EXPECT_TRUE(b->ghn_drift);  // the held-out family strains the embedding
  EXPECT_FALSE(g->errors.drifted);
  EXPECT_FALSE(g->ghn_drift);  // the fitted family stays clean
}

// ---- retrain/state section ----

// Payload bytes of section `name` in `snap`.
std::string section_bytes(const io::SnapshotReader& snap,
                          const std::string& name) {
  io::BinaryReader r = snap.reader(name);
  std::string out;
  while (!r.at_end()) out.push_back(static_cast<char>(r.u8()));
  return out;
}

// The "retrain/state" payload, spelled out field by field: a controller
// loads it and saves the same bytes back, and the bytes are pinned.
// Recorded while the section was still written field by field; a change is
// a format change and needs a version bump.
TEST(RetrainState, GoldenSectionRoundTripsByteStable) {
  std::string bytes;
  io::BinaryWriter w(bytes);
  w.magic("PDRT");
  w.u32(1);  // version
  w.u64(3);  // generation
  w.u64(4);  // started
  w.u64(3);  // completed
  w.u64(1);  // failed
  w.str("wikitext103");
  w.str("bert");
  w.str("retrain for 'x' failed: unknown dataset");
  w.u64(12);  // corpus graphs
  w.u64(5);   // family graphs
  w.i32(6);   // epochs run
  w.f64(1.75);
  w.f64(0.9);
  w.f64(0.3);
  w.u32(2);  // before-swap windows, in key order
  for (const char* family : {"bert", "gpt"}) {
    w.str("wikitext103");
    w.str(family);
    w.u64(8);       // count
    w.f64(12.5);    // mean_abs_s
    w.f64(0.625);   // mean_rel
    w.f64(10.0);    // p50_abs_s
    w.f64(40.0);    // p95_abs_s
    w.f64(0.5);     // p50_rel
    w.f64(1.25);    // p95_rel
    w.boolean(family[0] == 'b');  // drifted
  }
  EXPECT_EQ(bytes.size(), 313u);
  EXPECT_EQ(fnv1a64(bytes), 0x05bedf9d7ab3afeaull);

  std::ostringstream os;
  {
    io::SnapshotWriter snap;
    io::BinaryWriter& section = snap.add("retrain/state");
    section.raw(bytes.data(), bytes.size());
    snap.save(os);
  }
  ThreadPool pool(1);
  sim::DdlSimulator sim;
  core::PredictDdl engine(sim, pool, fast_options());
  serve::PredictionService service(engine);
  FeedbackController fb(service, engine);
  std::istringstream is(os.str());
  EXPECT_EQ(fb.load(io::SnapshotReader(is, "golden")), 0u);

  const RetrainStatus s = fb.retrain_status();
  EXPECT_EQ(s.generation, 3u);
  EXPECT_EQ(s.last_family, "bert");
  EXPECT_EQ(s.last_epochs_run, 6);
  EXPECT_EQ(s.last_final_loss, 0.3);
  ASSERT_EQ(s.families.size(), 2u);
  EXPECT_EQ(s.families[0].family, "bert");
  EXPECT_EQ(s.families[0].before.p95_rel, 1.25);
  EXPECT_TRUE(s.families[0].before.drifted);
  EXPECT_FALSE(s.families[1].before.drifted);

  std::ostringstream saved;
  {
    io::SnapshotWriter snap;
    fb.save(snap);
    snap.save(saved);
  }
  std::istringstream sis(saved.str());
  const io::SnapshotReader back(sis, "saved");
  EXPECT_EQ(section_bytes(back, "retrain/state"), bytes);
}

}  // namespace
}  // namespace pddl::feedback
