// Prediction server: PredictDDL behind the concurrent serving layer and the
// TCP rpc front-end, serving external schedulers until SIGINT.
//
//   1. Obtain a trained engine: load a `state.pddl` snapshot written by
//      PredictDdl::save_state (--state DIR, ~2 ms warm restart), or train
//      offline here (the expensive, explicit step — the service never
//      trains inline).
//   2. Stand up a PredictionService and warm its sharded embedding cache
//      with the Table II workloads so first-request latency is flat.
//   3. Bind an rpc::Server on --host:--port and serve predict /
//      predict_batch / stats / ping frames until SIGINT (or a client's
//      shutdown op), then drain gracefully and dump the metrics snapshot.
//
// Flags:
//   --port N          listen port (default 7077; 0 picks an ephemeral port)
//   --host H          bind address (default 127.0.0.1; 0.0.0.0 for all)
//   --state DIR       load a save_state() snapshot instead of training
//                     (restores the feedback observation log too)
//   --save-state DIR  on drain, save state.pddl (GHNs, campaigns, the
//                     current — possibly refitted — regressors, and the
//                     observation log) into DIR for a warm restart
//   --fast            tiny offline training, cifar10 only (CI smoke / demos)
//   --reuse-eps E     enable the near-duplicate reuse index (src/reuse/)
//                     with hit threshold ε = E (0 disables; see DESIGN.md
//                     §11 for the calibrated default 0.05).  Warm-up then
//                     also seeds the index, so near-duplicates of the
//                     Table II workloads are served without a GHN forward
//                     pass, tagged reused(distance) in the response.
//   --max-batch N     micro-batch size cap per dispatch (default 8); cache
//                     misses in one dispatch run as a single batched GHN
//                     forward pass (DESIGN.md §12)
//   --adaptive-batch  size each dispatch from queue depth, arrival rate,
//                     and batch service time instead of always popping up
//                     to the cap (serve/batch_sizer.hpp); telemetry shows
//                     up in the stats op's adaptive section
//   --family F        workload families to train and warm for: cnn
//                     (default; the Table II datasets), transformers
//                     (bert/gpt on wikitext103), or all
//   --precision P     fast-embed engine precision: f32 (default; SIMD
//                     single-precision engine, predictions within the
//                     DESIGN.md §15 error budget of the f64 oracle) or f64
//                     (the ≤1e-9 tape-parity ablation path).  The stats op
//                     reports the live precision and kernel dispatch level.
//   --auto-retrain    a per-family ghn_drift crossing enqueues a GHN
//                     fine-tune on the controller's update thread, which
//                     hot-swaps the new GHN (with a regressor refitted on
//                     the new embeddings) through the registry path.  The
//                     retrain / retrain_status ops work without this flag;
//                     it only makes drift trigger retrains on its own.
//   --seed S          RNG seed pinning background refit/fine-tune work
//                     (default 1); two runs from the same snapshot and
//                     observation sequence swap in bit-identical models
//
// The server always runs a feedback::FeedbackController, so the observe /
// refit / refit_status / retrain / retrain_status ops work out of the box:
// schedulers report measured training times, drift past the threshold
// refits the regressor on a background thread, and the new model is
// hot-swapped in with zero downtime.  Retrain state (generation,
// before/after error) rides in the --save-state snapshot.
//
// Talk to it with examples/predict_client, e.g.:
//   ./build/examples/predict_server --fast --port 7077 &
//   ./build/examples/predict_client --connect 127.0.0.1:7077 --predict resnet18
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "rpc/server.hpp"
#include "rpc/socket.hpp"
#include "tensor/simd.hpp"

using namespace pddl;

namespace {
volatile std::sig_atomic_t g_interrupted = 0;
void on_signal(int) { g_interrupted = 1; }
}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7077;
  std::string state_dir;
  std::string save_state_dir;
  bool fast = false;
  double reuse_eps = 0.0;
  int max_batch = 8;
  bool adaptive_batch = false;
  std::string family = "cnn";
  bool auto_retrain = false;
  std::uint64_t seed = 1;
  // Serving default is the f32 fast path; --precision f64 is the ablation.
  ghn::Precision precision = ghn::Precision::kF32;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      if (!rpc::parse_port(argv[++i], 0, &port)) {
        std::fprintf(stderr, "--port expects 0-65535; got %s\n", argv[i]);
        return 2;
      }
    } else if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--state" && i + 1 < argc) {
      state_dir = argv[++i];
    } else if (arg == "--save-state" && i + 1 < argc) {
      save_state_dir = argv[++i];
    } else if (arg == "--fast") {
      fast = true;
    } else if (arg == "--reuse-eps" && i + 1 < argc) {
      reuse_eps = std::atof(argv[++i]);
    } else if (arg == "--max-batch" && i + 1 < argc) {
      max_batch = std::atoi(argv[++i]);
      if (max_batch < 1) {
        std::fprintf(stderr, "--max-batch must be >= 1\n");
        return 2;
      }
    } else if (arg == "--adaptive-batch") {
      adaptive_batch = true;
    } else if (arg == "--auto-retrain") {
      auto_retrain = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::strtoull(argv[++i], nullptr, 10));
      if (seed == 0) {
        std::fprintf(stderr, "--seed must be >= 1\n");
        return 2;
      }
    } else if (arg == "--family" && i + 1 < argc) {
      family = argv[++i];
      if (family != "cnn" && family != "transformers" && family != "all") {
        std::fprintf(stderr,
                     "--family expects cnn, transformers, or all; got %s\n",
                     family.c_str());
        return 2;
      }
    } else if (arg == "--precision" && i + 1 < argc) {
      if (!ghn::parse_precision(argv[++i], precision)) {
        std::fprintf(stderr, "--precision expects f32 or f64; got %s\n",
                     argv[i]);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port N] [--host H] [--state DIR] "
                   "[--save-state DIR] [--fast] [--reuse-eps E] "
                   "[--max-batch N] [--adaptive-batch] "
                   "[--family cnn|transformers|all] [--precision f32|f64] "
                   "[--auto-retrain] [--seed S]\n",
                   argv[0]);
      return 2;
    }
  }

  ThreadPool pool;
  sim::DdlSimulator simulator;

  core::PredictDdlOptions opts;
  if (fast) {
    opts.ghn.hidden_dim = 12;
    opts.ghn.mlp_hidden = 12;
    opts.ghn_trainer.corpus_size = 10;
    opts.ghn_trainer.epochs = 4;
    opts.ghn_trainer.batch_size = 5;
    opts.ghn_trainer.darts.max_cells = 3;
  } else {
    opts.ghn_trainer.corpus_size = 32;  // demo-sized offline training
    opts.ghn_trainer.epochs = 12;
  }
  if (family != "cnn") {
    // Clients price transformer workloads under pipeline/tensor strategies
    // (`--parallelism pp4x8`); cross the offline campaign over them so the
    // regressor learns the strategy scalars instead of clamping an
    // extrapolation to the dp-only label range.
    opts.campaign.strategies = {"dp", "pp2x4", "pp4x8", "tp2", "tp4"};
  }
  core::PredictDdl pddl(simulator, pool, std::move(opts));

  if (!state_dir.empty()) {
    Stopwatch sw;
    pddl.load_state(state_dir);
    std::printf("state restored from %s in %.1fms\n", state_dir.c_str(),
                sw.millis());
  } else {
    // --family picks the training datasets: the CNN evaluation datasets
    // (cifar10, plus tiny_imagenet outside --fast), wikitext103 for the
    // transformer families, or both.
    std::vector<workload::DatasetDescriptor> datasets;
    if (family != "transformers") {
      datasets.push_back(workload::cifar10());
      if (!fast) datasets.push_back(workload::tiny_imagenet());
    }
    if (family != "cnn") datasets.push_back(workload::wikitext103());
    for (const auto& dataset : datasets) {
      std::printf("offline training for dataset '%s'...\n",
                  dataset.name.c_str());
      Stopwatch sw;
      pddl.train_offline(dataset);
      std::printf("  done in %.1fs\n", sw.seconds());
    }
  }

  serve::ServiceConfig cfg;
  cfg.dispatcher_threads = 2;
  cfg.queue_capacity = 256;
  cfg.cache_shards = 8;
  cfg.cache_capacity = 1024;
  cfg.max_batch = static_cast<std::size_t>(max_batch);
  cfg.adaptive_batch = adaptive_batch;
  cfg.precision = precision;
  std::printf("embed engine: precision=%s dispatch=%s\n",
              ghn::precision_name(precision), simd::active_level_name());
  if (adaptive_batch) {
    std::printf("adaptive batching on (dispatch size in [1, %d])\n",
                max_batch);
  }
  if (reuse_eps > 0.0) {
    cfg.reuse.enabled = true;
    cfg.reuse.epsilon = reuse_eps;
    std::printf("near-duplicate reuse on (eps=%g, prefilter budget=%g)\n",
                reuse_eps, cfg.reuse.max_signature_distance);
  }
  serve::PredictionService service(pddl, cfg);

  Stopwatch warm_sw;
  std::vector<workload::DlWorkload> warm;
  if (family != "transformers") warm = workload::table2_workloads();
  if (family != "cnn") {
    for (auto& w : workload::transformer_workloads()) {
      warm.push_back(std::move(w));
    }
  }
  const std::size_t warmed = service.warm_up(warm);
  std::printf("warm-up: %zu embeddings precomputed in %.0fms\n", warmed,
              warm_sw.millis());

  feedback::FeedbackConfig fb_cfg;
  fb_cfg.auto_retrain = auto_retrain;
  fb_cfg.seed = seed;
  feedback::FeedbackController feedback(service, pddl, fb_cfg);
  if (!state_dir.empty()) {
    const io::SnapshotReader snap(state_dir + "/state.pddl");
    const std::size_t restored = feedback.load(snap);
    if (restored > 0) {
      std::printf("observation log: %zu records restored\n", restored);
    }
    if (const std::uint64_t gen = feedback.retrain_status().generation) {
      std::printf("retrain state restored (generation %llu)\n",
                  static_cast<unsigned long long>(gen));
    }
  }
  if (auto_retrain) {
    std::printf("auto-retrain on (seed=%llu)\n",
                static_cast<unsigned long long>(seed));
  }

  rpc::ServerConfig rpc_cfg;
  rpc_cfg.host = host;
  rpc_cfg.port = port;
  rpc::Server server(service, rpc_cfg);
  server.attach_feedback(&feedback);
  server.start();
  std::printf("listening on %s\n", server.endpoint().c_str());
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_interrupted == 0 && !server.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("\n%s — draining...\n",
              g_interrupted ? "signal received" : "shutdown op received");

  server.stop();         // graceful: in-flight requests finish
  feedback.wait_idle();  // let a queued refit or fine-tune land first
  service.stop();        // then drain the admission queue
  if (!save_state_dir.empty()) {
    Stopwatch sw;
    pddl.save_state(save_state_dir,
                    [&](io::SnapshotWriter& s) { feedback.save(s); });
    std::printf("state saved to %s in %.1fms\n", save_state_dir.c_str(),
                sw.millis());
  }
  std::printf("%s", server.metrics().to_string().c_str());
  return 0;
}
