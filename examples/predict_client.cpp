// Command-line client for a running predict_server — the scheduler's-eye
// view of the prediction service, over the wire.
//
//   ./predict_client --connect HOST:PORT [op]
//
// Ops (default --ping):
//   --ping                       round-trip an empty frame, print latency
//   --predict MODEL              predict training time for MODEL
//       [--dataset cifar10|tiny_imagenet|wikitext103]
//       [--sku p100|e5_2630|e5_2650] [--servers N] [--batch-size B]
//       [--epochs E] [--deadline-ms D] [--parallelism dp|ppSxM|tpT]
//       [--count N]              repeat N times (cache-hit demo / smoke)
//   --predict-family FAM         predict every registered model in family
//                                FAM (resnet, vgg, ..., bert, gpt); the
//                                transformer families default to the
//                                wikitext103 dataset unless --dataset is
//                                given explicitly
//   --predict-value MODEL        print ONLY the predicted seconds, full
//                                precision (for scripting / CI comparisons)
//   --observe MODEL              report an observed training run for MODEL
//       --measured-s S           ground-truth seconds, or
//       --measured-factor F      F × the live prediction (lets a smoke test
//                                inject a known skew without shell floats)
//       [--count N]              send N observations
//   --refit --dataset D          explicitly enqueue a refit for dataset D
//   --refit-status               print refit counters, per-dataset errors,
//                                and the per-family decomposition with the
//                                ghn_drift (retrain-the-GHN) signal
//   --retrain FAM --dataset D    explicitly enqueue a GHN fine-tune for
//                                family FAM on dataset D (any server;
//                                --auto-retrain is not needed)
//   --retrain-status             print the GHN generation, the last
//                                fine-tune summary, and the per-family
//                                before/after error across the last swap
//   --stats [--json]             fetch + print the server metrics snapshot
//   --shutdown                   ask the server to drain and exit
//
// Exits nonzero on transport errors or failed predictions, so it doubles
// as the CI loopback smoke client.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "graph/models.hpp"
#include "graph/models_transformer.hpp"
#include "rpc/client.hpp"
#include "rpc/socket.hpp"

using namespace pddl;

int main(int argc, char** argv) {
  std::string endpoint;
  std::string op = "ping";
  std::string model;
  std::string family;
  std::string dataset = "cifar10";
  bool dataset_given = false;
  std::string parallelism = "dp";
  std::string sku = "p100";
  int servers = 4;
  int batch_size = 64;
  int epochs = 10;
  double deadline_ms = -1.0;
  double measured_s = 0.0;
  double measured_factor = 0.0;
  int count = 1;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      endpoint = argv[++i];
    } else if (arg == "--ping") {
      op = "ping";
    } else if (arg == "--predict" && i + 1 < argc) {
      op = "predict";
      model = argv[++i];
    } else if (arg == "--predict-family" && i + 1 < argc) {
      op = "predict-family";
      family = argv[++i];
    } else if (arg == "--predict-value" && i + 1 < argc) {
      op = "predict-value";
      model = argv[++i];
    } else if (arg == "--observe" && i + 1 < argc) {
      op = "observe";
      model = argv[++i];
    } else if (arg == "--measured-s" && i + 1 < argc) {
      measured_s = std::atof(argv[++i]);
    } else if (arg == "--measured-factor" && i + 1 < argc) {
      measured_factor = std::atof(argv[++i]);
    } else if (arg == "--refit") {
      op = "refit";
    } else if (arg == "--refit-status") {
      op = "refit-status";
    } else if (arg == "--retrain" && i + 1 < argc) {
      op = "retrain";
      family = argv[++i];
    } else if (arg == "--retrain-status") {
      op = "retrain-status";
    } else if (arg == "--stats") {
      op = "stats";
    } else if (arg == "--shutdown") {
      op = "shutdown";
    } else if (arg == "--dataset" && i + 1 < argc) {
      dataset = argv[++i];
      dataset_given = true;
    } else if (arg == "--parallelism" && i + 1 < argc) {
      parallelism = argv[++i];
    } else if (arg == "--sku" && i + 1 < argc) {
      sku = argv[++i];
    } else if (arg == "--servers" && i + 1 < argc) {
      servers = std::atoi(argv[++i]);
    } else if (arg == "--batch-size" && i + 1 < argc) {
      batch_size = std::atoi(argv[++i]);
    } else if (arg == "--epochs" && i + 1 < argc) {
      epochs = std::atoi(argv[++i]);
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      deadline_ms = std::atof(argv[++i]);
    } else if (arg == "--count" && i + 1 < argc) {
      count = std::atoi(argv[++i]);
    } else if (arg == "--json") {
      json = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  const std::size_t colon = endpoint.rfind(':');
  if (endpoint.empty() || colon == std::string::npos) {
    std::fprintf(stderr,
                 "usage: %s --connect HOST:PORT "
                 "[--ping | --predict MODEL | --predict-family FAM | "
                 "--predict-value MODEL | --observe MODEL | --refit | "
                 "--refit-status | --retrain FAM | --retrain-status | "
                 "--stats | --shutdown] ...\n",
                 argv[0]);
    return 2;
  }
  const std::string host = endpoint.substr(0, colon);
  std::uint16_t port = 0;
  if (!rpc::parse_port(std::string_view(endpoint).substr(colon + 1), 1,
                       &port)) {
    std::fprintf(stderr, "--connect expects HOST:PORT with PORT 1-65535; "
                 "got %s\n", endpoint.c_str());
    return 2;
  }

  try {
    rpc::Client client(host, port);
    // Token-stream models live on wikitext103; let an explicit --dataset
    // override (mirrors the --predict-family default).
    if (!dataset_given && !model.empty()) {
      for (const graph::ModelSpec& spec :
           graph::transformer_model_registry()) {
        if (spec.name == model) {
          dataset = "wikitext103";
          break;
        }
      }
    }
    const auto make_request = [&] {
      core::PredictRequest req;
      req.workload = {model, workload::dataset_by_name(dataset), batch_size,
                      epochs, workload::parallelism_from_key(parallelism)};
      req.cluster = cluster::make_uniform_cluster(sku, servers);
      return req;
    };
    if (op == "ping") {
      std::printf("ping %s: %.3fms\n", endpoint.c_str(), client.ping());
    } else if (op == "predict") {
      const core::PredictRequest req = make_request();
      int failed = 0;
      for (int i = 0; i < count; ++i) {
        const serve::ServeResult r = client.predict(req, deadline_ms);
        if (i == 0 || !r.ok()) {
          std::printf("%-28s %2d×%-8s → status=%s", req.workload.key().c_str(),
                      servers, sku.c_str(), serve::to_string(r.status));
          if (r.ok()) {
            std::printf("  %.1fs  (%s, embed %.2fms, infer %.2fms, "
                        "e2e %.2fms)",
                        r.response.predicted_time_s,
                        r.confidence == serve::Confidence::kReused
                            ? "reused"
                            : (r.cache_hit ? "cache hit" : "cache miss"),
                        r.response.embedding_ms, r.response.inference_ms,
                        r.total_ms);
          } else {
            std::printf("  (%s)", r.error.c_str());
          }
          std::printf("\n");
        }
        if (!r.ok()) ++failed;
      }
      if (count > 1) {
        std::printf("%d/%d predictions ok\n", count - failed, count);
      }
      if (failed > 0) return 1;
    } else if (op == "predict-family") {
      std::vector<std::string> models;
      bool transformer_family = false;
      for (const graph::ModelSpec& spec : graph::model_registry()) {
        if (spec.family == family) models.push_back(spec.name);
      }
      for (const graph::ModelSpec& spec :
           graph::transformer_model_registry()) {
        if (spec.family == family) {
          models.push_back(spec.name);
          transformer_family = true;
        }
      }
      if (models.empty()) {
        std::fprintf(stderr, "no registered models in family '%s'\n",
                     family.c_str());
        return 2;
      }
      // Token-stream families live on wikitext103; let an explicit
      // --dataset override.
      if (transformer_family && !dataset_given) dataset = "wikitext103";
      int failed = 0;
      for (const std::string& m : models) {
        model = m;
        const core::PredictRequest req = make_request();
        const serve::ServeResult r = client.predict(req, deadline_ms);
        std::printf("%-28s → status=%s", req.workload.key().c_str(),
                    serve::to_string(r.status));
        if (r.ok()) {
          std::printf("  %.1fs  (%s)", r.response.predicted_time_s,
                      r.confidence == serve::Confidence::kReused
                          ? "reused"
                          : (r.cache_hit ? "cache hit" : "cache miss"));
        } else {
          std::printf("  (%s)", r.error.c_str());
          ++failed;
        }
        std::printf("\n");
      }
      std::printf("family %s: %zu/%zu predictions ok\n", family.c_str(),
                  models.size() - static_cast<std::size_t>(failed),
                  models.size());
      if (failed > 0) return 1;
    } else if (op == "predict-value") {
      const serve::ServeResult r = client.predict(make_request(), deadline_ms);
      if (!r.ok()) {
        std::fprintf(stderr, "predict failed: %s (%s)\n",
                     serve::to_string(r.status), r.error.c_str());
        return 1;
      }
      // Bare, full-precision: scripts diff this against a later prediction
      // to confirm a refit actually moved the model.
      std::printf("%.17g\n", r.response.predicted_time_s);
    } else if (op == "observe") {
      const core::PredictRequest req = make_request();
      double measured = measured_s;
      if (measured_factor > 0.0) {
        const serve::ServeResult live = client.predict(req, deadline_ms);
        if (!live.ok()) {
          std::fprintf(stderr, "observe: live prediction failed: %s (%s)\n",
                       serve::to_string(live.status), live.error.c_str());
          return 1;
        }
        measured = live.response.predicted_time_s * measured_factor;
      }
      int accepted = 0;
      bool drifted = false;
      bool refit_triggered = false;
      bool ghn_drift = false;
      bool retrain_triggered = false;
      std::string reason;
      for (int i = 0; i < count; ++i) {
        const feedback::ObserveOutcome o = client.observe(req, measured);
        if (o.accepted) ++accepted;
        if (!o.accepted && reason.empty()) reason = o.reason;
        drifted = drifted || o.drifted;
        refit_triggered = refit_triggered || o.refit_triggered;
        ghn_drift = ghn_drift || o.ghn_drift;
        retrain_triggered = retrain_triggered || o.retrain_triggered;
        if (i == 0) {
          std::printf("%-28s observed %.1fs vs predicted %.1fs "
                      "(rel_err %.2f)\n",
                      req.workload.key().c_str(), measured, o.predicted_s,
                      o.rel_error);
        }
      }
      std::printf("observations: %d/%d accepted, drifted=%s, "
                  "refit_triggered=%s, ghn_drift=%s, retrain_triggered=%s\n",
                  accepted, count, drifted ? "true" : "false",
                  refit_triggered ? "true" : "false",
                  ghn_drift ? "true" : "false",
                  retrain_triggered ? "true" : "false");
      if (!reason.empty()) std::printf("rejected: %s\n", reason.c_str());
      if (accepted == 0) return 1;
    } else if (op == "refit") {
      const bool started = client.request_refit(dataset);
      std::printf("refit %s: %s\n", dataset.c_str(),
                  started ? "enqueued" : "already queued or running");
    } else if (op == "refit-status") {
      const feedback::RefitStatus s = client.refit_status();
      std::printf("refits: started=%llu completed=%llu failed=%llu "
                  "in_progress=%s queued=%zu\n",
                  static_cast<unsigned long long>(s.started),
                  static_cast<unsigned long long>(s.completed),
                  static_cast<unsigned long long>(s.failed),
                  s.in_progress ? "true" : "false", s.queued);
      if (!s.last_dataset.empty()) {
        std::printf("last: dataset=%s campaign_rows=%llu "
                    "observation_rows=%llu\n",
                    s.last_dataset.c_str(),
                    static_cast<unsigned long long>(s.last_campaign_rows),
                    static_cast<unsigned long long>(s.last_observation_rows));
      }
      if (!s.last_error.empty()) {
        std::printf("last_error: %s\n", s.last_error.c_str());
      }
      for (const feedback::DatasetFeedback& d : s.datasets) {
        std::printf("dataset %-16s observations=%llu window=%zu "
                    "p50_rel=%.3f p95_rel=%.3f p50_abs=%.2fs drifted=%s\n",
                    d.dataset.c_str(),
                    static_cast<unsigned long long>(d.observations),
                    d.errors.count, d.errors.p50_rel, d.errors.p95_rel,
                    d.errors.p50_abs_s, d.errors.drifted ? "true" : "false");
      }
      for (const feedback::FamilyFeedback& f : s.families) {
        std::printf("family  %-10s @%-12s observations=%llu window=%zu "
                    "p50_rel=%.3f p95_rel=%.3f drifted=%s ghn_drift=%s\n",
                    f.family.c_str(), f.dataset.c_str(),
                    static_cast<unsigned long long>(f.observations),
                    f.errors.count, f.errors.p50_rel, f.errors.p95_rel,
                    f.errors.drifted ? "true" : "false",
                    f.ghn_drift ? "true" : "false");
      }
    } else if (op == "retrain") {
      // Transformer families live on wikitext103 unless --dataset overrides.
      if (!dataset_given) {
        for (const graph::ModelSpec& spec :
             graph::transformer_model_registry()) {
          if (spec.family == family) {
            dataset = "wikitext103";
            break;
          }
        }
      }
      const bool started = client.request_retrain(dataset, family);
      std::printf("retrain %s@%s: %s\n", family.c_str(), dataset.c_str(),
                  started ? "enqueued" : "already queued or running");
    } else if (op == "retrain-status") {
      const feedback::RetrainStatus s = client.retrain_status();
      std::printf("retrains: generation=%llu started=%llu completed=%llu "
                  "failed=%llu in_progress=%s queued=%zu\n",
                  static_cast<unsigned long long>(s.generation),
                  static_cast<unsigned long long>(s.started),
                  static_cast<unsigned long long>(s.completed),
                  static_cast<unsigned long long>(s.failed),
                  s.in_progress ? "true" : "false", s.queued);
      if (!s.last_dataset.empty()) {
        std::printf("last: family=%s dataset=%s corpus_graphs=%llu "
                    "(family %llu) epochs=%d train=%.1fs loss %.4f→%.4f "
                    "ghn_checksum=%016llx\n",
                    s.last_family.c_str(), s.last_dataset.c_str(),
                    static_cast<unsigned long long>(s.last_corpus_graphs),
                    static_cast<unsigned long long>(s.last_family_graphs),
                    s.last_epochs_run, s.last_train_seconds,
                    s.last_initial_loss, s.last_final_loss,
                    static_cast<unsigned long long>(s.live_checksum));
      }
      if (!s.last_error.empty()) {
        std::printf("last_error: %s\n", s.last_error.c_str());
      }
      for (const feedback::FamilyErrorDelta& d : s.families) {
        std::printf("family  %-10s @%-12s before: p50_rel=%.3f (n=%zu)  "
                    "after: p50_rel=%.3f (n=%zu)\n",
                    d.family.c_str(), d.dataset.c_str(), d.before.p50_rel,
                    d.before.count, d.after.p50_rel, d.after.count);
      }
    } else if (op == "stats") {
      const serve::MetricsSnapshot m = client.stats();
      std::printf("%s", json ? (m.to_json() + "\n").c_str()
                             : m.to_string().c_str());
    } else if (op == "shutdown") {
      client.request_shutdown();
      std::printf("shutdown requested\n");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
