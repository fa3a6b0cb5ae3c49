// Load generator for the prediction service (src/serve/).
//
// Two experiments over repeat-architecture traffic (the service's intended
// regime — schedulers and NAS rankers re-query the same architectures):
//
//   1. Closed loop: T client threads issue requests back-to-back, with the
//      sharded embedding cache enabled vs. disabled.  The cache makes repeat
//      traffic skip the GHN forward pass, so the cached run must clear ≥ 2×
//      the no-cache throughput (acceptance bar printed at the end).
//
//   2. Open loop: a generator submits at a fixed arrival rate against a
//      deliberately small admission queue, sweeping 0.5× / 1× / 2× of the
//      measured no-cache capacity.  At overload the bounded queue sheds load
//      (rejections + deadline expiries) instead of growing without bound;
//      the same overload against a warmed cache is absorbed entirely.
//
//   3. Wire overhead: the same closed-loop repeat traffic through the rpc
//      front-end on loopback (one TCP connection per client thread), against
//      the identical warmed service measured in-process.  The delta prices
//      the protocol: frame encode/decode + CRC + two syscalls per request.
//
//   4. Feedback interleave (--feedback-rate R, R in [0,1]): after a fraction
//      R of successful predictions each client thread also reports an
//      observation of (1 + --feedback-skew) × the predicted time, the way a
//      scheduler would close the loop with measured runtimes.  A skew past
//      the drift threshold triggers background refits while predict traffic
//      keeps flowing; the run reports the drift/refit counters and writes
//      the snapshot to bench_results/serve_loadgen_feedback.json.
//
// Output: one row per run with throughput, tail latency (p50/p95/p99 from
// the metrics layer), and cache hit rate; CSVs land in bench_results/
// (serve_loadgen.csv, serve_loadgen_remote.csv) plus the final metrics
// snapshot as JSON (serve_loadgen_metrics.json, via the same formatter the
// stats op serves).
//
// Cold-miss rows exercise the batched embedding pipeline (DESIGN.md §12):
// every cache miss in a dispatch joins one multi-graph embed_batch_into
// pass, duplicate fingerprints coalesce onto a single forward pass, and the
// `closed-adaptive` row additionally sizes each dispatch from queue depth /
// arrival rate / batch service time instead of the static cap.  The
// metrics dump printed after each cold run (its embed_batch and adaptive
// lines) shows how wide the passes actually ran.
//
// `--family cnn|transformers|all` picks the workload population: the
// Table II CIFAR-10 rows (default), the bert/gpt families on wikitext103,
// or both — the mixed-fleet scheduler view.  Training and warm-up follow
// the choice.
//
// `--remote HOST:PORT` skips training and drives an already-running
// predict_server instead — the external-scheduler view of the service
// (combine with --feedback-rate to interleave observe frames over the wire).
//
// `--smoke` is the CI mode: tiny offline training, a short uncached sweep
// with adaptive batching on, driven through the loopback rpc front-end.
// Exits nonzero unless every request succeeded, the wire saw zero frame
// errors, and completed == cache_hits + cache_misses + reuse_hits.
#include <atomic>
#include <cstdlib>
#include <thread>

#include "bench_common.hpp"
#include "feedback/controller.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "serve/service.hpp"
#include "tensor/simd.hpp"

namespace pddl::bench {
namespace {

// Workload population behind the request mix.  "cnn" is the historical
// default (Table II CIFAR-10 rows); "transformers" swaps in the
// bert/gpt families on wikitext103; "all" drives both, the mixed-fleet
// scheduler view.
std::vector<workload::DlWorkload> family_workloads(const std::string& family) {
  if (family == "cnn") return workload::table2_cifar_workloads();
  if (family == "transformers") return workload::transformer_workloads();
  PDDL_CHECK(family == "all", "unknown --family '", family,
             "' (expected cnn, transformers, or all)");
  std::vector<workload::DlWorkload> ws = workload::table2_cifar_workloads();
  for (auto& w : workload::transformer_workloads()) ws.push_back(std::move(w));
  return ws;
}

// Datasets the predictor must be trained on to serve `family`.
std::vector<workload::DatasetDescriptor> family_datasets(
    const std::string& family) {
  std::vector<workload::DatasetDescriptor> ds;
  if (family != "transformers") ds.push_back(workload::cifar10());
  if (family != "cnn") ds.push_back(workload::wikitext103());
  return ds;
}

std::vector<core::PredictRequest> request_mix(const std::string& family) {
  std::vector<core::PredictRequest> reqs;
  const struct {
    const char* sku;
    int servers;
  } clusters[] = {{"p100", 4}, {"p100", 16}, {"e5_2630", 8}};
  for (const workload::DlWorkload& w : family_workloads(family)) {
    for (const auto& c : clusters) {
      core::PredictRequest req;
      req.workload = w;
      req.cluster = cluster::make_uniform_cluster(c.sku, c.servers);
      reqs.push_back(std::move(req));
    }
  }
  return reqs;
}

struct RunStats {
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t expired = 0;
  double wall_s = 0.0;
  serve::MetricsSnapshot metrics;

  double throughput_rps() const {
    return wall_s > 0 ? static_cast<double>(ok) / wall_s : 0.0;
  }
};

void add_row(Table& table, const std::string& run, bool cache,
             const std::string& load, const RunStats& s) {
  table.row()
      .add(run)
      .add(cache ? "on" : "off")
      .add(load)
      .add(static_cast<std::size_t>(s.submitted))
      .add(static_cast<std::size_t>(s.ok))
      .add(static_cast<std::size_t>(s.rejected))
      .add(static_cast<std::size_t>(s.expired))
      .add(s.throughput_rps(), 1)
      .add(100.0 * s.metrics.cache_hit_rate(), 1)
      .add(s.metrics.e2e.p50_ms, 3)
      .add(s.metrics.e2e.p95_ms, 3)
      .add(s.metrics.e2e.p99_ms, 3);
}

// T threads, each issuing `rounds` passes over the mix, back-to-back.
// With a controller and fb_rate > 0, each thread also reports an observation
// of (1 + fb_skew) × the prediction after a deterministic fraction fb_rate
// of its successful predictions — the scheduler's closed feedback loop.
RunStats closed_loop(serve::PredictionService& service,
                     const std::vector<core::PredictRequest>& reqs,
                     std::size_t threads, std::size_t rounds,
                     feedback::FeedbackController* fb = nullptr,
                     double fb_rate = 0.0, double fb_skew = 0.0) {
  std::atomic<std::uint64_t> ok{0};
  Stopwatch wall;
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      double fb_acc = 0.0;
      for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          const auto& req = reqs[(t + i) % reqs.size()];
          const serve::ServeResult res = service.predict(req);
          if (!res.ok()) continue;
          ok.fetch_add(1);
          if (fb != nullptr && (fb_acc += fb_rate) >= 1.0) {
            fb_acc -= 1.0;
            fb->observe(req,
                        res.response.predicted_time_s * (1.0 + fb_skew));
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  RunStats s;
  s.wall_s = wall.seconds();
  s.ok = ok.load();
  s.submitted = threads * rounds * reqs.size();
  s.metrics = service.metrics();
  return s;
}

// Mean client-side wall time one request occupies one thread for — the
// number the wire overhead is priced in (server-side e2e histograms exclude
// the socket hop, so throughput is the honest basis).
double us_per_request(const RunStats& s, std::size_t threads) {
  return s.ok == 0 ? 0.0
                   : 1e6 * static_cast<double>(threads) / s.throughput_rps();
}

Table wire_comparison_table() {
  return Table({"transport", "requests", "ok", "tput_rps", "us_per_req",
                "hit_pct", "p50_ms", "p95_ms", "p99_ms"});
}

void add_wire_row(Table& table, const std::string& transport,
                  std::size_t threads, const RunStats& s) {
  table.row()
      .add(transport)
      .add(static_cast<std::size_t>(s.submitted))
      .add(static_cast<std::size_t>(s.ok))
      .add(s.throughput_rps(), 1)
      .add(us_per_request(s, threads), 1)
      .add(100.0 * s.metrics.cache_hit_rate(), 1)
      .add(s.metrics.e2e.p50_ms, 3)
      .add(s.metrics.e2e.p95_ms, 3)
      .add(s.metrics.e2e.p99_ms, 3);
}

// The closed loop again, but through the rpc front-end: each thread opens
// its own connection and round-trips every request over the wire.  Metrics
// come back through the stats op, so the snapshot includes the rpc-layer
// counters (and, against an external server, its whole service lifetime).
RunStats closed_loop_remote(const std::string& host, std::uint16_t port,
                            const std::vector<core::PredictRequest>& reqs,
                            std::size_t threads, std::size_t rounds,
                            double fb_rate = 0.0, double fb_skew = 0.0) {
  std::atomic<std::uint64_t> ok{0};
  Stopwatch wall;
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      rpc::Client client(host, port);
      double fb_acc = 0.0;
      for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          const auto& req = reqs[(t + i) % reqs.size()];
          const serve::ServeResult res = client.predict(req);
          if (!res.ok()) continue;
          ok.fetch_add(1);
          if (fb_rate > 0.0 && (fb_acc += fb_rate) >= 1.0) {
            fb_acc -= 1.0;
            client.observe(req,
                           res.response.predicted_time_s * (1.0 + fb_skew));
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  RunStats s;
  s.wall_s = wall.seconds();
  s.ok = ok.load();
  s.submitted = threads * rounds * reqs.size();
  s.metrics = rpc::Client(host, port).stats();
  return s;
}

// Persists the snapshot through the same to_json the stats op serves.
void write_metrics_json(const serve::MetricsSnapshot& m,
                        const std::string& name) {
  std::filesystem::create_directories("bench_results");
  const std::string path = "bench_results/" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  PDDL_CHECK(f != nullptr, "cannot open metrics output: ", path);
  std::fputs((m.to_json() + "\n").c_str(), f);
  std::fclose(f);
  std::printf("  -> %s\n\n", path.c_str());
}

// Fixed arrival rate for `duration_s`; every request carries `deadline_ms`.
RunStats open_loop(serve::PredictionService& service,
                   const std::vector<core::PredictRequest>& reqs, double rps,
                   double duration_s, double deadline_ms) {
  using Clock = std::chrono::steady_clock;
  std::vector<std::future<serve::ServeResult>> futs;
  futs.reserve(static_cast<std::size_t>(rps * duration_s) + 16);
  Stopwatch wall;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const auto target =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) / rps));
    std::this_thread::sleep_until(target);
    if (std::chrono::duration<double>(Clock::now() - start).count() >=
        duration_s) {
      break;
    }
    futs.push_back(service.submit(reqs[i % reqs.size()], deadline_ms));
  }
  RunStats s;
  s.submitted = futs.size();
  for (auto& f : futs) {
    const serve::ServeResult r = f.get();
    if (r.ok()) ++s.ok;
    if (r.status == serve::ServeStatus::kRejectedQueueFull) ++s.rejected;
    if (r.status == serve::ServeStatus::kDeadlineExceeded) ++s.expired;
  }
  s.wall_s = wall.seconds();
  s.metrics = service.metrics();
  return s;
}

int run(double feedback_rate, double feedback_skew, const std::string& family,
        ghn::Precision precision) {
  ThreadPool pool;
  sim::DdlSimulator simulator;
  const core::PredictDdlOptions opts = standard_options();
  core::PredictDdl pddl(simulator, pool, opts);
  for (const workload::DatasetDescriptor& ds : family_datasets(family)) {
    ensure_ghn_cached(pddl, ds, opts);
    std::printf("fitting the %s predictor...\n", ds.name.c_str());
    pddl.train_offline(ds);
  }

  const auto reqs = request_mix(family);
  std::printf("request mix: %zu distinct (model, cluster) pairs\n\n",
              reqs.size());

  Table table({"run", "cache", "load", "requests", "ok", "rej_full",
               "expired", "tput_rps", "hit_pct", "p50_ms", "p95_ms",
               "p99_ms"});

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 12;

  // --- Closed loop, no cache: every request pays the GHN forward pass. ---
  serve::ServiceConfig base;
  base.dispatcher_threads = 4;
  base.queue_capacity = 4096;
  base.precision = precision;
  std::printf("embed engine: precision=%s dispatch=%s\n",
              ghn::precision_name(precision), simd::active_level_name());
  RunStats nocache;
  {
    serve::ServiceConfig cfg = base;
    cfg.cache_enabled = false;
    serve::PredictionService service(pddl, cfg);
    nocache = closed_loop(service, reqs, kThreads, kRounds);
    add_row(table, "closed", false, std::to_string(kThreads) + " threads",
            nocache);
    std::printf("%s", nocache.metrics.to_string().c_str());
  }

  // --- Closed loop, no cache, adaptive dispatch sizing: the sizer grows
  // batches under backlog instead of always popping the static cap. ---
  RunStats adaptive_cold;
  {
    serve::ServiceConfig cfg = base;
    cfg.cache_enabled = false;
    cfg.adaptive_batch = true;
    serve::PredictionService service(pddl, cfg);
    adaptive_cold = closed_loop(service, reqs, kThreads, kRounds);
    add_row(table, "closed-adaptive", false,
            std::to_string(kThreads) + " threads", adaptive_cold);
    std::printf("%s", adaptive_cold.metrics.to_string().c_str());
  }

  // --- Closed loop, warm cache: repeat traffic skips the forward pass. ---
  RunStats cached;
  {
    serve::PredictionService service(pddl, base);
    service.warm_up(family_workloads(family));
    cached = closed_loop(service, reqs, kThreads, kRounds);
    add_row(table, "closed", true, std::to_string(kThreads) + " threads",
            cached);
    std::printf("%s\n", cached.metrics.to_string().c_str());
    // Shard occupancy: the fingerprint hash should spread the warmed
    // working set roughly evenly, or one hot shard serializes the lookups.
    std::printf("cache shard occupancy:");
    for (const std::size_t n : service.cache().shard_entry_counts()) {
      std::printf(" %zu", n);
    }
    std::printf("\n\n");
  }

  // --- Open loop: arrival-rate sweep against a small admission queue. ---
  const double capacity = nocache.throughput_rps();
  serve::ServiceConfig open_cfg = base;
  open_cfg.queue_capacity = 64;  // small bound so overload sheds visibly
  constexpr double kDeadlineMs = 250.0;
  for (double mult : {0.5, 1.0, 2.0}) {
    serve::ServiceConfig cfg = open_cfg;
    cfg.cache_enabled = false;
    serve::PredictionService service(pddl, cfg);
    const RunStats s =
        open_loop(service, reqs, mult * capacity, 3.0, kDeadlineMs);
    char label[64];
    std::snprintf(label, sizeof(label), "%.0f rps (%.1fx cap)",
                  mult * capacity, mult);
    add_row(table, "open", false, label, s);
  }
  {
    // Same 2× overload, but with a warm cache: absorbed without shedding.
    serve::PredictionService service(pddl, open_cfg);
    service.warm_up(family_workloads(family));
    const RunStats s =
        open_loop(service, reqs, 2.0 * capacity, 3.0, kDeadlineMs);
    char label[64];
    std::snprintf(label, sizeof(label), "%.0f rps (2.0x cap)",
                  2.0 * capacity);
    add_row(table, "open", true, label, s);
  }

  emit(table, "serve_loadgen — prediction service under load",
       "serve_loadgen.csv");

  // --- Wire overhead: identical warmed services, in-process vs loopback. ---
  Table wire_table = wire_comparison_table();
  RunStats local;
  {
    serve::PredictionService service(pddl, base);
    service.warm_up(family_workloads(family));
    local = closed_loop(service, reqs, kThreads, kRounds);
    add_wire_row(wire_table, "in-process", kThreads, local);
  }
  RunStats wire;
  {
    serve::PredictionService service(pddl, base);
    service.warm_up(family_workloads(family));
    rpc::Server server(service);
    server.start();
    wire = closed_loop_remote("127.0.0.1", server.port(), reqs, kThreads,
                              kRounds);
    server.stop();
    add_wire_row(wire_table, "loopback-rpc", kThreads, wire);
  }
  emit(wire_table, "serve_loadgen — wire-protocol overhead (loopback rpc)",
       "serve_loadgen_remote.csv");
  write_metrics_json(wire.metrics, "serve_loadgen_metrics.json");

  // --- Feedback interleave: observations + background refits under load. ---
  if (feedback_rate > 0.0) {
    serve::PredictionService service(pddl, base);
    service.warm_up(family_workloads(family));
    feedback::FeedbackController fb(service, pddl);
    const RunStats s = closed_loop(service, reqs, kThreads, kRounds, &fb,
                                   feedback_rate, feedback_skew);
    fb.wait_idle();  // let queued refits finish so the counters are final
    std::printf(
        "\nfeedback interleave: rate=%.2f skew=%+.0f%% — %.0f rps with "
        "observations riding along\n",
        feedback_rate, 100.0 * feedback_skew, s.throughput_rps());
    std::printf("%s", service.metrics().to_string().c_str());
    write_metrics_json(service.metrics(), "serve_loadgen_feedback.json");
  }
  const double local_us = us_per_request(local, kThreads);
  const double wire_us = us_per_request(wire, kThreads);
  std::printf(
      "wire overhead on repeat traffic: %.1fus/request (in-process %.1fus -> "
      "loopback %.1fus, %.0f%% of in-process throughput; frames in/out "
      "%llu/%llu, frame errors %llu)\n",
      wire_us - local_us, local_us, wire_us,
      100.0 * wire.throughput_rps() / std::max(1e-9, local.throughput_rps()),
      static_cast<unsigned long long>(wire.metrics.rpc_frames_received),
      static_cast<unsigned long long>(wire.metrics.rpc_frames_sent),
      static_cast<unsigned long long>(wire.metrics.rpc_frame_errors));

  std::printf(
      "cold-miss (uncached) throughput: static dispatch %.0f rps (p99 "
      "%.3fms), adaptive %.0f rps (p99 %.3fms)\n",
      nocache.throughput_rps(), nocache.metrics.e2e.p99_ms,
      adaptive_cold.throughput_rps(), adaptive_cold.metrics.e2e.p99_ms);
  const double speedup =
      cached.throughput_rps() / std::max(1e-9, nocache.throughput_rps());
  std::printf(
      "cache speedup on repeat traffic: %.2fx  (no-cache %.0f rps → cached "
      "%.0f rps; target >= 2x: %s)\n",
      speedup, nocache.throughput_rps(), cached.throughput_rps(),
      speedup >= 2.0 ? "PASS" : "FAIL");
  return speedup >= 2.0 ? 0 : 1;
}

// `--remote HOST:PORT`: no training, no local service — drive a running
// predict_server over the wire and report what an external scheduler sees.
int run_remote(const std::string& host, std::uint16_t port,
               std::size_t threads, std::size_t rounds, double feedback_rate,
               double feedback_skew, const std::string& family) {
  const auto reqs = request_mix(family);
  std::printf("driving %s:%u — %zu threads x %zu rounds x %zu requests\n\n",
              host.c_str(), port, threads, rounds, reqs.size());
  const RunStats s = closed_loop_remote(host, port, reqs, threads, rounds,
                                        feedback_rate, feedback_skew);
  Table table = wire_comparison_table();
  add_wire_row(table, "remote", threads, s);
  emit(table, "serve_loadgen --remote — rpc front-end under load",
       "serve_loadgen_remote.csv");
  write_metrics_json(s.metrics, "serve_loadgen_metrics.json");
  std::printf("%s", s.metrics.to_string().c_str());
  return s.ok == s.submitted ? 0 : 1;
}

// `--smoke`: the CI gate.  Tiny offline training, then a short uncached
// sweep with adaptive batching on, driven through the loopback rpc
// front-end so the frame counters are exercised too.  Asserts the invariants
// the batched miss path must preserve: every request succeeds, the wire sees
// zero frame errors, and completed == cache_hits + cache_misses + reuse_hits
// (coalesced requests still count as misses).
int run_smoke(const std::string& family, ghn::Precision precision) {
  ThreadPool pool;
  sim::DdlSimulator simulator;
  core::PredictDdlOptions opts;
  opts.ghn.hidden_dim = 12;
  opts.ghn.mlp_hidden = 12;
  opts.ghn_trainer.corpus_size = 10;
  opts.ghn_trainer.epochs = 4;
  opts.ghn_trainer.batch_size = 5;
  opts.ghn_trainer.darts.max_cells = 3;
  core::PredictDdl pddl(simulator, pool, std::move(opts));
  for (const workload::DatasetDescriptor& ds : family_datasets(family)) {
    std::printf("smoke: tiny offline training (%s)...\n", ds.name.c_str());
    pddl.train_offline(ds);
  }

  const auto reqs = request_mix(family);
  serve::ServiceConfig cfg;
  cfg.dispatcher_threads = 2;
  cfg.queue_capacity = 1024;
  cfg.cache_enabled = false;  // every request exercises the batched miss path
  cfg.adaptive_batch = true;
  cfg.precision = precision;
  std::printf("smoke: embed engine precision=%s dispatch=%s\n",
              ghn::precision_name(precision), simd::active_level_name());
  serve::PredictionService service(pddl, cfg);
  rpc::Server server(service);
  server.start();
  const RunStats s =
      closed_loop_remote("127.0.0.1", server.port(), reqs, /*threads=*/4,
                         /*rounds=*/2);
  server.stop();

  const serve::MetricsSnapshot& m = s.metrics;
  std::printf("%s", m.to_string().c_str());
  const bool all_ok = s.ok == s.submitted;
  const bool no_frame_errors = m.rpc_frame_errors == 0;
  const bool accounted =
      m.completed == m.cache_hits + m.cache_misses + m.reuse_hits;
  std::printf(
      "smoke: %llu/%llu ok, frame_errors=%llu, completed=%llu "
      "(hits=%llu misses=%llu reuse=%llu), adaptive_decisions=%llu\n",
      static_cast<unsigned long long>(s.ok),
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(m.rpc_frame_errors),
      static_cast<unsigned long long>(m.completed),
      static_cast<unsigned long long>(m.cache_hits),
      static_cast<unsigned long long>(m.cache_misses),
      static_cast<unsigned long long>(m.reuse_hits),
      static_cast<unsigned long long>(m.adaptive_decisions));
  const bool pass = all_ok && no_frame_errors && accounted;
  std::printf("smoke: %s (all_ok=%d frame_errors_zero=%d accounting=%d)\n",
              pass ? "PASS" : "FAIL", all_ok, no_frame_errors, accounted);
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace pddl::bench

int main(int argc, char** argv) {
  std::string endpoint;
  bool smoke = false;
  std::size_t threads = 8;
  std::size_t rounds = 12;
  double feedback_rate = 0.0;  // fraction of ok predictions also observed
  double feedback_skew = 0.5;  // measured = (1 + skew) × predicted
  std::string family = "cnn";  // request-mix population (cnn | transformers | all)
  // f32 is the serving default; --precision f64 runs the oracle ablation.
  pddl::ghn::Precision precision = pddl::ghn::Precision::kF32;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--remote" && i + 1 < argc) {
      endpoint = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--rounds" && i + 1 < argc) {
      rounds = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--feedback-rate" && i + 1 < argc) {
      feedback_rate = std::atof(argv[++i]);
    } else if (arg == "--feedback-skew" && i + 1 < argc) {
      feedback_skew = std::atof(argv[++i]);
    } else if (arg == "--family" && i + 1 < argc) {
      family = argv[++i];
    } else if (arg == "--precision" && i + 1 < argc) {
      if (!pddl::ghn::parse_precision(argv[++i], precision)) {
        std::fprintf(stderr, "--precision expects f32 or f64; got %s\n",
                     argv[i]);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--remote HOST:PORT] [--smoke] [--threads N] "
                   "[--rounds N] [--feedback-rate R] [--feedback-skew S] "
                   "[--family cnn|transformers|all] [--precision f32|f64]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke) {
    return pddl::bench::run_smoke(family, precision);
  }
  if (!endpoint.empty()) {
    const std::size_t colon = endpoint.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "--remote expects HOST:PORT, got %s\n",
                   endpoint.c_str());
      return 2;
    }
    return pddl::bench::run_remote(
        endpoint.substr(0, colon),
        static_cast<std::uint16_t>(std::atoi(endpoint.c_str() + colon + 1)),
        threads, rounds, feedback_rate, feedback_skew, family);
  }
  return pddl::bench::run(feedback_rate, feedback_skew, family, precision);
}
