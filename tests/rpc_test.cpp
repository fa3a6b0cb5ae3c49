// Coverage for the src/rpc/ subsystem, in two halves.
//
// Wire format (pure, in-memory): frame and body round-trips, then the
// adversarial promise mirrored from io_test — every-byte corruption,
// truncation at every offset, oversized-frame rejection, and version skew
// all surface as clean pddl::Error, never as garbage state.
//
// Loopback server (real sockets on 127.0.0.1, ephemeral ports): remote
// predictions match the in-process path bit-identically, ≥10k round-trips
// complete with zero frame errors, N concurrent clients hammer one server,
// deadlines expire over the wire, the connection cap rejects with a typed
// overload error, garbage bytes can't crash or wedge the server, and
// stop() drains in-flight requests.  This binary also runs under
// ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "tensor/simd.hpp"

namespace pddl::rpc {
namespace {

core::PredictRequest make_request(const std::string& model, int servers = 4,
                                  const std::string& sku = "p100") {
  core::PredictRequest req;
  req.workload = {model, workload::cifar10(), /*batch=*/64, /*epochs=*/10};
  req.cluster = cluster::make_uniform_cluster(sku, servers);
  return req;
}

// Reads one whole frame off a raw socket and decodes the response — used by
// the tests that need to observe frame-level statuses the Client maps away.
Response read_response_frame(const Socket& sock) {
  char prefix[kFramePrefixBytes];
  EXPECT_EQ(recv_exact(sock, prefix, sizeof(prefix)), RecvOutcome::kOk);
  const std::uint32_t body_len = decode_frame_prefix(prefix);
  std::string full(kFrameOverheadBytes + body_len, '\0');
  full.replace(0, sizeof(prefix), prefix, sizeof(prefix));
  EXPECT_EQ(recv_exact(sock, full.data() + kFramePrefixBytes,
                       full.size() - kFramePrefixBytes),
            RecvOutcome::kOk);
  return decode_response(decode_frame(full));
}

// ---- wire format: round-trips ----

TEST(Socket, ParsePortAcceptsOnlyWholeNumbersInRange) {
  std::uint16_t port = 7;
  EXPECT_TRUE(rpc::parse_port("0", 0, &port));
  EXPECT_EQ(port, 0);
  EXPECT_TRUE(rpc::parse_port("65535", 1, &port));
  EXPECT_EQ(port, 65535);
  EXPECT_TRUE(rpc::parse_port("7077", 1, &port));
  EXPECT_EQ(port, 7077);
  // Out of range, signed, partial or empty: rejected, *port untouched.
  for (const char* bad : {"0", "65536", "70000", "-1", "+80", "80x", " 80",
                          "", "99999999999999999999"}) {
    EXPECT_FALSE(rpc::parse_port(bad, 1, &port)) << bad;
    EXPECT_EQ(port, 7077) << bad;
  }
}

TEST(Wire, FrameRoundTrips) {
  const std::string body = "arbitrary body bytes \x00\x01\x7f";
  const std::string frame = encode_frame(body);
  EXPECT_EQ(frame.size(), body.size() + kFrameOverheadBytes);
  EXPECT_EQ(decode_frame(frame), body);
}

TEST(Wire, EmptyBodyFrameRoundTrips) {
  const std::string frame = encode_frame("");
  EXPECT_EQ(frame.size(), kFrameOverheadBytes);
  EXPECT_EQ(decode_frame(frame), "");
}

TEST(Wire, PredictRequestRoundTripsBitExact) {
  core::PredictRequest req = make_request("resnet50", 7, "e5_2630");
  req.workload.dataset.size_bytes = 123456789;
  req.cluster.servers[2].cpu_availability = 0.375;
  req.cluster.nfs_bw_bps = 9.87e8;

  Request r;
  r.op = Op::kPredict;
  r.deadline_ms = 321.5;
  r.reqs.push_back(req);
  const Request back = decode_request(encode_request(r));

  ASSERT_EQ(back.op, Op::kPredict);
  EXPECT_EQ(back.deadline_ms, 321.5);
  ASSERT_EQ(back.reqs.size(), 1u);
  const core::PredictRequest& b = back.reqs.front();
  EXPECT_EQ(b.workload.model, "resnet50");
  EXPECT_EQ(b.workload.dataset.name, "cifar10");
  EXPECT_EQ(b.workload.dataset.size_bytes, 123456789);
  EXPECT_EQ(b.workload.dataset.input, req.workload.dataset.input);
  EXPECT_EQ(b.workload.batch_size_per_server, 64);
  EXPECT_EQ(b.workload.epochs, 10);
  ASSERT_EQ(b.cluster.servers.size(), 7u);
  EXPECT_EQ(b.cluster.servers[2].sku, "e5_2630");
  EXPECT_EQ(b.cluster.servers[2].cpu_availability, 0.375);
  EXPECT_EQ(b.cluster.servers[2].cpu_flops, req.cluster.servers[2].cpu_flops);
  EXPECT_EQ(b.cluster.nfs_bw_bps, 9.87e8);
}

TEST(Wire, BatchRequestAndAllOpsRoundTrip) {
  Request batch;
  batch.op = Op::kPredictBatch;
  batch.deadline_ms = 10.0;
  batch.reqs = {make_request("alexnet"), make_request("vgg11", 2)};
  const Request back = decode_request(encode_request(batch));
  ASSERT_EQ(back.reqs.size(), 2u);
  EXPECT_EQ(back.reqs[1].workload.model, "vgg11");

  for (Op op : {Op::kPing, Op::kStats, Op::kShutdown, Op::kRefitStatus}) {
    Request r;
    r.op = op;
    EXPECT_EQ(decode_request(encode_request(r)).op, op);
  }
}

TEST(Wire, ObserveRequestAndOutcomeRoundTrip) {
  Request r;
  r.op = Op::kObserve;
  r.measured_s = 4321.125;
  r.reqs.push_back(make_request("resnet50", 6, "e5_2650"));
  const Request back = decode_request(encode_request(r));
  ASSERT_EQ(back.op, Op::kObserve);
  EXPECT_EQ(back.measured_s, 4321.125);
  ASSERT_EQ(back.reqs.size(), 1u);
  EXPECT_EQ(back.reqs.front().workload.model, "resnet50");
  ASSERT_EQ(back.reqs.front().cluster.servers.size(), 6u);

  Response resp;
  resp.op = Op::kObserve;
  resp.observe.accepted = true;
  resp.observe.predicted_s = 1000.5;
  resp.observe.abs_error_s = 3320.625;
  resp.observe.rel_error = 0.768;
  resp.observe.drifted = true;
  resp.observe.refit_triggered = true;
  resp.observe.reason = "";
  const Response rback = decode_response(encode_response(resp));
  EXPECT_TRUE(rback.observe.accepted);
  EXPECT_EQ(rback.observe.predicted_s, 1000.5);
  EXPECT_EQ(rback.observe.abs_error_s, 3320.625);
  EXPECT_EQ(rback.observe.rel_error, 0.768);
  EXPECT_TRUE(rback.observe.drifted);
  EXPECT_TRUE(rback.observe.refit_triggered);

  // And the rejection shape: reason text survives, flags stay false.
  Response rejected;
  rejected.op = Op::kObserve;
  rejected.observe.reason = "measured_seconds must be a positive finite number";
  const Response jback = decode_response(encode_response(rejected));
  EXPECT_FALSE(jback.observe.accepted);
  EXPECT_EQ(jback.observe.reason, rejected.observe.reason);
}

TEST(Wire, RefitRequestAndStatusRoundTrip) {
  Request r;
  r.op = Op::kRefit;
  r.dataset = "tiny_imagenet";
  const Request back = decode_request(encode_request(r));
  ASSERT_EQ(back.op, Op::kRefit);
  EXPECT_EQ(back.dataset, "tiny_imagenet");

  Response resp;
  resp.op = Op::kRefit;
  resp.refit_started = true;
  EXPECT_TRUE(decode_response(encode_response(resp)).refit_started);

  Response status;
  status.op = Op::kRefitStatus;
  status.refit.started = 5;
  status.refit.completed = 3;
  status.refit.failed = 2;
  status.refit.in_progress = true;
  status.refit.queued = 4;
  status.refit.last_dataset = "cifar10";
  status.refit.last_campaign_rows = 56;
  status.refit.last_observation_rows = 17;
  status.refit.last_error = "refit for 'x' failed: no campaign";
  feedback::DatasetFeedback d;
  d.dataset = "cifar10";
  d.observations = 42;
  d.errors.count = 16;
  d.errors.mean_abs_s = 12.5;
  d.errors.mean_rel = 0.25;
  d.errors.p50_abs_s = 10.0;
  d.errors.p95_abs_s = 40.0;
  d.errors.p50_rel = 0.2;
  d.errors.p95_rel = 0.8;
  d.errors.drifted = true;
  status.refit.datasets.push_back(d);

  const Response sback = decode_response(encode_response(status));
  EXPECT_EQ(sback.refit.started, 5u);
  EXPECT_EQ(sback.refit.completed, 3u);
  EXPECT_EQ(sback.refit.failed, 2u);
  EXPECT_TRUE(sback.refit.in_progress);
  EXPECT_EQ(sback.refit.queued, 4u);
  EXPECT_EQ(sback.refit.last_dataset, "cifar10");
  EXPECT_EQ(sback.refit.last_campaign_rows, 56u);
  EXPECT_EQ(sback.refit.last_observation_rows, 17u);
  EXPECT_EQ(sback.refit.last_error, status.refit.last_error);
  ASSERT_EQ(sback.refit.datasets.size(), 1u);
  EXPECT_EQ(sback.refit.datasets[0].dataset, "cifar10");
  EXPECT_EQ(sback.refit.datasets[0].observations, 42u);
  EXPECT_EQ(sback.refit.datasets[0].errors.count, 16u);
  EXPECT_EQ(sback.refit.datasets[0].errors.mean_abs_s, 12.5);
  EXPECT_EQ(sback.refit.datasets[0].errors.p95_rel, 0.8);
  EXPECT_TRUE(sback.refit.datasets[0].errors.drifted);
}

TEST(Wire, RetrainRequestAndStatusRoundTrip) {
  Request r;
  r.op = Op::kRetrain;
  r.dataset = "wikitext103";
  r.family = "bert";
  const Request back = decode_request(encode_request(r));
  ASSERT_EQ(back.op, Op::kRetrain);
  EXPECT_EQ(back.dataset, "wikitext103");
  EXPECT_EQ(back.family, "bert");

  Response resp;
  resp.op = Op::kRetrain;
  resp.retrain_started = true;
  EXPECT_TRUE(decode_response(encode_response(resp)).retrain_started);

  Response status;
  status.op = Op::kRetrainStatus;
  status.retrain.generation = 3;
  status.retrain.started = 4;
  status.retrain.completed = 3;
  status.retrain.failed = 1;
  status.retrain.in_progress = true;
  status.retrain.queued = 2;
  status.retrain.last_dataset = "wikitext103";
  status.retrain.last_family = "bert";
  status.retrain.last_error = "retrain for 'x' failed: unknown dataset";
  status.retrain.last_corpus_graphs = 12;
  status.retrain.last_family_graphs = 5;
  status.retrain.last_epochs_run = 6;
  status.retrain.last_train_seconds = 1.75;
  status.retrain.last_initial_loss = 0.9;
  status.retrain.last_final_loss = 0.3;
  status.retrain.live_checksum = 0xdeadbeefcafe1234ULL;
  feedback::FamilyErrorDelta d;
  d.dataset = "wikitext103";
  d.family = "bert";
  d.before.count = 4;
  d.before.p50_rel = 0.66;
  d.before.p95_rel = 0.7;
  d.before.drifted = true;
  d.after.count = 4;
  d.after.p50_rel = 0.08;
  status.retrain.families.push_back(d);

  const Response sback = decode_response(encode_response(status));
  EXPECT_EQ(sback.retrain.generation, 3u);
  EXPECT_EQ(sback.retrain.started, 4u);
  EXPECT_EQ(sback.retrain.completed, 3u);
  EXPECT_EQ(sback.retrain.failed, 1u);
  EXPECT_TRUE(sback.retrain.in_progress);
  EXPECT_EQ(sback.retrain.queued, 2u);
  EXPECT_EQ(sback.retrain.last_dataset, "wikitext103");
  EXPECT_EQ(sback.retrain.last_family, "bert");
  EXPECT_EQ(sback.retrain.last_error, status.retrain.last_error);
  EXPECT_EQ(sback.retrain.last_corpus_graphs, 12u);
  EXPECT_EQ(sback.retrain.last_family_graphs, 5u);
  EXPECT_EQ(sback.retrain.last_epochs_run, 6);
  EXPECT_EQ(sback.retrain.last_train_seconds, 1.75);
  EXPECT_EQ(sback.retrain.last_initial_loss, 0.9);
  EXPECT_EQ(sback.retrain.last_final_loss, 0.3);
  EXPECT_EQ(sback.retrain.live_checksum, 0xdeadbeefcafe1234ULL);
  ASSERT_EQ(sback.retrain.families.size(), 1u);
  EXPECT_EQ(sback.retrain.families[0].dataset, "wikitext103");
  EXPECT_EQ(sback.retrain.families[0].family, "bert");
  EXPECT_EQ(sback.retrain.families[0].before.count, 4u);
  EXPECT_EQ(sback.retrain.families[0].before.p50_rel, 0.66);
  EXPECT_TRUE(sback.retrain.families[0].before.drifted);
  EXPECT_EQ(sback.retrain.families[0].after.count, 4u);
  EXPECT_EQ(sback.retrain.families[0].after.p50_rel, 0.08);
}

TEST(Wire, WorkloadParallelismKeyRoundTrips) {
  core::PredictRequest req = make_request("resnet18");
  req.workload.parallelism = workload::ParallelismSpec::pipeline(4, 8);
  Request r;
  r.op = Op::kPredict;
  r.reqs = {req};
  const Request back = decode_request(encode_request(r));
  ASSERT_EQ(back.reqs.size(), 1u);
  const workload::ParallelismSpec& p = back.reqs.front().workload.parallelism;
  EXPECT_EQ(p.kind, workload::ParallelismKind::kPipeline);
  EXPECT_EQ(p.pipeline_stages, 4);
  EXPECT_EQ(p.micro_batches, 8);
  EXPECT_EQ(p.key(), "pp4x8");
  // The default stays the default (and keeps old clients compatible).
  r.reqs = {make_request("vgg11")};
  EXPECT_TRUE(decode_request(encode_request(r))
                  .reqs.front()
                  .workload.parallelism.is_default());
}

TEST(Wire, FamilyFeedbackRowsRoundTrip) {
  Response status;
  status.op = Op::kRefitStatus;
  feedback::FamilyFeedback strained;
  strained.dataset = "wikitext103";
  strained.family = "bert";
  strained.observations = 12;
  strained.errors.count = 8;
  strained.errors.mean_rel = 0.61;
  strained.errors.p50_rel = 0.42;
  strained.errors.p95_rel = 1.25;
  strained.errors.drifted = true;
  strained.ghn_drift = true;
  feedback::FamilyFeedback clean;
  clean.dataset = "cifar10";
  clean.family = "resnet";
  clean.observations = 3;
  status.refit.families = {strained, clean};

  const Response back = decode_response(encode_response(status));
  ASSERT_EQ(back.refit.families.size(), 2u);
  EXPECT_EQ(back.refit.families[0].dataset, "wikitext103");
  EXPECT_EQ(back.refit.families[0].family, "bert");
  EXPECT_EQ(back.refit.families[0].observations, 12u);
  EXPECT_EQ(back.refit.families[0].errors.count, 8u);
  EXPECT_EQ(back.refit.families[0].errors.mean_rel, 0.61);
  EXPECT_EQ(back.refit.families[0].errors.p50_rel, 0.42);
  EXPECT_EQ(back.refit.families[0].errors.p95_rel, 1.25);
  EXPECT_TRUE(back.refit.families[0].errors.drifted);
  EXPECT_TRUE(back.refit.families[0].ghn_drift);
  EXPECT_EQ(back.refit.families[1].family, "resnet");
  EXPECT_EQ(back.refit.families[1].observations, 3u);
  EXPECT_FALSE(back.refit.families[1].errors.drifted);
  EXPECT_FALSE(back.refit.families[1].ghn_drift);
}

TEST(Wire, ResponseWithResultsRoundTrips) {
  Response resp;
  resp.op = Op::kPredictBatch;
  resp.status = RpcStatus::kOk;
  serve::ServeResult ok;
  ok.status = serve::ServeStatus::kOk;
  ok.response.predicted_time_s = 1234.5;
  ok.response.embedding_ms = 3.25;
  ok.response.inference_ms = 0.125;
  ok.cache_hit = true;
  ok.queue_ms = 0.5;
  ok.total_ms = 4.75;
  serve::ServeResult rejected;
  rejected.status = serve::ServeStatus::kRejectedQueueFull;
  rejected.error = "admission queue at capacity (64)";
  resp.results = {ok, rejected};

  const Response back = decode_response(encode_response(resp));
  ASSERT_EQ(back.results.size(), 2u);
  EXPECT_EQ(back.results[0].status, serve::ServeStatus::kOk);
  EXPECT_EQ(back.results[0].response.predicted_time_s, 1234.5);
  EXPECT_TRUE(back.results[0].cache_hit);
  EXPECT_EQ(back.results[0].total_ms, 4.75);
  EXPECT_EQ(back.results[1].status, serve::ServeStatus::kRejectedQueueFull);
  EXPECT_EQ(back.results[1].error, "admission queue at capacity (64)");
}

// Gives every stored metrics-table row a value no other row shares.
struct DistinctFill {
  std::uint64_t next = 1;
  void operator()(std::uint64_t& v) { v = next++; }
  void operator()(double& v) { v = static_cast<double>(next++) + 0.25; }
  void operator()(std::string& s) { s = "v" + std::to_string(next++); }
  template <std::size_t N>
  void operator()(std::array<std::uint64_t, N>& a) {
    for (std::uint64_t& c : a) (*this)(c);
  }
  template <serve::HistogramSnapshot H>
  void operator()(H& h) {
    serve::for_each_stat(h, [&](const char*, auto& x) { (*this)(x); });
  }
};

TEST(Wire, StatsResponseRoundTripsEveryCounter) {
  Response resp;
  resp.op = Op::kStats;
  DistinctFill fill;
  serve::for_each_field([&](const char*, const char*, auto member, auto) {
    if constexpr (!std::is_member_function_pointer_v<decltype(member)>) {
      fill(resp.stats.*member);
    }
  });

  const Response back = decode_response(encode_response(resp));
  serve::for_each_field([&](const char* group, const char* key, auto member,
                            auto) {
    EXPECT_TRUE(std::invoke(member, back.stats) ==
                std::invoke(member, resp.stats))
        << group << "." << key;
  });
}

TEST(Wire, ErrorResponseRoundTrips) {
  Response resp;
  resp.op = Op::kPredict;
  resp.status = RpcStatus::kBadRequest;
  resp.message = "rpc frame: CRC mismatch";
  const Response back = decode_response(encode_response(resp));
  EXPECT_EQ(back.status, RpcStatus::kBadRequest);
  EXPECT_EQ(back.message, "rpc frame: CRC mismatch");
  EXPECT_TRUE(back.results.empty());
}

// ---- wire format: golden bytes ----

// FNV-1a (64-bit) over the whole frame: one number that changes if any byte
// of the encoding does.
std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint32_t crc_trailer(const std::string& frame) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(frame[frame.size() - 4 + i]))
         << (8 * i);
  }
  return v;
}

// The expected lengths, CRC trailers and hashes were recorded from the
// protocol-v8 encoder before the codec moved onto in-memory buffers.  Any
// change to them is a wire-format change and needs a kProtocolVersion bump.
TEST(Wire, GoldenPredictBatchFramesAreByteStable) {
  Request req;
  req.op = Op::kPredictBatch;
  req.deadline_ms = 250.0;
  req.reqs = {make_request("resnet18", 4), make_request("vgg11", 8, "e5_2630"),
              make_request("mobilenet_v3_small", 16)};
  const std::string req_frame = encode_frame(encode_request(req));
  EXPECT_EQ(req_frame.size(), 2853u);
  EXPECT_EQ(crc_trailer(req_frame), 0xebe02e96u);
  EXPECT_EQ(fnv1a64(req_frame), 0xeeb83b1874b5c904ull);
  EXPECT_EQ(encode_frame(encode_request(decode_request(decode_frame(
                req_frame)))),
            req_frame);

  Response resp;
  resp.op = Op::kPredictBatch;
  for (int i = 0; i < 3; ++i) {
    serve::ServeResult r;
    r.status = serve::ServeStatus::kOk;
    r.response.predicted_time_s = 100.25 * (i + 1);
    r.response.embedding_ms = 0.5 * i;
    r.response.inference_ms = 0.0625;
    r.cache_hit = i != 1;
    r.confidence = serve::Confidence::kExact;
    r.queue_ms = 0.125 * i;
    r.total_ms = 1.5 + i;
    resp.results.push_back(r);
  }
  resp.results[1].status = serve::ServeStatus::kDeadlineExceeded;
  resp.results[1].error = "deadline expired in queue";
  const std::string resp_frame = encode_frame(encode_response(resp));
  EXPECT_EQ(resp_frame.size(), 219u);
  EXPECT_EQ(crc_trailer(resp_frame), 0xcaa1432au);
  EXPECT_EQ(fnv1a64(resp_frame), 0xd82dbc17a4eb5520ull);
  EXPECT_EQ(encode_frame(encode_response(decode_response(decode_frame(
                resp_frame)))),
            resp_frame);
}

// Every MetricsSnapshot field set by hand to a value no other field shares,
// so a field dropped, duplicated or moved in the stats encoding changes the
// frame bytes.
serve::MetricsSnapshot populated_snapshot() {
  serve::MetricsSnapshot m;
  std::uint64_t next = 1;
  for (std::uint64_t* f :
       {&m.submitted, &m.completed, &m.cache_hits, &m.cache_misses,
        &m.rejected_queue_full, &m.rejected_untrained, &m.deadline_expired,
        &m.errors, &m.cache_entries, &m.cache_evictions, &m.cache_stale_drops,
        &m.rpc_connections_accepted, &m.rpc_connections_active,
        &m.rpc_connections_rejected, &m.rpc_frames_received,
        &m.rpc_frames_sent, &m.rpc_frame_errors, &m.rpc_read_timeouts,
        &m.observations_ingested, &m.observations_rejected, &m.drift_events,
        &m.refits_started, &m.refits_completed, &m.refits_failed,
        &m.engine_swaps, &m.ghn_drift_events, &m.retrains_started,
        &m.retrains_completed, &m.retrains_failed, &m.ghn_swaps,
        &m.reuse_hits, &m.reuse_rejected, &m.reuse_misses, &m.reuse_inserts,
        &m.reuse_evictions, &m.reuse_invalidations, &m.reuse_entries,
        &m.arena_hwm_bytes, &m.arena_chunks, &m.batches_dispatched,
        &m.embed_batches, &m.embed_batch_graphs, &m.embed_coalesced,
        &m.adaptive_decisions, &m.adaptive_chosen_graphs}) {
    *f = next++;
  }
  for (std::uint64_t& c : m.batch_size_counts) c = 100 + next++;
  for (std::uint64_t& c : m.embed_batch_size_counts) c = 200 + next++;
  m.adaptive_arrival_hz = 1234.5;
  m.adaptive_batch_service_ms = 0.8125;
  double v = 0.0;
  for (serve::LatencyHistogram::Snapshot* h :
       {&m.e2e, &m.queue, &m.service, &m.embed_hit, &m.embed_miss}) {
    h->count = 1000 + next++;
    h->mean_ms = v += 0.5;
    h->p50_ms = v += 0.25;
    h->p95_ms = v += 1.125;
    h->p99_ms = v += 2.0625;
    h->max_ms = v += 4.5;
  }
  m.reuse_distance.count = 1000 + next++;
  m.reuse_distance.mean = 0.0015;
  m.reuse_distance.p50 = 0.00125;
  m.reuse_distance.p95 = 0.03;
  m.reuse_distance.p99 = 0.0475;
  m.reuse_distance.max = 0.0625;
  m.engine_precision = "f32";
  m.kernel_dispatch = "avx2";
  return m;
}

// The stats frame is pinned the same way as the predict frames: recorded
// from the protocol-v8 encoder while it was still written field by field.
TEST(Wire, GoldenStatsFrameIsByteStable) {
  Response resp;
  resp.op = Op::kStats;
  resp.stats = populated_snapshot();
  const std::string frame = encode_frame(encode_response(resp));
  EXPECT_EQ(frame.size(), 1229u);
  EXPECT_EQ(crc_trailer(frame), 0x38118460u);
  EXPECT_EQ(fnv1a64(frame), 0x8e90125e74796931ull);
  EXPECT_EQ(encode_frame(encode_response(decode_response(decode_frame(
                frame)))),
            frame);
}

// Every field of an ErrorStats set from `base`, so a moved field changes
// the bytes.
feedback::ErrorStats golden_error_stats(double base) {
  feedback::ErrorStats s;
  s.count = static_cast<std::size_t>(base);
  s.mean_abs_s = base + 0.5;
  s.mean_rel = base + 0.25;
  s.p50_abs_s = base + 0.125;
  s.p95_abs_s = base + 2.0;
  s.p50_rel = base + 0.0625;
  s.p95_rel = base + 4.0;
  s.drifted = true;
  return s;
}

serve::ServeResult golden_serve_result(int i) {
  serve::ServeResult r;
  r.status = serve::ServeStatus::kOk;
  r.response.predicted_time_s = 321.5 + i;
  r.response.triggered_offline_training = i == 0;
  r.response.embedding_ms = 0.75 + i;
  r.response.inference_ms = 0.03125;
  r.cache_hit = i != 0;
  r.confidence =
      i == 1 ? serve::Confidence::kReused : serve::Confidence::kExact;
  r.reuse_distance = i == 1 ? 0.015625 : 0.0;
  r.queue_ms = 0.25 * i;
  r.total_ms = 2.5 + i;
  return r;
}

// A request body for `op` with every field its encoding carries set.
Request golden_request(Op op) {
  Request r;
  r.op = op;
  switch (op) {
    case Op::kPredict:
      r.deadline_ms = 125.5;
      r.reqs = {make_request("resnet18", 2)};
      break;
    case Op::kPredictBatch:
      r.deadline_ms = 75.0;
      r.reqs = {make_request("alexnet", 1),
                make_request("vgg11", 3, "e5_2630")};
      r.reqs[1].workload.parallelism =
          workload::ParallelismSpec::pipeline(2, 4);
      break;
    case Op::kObserve:
      r.measured_s = 4321.125;
      r.reqs = {make_request("resnet50", 2, "e5_2650")};
      break;
    case Op::kRefit:
      r.dataset = "tiny_imagenet";
      break;
    case Op::kRetrain:
      r.dataset = "wikitext103";
      r.family = "bert";
      break;
    default:
      break;
  }
  return r;
}

// A kOk response body for `op` with every field its encoding carries set.
Response golden_ok_response(Op op) {
  Response resp;
  resp.op = op;
  switch (op) {
    case Op::kPredict:
      resp.results = {golden_serve_result(0)};
      break;
    case Op::kPredictBatch:
      resp.results = {golden_serve_result(0), golden_serve_result(1)};
      resp.results[1].status = serve::ServeStatus::kDeadlineExceeded;
      resp.results[1].error = "deadline expired in queue";
      break;
    case Op::kStats:
      resp.stats = populated_snapshot();
      break;
    case Op::kObserve:
      resp.observe.accepted = true;
      resp.observe.predicted_s = 1000.5;
      resp.observe.abs_error_s = 3320.625;
      resp.observe.rel_error = 0.768;
      resp.observe.drifted = true;
      resp.observe.refit_triggered = true;
      resp.observe.ghn_drift = true;
      resp.observe.retrain_triggered = true;
      resp.observe.reason = "accepted";
      break;
    case Op::kRefit:
      resp.refit_started = true;
      break;
    case Op::kRefitStatus: {
      feedback::RefitStatus& s = resp.refit;
      s.started = 5;
      s.completed = 3;
      s.failed = 2;
      s.in_progress = true;
      s.queued = 4;
      s.last_dataset = "cifar10";
      s.last_campaign_rows = 56;
      s.last_observation_rows = 17;
      s.last_error = "refit for 'x' failed: no campaign";
      s.datasets.push_back({"cifar10", 42, golden_error_stats(16)});
      s.families.push_back({"wikitext103", "bert", 12, golden_error_stats(8),
                            true, golden_error_stats(6), 2});
      s.families.push_back({"cifar10", "resnet", 3, golden_error_stats(3),
                            false, {}, 0});
      break;
    }
    case Op::kRetrain:
      resp.retrain_started = true;
      break;
    case Op::kRetrainStatus: {
      feedback::RetrainStatus& s = resp.retrain;
      s.generation = 3;
      s.started = 4;
      s.completed = 3;
      s.failed = 1;
      s.in_progress = true;
      s.queued = 2;
      s.last_dataset = "wikitext103";
      s.last_family = "bert";
      s.last_error = "retrain for 'x' failed: unknown dataset";
      s.last_corpus_graphs = 12;
      s.last_family_graphs = 5;
      s.last_epochs_run = 6;
      s.last_train_seconds = 1.75;
      s.last_initial_loss = 0.9;
      s.last_final_loss = 0.3;
      s.live_checksum = 0xdeadbeefcafe1234ULL;
      s.families.push_back({"wikitext103", "bert", golden_error_stats(4),
                            golden_error_stats(5)});
      break;
    }
    default:
      break;
  }
  return resp;
}

// One pinned frame: its size, CRC trailer and FNV-1a hash.
struct GoldenFrame {
  std::string name;
  std::string frame;
  bool request;
  std::size_t size;
  std::uint32_t crc;
  std::uint64_t hash;
};

// Request and kOk response frames of every op, plus the two non-ok
// response shapes: an error status drops the payload of a status op, and
// an overloaded predict_batch still carries its results.  Recorded from the
// protocol-v8 encoder while each body was still written field by field.
TEST(Wire, GoldenFramesForEveryOpAreByteStable) {
  const auto req = [](Op op) {
    return encode_frame(encode_request(golden_request(op)));
  };
  const auto ok = [](Op op) {
    return encode_frame(encode_response(golden_ok_response(op)));
  };
  Response bad;
  bad.op = Op::kRefitStatus;
  bad.status = RpcStatus::kBadRequest;
  bad.message = "model updates are not enabled on this server";
  bad.refit = golden_ok_response(Op::kRefitStatus).refit;  // not sent
  Response overloaded = golden_ok_response(Op::kPredictBatch);
  overloaded.status = RpcStatus::kRejectedOverloaded;
  overloaded.message = "admission queue at capacity";
  for (serve::ServeResult& r : overloaded.results) {
    r.status = serve::ServeStatus::kRejectedQueueFull;
  }

  const std::vector<GoldenFrame> rows = {
      {"ping request", req(Op::kPing), true,
       17, 0x2ae59479u, 0x677ad0bb38ed4d20ull},
      {"predict request", req(Op::kPredict), true,
       286, 0x9f1c0050u, 0x4fcd3b70bfbfb7bcull},
      {"predict_batch request", req(Op::kPredictBatch), true,
       568, 0x1ae3aec9u, 0xf60e0e826d16fb37ull},
      {"stats request", req(Op::kStats), true,
       17, 0xb3ecc5c3u, 0xdbcd86e9abf7d28eull},
      {"shutdown request", req(Op::kShutdown), true,
       17, 0x2d885060u, 0x5c475cb702d55b29ull},
      {"observe request", req(Op::kObserve), true,
       298, 0x6252d6c1u, 0xee7b05bfc1383760ull},
      {"refit request", req(Op::kRefit), true,
       34, 0xa8a98273u, 0x1fa47234102d8867ull},
      {"refit_status request", req(Op::kRefitStatus), true,
       17, 0xb48101dau, 0xa1d5530ae051be1full},
      {"retrain request", req(Op::kRetrain), true,
       40, 0xbcf38bb9u, 0xc66271293f686641ull},
      {"retrain_status request", req(Op::kRetrainStatus), true,
       17, 0x53392cddu, 0x4ea22e8e7b880810ull},
      {"ping ok", ok(Op::kPing), false,
       22, 0x225cc64au, 0x617d46d86cec3f37ull},
      {"predict ok", ok(Op::kPredict), false,
       82, 0xcac6eae4u, 0x57abb86480f93574ull},
      {"predict_batch ok", ok(Op::kPredictBatch), false,
       163, 0x4ef5e6aau, 0xb46f07c02c6bbc19ull},
      {"stats ok", ok(Op::kStats), false,
       1229, 0x38118460u, 0x8e90125e74796931ull},
      {"shutdown ok", ok(Op::kShutdown), false,
       22, 0xb9cd845cu, 0xfba71d86d8e29587ull},
      {"observe ok", ok(Op::kObserve), false,
       63, 0x820b49c7u, 0x12f5a26019c18363ull},
      {"refit ok", ok(Op::kRefit), false,
       23, 0x9170c1a9u, 0xd2afdc5225e4e008ull},
      {"refit_status ok", ok(Op::kRefitStatus), false,
       509, 0x491415f1u, 0x84d4625695c7abd5ull},
      {"retrain ok", ok(Op::kRetrain), false,
       23, 0xc14fbaf4u, 0xbb07a3daba1f2909ull},
      {"retrain_status ok", ok(Op::kRetrainStatus), false,
       322, 0xcedbdfbau, 0xfacd8b919d6be773ull},
      {"refit_status bad_request", encode_frame(encode_response(bad)), false,
       66, 0x030970ddu, 0x8ee01794e1b385f0ull},
      {"predict_batch rejected_overloaded",
       encode_frame(encode_response(overloaded)), false,
       190, 0x0d930862u, 0xd742e5a20bc7e1efull},
  };
  for (const GoldenFrame& g : rows) {
    SCOPED_TRACE(g.name);
    EXPECT_EQ(g.frame.size(), g.size);
    EXPECT_EQ(crc_trailer(g.frame), g.crc);
    EXPECT_EQ(fnv1a64(g.frame), g.hash);
    const std::string body = decode_frame(g.frame);
    const std::string again =
        g.request ? encode_request(decode_request(body))
                  : encode_response(decode_response(body));
    EXPECT_EQ(encode_frame(again), g.frame);
  }
  // The error status carries no payload: the body ends after the message.
  EXPECT_EQ(decode_frame(rows[20].frame).size(), 2 + 4 + bad.message.size());
  // The overloaded frame still carries both results.
  EXPECT_EQ(decode_response(decode_frame(rows[21].frame)).results.size(), 2u);
}

// ---- wire format: adversarial ----

std::string valid_frame_bytes() {
  Request r;
  r.op = Op::kPredict;
  r.deadline_ms = 100.0;
  r.reqs.push_back(make_request("resnet18", 3));
  return encode_frame(encode_request(r));
}

TEST(Wire, AnyCorruptedByteRejected) {
  const std::string frame = valid_frame_bytes();
  for (std::size_t pos = 0; pos < frame.size(); ++pos) {
    std::string mutated = frame;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x01);
    EXPECT_THROW(
        {
          const std::string body = decode_frame(mutated);
          (void)decode_request(body);
        },
        Error)
        << "byte " << pos;
  }
}

TEST(Wire, TruncationAtEveryOffsetRejected) {
  const std::string frame = valid_frame_bytes();
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    EXPECT_THROW((void)decode_frame(frame.substr(0, keep)), Error)
        << "kept " << keep;
  }
}

TEST(Wire, TrailingGarbageRejected) {
  EXPECT_THROW((void)decode_frame(valid_frame_bytes() + "x"), Error);
}

TEST(Wire, OversizedFrameRejectedBeforeAllocation) {
  // A hostile length prefix far beyond the bound must be rejected from the
  // 12 prefix bytes alone — no allocation of the announced size.
  std::string frame = valid_frame_bytes();
  frame[8] = '\xff';  // little-endian length field: bytes 8..11
  frame[9] = '\xff';
  frame[10] = '\xff';
  frame[11] = '\x7f';
  try {
    (void)decode_frame_prefix(frame.data());
    FAIL() << "expected oversized frame to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bound"), std::string::npos);
  }
  // And a legal-looking frame above a caller-tightened bound as well.
  EXPECT_THROW((void)decode_frame(valid_frame_bytes(), /*max_frame=*/32),
               Error);
}

TEST(Wire, VersionSkewRejectedWithBothVersions) {
  std::string frame = valid_frame_bytes();
  frame[4] = static_cast<char>(kProtocolVersion + 1);  // version bytes 4..7
  try {
    (void)decode_frame(frame);
    FAIL() << "expected version skew to throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version"), std::string::npos);
    EXPECT_NE(what.find(std::to_string(kProtocolVersion + 1)),
              std::string::npos);
  }
}

TEST(Wire, UnknownOpAndStatusBytesRejected) {
  Request r;
  r.op = Op::kPing;
  std::string body = encode_request(r);
  body[0] = 99;  // op byte
  EXPECT_THROW((void)decode_request(body), Error);

  Response resp;
  std::string rbody = encode_response(resp);
  rbody[1] = 99;  // status byte
  EXPECT_THROW((void)decode_response(rbody), Error);
}

TEST(Wire, OverlongBatchCountRejected) {
  Request r;
  r.op = Op::kPredictBatch;
  std::string body = encode_request(r);  // n = 0
  // Patch the u32 batch count (after op byte + f64 deadline) to a huge value.
  body[9] = '\xff';
  body[10] = '\xff';
  body[11] = '\xff';
  body[12] = '\x00';
  EXPECT_THROW((void)decode_request(body), Error);
}

// ---- loopback server ----

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

// One PredictDdl trained once for the whole suite; each test stands up its
// own service + server on an ephemeral loopback port.
class RpcLoopbackTest : public ::testing::Test {
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

ThreadPool* RpcLoopbackTest::pool_ = nullptr;
sim::DdlSimulator* RpcLoopbackTest::sim_ = nullptr;
core::PredictDdl* RpcLoopbackTest::pddl_ = nullptr;

TEST_F(RpcLoopbackTest, RemotePredictionMatchesInProcessBitExact) {
  serve::PredictionService service(*pddl_);
  Server server(service);
  server.start();
  Client client("127.0.0.1", server.port());

  const core::PredictRequest req = make_request("resnet18");
  const serve::ServeResult remote = client.predict(req);
  ASSERT_TRUE(remote.ok()) << remote.error;
  const serve::ServeResult local = service.predict(req);
  ASSERT_TRUE(local.ok()) << local.error;
  EXPECT_DOUBLE_EQ(remote.response.predicted_time_s,
                   local.response.predicted_time_s);
  EXPECT_GT(client.ping(), 0.0);
}

TEST_F(RpcLoopbackTest, PredictBatchAlignsResultsWithRequests) {
  serve::PredictionService service(*pddl_);
  Server server(service);
  server.start();
  Client client("127.0.0.1", server.port());

  std::vector<core::PredictRequest> reqs = {
      make_request("alexnet"), make_request("vgg11", 8, "e5_2630"),
      make_request("resnet50", 2)};
  // One untrained dataset in the middle of the batch: its slot reports the
  // typed rejection, the others still succeed.
  reqs.insert(reqs.begin() + 1, make_request("resnet18"));
  reqs[1].workload.dataset = workload::tiny_imagenet();

  const auto results = client.predict_batch(reqs);
  ASSERT_EQ(results.size(), reqs.size());
  EXPECT_TRUE(results[0].ok()) << results[0].error;
  EXPECT_EQ(results[1].status, serve::ServeStatus::kUntrainedDataset);
  EXPECT_TRUE(results[2].ok());
  EXPECT_TRUE(results[3].ok());
  for (std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    EXPECT_DOUBLE_EQ(results[i].response.predicted_time_s,
                     service.predict(reqs[i]).response.predicted_time_s);
  }
}

// Acceptance bar: ≥10k predict round-trips on one connection with zero
// frame errors.
TEST_F(RpcLoopbackTest, TenThousandRoundTripsZeroFrameErrors) {
  serve::PredictionService service(*pddl_);
  Server server(service);
  server.start();
  Client client("127.0.0.1", server.port());

  const core::PredictRequest req = make_request("alexnet");
  ASSERT_TRUE(client.predict(req).ok());  // prime the embedding cache
  constexpr int kRoundTrips = 10000;
  for (int i = 0; i < kRoundTrips; ++i) {
    const serve::ServeResult r = client.predict(req);
    ASSERT_TRUE(r.ok()) << "round-trip " << i << ": " << r.error;
  }
  const serve::MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.rpc_frame_errors, 0u);
  EXPECT_EQ(m.rpc_read_timeouts, 0u);
  EXPECT_GE(m.rpc_frames_received, static_cast<std::uint64_t>(kRoundTrips));
  EXPECT_EQ(m.rpc_frames_received, m.rpc_frames_sent);
  EXPECT_EQ(m.completed, static_cast<std::uint64_t>(kRoundTrips) + 1);
}

TEST_F(RpcLoopbackTest, ConcurrentClientsHammerOneServer) {
  serve::ServiceConfig scfg;
  scfg.dispatcher_threads = 4;
  scfg.queue_capacity = 4096;
  serve::PredictionService service(*pddl_, scfg);
  Server server(service);
  server.start();

  constexpr int kClients = 8;
  constexpr int kPerClient = 100;
  const std::vector<std::string> models = {"alexnet", "resnet18", "vgg11",
                                           "resnet50", "densenet121"};
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client client("127.0.0.1", server.port());
      for (int i = 0; i < kPerClient; ++i) {
        const auto& model = models[(t + i) % models.size()];
        const serve::ServeResult r =
            client.predict(make_request(model, (i % 2) ? 4 : 8));
        if (r.ok() && r.response.predicted_time_s > 0.0) ok.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);

  const serve::MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.completed, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(m.rpc_connections_accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(m.rpc_frame_errors, 0u);
  EXPECT_EQ(m.errors, 0u);
}

TEST_F(RpcLoopbackTest, DeadlineExpiresOverTheWire) {
  serve::ServiceConfig scfg;
  scfg.start_paused = true;  // hold dispatch so the deadline lapses in queue
  serve::PredictionService service(*pddl_, scfg);
  Server server(service);
  server.start();
  Client client("127.0.0.1", server.port());

  std::thread resumer([&service] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    service.resume();
  });
  const serve::ServeResult r =
      client.predict(make_request("resnet18"), /*deadline_ms=*/5.0);
  resumer.join();
  EXPECT_EQ(r.status, serve::ServeStatus::kDeadlineExceeded);
  EXPECT_GE(r.queue_ms, 5.0);
  EXPECT_FALSE(r.error.empty());
}

TEST_F(RpcLoopbackTest, QueueFullSurfacesAsOverloadedFrame) {
  serve::ServiceConfig scfg;
  scfg.queue_capacity = 2;
  scfg.start_paused = true;  // queue fills and stays full
  serve::PredictionService service(*pddl_, scfg);
  Server server(service);
  server.start();

  // Fill the admission queue through one connection (submit-only futures).
  auto f1 = service.submit(make_request("resnet18"));
  auto f2 = service.submit(make_request("resnet18"));
  ASSERT_EQ(service.queue_depth(), 2u);

  // Frame level: the response is flagged rejected_overloaded and still
  // carries the per-request result (observe it with a raw socket — the
  // Client maps the frame status away when results are present).
  {
    Socket raw = connect_tcp("127.0.0.1", server.port());
    set_recv_timeout(raw, 5000.0);
    Request r;
    r.op = Op::kPredict;
    r.reqs.push_back(make_request("resnet18"));
    const std::string frame = encode_frame(encode_request(r));
    send_all(raw, frame.data(), frame.size());
    const Response resp = read_response_frame(raw);
    EXPECT_EQ(resp.status, RpcStatus::kRejectedOverloaded);
    ASSERT_EQ(resp.results.size(), 1u);
    EXPECT_EQ(resp.results[0].status, serve::ServeStatus::kRejectedQueueFull);
  }

  // Client level: the shed request surfaces as a typed per-request result,
  // exactly like the in-process path — not an exception.
  Client client("127.0.0.1", server.port());
  const serve::ServeResult shed = client.predict(make_request("resnet18"));
  EXPECT_EQ(shed.status, serve::ServeStatus::kRejectedQueueFull);
  EXPECT_FALSE(shed.error.empty());

  service.resume();
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
}

TEST_F(RpcLoopbackTest, ConnectionCapRejectsWithTypedOverload) {
  serve::PredictionService service(*pddl_);
  ServerConfig cfg;
  cfg.max_connections = 1;
  Server server(service, cfg);
  server.start();

  Client first("127.0.0.1", server.port());
  EXPECT_TRUE(first.predict(make_request("alexnet")).ok());

  // The second connection is over the cap: the server pushes an explicit
  // overload frame right after accept (read it raw — sending first would
  // race the server's close and could surface as a reset instead).
  {
    Socket second = connect_tcp("127.0.0.1", server.port());
    set_recv_timeout(second, 5000.0);
    const Response resp = read_response_frame(second);
    EXPECT_EQ(resp.status, RpcStatus::kRejectedOverloaded);
    EXPECT_NE(resp.message.find("connection cap"), std::string::npos);
  }
  EXPECT_GE(server.metrics().rpc_connections_rejected, 1u);

  // The capped connection still works, and closing it frees the slot.
  EXPECT_TRUE(first.predict(make_request("alexnet")).ok());
  first.close();
  for (int attempt = 0;; ++attempt) {
    // The server reaps the closed connection asynchronously; retry briefly.
    try {
      Client third("127.0.0.1", server.port());
      EXPECT_GT(third.ping(), 0.0);
      break;
    } catch (const Error&) {
      ASSERT_LT(attempt, 100) << "connection slot never freed";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

TEST_F(RpcLoopbackTest, GarbageBytesGetTypedErrorNeverACrash) {
  serve::PredictionService service(*pddl_);
  Server server(service);
  server.start();

  {
    // Raw socket, no protocol: 64 bytes of garbage.  The server must
    // answer with a typed bad_request frame and close — never crash.
    Socket raw = connect_tcp("127.0.0.1", server.port());
    set_recv_timeout(raw, 5000.0);
    std::string garbage(64, '\xa5');
    send_all(raw, garbage.data(), garbage.size());
    const Response resp = read_response_frame(raw);
    EXPECT_EQ(resp.status, RpcStatus::kBadRequest);
    EXPECT_FALSE(resp.message.empty());
  }
  {
    // A CRC-valid envelope around an invalid body keeps the stream in
    // sync: typed error, then the same connection serves a real request.
    Socket raw = connect_tcp("127.0.0.1", server.port());
    set_recv_timeout(raw, 5000.0);
    std::string bad_body(1, '\x63');  // op byte 99
    const std::string bad = encode_frame(bad_body);
    send_all(raw, bad.data(), bad.size());
    EXPECT_EQ(read_response_frame(raw).status, RpcStatus::kBadRequest);

    Request good;
    good.op = Op::kPing;
    const std::string frame = encode_frame(encode_request(good));
    send_all(raw, frame.data(), frame.size());
    EXPECT_EQ(read_response_frame(raw).status, RpcStatus::kOk);
  }
  EXPECT_GE(server.metrics().rpc_frame_errors, 2u);

  // And after all that abuse, a well-behaved client still gets service.
  Client client("127.0.0.1", server.port());
  EXPECT_TRUE(client.predict(make_request("resnet18")).ok());
}

TEST(RpcClient, MismatchedOpEchoIsATypedError) {
  // A fake peer answers every request with a well-formed, CRC-valid ok
  // response for a different op.  Decoding succeeds, so only the op-echo
  // check stands between the caller and an all-default stats snapshot.
  std::uint16_t port = 0;
  Socket listener = listen_tcp("127.0.0.1", 0, 1, &port);
  std::thread peer([&listener] {
    Socket conn = accept_with_timeout(listener, 5000.0);
    ASSERT_TRUE(conn.valid());
    set_recv_timeout(conn, 5000.0);
    char prefix[kFramePrefixBytes];
    ASSERT_EQ(recv_exact(conn, prefix, sizeof(prefix)), RecvOutcome::kOk);
    std::string rest(decode_frame_prefix(prefix) + 4, '\0');
    ASSERT_EQ(recv_exact(conn, rest.data(), rest.size()), RecvOutcome::kOk);
    Response wrong;
    wrong.op = Op::kPing;
    const std::string frame = encode_frame(encode_response(wrong));
    send_all(conn, frame.data(), frame.size());
  });

  Client client("127.0.0.1", port);
  try {
    (void)client.stats();
    ADD_FAILURE() << "expected the mismatched op echo to throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stats"), std::string::npos) << what;
    EXPECT_NE(what.find("ping"), std::string::npos) << what;
  }
  peer.join();
}

TEST_F(RpcLoopbackTest, StalledClientIsReapedByReadTimeout) {
  serve::PredictionService service(*pddl_);
  ServerConfig cfg;
  cfg.read_timeout_ms = 100.0;  // aggressive reap for the test
  Server server(service, cfg);
  server.start();

  // Send half a frame prefix, then stall.
  Socket stalled = connect_tcp("127.0.0.1", server.port());
  send_all(stalled, "PDRP", 4);
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (server.metrics().rpc_read_timeouts >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server.metrics().rpc_read_timeouts, 1u);

  // The reaped thread freed capacity; new clients are unaffected.
  Client client("127.0.0.1", server.port());
  EXPECT_TRUE(client.predict(make_request("alexnet")).ok());
}

TEST_F(RpcLoopbackTest, StopDrainsInFlightRequests) {
  serve::ServiceConfig scfg;
  scfg.start_paused = true;  // requests park in the admission queue
  serve::PredictionService service(*pddl_, scfg);
  Server server(service);
  server.start();

  // One in-flight remote request, blocked behind the paused service.
  std::thread client_thread([&server] {
    Client client("127.0.0.1", server.port());
    const serve::ServeResult r = client.predict(make_request("resnet18"));
    EXPECT_TRUE(r.ok()) << r.error;  // drain delivered the response
  });
  while (service.queue_depth() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Graceful stop must let the in-flight request finish, not drop it.
  std::thread stopper([&server] { server.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.resume();  // un-gate the dispatcher so the drain can complete
  stopper.join();
  client_thread.join();

  // After stop, new connections are refused outright.
  EXPECT_THROW(
      {
        Client late("127.0.0.1", server.port());
        (void)late.ping();
      },
      Error);
}

TEST_F(RpcLoopbackTest, ShutdownOpFlagsTheServerForDrain) {
  serve::PredictionService service(*pddl_);
  Server server(service);
  server.start();
  EXPECT_FALSE(server.shutdown_requested());
  Client client("127.0.0.1", server.port());
  client.request_shutdown();
  EXPECT_TRUE(server.shutdown_requested());
  server.stop();
}

TEST_F(RpcLoopbackTest, StatsOpCarriesRpcCounters) {
  serve::PredictionService service(*pddl_);
  Server server(service);
  server.start();
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.predict(make_request("vgg11")).ok());
  const serve::MetricsSnapshot m = client.stats();
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.submitted, 1u);
  EXPECT_GE(m.rpc_connections_accepted, 1u);
  EXPECT_GE(m.rpc_connections_active, 1u);
  EXPECT_GE(m.rpc_frames_received, 2u);  // the predict + this stats frame
  EXPECT_EQ(m.rpc_frame_errors, 0u);
  // v8: the embed-engine provenance strings survive the wire round-trip
  // (library-default service → f64; dispatch is whatever this host runs).
  EXPECT_EQ(m.engine_precision, "f64");
  EXPECT_EQ(m.kernel_dispatch, simd::active_level_name());
  // The snapshot renders through both shared formatters.
  EXPECT_NE(m.to_string().find("rpc"), std::string::npos);
  EXPECT_NE(m.to_json().find("\"connections_accepted\":"), std::string::npos);
  EXPECT_NE(m.to_json().find("\"engine\":{\"precision\":\"f64\""),
            std::string::npos);
}

// The full feedback loop over the wire: skewed observations trip the drift
// detector, the background refit lands, and subsequent remote predictions
// shift — all through Client's observe/request_refit/refit_status surface.
TEST_F(RpcLoopbackTest, ObserveDriftRefitShiftsRemotePredictions) {
  serve::PredictionService service(*pddl_);
  feedback::FeedbackConfig fcfg;
  fcfg.drift.window = 16;
  fcfg.drift.min_count = 8;
  fcfg.drift.rel_p50_threshold = 0.25;
  feedback::FeedbackController fb(service, *pddl_, fcfg);
  Server server(service);
  server.attach_feedback(&fb);
  server.start();
  Client client("127.0.0.1", server.port());

  const core::PredictRequest req = make_request("resnet18");
  const serve::ServeResult before = client.predict(req);
  ASSERT_TRUE(before.ok()) << before.error;

  bool refit_triggered = false;
  for (std::size_t i = 0; i < fcfg.drift.min_count; ++i) {
    const feedback::ObserveOutcome o =
        client.observe(req, before.response.predicted_time_s * 3.0);
    ASSERT_TRUE(o.accepted) << o.reason;
    EXPECT_GT(o.rel_error, fcfg.drift.rel_p50_threshold);
    refit_triggered = refit_triggered || o.refit_triggered;
  }
  EXPECT_TRUE(refit_triggered);

  fb.wait_idle();
  const feedback::RefitStatus status = client.refit_status();
  EXPECT_EQ(status.completed, 1u);
  EXPECT_EQ(status.failed, 0u);
  EXPECT_EQ(status.last_dataset, "cifar10");
  EXPECT_EQ(status.last_observation_rows, fcfg.drift.min_count);
  ASSERT_EQ(status.datasets.size(), 1u);
  EXPECT_EQ(status.datasets[0].dataset, "cifar10");
  EXPECT_EQ(status.datasets[0].observations, fcfg.drift.min_count);

  const serve::ServeResult after = client.predict(req);
  ASSERT_TRUE(after.ok()) << after.error;
  EXPECT_NE(after.response.predicted_time_s, before.response.predicted_time_s);

  // Explicit refits work over the wire too.  (A duplicate request may or
  // may not dedupe depending on whether the worker already finished, so
  // only the first enqueue is asserted.)
  EXPECT_TRUE(client.request_refit("cifar10"));
  fb.wait_idle();

  const serve::MetricsSnapshot m = client.stats();
  EXPECT_EQ(m.observations_ingested, fcfg.drift.min_count);
  EXPECT_GE(m.drift_events, 1u);
  EXPECT_GE(m.refits_completed, 1u);
  EXPECT_GE(m.engine_swaps, 1u);
}

// An explicit retrain over the wire fine-tunes + hot-swaps the dataset's
// GHN on a server with only a controller attached (auto_retrain off), and
// the status op reports the completed generation remotely.
TEST_F(RpcLoopbackTest, RetrainOverTheWireSwapsGhnGeneration) {
  serve::PredictionService service(*pddl_);
  feedback::FeedbackController fb(service, *pddl_);
  Server server(service);
  server.attach_feedback(&fb);
  server.start();
  Client client("127.0.0.1", server.port());

  const std::uint64_t before = pddl_->registry().model_checksum("cifar10");
  EXPECT_TRUE(client.request_retrain("cifar10", "resnet"));
  fb.wait_idle();

  const feedback::RetrainStatus status = client.retrain_status();
  EXPECT_EQ(status.generation, 1u);
  EXPECT_EQ(status.completed, 1u);
  EXPECT_EQ(status.failed, 0u);
  EXPECT_EQ(status.last_dataset, "cifar10");
  EXPECT_EQ(status.last_family, "resnet");
  EXPECT_GT(status.last_corpus_graphs, 0u);
  EXPECT_GT(status.last_epochs_run, 0);
  EXPECT_NE(status.live_checksum, before);
  EXPECT_EQ(status.live_checksum, pddl_->registry().model_checksum("cifar10"));

  const serve::MetricsSnapshot m = client.stats();
  EXPECT_EQ(m.retrains_started, 1u);
  EXPECT_EQ(m.retrains_completed, 1u);
  EXPECT_EQ(m.retrains_failed, 0u);
  EXPECT_EQ(m.ghn_swaps, 1u);
  EXPECT_EQ(m.cache_stale_drops, 0u);

  // The swapped generation serves: a remote predict under the new GHN
  // matches an in-process recompute bit-exactly.
  const core::PredictRequest req = make_request("resnet18");
  const serve::ServeResult r = client.predict(req);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_DOUBLE_EQ(r.response.predicted_time_s,
                   pddl_->predict_from_features(
                       "cifar10",
                       pddl_->features().build(req.workload, req.cluster)));
}

// Feedback ops against a server with no controller attached come back as
// typed bad_request errors, not crashes or hangs.
TEST_F(RpcLoopbackTest, FeedbackOpsWithoutControllerAreTypedErrors) {
  serve::PredictionService service(*pddl_);
  Server server(service);
  server.start();
  Client client("127.0.0.1", server.port());

  const core::PredictRequest req = make_request("alexnet");
  EXPECT_THROW(client.observe(req, 100.0), Error);
  EXPECT_THROW(client.request_refit("cifar10"), Error);
  EXPECT_THROW(client.refit_status(), Error);
  EXPECT_THROW(client.request_retrain("cifar10", "resnet"), Error);
  EXPECT_THROW(client.retrain_status(), Error);
  try {
    client.observe(req, 100.0);
    FAIL() << "observe without a controller must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("not enabled"), std::string::npos);
  }
  // The connection survives the typed errors: a normal predict still works.
  EXPECT_TRUE(client.predict(req).ok());
}

}  // namespace
}  // namespace pddl::rpc
