// PredictDDL RPC wire format (see DESIGN.md "RPC wire format").
//
// Everything an external scheduler exchanges with the prediction service is
// a *frame*: a length-prefixed, CRC-checked binary envelope built on the
// same io::BinaryWriter/BinaryReader primitives as the on-disk snapshots,
// so endianness, truncation, corruption, and version skew are solved once
// and fail the same way everywhere — a clean pddl::Error, never undefined
// behaviour.  Frame layout (all little-endian):
//
//   magic "PDRP" | u32 protocol version | u32 body length | body bytes
//   | u32 CRC-32 of every preceding byte
//
// The 12-byte prefix (magic + version + length) is fixed-size so a socket
// reader can learn how many bytes to expect before trusting anything; the
// body length is bounded (kMaxFrameBytes) so a hostile length prefix is
// rejected before any allocation.
//
// Bodies are op-tagged:
//
//   request   u8 op | request payload
//   response  u8 op (echo) | u8 rpc status | str message | response payload
//
// The op table in wire.cpp (kOps) is the spec for the payloads: one row
// per op holds its name, its request and response walks (io/walk.hpp:
// one function runs both directions), whether a non-ok response drops the
// payload, and whether the server needs a feedback controller to serve
// it.  A new op is a new row; a changed payload is a changed walk and a
// kProtocolVersion bump.
//
// Versioning policy: kProtocolVersion bumps on any incompatible body or
// envelope change; both endpoints reject mismatched versions with a typed
// error naming both numbers.  There is no negotiation — the predictor and
// its schedulers deploy together (ROADMAP: thin transport, no third-party
// deps), so skew is a bug to surface, not a case to paper over.
#pragma once

#include <string>
#include <vector>

#include "core/predict_io.hpp"
#include "feedback/controller.hpp"
#include "serve/service.hpp"

namespace pddl::rpc {

inline constexpr char kFrameMagic[4] = {'P', 'D', 'R', 'P'};
// v2: feedback ops (observe / refit / refit_status) + feedback and
// micro-batch counters in the MetricsSnapshot encoding.
// v3: embedding hit/miss latency histograms in the MetricsSnapshot encoding.
// v4: reuse confidence + distance in the ServeResult encoding; reuse
// counters, distance histogram, and arena high-water mark in the
// MetricsSnapshot encoding.
// v5: batched-embed counters (batches / graphs / coalesced + width
// histogram) and adaptive-batch telemetry in the MetricsSnapshot encoding.
// v6: parallelism-strategy key in the workload encoding; per-family error
// decomposition (FamilyFeedback rows + ghn_drift signal) in the
// RefitStatus encoding.
// v7: online GHN retrain loop — kRetrain/kRetrainStatus ops carrying the
// GHN generation and per-family before/after error; pre-swap snapshot +
// swap count in the FamilyFeedback encoding; ghn_drift/retrain_triggered in
// the ObserveOutcome encoding; stale-drop + retrain counters in the
// MetricsSnapshot encoding.
// v8: embed-engine provenance (precision + SIMD dispatch level strings) in
// the MetricsSnapshot encoding.
inline constexpr std::uint32_t kProtocolVersion = 8;
// Fixed-size frame prefix: magic (4) + version (4) + body length (4).
inline constexpr std::size_t kFramePrefixBytes = 12;
// Envelope overhead beyond the body: prefix + CRC trailer.
inline constexpr std::size_t kFrameOverheadBytes = kFramePrefixBytes + 4;
// Upper bound on a whole frame (prefix + body + CRC).  Large enough for a
// 4096-request batch over a 100-server cluster; small enough that a hostile
// length prefix cannot make the server allocate gigabytes.
inline constexpr std::size_t kMaxFrameBytes = 8u << 20;
// Per-frame request-count bound for kPredictBatch.
inline constexpr std::uint32_t kMaxBatchRequests = 4096;

enum class Op : std::uint8_t {
  kPing = 0,
  kPredict = 1,
  kPredictBatch = 2,
  kStats = 3,
  kShutdown = 4,     // ask the server to begin a graceful drain
  kObserve = 5,      // report an observed (workload, cluster, seconds) run
  kRefit = 6,        // explicitly enqueue a regressor refit for a dataset
  kRefitStatus = 7,  // feedback-loop status (refit counts, error windows)
  kRetrain = 8,      // explicitly enqueue a GHN fine-tune for a
                     // (dataset, family) pair
  kRetrainStatus = 9,  // retrain-loop status (generation, before/after error)
};
const char* to_string(Op op);
// True for the model-update ops, which a server serves only with a
// feedback controller attached.
bool needs_feedback(Op op);

// Transport/envelope-level status.  Request-level outcomes (untrained
// dataset, deadline expired, queue full, …) travel inside each ServeResult;
// RpcStatus covers what the rpc layer itself decided.
enum class RpcStatus : std::uint8_t {
  kOk = 0,
  kRejectedOverloaded = 1,  // connection cap hit, or admission queue pushed
                            // back on every request in the frame
  kBadRequest = 2,          // frame decoded but the body is invalid
  kShuttingDown = 3,        // server is draining; no new work accepted
  kInternalError = 4,       // request processing threw (message has details)
};
const char* to_string(RpcStatus status);

// ---- frame envelope ----

// Wraps `body` in magic | version | length | body | CRC.
std::string encode_frame(const std::string& body);

// Validates the envelope (magic, version, length bound, CRC, and that
// `frame` holds exactly one frame — no truncation, no trailing bytes) and
// returns the body.  Throws pddl::Error on any violation.
std::string decode_frame(const std::string& frame,
                         std::size_t max_frame = kMaxFrameBytes);

// Parses just the fixed-size prefix (first kFramePrefixBytes of `prefix`)
// and returns the body length, so a socket reader knows how many more bytes
// (body + 4-byte CRC) to read before handing the whole frame to
// decode_frame().  Same validation/errors as decode_frame for the prefix
// fields.
std::uint32_t decode_frame_prefix(const char* prefix,
                                  std::size_t max_frame = kMaxFrameBytes);

// ---- bodies ----

struct Request {
  Op op = Op::kPing;
  double deadline_ms = -1.0;  // kPredict/kPredictBatch; <0 = server default
  std::vector<core::PredictRequest> reqs;  // exactly 1 for kPredict/kObserve
  double measured_s = 0.0;                 // kObserve: ground-truth seconds
  std::string dataset;                     // kRefit/kRetrain: target dataset
  std::string family;                      // kRetrain: drifted model family
};

struct Response {
  Op op = Op::kPing;  // echoes the request op
  RpcStatus status = RpcStatus::kOk;
  std::string message;                      // human-readable error detail
  std::vector<serve::ServeResult> results;  // kPredict/kPredictBatch
  serve::MetricsSnapshot stats;             // kStats with status kOk
  feedback::ObserveOutcome observe;         // kObserve with status kOk
  bool refit_started = false;               // kRefit with status kOk
  feedback::RefitStatus refit;              // kRefitStatus with status kOk
  bool retrain_started = false;             // kRetrain with status kOk
  feedback::RetrainStatus retrain;           // kRetrainStatus with status kOk
};

std::string encode_request(const Request& req);
Request decode_request(const std::string& body);

std::string encode_response(const Response& resp);
Response decode_response(const std::string& body);

}  // namespace pddl::rpc
