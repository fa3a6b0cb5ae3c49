#include "rpc/wire.hpp"

#include <iterator>
#include <tuple>
#include <type_traits>

namespace pddl::rpc {

// ---- frame envelope ----

std::string encode_frame(const std::string& body) {
  PDDL_CHECK(body.size() + kFrameOverheadBytes <= kMaxFrameBytes,
             "rpc frame body of ", body.size(), " bytes exceeds the ",
             kMaxFrameBytes, "-byte frame bound");
  std::string frame;
  frame.reserve(body.size() + kFrameOverheadBytes);
  io::BinaryWriter w(frame);
  w.magic(kFrameMagic);
  w.u32(kProtocolVersion);
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.raw(body.data(), body.size());
  w.finish_crc();
  return frame;
}

std::uint32_t decode_frame_prefix(const char* prefix, std::size_t max_frame) {
  io::BinaryReader r(prefix, kFramePrefixBytes, "rpc frame");
  r.expect_magic(kFrameMagic, "rpc frame");
  const std::uint32_t version = r.u32();
  PDDL_CHECK(version == kProtocolVersion,
             "rpc protocol version skew: peer sent version ", version,
             ", this build speaks version ", kProtocolVersion);
  const std::uint32_t body_len = r.u32();
  PDDL_CHECK(body_len + kFrameOverheadBytes <= max_frame,
             "rpc frame body length ", body_len, " exceeds the ", max_frame,
             "-byte frame bound");
  return body_len;
}

std::string decode_frame(const std::string& frame, std::size_t max_frame) {
  PDDL_CHECK(frame.size() >= kFrameOverheadBytes,
             "rpc frame truncated: ", frame.size(),
             " bytes is shorter than the ", kFrameOverheadBytes,
             "-byte envelope");
  const std::uint32_t body_len =
      decode_frame_prefix(frame.data(), max_frame);
  PDDL_CHECK(frame.size() == body_len + kFrameOverheadBytes,
             "rpc frame framing mismatch: envelope announces ", body_len,
             " body bytes but ", frame.size(), " total bytes were supplied");
  io::BinaryReader r(frame.data(), frame.size(), "rpc frame");
  r.expect_magic(kFrameMagic, "rpc frame");
  (void)r.u32();  // version, validated above
  (void)r.u32();  // body length, validated above
  std::string body(body_len, '\0');
  r.raw(body.data(), body.size());
  r.verify_crc();
  return body;
}

// ---- payload walks ----

namespace {

template <class Stream, io::Walks<serve::ServeResult> T>
void walk(Stream& s, T& r) {
  io::enum_field(s, r.status, serve::ServeStatus::kError, "serve status");
  io::fields(s, r.response.predicted_time_s,
             r.response.triggered_offline_training, r.response.embedding_ms,
             r.response.inference_ms, r.cache_hit);
  io::enum_field(s, r.confidence, serve::Confidence::kReused, "confidence");
  io::fields(s, r.reuse_distance, r.queue_ms, r.total_ms, r.error);
}

// The stats payload is the metrics table (serve::for_each_field) walked in
// row order, derived rows skipped: histograms stat by stat, per-size count
// arrays slot by slot.
template <class Stream, io::Walks<serve::MetricsSnapshot> T>
void walk(Stream& s, T& m) {
  serve::for_each_field([&](const char*, const char*, auto member, auto) {
    if constexpr (!std::is_member_function_pointer_v<decltype(member)>) {
      auto& v = m.*member;
      using V = std::remove_cvref_t<decltype(v)>;
      if constexpr (serve::HistogramSnapshot<V>) {
        serve::for_each_stat(v,
                             [&](const char*, auto& x) { io::field(s, x); });
      } else if constexpr (requires { std::tuple_size<V>::value; }) {
        for (auto& c : v) io::field(s, c);
      } else {
        io::field(s, v);
      }
    }
  });
}

template <class Stream, io::Walks<feedback::ObserveOutcome> T>
void walk(Stream& s, T& o) {
  io::fields(s, o.accepted, o.predicted_s, o.abs_error_s, o.rel_error,
             o.drifted, o.refit_triggered, o.ghn_drift, o.retrain_triggered,
             o.reason);
}

template <class Stream, io::Walks<feedback::RefitStatus> T>
void walk(Stream& s, T& st) {
  io::fields(s, st.started, st.completed, st.failed, st.in_progress,
             st.queued, st.last_dataset, st.last_campaign_rows,
             st.last_observation_rows, st.last_error);
  io::seq(s, st.datasets, 4096, "dataset", [](auto& s, auto& d) {
    io::fields(s, d.dataset, d.observations);
    feedback::walk(s, d.errors);
  });
  io::seq(s, st.families, 4096, "family", [](auto& s, auto& f) {
    io::fields(s, f.dataset, f.family, f.observations);
    feedback::walk(s, f.errors);
    io::field(s, f.ghn_drift);
    feedback::walk(s, f.pre_swap);
    io::field(s, f.swaps);
  });
}

template <class Stream, io::Walks<feedback::RetrainStatus> T>
void walk(Stream& s, T& st) {
  io::fields(s, st.generation, st.started, st.completed, st.failed,
             st.in_progress, st.queued, st.last_dataset, st.last_family,
             st.last_error, st.last_corpus_graphs, st.last_family_graphs,
             st.last_epochs_run, st.last_train_seconds, st.last_initial_loss,
             st.last_final_loss, st.live_checksum);
  io::seq(s, st.families, 4096, "family", [](auto& s, auto& d) {
    io::fields(s, d.dataset, d.family);
    feedback::walk(s, d.before);
    feedback::walk(s, d.after);
  });
}

// kPredict and kObserve carry exactly one PredictRequest, with no count.
template <class Stream, io::Walks<Request> T>
void one_request(Stream& s, T& q) {
  if constexpr (io::kWriting<Stream>) {
    PDDL_CHECK(q.reqs.size() == 1, "rpc ", to_string(q.op),
               " request must carry exactly one PredictRequest, got ",
               q.reqs.size());
  } else {
    q.reqs.resize(1);
  }
  core::walk(s, q.reqs.front());
}

// Both instantiations of one generic payload walk, as function pointers a
// constexpr table can hold.  An empty walk is an empty payload.
template <class M>
struct PayloadWalk {
  void (*write)(io::BinaryWriter&, const M&) = nullptr;
  void (*read)(io::BinaryReader&, M&) = nullptr;

  void operator()(io::BinaryWriter& w, const M& m) const {
    if (write != nullptr) write(w, m);
  }
  void operator()(io::BinaryReader& r, M& m) const {
    if (read != nullptr) read(r, m);
  }
};

template <class M, class F>
constexpr PayloadWalk<M> payload(F) {
  return {[](io::BinaryWriter& w, const M& m) { F{}(w, m); },
          [](io::BinaryReader& r, M& m) { F{}(r, m); }};
}

// Request payloads.
constexpr auto kPredictRequest = payload<Request>([](auto& s, auto& q) {
  io::field(s, q.deadline_ms);
  one_request(s, q);
});
constexpr auto kBatchRequest = payload<Request>([](auto& s, auto& q) {
  io::field(s, q.deadline_ms);
  io::seq(s, q.reqs, kMaxBatchRequests, "batch request",
          [](auto& s, auto& r) { core::walk(s, r); });
});
constexpr auto kObserveRequest = payload<Request>([](auto& s, auto& q) {
  io::field(s, q.measured_s);
  one_request(s, q);
});
constexpr auto kRefitRequest =
    payload<Request>([](auto& s, auto& q) { io::field(s, q.dataset); });
constexpr auto kRetrainRequest = payload<Request>(
    [](auto& s, auto& q) { io::fields(s, q.dataset, q.family); });

// Response payloads.
constexpr auto kResults = payload<Response>([](auto& s, auto& p) {
  io::seq(s, p.results, kMaxBatchRequests, "result",
          [](auto& s, auto& r) { walk(s, r); });
});
constexpr auto kStats =
    payload<Response>([](auto& s, auto& p) { walk(s, p.stats); });
constexpr auto kObserveOutcome =
    payload<Response>([](auto& s, auto& p) { walk(s, p.observe); });
constexpr auto kRefitStarted =
    payload<Response>([](auto& s, auto& p) { io::field(s, p.refit_started); });
constexpr auto kRefitStatus =
    payload<Response>([](auto& s, auto& p) { walk(s, p.refit); });
constexpr auto kRetrainStarted = payload<Response>(
    [](auto& s, auto& p) { io::field(s, p.retrain_started); });
constexpr auto kRetrainStatus =
    payload<Response>([](auto& s, auto& p) { walk(s, p.retrain); });

struct OpRow {
  Op op;
  const char* name;
  PayloadWalk<Request> request;
  PayloadWalk<Response> response;
  bool only_on_ok;      // a non-ok response ends after its message
  bool needs_feedback;  // served only with a feedback controller attached
};

// The op table: the spec for every body (see wire.hpp), one row per Op
// value, in order.  {} is an empty payload.
constexpr OpRow kOps[] = {
    // op, name, request payload, response payload,
    // only_on_ok, needs_feedback
    {Op::kPing,          "ping",           {},               {},
     false, false},
    {Op::kPredict,       "predict",        kPredictRequest,  kResults,
     false, false},
    {Op::kPredictBatch,  "predict_batch",  kBatchRequest,    kResults,
     false, false},
    {Op::kStats,         "stats",          {},               kStats,
     true, false},
    {Op::kShutdown,      "shutdown",       {},               {},
     false, false},
    {Op::kObserve,       "observe",        kObserveRequest,  kObserveOutcome,
     true, true},
    {Op::kRefit,         "refit",          kRefitRequest,    kRefitStarted,
     true, true},
    {Op::kRefitStatus,   "refit_status",   {},               kRefitStatus,
     true, true},
    {Op::kRetrain,       "retrain",        kRetrainRequest,  kRetrainStarted,
     true, true},
    {Op::kRetrainStatus, "retrain_status", {},               kRetrainStatus,
     true, true},
};
constexpr Op kLastOp = kOps[std::size(kOps) - 1].op;

constexpr bool rows_in_op_order() {
  for (std::size_t i = 0; i < std::size(kOps); ++i) {
    if (static_cast<std::size_t>(kOps[i].op) != i) return false;
  }
  return true;
}
static_assert(rows_in_op_order(), "kOps rows must follow the Op values");

const OpRow& row(Op op) {
  const auto i = static_cast<std::size_t>(op);
  PDDL_CHECK(i < std::size(kOps), "unknown rpc op ", i);
  return kOps[i];
}

template <class Stream, io::Walks<Request> T>
void walk(Stream& s, T& q) {
  io::enum_field(s, q.op, kLastOp, "rpc op");
  row(q.op).request(s, q);
}

template <class Stream, io::Walks<Response> T>
void walk(Stream& s, T& p) {
  io::enum_field(s, p.op, kLastOp, "rpc op");
  io::enum_field(s, p.status, RpcStatus::kInternalError, "rpc status");
  io::field(s, p.message);
  const OpRow& op = row(p.op);
  if (p.status == RpcStatus::kOk || !op.only_on_ok) op.response(s, p);
}

template <class Body>
std::string encode(const Body& b) {
  std::string body;
  io::BinaryWriter w(body);
  walk(w, b);
  return body;
}

// A body must be consumed exactly: leftover bytes mean the two endpoints
// disagree about the encoding, which should fail loudly, not silently.
template <class Body>
Body decode(const std::string& body, const char* what) {
  io::BinaryReader r(body.data(), body.size(), what);
  Body b;
  walk(r, b);
  PDDL_CHECK(r.at_end(), r.what(), ": trailing bytes after the body");
  return b;
}
}  // namespace

const char* to_string(Op op) {
  const auto i = static_cast<std::size_t>(op);
  return i < std::size(kOps) ? kOps[i].name : "unknown";
}

bool needs_feedback(Op op) { return row(op).needs_feedback; }

const char* to_string(RpcStatus status) {
  constexpr const char* kNames[] = {"ok", "rejected_overloaded", "bad_request",
                                    "shutting_down", "internal_error"};
  const auto i = static_cast<std::size_t>(status);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

std::string encode_request(const Request& req) { return encode(req); }

Request decode_request(const std::string& body) {
  return decode<Request>(body, "rpc request");
}

std::string encode_response(const Response& resp) { return encode(resp); }

Response decode_response(const std::string& body) {
  return decode<Response>(body, "rpc response");
}

}  // namespace pddl::rpc
