#include "rpc/wire.hpp"

#include <type_traits>

namespace pddl::rpc {

const char* to_string(Op op) {
  switch (op) {
    case Op::kPing:
      return "ping";
    case Op::kPredict:
      return "predict";
    case Op::kPredictBatch:
      return "predict_batch";
    case Op::kStats:
      return "stats";
    case Op::kShutdown:
      return "shutdown";
    case Op::kObserve:
      return "observe";
    case Op::kRefit:
      return "refit";
    case Op::kRefitStatus:
      return "refit_status";
    case Op::kRetrain:
      return "retrain";
    case Op::kRetrainStatus:
      return "retrain_status";
  }
  return "unknown";
}

const char* to_string(RpcStatus status) {
  switch (status) {
    case RpcStatus::kOk:
      return "ok";
    case RpcStatus::kRejectedOverloaded:
      return "rejected_overloaded";
    case RpcStatus::kBadRequest:
      return "bad_request";
    case RpcStatus::kShuttingDown:
      return "shutting_down";
    case RpcStatus::kInternalError:
      return "internal_error";
  }
  return "unknown";
}

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

// ---- field-level payload codecs ----

// The PredictRequest encoding is owned by core (core/predict_io.hpp) so the
// feedback observation log shares it byte-for-byte; these wrappers keep the
// rpc-level names that the wire tests and codecs use.
void write_predict_request(io::BinaryWriter& w, const core::PredictRequest& r) {
  core::write_predict_request(w, r);
}

core::PredictRequest read_predict_request(io::BinaryReader& r) {
  return core::read_predict_request(r);
}

void write_serve_result(io::BinaryWriter& w, const serve::ServeResult& r) {
  w.u8(static_cast<std::uint8_t>(r.status));
  w.f64(r.response.predicted_time_s);
  w.boolean(r.response.triggered_offline_training);
  w.f64(r.response.embedding_ms);
  w.f64(r.response.inference_ms);
  w.boolean(r.cache_hit);
  w.u8(static_cast<std::uint8_t>(r.confidence));
  w.f64(r.reuse_distance);
  w.f64(r.queue_ms);
  w.f64(r.total_ms);
  w.str(r.error);
}

serve::ServeResult read_serve_result(io::BinaryReader& r) {
  serve::ServeResult out;
  const std::uint8_t status = r.u8();
  PDDL_CHECK(status <= static_cast<std::uint8_t>(serve::ServeStatus::kError),
             r.what(), ": invalid serve status byte ", int{status});
  out.status = static_cast<serve::ServeStatus>(status);
  out.response.predicted_time_s = r.f64();
  out.response.triggered_offline_training = r.boolean();
  out.response.embedding_ms = r.f64();
  out.response.inference_ms = r.f64();
  out.cache_hit = r.boolean();
  const std::uint8_t confidence = r.u8();
  PDDL_CHECK(
      confidence <= static_cast<std::uint8_t>(serve::Confidence::kReused),
      r.what(), ": invalid confidence byte ", int{confidence});
  out.confidence = static_cast<serve::Confidence>(confidence);
  out.reuse_distance = r.f64();
  out.queue_ms = r.f64();
  out.total_ms = r.f64();
  out.error = r.str();
  return out;
}

// The stats encoding is the metrics table (serve::for_each_field) walked in
// row order, derived rows skipped.  Writing and reading share the walk, so
// the two directions cannot disagree on the field order.
namespace {
void field(io::BinaryWriter& w, const std::uint64_t& v) { w.u64(v); }
void field(io::BinaryReader& r, std::uint64_t& v) { v = r.u64(); }
void field(io::BinaryWriter& w, const double& v) { w.f64(v); }
void field(io::BinaryReader& r, double& v) { v = r.f64(); }
void field(io::BinaryWriter& w, const std::string& v) { w.str(v); }
void field(io::BinaryReader& r, std::string& v) { v = r.str(); }

// Histograms stat by stat, per-size count arrays slot by slot.
template <class Stream, class T>
void field(Stream& s, T& v) {
  if constexpr (serve::HistogramSnapshot<T>) {
    serve::for_each_stat(v, [&](const char*, auto& x) { field(s, x); });
  } else {
    for (auto& c : v) field(s, c);
  }
}

template <class Stream, class Snapshot>
void walk_metrics(Stream& s, Snapshot& m) {
  serve::for_each_field([&](const char*, const char*, auto member, auto) {
    if constexpr (!std::is_member_function_pointer_v<decltype(member)>) {
      field(s, m.*member);
    }
  });
}
}  // namespace

void write_metrics(io::BinaryWriter& w, const serve::MetricsSnapshot& m) {
  walk_metrics(w, m);
}

serve::MetricsSnapshot read_metrics(io::BinaryReader& r) {
  serve::MetricsSnapshot m;
  walk_metrics(r, m);
  return m;
}

void write_observe_outcome(io::BinaryWriter& w,
                           const feedback::ObserveOutcome& o) {
  w.boolean(o.accepted);
  w.f64(o.predicted_s);
  w.f64(o.abs_error_s);
  w.f64(o.rel_error);
  w.boolean(o.drifted);
  w.boolean(o.refit_triggered);
  w.boolean(o.ghn_drift);
  w.boolean(o.retrain_triggered);
  w.str(o.reason);
}

feedback::ObserveOutcome read_observe_outcome(io::BinaryReader& r) {
  feedback::ObserveOutcome o;
  o.accepted = r.boolean();
  o.predicted_s = r.f64();
  o.abs_error_s = r.f64();
  o.rel_error = r.f64();
  o.drifted = r.boolean();
  o.refit_triggered = r.boolean();
  o.ghn_drift = r.boolean();
  o.retrain_triggered = r.boolean();
  o.reason = r.str();
  return o;
}

void write_refit_status(io::BinaryWriter& w, const feedback::RefitStatus& s) {
  w.u64(s.started);
  w.u64(s.completed);
  w.u64(s.failed);
  w.boolean(s.in_progress);
  w.u64(s.queued);
  w.str(s.last_dataset);
  w.u64(s.last_campaign_rows);
  w.u64(s.last_observation_rows);
  w.str(s.last_error);
  w.u32(static_cast<std::uint32_t>(s.datasets.size()));
  for (const feedback::DatasetFeedback& d : s.datasets) {
    w.str(d.dataset);
    w.u64(d.observations);
    feedback::write_error_stats(w, d.errors);
  }
  w.u32(static_cast<std::uint32_t>(s.families.size()));
  for (const feedback::FamilyFeedback& f : s.families) {
    w.str(f.dataset);
    w.str(f.family);
    w.u64(f.observations);
    feedback::write_error_stats(w, f.errors);
    w.boolean(f.ghn_drift);
    feedback::write_error_stats(w, f.pre_swap);
    w.u64(f.swaps);
  }
}

feedback::RefitStatus read_refit_status(io::BinaryReader& r) {
  feedback::RefitStatus s;
  s.started = r.u64();
  s.completed = r.u64();
  s.failed = r.u64();
  s.in_progress = r.boolean();
  s.queued = r.u64();
  s.last_dataset = r.str();
  s.last_campaign_rows = r.u64();
  s.last_observation_rows = r.u64();
  s.last_error = r.str();
  const std::uint32_t n = r.u32();
  PDDL_CHECK(n <= 4096, r.what(), ": unreasonable dataset count ", n);
  s.datasets.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    feedback::DatasetFeedback d;
    d.dataset = r.str();
    d.observations = r.u64();
    d.errors = feedback::read_error_stats(r);
    s.datasets.push_back(std::move(d));
  }
  const std::uint32_t nf = r.u32();
  PDDL_CHECK(nf <= 4096, r.what(), ": unreasonable family count ", nf);
  s.families.reserve(nf);
  for (std::uint32_t i = 0; i < nf; ++i) {
    feedback::FamilyFeedback f;
    f.dataset = r.str();
    f.family = r.str();
    f.observations = r.u64();
    f.errors = feedback::read_error_stats(r);
    f.ghn_drift = r.boolean();
    f.pre_swap = feedback::read_error_stats(r);
    f.swaps = r.u64();
    s.families.push_back(std::move(f));
  }
  return s;
}

void write_retrain_status(io::BinaryWriter& w,
                          const feedback::RetrainStatus& s) {
  w.u64(s.generation);
  w.u64(s.started);
  w.u64(s.completed);
  w.u64(s.failed);
  w.boolean(s.in_progress);
  w.u64(s.queued);
  w.str(s.last_dataset);
  w.str(s.last_family);
  w.str(s.last_error);
  w.u64(s.last_corpus_graphs);
  w.u64(s.last_family_graphs);
  w.i32(s.last_epochs_run);
  w.f64(s.last_train_seconds);
  w.f64(s.last_initial_loss);
  w.f64(s.last_final_loss);
  w.u64(s.live_checksum);
  w.u32(static_cast<std::uint32_t>(s.families.size()));
  for (const feedback::FamilyErrorDelta& d : s.families) {
    w.str(d.dataset);
    w.str(d.family);
    feedback::write_error_stats(w, d.before);
    feedback::write_error_stats(w, d.after);
  }
}

feedback::RetrainStatus read_retrain_status(io::BinaryReader& r) {
  feedback::RetrainStatus s;
  s.generation = r.u64();
  s.started = r.u64();
  s.completed = r.u64();
  s.failed = r.u64();
  s.in_progress = r.boolean();
  s.queued = r.u64();
  s.last_dataset = r.str();
  s.last_family = r.str();
  s.last_error = r.str();
  s.last_corpus_graphs = r.u64();
  s.last_family_graphs = r.u64();
  s.last_epochs_run = r.i32();
  s.last_train_seconds = r.f64();
  s.last_initial_loss = r.f64();
  s.last_final_loss = r.f64();
  s.live_checksum = r.u64();
  const std::uint32_t n = r.u32();
  PDDL_CHECK(n <= 4096, r.what(), ": unreasonable family count ", n);
  s.families.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    feedback::FamilyErrorDelta d;
    d.dataset = r.str();
    d.family = r.str();
    d.before = feedback::read_error_stats(r);
    d.after = feedback::read_error_stats(r);
    s.families.push_back(std::move(d));
  }
  return s;
}

// ---- request / response bodies ----

namespace {
Op read_op(io::BinaryReader& r) {
  const std::uint8_t op = r.u8();
  PDDL_CHECK(op <= static_cast<std::uint8_t>(Op::kRetrainStatus), r.what(),
             ": unknown rpc op byte ", int{op});
  return static_cast<Op>(op);
}

// A body must be consumed exactly: leftover bytes mean the two endpoints
// disagree about the encoding, which should fail loudly, not silently.
void expect_fully_consumed(io::BinaryReader& r) {
  PDDL_CHECK(r.at_end(), r.what(), ": trailing bytes after the body");
}
}  // namespace

std::string encode_request(const Request& req) {
  if (req.op == Op::kPredict || req.op == Op::kObserve) {
    PDDL_CHECK(req.reqs.size() == 1, "rpc ", to_string(req.op),
               " request must carry exactly one PredictRequest, got ",
               req.reqs.size());
  }
  PDDL_CHECK(req.reqs.size() <= kMaxBatchRequests,
             "rpc batch of ", req.reqs.size(), " requests exceeds the ",
             kMaxBatchRequests, "-request bound");
  std::string body;
  io::BinaryWriter w(body);
  w.u8(static_cast<std::uint8_t>(req.op));
  switch (req.op) {
    case Op::kPredict:
      w.f64(req.deadline_ms);
      rpc::write_predict_request(w, req.reqs.front());
      break;
    case Op::kPredictBatch:
      w.f64(req.deadline_ms);
      w.u32(static_cast<std::uint32_t>(req.reqs.size()));
      for (const core::PredictRequest& r : req.reqs) {
        rpc::write_predict_request(w, r);
      }
      break;
    case Op::kObserve:
      w.f64(req.measured_s);
      rpc::write_predict_request(w, req.reqs.front());
      break;
    case Op::kRefit:
      w.str(req.dataset);
      break;
    case Op::kRetrain:
      w.str(req.dataset);
      w.str(req.family);
      break;
    case Op::kPing:
    case Op::kStats:
    case Op::kShutdown:
    case Op::kRefitStatus:
    case Op::kRetrainStatus:
      break;
  }
  return body;
}

Request decode_request(const std::string& body) {
  io::BinaryReader r(body.data(), body.size(), "rpc request");
  Request req;
  req.op = read_op(r);
  switch (req.op) {
    case Op::kPredict:
      req.deadline_ms = r.f64();
      req.reqs.push_back(read_predict_request(r));
      break;
    case Op::kPredictBatch: {
      req.deadline_ms = r.f64();
      const std::uint32_t n = r.u32();
      PDDL_CHECK(n <= kMaxBatchRequests, r.what(), ": batch of ", n,
                 " requests exceeds the ", kMaxBatchRequests,
                 "-request bound");
      req.reqs.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        req.reqs.push_back(read_predict_request(r));
      }
      break;
    }
    case Op::kObserve:
      req.measured_s = r.f64();
      req.reqs.push_back(read_predict_request(r));
      break;
    case Op::kRefit:
      req.dataset = r.str();
      break;
    case Op::kRetrain:
      req.dataset = r.str();
      req.family = r.str();
      break;
    case Op::kPing:
    case Op::kStats:
    case Op::kShutdown:
    case Op::kRefitStatus:
    case Op::kRetrainStatus:
      break;
  }
  expect_fully_consumed(r);
  return req;
}

std::string encode_response(const Response& resp) {
  std::string body;
  io::BinaryWriter w(body);
  w.u8(static_cast<std::uint8_t>(resp.op));
  w.u8(static_cast<std::uint8_t>(resp.status));
  w.str(resp.message);
  switch (resp.op) {
    case Op::kPredict:
    case Op::kPredictBatch:
      w.u32(static_cast<std::uint32_t>(resp.results.size()));
      for (const serve::ServeResult& r : resp.results) {
        write_serve_result(w, r);
      }
      break;
    case Op::kStats:
      if (resp.status == RpcStatus::kOk) write_metrics(w, resp.stats);
      break;
    case Op::kObserve:
      if (resp.status == RpcStatus::kOk) {
        write_observe_outcome(w, resp.observe);
      }
      break;
    case Op::kRefit:
      if (resp.status == RpcStatus::kOk) w.boolean(resp.refit_started);
      break;
    case Op::kRefitStatus:
      if (resp.status == RpcStatus::kOk) write_refit_status(w, resp.refit);
      break;
    case Op::kRetrain:
      if (resp.status == RpcStatus::kOk) w.boolean(resp.retrain_started);
      break;
    case Op::kRetrainStatus:
      if (resp.status == RpcStatus::kOk) write_retrain_status(w, resp.retrain);
      break;
    case Op::kPing:
    case Op::kShutdown:
      break;
  }
  return body;
}

Response decode_response(const std::string& body) {
  io::BinaryReader r(body.data(), body.size(), "rpc response");
  Response resp;
  resp.op = read_op(r);
  const std::uint8_t status = r.u8();
  PDDL_CHECK(
      status <= static_cast<std::uint8_t>(RpcStatus::kInternalError),
      r.what(), ": unknown rpc status byte ", int{status});
  resp.status = static_cast<RpcStatus>(status);
  resp.message = r.str();
  switch (resp.op) {
    case Op::kPredict:
    case Op::kPredictBatch: {
      const std::uint32_t n = r.u32();
      PDDL_CHECK(n <= kMaxBatchRequests, r.what(), ": batch of ", n,
                 " results exceeds the ", kMaxBatchRequests, "-result bound");
      resp.results.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        resp.results.push_back(read_serve_result(r));
      }
      break;
    }
    case Op::kStats:
      if (resp.status == RpcStatus::kOk) resp.stats = read_metrics(r);
      break;
    case Op::kObserve:
      if (resp.status == RpcStatus::kOk) {
        resp.observe = read_observe_outcome(r);
      }
      break;
    case Op::kRefit:
      if (resp.status == RpcStatus::kOk) resp.refit_started = r.boolean();
      break;
    case Op::kRefitStatus:
      if (resp.status == RpcStatus::kOk) resp.refit = read_refit_status(r);
      break;
    case Op::kRetrain:
      if (resp.status == RpcStatus::kOk) resp.retrain_started = r.boolean();
      break;
    case Op::kRetrainStatus:
      if (resp.status == RpcStatus::kOk) resp.retrain = read_retrain_status(r);
      break;
    case Op::kPing:
    case Op::kShutdown:
      break;
  }
  expect_fully_consumed(r);
  return resp;
}

}  // namespace pddl::rpc
