#include "rpc/client.hpp"

#include "common/stopwatch.hpp"

namespace pddl::rpc {

Client::Client(const std::string& host, std::uint16_t port, ClientConfig cfg)
    : cfg_(cfg), sock_(connect_tcp(host, port)) {
  set_recv_timeout(sock_, cfg_.recv_timeout_ms);
}

Response Client::call(const Request& req) {
  PDDL_CHECK(sock_.valid(), "rpc client connection is closed");
  const std::string frame = encode_frame(encode_request(req));
  send_all(sock_, frame.data(), frame.size());

  char prefix[kFramePrefixBytes];
  RecvOutcome rc = recv_exact(sock_, prefix, sizeof(prefix));
  PDDL_CHECK(rc != RecvOutcome::kClosed,
             "rpc server closed the connection before responding");
  PDDL_CHECK(rc != RecvOutcome::kTimeout,
             "rpc response timed out after ", cfg_.recv_timeout_ms, " ms");
  const std::uint32_t body_len =
      decode_frame_prefix(prefix, cfg_.max_frame_bytes);
  std::string full(kFrameOverheadBytes + body_len, '\0');
  full.replace(0, sizeof(prefix), prefix, sizeof(prefix));
  rc = recv_exact(sock_, full.data() + kFramePrefixBytes,
                  full.size() - kFramePrefixBytes);
  PDDL_CHECK(rc == RecvOutcome::kOk, "rpc response truncated");

  Response resp = decode_response(decode_frame(full, cfg_.max_frame_bytes));
  const bool overload_with_results =
      resp.status == RpcStatus::kRejectedOverloaded && !resp.results.empty();
  if (resp.status != RpcStatus::kOk && !overload_with_results) {
    // Connection-cap rejections, bad requests, drain, internal errors: the
    // caller got no per-request results, so surface the typed failure.
    throw Error(std::string("rpc ") + to_string(req.op) + " failed: " +
                to_string(resp.status) +
                (resp.message.empty() ? "" : " — " + resp.message));
  }
  // A response for another op decodes cleanly but leaves every field this
  // op reads at its default, so a mismatched echo must fail loudly.
  PDDL_CHECK(resp.op == req.op, "rpc ", to_string(req.op),
             " got a response for op ", to_string(resp.op));
  return resp;
}

serve::ServeResult Client::predict(const core::PredictRequest& req,
                                   double deadline_ms) {
  Request r;
  r.op = Op::kPredict;
  r.deadline_ms = deadline_ms;
  r.reqs.push_back(req);
  Response resp = call(r);
  PDDL_CHECK(resp.results.size() == 1,
             "rpc predict returned ", resp.results.size(),
             " results, expected 1");
  return std::move(resp.results.front());
}

std::vector<serve::ServeResult> Client::predict_batch(
    const std::vector<core::PredictRequest>& reqs, double deadline_ms) {
  Request r;
  r.op = Op::kPredictBatch;
  r.deadline_ms = deadline_ms;
  r.reqs = reqs;
  Response resp = call(r);
  PDDL_CHECK(resp.results.size() == reqs.size(),
             "rpc predict_batch returned ", resp.results.size(),
             " results for ", reqs.size(), " requests");
  return std::move(resp.results);
}

serve::MetricsSnapshot Client::stats() {
  Request r;
  r.op = Op::kStats;
  return call(r).stats;
}

feedback::ObserveOutcome Client::observe(const core::PredictRequest& req,
                                         double measured_s) {
  Request r;
  r.op = Op::kObserve;
  r.measured_s = measured_s;
  r.reqs.push_back(req);
  return call(r).observe;
}

bool Client::request_refit(const std::string& dataset) {
  Request r;
  r.op = Op::kRefit;
  r.dataset = dataset;
  return call(r).refit_started;
}

feedback::RefitStatus Client::refit_status() {
  Request r;
  r.op = Op::kRefitStatus;
  return call(r).refit;
}

bool Client::request_retrain(const std::string& dataset,
                             const std::string& family) {
  Request r;
  r.op = Op::kRetrain;
  r.dataset = dataset;
  r.family = family;
  return call(r).retrain_started;
}

feedback::RetrainStatus Client::retrain_status() {
  Request r;
  r.op = Op::kRetrainStatus;
  return call(r).retrain;
}

double Client::ping() {
  Request r;
  r.op = Op::kPing;
  Stopwatch sw;
  call(r);
  return sw.millis();
}

void Client::request_shutdown() {
  Request r;
  r.op = Op::kShutdown;
  call(r);
}

}  // namespace pddl::rpc
