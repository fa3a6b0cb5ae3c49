// Blocking client for the PredictDDL rpc protocol — the library an external
// scheduler (or the load generator / CI smoke test) links against.
//
// One Client is one TCP connection issuing one request at a time; it is NOT
// thread-safe — give each client thread its own Client (connections are
// cheap, and the server's dispatcher pool provides the concurrency).
//
// Request-level outcomes (untrained dataset, deadline expired, queue full)
// come back inside the returned ServeResult, exactly as the in-process
// PredictionService reports them, so a caller can swap between in-process
// and remote serving without changing its handling.  Transport and
// protocol-level failures (connection refused, version skew, corrupt
// frames, server overload before any request was admitted) throw
// pddl::Error with the server's message.
#pragma once

#include "rpc/socket.hpp"
#include "rpc/wire.hpp"

namespace pddl::rpc {

struct ClientConfig {
  double recv_timeout_ms = 30000.0;  // bound on waiting for a response
  std::size_t max_frame_bytes = kMaxFrameBytes;
};

class Client {
 public:
  // Connects eagerly; throws pddl::Error if the server is unreachable.
  Client(const std::string& host, std::uint16_t port, ClientConfig cfg = {});

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  // Round-trips one prediction.  `deadline_ms` < 0 uses the server's
  // default; it is enforced server-side from admission time.
  serve::ServeResult predict(const core::PredictRequest& req,
                             double deadline_ms = -1.0);

  // One frame, many predictions: amortizes the envelope and the syscalls,
  // and lands the whole batch in the service's micro-batching dispatcher at
  // once.  Results are index-aligned with `reqs`.
  std::vector<serve::ServeResult> predict_batch(
      const std::vector<core::PredictRequest>& reqs, double deadline_ms = -1.0);

  // Serialized MetricsSnapshot, including the server's rpc-layer counters.
  serve::MetricsSnapshot stats();

  // Reports an observed training run; the outcome carries the live
  // prediction it was scored against plus drift/refit flags.  A rejected
  // observation (e.g. unscoreable measurement) comes back with
  // accepted=false and a reason, not an exception; throws only when the
  // server has no feedback controller attached.
  feedback::ObserveOutcome observe(const core::PredictRequest& req,
                                   double measured_s);

  // Explicitly enqueue a server-side refit for `dataset`.  Returns whether
  // a refit was newly enqueued (false = one is already queued or running).
  bool request_refit(const std::string& dataset);

  // Feedback-loop status: refit counters and per-dataset error windows.
  feedback::RefitStatus refit_status();

  // Explicitly enqueue a server-side GHN fine-tune for (dataset, family).
  // Returns whether one was newly enqueued (false = already queued or
  // running); throws when the server has no trainer job attached.
  bool request_retrain(const std::string& dataset, const std::string& family);

  // Retrain-loop status: GHN generation, last fine-tune summary, and the
  // per-family before/after error deltas.
  feedback::RetrainStatus retrain_status();

  // Round-trip time of an empty frame, in milliseconds.
  double ping();

  // Asks the server to begin a graceful drain (predict_server exits its
  // serve loop; embedded servers surface it via Server::shutdown_requested).
  void request_shutdown();

  void close() { sock_.close(); }

 private:
  Response call(const Request& req);

  ClientConfig cfg_;
  Socket sock_;
};

}  // namespace pddl::rpc
