// TCP front-end for serve::PredictionService.
//
// The transport stays out of src/serve/ (ROADMAP): the server owns sockets
// and frames only, translating each decoded wire::Request into
// PredictionService::submit() calls (propagating the per-request deadline)
// and streaming the ServeResults back.  One thread per connection, bounded
// by a connection cap — over the cap, an accepted connection is sent an
// explicit REJECTED_OVERLOADED frame and closed instead of silently queuing.
// Request-level pushback (the service's bounded admission queue) travels
// inside each ServeResult and is surfaced as REJECTED_OVERLOADED at the
// frame level when the whole frame was shed.
//
// Robustness contract:
//   - hostile input (bad magic, CRC mismatch, version skew, oversized or
//     truncated frames) produces a typed error response where the stream
//     still permits one, then a connection close — never a crash or hang;
//   - a stalled client trips the per-connection read timeout and is reaped
//     instead of pinning its thread;
//   - stop() is a graceful drain: accepting stops, the read side of every
//     connection is half-closed, in-flight requests finish and their
//     responses go out on the intact write side, then threads are joined.
//
// Thread-safety: start()/stop() from the owning thread; everything else is
// internally synchronized.  stop() requires the underlying service to be
// able to finish in-flight requests (don't leave it paused forever).
#pragma once

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <thread>

#include "rpc/socket.hpp"
#include "rpc/wire.hpp"

namespace pddl::rpc {

struct ServerConfig {
  std::string host = "127.0.0.1";  // bind address; 0.0.0.0 for all interfaces
  std::uint16_t port = 0;          // 0 = ephemeral (see Server::port())
  int backlog = 64;
  std::size_t max_connections = 64;   // concurrent connection cap
  double read_timeout_ms = 30000.0;   // idle/stalled-read reap threshold
  std::size_t max_frame_bytes = kMaxFrameBytes;
};

class Server {
 public:
  explicit Server(serve::PredictionService& service, ServerConfig cfg = {});
  ~Server();  // calls stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Enables the model-update ops (observe / refit / refit_status / retrain /
  // retrain_status) by routing them to `feedback`, which must outlive the
  // server.  Call before start(); without a controller those ops answer
  // kBadRequest.
  void attach_feedback(feedback::FeedbackController* feedback) {
    PDDL_CHECK(!running(), "attach_feedback must precede start()");
    feedback_ = feedback;
  }

  // Binds, listens, and starts accepting.  Throws pddl::Error if the
  // address is unavailable.
  void start();

  // Graceful shutdown: stop accepting, drain in-flight requests, join every
  // connection thread.  Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // Bound port (resolves the ephemeral port after start()).
  std::uint16_t port() const { return port_; }
  std::string endpoint() const {
    return cfg_.host + ":" + std::to_string(port_);
  }

  // True once a client has sent Op::kShutdown.  The accept loop stops
  // taking new connections at that point; the owner is expected to notice
  // (poll, or after its own SIGINT handling) and call stop().
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  // Service metrics with this server's connection/frame counters overlaid —
  // exactly what the `stats` op returns.
  serve::MetricsSnapshot metrics() const;

 private:
  struct Conn {
    Socket sock;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void handle_connection(Conn* conn);
  // Executes one decoded request.  Its PredictRequests are moved into the
  // service, so `req` is consumed.
  Response execute(Request& req);
  bool send_response(const Socket& sock, const Response& resp);
  void reap_finished_locked();

  serve::PredictionService& service_;
  feedback::FeedbackController* feedback_ = nullptr;  // optional, not owned
  ServerConfig cfg_;
  std::uint16_t port_ = 0;

  Socket listener_;
  std::thread acceptor_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};

  std::mutex conns_mutex_;
  std::list<std::unique_ptr<Conn>> conns_;

  // rpc-layer counters (relaxed increments on the hot path, like
  // serve::ServiceMetrics).
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_active_{0};
  std::atomic<std::uint64_t> connections_rejected_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frame_errors_{0};
  std::atomic<std::uint64_t> read_timeouts_{0};
};

}  // namespace pddl::rpc
