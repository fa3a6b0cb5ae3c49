#include "rpc/server.hpp"

#include <future>
#include <utility>
#include <vector>

namespace pddl::rpc {

Server::Server(serve::PredictionService& service, ServerConfig cfg)
    : service_(service), cfg_(std::move(cfg)) {
  PDDL_CHECK(cfg_.max_connections > 0, "connection cap must be positive");
  PDDL_CHECK(cfg_.read_timeout_ms > 0.0, "read timeout must be positive");
  PDDL_CHECK(cfg_.max_frame_bytes >= kFrameOverheadBytes + 1,
             "max frame size cannot fit any frame");
}

Server::~Server() { stop(); }

void Server::start() {
  PDDL_CHECK(!running_.load(), "rpc server already started");
  PDDL_CHECK(!stopping_.load(), "rpc server cannot be restarted after stop");
  listener_ = listen_tcp(cfg_.host, cfg_.port, cfg_.backlog, &port_);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    // Never started, or already stopped; still join a lingering acceptor.
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  stopping_.store(true, std::memory_order_release);
  if (acceptor_.joinable()) acceptor_.join();
  {
    // Half-close the read side of every live connection: handlers finish
    // the request they are processing, send the response on the intact
    // write side, then observe EOF and exit.
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& conn : conns_) conn->sock.shutdown_read();
  }
  for (;;) {
    std::unique_ptr<Conn> conn;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      if (conns_.empty()) break;
      conn = std::move(conns_.front());
      conns_.pop_front();
    }
    if (conn->thread.joinable()) conn->thread.join();
  }
  listener_.close();
}

void Server::reap_finished_locked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Socket conn_sock;
    try {
      conn_sock = accept_with_timeout(listener_, 100.0);
    } catch (const std::exception&) {
      break;  // listener died; stop() will clean up
    }
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      reap_finished_locked();
    }
    if (!conn_sock.valid()) continue;
    if (stopping_.load(std::memory_order_acquire) || shutdown_requested()) {
      Response resp;
      resp.status = RpcStatus::kShuttingDown;
      resp.message = "server is draining";
      send_response(conn_sock, resp);
      continue;  // Socket destructor closes
    }
    if (connections_active_.load(std::memory_order_relaxed) >=
        cfg_.max_connections) {
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      Response resp;
      resp.status = RpcStatus::kRejectedOverloaded;
      resp.message = "connection cap (" +
                     std::to_string(cfg_.max_connections) + ") reached";
      send_response(conn_sock, resp);
      continue;
    }

    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_active_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Conn>();
    conn->sock = std::move(conn_sock);
    Conn* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { handle_connection(raw); });
  }
}

bool Server::send_response(const Socket& sock, const Response& resp) {
  try {
    const std::string frame = encode_frame(encode_response(resp));
    // Count before writing: a client that holds the response must already
    // see it in frames_sent, so received==sent is observable the moment
    // the last round-trip completes.  A failed send overcounts by one,
    // but that connection is closed immediately anyway.
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    send_all(sock, frame.data(), frame.size());
    return true;
  } catch (const std::exception&) {
    return false;  // peer is gone; the connection is closed by the caller
  }
}

Response Server::execute(Request& req) {
  Response resp;
  resp.op = req.op;
  if (needs_feedback(req.op) && feedback_ == nullptr) {
    resp.status = RpcStatus::kBadRequest;
    resp.message = "model updates are not enabled on this server";
    return resp;
  }
  switch (req.op) {
    case Op::kPing:
      break;
    case Op::kPredict:
    case Op::kPredictBatch: {
      std::vector<std::future<serve::ServeResult>> futs;
      futs.reserve(req.reqs.size());
      for (core::PredictRequest& r : req.reqs) {
        futs.push_back(service_.submit(std::move(r), req.deadline_ms));
      }
      resp.results.reserve(futs.size());
      std::size_t shed = 0;
      for (auto& f : futs) {
        serve::ServeResult r = f.get();
        if (r.status == serve::ServeStatus::kRejectedQueueFull) ++shed;
        resp.results.push_back(std::move(r));
      }
      if (!resp.results.empty() && shed == resp.results.size()) {
        // The admission queue pushed back on the entire frame: make the
        // overload explicit at the rpc layer too, so schedulers can back
        // off without inspecting every result.
        resp.status = RpcStatus::kRejectedOverloaded;
        resp.message = "admission queue at capacity";
      }
      break;
    }
    case Op::kStats:
      resp.stats = metrics();
      break;
    case Op::kObserve:
      resp.observe = feedback_->observe(req.reqs.front(), req.measured_s);
      break;
    case Op::kRefit:
      if (req.dataset.empty()) {
        resp.status = RpcStatus::kBadRequest;
        resp.message = "refit needs a dataset name";
        break;
      }
      resp.refit_started = feedback_->request_refit(req.dataset);
      break;
    case Op::kRefitStatus:
      resp.refit = feedback_->status();
      break;
    case Op::kRetrain:
      if (req.dataset.empty() || req.family.empty()) {
        resp.status = RpcStatus::kBadRequest;
        resp.message = "retrain needs a dataset and a model family";
        break;
      }
      resp.retrain_started = feedback_->request_retrain(req.dataset, req.family);
      break;
    case Op::kRetrainStatus:
      resp.retrain = feedback_->retrain_status();
      break;
    case Op::kShutdown:
      shutdown_requested_.store(true, std::memory_order_release);
      break;
  }
  return resp;
}

void Server::handle_connection(Conn* conn) {
  set_recv_timeout(conn->sock, cfg_.read_timeout_ms);
  for (;;) {
    // 1. Fixed-size prefix: learn the body length before trusting anything.
    char prefix[kFramePrefixBytes];
    RecvOutcome rc;
    try {
      rc = recv_exact(conn->sock, prefix, sizeof(prefix));
    } catch (const std::exception&) {
      frame_errors_.fetch_add(1, std::memory_order_relaxed);  // mid-prefix EOF
      break;
    }
    if (rc == RecvOutcome::kClosed) break;  // clean disconnect (or drain EOF)
    if (rc == RecvOutcome::kTimeout) {
      read_timeouts_.fetch_add(1, std::memory_order_relaxed);
      break;
    }

    // 2. Validate the prefix and read body + CRC.  Any envelope-level
    // violation (bad magic, version skew, hostile length, truncation,
    // CRC mismatch) gets a typed error response, then the connection is
    // closed: an out-of-sync stream cannot be trusted for resync.
    std::string frame(kFramePrefixBytes, '\0');
    frame.replace(0, sizeof(prefix), prefix, sizeof(prefix));
    std::string body;
    try {
      const std::uint32_t body_len =
          decode_frame_prefix(prefix, cfg_.max_frame_bytes);
      frame.resize(kFrameOverheadBytes + body_len);
      rc = recv_exact(conn->sock, frame.data() + kFramePrefixBytes,
                      frame.size() - kFramePrefixBytes);
      if (rc == RecvOutcome::kTimeout) {
        read_timeouts_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      PDDL_CHECK(rc == RecvOutcome::kOk, "rpc frame truncated by peer close");
      body = decode_frame(frame, cfg_.max_frame_bytes);
    } catch (const std::exception& e) {
      frame_errors_.fetch_add(1, std::memory_order_relaxed);
      Response resp;
      resp.status = RpcStatus::kBadRequest;
      resp.message = e.what();
      send_response(conn->sock, resp);
      break;
    }
    frames_received_.fetch_add(1, std::memory_order_relaxed);

    // 3. Decode the body.  The envelope checked out (CRC-valid), so the
    // stream is still in sync: report the bad body and keep serving.
    Request req;
    bool body_ok = true;
    try {
      req = decode_request(body);
    } catch (const std::exception& e) {
      frame_errors_.fetch_add(1, std::memory_order_relaxed);
      Response resp;
      resp.status = RpcStatus::kBadRequest;
      resp.message = e.what();
      if (!send_response(conn->sock, resp)) break;
      body_ok = false;
    }
    if (!body_ok) continue;

    // 4. Execute and respond.
    Response resp;
    if (stopping_.load(std::memory_order_acquire)) {
      resp.op = req.op;
      resp.status = RpcStatus::kShuttingDown;
      resp.message = "server is draining";
    } else {
      try {
        resp = execute(req);
      } catch (const std::exception& e) {
        resp = Response();
        resp.op = req.op;
        resp.status = RpcStatus::kInternalError;
        resp.message = e.what();
      }
    }
    if (!send_response(conn->sock, resp)) break;
    if (req.op == Op::kShutdown) break;  // last frame on this connection
  }
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
  conn->done.store(true, std::memory_order_release);
}

serve::MetricsSnapshot Server::metrics() const {
  serve::MetricsSnapshot s = service_.metrics();
  s.rpc_connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.rpc_connections_active =
      connections_active_.load(std::memory_order_relaxed);
  s.rpc_connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  s.rpc_frames_received = frames_received_.load(std::memory_order_relaxed);
  s.rpc_frames_sent = frames_sent_.load(std::memory_order_relaxed);
  s.rpc_frame_errors = frame_errors_.load(std::memory_order_relaxed);
  s.rpc_read_timeouts = read_timeouts_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace pddl::rpc
