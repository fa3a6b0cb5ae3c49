// Thin RAII wrappers over POSIX TCP sockets — the only layer of the rpc
// subsystem that touches file descriptors.  IPv4 only ("localhost" is
// accepted as an alias for 127.0.0.1); no third-party dependencies.
//
// Error model: every failure throws pddl::Error with errno context, except
// the two conditions a server loop must distinguish from failure — a clean
// peer close before any byte of a message (RecvOutcome::kClosed) and an
// idle-read timeout (RecvOutcome::kTimeout).  Writes never raise SIGPIPE
// (MSG_NOSIGNAL); a closed peer surfaces as an Error instead.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/check.hpp"

namespace pddl::rpc {

// Move-only owner of a socket fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();
  // Half-close the read side: a peer blocked in recv() on the other end is
  // unaffected, but our next recv() returns "closed".  Used for graceful
  // drain — in-flight responses still go out on the intact write side.
  void shutdown_read();

 private:
  int fd_ = -1;
};

// Parses a decimal TCP port in [min_port, 65535] into *port.  The whole of
// `text` must be digits: a sign, a suffix or an out-of-range value returns
// false and leaves *port untouched.
bool parse_port(std::string_view text, std::uint16_t min_port,
                std::uint16_t* port);

// Resolves "localhost"/dotted-quad `host` and connects; throws on failure.
Socket connect_tcp(const std::string& host, std::uint16_t port);

// Binds and listens; port 0 picks an ephemeral port.  The actually bound
// port is written to *bound_port.  Throws on failure (named in the error).
Socket listen_tcp(const std::string& host, std::uint16_t port, int backlog,
                  std::uint16_t* bound_port);

// Blocks up to timeout_ms for an inbound connection.  Returns an invalid
// Socket on timeout; throws on listener failure.
Socket accept_with_timeout(const Socket& listener, double timeout_ms);

// SO_RCVTIMEO: a recv that stalls longer than timeout_ms fails with
// RecvOutcome::kTimeout instead of pinning the thread.  0 disables.
void set_recv_timeout(const Socket& sock, double timeout_ms);

// Sends all `size` bytes, handling partial writes; throws on any failure.
void send_all(const Socket& sock, const void* data, std::size_t size);

enum class RecvOutcome {
  kOk,       // exactly `size` bytes received
  kClosed,   // peer closed cleanly before the first byte
  kTimeout,  // SO_RCVTIMEO expired (before or mid-message)
};

// Receives exactly `size` bytes.  A peer close *mid-message* is a protocol
// violation (truncated frame) and throws; before the first byte it is a
// clean kClosed.
RecvOutcome recv_exact(const Socket& sock, void* data, std::size_t size);

}  // namespace pddl::rpc
