#include "rpc/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>

namespace pddl::rpc {

namespace {
[[noreturn]] void fail_errno(const std::string& what) {
  throw Error("rpc socket: " + what + ": " + std::strerror(errno));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string ip = host == "localhost" ? "127.0.0.1" : host;
  PDDL_CHECK(::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) == 1,
             "rpc socket: '", host, "' is not an IPv4 address");
  return addr;
}
}  // namespace

bool parse_port(std::string_view text, std::uint16_t min_port,
                std::uint16_t* port) {
  unsigned value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min_port || value > 65535) {
    return false;
  }
  *port = static_cast<std::uint16_t>(value);
  return true;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_read() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

Socket connect_tcp(const std::string& host, std::uint16_t port) {
  const sockaddr_in addr = make_addr(host, port);
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) fail_errno("socket()");
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    fail_errno("connect to " + host + ":" + std::to_string(port));
  }
  // Request/response frames are small and latency-bound: don't batch them.
  int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

Socket listen_tcp(const std::string& host, std::uint16_t port, int backlog,
                  std::uint16_t* bound_port) {
  sockaddr_in addr = make_addr(host, port);
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) fail_errno("socket()");
  int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    fail_errno("bind to " + host + ":" + std::to_string(port));
  }
  if (::listen(sock.fd(), backlog) != 0) fail_errno("listen");
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&actual),
                      &len) != 0) {
      fail_errno("getsockname");
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return sock;
}

Socket accept_with_timeout(const Socket& listener, double timeout_ms) {
  pollfd pfd{};
  pfd.fd = listener.fd();
  pfd.events = POLLIN;
  const int rc = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
  if (rc < 0) {
    if (errno == EINTR) return Socket();
    fail_errno("poll on listener");
  }
  if (rc == 0) return Socket();  // timeout — caller re-checks its stop flag
  Socket conn(::accept(listener.fd(), nullptr, nullptr));
  if (!conn.valid()) {
    // The connection may have been reset between poll and accept; treat
    // transient conditions as "nothing accepted this round".
    if (errno == ECONNABORTED || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == EINTR) {
      return Socket();
    }
    fail_errno("accept");
  }
  int one = 1;
  ::setsockopt(conn.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return conn;
}

void set_recv_timeout(const Socket& sock, double timeout_ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000.0);
  tv.tv_usec = static_cast<suseconds_t>(
      (timeout_ms - static_cast<double>(tv.tv_sec) * 1000.0) * 1000.0);
  if (::setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    fail_errno("setsockopt(SO_RCVTIMEO)");
  }
}

void send_all(const Socket& sock, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(sock.fd(), p + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

RecvOutcome recv_exact(const Socket& sock, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(sock.fd(), p + got, size - got, 0);
    if (n == 0) {
      if (got == 0) return RecvOutcome::kClosed;
      throw Error("rpc socket: peer closed mid-message (" +
                  std::to_string(got) + " of " + std::to_string(size) +
                  " bytes received)");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return RecvOutcome::kTimeout;
      fail_errno("recv");
    }
    got += static_cast<std::size_t>(n);
  }
  return RecvOutcome::kOk;
}

}  // namespace pddl::rpc
