// RAII POSIX sockets (IPv4, blocking I/O).
//
// The live transport deliberately uses blocking sockets with one thread
// per connection: the deployment unit is an edge box serving a handful
// of mobile clients, where thread-per-connection is simpler to reason
// about than an event loop and performs identically. All descriptors are
// owned by FdHandle (Core Guidelines R.1: RAII for every resource).
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/status.h"

namespace coic::net {

/// Owning file descriptor. Move-only; closes on destruction.
class FdHandle {
 public:
  FdHandle() noexcept = default;
  explicit FdHandle(int fd) noexcept : fd_(fd) {}
  ~FdHandle() { Reset(); }

  FdHandle(const FdHandle&) = delete;
  FdHandle& operator=(const FdHandle&) = delete;
  FdHandle(FdHandle&& other) noexcept : fd_(other.Release()) {}
  FdHandle& operator=(FdHandle&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int get() const noexcept { return fd_; }

  /// Relinquishes ownership.
  int Release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes now (idempotent).
  void Reset() noexcept;

 private:
  int fd_ = -1;
};

/// IPv4 endpoint.
struct SocketAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  [[nodiscard]] std::string ToString() const {
    return host + ":" + std::to_string(port);
  }
};

/// A connected TCP stream with exact-length read/write helpers.
class TcpStream {
 public:
  TcpStream() noexcept = default;
  explicit TcpStream(FdHandle fd) noexcept : fd_(std::move(fd)) {}

  /// Connects to `addr` (blocking). TCP_NODELAY is set: the protocol is
  /// request/response and Nagle only adds latency.
  static Result<TcpStream> Connect(const SocketAddress& addr);

  [[nodiscard]] bool valid() const noexcept { return fd_.valid(); }

  /// Writes the entire buffer (loops over partial writes / EINTR).
  Status WriteAll(std::span<const std::uint8_t> data);

  /// Reads exactly `data.size()` bytes. kUnavailable on orderly peer
  /// close at a frame boundary (0 bytes read so far), kDataLoss on close
  /// mid-buffer.
  Status ReadExact(std::span<std::uint8_t> data);

  /// Half-closes the write side, unblocking a peer's read loop.
  void ShutdownWrite() noexcept;

  /// Shuts down both directions, unblocking any thread parked in recv()
  /// on this stream (used by server shutdown paths).
  void ShutdownBoth() noexcept;

  [[nodiscard]] int fd() const noexcept { return fd_.get(); }

 private:
  FdHandle fd_;
};

/// A listening TCP socket.
class TcpListener {
 public:
  /// Binds and listens on `addr` with SO_REUSEADDR; port 0 picks an
  /// ephemeral port (read back via bound_port()).
  static Result<TcpListener> Bind(const SocketAddress& addr);

  /// Blocks until a client connects. kUnavailable once Close() is called.
  Result<TcpStream> Accept();

  [[nodiscard]] std::uint16_t bound_port() const noexcept { return port_; }

  /// Wakes every thread blocked in Accept, which then returns an error,
  /// without releasing the socket — safe to call while another thread is
  /// inside Accept. (Plain close() does NOT wake a thread blocked in
  /// accept() on Linux; shutdown() does.)
  void Shutdown() noexcept;

  /// Shutdown, then closes the socket. Only once no thread can still be
  /// in Accept: closing writes the fd that Accept reads.
  void Close() noexcept;

 private:
  TcpListener(FdHandle fd, std::uint16_t port) noexcept
      : fd_(std::move(fd)), port_(port) {}

  FdHandle fd_;
  std::uint16_t port_ = 0;
};

}  // namespace coic::net
