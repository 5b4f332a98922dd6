// Thin RAII layer over POSIX TCP sockets (loopback mesh plumbing).
//
// Everything the socket runtime needs and nothing more: owned fds,
// listeners on an ephemeral loopback port, blocking connect/accept for the
// deterministic mesh handshake, non-blocking mode for the event loops, and
// EINTR-safe read/write wrappers. Errors that indicate environment failure
// (out of fds, loopback down) throw TransportError; normal peer-side
// conditions (EOF, ECONNRESET after a crash) are reported through return
// values so the event loop can treat them as channel teardown.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace tbr {

/// Environment-level transport failure (socket(), bind(), listen(), ...).
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

/// An owned file descriptor. Move-only; closes on destruction.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd();
  OwnedFd(OwnedFd&& other) noexcept;
  OwnedFd& operator=(OwnedFd&& other) noexcept;
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  void reset();  ///< close now

 private:
  int fd_ = -1;
};

/// Outcome of a non-blocking read/write slice.
enum class IoStatus {
  kOk,        ///< made progress
  kWouldBlock,///< EAGAIN: try again when poll() says so
  kClosed,    ///< EOF or connection reset: the peer is gone
};

struct IoResult {
  IoStatus status = IoStatus::kOk;
  std::size_t bytes = 0;
};

namespace tcp {

/// Create a TCP listener bound to 127.0.0.1 on an ephemeral port.
/// Returns the fd and the chosen port.
std::pair<OwnedFd, std::uint16_t> listen_loopback(int backlog);

/// Blocking connect to 127.0.0.1:port.
OwnedFd connect_loopback(std::uint16_t port);

/// Blocking accept.
OwnedFd accept_blocking(int listener_fd);

void set_nonblocking(int fd);
void set_nodelay(int fd);

/// Shrink/grow the kernel send/receive buffers (SO_SNDBUF / SO_RCVBUF).
/// Backpressure tests use tiny kernel buffers so a slow reader pushes the
/// writer's userspace outbuf across high water with few frames.
void set_sndbuf(int fd, int bytes);
void set_rcvbuf(int fd, int bytes);

/// Most bytes one read_some call asks the kernel for.
inline constexpr std::size_t kReadChunk = 16 * 1024;

/// Non-blocking read of up to min(`cap`, kReadChunk) bytes appended onto
/// `buffer`.
IoResult read_some(int fd, std::string& buffer, std::size_t cap);

/// Non-blocking write of as much of [data, data+len) as the kernel takes.
IoResult write_some(int fd, const char* data, std::size_t len);

/// Blocking write of the whole buffer (mesh handshake only).
void write_all_blocking(int fd, const char* data, std::size_t len);

/// Blocking read of exactly `len` bytes (mesh handshake only).
std::string read_exact_blocking(int fd, std::size_t len);

/// A fresh connected loopback TCP pair (ephemeral listener, dial, accept,
/// listener closed). Crash-rejoin uses this to re-establish the channel
/// between a restarted process and each live peer: a NEW connection, so
/// whatever died with the old one stays dead.
std::pair<OwnedFd, OwnedFd> make_loopback_pair();

/// Self-wakeup pipe for event loops: returns {read_end, write_end}, the
/// read end non-blocking.
std::pair<OwnedFd, OwnedFd> make_wakeup_pipe();

/// Drain everything currently readable from a wakeup pipe's read end,
/// stopping at the first short read.
void drain_pipe(int fd);

}  // namespace tcp
}  // namespace tbr
