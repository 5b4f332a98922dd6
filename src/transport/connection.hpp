// Connection: one peer channel of the socket runtime — its fd, the two
// FrameBuffer-framed byte streams, and the backpressure state machine.
//
// The problem this type exists for: an unbounded outbuf turns a slow
// reader into an OOM. The old runtime appended frames to a peer's outbuf
// without limit; if the peer stopped draining its socket, every writer
// kept queueing until memory ran out. Here each connection carries
// watermarks: when the queued bytes cross `outbuf_high_water` the
// connection *parks* (paused() goes true) and the owning process stops
// admitting new client operations; EPOLLOUT-driven flushes drain the
// queue, and once it falls to `outbuf_low_water` the connection resumes.
// Frames already queued are never dropped or reordered — backpressure
// stalls producers, it does not touch the stream.
//
// Budgets bound per-round work so one hot connection cannot starve the
// rest of its event loop: a readiness callback reads at most
// `read_budget` bytes, stopping early at a short read, and the round's
// one flush writes at most `write_budget` bytes, then yields
// (level-triggered epoll re-reports the remainder).
//
// A length prefix above FrameBuffer::kMaxFrame refuses the inbound
// stream: a peer that announces a 4 GiB frame is lying or broken, and
// buffering toward it would let one header pin gigabytes.
//
// Threading: a Connection is owned by exactly one event loop and only
// ever touched from that loop's thread (or from the setup thread before
// the loop starts).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "transport/frame_buffer.hpp"
#include "transport/tcp_socket.hpp"

namespace tbr {

/// Per-connection buffer and budget knobs (SocketNetwork::Options::limits).
struct ConnLimits {
  /// Queued-outbuf bytes at which the connection parks (writer stalls).
  std::size_t outbuf_high_water = 1 << 20;
  /// Queued-outbuf bytes at which a parked connection resumes. Must be
  /// strictly below high water: the gap is the hysteresis that stops the
  /// runtime from flapping park/resume on every frame.
  std::size_t outbuf_low_water = 256 * 1024;
  /// Max bytes read from the socket per readiness round; a short read
  /// ends the round sooner.
  std::size_t read_budget = 256 * 1024;
  /// Max bytes written to the socket by the loop round's one flush.
  std::size_t write_budget = 256 * 1024;
  /// When nonzero, shrink every mesh socket's kernel buffers (SO_SNDBUF /
  /// SO_RCVBUF) to this many bytes. Loopback kernel buffers auto-tune into
  /// the megabytes, which can absorb a slow reader's entire backlog before
  /// the userspace outbuf ever crosses high water — backpressure tests set
  /// this small so the watermarks, not the kernel, bound the queue.
  int kernel_buffer_bytes = 0;

  void validate() const;
};

/// Syscalls an event loop made, by kind: a plain snapshot.
struct SyscallCounts {
  std::uint64_t reads = 0;         ///< socket read() calls
  std::uint64_t eagain_reads = 0;  ///< ... of which returned EAGAIN
  std::uint64_t sends = 0;         ///< socket send() calls
  std::uint64_t wake_writes = 0;   ///< wake-pipe write() calls
  std::uint64_t epoll_waits = 0;
  std::uint64_t epoll_ctls = 0;

  std::uint64_t total() const noexcept {
    return reads + sends + wake_writes + epoll_waits + epoll_ctls;
  }
  SyscallCounts& operator+=(const SyscallCounts& o) noexcept;
};

/// The live counters behind SyscallCounts, one set per event loop. The
/// loop thread is the only writer of each, so bump() is a relaxed load
/// and store, not a locked add. `wake_writes` is the exception: any
/// thread that submits to the loop adds to it with fetch_add.
struct SyscallCounters {
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> eagain_reads{0};
  std::atomic<std::uint64_t> sends{0};
  std::atomic<std::uint64_t> wake_writes{0};
  std::atomic<std::uint64_t> epoll_waits{0};
  std::atomic<std::uint64_t> epoll_ctls{0};

  static void bump(std::atomic<std::uint64_t>& c) noexcept {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  SyscallCounts snapshot() const noexcept;
};

class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  Connection(Connection&&) = default;
  Connection& operator=(Connection&&) = default;

  /// Apply `limits`; count this channel's reads and sends into
  /// `syscalls` when given.
  void configure(const ConnLimits& limits,
                 SyscallCounters* syscalls = nullptr) {
    limits_ = limits;
    syscalls_ = syscalls;
  }
  const ConnLimits& limits() const noexcept { return limits_; }

  /// Take ownership of a connected socket. Any previous channel state
  /// (buffers, park flag) is discarded — this is the rejoin fence.
  void adopt(OwnedFd fd);
  /// Tear the channel down: close the fd, drop both buffers, unpark.
  void close();
  bool alive() const noexcept { return fd_.valid(); }
  int fd() const noexcept { return fd_.get(); }

  // ---- send side -----------------------------------------------------------------

  /// Queue one encoded frame (length prefix added here). Returns true when
  /// this append crossed high water and parked the connection — the caller
  /// owns reacting (stalling its op admission).
  bool queue_frame(std::string_view encoded);

  struct FlushOutcome {
    IoStatus status = IoStatus::kOk;  ///< kClosed: peer gone, tear down
    bool resumed = false;             ///< crossed low water while parked
  };
  /// Write up to `write_budget` queued bytes: the event loop calls it once
  /// per round for each connection that queued frames, so a round's frames
  /// to one peer leave in one send. Never blocks; kWouldBlock is folded
  /// into kOk (wants_write() says whether EPOLLOUT is still needed).
  FlushOutcome flush();

  bool wants_write() const noexcept { return queued_bytes() > 0; }
  bool paused() const noexcept { return paused_; }
  std::size_t queued_bytes() const noexcept {
    return outbuf_.size() - out_pos_;
  }

  // ---- receive side --------------------------------------------------------------

  /// Read up to `read_budget` bytes into the inbound frame ring, stopping
  /// at the first short read (the socket is drained; level-triggered epoll
  /// reports whatever lands later). Returns kClosed on EOF/reset or once
  /// the stream is refused (frame_refused()), kOk otherwise.
  IoStatus read_budgeted();
  /// Peel the next complete inbound frame (see FrameBuffer::next_frame).
  bool next_frame(std::string_view& frame) { return inbuf_.next_frame(frame); }
  /// An inbound length prefix exceeded FrameBuffer::kMaxFrame: the
  /// channel is unusable and nothing more is read from it.
  bool frame_refused() const noexcept { return inbuf_.refused(); }
  /// Inbound bytes buffered but not yet consumed as frames.
  std::size_t inbuf_pending() const noexcept { return inbuf_.pending_bytes(); }

 private:
  void compact_out();

  OwnedFd fd_;
  FrameBuffer inbuf_;
  /// Outbound stream with a consumed-offset head, mirroring FrameBuffer's
  /// discipline: flushes advance out_pos_ and the sent prefix is folded
  /// out only when it outgrows half the block — O(bytes) amortized, and
  /// the storage is recycled.
  std::string outbuf_;
  std::size_t out_pos_ = 0;
  ConnLimits limits_;
  SyscallCounters* syscalls_ = nullptr;
  bool paused_ = false;
};

}  // namespace tbr
