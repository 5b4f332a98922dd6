#include "transport/socket_network.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#include "client/op_slot.hpp"
#include "common/contracts.hpp"
#include "transport/event_loop.hpp"
#include "transport/frame_buffer.hpp"
#include "transport/tcp_socket.hpp"

namespace tbr {

using Clock = std::chrono::steady_clock;

namespace {
/// epoll tag reserved for a loop's own wakeup pipe.
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0};
constexpr Status kValueTooLarge{StatusCode::kTooLarge,
                                "value does not fit in a frame"};
}  // namespace

// ---- Loop: one epoll event loop multiplexing a shard of the processes ----------
//
// Each loop owns an Epoller, a wakeup pipe and a typed command queue; the
// processes assigned to it (pid % loops) run all their handlers on its
// thread. Connections register a Watch once — interest
// changes are O(1) epoll_ctl calls against a cached armed-events mask,
// nothing is rebuilt per iteration (the poll(2) engine this replaces
// rebuilt and rescanned its whole pollfd array every wakeup).
//
// One round of run(), in order: wait; dispatch readiness; run queued
// commands; start admitted ops; flush once each connection that queued
// frames. Sends only frame into an outbuf and mark the connection dirty,
// so the replies a round's handlers send and the READs its new ops
// broadcast leave together, one send per peer. The wake pipe is written
// only while the loop sleeps in epoll_wait: an awake loop drains its
// queue every round anyway.

class SocketNetwork::Loop {
 public:
  /// One marshaled request for a node on this loop's thread. The hot case
  /// (kOp) is a plain pooled-OpState pointer — no promises, no shared
  /// state, nothing to allocate per op. The cold cases are fault plumbing:
  /// a crash marker, a fresh connection to adopt (rejoin re-meshing), a
  /// rebirth carrying the factory for the new incarnation, and the
  /// slow-reader fault hook.
  struct Command {
    enum class Kind { kOp, kCrash, kReattach, kRecover, kReadPause };
    Kind kind = Kind::kOp;
    Node* node = nullptr;
    OpState* op = nullptr;        // kOp
    ProcessId peer = kNoProcess;  // kReattach: whose channel this is
    OwnedFd fd;                   // kReattach: the new connection
    bool pause = false;           // kReadPause
  };

  Loop() {
    auto [rd, wr] = tcp::make_wakeup_pipe();
    wake_rd_ = std::move(rd);
    wake_wr_ = std::move(wr);
    epoll_.add(wake_rd_.get(), EPOLLIN, kWakeTag);
  }

  void adopt_node(Node* node) { nodes_.push_back(node); }

  /// Reserve a watch slot for (node, peer). Registration with the kernel
  /// happens at the first set_interest with a live fd.
  std::uint32_t register_watch(Node* node, ProcessId peer) {
    watches_.push_back(Watch{node, peer});
    return static_cast<std::uint32_t>(watches_.size() - 1);
  }

  /// Reconcile the kernel's interest set for a watch with `events`,
  /// issuing at most one epoll_ctl (none when nothing changed).
  void set_interest(std::uint32_t id, int fd, std::uint32_t events) {
    Watch& w = watches_[id];
    if (!w.registered) {
      epoll_.add(fd, events, id);
      SyscallCounters::bump(syscalls_.epoll_ctls);
      w.registered = true;
      w.fd = fd;
      w.armed = events;
      return;
    }
    TBR_ENSURE(w.fd == fd, "watch rebound without clear_interest");
    if (w.armed != events) {
      epoll_.mod(fd, events, id);
      SyscallCounters::bump(syscalls_.epoll_ctls);
      w.armed = events;
    }
  }

  /// The watch's fd is about to close (closing an epoll-registered fd
  /// deregisters it in the kernel); forget our cached registration.
  void clear_interest(std::uint32_t id) {
    Watch& w = watches_[id];
    w.registered = false;
    w.armed = 0;
    w.fd = -1;
  }

  bool submit(Command&& cmd) {
    {
      const std::scoped_lock lock(cmd_mu_);
      if (closed_) return false;
      commands_.push_back(std::move(cmd));
    }
    // Pairs with run()'s store before its queue check: a loop that read
    // the queue empty has already announced its sleep, so this load sees
    // it. An awake loop takes the command at its next round.
    if (sleeping_.load()) wake();
    return true;
  }

  void wake() {
    const char byte = 1;
    syscalls_.wake_writes.fetch_add(1, std::memory_order_relaxed);
    // A full pipe already guarantees a pending wakeup.
    (void)!::write(wake_wr_.get(), &byte, 1);
  }

  /// Queue the watch's connection for this round's flush (owning loop
  /// thread). Idempotent within a round.
  void mark_dirty(std::uint32_t id) {
    Watch& w = watches_[id];
    if (w.dirty) return;
    w.dirty = true;
    dirty_.push_back(id);
  }
  /// Marked for this round's flush, which also settles its interest.
  bool dirty(std::uint32_t id) const { return watches_[id].dirty; }
  /// A process unparked with an op waiting to start: make the next wait a
  /// poll, so the op starts without waiting for unrelated traffic.
  void repump() { repump_ = true; }

  SyscallCounters& syscalls() noexcept { return syscalls_; }
  const SyscallCounters& syscalls() const noexcept { return syscalls_; }

  void run(std::stop_token st);

 private:
  struct Watch {
    Node* node = nullptr;
    ProcessId peer = kNoProcess;
    int fd = -1;
    std::uint32_t armed = 0;
    bool registered = false;
    bool dirty = false;  ///< queued frames this round: in dirty_
  };
  /// Round step 1: whether the wait must not block. Called after
  /// sleeping_ is set, so a command that lands after the check wakes the
  /// loop through the pipe.
  bool must_poll();
  void run_commands();
  void flush_dirty();
  void fail_queued_commands();

  Epoller epoll_;
  OwnedFd wake_rd_, wake_wr_;
  std::vector<Node*> nodes_;  ///< the processes sharded onto this loop
  std::vector<Watch> watches_;
  std::vector<std::uint32_t> dirty_;  ///< watches to flush this round
  bool repump_ = false;
  SyscallCounters syscalls_;

  std::mutex cmd_mu_;
  std::vector<Command> commands_;
  std::vector<Command> cmd_batch_;  ///< recycled drain buffer (loop thread)
  bool closed_ = false;
  /// True from just before the loop checks its queue until epoll_wait
  /// returns; submit() writes the pipe only then.
  std::atomic<bool> sleeping_{false};
};

// ---- Node: one process, its connections, its handlers --------------------------

class SocketNetwork::Node final : public NetworkContext {
 public:
  Node(SocketNetwork& net, ProcessId pid,
       std::unique_ptr<RegisterProcessBase> proc)
      : net_(net), pid_(pid), proc_(std::move(proc)), peers_(net.cfg_.n),
        watch_ids_(net.cfg_.n, 0) {}

  // ---- NetworkContext (owning loop thread only) ---------------------------------
  void send(ProcessId to, const Message& msg) override {
    TBR_ENSURE(to < peers_.size() && to != pid_, "bad destination");
    if (crashed_) return;
    net_.record_send(msg.type, msg.wire);
    Connection& conn = peers_[to];
    if (!conn.alive()) {
      net_.record_drop();
      return;
    }
    // encode_into a reused scratch, then frame into the connection's
    // outbuf: no fresh string per send (the buffer-pool discipline of the
    // threaded runtime, ported to the socket path).
    proc_->codec().encode_into(msg, encode_scratch_);
    if (conn.queue_frame(encode_scratch_)) {
      park_events_.fetch_add(1, std::memory_order_relaxed);
      recompute_park();
    }
    const std::uint64_t queued = conn.queued_bytes();
    if (queued > peak_outbuf_.load(std::memory_order_relaxed)) {
      peak_outbuf_.store(queued, std::memory_order_relaxed);
    }
    // Frame only: the loop flushes the connection once, at the end of
    // this round, with whatever else the round queued to `to`.
    loop_->mark_dirty(watch_ids_[to]);
  }
  ProcessId self() const override { return pid_; }
  std::uint32_t process_count() const override { return net_.cfg_.n; }
  Tick now() const override { return net_.now(); }

  // ---- mesh setup (main thread, before the loops start) -------------------------
  std::uint16_t listen() {
    auto [fd, port] = tcp::listen_loopback(static_cast<int>(net_.cfg_.n));
    listener_ = std::move(fd);
    return port;
  }
  int listener_fd() const { return listener_.get(); }
  /// Main thread, only before start() or after stop() joins the loops.
  RegisterProcessBase& process_unlocked() noexcept { return *proc_; }

  void attach_loop(Loop* loop, const ConnLimits& limits) {
    loop_ = loop;
    limits_ = limits;
    loop->adopt_node(this);
    for (ProcessId p = 0; p < peers_.size(); ++p) {
      if (p == pid_) continue;
      peers_[p].configure(limits, &loop->syscalls());
      watch_ids_[p] = loop->register_watch(this, p);
    }
  }
  Loop& loop() noexcept { return *loop_; }

  void adopt_connection(ProcessId peer, OwnedFd fd) {
    TBR_ENSURE(peer < peers_.size() && !peers_[peer].alive(),
               "duplicate connection");
    peers_[peer].adopt(std::move(fd));
  }
  void apply_kernel_buffers(int fd) const {
    if (limits_.kernel_buffer_bytes > 0) {
      tcp::set_sndbuf(fd, limits_.kernel_buffer_bytes);
      tcp::set_rcvbuf(fd, limits_.kernel_buffer_bytes);
    }
  }

  void finish_setup() {
    listener_.reset();
    for (ProcessId p = 0; p < peers_.size(); ++p) {
      if (p == pid_) continue;
      TBR_ENSURE(peers_[p].alive(), "mesh incomplete");
      tcp::set_nonblocking(peers_[p].fd());
      tcp::set_nodelay(peers_[p].fd());
      apply_kernel_buffers(peers_[p].fd());
      update_interest(p);
    }
  }

  void on_loop_start() { proc_->on_start(*this); }

  // ---- observers (any thread) ---------------------------------------------------
  bool crashed() const {
    return crashed_flag_.load(std::memory_order_acquire);
  }
  bool parked() const { return parked_flag_.load(std::memory_order_acquire); }

  void accumulate(BackpressureStats& out) const {
    out.park_events += park_events_.load(std::memory_order_relaxed);
    out.resume_events += resume_events_.load(std::memory_order_relaxed);
    out.deferred_ops += deferred_admissions_.load(std::memory_order_relaxed);
    out.peak_outbuf_bytes = std::max(
        out.peak_outbuf_bytes, peak_outbuf_.load(std::memory_order_relaxed));
    if (parked()) ++out.parked_now;
    out.refused_frames += refused_frames_.load(std::memory_order_relaxed);
  }

  // ---- command handlers (owning loop thread) ------------------------------------

  /// A client operation reaching its owning loop thread. It waits here
  /// until pump_op() starts it: the RegisterClient's per-process chain
  /// issues one op per process at a time, so while this one is admitted
  /// or running, the chain holds the rest. A parked process leaves it
  /// waiting — this is where backpressure becomes a deterministic stall
  /// of the submission chain instead of an unbounded buffer.
  void admit(OpState& st) {
    if (crashed_) {
      st.owner->complete_failed(st, kProcessCrashed);
      return;
    }
    TBR_ENSURE(admitted_ == nullptr && !slot_.busy(),
               "per-process op overlap");
    if (park_active_) {
      deferred_admissions_.fetch_add(1, std::memory_order_relaxed);
    }
    admitted_ = &st;
  }

  /// Start the admitted op once the process is idle and unparked. Called
  /// at the top level of the loop iteration only — never from inside a
  /// protocol handler, so an op's first sends can't reenter the process
  /// mid-message.
  void pump_op() {
    if (admitted_ == nullptr || crashed_ || park_active_) return;
    slot_.start(*proc_, *this, *std::exchange(admitted_, nullptr));
  }

  /// Fail the op the node holds, started or admitted (a crash, or the
  /// loop's exit).
  void fail_ops(Status status) {
    slot_.fail(status);
    if (OpState* st = std::exchange(admitted_, nullptr)) {
      st->owner->complete_failed(*st, status);
    }
  }

  void handle_crash() {
    if (crashed_) return;
    crashed_ = true;
    crashed_flag_.store(true, std::memory_order_release);
    proc_->on_crash();
    // The model lets a faulty process's last operation evaporate (§2.2);
    // its client must still learn the outcome — fail it now, the algorithm
    // will never complete it.
    fail_ops(kProcessCrashed);
    // A crash kills the endpoint: sockets close, peers see dead channels.
    for (ProcessId p = 0; p < peers_.size(); ++p) {
      if (p != pid_) teardown_conn(p);
    }
    recompute_park();
  }

  void handle_reattach(ProcessId p, OwnedFd fd) {
    TBR_ENSURE(p < peers_.size() && p != pid_, "bad reattach peer");
    tcp::set_nonblocking(fd.get());
    tcp::set_nodelay(fd.get());
    apply_kernel_buffers(fd.get());
    // Replace whatever channel state is left: closing the old fd and
    // clearing both buffers is the fence — every byte of the dead
    // connection (unsent, unread, or half-framed) dies here.
    teardown_conn(p);
    peers_[p].adopt(std::move(fd));
    update_interest(p);
    recompute_park();
  }

  void handle_recover() {
    TBR_ENSURE(crashed_, "recover of a process that is not crashed");
    proc_ = net_.rejoin_(net_.cfg_, pid_);
    TBR_ENSURE(proc_ != nullptr, "recover factory returned null");
    crashed_ = false;
    crashed_flag_.store(false, std::memory_order_release);
    proc_->on_start(*this);  // a rejoiner broadcasts CATCHUP here
    // Frames that landed in an inbuf between reattach and rebirth were
    // parked by the crashed dispatch gate; hand them over now.
    for (ProcessId p = 0; p < peers_.size(); ++p) {
      if (p != pid_ && peers_[p].alive()) dispatch_frames(p);
    }
    recompute_park();
  }

  void handle_read_pause(bool paused) {
    if (read_paused_ == paused) return;
    read_paused_ = paused;
    for (ProcessId p = 0; p < peers_.size(); ++p) {
      if (p != pid_ && peers_[p].alive()) update_interest(p);
    }
  }

  /// Readiness on the channel to `p` (owning loop thread).
  void on_io(ProcessId p, std::uint32_t events) {
    Connection& conn = peers_[p];
    if (!conn.alive()) return;  // torn down earlier in this batch
    const bool hangup = (events & (EPOLLHUP | EPOLLERR)) != 0;
    if (((events & EPOLLIN) != 0 && !read_paused_) || hangup) {
      const IoStatus rs = conn.read_budgeted();
      dispatch_frames(p);
      if (crashed_) return;
      if (!conn.alive()) {  // a handler tore this channel down
        recompute_park();
        return;
      }
      if (rs == IoStatus::kClosed) {
        teardown_conn(p);
        recompute_park();
        return;
      }
    }
    // The kernel takes bytes again: the round's flush sends the backlog.
    if ((events & EPOLLOUT) != 0 && conn.wants_write()) {
      loop_->mark_dirty(watch_ids_[p]);
    }
    update_interest(p);
  }

  /// Round step 5 for the channel to `p`: its one flush of the round.
  void flush(ProcessId p) {
    Connection& conn = peers_[p];
    if (!conn.alive()) return;  // torn down after it queued
    const auto fo = conn.flush();
    if (fo.status == IoStatus::kClosed) {
      teardown_conn(p);
      recompute_park();
      return;
    }
    if (fo.resumed) {
      resume_events_.fetch_add(1, std::memory_order_relaxed);
      recompute_park();
    }
    update_interest(p);
  }

 private:
  void dispatch_frames(ProcessId p) {
    Connection& conn = peers_[p];
    // A handler can tear this very buffer down mid-loop (crash command, or
    // a send to p that discovers the socket closed), so re-check liveness
    // each iteration. The ring consumes each frame in O(frame): no
    // erase(0, pos) memmove of the whole remainder per drain.
    std::string_view frame;
    while (!crashed_ && conn.alive() && conn.next_frame(frame)) {
      // decode_into the loop's scratch Message: large payloads reuse its
      // value buffer instead of materializing a fresh string per frame.
      proc_->codec().decode_into(frame, inbound_);
      proc_->on_message(*this, p, inbound_);
    }
    if (conn.alive() && conn.frame_refused()) {
      // A length prefix above FrameBuffer::kMaxFrame, which no sender in
      // this program frames: nothing after it can be framed. Close this
      // channel alone; to this process the peer looks crashed, which the
      // model tolerates up to t.
      refused_frames_.fetch_add(1, std::memory_order_relaxed);
      teardown_conn(p);
    }
  }

  void teardown_conn(ProcessId p) {
    Connection& conn = peers_[p];
    if (!conn.alive()) return;
    loop_->clear_interest(watch_ids_[p]);
    conn.close();
  }

  void update_interest(ProcessId p) {
    Connection& conn = peers_[p];
    if (!conn.alive()) return;
    // A dirty channel's flush settles its interest: arming EPOLLOUT for
    // frames the flush is about to send would cost two epoll_ctl calls.
    if (loop_->dirty(watch_ids_[p])) return;
    std::uint32_t ev = 0;
    if (!read_paused_) ev |= EPOLLIN;
    if (conn.wants_write()) ev |= EPOLLOUT;
    loop_->set_interest(watch_ids_[p], conn.fd(), ev);
  }

  /// Recompute the park flag (any live outbound channel above high water)
  /// after a transition-capable event. O(n), but only on transitions —
  /// steady-state sends that stay inside the watermarks never call this.
  void recompute_park() {
    bool any = false;
    for (ProcessId p = 0; p < peers_.size(); ++p) {
      if (p == pid_) continue;
      if (peers_[p].alive() && peers_[p].paused()) {
        any = true;
        break;
      }
    }
    if (any != park_active_) {
      park_active_ = any;
      parked_flag_.store(any, std::memory_order_release);
      if (!any && admitted_ != nullptr) loop_->repump();
    }
  }

  SocketNetwork& net_;
  ProcessId pid_;
  std::unique_ptr<RegisterProcessBase> proc_;
  Loop* loop_ = nullptr;
  ConnLimits limits_;
  std::vector<Connection> peers_;
  std::vector<std::uint32_t> watch_ids_;  ///< per-peer epoll watch slots
  std::string encode_scratch_;  ///< reused wire buffer (loop thread only)
  Message inbound_;             ///< decode_into scratch (loop thread only)
  OwnedFd listener_;

  /// Client ops (loop thread only): the one admitted but not yet started
  /// (pump_op() starts it when idle and unparked), and the one in the
  /// protocol — resolved by its completion, or failed by a crash marker
  /// or the shutdown path, whichever comes first.
  OpState* admitted_ = nullptr;
  OpSlot slot_;

  bool crashed_ = false;                   // loop thread's view
  std::atomic<bool> crashed_flag_{false};  // external observers
  bool read_paused_ = false;               // slow-reader fault hook
  bool park_active_ = false;               // loop thread's view
  std::atomic<bool> parked_flag_{false};   // external observers

  std::atomic<std::uint64_t> park_events_{0};
  std::atomic<std::uint64_t> resume_events_{0};
  std::atomic<std::uint64_t> deferred_admissions_{0};
  std::atomic<std::uint64_t> peak_outbuf_{0};
  std::atomic<std::uint64_t> refused_frames_{0};
};

// ---- Loop methods needing the complete Node type -------------------------------

bool SocketNetwork::Loop::must_poll() {
  if (std::exchange(repump_, false)) return true;
  const std::scoped_lock lock(cmd_mu_);
  return !commands_.empty();
}

void SocketNetwork::Loop::run_commands() {
  // Swap the queue against the recycled batch buffer: both vectors keep
  // their high-water capacity, so steady-state command marshaling never
  // allocates.
  cmd_batch_.clear();
  {
    const std::scoped_lock lock(cmd_mu_);
    cmd_batch_.swap(commands_);
  }
  for (Command& cmd : cmd_batch_) {
    switch (cmd.kind) {
      case Command::Kind::kOp:
        cmd.node->admit(*cmd.op);
        break;
      case Command::Kind::kCrash:
        cmd.node->handle_crash();
        break;
      case Command::Kind::kReattach:
        cmd.node->handle_reattach(cmd.peer, std::move(cmd.fd));
        break;
      case Command::Kind::kRecover:
        cmd.node->handle_recover();
        break;
      case Command::Kind::kReadPause:
        cmd.node->handle_read_pause(cmd.pause);
        break;
    }
  }
}

void SocketNetwork::Loop::flush_dirty() {
  // A flush only writes and tears down: it runs no handler, so nothing
  // marks a connection dirty while this walks the list.
  for (const std::uint32_t id : dirty_) {
    Watch& w = watches_[id];
    w.dirty = false;
    w.node->flush(w.peer);
  }
  dirty_.clear();
}

void SocketNetwork::Loop::fail_queued_commands() {
  std::vector<Command> rest;
  {
    const std::scoped_lock lock(cmd_mu_);
    closed_ = true;
    rest.swap(commands_);
  }
  for (const Command& cmd : rest) {
    if (cmd.op != nullptr) {
      cmd.op->owner->complete_failed(*cmd.op, kEngineShutdown);
    }
  }
}

void SocketNetwork::Loop::run(std::stop_token st) {
  for (Node* node : nodes_) node->on_loop_start();
  flush_dirty();
  while (!st.stop_requested()) {
    // 1. Wait. Announce the sleep, then check the queue: a command queued
    // before the check makes this wait a poll, and one queued after it
    // sees sleeping_ and writes the pipe.
    sleeping_.store(true);
    const auto events = epoll_.wait(must_poll() ? 0 : -1);
    sleeping_.store(false, std::memory_order_relaxed);
    SyscallCounters::bump(syscalls_.epoll_waits);
    // 2. Dispatch readiness.
    for (const epoll_event& ev : events) {
      const std::uint64_t tag = ev.data.u64;
      if (tag == kWakeTag) {
        tcp::drain_pipe(wake_rd_.get());
        continue;
      }
      const Watch& w = watches_[tag];
      if (!w.registered) continue;  // torn down earlier in this batch
      w.node->on_io(w.peer, ev.events);
    }
    // 3. Commands, every round: an op that a completion above chained onto
    // its process is admitted now, without touching the pipe.
    run_commands();
    // 4. Start admitted client ops only here, never from inside a protocol
    // handler (sequential-process guarantee), and only after backpressure
    // state has settled for this batch.
    for (Node* node : nodes_) node->pump_op();
    // 5. One flush per connection that queued frames this round.
    flush_dirty();
  }
  // Loop exit: fail everything accepted, then everything still queued;
  // later submissions bounce at submit().
  for (Node* node : nodes_) node->fail_ops(kEngineShutdown);
  fail_queued_commands();
}

// ---- SocketNetwork ------------------------------------------------------------------

SocketNetwork::SocketNetwork(Options options)
    : cfg_(options.cfg),
      opt_(std::move(options)),
      rejoin_(rejoin_factory(opt_)),
      epoch_(Clock::now()) {
  cfg_.validate();
  opt_.limits.validate();
  TBR_ENSURE(cfg_.n >= 2, "a socket mesh needs at least two processes");
  nodes_.reserve(cfg_.n);
  for (ProcessId pid = 0; pid < cfg_.n; ++pid) {
    nodes_.push_back(
        std::make_unique<Node>(*this, pid, make_group_process(opt_, pid)));
  }
  // Every frame that carries a value must fit a peer's FrameBuffer.
  max_value_bytes_ =
      FrameBuffer::kMaxFrame -
      nodes_[0]->process_unlocked().codec().value_frame_overhead();
  TBR_ENSURE(cfg_.initial.size() <= max_value_bytes_,
             "initial value does not fit in a frame");
  const auto hw = std::max(1u, std::thread::hardware_concurrency());
  std::uint32_t count =
      opt_.loops == 0 ? std::min<std::uint32_t>(cfg_.n, hw) : opt_.loops;
  count = std::clamp<std::uint32_t>(count, 1, cfg_.n);
  loops_.reserve(count);
  for (std::uint32_t l = 0; l < count; ++l) {
    loops_.push_back(std::make_unique<Loop>());
  }
  // Shard processes onto loops: pid % loops. Every connection of a
  // process lives on its owner's loop — the mesh-topology analogue of
  // sharded accept (a channel is "accepted onto" exactly one loop).
  for (ProcessId pid = 0; pid < cfg_.n; ++pid) {
    nodes_[pid]->attach_loop(loops_[pid % count].get(), opt_.limits);
  }
}

SocketNetwork::~SocketNetwork() { stop(); }

Tick SocketNetwork::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::uint32_t SocketNetwork::loop_count() const noexcept {
  return static_cast<std::uint32_t>(loops_.size());
}

void SocketNetwork::start() {
  TBR_ENSURE(!stopped_, "network cannot be restarted");
  if (started_) return;
  started_ = true;

  // Deterministic mesh handshake, one pair at a time: j dials i, announces
  // itself, i accepts. Loopback makes the dial/accept alternation safe.
  std::vector<std::uint16_t> ports(cfg_.n);
  for (ProcessId pid = 0; pid < cfg_.n; ++pid) {
    ports[pid] = nodes_[pid]->listen();
  }
  for (ProcessId i = 0; i < cfg_.n; ++i) {
    for (ProcessId j = i + 1; j < cfg_.n; ++j) {
      OwnedFd dialer = tcp::connect_loopback(ports[i]);
      const std::uint32_t hello = j;
      tcp::write_all_blocking(dialer.get(),
                              reinterpret_cast<const char*>(&hello),
                              sizeof(hello));
      OwnedFd accepted = tcp::accept_blocking(nodes_[i]->listener_fd());
      const std::string got =
          tcp::read_exact_blocking(accepted.get(), sizeof(std::uint32_t));
      std::uint32_t announced = 0;
      std::memcpy(&announced, got.data(), sizeof(announced));
      TBR_ENSURE(announced == j, "mesh handshake out of order");
      nodes_[i]->adopt_connection(j, std::move(accepted));
      nodes_[j]->adopt_connection(i, std::move(dialer));
    }
  }
  // Registers every fd with its owning loop's epoll — from this thread,
  // before the loop threads exist (thread creation orders the memory).
  for (ProcessId pid = 0; pid < cfg_.n; ++pid) nodes_[pid]->finish_setup();

  threads_.reserve(loops_.size());
  for (auto& loop : loops_) {
    threads_.emplace_back(
        [l = loop.get()](std::stop_token st) { l->run(st); });
  }
}

void SocketNetwork::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& thread : threads_) thread.request_stop();
  for (auto& loop : loops_) loop->wake();
  threads_.clear();  // jthread joins on destruction
  // Loop threads are joined: process state is safe to read. Record the
  // final local-memory gauge next to the wire tallies.
  std::uint64_t peak = 0;
  for (auto& node : nodes_) {
    peak = std::max(peak, node->process_unlocked().local_memory_bytes());
  }
  const std::scoped_lock lock(stats_mu_);
  stats_.record_local_memory(peak);
}

void SocketNetwork::crash(ProcessId pid) {
  TBR_ENSURE(pid < cfg_.n, "pid out of range");
  Loop::Command cmd;
  cmd.kind = Loop::Command::Kind::kCrash;
  cmd.node = nodes_[pid].get();
  nodes_[pid]->loop().submit(std::move(cmd));
}

void SocketNetwork::recover(ProcessId pid) {
  TBR_ENSURE(pid < cfg_.n, "pid out of range");
  TBR_ENSURE(started_ && !stopped_, "recover needs a running network");
  TBR_ENSURE(crashed(pid), "recover of a process that is not crashed");
  TBR_ENSURE(rejoin_ != nullptr, "recover needs Options::recover_factory");
  // Re-mesh: a brand-new TCP connection per live peer. The rejoiner adopts
  // its ends first (FIFO per loop command queue), so they are in place
  // before the recover command runs on_start (which broadcasts CATCHUP on
  // them).
  for (ProcessId q = 0; q < cfg_.n; ++q) {
    if (q == pid || nodes_[q]->crashed()) continue;
    auto [mine, theirs] = tcp::make_loopback_pair();
    Loop::Command to_self;
    to_self.kind = Loop::Command::Kind::kReattach;
    to_self.node = nodes_[pid].get();
    to_self.peer = q;
    to_self.fd = std::move(mine);
    nodes_[pid]->loop().submit(std::move(to_self));
    Loop::Command to_peer;
    to_peer.kind = Loop::Command::Kind::kReattach;
    to_peer.node = nodes_[q].get();
    to_peer.peer = pid;
    to_peer.fd = std::move(theirs);
    nodes_[q]->loop().submit(std::move(to_peer));
  }
  Loop::Command reborn;
  reborn.kind = Loop::Command::Kind::kRecover;
  reborn.node = nodes_[pid].get();
  nodes_[pid]->loop().submit(std::move(reborn));
}

// Client issue: a Command carrying the OpState pointer goes to the owning
// node's loop thread, whose crash and shutdown paths fail every accepted op.

void SocketNetwork::client_issue(OpState& st) {
  TBR_ENSURE(started_, "start() the network first");
  // Peers would refuse its frames and close their channels to the writer:
  // refuse the write before any frame exists.
  if (st.kind == OpKind::kWrite && st.value.size() > max_value_bytes_) {
    st.owner->complete_failed(st, kValueTooLarge);
    return;
  }
  Node* node = nodes_[st.node].get();
  Loop::Command cmd;
  cmd.node = node;
  cmd.op = &st;
  if (!node->loop().submit(std::move(cmd))) {
    st.owner->complete_failed(st, kEngineShutdown);
  }
}

bool SocketNetwork::crashed(ProcessId pid) const {
  TBR_ENSURE(pid < cfg_.n, "pid out of range");
  return nodes_[pid]->crashed();
}

bool SocketNetwork::parked(ProcessId pid) const {
  TBR_ENSURE(pid < cfg_.n, "pid out of range");
  return nodes_[pid]->parked();
}

SocketNetwork::BackpressureStats SocketNetwork::backpressure_snapshot()
    const {
  BackpressureStats out;
  for (const auto& node : nodes_) node->accumulate(out);
  for (const auto& loop : loops_) out.syscalls += loop->syscalls().snapshot();
  return out;
}

void SocketNetwork::set_read_paused(ProcessId pid, bool paused) {
  TBR_ENSURE(pid < cfg_.n, "pid out of range");
  Loop::Command cmd;
  cmd.kind = Loop::Command::Kind::kReadPause;
  cmd.node = nodes_[pid].get();
  cmd.pause = paused;
  nodes_[pid]->loop().submit(std::move(cmd));
}

MessageStats SocketNetwork::stats_snapshot() const {
  const std::scoped_lock lock(stats_mu_);
  return stats_;
}

void SocketNetwork::record_send(std::uint8_t type,
                                const WireAccounting& wire) {
  const std::scoped_lock lock(stats_mu_);
  stats_.record_send(type, wire);
}

void SocketNetwork::record_drop() {
  const std::scoped_lock lock(stats_mu_);
  stats_.record_drop();
}

}  // namespace tbr
