// NetworkContext: a process's handle onto whichever runtime hosts it.
//
// Both runtimes (discrete-event simulator and real-thread network) implement
// this interface, so every algorithm is written exactly once.
#pragma once

#include "common/ids.hpp"
#include "net/message.hpp"

namespace tbr {

class NetworkContext {
 public:
  virtual ~NetworkContext() = default;
  NetworkContext() = default;
  NetworkContext(const NetworkContext&) = delete;
  NetworkContext& operator=(const NetworkContext&) = delete;

  /// Asynchronously send `msg` to process `to` over a reliable, non-FIFO
  /// channel (the CAMP model's channels). Self-sends are a contract error:
  /// none of the implemented algorithms ever sends to itself.
  virtual void send(ProcessId to, const Message& msg) = 0;

  /// This process's id.
  virtual ProcessId self() const = 0;

  /// Number of processes n in the group.
  virtual std::uint32_t process_count() const = 0;

  /// Current time in ticks (virtual for the simulator, monotonic-real for
  /// the threaded runtime). Algorithms never branch on it; operation latency
  /// measurement does.
  virtual Tick now() const = 0;

  /// Invalidate every frame this process has already sent to `to` that is
  /// still undelivered. Models the transport fact that a connection does
  /// not survive its endpoints: when a peer announces it rebooted (CatchUp),
  /// frames we sent to it earlier belong to a dead connection and must not
  /// arrive after our reset-era frames. FIFO transports (TCP sockets) get
  /// this for free and keep the no-op default; the delay-reordering
  /// runtimes (simulator, threaded, model checker) override it.
  virtual void fence_peer(ProcessId to) { (void)to; }
};

}  // namespace tbr
