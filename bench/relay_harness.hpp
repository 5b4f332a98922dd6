// Shared relay-ring harness for the allocation gates.
//
// A ring of processes, each delivery triggering exactly one onward send —
// the engine's inner loop (pop event, deliver, handler sends, schedule)
// with no client-op machinery. msg.seq counts remaining hops.
//
// Used by the delivery-loop gates in tests/alloc_regression_test.cpp (the
// exact ==0 CTest criteria).
#pragma once

#include <memory>
#include <vector>

#include "sim/sim_network.hpp"

namespace tbr::bench {

class RelayProcess final : public ProcessBase {
 public:
  explicit RelayProcess(std::size_t payload_bytes) {
    if (payload_bytes > 0) {
      template_.has_value = true;
      template_.value = Value::filler(payload_bytes);
    }
  }

  void on_message(NetworkContext& net, ProcessId /*from*/,
                  const Message& msg) override {
    if (msg.seq == 0) return;
    template_.seq = msg.seq - 1;
    net.send((net.self() + 1) % net.process_count(), template_);
  }

 private:
  Message template_;
};

inline std::vector<std::unique_ptr<ProcessBase>> make_relays(
    std::uint32_t n, std::size_t payload_bytes) {
  std::vector<std::unique_ptr<ProcessBase>> procs;
  for (std::uint32_t i = 0; i < n; ++i) {
    procs.push_back(std::make_unique<RelayProcess>(payload_bytes));
  }
  return procs;
}

/// Schedule a client event that injects a `hops`-hop relay into the ring.
inline void kick_relay(SimNetwork& net, SeqNo hops) {
  net.schedule_at(net.now(), [&net, hops] {
    Message msg;
    msg.seq = hops;
    net.context(1).send(0, msg);
  });
}

}  // namespace tbr::bench
