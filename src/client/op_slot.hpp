// OpSlot: the one lifecycle of a client op at a register host.
//
// Every register engine (SimRegisterGroup, ThreadNetwork, SocketNetwork)
// runs processes that admit one client op at a time and owe its client
// exactly one outcome. start() stamps the pooled OpState and hands it to
// the protocol with a completion capturing {slot, &ctx} (std::function's
// inline storage: nothing allocates); that completion finishes the op
// with its result and latency. Crash and shutdown paths call fail()
// instead: the model lets a crashed process's last operation vanish
// (§2.2), but not its client's answer. Only the thread running the
// process's handlers touches its slot.
#pragma once

#include <utility>

#include "client/client.hpp"

namespace tbr {

/// The outcomes a register host reports for an op its process will never
/// finish: the process crashed, or the engine stopped.
inline constexpr Status kProcessCrashed{StatusCode::kCrashed,
                                        "process has crashed"};
inline constexpr Status kEngineShutdown{StatusCode::kShutdown,
                                        "network is shut down"};

/// Hand a protocol-completed op back to its client: stamp its latency in
/// `ctx`'s clock (op.start was stamped from the same clock at issue).
/// OpSlot and the kv mux's batch steps both finish ops here.
inline void complete_op(OpState& op, const NetworkContext& ctx) {
  op.result.latency = ctx.now() - op.start;
  op.owner->complete(op);
}

class OpSlot {
 public:
  /// Start `op` on `proc` (which runs in `ctx`). The slot must be idle:
  /// the client's per-process chain issues one op per process at a time.
  void start(RegisterProcessBase& proc, NetworkContext& ctx, OpState& op) {
    TBR_ENSURE(op_ == nullptr, "per-process op overlap");
    op.start = ctx.now();
    op_ = &op;
    if (op.kind == OpKind::kWrite) {
      proc.start_write(ctx, std::move(op.value),
                       [this, &ctx] { complete_op(take(), ctx); });
    } else {
      proc.start_read(ctx, [this, &ctx](const Value& v, SeqNo index) {
        OpState& done = take();
        done.result.value = v;  // copy into the pooled capacity
        done.result.version = index;
        complete_op(done, ctx);
      });
    }
  }

  /// Fail the op in flight, if any (kProcessCrashed, kEngineShutdown).
  /// The protocol never completes it afterwards: a crashed process
  /// handles nothing more, and a rejoin replaces it.
  void fail(Status status) {
    if (op_ == nullptr) return;
    OpState& op = take();
    op.owner->complete_failed(op, status);
  }

  bool busy() const noexcept { return op_ != nullptr; }

 private:
  /// Empty the slot before completing: the completion may issue the
  /// process's next op, which starts on this same slot.
  OpState& take() { return *std::exchange(op_, nullptr); }

  OpState* op_ = nullptr;
};

}  // namespace tbr
