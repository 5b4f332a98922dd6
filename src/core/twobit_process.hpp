// TwoBitProcess: the paper's Figure 1, one process's worth.
//
// Line-by-line mapping (paper line -> code):
//   init            constructor
//   write  1-4      start_write / pending-write completion in check_pending_ops
//   read   5-10     start_read  / two-stage completion in check_pending_ops
//   WRITE  11-18    on_write (line 11's wait = per-sender parking slot)
//   READ   19-21    on_read  (line 20's wait = per-reader parked (sn) queue)
//   PROCEED 22      on_proceed
//
// The paper's `wait` statements never block the process: the waited-on work
// is parked and re-examined after every state change (after_state_change).
//
// History lives in a BoundedHistoryLog (core/history_log.hpp), which packs
// each segment's payloads into one byte buffer and hands entries out as
// string_views. Its segments hold 2 entries where the log keeps a few
// (bounded_history, where GC leaves one or two live, and the window
// ablation) and 256 otherwise (faithful logs, rejoiners), where the log
// keeps what it appends. WRITE and CHECKPOINT frames copy the entry into
// the Value of out_, a recycled frame, and a completing read copies it
// into read_value_: one buffer each per process, whose capacity
// steady-state sends and reads reuse. Parked READs wait in one vector per
// reader, which stays unallocated until a READ from that reader parks.
// Faithful mode never moves the log's base, reproducing the paper's
// unbounded history. The bounded-memory extension (opt-in) adds:
//   - known(j) = the prefix j provably stores; min over j (clamped by a
//     pending read's freshness index) is the GC watermark the checkpoint
//     advances to, reclaiming superseded entries. On a confirmed channel
//     known(j) is w_sync[j]: the two-bit ping-pong already raises it to
//     every value j holds, so steady-state GC sends no extra frame and
//     every frame keeps its 2 control bits;
//   - crash-rejoin (recover_via_catchup): a restarted process broadcasts
//     CATCHUP, peers reset their channel to it and answer CHECKPOINT
//     (head index + value); the rejoiner adopts the largest checkpoint it
//     receives and resumes from there instead of replaying from genesis.
//     Its ACK frames (feeding acked_[j]) close that handshake: one
//     broadcast when it goes live, and one reply to each CHECKPOINT
//     smaller than what it already holds;
//   - Rule-R2 catch-ups whose value was reclaimed are *skipped*, soundly.
//     Only a channel a rejoin reset can need one: there the peer's ACK may
//     vouch for a prefix beyond w_sync[j], or an adopted checkpoint may
//     skip past a laggard that a peer retaining the value serves instead.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/history_log.hpp"
#include "core/twobit_codec.hpp"
#include "net/register_process.hpp"

namespace tbr {

struct TwoBitOptions {
  /// 0 = faithful algorithm (unbounded history, as the paper requires).
  /// m >= 1 retains only the last m history entries — the ablation for the
  /// paper's concluding open problem ("can local memory be bounded?").
  /// Rule R2 catch-ups that would need an evicted value are skipped, so
  /// safety is preserved but a process lagging more than m values behind
  /// stalls forever: Lemma 9's liveness fails exactly where the authors
  /// conjecture it must. Never enable in production use.
  std::size_t history_window = 0;

  /// Bounded history done right: known-prefix GC. Processes advance their
  /// checkpoint to the minimum prefix every peer provably stores (w_sync on
  /// a confirmed channel), so resident history is O(lag), liveness is
  /// untouched (nobody ever needs a reclaimed value), memory stays flat for
  /// arbitrarily long workloads, and the frames sent are exactly the
  /// faithful protocol's. Mutually exclusive with history_window.
  bool bounded_history = false;

  /// Crash-rejoin: this process is a fresh incarnation of a crashed one.
  /// On start it broadcasts CATCHUP and bootstraps from the largest peer
  /// CHECKPOINT instead of genesis. Client operations issued before the
  /// first checkpoint arrives are deferred, not refused. The single writer
  /// must not rejoin this way (needs a write-quorum handshake we don't
  /// implement); asserted in the constructor.
  bool recover_via_catchup = false;

  /// ABLATION: drop Fig. 1 line 9 (the read's second quorum wait). Claim 2
  /// survives (its proof only needs lines 7/20 + Lemma 2) but Claim 3 loses
  /// its quorum Q_ri: new/old inversions (C3) become possible. Never enable
  /// in production use.
  bool skip_read_second_wait = false;

  /// ABLATION: drop Fig. 1 line 20 (the responder's freshness wait) and
  /// PROCEED immediately, as an ABD-style "answer by return" would
  /// (footnote 3 of the paper). Readers can then return values older than a
  /// completed write: stale reads (C2). Never enable in production use.
  bool eager_proceed = false;
};

class TwoBitProcess final : public RegisterProcessBase {
 public:
  TwoBitProcess(GroupConfig cfg, ProcessId self,
                TwoBitOptions options = TwoBitOptions());

  // ---- RegisterProcessBase -----------------------------------------------
  void on_start(NetworkContext& net) override;
  void start_write(NetworkContext& net, Value v, WriteDone done) override;
  void start_read(NetworkContext& net, ReadDone done) override;
  void on_message(NetworkContext& net, ProcessId from,
                  const Message& msg) override;
  void on_crash() override;
  std::uint64_t local_memory_bytes() const override;
  const Codec& codec() const override { return twobit_codec(); }

  /// Itemised live state, the quantity Table 1 line 4 compares (and the
  /// quantity the bounded mode keeps flat). total == local_memory_bytes().
  struct MemoryFootprint {
    std::uint64_t history_bytes = 0;     // retained entries + payloads
    std::uint64_t checkpoint_bytes = 0;  // the checkpoint record itself
    std::uint64_t sync_bytes = 0;        // w_sync / r_sync / acked rows
    std::uint64_t parked_bytes = 0;      // parked writes/reads
    std::uint64_t total = 0;
    std::size_t retained_entries = 0;    // history entries currently resident
  };
  MemoryFootprint memory_footprint() const;

  // ---- introspection (invariant observers, tests, benches) ----------------
  /// w_sync_i[j]: to this process's knowledge, j knows history[0..w_sync(j)].
  SeqNo wsync(ProcessId j) const;
  /// r_sync_i[j]: how many of our READ requests j has answered.
  SeqNo rsync(ProcessId j) const;
  /// acked_i[j]: largest prefix rejoiner j has ACKed in its handshake.
  SeqNo acked(ProcessId j) const;
  /// The prefix j provably stores: max(w_sync[j], acked[j]) on a confirmed
  /// channel (just w_sync[j] unless j rejoined), acked[j] alone on a
  /// channel reset by a rejoin and not yet re-confirmed by traffic from j.
  SeqNo known(ProcessId j) const;
  /// Copy of the retained history entries; element k is history index
  /// history_base() + k. With history_window = 0 and bounded_history off
  /// (the algorithm as published) the base is always 0 and this is the
  /// full prefix.
  std::vector<Value> history() const;
  /// history_i[idx] for a retained idx, in place: the view stays valid
  /// until this process next changes its history.
  std::string_view history_entry(SeqNo idx) const;
  /// Smallest retained history index == the checkpoint index (0 unless a
  /// window evicted or the GC advanced the checkpoint).
  SeqNo history_base() const noexcept { return log_.base(); }
  /// Largest retained history index, kept equal to w_sync_i[i].
  SeqNo history_head() const noexcept { return log_.head(); }
  /// Number of entries dropped by the window ablation (0 when faithful).
  std::uint64_t evicted_count() const noexcept { return evicted_; }
  /// Number of entries reclaimed by known-prefix GC (bounded mode).
  std::uint64_t gc_reclaimed_count() const noexcept { return gc_reclaimed_; }
  /// Number of Rule-R2 catch-ups skipped because the value was evicted.
  std::uint64_t skipped_catchups() const noexcept { return skipped_catchups_; }
  /// Number of Rule-R2 catch-ups skipped because the value was superseded
  /// by a checkpoint (these are *not* liveness losses). Always 0 unless a
  /// rejoin reset one of this process's channels.
  std::uint64_t superseded_sends() const noexcept { return superseded_sends_; }
  std::uint64_t checkpoints_served() const noexcept {
    return checkpoints_served_;
  }
  std::uint64_t checkpoints_adopted() const noexcept {
    return checkpoints_adopted_;
  }
  /// Number of WRITE frames this process has sent to j (Lemma 5's counter).
  SeqNo write_frames_sent_to(ProcessId j) const;
  bool has_parked_write(ProcessId from) const;
  std::size_t parked_read_count() const;
  bool crashed() const noexcept { return crashed_; }
  /// True for a recover_via_catchup incarnation (invariant observers relax
  /// cross-process lemmas for channels touching a rejoined process).
  bool has_recovered() const noexcept { return options_.recover_via_catchup; }
  /// True while a rejoiner is still waiting for its first checkpoint.
  bool recovering() const noexcept { return recovering_; }

 private:
  struct ParkedWrite {
    std::uint8_t parity = 0;
    Value value;
  };
  struct PendingWrite {
    SeqNo wsn = 0;
    WriteDone done;
  };
  /// Line 20's wait for one reader: the freshness points of its parked
  /// READs, released front-first. A plain vector, so a reader that never
  /// parks costs no heap; it is cleared when drained, and a push into a
  /// full vector first drops the released prefix.
  class ParkedReads {
   public:
    bool empty() const noexcept { return head_ == sn_.size(); }
    std::size_t size() const noexcept { return sn_.size() - head_; }
    SeqNo front() const { return sn_[head_]; }
    SeqNo back() const { return sn_.back(); }
    void push(SeqNo sn) {
      if (head_ > 0 && sn_.size() == sn_.capacity()) {
        sn_.erase(sn_.begin(),
                  sn_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
      sn_.push_back(sn);
    }
    void pop() {
      if (++head_ == sn_.size()) clear();
    }
    void clear() noexcept {
      sn_.clear();
      head_ = 0;
    }

   private:
    std::vector<SeqNo> sn_;
    std::size_t head_ = 0;  // first point not yet released
  };
  enum class ReadStage { kDeferred, kAwaitProceeds, kAwaitWsync };
  struct PendingRead {
    SeqNo rsn = 0;
    ReadStage stage = ReadStage::kAwaitProceeds;
    SeqNo sn = -1;  // captured at line 8 when stage 1 completes
    ReadDone done;
  };

  // Fig. 1 handlers.
  void on_write(NetworkContext& net, ProcessId from, std::uint8_t parity,
                const Value& v);
  void process_write(NetworkContext& net, ProcessId from, std::uint8_t parity,
                     const Value& v);  // lines 12-18
  void on_read(NetworkContext& net, ProcessId from);     // lines 19-21
  void on_proceed(NetworkContext& net, ProcessId from);  // line 22

  // Bounded-memory extension handlers.
  void on_ack(NetworkContext& net, ProcessId from, SeqNo upto);
  void on_catchup(NetworkContext& net, ProcessId from);
  void on_checkpoint(NetworkContext& net, ProcessId from, SeqNo index,
                     const Value& v);
  void issue_read_round(NetworkContext& net);  // lines 5-6 send phase
  void maybe_gc();
  /// History may start above a peer's position on a channel: GC advances
  /// the checkpoint (bounded mode) or a rejoin adopts one.
  bool checkpointing() const {
    return options_.bounded_history || options_.recover_via_catchup;
  }

  /// Re-examine everything the paper `wait`s on. Runs to fixpoint.
  void after_state_change(NetworkContext& net);
  bool drain_parked_writes(NetworkContext& net);
  bool drain_parked_reads(NetworkContext& net);
  bool check_pending_ops(NetworkContext& net);

  void send_write_frame(NetworkContext& net, ProcessId to, SeqNo index);
  void send_control_frame(NetworkContext& net, ProcessId to, TwoBitType type);
  void send_index_frame(NetworkContext& net, ProcessId to, TwoBitType type,
                        SeqNo index);
  std::uint32_t count_known_ge(SeqNo v) const;
  std::uint32_t count_rsync_eq(SeqNo v) const;

  /// history_i[head+1] <- v; appends evict under the window option.
  void append_history(std::string_view v);
  bool history_has(SeqNo idx) const;
  /// Hand history[sn] to a completing read's caller through read_value_.
  void return_read(const ReadDone& done, SeqNo sn);

  TwoBitOptions options_;

  // Fig. 1 local state. The log retains indices [base, head]; the base
  // stays 0 unless the window ablation evicts or bounded-mode GC advances
  // the checkpoint.
  BoundedHistoryLog log_;
  std::uint64_t evicted_ = 0;
  std::uint64_t gc_reclaimed_ = 0;
  std::uint64_t skipped_catchups_ = 0;
  std::uint64_t superseded_sends_ = 0;
  std::uint64_t checkpoints_served_ = 0;
  std::uint64_t checkpoints_adopted_ = 0;
  std::vector<SeqNo> w_sync_;    // w_sync_i[1..n] (0-based here)
  std::vector<SeqNo> r_sync_;    // r_sync_i[1..n]

  // Bounded-memory extension state.
  std::vector<SeqNo> acked_;            // largest prefix j explicitly ACKed
  std::vector<std::uint8_t> wsync_confirmed_;  // channel trust (see known())
  std::vector<std::uint8_t> channel_ready_;    // rejoin: checkpoint received
  std::vector<std::uint32_t> deferred_reads_;  // READs parked while recovering
  bool recovering_ = false;
  std::uint32_t checkpoint_responses_ = 0;  // distinct peers that answered

  // `wait` translations.
  std::vector<std::optional<ParkedWrite>> parked_write_;  // line 11, per sender
  std::vector<ParkedReads> parked_reads_;                 // line 20, per reader
  std::optional<PendingWrite> pending_write_;             // line 3
  std::optional<PendingRead> pending_read_;               // lines 7/9

  // Recycled buffers that keep their capacity from one use to the next:
  // the runtime copies a frame on send, and a read's callback sees
  // read_value_ only for the duration of the call (return_read).
  Message out_;       // outbound WRITE/ACK/CHECKPOINT frame
  Value read_value_;  // the value a completing read returns

  // Diagnostics (not part of the algorithm).
  std::vector<SeqNo> write_frames_sent_;  // per destination
  bool crashed_ = false;
  bool in_after_state_change_ = false;
};

/// Factory with the RegisterProcessBase signature used by group builders.
std::unique_ptr<RegisterProcessBase> make_twobit_process(GroupConfig cfg,
                                                         ProcessId self);

}  // namespace tbr
