#include "core/twobit_process.hpp"

#include <algorithm>
#include <utility>

namespace tbr {

TwoBitProcess::TwoBitProcess(GroupConfig cfg, ProcessId self,
                             TwoBitOptions options)
    : RegisterProcessBase(std::move(cfg), self),
      options_(options),
      log_(cfg_.initial.bytes(),              // history_i[0] <- v0
           options_.bounded_history || options_.history_window > 0
               ? BoundedHistoryLog::kGcSegmentSlots
               : BoundedHistoryLog::kFullSegmentSlots),
      w_sync_(cfg_.n, 0),                     // w_sync_i[1..n] <- [0..0]
      r_sync_(cfg_.n, 0),                     // r_sync_i[1..n] <- [0..0]
      acked_(cfg_.n, 0),
      wsync_confirmed_(cfg_.n, 1),
      channel_ready_(cfg_.n, 1),
      deferred_reads_(cfg_.n, 0),
      parked_write_(cfg_.n),
      parked_reads_(cfg_.n),
      write_frames_sent_(cfg_.n, 0) {
  TBR_ENSURE(!(options_.bounded_history && options_.history_window > 0),
             "bounded_history and the window ablation are mutually exclusive");
  TBR_ENSURE(!(options_.recover_via_catchup && options_.history_window > 0),
             "crash-rejoin is not defined for the lossy window ablation");
  TBR_ENSURE(!options_.recover_via_catchup || self_ != cfg_.writer,
             "the single writer cannot rejoin via catch-up (needs a "
             "write-quorum handshake this implementation does not provide)");
}

void TwoBitProcess::on_start(NetworkContext& net) {
  if (!options_.recover_via_catchup) return;
  // Crash-rejoin: announce the reboot. Peers reset their channel to us and
  // answer CHECKPOINT; until a quorum of n-t distinct peers has answered we
  // are "recovering": client operations are deferred and inbound READs are
  // parked, because an amnesiac responder could otherwise certify freshness
  // below a prefix its previous incarnation acknowledged (the quorum makes
  // the adopted maximum dominate every prefix the old incarnation could
  // have contributed to — two n-t quorums over our n-1 peers intersect).
  recovering_ = true;
  for (ProcessId j = 0; j < cfg_.n; ++j) {
    if (j != self_) channel_ready_[j] = 0;
  }
  for (ProcessId j = 0; j < cfg_.n; ++j) {
    if (j != self_) send_control_frame(net, j, TwoBitType::kCatchUp);
  }
}

// ---- history storage -------------------------------------------------------

void TwoBitProcess::append_history(std::string_view v) {
  log_.append(v);
  if (options_.history_window > 0) {
    while (log_.size() > options_.history_window) {
      log_.evict_front();
      ++evicted_;
    }
  }
}

bool TwoBitProcess::history_has(SeqNo idx) const { return log_.has(idx); }

std::string_view TwoBitProcess::history_entry(SeqNo idx) const {
  return log_.at(idx);
}

void TwoBitProcess::return_read(const ReadDone& done, SeqNo sn) {
  // The callback may re-enter this process and complete another read (the
  // writer's fast read does so synchronously), so this call's value leaves
  // read_value_ for the duration and hands its capacity back afterwards.
  Value out = std::move(read_value_);
  out.mutable_bytes().assign(history_entry(sn));
  done(out, sn);
  read_value_ = std::move(out);
}

// ---- the known-prefix watermark and GC -------------------------------------

SeqNo TwoBitProcess::known(ProcessId j) const {
  if (j == self_) return w_sync_[self_];
  // An unconfirmed w_sync entry is our own optimistic claim (set when we
  // served this peer's catch-up); only a rejoiner's ACK or genuine channel
  // traffic from the peer may back freshness or quorum decisions. acked_
  // stays 0 on channels no rejoin touched, so there this is w_sync[j].
  return wsync_confirmed_[j] ? std::max(w_sync_[j], acked_[j]) : acked_[j];
}

void TwoBitProcess::maybe_gc() {
  if (!options_.bounded_history) return;
  // Sound with no frame of its own: w_sync[j] counts the WRITE frames j
  // sent us, and j sends value k only after applying it, so no peer needs
  // the watermark prefix from us again. A Rule-R2 catch-up to j sends
  // w_sync[j]+1, above the watermark, and Rule R1 forwards our head: no
  // send needs a reclaimed value.
  SeqNo watermark = w_sync_[self_];
  for (ProcessId j = 0; j < cfg_.n; ++j) {
    if (j != self_) watermark = std::min(watermark, known(j));
  }
  // A pending read's freshness index pins its value until line 10 returns.
  if (pending_read_.has_value() &&
      pending_read_->stage == ReadStage::kAwaitWsync) {
    watermark = std::min(watermark, pending_read_->sn);
  }
  if (watermark > log_.base()) {
    gc_reclaimed_ += log_.advance_checkpoint(watermark);
  }
}

// ---- operation write() — Fig. 1 lines 1-4 ---------------------------------

void TwoBitProcess::start_write(NetworkContext& net, Value v, WriteDone done) {
  TBR_ENSURE(is_writer(), "only the writer p_w may invoke write()");
  TBR_ENSURE(done != nullptr, "write needs a completion callback");
  begin_operation("write");

  // line 1: wsn <- w_sync[w]+1; w_sync[w] <- wsn; history[wsn] <- v
  const SeqNo wsn = w_sync_[self_] + 1;
  w_sync_[self_] = wsn;
  append_history(v.bytes());
  TBR_ENSURE(history_head() == wsn, "history head tracks w_sync[self]");

  // line 2: send WRITE(b, v) to every j with w_sync[j] = wsn-1.
  // (self is excluded naturally: w_sync[self] = wsn.) Channels reset by a
  // rejoin stay silent until the peer confirms the checkpoint: a WRITE
  // racing the CHECKPOINT would be dropped by the rejoiner's gate with
  // nobody left to retransmit it (the ACK-confirmation path serves the
  // catch-up instead).
  for (ProcessId j = 0; j < cfg_.n; ++j) {
    if (w_sync_[j] == wsn - 1 && wsync_confirmed_[j]) {
      send_write_frame(net, j, wsn);
    }
  }

  // line 3: wait until >= n-t processes j have w_sync[j] = wsn.
  pending_write_ = PendingWrite{wsn, std::move(done)};
  after_state_change(net);  // n-t may already hold (e.g. n = 1)
}

// ---- operation read() — Fig. 1 lines 5-10 ---------------------------------

void TwoBitProcess::start_read(NetworkContext& net, ReadDone done) {
  TBR_ENSURE(done != nullptr, "read needs a completion callback");
  begin_operation("read");

  // Remark on line 5: the writer may serve reads locally (opt-in).
  if (cfg_.writer_fast_read && is_writer()) {
    const SeqNo sn = w_sync_[self_];
    end_operation();
    return_read(done, sn);
    return;
  }

  if (recovering_) {
    // Rejoin in progress: accept the operation but defer lines 5-6 until a
    // checkpoint quorum has restored our state.
    pending_read_ = PendingRead{0, ReadStage::kDeferred, -1, std::move(done)};
    return;
  }

  pending_read_ = PendingRead{0, ReadStage::kDeferred, -1, std::move(done)};
  issue_read_round(net);
  after_state_change(net);
}

void TwoBitProcess::issue_read_round(NetworkContext& net) {
  TBR_ENSURE(pending_read_.has_value(), "no read to issue");
  // line 5: rsn <- r_sync[i]+1; r_sync[i] <- rsn
  const SeqNo rsn = r_sync_[self_] + 1;
  r_sync_[self_] = rsn;
  pending_read_->rsn = rsn;
  pending_read_->stage = ReadStage::kAwaitProceeds;
  pending_read_->sn = -1;
  // line 6: send READ() to every other process.
  for (ProcessId j = 0; j < cfg_.n; ++j) {
    if (j != self_) send_control_frame(net, j, TwoBitType::kRead);
  }
}

// ---- message dispatch ------------------------------------------------------

void TwoBitProcess::on_message(NetworkContext& net, ProcessId from,
                               const Message& msg) {
  TBR_ENSURE(!crashed_, "runtime delivered a message to a crashed process");
  TBR_ENSURE(from < cfg_.n && from != self_, "bad sender");
  switch (static_cast<TwoBitType>(msg.type)) {
    case TwoBitType::kWrite0:
    case TwoBitType::kWrite1:
      TBR_ENSURE(msg.has_value, "WRITE frame without value");
      // A channel reset by our own rejoin replays nothing: frames that left
      // the peer before it processed our CATCHUP are not part of the reset
      // era and are dropped (the peer's fence makes this window finite).
      if (!channel_ready_[from]) return;
      on_write(net, from, static_cast<std::uint8_t>(msg.type & 1), msg.value);
      break;
    case TwoBitType::kRead:
      if (recovering_) {
        ++deferred_reads_[from];  // answered once our state is restored
        return;
      }
      on_read(net, from);
      break;
    case TwoBitType::kProceed:
      on_proceed(net, from);
      break;
    case TwoBitType::kAck:
      on_ack(net, from, msg.seq);
      break;
    case TwoBitType::kCheckpoint:
      TBR_ENSURE(msg.has_value, "CHECKPOINT frame without value");
      on_checkpoint(net, from, msg.seq, msg.value);
      break;
    case TwoBitType::kCatchUp:
      on_catchup(net, from);
      break;
    default:
      TBR_ENSURE(false, "unknown two-bit frame type");
  }
}

// ---- WRITE(b, v) — Fig. 1 lines 11-18 --------------------------------------

void TwoBitProcess::on_write(NetworkContext& net, ProcessId from,
                             std::uint8_t parity, const Value& v) {
  // line 11: wait (b = (w_sync[j]+1) mod 2). The alternating-bit pattern
  // (Property P1) lets at most one WRITE bypass its predecessor per channel,
  // so a single parking slot per sender suffices — asserted here.
  const auto expected =
      static_cast<std::uint8_t>((w_sync_[from] + 1) % 2);
  if (parity != expected) {
    TBR_ENSURE(!parked_write_[from].has_value(),
               "P1 violated: two WRITE frames bypassed on one channel");
    parked_write_[from] = ParkedWrite{parity, v};
    return;
  }
  process_write(net, from, parity, v);
  after_state_change(net);
}

void TwoBitProcess::process_write(NetworkContext& net, ProcessId from,
                                  std::uint8_t parity, const Value& v) {
  // line 12: this is the (w_sync[j]+1)-th WRITE from j.
  const SeqNo wsn = w_sync_[from] + 1;
  TBR_ENSURE(parity == static_cast<std::uint8_t>(wsn % 2),
             "parity/wsn mismatch");
  // A genuine frame from j proves j applied wsn-1 and stored wsn: the
  // channel (possibly reset by a rejoin) is trustworthy again.
  wsync_confirmed_[from] = 1;

  if (wsn == w_sync_[self_] + 1) {
    // lines 13-15: the next value of our own history — adopt and forward to
    // everyone we believe knows exactly the first wsn-1 values (Rule R1).
    // Note w_sync[from] is still wsn-1 until line 18, so the sender is
    // among the recipients: that echo is what acknowledges the value.
    w_sync_[self_] = wsn;
    append_history(v.bytes());
    TBR_ENSURE(history_head() == wsn, "history head tracks w_sync[self]");
    for (ProcessId l = 0; l < cfg_.n; ++l) {
      // Channels mid-rejoin-handshake are mute in both roles. As the
      // rejoiner (channel_ready off): an echo before the peer's CHECKPOINT
      // arrives would alias as a fabricated higher index under the
      // two-bit parity encoding, because the peer's optimistic w_sync
      // entry assumes our WRITEs continue from its checkpoint. As the
      // server (wsync_confirmed off): a WRITE racing our CHECKPOINT would
      // be dropped by the rejoiner's gate with nobody retransmitting.
      if (!channel_ready_[l] || !wsync_confirmed_[l]) continue;
      if (w_sync_[l] == wsn - 1) send_write_frame(net, l, wsn);
    }
    // line 18: j has now sent us wsn WRITE frames.
    w_sync_[from] = wsn;
  } else {
    // Apply line 18 before line 16: neither line-16 predicate nor payload
    // depends on w_sync[from], and updating first keeps the send-side
    // ping-pong invariant (w_sync[to] = index-1 at every send) intact.
    w_sync_[from] = wsn;
    // After a channel restart the peer may have learned values through a
    // third party that this channel never carried, leaving the send counter
    // behind its position; realign so the alternating-bit discipline
    // resumes from the peer's actual prefix. Unreachable in faithful mode
    // (Lemma 5 keeps the counter at wsn or wsn+1 here).
    if (write_frames_sent_[from] < wsn) {
      TBR_ENSURE(checkpointing() || options_.history_window > 0,
                 "send counter fell behind w_sync on a faithful channel");
      write_frames_sent_[from] = wsn;
    }
    if (wsn < w_sync_[self_]) {
      // line 16: the sender lags behind us — return its next value (Rule R2).
      if (history_has(wsn + 1)) {
        send_write_frame(net, from, wsn + 1);
      } else if (checkpointing()) {
        // The value was superseded by our checkpoint. GC never passes
        // w_sync[from], so only a channel a rejoin reset gets here: the
        // rejoiner's ACK vouched for the value, or our adopted checkpoint
        // skipped past a laggard that a peer retaining the value serves.
        // Either way, skipping the send loses no liveness.
        TBR_ENSURE(!options_.bounded_history ||
                       options_.recover_via_catchup ||
                       wsn + 1 <= acked_[from],
                   "GC reclaimed a value below the acked watermark");
        ++superseded_sends_;
        // Account the suppressed frame: the channel counter must stay
        // aligned with the ping-pong discipline or the next real WRITE to
        // this peer would look non-consecutive.
        write_frames_sent_[from] = std::max(write_frames_sent_[from], wsn + 1);
      } else {
        // Window ablation only: the needed value was evicted; the sender
        // can never be caught up by us. Faithful mode never gets here.
        TBR_ENSURE(options_.history_window > 0,
                   "evicted history without a window configured");
        ++skipped_catchups_;
      }
    }
    // (wsn == w_sync[self]: nothing to do beyond line 18.)
  }
}

// ---- READ() — Fig. 1 lines 19-21 -------------------------------------------

void TwoBitProcess::on_read(NetworkContext& net, ProcessId from) {
  // Ablation: answer immediately, ABD-style (drops the atomicity guarantee
  // the freshness wait provides — see TwoBitOptions::eager_proceed).
  if (options_.eager_proceed) {
    send_control_frame(net, from, TwoBitType::kProceed);
    return;
  }
  // line 19: freshness point = our newest value.
  const SeqNo sn = w_sync_[self_];
  // line 20: wait (w_sync[from] >= sn); line 21: send PROCEED. The wait is
  // on the prefix the reader provably stores — its channel counter or, if
  // it rejoined, its handshake ACK, whichever is larger.
  if (known(from) >= sn) {
    send_control_frame(net, from, TwoBitType::kProceed);
  } else {
    // Successive READs from one reader see monotonically non-decreasing
    // freshness points, so releasing the queue front-first is correct.
    TBR_ENSURE(parked_reads_[from].empty() ||
                   parked_reads_[from].back() <= sn,
               "freshness points must be monotone per reader");
    parked_reads_[from].push(sn);
  }
}

// ---- PROCEED() — Fig. 1 line 22 ---------------------------------------------

void TwoBitProcess::on_proceed(NetworkContext& net, ProcessId from) {
  r_sync_[from] += 1;
  after_state_change(net);
}

// ---- bounded-memory extension frames ----------------------------------------

void TwoBitProcess::on_ack(NetworkContext& net, ProcessId from, SeqNo upto) {
  acked_[from] = std::max(acked_[from], upto);
  // A rejoiner's ACK covering our optimistic entry proves the checkpoint
  // was adopted: the channel is trustworthy again. The peer never echoes
  // values it adopted rather than applied, so serve the catch-up here —
  // Rule R2's job on a channel that exchanged no WRITE frames since the
  // reset.
  if (!wsync_confirmed_[from] && acked_[from] >= w_sync_[from]) {
    wsync_confirmed_[from] = 1;
    if (acked_[from] > w_sync_[from]) {
      // The peer adopted a larger checkpoint than ours: resume the channel
      // from its actual prefix, capped at our own head — the entry tracks
      // the peer's prefix of OUR history (Lemma 3's row-max shape), and
      // known() covers the excess through acked_.
      const SeqNo resume = std::min(acked_[from], w_sync_[self_]);
      if (resume > w_sync_[from]) {
        w_sync_[from] = resume;
        write_frames_sent_[from] = resume;
      }
    }
    if (w_sync_[from] < w_sync_[self_] &&
        write_frames_sent_[from] == w_sync_[from] &&
        history_has(w_sync_[from] + 1)) {
      send_write_frame(net, from, w_sync_[from] + 1);
    }
  }
  maybe_gc();
  after_state_change(net);  // known(from) grew: waits may release
}

void TwoBitProcess::on_catchup(NetworkContext& net, ProcessId from) {
  // `from` rebooted with empty state. Everything we knew about the channel
  // — and everything still in flight on it — describes a dead incarnation.
  if (recovering_) return;  // we have nothing to serve yet ourselves
  ++checkpoints_served_;
  net.fence_peer(from);
  parked_write_[from].reset();
  parked_reads_[from].clear();
  deferred_reads_[from] = 0;
  acked_[from] = 0;
  wsync_confirmed_[from] = 0;
  channel_ready_[from] = 1;
  const SeqNo head = w_sync_[self_];
  // Channel restart: our next WRITE frame to `from` is head+1, and `from`
  // treats our checkpoint as the channel base, so both counters align.
  w_sync_[from] = head;
  write_frames_sent_[from] = head;
  // Reads: the rejoiner answers every READ we issue from now on. If one is
  // in flight it never saw, leave the stale counter — it merely excludes
  // the rejoiner from that one quorum.
  if (!pending_read_.has_value()) r_sync_[from] = r_sync_[self_];
  send_index_frame(net, from, TwoBitType::kCheckpoint, head);
  maybe_gc();  // known(from) collapsed to 0: watermark must not advance past it
}

void TwoBitProcess::on_checkpoint(NetworkContext& net, ProcessId from,
                                  SeqNo index, const Value& v) {
  TBR_ENSURE(options_.recover_via_catchup,
             "CHECKPOINT delivered to a process that never sent CATCHUP");
  // Receive-side channel restart, mirroring the server's reset: the
  // checkpoint index is the channel base and is genuine knowledge of the
  // server's prefix.
  if (!channel_ready_[from]) {
    channel_ready_[from] = 1;
    ++checkpoint_responses_;
  }
  parked_write_[from].reset();
  w_sync_[from] = index;
  wsync_confirmed_[from] = 1;
  write_frames_sent_[from] = index;

  if (index > w_sync_[self_]) {
    // Adopt: the largest checkpoint seen so far wins.
    log_.reset_to_checkpoint(index, v.bytes());
    w_sync_[self_] = index;
    ++checkpoints_adopted_;
    // A pending read whose freshness index predates the adopted checkpoint
    // lost its value: rerun lines 5-10 with a fresh rsn (still one client
    // operation; only the internal round restarts).
    if (pending_read_.has_value() &&
        pending_read_->stage == ReadStage::kAwaitWsync &&
        pending_read_->sn < log_.base()) {
      issue_read_round(net);
    }
  } else {
    // We already know more than this checkpoint: tell the server, whose
    // optimistic w_sync entry for us stays untrusted until this ACK lands.
    send_index_frame(net, from, TwoBitType::kAck, w_sync_[self_]);
  }

  if (recovering_ && checkpoint_responses_ >= cfg_.quorum()) {
    // Quorum reached: the adopted maximum dominates every prefix our old
    // incarnation can have acknowledged. Go live.
    recovering_ = false;
    for (ProcessId j = 0; j < cfg_.n; ++j) {
      if (j != self_) {
        send_index_frame(net, j, TwoBitType::kAck, w_sync_[self_]);
      }
    }
    // Serve the READs parked during recovery at our restored freshness.
    for (ProcessId j = 0; j < cfg_.n; ++j) {
      while (deferred_reads_[j] > 0) {
        --deferred_reads_[j];
        on_read(net, j);
      }
    }
    // Issue the client read deferred at start_read, if any.
    if (pending_read_.has_value() &&
        pending_read_->stage == ReadStage::kDeferred) {
      issue_read_round(net);
    }
  }
  after_state_change(net);
}

// ---- wait re-examination ----------------------------------------------------

void TwoBitProcess::after_state_change(NetworkContext& net) {
  // Completion callbacks may synchronously start the next operation (the
  // closed-loop drivers do), which re-enters this function; the outermost
  // call owns the fixpoint loop and nested calls are no-ops.
  if (in_after_state_change_) return;
  in_after_state_change_ = true;
  bool progress = true;
  while (progress) {
    progress = false;
    if (drain_parked_writes(net)) progress = true;
    if (drain_parked_reads(net)) progress = true;
    if (check_pending_ops(net)) progress = true;
  }
  maybe_gc();
  in_after_state_change_ = false;
}

bool TwoBitProcess::drain_parked_writes(NetworkContext& net) {
  bool any = false;
  bool progress = true;
  while (progress) {
    progress = false;
    for (ProcessId j = 0; j < cfg_.n; ++j) {
      if (!parked_write_[j].has_value()) continue;
      const auto expected =
          static_cast<std::uint8_t>((w_sync_[j] + 1) % 2);
      if (parked_write_[j]->parity != expected) continue;
      ParkedWrite pw = std::move(*parked_write_[j]);
      parked_write_[j].reset();
      process_write(net, j, pw.parity, pw.value);
      progress = true;
      any = true;
    }
  }
  return any;
}

bool TwoBitProcess::drain_parked_reads(NetworkContext& net) {
  bool any = false;
  for (ProcessId j = 0; j < cfg_.n; ++j) {
    auto& q = parked_reads_[j];
    while (!q.empty() && known(j) >= q.front()) {
      q.pop();
      send_control_frame(net, j, TwoBitType::kProceed);
      any = true;
    }
  }
  return any;
}

bool TwoBitProcess::check_pending_ops(NetworkContext& net) {
  (void)net;
  const auto quorum = cfg_.quorum();
  bool any = false;

  // line 3: z >= n-t processes j with w_sync[j] = wsn. (known(j) never
  // exceeds wsn here — Lemma 3 — so >= is the same count the paper takes.)
  if (pending_write_.has_value() &&
      count_known_ge(pending_write_->wsn) >= quorum) {
    WriteDone done = std::move(pending_write_->done);
    pending_write_.reset();
    end_operation();
    done();
    any = true;
  }

  if (pending_read_.has_value() &&
      pending_read_->stage == ReadStage::kAwaitProceeds &&
      count_rsync_eq(pending_read_->rsn) >= quorum) {
    // line 8: sn <- w_sync[i], captured the moment the quorum completes.
    pending_read_->sn = w_sync_[self_];
    if (options_.skip_read_second_wait) {
      // Ablation: return without line 9's quorum.
      const SeqNo sn = pending_read_->sn;
      ReadDone done = std::move(pending_read_->done);
      pending_read_.reset();
      end_operation();
      return_read(done, sn);
      return true;
    }
    pending_read_->stage = ReadStage::kAwaitWsync;
    any = true;
  }
  if (pending_read_.has_value() &&
      pending_read_->stage == ReadStage::kAwaitWsync &&
      count_known_ge(pending_read_->sn) >= quorum) {
    // line 10: return history[sn].
    const SeqNo sn = pending_read_->sn;
    ReadDone done = std::move(pending_read_->done);
    pending_read_.reset();
    end_operation();
    return_read(done, sn);
    any = true;
  }
  return any;
}

// ---- sending ---------------------------------------------------------------

void TwoBitProcess::send_write_frame(NetworkContext& net, ProcessId to,
                                     SeqNo index) {
  TBR_ENSURE(index >= 1 && history_has(index),
             "WRITE frame index must reference a retained value");
  // Lemma 5 / alternating-bit send discipline: frames to each destination
  // go out in index order and only when our view of the destination is
  // index-1. (After a channel restart the counters resume from the
  // checkpoint index instead of 0; the discipline itself is unchanged.)
  TBR_INVARIANT(index == write_frames_sent_[to] + 1,
                "WRITE frames to a peer must be consecutive");
  TBR_INVARIANT(w_sync_[to] == index - 1,
                "ping-pong: send index only when w_sync[to] = index-1");
  write_frames_sent_[to] = index;

  Message& msg = out_;
  msg.type = static_cast<std::uint8_t>(index % 2 == 0 ? TwoBitType::kWrite0
                                                      : TwoBitType::kWrite1);
  msg.seq = 0;
  msg.has_value = true;
  msg.value.mutable_bytes().assign(history_entry(index));
  msg.wire = twobit_codec().account(msg);
  msg.debug_index = index;  // simulator-side diagnostics only; not on wire
  net.send(to, msg);
}

void TwoBitProcess::send_control_frame(NetworkContext& net, ProcessId to,
                                       TwoBitType type) {
  TBR_ENSURE(type == TwoBitType::kRead || type == TwoBitType::kProceed ||
                 type == TwoBitType::kCatchUp,
             "control frames are READ/PROCEED/CATCHUP");
  Message msg;
  msg.type = static_cast<std::uint8_t>(type);
  msg.wire = twobit_codec().account(msg);
  net.send(to, msg);
}

void TwoBitProcess::send_index_frame(NetworkContext& net, ProcessId to,
                                     TwoBitType type, SeqNo index) {
  TBR_ENSURE(type == TwoBitType::kAck || type == TwoBitType::kCheckpoint,
             "index frames are ACK/CHECKPOINT");
  Message& msg = out_;
  msg.type = static_cast<std::uint8_t>(type);
  msg.seq = index;
  msg.has_value = type == TwoBitType::kCheckpoint;
  if (msg.has_value) {
    msg.value.mutable_bytes().assign(history_entry(index));
  } else {
    msg.value.mutable_bytes().clear();
  }
  msg.wire = twobit_codec().account(msg);
  msg.debug_index = index;
  net.send(to, msg);
}

// ---- counting helpers (the paper's z computations) ---------------------------

std::uint32_t TwoBitProcess::count_known_ge(SeqNo v) const {
  std::uint32_t z = 0;
  for (ProcessId j = 0; j < cfg_.n; ++j) {
    if (wsync_confirmed_[j]) {
      TBR_INVARIANT(w_sync_[j] <= w_sync_[self_],
                    "Lemma 3: w_sync[self] dominates the row");
    }
    if (known(j) >= v) ++z;
  }
  return z;
}

std::uint32_t TwoBitProcess::count_rsync_eq(SeqNo v) const {
  std::uint32_t z = 0;
  for (ProcessId j = 0; j < cfg_.n; ++j) {
    TBR_INVARIANT(r_sync_[j] <= r_sync_[self_],
                  "no peer can answer more read requests than we issued");
    if (r_sync_[j] == v) ++z;
  }
  return z;
}

// ---- misc --------------------------------------------------------------------

void TwoBitProcess::on_crash() { crashed_ = true; }

TwoBitProcess::MemoryFootprint TwoBitProcess::memory_footprint() const {
  // Live protocol state, the quantity Table 1 line 4 compares. Faithful
  // mode makes it unbounded in the number of writes — the paper's stated
  // cost of eliminating on-wire sequence numbers; bounded mode keeps it
  // flat at O(window). History is accounted at its structural high-water
  // mark (slots allocated, active or recycled), which is what makes the
  // number a *stable* per-process bound rather than a fluctuating gauge.
  MemoryFootprint f;
  const std::string_view cp = log_.checkpoint_value();
  f.checkpoint_bytes = 16 + cp.size();  // (index, value) record
  f.history_bytes = log_.memory_bytes() - (8 + cp.size());
  f.sync_bytes = 8ull * (w_sync_.size() + r_sync_.size() + acked_.size());
  for (const auto& pw : parked_write_) {
    if (pw.has_value()) f.parked_bytes += 16 + pw->value.size();
  }
  for (const auto& q : parked_reads_) f.parked_bytes += 8ull * q.size();
  f.retained_entries = log_.size();
  f.total =
      f.history_bytes + f.checkpoint_bytes + f.sync_bytes + f.parked_bytes;
  return f;
}

std::uint64_t TwoBitProcess::local_memory_bytes() const {
  return memory_footprint().total;
}

std::vector<Value> TwoBitProcess::history() const {
  std::vector<Value> out;
  out.reserve(log_.size());
  for (SeqNo idx = log_.base(); idx <= log_.head(); ++idx) {
    out.push_back(Value::from_bytes(std::string(log_.at(idx))));
  }
  return out;
}

SeqNo TwoBitProcess::wsync(ProcessId j) const {
  TBR_ENSURE(j < cfg_.n, "pid out of range");
  return w_sync_[j];
}

SeqNo TwoBitProcess::rsync(ProcessId j) const {
  TBR_ENSURE(j < cfg_.n, "pid out of range");
  return r_sync_[j];
}

SeqNo TwoBitProcess::acked(ProcessId j) const {
  TBR_ENSURE(j < cfg_.n, "pid out of range");
  return acked_[j];
}

SeqNo TwoBitProcess::write_frames_sent_to(ProcessId j) const {
  TBR_ENSURE(j < cfg_.n, "pid out of range");
  return write_frames_sent_[j];
}

bool TwoBitProcess::has_parked_write(ProcessId from) const {
  TBR_ENSURE(from < cfg_.n, "pid out of range");
  return parked_write_[from].has_value();
}

std::size_t TwoBitProcess::parked_read_count() const {
  std::size_t count = 0;
  for (const auto& q : parked_reads_) count += q.size();
  return count;
}

std::unique_ptr<RegisterProcessBase> make_twobit_process(GroupConfig cfg,
                                                         ProcessId self) {
  return std::make_unique<TwoBitProcess>(std::move(cfg), self);
}

}  // namespace tbr
