#include "core/invariants.hpp"

#include <algorithm>
#include <cstdlib>

namespace tbr {
namespace {

std::string pij(const char* what, ProcessId i, ProcessId j) {
  return std::string(what) + " (i=" + std::to_string(i) +
         ", j=" + std::to_string(j) + ")";
}

// The cross-process lemmas quantify over executions of the *published*
// protocol. A crash-rejoin (recover_via_catchup) replaces a process with a
// fresh incarnation and resets the channels touching it: counters restart
// from checkpoint indices, and the server's optimistic w_sync entry for the
// rejoiner is a claim, not knowledge. Pairwise checks therefore skip pairs
// involving a rejoined process; everything single-process (Lemma 3, the
// base-aware Lemma 4) still holds and stays checked for everyone.
bool pair_relaxed(const std::vector<const TwoBitProcess*>& ps, ProcessId i,
                  ProcessId j) {
  return ps[i]->has_recovered() || ps[j]->has_recovered();
}

}  // namespace

std::string check_twobit_state_invariants(
    const std::vector<const TwoBitProcess*>& ps,
    const std::vector<InFlightFrame>& in_flight) {
  const auto n = static_cast<ProcessId>(ps.size());

  // Lemmas 2 and 3. Lemma 3 survives rejoin unconditionally: a server's
  // optimistic entry for a rejoiner equals its own head, and a rejoiner
  // adopts before it records larger peer checkpoints.
  for (ProcessId i = 0; i < n; ++i) {
    SeqNo row_max = 0;
    for (ProcessId j = 0; j < n; ++j) {
      row_max = std::max(row_max, ps[i]->wsync(j));
      if (!pair_relaxed(ps, i, j) &&
          ps[i]->wsync(i) < ps[j]->wsync(i)) {
        return pij("Lemma 2 violated: w_sync_i[i] < w_sync_j[i]", i, j);
      }
    }
    if (ps[i]->wsync(i) != row_max) {
      return "Lemma 3 violated: w_sync_i[i] is not the row max (i=" +
             std::to_string(i) + ")";
    }
  }

  // Lemma 4, base-aware: every process retains [history_base, w_sync_i[i]],
  // its head never passes the writer's, and it agrees with the writer's
  // history wherever the retained ranges overlap. With GC and checkpoints
  // off the bases are 0 and this is the literal prefix property. The
  // writer never rejoins, so its history is the reference in every run.
  // Entries are compared in place: this runs after every simulator event
  // and every replayed model-checker step.
  const TwoBitProcess& writer = *ps[ps.front()->config().writer];
  const SeqNo writer_base = writer.history_base();
  const SeqNo writer_head = writer.history_head();
  for (ProcessId i = 0; i < n; ++i) {
    const TwoBitProcess& p = *ps[i];
    const SeqNo base = p.history_base();
    const SeqNo head = p.history_head();
    if (head != p.wsync(i)) {
      return "history head out of sync with w_sync_i[i] (i=" +
             std::to_string(i) + ")";
    }
    if (head > writer_head) {
      return "Lemma 4 violated: history head passes the writer's (i=" +
             std::to_string(i) + ")";
    }
    if (&p == &writer) continue;
    for (SeqNo x = std::max(base, writer_base); x <= head; ++x) {
      if (p.history_entry(x) != writer.history_entry(x)) {
        return "Lemma 4 violated: divergent histories at index " +
               std::to_string(x) + " (i=" + std::to_string(i) + ")";
      }
    }
  }

  // GC soundness: a process may discard only prefixes every process has
  // already applied (that is the known-prefix checkpoint contract —
  // base_i <= watermark_i <= known_i(j) <= w_sync_j[j] for all j). The
  // window ablation violates this the moment it evicts an entry a lagging
  // peer still needs; lawful bounded GC never does. Rejoined processes are
  // exempt on both sides: a rejoiner's base is an adopted checkpoint (it
  // never held the earlier entries), and its own head restarts below live
  // bases until catch-up completes.
  {
    SeqNo min_head = -1;
    for (ProcessId j = 0; j < n; ++j) {
      if (ps[j]->has_recovered()) continue;
      const SeqNo head = ps[j]->wsync(j);
      if (min_head < 0 || head < min_head) min_head = head;
    }
    for (ProcessId i = 0; i < n && min_head >= 0; ++i) {
      if (ps[i]->has_recovered()) continue;
      if (ps[i]->history_base() > min_head) {
        return "GC soundness violated: p" + std::to_string(i) +
               " evicted history entries a lagging peer still needs "
               "(base=" + std::to_string(ps[i]->history_base()) +
               " > min head=" + std::to_string(min_head) + ")";
      }
    }
  }

  // Without a rejoin, GC never reclaims a value a catch-up needs, so no
  // process skips one, and Lemma 5 below holds exactly in bounded mode.
  const bool any_recovered =
      std::any_of(ps.begin(), ps.end(),
                  [](const TwoBitProcess* p) { return p->has_recovered(); });
  for (ProcessId i = 0; i < n && !any_recovered; ++i) {
    if (ps[i]->superseded_sends() != 0) {
      return "GC skipped a catch-up without a rejoin (i=" +
             std::to_string(i) + ")";
    }
  }

  // Lemma 5. R1: w_sync_i[i] = w_sync_i[j] = x => i sent exactly x frames
  // to j. R2: w_sync_i[i] > w_sync_i[j] = x => i sent exactly x+1 frames to
  // j. The lemma quantifies over correct i and unrelaxed channels.
  for (ProcessId i = 0; i < n; ++i) {
    if (ps[i]->crashed()) continue;
    for (ProcessId j = 0; j < n; ++j) {
      if (j == i || pair_relaxed(ps, i, j)) continue;
      const SeqNo x = ps[i]->wsync(j);
      const SeqNo sent = ps[i]->write_frames_sent_to(j);
      if (ps[i]->wsync(i) == x && sent != x) {
        return pij("Lemma 5 R1 violated: sent != w_sync_i[j]", i, j);
      }
      if (ps[i]->wsync(i) != x && sent != x + 1) {
        return pij("Lemma 5 R2 violated: sent != w_sync_i[j] + 1", i, j);
      }
    }
  }

  // Property P1 on the undelivered frames.
  for (ProcessId i = 0; i < n; ++i) {
    for (ProcessId j = 0; j < n; ++j) {
      if (i == j || pair_relaxed(ps, i, j)) continue;
      std::vector<SeqNo> write_indices;
      for (const InFlightFrame& f : in_flight) {
        if (f.from == i && f.to == j && f.type <= 1) {
          write_indices.push_back(f.debug_index);
        }
      }
      if (write_indices.size() > 2) {
        return pij("P1 violated: >2 WRITE frames in flight", i, j);
      }
      if (write_indices.size() == 2) {
        const auto [lo, hi] =
            std::minmax(write_indices[0], write_indices[1]);
        if (hi != lo + 1) {
          return pij("P1 violated: non-consecutive in-flight WRITEs", i, j);
        }
      }
    }
  }

  // Property P2.
  for (ProcessId i = 0; i < n; ++i) {
    for (ProcessId j = i + 1; j < n; ++j) {
      if (pair_relaxed(ps, i, j)) continue;
      if (std::llabs(ps[i]->wsync(j) - ps[j]->wsync(i)) > 1) {
        return pij("P2 violated: pairwise drift exceeds 1", i, j);
      }
    }
  }
  return {};
}

TwoBitInvariantObserver::TwoBitInvariantObserver(GroupConfig cfg)
    : cfg_(std::move(cfg)) {
  cfg_.validate();
  prev_wsync_.assign(cfg_.n, std::vector<SeqNo>(cfg_.n, 0));
}

void TwoBitInvariantObserver::operator()(SimNetwork& net) {
  std::vector<const TwoBitProcess*> ps;
  ps.reserve(cfg_.n);
  for (ProcessId pid = 0; pid < cfg_.n; ++pid) {
    ps.push_back(&net.process_as<TwoBitProcess>(pid));
  }
  check_lemma1_steps(ps);
  const std::string violation =
      check_twobit_state_invariants(ps, net.in_flight());
  TBR_INVARIANT(violation.empty(), violation);
  ++checks_run_;
}

void TwoBitInvariantObserver::check_lemma1_steps(
    const std::vector<const TwoBitProcess*>& ps) {
  // Lemma 1 (steps of exactly 1) holds per message *processed* and is
  // enforced by construction at every mutation site (wsn = w_sync[j] + 1
  // plus the history-contiguity contracts in TwoBitProcess). One simulator
  // event can cascade several parked messages, so at event granularity the
  // observable guarantee is monotone non-decrease, which we check here;
  // monotonicity is also what the proof of Claim 3 (Lemma 10) consumes.
  for (ProcessId i = 0; i < cfg_.n; ++i) {
    for (ProcessId j = 0; j < cfg_.n; ++j) {
      const SeqNo cur = ps[i]->wsync(j);
      if (has_prev_ && !pair_relaxed(ps, i, j)) {
        TBR_INVARIANT(cur >= prev_wsync_[i][j],
                      "Lemma 1: w_sync never decreases");
      }
      prev_wsync_[i][j] = cur;
    }
  }
  has_prev_ = true;
}

}  // namespace tbr
