#include "modelcheck/mc_invariants.hpp"

#include <algorithm>
#include <cstdlib>

#include "core/twobit_process.hpp"

namespace tbr {
namespace {

std::string pij(const char* what, ProcessId i, ProcessId j) {
  return std::string(what) + " (i=" + std::to_string(i) +
         ", j=" + std::to_string(j) + ")";
}

// Pairwise lemmas quantify over executions of the published protocol; a
// crash-rejoin resets the channels touching the rejoined process (counters
// restart from checkpoint indices, optimistic w_sync entries), so pairs
// involving one are skipped — mirroring TwoBitInvariantObserver.
bool pair_relaxed(const std::vector<const TwoBitProcess*>& ps, ProcessId i,
                  ProcessId j) {
  return ps[i]->has_recovered() || ps[j]->has_recovered();
}

}  // namespace

std::string check_twobit_state_invariants(
    const std::vector<const TwoBitProcess*>& ps,
    const std::vector<McInFlightFrame>& in_flight) {
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

  // Lemma 4, base-aware: every process retains [history_base, w_sync_i[i]]
  // and agrees with the reference history wherever the retained ranges
  // overlap. The reference is whichever process's head reaches furthest
  // (Lemma 3 makes that the writer in any faithful run); with GC and
  // checkpoints off the bases are 0 and this is the literal prefix
  // property.
  std::size_t ref = 0;
  SeqNo ref_head = -1;
  for (ProcessId i = 0; i < n; ++i) {
    const SeqNo head = ps[i]->wsync(i);
    if (head > ref_head) {
      ref_head = head;
      ref = i;
    }
  }
  const auto ref_hist = ps[ref]->history();
  const SeqNo ref_base = ps[ref]->history_base();
  for (ProcessId i = 0; i < n; ++i) {
    const auto hist = ps[i]->history();
    const SeqNo base = ps[i]->history_base();
    const SeqNo head = base + static_cast<SeqNo>(hist.size()) - 1;
    if (head != ps[i]->wsync(i)) {
      return "history head out of sync with w_sync_i[i] (i=" +
             std::to_string(i) + ")";
    }
    const SeqNo lo = std::max(base, ref_base);
    for (SeqNo x = lo; x <= std::min(head, ref_head); ++x) {
      if (!(hist[static_cast<std::size_t>(x - base)] ==
            ref_hist[static_cast<std::size_t>(x - ref_base)])) {
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

  // Lemma 5 (frame counting, correct processes, unrelaxed channels only).
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
      for (const McInFlightFrame& f : in_flight) {
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

}  // namespace tbr
