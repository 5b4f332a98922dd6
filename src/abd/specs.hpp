// Phase-structure specifications for the ABD-family baselines of Table 1.
//
// All three baselines are quorum protocols whose operations are sequences of
// broadcast/ack *phases*; they differ in phase counts, in whether replicas
// gossip an echo per phase, and in the size of the bounded labels their
// messages carry. One engine (PhasedProcess) executes any spec.
//
// Fidelity note (see the bounded-label bullet under "Phased codec" in
// docs/wire-protocol.md): the unbounded ABD spec is the real
// algorithm. The two bounded specs are *structural emulations*: they execute
// the bounded constructions' phase counts, traffic patterns and wire sizes —
// the quantities Table 1 measures — while anchoring correctness in the same
// quorum logic (internally unbounded counters whose wire cost is subsumed by
// the modeled label budget). The intricate bounded-timestamp label algebra
// is not reproduced; it affects none of the measured quantities.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tbr {

enum class PhaseKind : std::uint8_t {
  /// Broadcast (seq, value); replicas adopt if newer and ack.
  kDisseminate = 0,
  /// Broadcast a query; replicas reply with their (seq, value).
  kQuery = 1,
};

struct PhasedSpec {
  std::string name;
  std::vector<PhaseKind> write_phases;
  std::vector<PhaseKind> read_phases;
  /// Replicas re-broadcast an echo frame to all other replicas on every
  /// phase request (the bounded-ABD label-propagation traffic): turns each
  /// phase's message cost from O(n) into O(n^2) without extending the
  /// 2Δ-per-phase critical path (echoes are fire-and-forget).
  bool echo = false;
  /// Control-label size carried by every frame, as bits = n^label_exponent
  /// (0 = no label; control cost is then the minimal seq/tag encoding).
  std::uint32_t label_exponent = 0;
  /// Modeled per-process label-store size, bits = n^memory_exponent
  /// (0 = no modeled store; only real state is counted).
  std::uint32_t memory_exponent = 0;

  std::uint64_t label_bits(std::uint32_t n) const;
  std::uint64_t modeled_memory_bits(std::uint32_t n) const;
};

/// ABD JACM'95, unbounded sequence numbers: write = 1 phase (2Δ),
/// read = query + write-back (4Δ), O(n) messages, Θ(log #writes) bits.
const PhasedSpec& abd_unbounded_spec();

/// ABD JACM'95 bounded variant: 6 phases per operation (12Δ), O(n^2)
/// messages, O(n^5)-bit labels, O(n^6)-bit local label store.
const PhasedSpec& abd_bounded_spec();

/// Attiya JAlg'00: 7-phase writes (14Δ), 9-phase reads (18Δ), O(n)
/// messages, O(n^3)-bit labels, O(n^5)-bit local label store.
const PhasedSpec& attiya_spec();

/// ABLATION (not in Table 1): ABD without the read write-back phase. This
/// implements Lamport's *regular* register, not an atomic one — reads cost
/// one round trip (2Δ) but new/old inversion between concurrent readers
/// becomes possible. Used by the wait-ablation experiments to measure what
/// the write-back phase buys and costs.
const PhasedSpec& abd_regular_spec();

}  // namespace tbr
