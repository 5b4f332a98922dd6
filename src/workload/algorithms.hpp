// Registry of the register implementations (the four Table 1 compares and
// the two fast-path read engines), and the process-building policy the
// sim, threaded and socket register engines share.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/register_process.hpp"

namespace tbr {

enum class Algorithm {
  kTwoBit,         ///< this paper: four message types, 2 control bits
  kAbdUnbounded,   ///< ABD'95, unbounded sequence numbers
  kAbdBounded,     ///< ABD'95 bounded variant (structural emulation)
  kAttiya,         ///< Attiya'00 bounded labels (structural emulation)
  kOhRam,          ///< Oh-RAM! one-and-a-half-round read (src/fastread)
  kTimeEfficient,  ///< Mostéfaoui–Raynal time-efficient register
};

/// The four Table 1 algorithms, in Table 1 column order. The fast-path
/// read engines are deliberately NOT in this list: Table 1 sweeps and
/// golden digests iterate it, and their membership is part of the paper's
/// comparison, not ours.
const std::vector<Algorithm>& all_algorithms();

/// The two fast-path read engines (src/fastread/), in docs order.
const std::vector<Algorithm>& fastread_algorithms();

std::string algorithm_name(Algorithm algo);

/// Instantiate one process of the chosen implementation.
std::unique_ptr<RegisterProcessBase> make_register_process(Algorithm algo,
                                                           GroupConfig cfg,
                                                           ProcessId self);

/// What the sim, threaded and socket register engines' Options share: the
/// group, its protocol, and how to build its processes.
struct RegisterGroupOptions {
  GroupConfig cfg;
  Algorithm algo = Algorithm::kTwoBit;
  /// Optional override: build each process yourself (e.g. a TwoBitProcess
  /// with non-default TwoBitOptions). When set, `algo` is informational.
  ProcessFactory process_factory;
  /// Optional override for the incarnation built by recover(). Unset, a
  /// plain two-bit group (algo == kTwoBit, no process_factory) rejoins as
  /// a TwoBitProcess that catches up from peer checkpoints; any other
  /// group cannot recover.
  ProcessFactory recover_factory;
};

/// Process `pid` of the group: from `opt.process_factory` when set, else
/// an instance of `opt.algo`.
std::unique_ptr<RegisterProcessBase> make_group_process(
    const RegisterGroupOptions& opt, ProcessId pid);

/// The factory recover() uses for a rejoining process (see
/// RegisterGroupOptions::recover_factory); empty when the group cannot
/// recover.
ProcessFactory rejoin_factory(const RegisterGroupOptions& opt);

}  // namespace tbr
