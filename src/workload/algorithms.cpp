#include "workload/algorithms.hpp"

#include "abd/phased_process.hpp"
#include "common/contracts.hpp"
#include "core/twobit_process.hpp"
#include "fastread/ohram_process.hpp"
#include "fastread/time_efficient_process.hpp"

namespace tbr {

const std::vector<Algorithm>& all_algorithms() {
  static const std::vector<Algorithm> all = {
      Algorithm::kAbdUnbounded,
      Algorithm::kAbdBounded,
      Algorithm::kAttiya,
      Algorithm::kTwoBit,
  };
  return all;
}

const std::vector<Algorithm>& fastread_algorithms() {
  static const std::vector<Algorithm> fast = {
      Algorithm::kOhRam,
      Algorithm::kTimeEfficient,
  };
  return fast;
}

std::string algorithm_name(Algorithm algo) {
  switch (algo) {
    case Algorithm::kTwoBit:
      return "twobit";
    case Algorithm::kAbdUnbounded:
      return "abd-unbounded";
    case Algorithm::kAbdBounded:
      return "abd-bounded";
    case Algorithm::kAttiya:
      return "attiya";
    case Algorithm::kOhRam:
      return "ohram";
    case Algorithm::kTimeEfficient:
      return "timeeff";
  }
  TBR_ENSURE(false, "unknown algorithm");
  return {};
}

std::unique_ptr<RegisterProcessBase> make_register_process(Algorithm algo,
                                                           GroupConfig cfg,
                                                           ProcessId self) {
  switch (algo) {
    case Algorithm::kTwoBit:
      return make_twobit_process(std::move(cfg), self);
    case Algorithm::kAbdUnbounded:
      return make_abd_unbounded_process(std::move(cfg), self);
    case Algorithm::kAbdBounded:
      return make_abd_bounded_process(std::move(cfg), self);
    case Algorithm::kAttiya:
      return make_attiya_process(std::move(cfg), self);
    case Algorithm::kOhRam:
      return make_ohram_process(std::move(cfg), self);
    case Algorithm::kTimeEfficient:
      return make_time_efficient_process(std::move(cfg), self);
  }
  TBR_ENSURE(false, "unknown algorithm");
  return {};
}

std::unique_ptr<RegisterProcessBase> make_group_process(
    const RegisterGroupOptions& opt, ProcessId pid) {
  return opt.process_factory ? opt.process_factory(opt.cfg, pid)
                             : make_register_process(opt.algo, opt.cfg, pid);
}

ProcessFactory rejoin_factory(const RegisterGroupOptions& opt) {
  if (opt.recover_factory) return opt.recover_factory;
  if (opt.algo != Algorithm::kTwoBit || opt.process_factory) return {};
  return [](const GroupConfig& cfg, ProcessId pid) {
    TwoBitOptions topt;
    topt.recover_via_catchup = true;
    return std::make_unique<TwoBitProcess>(cfg, pid, topt);
  };
}

}  // namespace tbr
