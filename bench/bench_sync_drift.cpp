// Experiment P2 — the fault-tolerant synchronizer's drift.
//
// The paper's Property P2 bounds pairwise view drift by 1:
// |w_sync_i[j] - w_sync_j[i]| <= 1 at all times, for every pair,
// independent of n and of delay distribution. This bench samples the drift
// across executions and reports the max (must be 1) alongside the *global*
// lag max_i,j (w_sync_w[w] - w_sync_i[j]), which P2 does not bound — showing
// the synchronizer is a pairwise, not global, guarantee.
#include "bench_common.hpp"

#include "core/twobit_process.hpp"

namespace tbr::bench {
namespace {

struct DriftSample {
  SeqNo max_pairwise = 0;
  SeqNo max_global_lag = 0;
};

DriftSample measure(std::uint32_t n, std::uint64_t seed,
                    std::unique_ptr<DelayModel> delay) {
  // The observer hook below samples after every event.
  DriftSample sample;
  SimRegisterGroup::Options gopt;
  gopt.cfg = make_cfg(n);
  gopt.algo = Algorithm::kTwoBit;
  gopt.seed = seed;
  gopt.delay = std::move(delay);
  SimRegisterGroup group(std::move(gopt));
  group.net().set_post_event_hook([&sample, n](SimNetwork& net) {
    SeqNo head = 0;
    for (ProcessId i = 0; i < n; ++i) {
      head = std::max(head, net.process_as<TwoBitProcess>(i).wsync(i));
    }
    for (ProcessId i = 0; i < n; ++i) {
      const auto& pi = net.process_as<TwoBitProcess>(i);
      for (ProcessId j = 0; j < n; ++j) {
        if (i == j) continue;
        const auto& pj = net.process_as<TwoBitProcess>(j);
        sample.max_pairwise = std::max<SeqNo>(
            sample.max_pairwise, std::llabs(pi.wsync(j) - pj.wsync(i)));
        sample.max_global_lag =
            std::max(sample.max_global_lag, head - pi.wsync(j));
      }
    }
  });
  // Closed loop of writes from the writer.
  for (int k = 1; k <= 30; ++k) group.client().write_sync(Value::from_int64(k));
  group.settle();
  return sample;
}

void run() {
  print_header("Property P2: pairwise synchronizer drift",
               "|w_sync_i[j] - w_sync_j[i]| <= 1 always; global lag unbounded");

  TextTable table({"n", "delay model", "max pairwise drift (paper: <=1)",
                   "max global lag (unbounded)"});
  for (const std::uint32_t n : {3u, 5u, 9u, 13u}) {
    struct Case {
      const char* name;
      std::unique_ptr<DelayModel> delay;
    };
    std::vector<Case> cases;
    cases.push_back({"constant", make_constant_delay(kDelta)});
    cases.push_back({"uniform(1,2000)", make_uniform_delay(1, 2000)});
    cases.push_back({"flipflop(5,3000)", make_flipflop_delay(5, 3000, n)});
    cases.push_back(
        {"straggler(x40)", make_straggler_delay(n - 1, 40 * kDelta, kDelta)});
    for (auto& c : cases) {
      const auto sample = measure(n, 17, std::move(c.delay));
      table.add_row({std::to_string(n), c.name,
                     std::to_string(sample.max_pairwise),
                     std::to_string(sample.max_global_lag)});
    }
  }
  std::cout << table.render() << "\n";
  std::cout
      << "pairwise drift saturates at exactly 1 under every adversarial\n"
      << "delay model (the alternating-bit discipline), while a straggler's\n"
      << "global lag grows with the write rate — Rule R2's catch-up traffic\n"
      << "is what eventually repays it.\n";
}

}  // namespace
}  // namespace tbr::bench

int main() {
  tbr::bench::run();
  return 0;
}
