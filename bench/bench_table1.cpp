// Experiment T1 — the paper's Table 1, measured over n and gated.
//
// Paper (Table 1, n processes, t < n/2, failure-free, delays = Δ):
//
//   line 1  #msgs write :  ABD-unb O(n) | ABD-bnd O(n^2) | Attiya O(n) | twobit O(n^2)
//   line 2  #msgs read  :  O(n)         | O(n^2)         | O(n)        | O(n)
//   line 3  msg bits    :  unbounded    | O(n^5)         | O(n^3)      | 2
//   line 4  local memory:  unbounded*   | O(n^6)         | O(n^5)      | unbounded
//   line 5  time write  :  2Δ           | 12Δ            | 14Δ         | 2Δ
//   line 6  time read   :  4Δ           | 12Δ            | 18Δ         | 4Δ
//
//   (*) "unbounded" = grows with the number of writes, not with n.
//
// Every line is swept over n. Lines 3 and 4 are also swept over the number
// of writes at n = 5; both come from one run per (algorithm, n, writes):
// the writes, then one read, so line 3 sees every frame type.
// Lines 1, 2, 5 and 6 measure one steady-state write and read after a
// warm-up write. Line 6 is measured twice: the steady-state read, and the
// worst read over its alignment against a concurrent write. With every
// delay equal to Δ the two-bit worst case is 3Δ; the 4Δ supremum needs
// heterogeneous delays (FourDeltaSupremumIsApproachable in
// tests/twobit_timing_test.cpp). The bounded baselines' bits and bytes are
// their modeled label sizes (PhasedSpec in src/abd/specs.hpp).
//
// One row per (line, algorithm, n, writes), with the paper's bound beside
// the measured value. The bench exits 1 when a two-bit cell leaves its
// class: 2 control bits, n(n-1) write and 2(n-1) read messages, 2Δ writes,
// steady and worst-alignment reads of at most 4Δ.
#include "bench_common.hpp"

#include <optional>

namespace tbr::bench {
namespace {

constexpr std::uint32_t kSizes[] = {3, 5, 7, 9, 13, 17, 25, 33};
/// Lines 3 and 4: writes per run in the sweep over n, and the write counts
/// swept at n = kWriteSweepN.
constexpr int kSizeSweepWrites = 16;
constexpr std::uint32_t kWriteSweepN = 5;
constexpr int kWriteCounts[] = {1, 16, 64, 256, 512, 4096, 65536};

/// Lines 1, 2, 5 and 6 at one (algorithm, n).
struct OpPoint {
  Algorithm algo;
  std::uint32_t n;
  OpTraffic traffic;
  Tick worst_read_latency;
};

/// Lines 3 and 4 at one (algorithm, n, writes).
struct FootprintPoint {
  Algorithm algo;
  std::uint32_t n;
  int writes;
  std::uint64_t max_control_bits;
  std::uint64_t local_memory_bytes;
};

FootprintPoint measure_footprint(Algorithm algo, std::uint32_t n,
                                 int writes) {
  auto group = make_group(algo, n);
  for (int k = 1; k <= writes; ++k) {
    group.client().write_sync(Value::from_int64(k));
  }
  group.client().read_sync(n - 1);
  group.settle();
  return {algo, n, writes, group.net().stats().max_control_bits_per_msg(),
          group.process(1).local_memory_bytes()};
}

/// The slowest read at process n-1 over read-vs-write alignments: a second
/// write starts at a common base, the read at base + offset.
Tick worst_read_latency(Algorithm algo, std::uint32_t n) {
  Tick worst = 0;
  for (Tick offset = 0; offset <= 2 * kDelta; offset += kDelta / 8) {
    auto group = make_group(algo, n);
    group.client().write_sync(Value::from_int64(1));
    group.settle();
    Tick latency = 0;
    bool done = false;
    const Tick base = group.net().now();
    group.net().schedule_at(base, [&] {
      group.client().write(Value::from_int64(2), [](const OpResult&) {});
    });
    group.net().schedule_at(base + offset, [&] {
      group.client().read(n - 1, [&](const OpResult& r) {
        latency = r.latency;
        done = true;
      });
    });
    (void)group.net().run();
    if (done) worst = std::max(worst, latency);
  }
  return worst;
}

/// The paper's bound for `line` in `algo`'s column; the two-bit column
/// spells out the class the gate checks.
std::string paper_bound(int line, Algorithm algo, std::uint32_t n) {
  // Table 1 lines 1-6; columns abd-unbounded, abd-bounded, attiya.
  static constexpr const char* kBaselines[6][3] = {
      {"O(n)", "O(n^2)", "O(n)"},       {"O(n)", "O(n^2)", "O(n)"},
      {"unbounded", "O(n^5)", "O(n^3)"}, {"unbounded", "O(n^6)", "O(n^5)"},
      {"2 D", "12 D", "14 D"},          {"4 D", "12 D", "18 D"}};
  switch (algo) {
    case Algorithm::kAbdUnbounded:
      return kBaselines[line - 1][0];
    case Algorithm::kAbdBounded:
      return kBaselines[line - 1][1];
    case Algorithm::kAttiya:
      return kBaselines[line - 1][2];
    default:
      break;
  }
  switch (line) {
    case 1:
      return "n(n-1) = " + format_count(std::uint64_t{n} * (n - 1));
    case 2:
      return "2(n-1) = " + format_count(2 * std::uint64_t{n - 1});
    case 3:
      return "2";
    case 4:
      return "unbounded";
    case 5:
      return "2 D";
    default:
      return "<= 4 D";
  }
}

std::string in_deltas(Tick ticks) {
  return format_delta_units(static_cast<double>(ticks) / kDelta);
}

int run() {
  print_header("Table 1, swept over n (t = (n-1)/2, delays = D)",
               "rows below; two-bit cells are gated on their class");

  std::vector<OpPoint> ops;
  std::vector<FootprintPoint> footprints;
  for (const auto algo : all_algorithms()) {
    for (const std::uint32_t n : kSizes) {
      ops.push_back({algo, n, measure_op_traffic(algo, n),
                     worst_read_latency(algo, n)});
      if (n == kWriteSweepN) {
        for (const int writes : kWriteCounts) {
          footprints.push_back(measure_footprint(algo, n, writes));
        }
      } else {
        footprints.push_back(measure_footprint(algo, n, kSizeSweepWrites));
      }
    }
  }

  TextTable table({"line", "measure", "algorithm", "n", "#writes",
                   "measured", "paper", "two-bit class"});
  std::uint64_t gated = 0;
  std::uint64_t out_of_class = 0;
  // `in_class` is set for the gated two-bit cells only.
  const auto add = [&](int line, const char* measure, Algorithm algo,
                       std::uint32_t n, const std::string& writes,
                       const std::string& measured,
                       std::optional<bool> in_class) {
    std::string verdict;
    if (in_class) {
      ++gated;
      if (!*in_class) ++out_of_class;
      verdict = *in_class ? "in" : "OUT";
    }
    table.add_row({std::to_string(line), measure, algorithm_name(algo),
                   std::to_string(n), writes, measured,
                   paper_bound(line, algo, n), verdict});
  };
  const auto gate = [](Algorithm algo, bool holds) {
    return algo == Algorithm::kTwoBit ? std::optional<bool>(holds)
                                      : std::nullopt;
  };

  for (const OpPoint& p : ops) {
    add(1, "write msgs", p.algo, p.n, "-", format_count(p.traffic.write_msgs),
        gate(p.algo, p.traffic.write_msgs == std::uint64_t{p.n} * (p.n - 1)));
  }
  for (const OpPoint& p : ops) {
    add(2, "read msgs", p.algo, p.n, "-", format_count(p.traffic.read_msgs),
        gate(p.algo, p.traffic.read_msgs == 2 * std::uint64_t{p.n - 1}));
  }
  for (const FootprintPoint& p : footprints) {
    add(3, "control bits (max)", p.algo, p.n, format_count(p.writes),
        format_count(p.max_control_bits),
        gate(p.algo, p.max_control_bits == 2));
  }
  for (const FootprintPoint& p : footprints) {
    add(4, "local memory (B)", p.algo, p.n, format_count(p.writes),
        format_count(p.local_memory_bytes), std::nullopt);
  }
  for (const OpPoint& p : ops) {
    add(5, "write time", p.algo, p.n, "-", in_deltas(p.traffic.write_latency),
        gate(p.algo, p.traffic.write_latency == 2 * kDelta));
  }
  for (const OpPoint& p : ops) {
    add(6, "read time (steady)", p.algo, p.n, "-",
        in_deltas(p.traffic.read_latency),
        gate(p.algo, p.traffic.read_latency <= 4 * kDelta));
    add(6, "read time (worst alignment)", p.algo, p.n, "-",
        in_deltas(p.worst_read_latency),
        gate(p.algo, p.worst_read_latency <= 4 * kDelta));
  }
  std::cout << table.render() << "\n";

  const bool ok = out_of_class == 0;
  std::cout << "acceptance: two-bit Table 1 cells in class = "
            << (ok ? "yes" : "NO") << " (" << out_of_class << " of " << gated
            << " gated cells out; class: 2 control bits, n(n-1) write and "
               "2(n-1) read messages, 2 D writes, reads <= 4 D)\n";
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace tbr::bench

int main() { return tbr::bench::run(); }
