// Experiment T1.L4 — local memory per process.
//
// Paper: unbounded (grows with #writes) | O(n^6) | O(n^5) | unbounded.
// Sweep (a): bytes vs n after a fixed write count — the bounded baselines'
// modeled label stores grow polynomially, twobit/abd stay flat in n (up to
// the O(n) w_sync vectors). Sweep (b): bytes vs #writes at fixed n — the
// twobit history grows linearly (its cost for constant-size messages),
// abd-unbounded stays O(1), the bounded stores are flat.
#include "bench_common.hpp"

#include <cstring>

#include "common/bits.hpp"
#include "core/twobit_process.hpp"

namespace tbr::bench {
namespace {

std::uint64_t memory_after(Algorithm algo, std::uint32_t n, int writes) {
  auto group = make_group(algo, n);
  for (int k = 1; k <= writes; ++k) group.client().write_sync(Value::from_int64(k));
  group.settle();
  return group.process(1).local_memory_bytes();
}

SimRegisterGroup make_bounded_group(std::uint32_t n,
                                    std::uint32_t ack_interval) {
  SimRegisterGroup::Options opt;
  opt.cfg = make_cfg(n);
  opt.algo = Algorithm::kTwoBit;
  opt.delay = make_constant_delay(kDelta);
  opt.process_factory = [ack_interval](const GroupConfig& cfg, ProcessId pid) {
    TwoBitOptions o;
    o.bounded_history = true;
    o.ack_interval = ack_interval;
    return std::make_unique<TwoBitProcess>(cfg, pid, o);
  };
  return SimRegisterGroup(std::move(opt));
}

/// The bytes-retained projection for bounded mode: deterministic (constant
/// delay, closed loop), so CI can gate on it. Steady-state history bytes
/// must be a function of the GC window (ack interval + channel lag), not of
/// the write count. Returns whether that criterion holds.
bool run_bounded_projection() {
  constexpr std::uint32_t kAckInterval = 8;
  std::cout << "-- bounded mode (acked-prefix GC, ack interval "
            << kAckInterval << ", n = 5) --\n";
  const std::vector<int> write_counts =
      quick_mode() ? std::vector<int>{64, 512} : std::vector<int>{64, 512, 4096};
  TextTable table({"#writes", "history bytes", "retained entries",
                   "footprint total", "gauge (stats)"});
  std::uint64_t first_history_bytes = 0;
  std::uint64_t last_history_bytes = 0;
  std::size_t last_retained = 0;
  for (const int writes : write_counts) {
    auto group = make_bounded_group(5, kAckInterval);
    for (int k = 1; k <= writes; ++k) {
      group.client().write_sync(Value::from_int64(k));
    }
    group.settle();
    const auto& p = group.net().process_as<TwoBitProcess>(1);
    const auto fp = p.memory_footprint();
    table.add_row({format_count(static_cast<std::uint64_t>(writes)),
                   format_count(fp.history_bytes),
                   format_count(static_cast<std::uint64_t>(fp.retained_entries)),
                   format_count(fp.total),
                   format_count(group.net().stats().local_memory_last())});
    if (first_history_bytes == 0) first_history_bytes = fp.history_bytes;
    last_history_bytes = fp.history_bytes;
    last_retained = fp.retained_entries;
  }
  std::cout << table.render() << "\n";
  // Flat across a 64x write-count sweep and small in absolute terms: that
  // is the O(window) bound. Both write counts are multiples of the ack
  // interval, so the retained tail is identical and the comparison exact.
  const bool flat = last_history_bytes == first_history_bytes;
  const bool small = last_retained <= 4u * kAckInterval;
  std::cout << "acceptance: steady-state history bytes bounded by O(window) = "
            << ((flat && small) ? "yes" : "NO") << " (history bytes "
            << first_history_bytes << " -> " << last_history_bytes
            << " across the sweep, " << last_retained
            << " entries retained, criterion: flat and <= "
            << 4 * kAckInterval << " entries)\n\n";
  return flat && small;
}

/// --soak: a long workload measured in virtual time (>= 10M ticks), with
/// the memory footprint sampled at the halfway and final marks. Bounded
/// mode must be exactly flat between the two — the dedicated CI job's
/// whole verdict is this function's exit code.
int run_soak() {
  constexpr Tick kHorizon = 10'000'000;
  auto group = make_bounded_group(3, /*ack_interval=*/1);
  std::uint64_t writes = 0;
  std::uint64_t half_total = 0;
  std::size_t half_retained = 0;
  while (group.net().now() < kHorizon) {
    ++writes;
    group.client().write_sync(Value::from_int64(static_cast<std::int64_t>(writes)));
    if ((writes & 15) == 0) {
      (void)group.client().read_sync(static_cast<ProcessId>(writes % 3));
    }
    if (half_total == 0 && group.net().now() >= kHorizon / 2) {
      group.settle();
      const auto fp =
          group.net().process_as<TwoBitProcess>(0).memory_footprint();
      half_total = fp.total;
      half_retained = fp.retained_entries;
    }
  }
  group.settle();
  const auto& writer = group.net().process_as<TwoBitProcess>(0);
  const auto fp = writer.memory_footprint();
  std::cout << "== soak: bounded memory over " << kHorizon
            << " virtual ticks ==\n"
            << writes << " writes, " << writer.gc_reclaimed_count()
            << " history entries reclaimed\n"
            << "footprint at 50%: " << half_total << " bytes ("
            << half_retained << " entries), at 100%: " << fp.total
            << " bytes (" << fp.retained_entries << " entries)\n";
  const bool flat = half_total != 0 && fp.total == half_total;
  std::cout << "acceptance: soak footprint flat between 50% and 100% = "
            << (flat ? "yes" : "NO") << "\n";
  return flat ? 0 : 1;
}

int run() {
  print_header("Table 1 line 4: local memory per process (bytes)",
               "unbounded (in #writes) | O(n^6) | O(n^5) | unbounded");

  std::cout << "-- sweep over n (16 writes each) --\n";
  {
    std::vector<std::string> header = {"n"};
    for (const auto algo : all_algorithms()) {
      header.push_back(algorithm_name(algo));
    }
    header.push_back("n^5/8");
    header.push_back("n^6/8");
    TextTable table(header);
    for (const std::uint32_t n : {3u, 5u, 7u, 9u, 13u}) {
      std::vector<std::string> row = {std::to_string(n)};
      for (const auto algo : all_algorithms()) {
        row.push_back(format_count(memory_after(algo, n, 16)));
      }
      row.push_back(format_count(pow_saturating(n, 5) / 8));
      row.push_back(format_count(pow_saturating(n, 6) / 8));
      table.add_row(std::move(row));
    }
    std::cout << table.render() << "\n";
  }

  std::cout << "-- sweep over #writes (n = 5) --\n";
  {
    std::vector<std::string> header = {"#writes"};
    for (const auto algo : all_algorithms()) {
      header.push_back(algorithm_name(algo));
    }
    TextTable table(header);
    for (const int writes : {1, 64, 512, 4096}) {
      std::vector<std::string> row = {
          format_count(static_cast<std::uint64_t>(writes))};
      for (const auto algo : all_algorithms()) {
        row.push_back(format_count(memory_after(algo, 5, writes)));
      }
      table.add_row(std::move(row));
    }
    std::cout << table.render() << "\n";
  }
  const bool bounded = run_bounded_projection();

  std::cout
      << "twobit trades local memory (the full history, linear in #writes)\n"
      << "for 2-bit messages — unless acked-prefix GC is on, which caps the\n"
      << "history at O(window); abd-unbounded keeps one value; the bounded\n"
      << "baselines pay polynomial-in-n label stores (modeled sizes, see\n"
      << "DESIGN.md section 4).\n";
  return bounded ? 0 : 1;
}

}  // namespace
}  // namespace tbr::bench

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--soak") == 0) {
    return tbr::bench::run_soak();
  }
  return tbr::bench::run();
}
