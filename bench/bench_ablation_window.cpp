// Experiment D5 — bounded local history (the paper's concluding open
// problem, made executable).
//
// The paper: "Is it possible to design an implementation where (a) a
// constant number of bits ... and (b) the sequence numbers have a local
// modulo-based implementation? We are inclined to think that this is not
// possible." TwoBitOptions::history_window retains only the last m values;
// everything else about the algorithm (and its 2-bit frames) is unchanged.
// We sweep m under a straggler and report which side of the theorem breaks:
// atomicity of completed operations (never), or termination for the laggard
// (exactly when m is smaller than the lag eviction creates).
#include "bench_common.hpp"

#include "core/twobit_process.hpp"

namespace tbr::bench {
namespace {

struct WindowRow {
  bool straggler_caught_up = false;
  SeqNo straggler_final = 0;
  std::uint64_t skipped_catchups = 0;
  std::uint64_t writer_memory = 0;
  bool read_at_straggler_completed = false;
};

WindowRow measure(std::size_t window, Tick slow_factor) {
  constexpr std::uint32_t n = 5;
  constexpr int kWrites = 30;
  SimRegisterGroup::Options gopt;
  gopt.cfg = make_cfg(n);
  gopt.seed = 11;
  gopt.delay = make_straggler_delay(n - 1, slow_factor * kDelta, kDelta);
  gopt.process_factory = [window](const GroupConfig& cfg, ProcessId pid) {
    TwoBitOptions options;
    options.history_window = window;
    return std::make_unique<TwoBitProcess>(cfg, pid, options);
  };
  SimRegisterGroup group(std::move(gopt));

  for (int k = 1; k <= kWrites; ++k) group.client().write_sync(Value::from_int64(k));

  WindowRow row;
  bool read_done = false;
  group.client().read(n - 1,
                      [&read_done](const OpResult&) { read_done = true; });
  group.net().run();

  const auto& straggler = group.net().process_as<TwoBitProcess>(n - 1);
  row.straggler_final = straggler.wsync(n - 1);
  row.straggler_caught_up = row.straggler_final == kWrites;
  row.read_at_straggler_completed = read_done;
  for (ProcessId pid = 0; pid < n; ++pid) {
    row.skipped_catchups +=
        group.net().process_as<TwoBitProcess>(pid).skipped_catchups();
  }
  row.writer_memory = group.process(0).local_memory_bytes();
  return row;
}

void run() {
  print_header(
      "D5: bounded-history ablation (n=5, 30 writes, straggler x32)",
      "paper's open problem: bounding local memory should cost liveness, "
      "never safety");

  TextTable table({"window m", "writer memory (B)", "straggler w_sync",
                   "caught up", "R2 catch-ups refused",
                   "straggler read terminates"});
  const std::size_t windows[] = {0, 64, 32, 8, 4, 2};
  for (const auto m : windows) {
    const auto row = measure(m, 32);
    table.add_row({m == 0 ? "unbounded (paper)" : std::to_string(m),
                   format_count(row.writer_memory),
                   std::to_string(row.straggler_final) + "/30",
                   row.straggler_caught_up ? "yes" : "NO",
                   format_count(row.skipped_catchups),
                   row.read_at_straggler_completed ? "yes" : "NO"});
  }
  std::cout << table.render() << "\n";
  std::cout
      << "atomicity of every completed operation holds at every window\n"
      << "(property suite: tests/twobit_window_test.cpp). What breaks is\n"
      << "termination: once eviction outruns the laggard, Rule R2 has\n"
      << "nothing left to send and Lemmas 6/9 fail — evidence for the\n"
      << "authors' conjecture that the unbounded local history is the\n"
      << "irreducible price of two-bit messages.\n";
}

}  // namespace
}  // namespace tbr::bench

int main() {
  tbr::bench::run();
  return 0;
}
