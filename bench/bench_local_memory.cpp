// Bounded two-bit memory. Table 1 line 4 (bench_table1) shows the faithful
// two-bit history growing linearly in the number of writes, the cost of
// constant-size messages. Known-prefix GC on w_sync alone caps it with no
// extra frames: this bench gates that on a register group, and on the KV
// store that runs it by default against the faithful protocol. --soak
// runs both over a long virtual-time horizon.
#include "bench_common.hpp"

#include <cstring>
#include <string>

#include "common/rng.hpp"
#include "core/twobit_process.hpp"
#include "kvstore/kv_store.hpp"

namespace tbr::bench {
namespace {

SimRegisterGroup make_bounded_group(std::uint32_t n) {
  SimRegisterGroup::Options opt;
  opt.cfg = make_cfg(n);
  opt.algo = Algorithm::kTwoBit;
  opt.delay = make_constant_delay(kDelta);
  opt.process_factory = [](const GroupConfig& cfg, ProcessId pid) {
    TwoBitOptions o;
    o.bounded_history = true;
    return std::make_unique<TwoBitProcess>(cfg, pid, o);
  };
  return SimRegisterGroup(std::move(opt));
}

/// Most history entries a bounded process may retain at steady state.
constexpr std::size_t kRetainedBound = 32;

/// The bytes-retained projection for bounded mode: deterministic (constant
/// delay, closed loop), so CI can gate on it. Steady-state history bytes
/// must be a function of the channel lag, not of the write count. Returns
/// whether that criterion holds.
bool run_bounded_projection() {
  std::cout << "-- bounded mode (known-prefix GC, n = 5) --\n";
  const std::vector<int> write_counts =
      quick_mode() ? std::vector<int>{64, 512} : std::vector<int>{64, 512, 4096};
  TextTable table({"#writes", "history bytes", "retained entries",
                   "footprint total", "gauge (stats)"});
  std::uint64_t first_history_bytes = 0;
  std::uint64_t last_history_bytes = 0;
  std::size_t last_retained = 0;
  for (const int writes : write_counts) {
    auto group = make_bounded_group(5);
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
  // is the O(window) bound. A settled group has echoed every value, so the
  // retained tail is identical at every write count and the comparison
  // exact.
  const bool flat = last_history_bytes == first_history_bytes;
  const bool small = last_retained <= kRetainedBound;
  std::cout << "acceptance: steady-state history bytes bounded by O(window) = "
            << ((flat && small) ? "yes" : "NO") << " (history bytes "
            << first_history_bytes << " -> " << last_history_bytes
            << " across the sweep, " << last_retained
            << " entries retained, criterion: flat and <= " << kRetainedBound
            << " entries)\n\n";
  return flat && small;
}

// ---- the KV store ------------------------------------------------------------

constexpr std::uint32_t kKvKeys = 512;
constexpr std::size_t kKvValueBytes = 256;

KvStore make_kv_store(ProcessFactory factory) {
  KvStore::Options opt;
  opt.n = 3;
  opt.t = 1;
  opt.slots = 64;
  opt.register_factory = std::move(factory);
  return KvStore(std::move(opt));
}

std::string kv_key(Rng& rng) {
  return "key-" + std::to_string(rng.uniform(0, kKvKeys - 1));
}

struct KvRow {
  std::uint64_t half_bytes = 0;
  std::uint64_t full_bytes = 0;
  std::uint64_t frames = 0;
  std::uint32_t max_control_bits = 0;
};

/// `puts` sequential 256-B puts over 512 uniform keys; the footprint is
/// sampled after settle() at the 50% and 100% marks.
KvRow run_kv_puts(ProcessFactory factory, int puts) {
  KvStore store = make_kv_store(std::move(factory));
  Rng rng(7);
  KvRow row;
  for (int k = 1; k <= puts; ++k) {
    (void)store.client().put_sync(kv_key(rng), Value::filler(kKvValueBytes));
    if (k == puts / 2) {
      store.settle();
      row.half_bytes = store.total_memory_bytes();
    }
  }
  store.settle();
  row.full_bytes = store.total_memory_bytes();
  row.frames = store.net().stats().total_sent();
  row.max_control_bits = store.net().stats().max_control_bits_per_msg();
  return row;
}

/// The KV row: a default KvStore (bounded two-bit slots) against one built
/// with the faithful make_twobit_process factory, on the same puts.
/// Returns whether the default store's footprint is flat between the two
/// marks with no frame over 2 control bits.
bool run_kv_projection() {
  constexpr int kPuts = 32 * 1024;
  std::cout << "-- KV store (n = 3, t = 1, 64 slots, " << kPuts << " puts of "
            << kKvValueBytes << " B over " << kKvKeys
            << " uniform keys; bytes across all nodes) --\n";
  const KvRow bounded = run_kv_puts({}, kPuts);
  const KvRow faithful = run_kv_puts(make_twobit_process, kPuts);
  TextTable table({"slots", "bytes at 50%", "bytes at 100%", "frames",
                   "max control bits"});
  const auto add = [&table](const char* name, const KvRow& row) {
    table.add_row({name, format_count(row.half_bytes),
                   format_count(row.full_bytes), format_count(row.frames),
                   std::to_string(row.max_control_bits)});
  };
  add("default (bounded)", bounded);
  add("faithful factory", faithful);
  std::cout << table.render() << "\n";
  const bool flat = bounded.half_bytes != 0 &&
                    bounded.full_bytes == bounded.half_bytes;
  const bool two_bits = bounded.max_control_bits <= 2;
  std::cout << "acceptance: default KV store memory flat at <= 2 control bits = "
            << ((flat && two_bits) ? "yes" : "NO") << " (bytes "
            << bounded.half_bytes << " -> " << bounded.full_bytes
            << " between the 50% and 100% marks, faithful " << faithful.full_bytes
            << "; max control bits " << bounded.max_control_bits << ")\n\n";
  return flat && two_bits;
}

/// Virtual-time length of each --soak workload.
constexpr Tick kSoakHorizon = 10'000'000;

bool soak_group() {
  auto group = make_bounded_group(3);
  std::uint64_t writes = 0;
  std::uint64_t half_total = 0;
  std::size_t half_retained = 0;
  while (group.net().now() < kSoakHorizon) {
    ++writes;
    group.client().write_sync(Value::from_int64(static_cast<std::int64_t>(writes)));
    if ((writes & 15) == 0) {
      (void)group.client().read_sync(static_cast<ProcessId>(writes % 3));
    }
    if (half_total == 0 && group.net().now() >= kSoakHorizon / 2) {
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
  std::cout << "== soak: bounded register group over " << kSoakHorizon
            << " virtual ticks ==\n"
            << writes << " writes, " << writer.gc_reclaimed_count()
            << " history entries reclaimed\n"
            << "footprint at 50%: " << half_total << " bytes ("
            << half_retained << " entries), at 100%: " << fp.total
            << " bytes (" << fp.retained_entries << " entries)\n";
  const bool flat = half_total != 0 && fp.total == half_total;
  std::cout << "acceptance: soak footprint flat between 50% and 100% = "
            << (flat ? "yes" : "NO") << "\n";
  return flat;
}

bool soak_kv_store() {
  // Windows of 16 puts and one get, so chains on distinct slots interleave
  // and reads overlap the writes whose echoes advance the watermark.
  constexpr int kWindowPuts = 16;
  KvStore store = make_kv_store({});
  KvClient& client = store.client();
  Rng rng(11);
  std::vector<Ticket> tickets;
  std::uint64_t puts = 0;
  std::uint64_t half_bytes = 0;
  while (store.net().now() < kSoakHorizon) {
    tickets.clear();
    for (int k = 0; k < kWindowPuts; ++k) {
      tickets.push_back(client.put(kv_key(rng), Value::filler(kKvValueBytes)));
    }
    tickets.push_back(client.get(kv_key(rng)));
    for (const Ticket t : tickets) (void)client.wait(t);
    puts += kWindowPuts;
    if (half_bytes == 0 && store.net().now() >= kSoakHorizon / 2) {
      store.settle();
      half_bytes = store.total_memory_bytes();
    }
  }
  store.settle();
  const std::uint64_t full_bytes = store.total_memory_bytes();
  const std::uint32_t bits = store.net().stats().max_control_bits_per_msg();
  std::cout << "== soak: default KV store over " << kSoakHorizon
            << " virtual ticks ==\n"
            << puts << " puts, " << store.failed_ops() << " failed ops\n"
            << "bytes at 50%: " << half_bytes << ", at 100%: " << full_bytes
            << "; max control bits " << bits << "\n";
  const bool flat = half_bytes != 0 && full_bytes == half_bytes &&
                    bits <= 2 && store.failed_ops() == 0;
  std::cout << "acceptance: KV soak footprint flat at <= 2 control bits = "
            << (flat ? "yes" : "NO") << "\n";
  return flat;
}

/// --soak: long workloads measured in virtual time (kSoakHorizon ticks),
/// with the memory footprint sampled at the halfway and final marks, on a
/// bounded register group and on a default KvStore. Both must be exactly
/// flat between the two marks — the dedicated CI job's whole verdict is
/// this function's exit code.
int run_soak() {
  const bool group = soak_group();
  const bool kv = soak_kv_store();
  return group && kv ? 0 : 1;
}

int run() {
  print_header("Bounded two-bit memory per process (bytes)",
               "Table 1 line 4 leaves two-bit memory unbounded; GC on "
               "w_sync caps it with the same frames");
  const bool bounded = run_bounded_projection();
  const bool kv = run_kv_projection();
  return bounded && kv ? 0 : 1;
}

}  // namespace
}  // namespace tbr::bench

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--soak") == 0) {
    return tbr::bench::run_soak();
  }
  return tbr::bench::run();
}
