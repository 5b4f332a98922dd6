// Experiment D10 — many registers on one network (the product layer).
//
// The paper costs ONE register. A keyspace multiplexes many register
// instances over the same n-node mesh (src/kvstore); this bench measures
// what that layer adds and what it preserves as the keyspace grows:
// per-op traffic is flat in the number of slots (slots are independent
// protocols, the mux only routes), the addressing tag is a constant
// 32 bits of data-plane overhead per frame, protocol control stays at
// 2 bits, and store memory grows with *written* slots only: the store's
// default two-bit slots run bounded history, so a slot's footprint does
// not grow with its write count (bench_local_memory's KV row).
#include "bench_common.hpp"

#include "kvstore/kv_store.hpp"

namespace tbr::bench {
namespace {

struct KvRow {
  std::uint64_t frames_per_put = 0;
  std::uint64_t frames_per_get = 0;
  std::uint64_t max_ctrl_bits = 0;
  double tag_overhead_bits = 0;  // data-plane addressing per frame
  std::uint64_t memory_bytes = 0;
};

KvRow measure(std::uint32_t slots) {
  KvStore::Options opt;
  opt.n = 5;
  opt.t = 2;
  opt.slots = slots;
  opt.seed = 7;
  KvStore store(std::move(opt));

  // Touch every slot once (worst-case memory: all shards populated).
  for (std::uint32_t s = 0; s < slots; ++s) {
    store.client().put_sync("warm-" + std::to_string(s * 131), Value::from_int64(1));
  }
  store.settle();

  KvRow row;
  auto before = store.net().stats().snapshot();
  store.client().put_sync("probe-key", Value::from_int64(42));
  store.settle();
  auto diff = store.net().stats().diff_since(before);
  row.frames_per_put = diff.total_sent();

  before = store.net().stats().snapshot();
  (void)store.client().get_sync("probe-key", 1);
  store.settle();
  diff = store.net().stats().diff_since(before);
  row.frames_per_get = diff.total_sent();

  const auto& stats = store.net().stats();
  row.max_ctrl_bits = stats.max_control_bits_per_msg();
  row.tag_overhead_bits = 32.0;  // by construction; asserted in tests
  row.memory_bytes = store.total_memory_bytes();
  return row;
}

void run() {
  print_header(
      "D10: a keyspace of registers over one 5-node network (kv store)",
      "derived experiment — per-op cost flat in #slots; protocol control "
      "stays 2 bits; addressing = 32 data-plane bits/frame");

  TextTable table({"slots", "frames/put", "frames/get",
                   "max ctrl bits/frame", "tag bits/frame",
                   "store memory (B)"});
  for (const std::uint32_t slots : {1u, 4u, 16u, 64u, 256u}) {
    const auto row = measure(slots);
    table.add_row({format_count(slots), format_count(row.frames_per_put),
                   format_count(row.frames_per_get),
                   format_count(row.max_ctrl_bits),
                   format_double(row.tag_overhead_bits, 0),
                   format_count(row.memory_bytes)});
  }
  std::cout << table.render() << "\n";
  std::cout
      << "frames/put stays at the single-register n(n-1) = 20 and\n"
      << "frames/get at 2(n-1) = 8 regardless of how many other registers\n"
      << "share the mesh — slots are independent instances, multiplexing\n"
      << "is pure routing. Memory scales with slots actually written (the\n"
      << "warm-up wrote all of them: worst case). Theorem 1 applies per\n"
      << "slot, so per-key atomicity is inherited — tests/kvstore_test.cpp\n"
      << "checks exactly that under interleaved multi-key traffic.\n";
}

}  // namespace
}  // namespace tbr::bench

int main() {
  tbr::bench::run();
  return 0;
}
