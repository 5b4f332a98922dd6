// Allocation-regression gate: steady-state message delivery in the sim
// runtime performs ZERO heap allocations per frame.
//
// Linked against bench/alloc_hooks (replaced global operator new with
// atomic counters), and registered with CTest only in non-sanitized builds
// — ASan/TSan interpose their own allocator and must not be mixed with the
// counting one. The simulator is single-threaded and deterministic, so
// these are exact equalities, not thresholds: any future change that puts
// an allocation back on the delivery path fails the suite immediately.
//
// What "steady state" means here: pools, freelists, event-heap backing
// storage and per-process container capacities are warmed by a first round
// of traffic; the measured window then repeats the same kind of traffic.
// Protocol state that grows by design (a faithful two-bit register's
// history, in 256-entry segments) is kept inside its first history
// segment by the warmup/window sizing; a bounded register's history
// (2-entry segments, recycled by known-prefix GC) stays flat on its own.
// Growth of protocol state is not runtime overhead and is measured
// separately by bench_local_memory. Four byte gates bound what that state
// asks of the heap: FaithfulHistoryLogRequestsAtMost9BytesPerEntry per
// faithful entry, MixedSizeHistoryLogRequestsAtMost2180BytesPerEntry per
// entry of a faithful log whose payload size changes every append,
// StalledBoundedHistoryLogRequestsAtMost48BytesPerEntry per entry of a
// bounded log whose GC never advances, and
// BoundedKvSlotRequestsAtMost6KiBPerReplica per slot replica of a default
// KvStore.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench/alloc_hooks.hpp"
#include "bench/relay_harness.hpp"
#include "core/twobit_process.hpp"
#include "kvstore/kv_store.hpp"
#include "kvstore/sharded_store.hpp"
#include "runtime/thread_network.hpp"
#include "sim/sim_network.hpp"
#include "transport/socket_network.hpp"
#include "workload/sim_register_group.hpp"

namespace tbr {
namespace {

TEST(AllocRegression, DeliveryLoopIsAllocFree) {
  SimNetwork net(bench::make_relays(3, 0), SimNetwork::Options{});
  bench::kick_relay(net, 64);  // warm: event heap, frame pool, freelist
  ASSERT_TRUE(net.run());

  bench::kick_relay(net, 4096);
  const alloc::Window w;
  ASSERT_TRUE(net.run());
  EXPECT_EQ(w.allocations(), 0u)
      << "steady-state deliveries must not touch the heap";
}

TEST(AllocRegression, DeliveryLoopIsAllocFreeWithLargePayloads) {
  // 4 KiB values: the frame pool's recycled slots must absorb non-SSO
  // payloads through capacity reuse (copy-assign into a warmed slot).
  SimNetwork net(bench::make_relays(3, 4096), SimNetwork::Options{});
  bench::kick_relay(net, 64);
  ASSERT_TRUE(net.run());

  bench::kick_relay(net, 1024);
  const alloc::Window w;
  ASSERT_TRUE(net.run());
  EXPECT_EQ(w.allocations(), 0u)
      << "warmed pool slots must absorb 4 KiB payloads without allocating";
}

TEST(AllocRegression, CapacityModelDeliveryIsAllocFree) {
  // Same loop under the service-time capacity model: parked frames ride
  // the vector-ring service FIFO and drain events, which must also be
  // allocation-free once warm. One shared loop makes every hop park: the
  // next frame lands while the loop is still busy with the previous one.
  for (const std::uint32_t loops : {0u, 1u}) {
    SimNetwork::Options opt;
    opt.service_time = 1500;  // busier than the 1000-tick channel delay
    opt.service_loops = loops;
    SimNetwork net(bench::make_relays(3, 0), std::move(opt));
    bench::kick_relay(net, 128);
    ASSERT_TRUE(net.run());

    bench::kick_relay(net, 2048);
    const alloc::Window w;
    ASSERT_TRUE(net.run());
    EXPECT_EQ(w.allocations(), 0u)
        << "parked-frame rings and drain events must not allocate (loops="
        << loops << ")";
  }
}

TEST(AllocRegression, EventQueueClosureSchedulingIsAllocFree) {
  SimNetwork net(bench::make_relays(2, 0), SimNetwork::Options{});
  long counter = 0;
  // Warm the event heap to the same peak occupancy the window will reach
  // (the backing vector grows to the high-water mark once, then never).
  for (int i = 0; i < 1024; ++i) {
    net.schedule_after(i + 1, [&counter] { ++counter; });
  }
  ASSERT_TRUE(net.run());

  const alloc::Window w;
  for (int i = 0; i < 1024; ++i) {
    net.schedule_after(i + 1, [&counter] { ++counter; });
  }
  ASSERT_TRUE(net.run());
  EXPECT_EQ(w.allocations(), 0u)
      << "small client closures must stay inside InlineFn's buffer";
  EXPECT_EQ(counter, 1024 + 1024);
}

TEST(AllocRegression, TwoBitDisseminationSettlesAllocFree) {
  // The real protocol: after each (unmeasured) client write completes, the
  // residual WRITE-frame gossip drained by settle() must be allocation-free.
  // Warmup/window sizes keep each process's history inside its first
  // 256-entry segment, whose byte buffer was sized for 256 payloads when
  // it opened (17 warmup writes -> 18 entries incl. the initial value; +8
  // window writes -> 26 < 256), so the window sees pure delivery work.
  auto make = [] {
    SimRegisterGroup::Options opt;
    opt.cfg.n = 5;
    opt.cfg.t = 2;
    opt.cfg.writer = 0;
    opt.cfg.initial = Value::from_int64(0);
    opt.algo = Algorithm::kTwoBit;
    return SimRegisterGroup(std::move(opt));
  };
  auto group = make();
  for (int i = 0; i < 17; ++i) {
    group.client().write_sync(Value::from_int64(i));
    group.settle();
    group.client().read_sync(4);
    group.settle();
  }

  std::uint64_t allocs = 0;
  std::uint64_t events = 0;
  for (int k = 0; k < 8; ++k) {
    group.client().write_sync(Value::from_int64(1000 + k));
    const auto events_before = group.net().events_executed();
    const alloc::Window w;
    group.settle();
    allocs += w.allocations();
    events += group.net().events_executed() - events_before;
  }
  EXPECT_GT(events, 0u) << "the window must actually deliver frames";
  EXPECT_EQ(allocs, 0u)
      << "two-bit gossip must ride the frame pool without allocating";
}

TEST(AllocRegression, FaithfulHistoryLogRequestsAtMost9BytesPerEntry) {
  // The byte gate on the paper's unbounded history (Table 1, line 4):
  // 2^16 faithful appends of 8-B values. A uniform 256-entry segment
  // requests its 256 payloads in one buffer, with no end offsets, plus a
  // 32-B record (buffer pointers, stride and layout), and the segment ring
  // doubles: ~8.3 B per entry, where 16-entry segments with end offsets
  // requested 15.5 B and one std::string per entry 35.5 B. The accounting
  // model (memory_bytes(), 24 B per 8-B entry) must stay an upper bound on
  // what the log asks of the heap.
  constexpr std::uint64_t kEntries = std::uint64_t{1} << 16;
  std::string payload = Value::from_int64(0).bytes();
  std::uint64_t requested = 0;
  std::uint64_t modelled = 0;
  {
    const alloc::Window w;
    BoundedHistoryLog log(payload);
    for (std::uint64_t k = 1; k <= kEntries; ++k) {
      std::memcpy(payload.data(), &k, sizeof k);  // distinct 8-B values
      log.append(payload);
    }
    requested = w.bytes();
    modelled = log.memory_bytes();
    ASSERT_EQ(log.head(), static_cast<SeqNo>(kEntries));
  }
  EXPECT_LE(requested, 9 * kEntries)
      << "requested " << static_cast<double>(requested) / kEntries
      << " B per 8-B history entry";
  EXPECT_LE(requested, modelled)
      << "memory_bytes() must bound the heap bytes the log requests";
}

TEST(AllocRegression, MixedSizeHistoryLogRequestsAtMost2180BytesPerEntry) {
  // A faithful log whose payload size changes every append: 0, 1, 8, 300
  // and 4096 B in turn, 881 B per entry on average, 2^12 entries. A
  // segment whose capacity falls short reserves for the whole segment at
  // the average non-empty payload size it holds, so a segment pays about
  // twice its payloads; reserving a full set of each larger incoming
  // payload requested ~4,360 B per entry. The bound is half of that.
  static constexpr std::size_t kSizes[] = {0, 1, 8, 300, 4096};
  constexpr std::uint64_t kEntries = std::uint64_t{1} << 12;
  std::vector<std::string> payloads;
  for (const std::size_t size : kSizes) {
    payloads.push_back(Value::filler(size, 0x5A).bytes());
  }
  std::uint64_t requested = 0;
  std::uint64_t payload = 0;
  {
    const alloc::Window w;
    BoundedHistoryLog log(payloads[0]);
    for (std::uint64_t k = 1; k <= kEntries; ++k) {
      log.append(payloads[k % payloads.size()]);
    }
    requested = w.bytes();
    payload = log.payload_bytes();
    ASSERT_EQ(log.head(), static_cast<SeqNo>(kEntries));
  }
  EXPECT_GE(payload, 880 * kEntries);
  EXPECT_LE(requested, 2180 * kEntries)
      << "requested " << static_cast<double>(requested) / kEntries
      << " B per mixed-size history entry";
}

TEST(AllocRegression, StalledBoundedHistoryLogRequestsAtMost48BytesPerEntry) {
  // The price of 2-entry segments: a bounded log whose GC has stalled (a
  // crashed peer pins the watermark) grows like a faithful one, one 32-B
  // segment record and one buffer of 2 payloads per two entries, plus the
  // doubling ring: ~40 B per entry. 2^16 appends of 8-B values to a log
  // that never advances must stay at or below 48 B per entry, which holds
  // only while a segment's record stays one vector plus its layout state;
  // a segment carrying 16 offsets whatever its size would request 68.
  constexpr std::uint64_t kEntries = std::uint64_t{1} << 16;
  std::string payload = Value::from_int64(0).bytes();
  std::uint64_t requested = 0;
  {
    const alloc::Window w;
    BoundedHistoryLog log(payload, BoundedHistoryLog::kGcSegmentSlots);
    for (std::uint64_t k = 1; k <= kEntries; ++k) {
      std::memcpy(payload.data(), &k, sizeof k);  // distinct 8-B values
      log.append(payload);
    }
    requested = w.bytes();
    ASSERT_EQ(log.head(), static_cast<SeqNo>(kEntries));
    ASSERT_EQ(log.base(), 0);
  }
  EXPECT_LE(requested, 48 * kEntries)
      << "requested " << static_cast<double>(requested) / kEntries
      << " B per 8-B entry of a stalled bounded log";
}

TEST(AllocRegression, BoundedKvSlotRequestsAtMost6KiBPerReplica) {
  // What one bounded register costs a default KvStore: n = 3, t = 1,
  // 64 two-bit slots under known-prefix GC, 64 windows of 64 callback ops
  // over 512 keys, half of them puts of 256-B values built beforehand and
  // moved in. Every byte the store requests from its construction to the
  // end of the run is charged to its 64 x 3 slot replicas, which must stay
  // at or below 24 payloads of 256 B each. GC leaves a slot one or two
  // live entries; a slot replica whose history segments, parked-read
  // queues or frame envelope are sized for more (16-entry segments, a
  // std::deque per reader, an envelope per slot) requests ~12.6 KB.
  constexpr std::uint32_t kSlots = 64;
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint32_t kWindows = 64;
  constexpr std::uint32_t kWindowOps = 64;
  constexpr std::uint32_t kKeys = 512;
  constexpr std::size_t kBig = 256;
  std::vector<std::string> keys;
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    keys.push_back("key-" + std::to_string(k));
  }
  std::vector<Value> values;
  for (std::uint32_t k = 0; k < kWindows * kWindowOps / 2; ++k) {
    values.push_back(Value::filler(kBig, static_cast<std::uint8_t>(k)));
  }
  std::vector<std::uint32_t> picks;  // which key each op touches
  std::minstd_rand rng(7);
  for (std::uint32_t k = 0; k < kWindows * kWindowOps; ++k) {
    picks.push_back(static_cast<std::uint32_t>(rng() % kKeys));
  }

  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t requested = 0;
  {
    const alloc::Window w;
    KvStore::Options opt;
    opt.n = kNodes;
    opt.t = 1;
    opt.slots = kSlots;
    KvStore store(std::move(opt));
    KvClient& client = store.client();
    std::size_t next_value = 0;
    for (std::uint32_t window = 0; window < kWindows; ++window) {
      for (std::uint32_t k = 0; k < kWindowOps; ++k) {
        const std::string& key = keys[picks[window * kWindowOps + k]];
        // Two pointers: std::function's inline storage.
        OpCallback cb = [d = &done, f = &failed](const OpResult& r) {
          ++(r.status.ok() ? *d : *f);
        };
        if (k % 2 == 0) {
          client.put(key, std::move(values[next_value++]), std::move(cb));
        } else {
          client.get(key, kAnyReplica, std::move(cb));
        }
      }
      store.settle();
    }
    requested = w.bytes();
  }
  EXPECT_EQ(done, std::uint64_t{kWindows} * kWindowOps);
  EXPECT_EQ(failed, 0u);
  const double per_replica =
      static_cast<double>(requested) / (kSlots * kNodes);
  EXPECT_LE(per_replica, 24.0 * kBig)
      << "a bounded KV slot requested " << per_replica
      << " B per replica over the run";
}

// ---- the unified client API (PR 4): allocs per OPERATION ---------------------
//
// Same discipline, one level up: a steady-state operation through the
// Ticket convenience API — pooled OpState in, submit, wait, result out —
// must not touch the heap. Windows keep the register's history inside its
// first segment (one entry per write, 256 entries per segment, one
// allocation pair when a segment opens): protocol-state growth is the
// paper's open problem, not client overhead, and is measured by
// bench_local_memory instead.

SimRegisterGroup make_bounded_group(Value initial) {
  SimRegisterGroup::Options opt;
  opt.cfg.n = 3;
  opt.cfg.t = 1;
  opt.cfg.writer = 0;
  opt.cfg.initial = std::move(initial);
  opt.algo = Algorithm::kTwoBit;
  opt.process_factory = [](const GroupConfig& cfg, ProcessId pid) {
    TwoBitOptions o;
    o.bounded_history = true;
    return std::make_unique<TwoBitProcess>(cfg, pid, o);
  };
  return SimRegisterGroup(std::move(opt));
}

TEST(AllocRegression, BoundedHistoryWorkloadIsAllocFree) {
  // The bounded-history subsystem end to end: known-prefix checkpoint
  // advancement and segment recycling must ride warmed storage. Stronger
  // than the faithful gates above: the log's footprint is flat by design,
  // so there is no segment-boundary caveat — every window of the whole
  // workload (ops AND residual gossip) must be exactly zero.
  SimRegisterGroup group = make_bounded_group(Value::from_int64(0));
  RegisterClient& client = group.client();

  // Warm: pools, rings, the segment freelist, GC counters.
  for (int k = 0; k < 64; ++k) {
    ASSERT_TRUE(client.write_sync(Value::from_int64(k)).status.ok());
    ASSERT_TRUE(client.read_sync((k % 2) + 1).status.ok());
  }
  group.settle();

  std::uint64_t allocs = 0;
  for (int k = 0; k < 32; ++k) {
    const alloc::Window w;
    const OpResult wr = client.write_sync(Value::from_int64(1000 + k));
    const OpResult rd = client.read_sync((k % 2) + 1);
    group.settle();
    EXPECT_TRUE(wr.status.ok());
    EXPECT_TRUE(rd.status.ok());
    allocs += w.allocations();
  }
  const auto& writer = group.net().process_as<TwoBitProcess>(0);
  EXPECT_GT(writer.gc_reclaimed_count(), 0u)
      << "the window must actually exercise GC";
  EXPECT_EQ(allocs, 0u)
      << "bounded-mode steady state must be allocation-free per op";

  // Again with kv-uniform-write50's 256-B values, which no string keeps
  // inline: recycled segments take them into the byte capacity of their
  // previous life, and frames and read results reuse warmed buffers.
  // Two ways to take results: callbacks, and Tickets polled with
  // try_result into one reused OpResult (wait() returns a fresh OpResult,
  // so each 256-B read it returns allocates). Each value is built before
  // its window, because building a 256-B Value is an allocation of the
  // caller's.
  constexpr std::size_t kBig = 256;
  SimRegisterGroup big = make_bounded_group(Value::filler(kBig));
  struct Counts {
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t short_reads = 0;
  } counts;
  auto run_pair = [&big, &counts](int k, Value v) {
    // One pointer each: std::function's inline storage.
    big.client().write(std::move(v), [c = &counts](const OpResult& r) {
      ++(r.status.ok() ? c->ok : c->failed);
    });
    big.settle();
    big.client().read((k % 2) + 1, [c = &counts](const OpResult& r) {
      ++(r.status.ok() ? c->ok : c->failed);
      if (r.status.ok() && r.value.size() != kBig) ++c->short_reads;
    });
    big.settle();
  };
  for (int k = 0; k < 64; ++k) {  // warm, as above
    run_pair(k, Value::filler(kBig, static_cast<std::uint8_t>(k)));
  }
  std::uint64_t big_allocs = 0;
  for (int k = 0; k < 32; ++k) {
    Value v = Value::filler(kBig, static_cast<std::uint8_t>(100 + k));
    const alloc::Window w;
    run_pair(k, std::move(v));
    big_allocs += w.allocations();
  }
  struct Poll {
    RegisterClient* client = nullptr;
    Ticket ticket;
    OpResult result;  ///< reused: its value keeps its capacity
  } poll{&big.client(), {}, {}};
  auto await = [&big, &poll, &counts](Ticket t) {
    poll.ticket = t;
    // One pointer: std::function's inline storage.
    const bool done = big.net().run_until(
        [p = &poll] { return p->client->try_result(p->ticket, p->result); });
    ++(done && poll.result.status.ok() ? counts.ok : counts.failed);
  };
  auto poll_pair = [&big, &poll, &counts, &await](int k, Value v) {
    await(big.client().write(std::move(v)));
    big.settle();
    await(big.client().read((k % 2) + 1));
    if (poll.result.value.size() != kBig) ++counts.short_reads;
    big.settle();
  };
  for (int k = 0; k < 8; ++k) {  // warm the reused result's value buffer
    poll_pair(k, Value::filler(kBig, static_cast<std::uint8_t>(k)));
  }
  std::uint64_t poll_allocs = 0;
  for (int k = 0; k < 32; ++k) {
    Value v = Value::filler(kBig, static_cast<std::uint8_t>(200 + k));
    const alloc::Window w;
    poll_pair(k, std::move(v));
    poll_allocs += w.allocations();
  }
  EXPECT_EQ(counts.ok, 2u * (64 + 32 + 8 + 32));
  EXPECT_EQ(counts.failed, 0u);
  EXPECT_EQ(counts.short_reads, 0u);
  EXPECT_GT(big.net().process_as<TwoBitProcess>(0).gc_reclaimed_count(), 0u)
      << "the window must actually exercise GC";
  EXPECT_EQ(big_allocs, 0u)
      << "bounded-mode steady state with 256-B values must be "
         "allocation-free per op";
  EXPECT_EQ(poll_allocs, 0u)
      << "Ticket ops polled with try_result into a reused OpResult must be "
         "allocation-free per op with 256-B values";
}

TEST(AllocRegression, SimTicketClosedLoopIsAllocFree) {
  SimRegisterGroup::Options opt;
  opt.cfg.n = 5;
  opt.cfg.t = 2;
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  opt.algo = Algorithm::kTwoBit;
  SimRegisterGroup group(std::move(opt));
  RegisterClient& client = group.client();

  // Warm: pool, chains, engine storage, and the history segment (16 writes
  // -> entries 0..16; the measured 8 writes land at 17..24 < 256).
  for (int k = 0; k < 16; ++k) {
    ASSERT_TRUE(client.write_sync(Value::from_int64(k)).status.ok());
    ASSERT_TRUE(client.read_sync(4).status.ok());
  }
  group.settle();

  const alloc::Window w;
  for (int k = 0; k < 8; ++k) {
    const OpResult wr = client.write_sync(Value::from_int64(100 + k));
    const OpResult rd = client.read_sync((k % 4) + 1);
    EXPECT_TRUE(wr.status.ok());
    EXPECT_TRUE(rd.status.ok());
  }
  group.settle();
  EXPECT_EQ(w.allocations(), 0u)
      << "a sim ticket round-trip must not touch the heap";
}

TEST(AllocRegression, FastReadTicketClosedLoopsAreAllocFree) {
  // The fast-path read engines (src/fastread/) own the same contract, with
  // no history-segment caveat: both keep O(1) register state (one timestamp +
  // one value; the time-efficient engine adds a fixed know_[n] vector), so
  // once the relay slots / echo scratches and the reused Value capacities
  // are warm, EVERY window is exactly zero — including Oh-RAM windows that
  // take the write-back fallback.
  for (const auto algo : fastread_algorithms()) {
    SimRegisterGroup::Options opt;
    opt.cfg.n = 5;
    opt.cfg.t = 2;
    opt.cfg.writer = 0;
    opt.cfg.initial = Value::from_int64(0);
    opt.algo = algo;
    SimRegisterGroup group(std::move(opt));
    RegisterClient& client = group.client();

    for (int k = 0; k < 16; ++k) {
      ASSERT_TRUE(client.write_sync(Value::from_int64(k)).status.ok());
      ASSERT_TRUE(client.read_sync(4).status.ok());
    }
    group.settle();

    const alloc::Window w;
    for (int k = 0; k < 8; ++k) {
      const OpResult wr = client.write_sync(Value::from_int64(100 + k));
      const OpResult rd = client.read_sync((k % 4) + 1);
      EXPECT_TRUE(wr.status.ok());
      EXPECT_TRUE(rd.status.ok());
    }
    group.settle();
    EXPECT_EQ(w.allocations(), 0u)
        << algorithm_name(algo)
        << " ticket round-trips must not touch the heap";
  }
}

TEST(AllocRegression, ThreadedTicketClosedLoopIsAllocFree) {
  ThreadNetwork::Options opt;
  opt.cfg.n = 3;
  opt.cfg.t = 1;
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  opt.algo = Algorithm::kTwoBit;
  opt.max_delay_us = 0;
  ThreadNetwork net(opt);
  net.start();
  RegisterClient& client = net.client();

  // Warm 64 writes (entries 0..64, inside the first 256-entry segment)
  // plus reads for every pool/ring/heap high-water mark.
  for (int k = 0; k < 64; ++k) {
    ASSERT_TRUE(client.write_sync(Value::from_int64(k)).status.ok());
    ASSERT_TRUE(client.read_sync(1).status.ok());
    ASSERT_TRUE(client.read_sync(2).status.ok());
  }

  // Concurrent pools reach their high-water marks asynchronously, so one
  // window can still catch a late growth step; the MINIMUM over a few
  // windows is the steady state (a per-op allocation would show up in
  // every window). Each window holds 8 writes, and the 4 windows' writes
  // (entries 65..96) stay inside the first 256-entry segment, so no window
  // opens a segment; the minimum must be exactly zero.
  std::uint64_t min_allocs = ~0ull;
  for (int window = 0; window < 4; ++window) {
    const alloc::Window w;
    for (int k = 0; k < 8; ++k) {
      const OpResult wr = client.write_sync(Value::from_int64(1000 + k));
      const OpResult r1 = client.read_sync(1);
      const OpResult r2 = client.read_sync(2);
      EXPECT_TRUE(wr.status.ok());
      EXPECT_TRUE(r1.status.ok());
      EXPECT_TRUE(r2.status.ok());
    }
    min_allocs = std::min(min_allocs, w.allocations());
  }
  EXPECT_EQ(min_allocs, 0u)
      << "a threaded ticket round-trip must not touch the heap";
}

TEST(AllocRegression, SocketTicketClosedLoopStaysWithinOneAllocPerOp) {
  // The socket runtime's ticket loop over real loopback TCP: commands ride
  // recycled vectors onto the loop thread, frames drain through the
  // consumed-offset ring, completions resolve into pooled OpStates. Same
  // min-of-windows discipline as the threaded gate (n loop threads reach
  // their buffer high-water marks asynchronously; a true per-op allocation
  // would count in EVERY window), same 1-write-in-4 mix so windows stay
  // inside the warmed history segment (64 warm-up writes and 4 x 8
  // measured ones: entries 0..96 of the first 256). Gate: <= 1 alloc/op.
  SocketNetwork::Options opt;
  opt.cfg.n = 3;
  opt.cfg.t = 1;
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  opt.algo = Algorithm::kTwoBit;
  SocketNetwork net(std::move(opt));
  net.start();
  RegisterClient& client = net.client();

  auto one_op = [&](std::uint32_t k) {
    if (k % 4 == 0) {
      ASSERT_TRUE(client.write_sync(Value::from_int64(k)).status.ok());
    } else {
      ASSERT_TRUE(client.read_sync((k % 2) + 1).status.ok());
    }
  };
  for (std::uint32_t k = 0; k < 256; ++k) one_op(k);  // warm rings/pools

  constexpr std::uint32_t kWindowOps = 32;
  std::uint64_t min_allocs = ~0ull;
  for (int window = 0; window < 4; ++window) {
    const alloc::Window w;
    for (std::uint32_t k = 0; k < kWindowOps; ++k) one_op(k);
    min_allocs = std::min(min_allocs, w.allocations());
  }
  net.stop();
  const double per_op =
      static_cast<double>(min_allocs) / static_cast<double>(kWindowOps);
  EXPECT_LE(per_op, 1.0)
      << "socket ticket ops must stay within one allocation per op ("
      << min_allocs << " allocs over " << kWindowOps << " ops)";
}

TEST(AllocRegression, ShardedKvClientStaysWithinOneAllocPerOp) {
  // Pipelined waves through the sharded store's pooled client. min_batch
  // == max_batch == the wave size pins every batching window to exactly
  // one wave, making the per-window planning work — and so the allocation
  // count — deterministic. Acceptance (ISSUE 4): <= 1 alloc/op; the
  // recycled plan/window storage actually gets this near zero.
  constexpr std::uint32_t kWaveOps = 64;
  constexpr std::uint32_t kWaves = 8;
  ShardedKvStore::Options opt;
  opt.shards = 1;
  opt.n = 3;
  opt.t = 1;
  opt.slots_per_shard = 16;
  opt.min_batch = kWaveOps;
  opt.max_batch = kWaveOps;
  opt.min_batch_wait = std::chrono::microseconds(200'000);
  ShardedKvStore store(std::move(opt));
  KvClient& client = store.client();

  std::vector<std::string> keys;
  for (int k = 0; k < 8; ++k) keys.push_back("key-" + std::to_string(k));
  std::vector<Ticket> tickets(kWaveOps);
  auto run_wave = [&](std::uint32_t wave) {
    for (std::uint32_t k = 0; k < kWaveOps; ++k) {
      const std::string& key = keys[(wave + k) % keys.size()];
      tickets[k] = (k % 4 == 0)
                       ? client.put(key, Value::from_int64(wave + k))
                       : client.get(key);
    }
    for (std::uint32_t k = 0; k < kWaveOps; ++k) {
      EXPECT_TRUE(client.wait(tickets[k]).status.ok());
    }
  };

  for (std::uint32_t wave = 0; wave < 8; ++wave) run_wave(wave);  // warm

  const alloc::Window w;
  for (std::uint32_t wave = 0; wave < kWaves; ++wave) run_wave(wave);
  store.drain();
  const double per_op =
      static_cast<double>(w.allocations()) /
      static_cast<double>(kWaves * kWaveOps);
  EXPECT_LE(per_op, 1.0)
      << "sharded KvClient ops must stay within one allocation per op ("
      << w.allocations() << " allocs over " << kWaves * kWaveOps << " ops)";
}

TEST(AllocRegression, ShardedKvCallbackOpsAreAllocFree) {
  // The callback-mode twin of the gate above, and the shape the repo
  // benchmark's kv workloads run: the same pinned 64-op windows, each
  // wave drained before the next. Slots come back through the pool's
  // lock-free return stack, so the waves reuse the same 64 slots.
  constexpr std::uint32_t kWaveOps = 64;
  constexpr std::uint32_t kWaves = 8;
  ShardedKvStore::Options opt;
  opt.shards = 1;
  opt.n = 3;
  opt.t = 1;
  opt.slots_per_shard = 16;
  opt.min_batch = kWaveOps;
  opt.max_batch = kWaveOps;
  opt.min_batch_wait = std::chrono::microseconds(200'000);
  ShardedKvStore store(std::move(opt));
  KvClient& client = store.client();

  std::vector<std::string> keys;
  for (int k = 0; k < 8; ++k) keys.push_back("key-" + std::to_string(k));
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> failed{0};
  auto run_wave = [&](std::uint32_t wave) {
    for (std::uint32_t k = 0; k < kWaveOps; ++k) {
      const std::string& key = keys[(wave + k) % keys.size()];
      // Two pointers: std::function's inline storage.
      OpCallback cb = [d = &done, f = &failed](const OpResult& r) {
        (r.status.ok() ? d : f)->fetch_add(1, std::memory_order_relaxed);
      };
      if (k % 4 == 0) {
        client.put(key, Value::from_int64(wave + k), std::move(cb));
      } else {
        client.get(key, kAnyReplica, std::move(cb));
      }
    }
    store.drain();
  };

  for (std::uint32_t wave = 0; wave < 8; ++wave) run_wave(wave);  // warm

  const alloc::Window w;
  for (std::uint32_t wave = 0; wave < kWaves; ++wave) run_wave(wave);
  const std::uint64_t allocs = w.allocations();
  EXPECT_EQ(allocs, 0u) << "sharded KvClient callback ops allocated ("
                        << allocs << " allocs over " << kWaves * kWaveOps
                        << " ops)";
  EXPECT_EQ(client.pool().capacity(), kWaveOps);
  EXPECT_EQ(done.load(), 16u * kWaveOps);
  EXPECT_EQ(failed.load(), 0u);
}

}  // namespace
}  // namespace tbr
