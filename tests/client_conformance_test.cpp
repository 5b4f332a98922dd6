// Client-API conformance: the SAME operations produce the SAME Status
// outcomes on every engine that hosts a client.
//
// The point of the unified client layer is that "what happened to my op"
// no longer depends on which runtime executed it: a crashed target is
// StatusCode::kCrashed everywhere, a stopped engine is kShutdown, an
// over-budget crash set is kLivenessLost, and a coalesced write reports
// absorbed = true with the surviving version — whether the op ran on the
// simulator, on real threads, on the flat sim-backed store, or on the
// sharded engine's workers.
//
// Register engines under test: SimRegisterGroup, ThreadNetwork,
//                              SocketNetwork (loopback TCP).
// KV engines under test:       KvStore (flat), ShardedKvStore.
//
// (The wall-clock runtimes — threaded and socket — intentionally have no
// liveness verdict: real time has no "the queue drained" moment, so an op
// against a dead quorum waits until its target crashes or the network
// stops. The liveness cases below therefore cover the three sim-backed
// engines.)

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/kv_store.hpp"
#include "kvstore/sharded_store.hpp"
#include "runtime/thread_network.hpp"
#include "transport/socket_network.hpp"
#include "workload/sim_register_group.hpp"

namespace tbr {
namespace {

GroupConfig small_cfg(std::uint32_t n = 3, std::uint32_t t = 1) {
  GroupConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.writer = 0;
  cfg.initial = Value::from_string("v0");
  return cfg;
}

SimRegisterGroup make_sim_group(Algorithm algo = Algorithm::kTwoBit) {
  SimRegisterGroup::Options opt;
  opt.cfg = small_cfg();
  opt.algo = algo;
  return SimRegisterGroup(std::move(opt));
}

std::unique_ptr<ThreadNetwork> make_thread_net(
    Algorithm algo = Algorithm::kTwoBit) {
  ThreadNetwork::Options opt;
  opt.cfg = small_cfg();
  opt.algo = algo;
  opt.max_delay_us = 0;
  auto net = std::make_unique<ThreadNetwork>(opt);
  net->start();
  return net;
}

std::unique_ptr<SocketNetwork> make_socket_net(
    Algorithm algo = Algorithm::kTwoBit) {
  SocketNetwork::Options opt;
  opt.cfg = small_cfg();
  opt.algo = algo;
  auto net = std::make_unique<SocketNetwork>(std::move(opt));
  net->start();
  return net;
}

/// The shared register-client script: some writes and reads, then ops
/// against a crashed reader and a crashed writer. Returns the outcome
/// codes in script order so both engines can be compared verbatim.
struct RegisterScriptOutcome {
  std::vector<StatusCode> codes;
  std::string last_read_value;
  SeqNo last_read_version = -1;
};

RegisterScriptOutcome run_register_script(RegisterClient& client,
                                          const std::function<void(ProcessId)>& crash) {
  RegisterScriptOutcome out;
  out.codes.push_back(
      client.write_sync(Value::from_string("a")).status.code());
  out.codes.push_back(
      client.write_sync(Value::from_string("b")).status.code());
  const OpResult read = client.read_sync(1);
  out.codes.push_back(read.status.code());
  out.last_read_value = read.value.to_string();
  out.last_read_version = read.version;

  crash(2);  // a reader replica
  out.codes.push_back(client.read_sync(2).status.code());   // crashed reader
  out.codes.push_back(client.read_sync(1).status.code());   // live reader
  crash(0);  // the writer
  out.codes.push_back(
      client.write_sync(Value::from_string("c")).status.code());
  return out;
}

TEST(ClientConformance, RegisterScriptMatchesAcrossAllRegisterEngines) {
  auto group = make_sim_group();
  const auto sim = run_register_script(
      group.client(), [&group](ProcessId pid) { group.crash(pid); });

  auto net = make_thread_net();
  const auto threaded = run_register_script(
      net->client(), [&net](ProcessId pid) { net->crash(pid); });

  // Socket crash markers queue FIFO behind the same node's pending
  // commands, exactly like the threaded mailbox, so no settling is needed
  // between crash and the next op against that node.
  auto sock = make_socket_net();
  const auto socket = run_register_script(
      sock->client(), [&sock](ProcessId pid) { sock->crash(pid); });

  ASSERT_EQ(sim.codes.size(), threaded.codes.size());
  EXPECT_EQ(sim.codes, threaded.codes);
  ASSERT_EQ(sim.codes.size(), socket.codes.size());
  EXPECT_EQ(sim.codes, socket.codes);
  EXPECT_EQ(sim.last_read_value, "b");
  EXPECT_EQ(threaded.last_read_value, "b");
  EXPECT_EQ(socket.last_read_value, "b");
  EXPECT_EQ(sim.last_read_version, 2);
  EXPECT_EQ(threaded.last_read_version, 2);
  EXPECT_EQ(socket.last_read_version, 2);

  const std::vector<StatusCode> expected{
      StatusCode::kOk,      StatusCode::kOk,      StatusCode::kOk,
      StatusCode::kCrashed, StatusCode::kOk,      StatusCode::kCrashed};
  EXPECT_EQ(sim.codes, expected);
}

TEST(ClientConformance, CrashUnderInFlightOpThenRejoinOnEveryRegisterEngine) {
  // The model lets a crashed process's last operation vanish (§2.2) but
  // still owes its client an outcome: the callback of a read in flight at
  // p2 fires exactly once, and the rejoined p2 serves the next read. The
  // sim fails the op at the crash; on the wall-clock engines the crash
  // marker races the replies, so the read may also have finished.
  struct Seen {
    std::atomic<int> calls{0};
    std::atomic<StatusCode> code{StatusCode::kShutdown};
  };
  const auto read_at_p2 = [](RegisterClient& client, Seen& seen) {
    client.read(2, [&seen](const OpResult& r) {
      seen.code = r.status.code();
      ++seen.calls;
    });
  };
  {
    auto group = make_sim_group();
    Seen seen;
    read_at_p2(group.client(), seen);
    group.crash(2);
    group.settle();
    group.recover(2);
    group.settle();
    EXPECT_EQ(seen.calls, 1);
    EXPECT_EQ(seen.code, StatusCode::kCrashed);
    EXPECT_EQ(group.client().read_sync(2).status.code(), StatusCode::kOk);
  }
  const auto eventually = [](const std::function<bool()>& done) {
    for (int k = 0; k < 10'000 && !done(); ++k) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
  };
  const auto wall_clock = [&](auto& net) {
    Seen seen;
    read_at_p2(net.client(), seen);
    net.crash(2);
    ASSERT_TRUE(eventually([&] { return net.crashed(2) && seen.calls > 0; }));
    net.recover(2);
    ASSERT_TRUE(eventually([&] { return !net.crashed(2); }));
    EXPECT_EQ(seen.calls, 1);
    EXPECT_TRUE(seen.code == StatusCode::kCrashed ||
                seen.code == StatusCode::kOk);
    EXPECT_EQ(net.client().read_sync(2).status.code(), StatusCode::kOk);
  };
  wall_clock(*make_thread_net());
  wall_clock(*make_socket_net());
}

TEST(ClientConformance, FastReadEnginesMatchRegisterScriptVerbatim) {
  // The SAME crash script, byte for byte, against both fast-path read
  // engines (src/fastread/) on all three register runtimes: new protocol,
  // same Status surface.
  const std::vector<StatusCode> expected{
      StatusCode::kOk,      StatusCode::kOk,      StatusCode::kOk,
      StatusCode::kCrashed, StatusCode::kOk,      StatusCode::kCrashed};
  for (const auto algo : fastread_algorithms()) {
    SCOPED_TRACE(algorithm_name(algo));

    auto group = make_sim_group(algo);
    const auto sim = run_register_script(
        group.client(), [&group](ProcessId pid) { group.crash(pid); });
    EXPECT_EQ(sim.codes, expected);
    EXPECT_EQ(sim.last_read_value, "b");
    EXPECT_EQ(sim.last_read_version, 2);

    auto net = make_thread_net(algo);
    const auto threaded = run_register_script(
        net->client(), [&net](ProcessId pid) { net->crash(pid); });
    EXPECT_EQ(threaded.codes, expected);
    EXPECT_EQ(threaded.last_read_value, "b");
    EXPECT_EQ(threaded.last_read_version, 2);

    auto sock = make_socket_net(algo);
    const auto socket = run_register_script(
        sock->client(), [&sock](ProcessId pid) { sock->crash(pid); });
    EXPECT_EQ(socket.codes, expected);
    EXPECT_EQ(socket.last_read_value, "b");
    EXPECT_EQ(socket.last_read_version, 2);
  }
}

TEST(ClientConformance, FastReadEnginesCallbackShutdownAndLiveness) {
  for (const auto algo : fastread_algorithms()) {
    SCOPED_TRACE(algorithm_name(algo));
    {
      // Callback mode auto-recycles and reports kOk.
      auto group = make_sim_group(algo);
      int completions = 0;
      StatusCode seen = StatusCode::kShutdown;
      const Ticket t = group.client().write(Value::from_string("cb"),
                                            [&](const OpResult& r) {
                                              ++completions;
                                              seen = r.status.code();
                                            });
      EXPECT_FALSE(t.valid()) << "callback mode returns an empty ticket";
      group.settle();
      EXPECT_EQ(completions, 1);
      EXPECT_EQ(seen, StatusCode::kOk);
    }
    {
      // Stopped engine → kShutdown, uniformly.
      auto net = make_thread_net(algo);
      (void)net->client().write_sync(Value::from_int64(1));
      net->stop();
      EXPECT_EQ(net->client().write_sync(Value::from_int64(2)).status.code(),
                StatusCode::kShutdown);
      EXPECT_EQ(net->client().read_sync(1).status.code(),
                StatusCode::kShutdown);
    }
    {
      // Over-budget crash set → kLivenessLost on the sim engine.
      auto group = make_sim_group(algo);
      group.crash(1);
      group.crash(2);
      EXPECT_EQ(group.client().write_sync(Value::from_int64(9)).status.code(),
                StatusCode::kLivenessLost);
    }
    {
      // try_result polls without blocking.
      auto group = make_sim_group(algo);
      const Ticket t = group.client().write(Value::from_int64(5));
      OpResult out;
      EXPECT_FALSE(group.client().try_result(t, out));
      group.settle();
      ASSERT_TRUE(group.client().try_result(t, out));
      EXPECT_TRUE(out.status.ok());
    }
  }
}

TEST(ClientConformance, FastReadEnginesPipelineBatchesThroughChains) {
  // The submit(span) pipeline script from RegisterBatchPipelinesThroughChains
  // on the fast-path engines: monotone read versions, final version 3.
  auto run = [](RegisterClient& client) {
    std::array<RegisterOp, 6> ops;
    for (int k = 0; k < 3; ++k) {
      ops[2 * k].kind = OpKind::kWrite;
      ops[2 * k].value = Value::from_int64(k + 1);
      ops[2 * k + 1].kind = OpKind::kRead;
      ops[2 * k + 1].reader = 1;
    }
    std::array<Ticket, 6> tickets;
    EXPECT_EQ(client.submit(ops, tickets.data()), 6u);
    SeqNo last_version = -1;
    for (int k = 0; k < 6; ++k) {
      const OpResult r = client.wait(tickets[k]);
      EXPECT_TRUE(r.status.ok()) << r.status.message();
      if (k % 2 == 1) {
        EXPECT_GE(r.version, last_version);
        last_version = r.version;
      }
    }
    const OpResult after = client.read_sync(2);
    EXPECT_TRUE(after.status.ok());
    EXPECT_EQ(after.version, 3) << "all three writes completed before this";
    EXPECT_EQ(after.value.to_int64(), 3);
  };
  for (const auto algo : fastread_algorithms()) {
    SCOPED_TRACE(algorithm_name(algo));
    auto group = make_sim_group(algo);
    run(group.client());
    auto net = make_thread_net(algo);
    run(net->client());
  }
}

TEST(ClientConformance, RegisterBatchPipelinesThroughChains) {
  // submit(span) on a register client serializes per process via the
  // client chains: every op completes, read versions are monotonic along
  // the reader's chain (writes and reads live on different processes, so
  // there is no cross-chain order), and once everything is waited a fresh
  // read observes the last write.
  auto run = [](RegisterClient& client) {
    std::array<RegisterOp, 6> ops;
    for (int k = 0; k < 3; ++k) {
      ops[2 * k].kind = OpKind::kWrite;
      ops[2 * k].value = Value::from_int64(k + 1);
      ops[2 * k + 1].kind = OpKind::kRead;
      ops[2 * k + 1].reader = 1;
    }
    std::array<Ticket, 6> tickets;
    EXPECT_EQ(client.submit(ops, tickets.data()), 6u);
    SeqNo last_version = -1;
    for (int k = 0; k < 6; ++k) {
      const OpResult r = client.wait(tickets[k]);
      EXPECT_TRUE(r.status.ok()) << r.status.message();
      if (k % 2 == 1) {
        EXPECT_GE(r.version, last_version);
        last_version = r.version;
      }
    }
    const OpResult after = client.read_sync(2);
    EXPECT_TRUE(after.status.ok());
    EXPECT_EQ(after.version, 3) << "all three writes completed before this";
    EXPECT_EQ(after.value.to_int64(), 3);
  };
  auto group = make_sim_group();
  run(group.client());
  auto net = make_thread_net();
  run(net->client());
  auto sock = make_socket_net();
  run(sock->client());
}

TEST(ClientConformance, CallbackModeAutoRecyclesAndReportsStatus) {
  auto run = [](RegisterClient& client, auto drive) {
    int completions = 0;
    StatusCode seen = StatusCode::kOk;
    const Ticket t = client.write(Value::from_string("cb"),
                                  [&](const OpResult& r) {
                                    ++completions;
                                    seen = r.status.code();
                                  });
    EXPECT_FALSE(t.valid()) << "callback mode returns an empty ticket";
    drive();
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(seen, StatusCode::kOk);
  };
  auto group = make_sim_group();
  run(group.client(), [&group] { group.settle(); });
  auto net = make_thread_net();
  // Threaded: a blocking read on the same client orders after the write's
  // completion on the writer chain? No — different processes. Use a
  // follow-up write: chained behind the callback write on the writer.
  run(net->client(), [&net] {
    (void)net->client().write_sync(Value::from_string("fence"));
  });
  // Socket: the same fence discipline — the chain serializes the callback
  // write and the fence write on the writer's loop thread.
  auto sock = make_socket_net();
  run(sock->client(), [&sock] {
    (void)sock->client().write_sync(Value::from_string("fence"));
  });
}

/// stop() with a deep pipelined chain in flight. Every op must resolve:
/// kOk if it finished first, kShutdown otherwise. Failing the chain
/// cascades through synchronous complete_failed() calls, so it must unwind
/// as a loop: with a stack frame per queued op, 20k ops would overflow.
/// Later ops are refused with kShutdown.
void run_shutdown_script(RegisterClient& client,
                         const std::function<void()>& stop) {
  ASSERT_TRUE(client.write_sync(Value::from_int64(1)).status.ok());
  constexpr std::size_t kOps = 20'000;
  std::vector<RegisterOp> ops(kOps);
  for (auto& op : ops) {
    op.kind = OpKind::kWrite;
    op.value = Value::from_int64(2);
  }
  std::vector<Ticket> tickets(kOps);
  ASSERT_EQ(client.submit(ops, tickets.data()), kOps);
  stop();
  // Poll rather than wait(): an op the engine strands would block wait()
  // forever, and the deadline turns that into a failed assertion.
  std::vector<bool> resolved(kOps, false);
  std::size_t pending = kOps;
  std::size_t ok = 0;
  std::size_t shutdown = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pending > 0 && std::chrono::steady_clock::now() < deadline) {
    for (std::size_t k = 0; k < kOps; ++k) {
      OpResult r;
      if (resolved[k] || !client.try_result(tickets[k], r)) continue;
      resolved[k] = true;
      --pending;
      if (r.status.ok()) {
        ++ok;
      } else if (r.status.code() == StatusCode::kShutdown) {
        ++shutdown;
      }
    }
    if (pending > 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // A stranded op also wedges its process's chain, so a later op on it
  // would block: stop here.
  ASSERT_EQ(pending, 0u) << "stop() stranded in-flight or chained ops";
  EXPECT_EQ(ok + shutdown, kOps) << "every op is kOk or kShutdown";
  EXPECT_GT(shutdown, 0u) << "stop() should fail most of the chain";
  EXPECT_EQ(client.write_sync(Value::from_int64(3)).status.code(),
            StatusCode::kShutdown);
  EXPECT_EQ(client.read_sync(1).status.code(), StatusCode::kShutdown);
}

TEST(ClientConformance, ShutdownResolvesEveryPipelinedOpOnWallClockEngines) {
  {
    SCOPED_TRACE("threaded");
    auto net = make_thread_net();
    run_shutdown_script(net->client(), [&net] { net->stop(); });
  }
  {
    SCOPED_TRACE("socket");
    auto sock = make_socket_net();
    run_shutdown_script(sock->client(), [&sock] { sock->stop(); });
  }
}

TEST(ClientConformance, ShardedShutdownReportsShutdownStatus) {
  ShardedKvStore::Options opt;
  opt.shards = 2;
  opt.n = 3;
  opt.t = 1;
  ShardedKvStore store(std::move(opt));
  EXPECT_TRUE(store.client().put_sync("k", Value::from_int64(1)).status.ok());
  store.stop();
  EXPECT_EQ(store.client().put_sync("k", Value::from_int64(2)).status.code(),
            StatusCode::kShutdown);
  EXPECT_EQ(store.client().get_sync("k").status.code(),
            StatusCode::kShutdown);
}

// ---- the kv script across the flat and sharded stores ------------------------

KvStore make_flat_store() {
  KvStore::Options opt;
  opt.n = 3;
  opt.t = 1;
  opt.slots = 8;
  opt.initial = Value::from_string("unset");
  return KvStore(std::move(opt));
}

std::unique_ptr<ShardedKvStore> make_sharded_store(std::size_t min_batch = 0) {
  ShardedKvStore::Options opt;
  opt.shards = 2;
  opt.n = 3;
  opt.t = 1;
  opt.slots_per_shard = 8;
  opt.initial = Value::from_string("unset");
  opt.min_batch = min_batch;
  opt.min_batch_wait = std::chrono::microseconds(200'000);
  return std::make_unique<ShardedKvStore>(std::move(opt));
}

TEST(ClientConformance, KvHappyPathMatchesAcrossFlatAndSharded) {
  // Keys hashing into one slot share that slot's register (per-slot
  // histories, by design), so the never-written probe must live in a
  // different slot than "alpha" on each store.
  auto script = [](KvClient& client, std::string_view miss_key) {
    std::vector<StatusCode> codes;
    codes.push_back(
        client.put_sync("alpha", Value::from_string("1")).status.code());
    codes.push_back(
        client.put_sync("alpha", Value::from_string("2")).status.code());
    const OpResult g = client.get_sync("alpha");
    codes.push_back(g.status.code());
    EXPECT_EQ(g.value.to_string(), "2");
    EXPECT_EQ(g.version, 2);
    const OpResult miss = client.get_sync(miss_key);
    codes.push_back(miss.status.code());
    EXPECT_EQ(miss.value.to_string(), "unset");
    EXPECT_EQ(miss.version, 0);
    return codes;
  };
  auto pick_fresh = [](const std::function<bool(const std::string&)>& collides) {
    for (int i = 0;; ++i) {
      std::string candidate = "never-" + std::to_string(i);
      if (!collides(candidate)) return candidate;
    }
  };

  auto flat = make_flat_store();
  const std::string flat_miss = pick_fresh([&flat](const std::string& k) {
    return flat.slot_of(k) == flat.slot_of("alpha");
  });
  auto sharded = make_sharded_store();
  const auto alpha_at = sharded->router().place("alpha");
  const std::string sharded_miss =
      pick_fresh([&sharded, &alpha_at](const std::string& k) {
        const auto at = sharded->router().place(k);
        return at.shard == alpha_at.shard && at.slot == alpha_at.slot;
      });

  const auto flat_codes = script(flat.client(), flat_miss);
  const auto sharded_codes = script(sharded->client(), sharded_miss);
  EXPECT_EQ(flat_codes, sharded_codes);
  for (const StatusCode code : flat_codes) {
    EXPECT_EQ(code, StatusCode::kOk);
  }
}

TEST(ClientConformance, AbsorbedWritesMatchAcrossFlatAndSharded) {
  // Three puts to one key submitted into a single window: last-write-wins
  // coalescing absorbs the first two, everyone reports the surviving
  // version, and a read observes only the survivor — identically on the
  // flat store (deferred window) and the sharded store (min_batch window).
  auto script = [](KvClient& client) {
    std::array<Ticket, 3> tickets;
    for (int k = 0; k < 3; ++k) {
      tickets[k] =
          client.put("hot", Value::from_string("v" + std::to_string(k)));
    }
    std::array<OpResult, 3> results;
    for (int k = 0; k < 3; ++k) results[k] = client.wait(tickets[k]);
    for (int k = 0; k < 3; ++k) {
      EXPECT_TRUE(results[k].status.ok()) << results[k].status.message();
      EXPECT_EQ(results[k].version, results[2].version)
          << "a coalesced run lands as one protocol write";
    }
    EXPECT_TRUE(results[0].absorbed);
    EXPECT_TRUE(results[1].absorbed);
    EXPECT_FALSE(results[2].absorbed);
    const OpResult g = client.get_sync("hot");
    EXPECT_EQ(g.value.to_string(), "v2");
  };
  auto flat = make_flat_store();
  script(flat.client());
  auto sharded = make_sharded_store(/*min_batch=*/3);
  script(sharded->client());
}

TEST(ClientConformance, CrashedHomeAndReaderMatchAcrossFlatAndSharded) {
  auto script = [](KvClient& client, const std::function<void(ProcessId)>& crash_node,
                   ProcessId home) {
    std::vector<StatusCode> codes;
    codes.push_back(
        client.put_sync("key", Value::from_string("x")).status.code());
    crash_node(home);
    codes.push_back(
        client.put_sync("key", Value::from_string("y")).status.code());
    codes.push_back(client.get_sync("key", home).status.code());
    codes.push_back(client.get_sync("key").status.code());  // rotates away
    return codes;
  };
  const std::vector<StatusCode> expected{
      StatusCode::kOk, StatusCode::kCrashed, StatusCode::kCrashed,
      StatusCode::kOk};

  auto flat = make_flat_store();
  const ProcessId flat_home = flat.home_node("key");
  EXPECT_EQ(script(flat.client(),
                   [&flat](ProcessId pid) { flat.crash(pid); }, flat_home),
            expected);

  auto sharded = make_sharded_store();
  const auto at = sharded->router().place("key");
  EXPECT_EQ(script(sharded->client(),
                   [&sharded, &at](ProcessId pid) {
                     sharded->crash(at.shard, pid);
                     sharded->drain();  // crash applies between windows
                   },
                   at.home),
            expected);
}

TEST(ClientConformance, LivenessLossMatchesAcrossSimEngines) {
  // Crash beyond the budget (t = 1, two crashes): the sim-backed engines
  // all report kLivenessLost instead of hanging or aborting.
  auto group = make_sim_group();
  group.crash(1);
  group.crash(2);
  const OpResult reg = group.client().write_sync(Value::from_int64(9));
  EXPECT_EQ(reg.status.code(), StatusCode::kLivenessLost);

  auto flat = make_flat_store();
  flat.crash(0);
  flat.crash(1);
  // Read at the surviving replica: no quorum can answer.
  const OpResult kv = flat.client().get_sync("key", 2);
  EXPECT_EQ(kv.status.code(), StatusCode::kLivenessLost);

  auto sharded = make_sharded_store();
  const auto at = sharded->router().place("key");
  sharded->crash(at.shard, (at.home + 1) % 3);
  sharded->crash(at.shard, (at.home + 2) % 3);
  sharded->drain();
  const OpResult sh = sharded->client().put_sync("key", Value::from_int64(1));
  EXPECT_EQ(sh.status.code(), StatusCode::kLivenessLost);
  // The shard latches: later ops fail fast with the same code.
  const OpResult later = sharded->client().get_sync("key");
  EXPECT_EQ(later.status.code(), StatusCode::kLivenessLost);
}

TEST(ClientConformance, CallbackOpsFailOnLivenessLossAcrossFlatAndSharded) {
  // Over-budget crashes (t = 1, replicas 0 and 1 down), callback-mode ops
  // at the survivor: no wait() ever drives them, so the store's own drive
  // call (flat settle(), sharded drain()) must finish the stalled window
  // and fire every callback with kLivenessLost instead of stranding it.
  auto script = [](KvClient& client, const std::string& key,
                   const std::function<void()>& drive) {
    std::vector<StatusCode> codes;
    auto record = [&codes](const OpResult& r) {
      codes.push_back(r.status.code());
    };
    (void)client.put(key, Value::from_int64(1), record);
    (void)client.get(key, 2, record);
    drive();
    drive();
    return codes;
  };
  auto key_homed_at_2 = [](const std::function<ProcessId(const std::string&)>&
                               home_of) {
    for (int i = 0;; ++i) {
      std::string key = "stuck-" + std::to_string(i);
      if (home_of(key) == 2) return key;
    }
  };
  const std::vector<StatusCode> expected{StatusCode::kLivenessLost,
                                         StatusCode::kLivenessLost};

  auto flat = make_flat_store();
  flat.crash(0);
  flat.crash(1);
  const std::string flat_key = key_homed_at_2(
      [&flat](const std::string& k) { return flat.home_node(k); });
  EXPECT_EQ(script(flat.client(), flat_key, [&flat] { flat.settle(); }),
            expected);

  ShardedKvStore::Options opt;
  opt.shards = 1;
  opt.n = 3;
  opt.t = 1;
  opt.slots_per_shard = 8;
  ShardedKvStore sharded(std::move(opt));
  sharded.crash(0, 0);
  sharded.crash(0, 1);
  sharded.drain();
  const std::string sharded_key =
      key_homed_at_2([&sharded](const std::string& k) {
        return sharded.router().home_node(k);
      });
  EXPECT_EQ(script(sharded.client(), sharded_key,
                   [&sharded] { sharded.drain(); }),
            expected);
}

// ---- a write's result carries no value -------------------------------------

// The pool recycles an OpState whose last life may have been a read: a
// write reusing it must not hand that read's value back. A burst of reads
// leaves kBurst pooled slots holding 256-B values; the writes after it
// take those slots.
constexpr std::size_t kBurst = 16;
constexpr std::size_t kBigValue = 256;

void expect_writes_carry_no_value(
    const std::function<Ticket(std::size_t)>& read,
    const std::function<Ticket(std::size_t, Value)>& write,
    ClientBase& client) {
  std::array<Ticket, kBurst> tickets;
  for (std::size_t k = 0; k < kBurst; ++k) tickets[k] = read(k);
  for (const Ticket t : tickets) {
    const OpResult r = client.wait(t);
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    ASSERT_EQ(r.value.size(), kBigValue) << "the burst must read big values";
  }
  for (std::size_t k = 0; k < kBurst; ++k) {
    tickets[k] = write(k, Value::from_int64(static_cast<std::int64_t>(k)));
  }
  for (std::size_t k = 0; k < kBurst; ++k) {
    const OpResult r = client.wait(tickets[k]);
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    EXPECT_TRUE(r.value.empty())
        << "write " << k << " carries a " << r.value.size()
        << "-B value from its slot's last read";
  }
}

void expect_register_writes_carry_no_value(RegisterClient& client) {
  ASSERT_TRUE(client.write_sync(Value::filler(kBigValue)).status.ok());
  expect_writes_carry_no_value(
      [&client](std::size_t k) {
        return client.read(static_cast<ProcessId>(k % 3));
      },
      [&client](std::size_t, Value v) { return client.write(std::move(v)); },
      client);
}

void expect_kv_writes_carry_no_value(KvClient& client) {
  for (std::size_t k = 0; k < kBurst; ++k) {
    ASSERT_TRUE(client.put_sync("key-" + std::to_string(k),
                                Value::filler(kBigValue))
                    .status.ok());
  }
  expect_writes_carry_no_value(
      [&client](std::size_t k) {
        return client.get("key-" + std::to_string(k));
      },
      [&client](std::size_t k, Value v) {
        return client.put("key-" + std::to_string(k), std::move(v));
      },
      client);
}

TEST(ClientConformance, WriteResultsCarryNoValueOnEveryEngine) {
  {
    SCOPED_TRACE("sim");
    auto group = make_sim_group();
    expect_register_writes_carry_no_value(group.client());
  }
  {
    SCOPED_TRACE("threaded");
    auto net = make_thread_net();
    expect_register_writes_carry_no_value(net->client());
    net->stop();
  }
  {
    SCOPED_TRACE("socket");
    auto net = make_socket_net();
    expect_register_writes_carry_no_value(net->client());
    net->stop();
  }
  {
    SCOPED_TRACE("flat kv");
    auto flat = make_flat_store();
    expect_kv_writes_carry_no_value(flat.client());
  }
  {
    SCOPED_TRACE("sharded kv");
    auto sharded = make_sharded_store();
    expect_kv_writes_carry_no_value(sharded->client());
    sharded->stop();
  }
}

TEST(ClientConformance, TryResultPollsWithoutBlocking) {
  auto group = make_sim_group();
  RegisterClient& client = group.client();
  const Ticket t = client.write(Value::from_int64(5));
  OpResult out;
  EXPECT_FALSE(client.try_result(t, out)) << "nothing driven yet";
  group.settle();  // drive the simulator to completion
  ASSERT_TRUE(client.try_result(t, out));
  EXPECT_TRUE(out.status.ok());
}

}  // namespace
}  // namespace tbr
