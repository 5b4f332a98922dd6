// Socket runtime (src/transport): the register over real loopback TCP —
// basic semantics via the unified client, all four algorithms on the
// wire, crash behaviour, the loops' wake handshake and syscall counts,
// frame-cap refusal and the inbound frame ring. Concurrent-history
// atomicity is swept in workload_test, alongside the sim and threaded
// engines.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "transport/frame_buffer.hpp"
#include "transport/socket_network.hpp"

namespace tbr {
namespace {

GroupConfig make_cfg(std::uint32_t n, std::uint32_t t) {
  GroupConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.writer = 0;
  cfg.initial = Value::from_int64(0);
  return cfg;
}

SocketNetwork::Options net_options(Algorithm algo, std::uint32_t n,
                                   std::uint32_t t) {
  SocketNetwork::Options opt;
  opt.cfg = make_cfg(n, t);
  opt.algo = algo;
  return opt;
}

TEST(SocketNetworkTest, WriteThenReadEverywhere) {
  SocketNetwork net(net_options(Algorithm::kTwoBit, 5, 2));
  net.start();
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(77)).status.ok());
  for (ProcessId pid = 0; pid < 5; ++pid) {
    const OpResult out = net.client().read_sync(pid);
    EXPECT_EQ(out.value.to_int64(), 77) << "process " << pid;
    EXPECT_EQ(out.version, 1);
  }
  net.stop();
}

TEST(SocketNetworkTest, SequentialWritesVisibleInOrder) {
  SocketNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  for (int k = 1; k <= 20; ++k) {
    ASSERT_TRUE(net.client().write_sync(Value::from_int64(k)).status.ok());
    const OpResult out =
        net.client().read_sync(static_cast<ProcessId>(k % 3));
    EXPECT_EQ(out.value.to_int64(), k);
  }
  net.stop();
}

TEST(SocketNetworkTest, StringValuesSurviveTheWire) {
  SocketNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  const std::string payload(4096, 'x');  // bigger than one read chunk slice
  ASSERT_TRUE(
      net.client().write_sync(Value::from_string(payload + "end")).status.ok());
  EXPECT_EQ(net.client().read_sync(2).value.to_string(), payload + "end");
  net.stop();
}

TEST(SocketNetworkTest, TwoBitFramesCostTwoBitsOnTcpToo) {
  SocketNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(1)).status.ok());
  (void)net.client().read_sync(1);
  const auto stats = net.stats_snapshot();
  EXPECT_GT(stats.total_sent(), 0u);
  EXPECT_EQ(stats.max_control_bits_per_msg(), 2u)
      << "the headline property is transport-independent";
  net.stop();
}

TEST(SocketNetworkTest, AllFourAlgorithmsSpeakTcp) {
  for (const auto algo : all_algorithms()) {
    SocketNetwork net(net_options(algo, 3, 1));
    net.start();
    ASSERT_TRUE(net.client().write_sync(Value::from_int64(11)).status.ok());
    EXPECT_EQ(net.client().read_sync(1).value.to_int64(), 11)
        << algorithm_name(algo);
    net.stop();
  }
}

TEST(SocketNetworkTest, PipelinedBatchCompletesInOrderPerProcess) {
  // submit(span) through the socket client: the per-process chains keep at
  // most one op in flight per loop thread, the rest pipeline behind it.
  SocketNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  std::array<RegisterOp, 6> ops;
  for (int k = 0; k < 3; ++k) {
    ops[2 * k].kind = OpKind::kWrite;
    ops[2 * k].value = Value::from_int64(k + 1);
    ops[2 * k + 1].kind = OpKind::kRead;
    ops[2 * k + 1].reader = 1;
  }
  std::array<Ticket, 6> tickets;
  ASSERT_EQ(net.client().submit(ops, tickets.data()), 6u);
  SeqNo last_version = -1;
  for (int k = 0; k < 6; ++k) {
    const OpResult r = net.client().wait(tickets[k]);
    EXPECT_TRUE(r.status.ok()) << r.status.message();
    if (k % 2 == 1) {
      EXPECT_GE(r.version, last_version);
      last_version = r.version;
    }
  }
  const OpResult after = net.client().read_sync(2);
  EXPECT_EQ(after.version, 3);
  EXPECT_EQ(after.value.to_int64(), 3);
  net.stop();
}

TEST(SocketNetworkTest, CrashedProcessRejectsOpsAndGroupSurvives) {
  SocketNetwork net(net_options(Algorithm::kTwoBit, 5, 2));
  net.start();
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(1)).status.ok());
  net.crash(4);
  while (!net.crashed(4)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(net.client().read_sync(4).status.code(), StatusCode::kCrashed);
  // Peers observe the dead channel; quorums never needed p4.
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(2)).status.ok());
  EXPECT_EQ(net.client().read_sync(1).value.to_int64(), 2);
  net.stop();
}

TEST(SocketNetworkTest, MinorityCrashMidProtocol) {
  SocketNetwork net(net_options(Algorithm::kTwoBit, 5, 2));
  net.start();
  net.crash(3);
  net.crash(4);  // f = t = 2: the group must still be live
  for (int k = 1; k <= 10; ++k) {
    ASSERT_TRUE(net.client().write_sync(Value::from_int64(k)).status.ok());
    EXPECT_EQ(net.client()
                  .read_sync(static_cast<ProcessId>(k % 3))
                  .value.to_int64(),
              k);
  }
  net.stop();
}

TEST(SocketNetworkTest, MultiLoopCrashAndRecoverAcrossLoops) {
  // Crash and rejoin with processes sharded over several event loops: the
  // reattach commands cross loop boundaries (victim and peers live on
  // different loops), and the rejoined process serves reads again.
  auto opt = net_options(Algorithm::kTwoBit, 5, 2);
  opt.loops = 4;
  SocketNetwork net(std::move(opt));
  ASSERT_EQ(net.loop_count(), 4u);
  net.start();
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(1)).status.ok());
  net.crash(3);
  while (!net.crashed(3)) {  // crash is a command on the victim's loop
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(2)).status.ok());
  EXPECT_EQ(net.client().read_sync(1).value.to_int64(), 2);
  net.recover(3);
  // Rejoin re-meshes asynchronously; poll until the rejoiner serves reads.
  OpResult out;
  for (int attempt = 0; attempt < 500; ++attempt) {
    out = net.client().read_sync(3);
    if (out.status.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(out.status.ok()) << out.status.message();
  EXPECT_EQ(out.value.to_int64(), 2);
  EXPECT_FALSE(net.crashed(3));
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(3)).status.ok());
  EXPECT_EQ(net.client().read_sync(3).value.to_int64(), 3);
  net.stop();
}

TEST(SocketNetworkTest, StopIsIdempotentAndDestructorSafe) {
  SocketNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(1)).status.ok());
  net.stop();
  net.stop();
}

// ---- the loops' wake handshake and syscall counts ----------------------------------

/// One op outstanding at a time, resolved by its callback on a loop
/// thread; the issuing thread waits for it with a deadline, so an op a
/// loop never picks up fails the test instead of hanging it.
class OneOpAtATime {
 public:
  OpCallback callback() {
    return [this](const OpResult& r) {
      {
        const std::scoped_lock lock(mu_);
        ok_ = r.status.ok();
        done_ = true;
      }
      cv_.notify_one();
    };
  }
  /// False if the deadline passed first. Re-arms for the next op.
  bool wait(std::chrono::steady_clock::time_point deadline, bool& ok) {
    std::unique_lock lock(mu_);
    if (!cv_.wait_until(lock, deadline, [this] { return done_; })) {
      return false;
    }
    ok = ok_;
    done_ = false;
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  bool ok_ = false;
};

TEST(SocketNetworkTest, WakeOnlyWhileSleepingStrandsNoOp) {
  // A submit writes a loop's wake pipe only while the loop sleeps. If the
  // handshake ever let a command land unseen just as its loop went to
  // sleep, that op would wait forever. Four callers each run 2,000
  // callback ops, one at a time, pausing 0-50 us after each: a caller
  // often submits while the loop that completed its last op is still
  // flushing, and the loops keep falling asleep between ops.
  constexpr int kCallers = 4;
  constexpr int kOpsPerCaller = 2000;
  for (const std::uint32_t loops : {1u, 2u, 3u}) {
    SCOPED_TRACE("loops=" + std::to_string(loops));
    // Outlive the network: stop() resolves a stalled op into its waiter.
    std::array<OneOpAtATime, kCallers> waiters;
    auto opt = net_options(Algorithm::kTwoBit, 3, 1);
    opt.loops = loops;
    SocketNetwork net(std::move(opt));
    net.start();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    std::atomic<int> ok{0};
    std::atomic<int> failed{0};
    std::atomic<int> stalled{0};  ///< callers whose op missed the deadline
    {
      std::vector<std::jthread> callers;
      for (int c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
          std::mt19937 rng(static_cast<std::uint32_t>(97 * c + loops));
          std::uniform_int_distribution<int> pause_us(0, 50);
          std::uniform_int_distribution<int> percent(0, 99);
          OneOpAtATime& op = waiters[c];
          for (int k = 0; k < kOpsPerCaller; ++k) {
            if (percent(rng) < 90) {
              net.client().read(kAnyReplica, op.callback());
            } else {
              net.client().write(Value::from_int64(c * kOpsPerCaller + k),
                                 op.callback());
            }
            bool op_ok = false;
            if (!op.wait(deadline, op_ok)) {
              stalled.fetch_add(1);
              return;
            }
            (op_ok ? ok : failed).fetch_add(1);
            std::this_thread::sleep_for(
                std::chrono::microseconds(pause_us(rng)));
          }
        });
      }
    }  // every caller done or stalled
    EXPECT_EQ(stalled.load(), 0)
        << stalled.load() << " ops outstanding at the deadline; "
        << ok.load() + failed.load() << " of " << kCallers * kOpsPerCaller
        << " completed";
    EXPECT_EQ(ok.load(), kCallers * kOpsPerCaller);
    EXPECT_EQ(failed.load(), 0);
    net.stop();
  }
}

TEST(SocketNetworkTest, ClosedLoopMakesNoEmptyReads) {
  // A short closed loop shaped like the benchmark's sock-read90: n = 3 on
  // 2 loops, 12 ops in flight from one generator thread, 90% reads, 8-B
  // values. A read round stops at a short read, so no socket read ever
  // comes back EAGAIN, and a flush sends a round's frames to one peer
  // together, so there are never more sends than frames. Per-op counts
  // by kind are printed; exact gates need a deterministic kernel.
  constexpr std::uint64_t kInFlight = 12;
  constexpr std::uint64_t kWarmOps = 1000;
  constexpr std::uint64_t kOps = 10000;
  // Declared before the network: stop() in its destructor resolves any op
  // still in flight into these, also when an assertion returns early.
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t done = 0;  // guarded by mu
  std::atomic<std::uint64_t> failed{0};
  auto opt = net_options(Algorithm::kTwoBit, 3, 1);
  opt.loops = 2;
  SocketNetwork net(std::move(opt));
  net.start();
  auto on_done = [&](const OpResult& r) {
    if (!r.status.ok()) failed.fetch_add(1, std::memory_order_relaxed);
    {
      const std::scoped_lock lock(mu);
      ++done;
    }
    cv.notify_one();
  };
  auto issue = [&net, &on_done](std::uint64_t k) {
    if (k % 10 == 0) {
      net.client().write(Value::from_int64(static_cast<std::int64_t>(k)),
                         on_done);
    } else {
      net.client().read(kAnyReplica, on_done);
    }
  };
  // Keep kInFlight ops outstanding until `until` have completed; false if
  // the completions stop coming.
  std::uint64_t issued = 0;
  auto run_until = [&](std::uint64_t until) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    std::uint64_t seen = 0;
    for (;;) {
      while (issued < until && issued < seen + kInFlight) issue(issued++);
      std::unique_lock lock(mu);
      if (!cv.wait_until(lock, deadline, [&] { return done > seen; })) {
        return false;
      }
      seen = done;
      if (seen >= until) return true;
    }
  };
  ASSERT_TRUE(run_until(kWarmOps));
  const auto before = net.backpressure_snapshot().syscalls;
  const std::uint64_t frames_before = net.stats_snapshot().total_sent();
  const bool finished = run_until(kWarmOps + kOps);
  const auto after = net.backpressure_snapshot().syscalls;
  const std::uint64_t frames = net.stats_snapshot().total_sent() -
                               frames_before;
  net.stop();
  ASSERT_TRUE(finished) << "completions stopped before " << kOps << " ops";
  ASSERT_EQ(failed.load(), 0u);

  const double ops = static_cast<double>(kOps);
  auto per_op = [ops](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b) / ops;
  };
  std::printf(
      "syscalls per op: %.2f total = %.2f reads (%.2f EAGAIN) + %.2f sends "
      "+ %.2f wake writes + %.2f epoll_wait + %.2f epoll_ctl; "
      "%.2f frames per op\n",
      per_op(after.total(), before.total()), per_op(after.reads, before.reads),
      per_op(after.eagain_reads, before.eagain_reads),
      per_op(after.sends, before.sends),
      per_op(after.wake_writes, before.wake_writes),
      per_op(after.epoll_waits, before.epoll_waits),
      per_op(after.epoll_ctls, before.epoll_ctls),
      static_cast<double>(frames) / ops);
  EXPECT_EQ(after.eagain_reads - before.eagain_reads, 0u)
      << "a read round must stop at its first short read";
  EXPECT_GT(after.sends, before.sends);
  EXPECT_LE(after.sends - before.sends, frames)
      << "a flush sends the round's frames to one peer together";
}

// ---- values above the frame cap -------------------------------------------------------

TEST(SocketNetworkTest, WriteAboveTheFrameCapFailsFastAndKeepsTheMesh) {
  // A value one byte over max_value_bytes() would make a frame one byte
  // over FrameBuffer::kMaxFrame, which every peer refuses by closing its
  // channel to the sender. The write fails at issue instead, before any
  // frame exists, and the mesh serves the next write and every read.
  std::vector<Algorithm> algos = all_algorithms();
  for (const Algorithm algo : fastread_algorithms()) algos.push_back(algo);
  for (const Algorithm algo : algos) {
    SCOPED_TRACE(algorithm_name(algo));
    SocketNetwork net(net_options(algo, 3, 1));
    net.start();
    ASSERT_LT(net.max_value_bytes(), FrameBuffer::kMaxFrame);
    ASSERT_TRUE(net.client().write_sync(Value::from_int64(5)).status.ok());
    const Ticket t =
        net.client().write(Value::filler(net.max_value_bytes() + 1));
    OpResult refused;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!net.client().try_result(t, refused) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(refused.status.code(), StatusCode::kTooLarge)
        << "an oversized write must fail at issue, not wait for replies";
    ASSERT_TRUE(net.client().write_sync(Value::from_int64(6)).status.ok());
    for (ProcessId reader = 0; reader < 3; ++reader) {
      const OpResult r = net.client().read_sync(reader);
      ASSERT_TRUE(r.status.ok()) << r.status.message();
      EXPECT_EQ(r.value.to_int64(), 6) << "reader " << reader;
      EXPECT_EQ(r.version, 2) << "the refused write never reached a replica";
    }
    EXPECT_EQ(net.backpressure_snapshot().refused_frames, 0u);
    net.stop();
  }
}

// ---- the inbound frame ring --------------------------------------------------------

TEST(FrameBufferTest, DrainsManySmallFramesFromOneBufferedRead) {
  // One large buffered read delivering hundreds of small frames — the case
  // the consumed-offset ring exists for. Every frame must come back intact
  // and in order, with the consumed prefix folded away only on the
  // amortized compaction schedule (never once per drain).
  FrameBuffer buf;
  constexpr int kFrames = 512;
  for (int k = 0; k < kFrames; ++k) {
    FrameBuffer::append_frame(buf.tail(),
                              "frame-" + std::to_string(k) + "-payload");
  }
  std::string_view frame;
  for (int k = 0; k < kFrames; ++k) {
    ASSERT_TRUE(buf.next_frame(frame)) << "frame " << k;
    EXPECT_EQ(frame, "frame-" + std::to_string(k) + "-payload");
  }
  EXPECT_FALSE(buf.next_frame(frame));
  EXPECT_EQ(buf.pending_bytes(), 0u);
  EXPECT_LT(buf.compactions(), static_cast<std::uint64_t>(kFrames) / 4)
      << "draining a frame must not memmove the whole remainder each time";
}

TEST(FrameBufferTest, PartialFramesSpanAppends) {
  // Stream bytes arrive in arbitrary slices: a frame split across appends
  // must only surface once complete, and zero-length frames are legal.
  FrameBuffer buf;
  std::string wire;
  FrameBuffer::append_frame(wire, "alpha");
  FrameBuffer::append_frame(wire, "");
  FrameBuffer::append_frame(wire, std::string(3000, 'z'));
  std::string_view frame;
  for (std::size_t cut = 1; cut < wire.size(); cut += 911) {
    FrameBuffer sliced;
    sliced.tail().append(wire, 0, cut);
    std::vector<std::string> seen;
    while (sliced.next_frame(frame)) seen.push_back(std::string(frame));
    sliced.tail().append(wire, cut, std::string::npos);
    while (sliced.next_frame(frame)) seen.push_back(std::string(frame));
    ASSERT_EQ(seen.size(), 3u) << "cut at " << cut;
    EXPECT_EQ(seen[0], "alpha");
    EXPECT_EQ(seen[1], "");
    EXPECT_EQ(seen[2], std::string(3000, 'z'));
  }
  (void)buf;
}

TEST(FrameBufferTest, AcceptsAFrameOfExactlyTheCapAndRefusesOneByteMore) {
  FrameBuffer at_cap;
  FrameBuffer::append_frame(at_cap.tail(),
                            std::string(FrameBuffer::kMaxFrame, 'c'));
  std::string_view frame;
  ASSERT_TRUE(at_cap.next_frame(frame));
  EXPECT_EQ(frame.size(), FrameBuffer::kMaxFrame);
  EXPECT_FALSE(at_cap.refused());

  // The header alone condemns the frame: no payload byte has arrived.
  FrameBuffer over;
  const auto len = static_cast<std::uint32_t>(FrameBuffer::kMaxFrame + 1);
  for (int i = 0; i < 4; ++i) {
    over.tail().push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
  }
  EXPECT_FALSE(over.next_frame(frame));
  EXPECT_TRUE(over.refused());
  over.tail().append(4096, 'c');
  EXPECT_FALSE(over.next_frame(frame)) << "a refused stream stays refused";
  over.clear();
  EXPECT_FALSE(over.refused());
}

TEST(FrameBufferTest, InterleavedAppendDrainKeepsOffsetBounded) {
  // Producer/consumer in lockstep with a persistent one-frame backlog: the
  // read offset must stay bounded by compaction instead of growing without
  // limit (the ring's whole point).
  FrameBuffer buf;
  std::string_view frame;
  FrameBuffer::append_frame(buf.tail(), "backlog");
  for (int k = 0; k < 10000; ++k) {
    FrameBuffer::append_frame(buf.tail(), "item-" + std::to_string(k));
    ASSERT_TRUE(buf.next_frame(frame));
  }
  EXPECT_LT(buf.read_offset() + buf.pending_bytes(), 4096u)
      << "storage must stay near the backlog size, not the bytes ever seen";
  ASSERT_TRUE(buf.next_frame(frame));
  EXPECT_EQ(frame, "item-9999");
}

}  // namespace
}  // namespace tbr
