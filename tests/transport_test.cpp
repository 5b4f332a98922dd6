// Socket runtime (src/transport): the register over real loopback TCP —
// basic semantics via the unified client, all four algorithms on the
// wire, crash behaviour and the inbound frame ring. Concurrent-history
// atomicity is swept in workload_test, alongside the sim and threaded
// engines.
#include <gtest/gtest.h>

#include <array>
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
