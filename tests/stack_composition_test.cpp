// Full-stack composition: the layers are independent and stack freely.
//
//   KvStore -> MuxProcess -> ReliableLinkProcess -> TwoBitProcess
//                                -> lossy non-FIFO simulated channels
//
// Each layer was verified in isolation (kvstore_test, link_test,
// twobit_*); this suite checks the *product*: a sharded replicated store
// that stays correct and live while the network drops 10% of all frames —
// and the same stack with ABD underneath, since every layer is
// algorithm-agnostic.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "abd/specs.hpp"
#include "core/twobit_process.hpp"
#include "kvstore/kv_store.hpp"
#include "link/reliable_link.hpp"
#include "workload/algorithms.hpp"
#include "workload/workload.hpp"

namespace tbr {
namespace {

ProcessFactory linked_factory(Algorithm algo) {
  return [algo](const GroupConfig& cfg, ProcessId pid) {
    return std::make_unique<ReliableLinkProcess>(
        cfg, pid, make_register_process(algo, cfg, pid));
  };
}

class StackedStore : public testing::TestWithParam<Algorithm> {};

TEST_P(StackedStore, KvOverLinkOverLossyChannels) {
  KvStore::Options opt;
  opt.n = 5;
  opt.t = 2;
  opt.slots = 8;
  opt.seed = 31;
  opt.loss_rate = 0.10;  // the link layer underneath must absorb this
  opt.register_factory = linked_factory(GetParam());
  opt.initial = Value::from_string("?");
  KvStore store(std::move(opt));

  for (int k = 1; k <= 6; ++k) {
    store.client().put_sync("k" + std::to_string(k % 3), Value::from_int64(k));
  }
  EXPECT_EQ(store.client().get_sync("k0", 1).value.to_int64(), 6);
  EXPECT_EQ(store.client().get_sync("k1", 2).value.to_int64(), 4);
  EXPECT_EQ(store.client().get_sync("k2", 3).value.to_int64(), 5);
  EXPECT_GT(store.net().frames_lost(), 0u)
      << "the sweep must actually have exercised loss";
}

std::string algo_case_name(const testing::TestParamInfo<Algorithm>& param) {
  std::string name = algorithm_name(param.param);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Algorithms, StackedStore,
                         testing::Values(Algorithm::kTwoBit,
                                         Algorithm::kAbdUnbounded),
                         algo_case_name);

TEST(StackComposition, RegisterOverLinkUnderLossBothAlgorithms) {
  // register -> link -> 10% loss, for twobit AND abd-unbounded: the link
  // is protocol-agnostic and both protocols stay atomic and live.
  for (const Algorithm algo :
       {Algorithm::kTwoBit, Algorithm::kAbdUnbounded}) {
    SimRegisterGroup::Options engine;
    engine.cfg.n = 5;
    engine.cfg.t = 2;
    engine.cfg.writer = 0;
    engine.cfg.initial = Value::from_int64(0);
    engine.seed = 12345;
    engine.loss_rate = 0.10;
    engine.process_factory = [algo](const GroupConfig& cfg, ProcessId pid) {
      return std::make_unique<ReliableLinkProcess>(
          cfg, pid, make_register_process(algo, cfg, pid));
    };
    WorkloadOptions opt;
    opt.ops_per_process = 8;
    const auto result = run_workload(std::move(engine), opt);
    ASSERT_TRUE(result.drained) << algorithm_name(algo);
    const auto check = result.check_atomicity();
    EXPECT_TRUE(check.ok) << algorithm_name(algo) << ": " << check.error;
    EXPECT_EQ(result.completed_by_correct, result.quota_of_correct)
        << algorithm_name(algo);
  }
}

TEST(StackComposition, DoubleDecorationLinkUnderMux) {
  // Mux of link-wrapped registers on ONE network: protocol frames travel
  // as link payloads inside mux envelopes; two layers of wrapping must
  // still deliver exactly-once per slot stream.
  KvStore::Options opt;
  opt.n = 3;
  opt.t = 1;
  opt.slots = 4;
  opt.register_factory = linked_factory(Algorithm::kTwoBit);
  KvStore store(std::move(opt));
  // Four keys owning the four distinct slots, so each slot's register sees
  // exactly one key's five writes.
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 4; ++i) {
    const std::string key = "key" + std::to_string(i);
    bool taken = false;
    for (const std::string& k : keys) {
      taken |= store.slot_of(k) == store.slot_of(key);
    }
    if (!taken) keys.push_back(key);
  }
  for (int round = 1; round <= 5; ++round) {
    for (int k = 0; k < 4; ++k) {
      store.client().put_sync(keys[k], Value::from_int64(round * 10 + k));
    }
  }
  for (int k = 0; k < 4; ++k) {
    const auto got = store.client().get_sync(keys[k], 1);
    EXPECT_EQ(got.value.to_int64(), 50 + k);
    EXPECT_EQ(got.version, 5);
  }
}

}  // namespace
}  // namespace tbr
