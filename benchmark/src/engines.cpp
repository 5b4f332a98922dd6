#include "engines.hpp"

#include <algorithm>
#include <string>

#include "kvstore/sharded_store.hpp"
#include "sim/delay_model.hpp"
#include "transport/socket_network.hpp"
#include "workload/sim_register_group.hpp"

namespace tbrbench {

namespace {

bool await_completions(std::atomic<std::uint64_t>& done) {
  while (done.load(std::memory_order_acquire) == 0) {
    done.wait(0, std::memory_order_acquire);
  }
  return true;
}

void add_message_stats(const tbr::MessageStats& s, Counters& out) {
  out.frames += s.total_sent();
  out.control_bits += s.total_control_bits();
  out.data_bits += s.total_data_bits();
  out.control_bits_max =
      std::max(out.control_bits_max, s.max_control_bits_per_msg());
  out.local_memory_peak =
      std::max(out.local_memory_peak, s.local_memory_peak());
}

tbr::GroupConfig group(const WorkloadSpec& spec) {
  tbr::GroupConfig cfg;
  cfg.n = spec.n;
  cfg.t = spec.t;
  cfg.writer = 0;
  return cfg;
}

class SocketEngine final : public Engine {
 public:
  explicit SocketEngine(const WorkloadSpec& spec) {
    tbr::SocketNetwork::Options opt;
    opt.cfg = group(spec);
    opt.loops = spec.loops;
    net_ = std::make_unique<tbr::SocketNetwork>(std::move(opt));
    net_->start();
  }

  void issue(bool write, std::uint32_t, tbr::Value value,
             tbr::OpCallback cb) override {
    if (write) {
      net_->client().write(std::move(value), std::move(cb));
    } else {
      net_->client().read(tbr::kAnyReplica, std::move(cb));
    }
  }
  bool await(std::atomic<std::uint64_t>& done) override {
    return await_completions(done);
  }
  Counters counters() const override {
    Counters c;
    add_message_stats(net_->stats_snapshot(), c);
    const auto bp = net_->backpressure_snapshot();
    c.park_events = bp.park_events;
    c.peak_outbuf_bytes = bp.peak_outbuf_bytes;
    return c;
  }
  void stop() override { net_->stop(); }
  const char* layer() const override { return "transport"; }

 private:
  std::unique_ptr<tbr::SocketNetwork> net_;
};

class ShardedKvEngine final : public Engine {
 public:
  ShardedKvEngine(const WorkloadSpec& spec, std::uint64_t seed) {
    tbr::ShardedKvStore::Options opt;
    opt.shards = spec.shards;
    opt.n = spec.n;
    opt.t = spec.t;
    opt.slots_per_shard = spec.slots_per_shard;
    opt.seed = seed;
    store_ = std::make_unique<tbr::ShardedKvStore>(std::move(opt));
    keys_.reserve(spec.keys);
    reg_of_.reserve(spec.keys);
    for (std::uint32_t k = 0; k < spec.keys; ++k) {
      keys_.push_back("key-" + std::to_string(k));
      const auto at = store_->router().place(keys_.back());
      reg_of_.push_back(at.shard * spec.slots_per_shard + at.slot);
    }
  }

  void issue(bool write, std::uint32_t key, tbr::Value value,
             tbr::OpCallback cb) override {
    if (write) {
      store_->client().put(keys_[key], std::move(value), std::move(cb));
    } else {
      store_->client().get(keys_[key], tbr::kAnyReplica, std::move(cb));
    }
  }
  bool await(std::atomic<std::uint64_t>& done) override {
    return await_completions(done);
  }
  Counters counters() const override {
    Counters c;
    c.batch = store_->batch_stats();
    for (std::uint32_t s = 0; s < store_->shard_count(); ++s) {
      const auto report = store_->shard_report(s);
      add_message_stats(report.net, c);
      c.shard_vtime.push_back(report.virtual_now);
    }
    return c;
  }
  void stop() override { store_->stop(); }
  std::uint32_t register_of(std::uint32_t key) const override {
    return reg_of_[key];
  }
  bool reports_put_versions() const override { return true; }
  const char* layer() const override { return "kvstore"; }

 private:
  std::unique_ptr<tbr::ShardedKvStore> store_;
  std::vector<std::string> keys_;
  std::vector<std::uint32_t> reg_of_;
};

class SimEngine final : public Engine {
 public:
  SimEngine(const WorkloadSpec& spec, std::uint64_t seed)
      : crashes_(spec.crashes) {
    tbr::SimRegisterGroup::Options opt;
    opt.cfg = group(spec);
    opt.seed = seed;
    opt.delay = tbr::make_exponential_delay(spec.delay_mean, spec.delay_cap);
    group_ = std::make_unique<tbr::SimRegisterGroup>(std::move(opt));
  }

  void issue(bool write, std::uint32_t, tbr::Value value,
             tbr::OpCallback cb) override {
    if (write) {
      group_->client().write(std::move(value), std::move(cb));
    } else {
      group_->client().read(tbr::kAnyReplica, std::move(cb));
    }
  }
  bool await(std::atomic<std::uint64_t>& done) override {
    return group_->net().run_until(
        [&done] { return done.load(std::memory_order_relaxed) != 0; });
  }
  // Crashing between waves, never mid-op, keeps every op completable: a
  // read parked at a replica that crashes under it would never finish.
  void between_waves() override {
    while (next_crash_ < crashes_.size() &&
           group_->net().now() >= crashes_[next_crash_].at_ticks) {
      group_->crash(crashes_[next_crash_].replica);
      ++next_crash_;
    }
  }
  bool faults_pending() const override {
    return next_crash_ < crashes_.size();
  }
  Counters counters() const override {
    Counters c;
    const tbr::SimNetwork& net = group_->net();
    add_message_stats(net.stats(), c);
    c.events = net.events_executed();
    c.sched_work = net.scheduler_work_units();
    return c;
  }
  void stop() override { group_->settle(); }  // records the memory gauge
  bool virtual_latency() const override { return true; }
  const char* layer() const override { return "sim"; }

 private:
  std::vector<CrashAt> crashes_;
  std::size_t next_crash_ = 0;
  std::unique_ptr<tbr::SimRegisterGroup> group_;
};

}  // namespace

std::unique_ptr<Engine> make_engine(const WorkloadSpec& spec,
                                    std::uint64_t seed) {
  switch (spec.engine) {
    case EngineKind::kSocket:
      return std::make_unique<SocketEngine>(spec);
    case EngineKind::kShardedKv:
      return std::make_unique<ShardedKvEngine>(spec, seed);
    case EngineKind::kSim:
      return std::make_unique<SimEngine>(spec, seed);
  }
  return nullptr;
}

}  // namespace tbrbench
