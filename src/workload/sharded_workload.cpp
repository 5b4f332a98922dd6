#include "workload/sharded_workload.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <string>
#include <thread>
#include <utility>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace tbr {

namespace {

/// Per-frame CPU at every replica in the capacity projection.
constexpr Tick kProjectionServiceTime = 200;

/// One generated client operation, before routing.
struct GenOp {
  std::uint32_t key_id = 0;
  bool is_write = false;
  std::int64_t payload = 0;
};

/// Zipf(s) sampler over ranks 0..keys-1 via inverse CDF, with ranks
/// shuffled onto key ids so the hot keys land on seed-determined shards.
class KeySampler {
 public:
  KeySampler(std::uint32_t keys, double s, Rng& rng) : rank_to_key_(keys) {
    TBR_ENSURE(keys >= 1, "workload needs at least one key");
    TBR_ENSURE(s >= 0.0, "zipf exponent cannot be negative");
    cdf_.reserve(keys);
    double total = 0.0;
    for (std::uint32_t k = 0; k < keys; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_.push_back(total);
    }
    std::iota(rank_to_key_.begin(), rank_to_key_.end(), 0u);
    rng.shuffle(rank_to_key_);
  }

  std::uint32_t sample(Rng& rng) const {
    const double u = rng.uniform01() * cdf_.back();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const auto rank = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
    return rank_to_key_[rank];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> rank_to_key_;
};

std::vector<GenOp> generate_ops(std::uint64_t seed, const KvOpMix& mix) {
  TBR_ENSURE(mix.read_fraction >= 0.0 && mix.read_fraction <= 1.0,
             "read fraction must be in [0, 1]");
  Rng rng(seed ^ 0x5EEDF00DULL);
  KeySampler sampler(mix.keys, mix.zipf_s, rng);
  std::vector<GenOp> ops;
  ops.reserve(mix.total_ops);
  for (std::uint64_t k = 0; k < mix.total_ops; ++k) {
    GenOp op;
    op.key_id = sampler.sample(rng);
    op.is_write = !rng.chance(mix.read_fraction);
    op.payload = static_cast<std::int64_t>(k + 1);
    ops.push_back(op);
  }
  return ops;
}

std::vector<std::string> make_key_names(std::uint32_t keys) {
  std::vector<std::string> names;
  names.reserve(keys);
  for (std::uint32_t k = 0; k < keys; ++k) {
    names.push_back("key-" + std::to_string(k));
  }
  return names;
}

}  // namespace

// ---- mode 1: the live engine, wall-clock ------------------------------------

ShardedWorkloadResult run_sharded_workload(
    const ShardedKvStore::Options& store_options, const KvOpMix& mix,
    std::uint32_t client_threads, std::size_t client_pipeline) {
  TBR_ENSURE(client_threads >= 1, "need at least one client");
  ShardedKvStore store(store_options);

  const auto ops = generate_ops(store_options.seed, mix);
  const auto keys = make_key_names(mix.keys);

  std::vector<std::uint64_t> completed(client_threads, 0);
  std::vector<std::uint64_t> failed(client_threads, 0);

  const auto started = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> clients;
    clients.reserve(client_threads);
    for (std::uint32_t c = 0; c < client_threads; ++c) {
      clients.emplace_back([&, c] {
        // Client c owns ops c, c+threads, c+2*threads, ... — every client
        // sees the full key/skew mix. Submission runs in waves of
        // `client_pipeline` pooled ops (the unified KvClient: a Ticket per
        // op, no promise shared state) so each shard's mailbox accumulates
        // a real batching window.
        KvClient& client = store.client();
        std::vector<Ticket> wave;
        wave.reserve(client_pipeline);
        auto settle_wave = [&] {
          for (const Ticket& t : wave) {
            const OpResult r = client.wait(t);
            if (r.status.ok()) {
              ++completed[c];
            } else {
              ++failed[c];
            }
          }
          wave.clear();
        };
        for (std::uint64_t k = c; k < ops.size(); k += client_threads) {
          const GenOp& op = ops[k];
          if (op.is_write) {
            wave.push_back(client.put(keys[op.key_id],
                                      Value::from_int64(op.payload)));
          } else {
            wave.push_back(client.get(keys[op.key_id]));
          }
          if (wave.size() >= client_pipeline) settle_wave();
        }
        settle_wave();
      });
    }
  }  // join clients
  store.drain();
  const auto stopped = std::chrono::steady_clock::now();

  ShardedWorkloadResult result;
  for (std::uint32_t c = 0; c < client_threads; ++c) {
    result.ops_completed += completed[c];
    result.ops_failed += failed[c];
  }
  result.wall_seconds =
      std::chrono::duration<double>(stopped - started).count();
  result.ops_per_sec = result.wall_seconds > 0
                           ? result.ops_completed / result.wall_seconds
                           : 0.0;
  result.batch = store.batch_stats();
  result.frames = store.frames_sent();
  return result;
}

// ---- mode 2: deterministic capacity projection -------------------------------

CapacityProjection project_sharded_capacity(
    const ShardedKvStore::Options& store, const KvOpMix& mix,
    Tick inter_arrival) {
  const ShardRouter router(store.shards, store.slots_per_shard, store.n);
  const auto ops = generate_ops(store.seed, mix);
  const auto keys = make_key_names(mix.keys);
  // Each shard's arrival trace: indices into `ops`; op k arrives at
  // k * inter_arrival.
  std::vector<std::vector<std::uint64_t>> per_shard(store.shards);
  for (std::uint64_t k = 0; k < ops.size(); ++k) {
    per_shard[router.shard_of(keys[ops[k].key_id])].push_back(k);
  }
  auto arrival = [inter_arrival](std::uint64_t k) {
    return static_cast<Tick>(k) * inter_arrival;
  };

  CapacityProjection projection;
  projection.ops = ops.size();
  projection.shard_ticks.assign(store.shards, 0);
  double latency_sum = 0.0;
  std::vector<Ticket> tickets;

  for (std::uint32_t s = 0; s < store.shards; ++s) {
    const auto& trace = per_shard[s];
    if (trace.empty()) continue;

    KvStore::Options group_options = ShardedKvStore::shard_options(store, s);
    group_options.service_time = kProjectionServiceTime;
    KvStore group(std::move(group_options));
    SimNetwork& net = group.net();
    KvClient& client = group.client();

    std::size_t next = 0;
    while (next < trace.size()) {
      // The batching window: everything that has arrived by the time the
      // previous window finished (bounded by max_batch), or — if the shard
      // is idle — the next op alone at its arrival instant. A min_batch
      // floor (group commit) holds the window open until enough ops have
      // arrived; the tail of the trace opens partial so the run drains.
      Tick start = std::max(net.now(), arrival(trace[next]));
      if (store.min_batch > 1) {
        const std::size_t want =
            std::min(store.min_batch, trace.size() - next);
        start = std::max(start, arrival(trace[next + want - 1]));
      }
      std::size_t end = next;
      while (end < trace.size() && arrival(trace[end]) <= start &&
             (store.max_batch == 0 || end - next < store.max_batch)) {
        ++end;
      }

      // Open the window at `start` in virtual time, submit it through the
      // store's client, and wait it out: the whole window completes
      // together, so every op in it waited from its arrival to the
      // window's finish.
      bool opened = false;
      net.schedule_at(start, [&opened] { opened = true; });
      (void)net.run_until([&opened] { return opened; });
      tickets.clear();
      for (std::size_t k = next; k < end; ++k) {
        const GenOp& op = ops[trace[k]];
        tickets.push_back(
            op.is_write
                ? client.put(keys[op.key_id], Value::from_int64(op.payload))
                : client.get(keys[op.key_id]));
      }
      for (const Ticket& t : tickets) {
        TBR_ENSURE(client.wait(t).status.ok(),
                   "capacity projection lost liveness (bug)");
      }
      for (std::size_t k = next; k < end; ++k) {
        latency_sum += static_cast<double>(net.now() - arrival(trace[k]));
      }
      next = end;
    }
    projection.shard_ticks[s] = net.now();
    projection.frames += net.stats().total_sent();
    projection.batch.merge(group.batch_stats());
  }
  projection.mean_latency_ticks =
      projection.ops > 0 ? latency_sum / static_cast<double>(projection.ops)
                         : 0.0;

  projection.busiest_shard_ticks = *std::max_element(
      projection.shard_ticks.begin(), projection.shard_ticks.end());
  projection.ops_per_mtick =
      projection.busiest_shard_ticks > 0
          ? static_cast<double>(projection.ops) * 1e6 /
                static_cast<double>(projection.busiest_shard_ticks)
          : 0.0;
  return projection;
}

}  // namespace tbr
