#include "workload/sharded_workload.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>

#include "checker/mwmr_checker.hpp"
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

/// The op stream both modes replay, and the history recorder they share:
/// one HistoryLog per register (shard, slot), fed from any submitting
/// thread (HistoryLog locks). An op is stamped just before it is submitted
/// and again once wait() returns, so each recorded interval contains the
/// op's real one; a wider interval can only weaken the check, never
/// falsify it.
class KvOpStream {
 public:
  struct Pending {
    Ticket ticket;
    std::uint64_t k = 0;  ///< index into the stream
    HistoryLog::OpId id = 0;
  };

  KvOpStream(const ShardedKvStore::Options& store, const KvOpMix& mix)
      : slots_(store.slots_per_shard),
        logs_(static_cast<std::size_t>(store.shards) * store.slots_per_shard),
        absorbed_(logs_.size()) {
    TBR_ENSURE(mix.read_fraction >= 0.0 && mix.read_fraction <= 1.0,
               "read fraction must be in [0, 1]");
    Rng rng(store.seed ^ 0x5EEDF00DULL);
    KeySampler sampler(mix.keys, mix.zipf_s, rng);
    ops_.reserve(mix.total_ops);
    for (std::uint64_t k = 0; k < mix.total_ops; ++k) {
      GenOp op;
      op.key_id = sampler.sample(rng);
      op.is_write = !rng.chance(mix.read_fraction);
      op.payload = static_cast<std::int64_t>(k + 1);
      ops_.push_back(op);
    }
    const ShardRouter router(store.shards, store.slots_per_shard, store.n);
    keys_.reserve(mix.keys);
    register_of_.reserve(mix.keys);
    for (std::uint32_t k = 0; k < mix.keys; ++k) {
      keys_.push_back("key-" + std::to_string(k));
      const auto at = router.place(keys_.back());
      register_of_.push_back(static_cast<std::size_t>(at.shard) * slots_ +
                             at.slot);
    }
  }

  std::uint64_t size() const { return ops_.size(); }
  std::uint32_t shard_of(std::uint64_t k) const {
    return static_cast<std::uint32_t>(register_of_[ops_[k].key_id] / slots_);
  }

  /// Stamp op k's invocation at `now` and submit it. Every op is its own
  /// checker process: one client thread pipelines overlapping ops.
  Pending submit(KvClient& client, std::uint64_t k, Tick now) {
    const GenOp& op = ops_[k];
    HistoryLog& log = logs_[register_of_[op.key_id]];
    const auto proc = static_cast<ProcessId>(k);
    const std::string& key = keys_[op.key_id];
    if (!op.is_write) {
      const auto id = log.begin_read(proc, now);
      return {client.get(key), k, id};
    }
    Value v = Value::from_int64(op.payload);
    const auto id = log.begin_write_unindexed(proc, now, v);
    return {client.put(key, std::move(v)), k, id};
  }

  /// Stamp the response of `p` at `now`, just after wait() returned `r`.
  /// A failed op stays incomplete.
  void record(const Pending& p, const OpResult& r, Tick now) {
    if (!r.status.ok()) return;
    const GenOp& op = ops_[p.k];
    const std::size_t reg = register_of_[op.key_id];
    if (!op.is_write) {
      logs_[reg].end_read(p.id, now, r.value, r.version);
      return;
    }
    logs_[reg].end_write_indexed(p.id, now, r.version);
    if (r.absorbed) {
      const std::scoped_lock lock(absorbed_mu_);
      absorbed_[reg].push_back(p.id);
    }
  }

  /// The histories of the registers the stream touched, once every op
  /// has been recorded.
  std::vector<KvRegisterHistory> histories() const {
    std::vector<KvRegisterHistory> out;
    for (std::size_t reg = 0; reg < logs_.size(); ++reg) {
      if (logs_[reg].size() == 0) continue;
      out.push_back({static_cast<std::uint32_t>(reg / slots_),
                     static_cast<std::uint32_t>(reg % slots_),
                     logs_[reg].ops(), absorbed_[reg]});
    }
    return out;
  }

 private:
  std::uint32_t slots_;
  std::vector<GenOp> ops_;
  std::vector<std::string> keys_;
  std::vector<std::size_t> register_of_;  ///< key id -> shard * slots + slot
  std::vector<HistoryLog> logs_;  ///< one per register
  std::mutex absorbed_mu_;
  std::vector<std::vector<std::size_t>> absorbed_;  ///< per register
};

}  // namespace

CheckResult check_kv_histories(const std::vector<KvRegisterHistory>& registers,
                               const Value& initial) {
  for (const KvRegisterHistory& reg : registers) {
    const auto fail = [&reg](const std::string& why) {
      return CheckResult::bad("shard " + std::to_string(reg.shard) +
                              " slot " + std::to_string(reg.slot) + ": " +
                              why);
    };
    std::vector<bool> dropped(reg.ops.size(), false);
    for (const std::size_t k : reg.absorbed) dropped[k] = true;
    std::vector<OpRecord> kept;
    std::vector<SeqNo> survivors;
    for (std::size_t k = 0; k < reg.ops.size(); ++k) {
      if (dropped[k]) continue;
      const OpRecord& op = reg.ops[k];
      if (op.kind == OpRecord::Kind::kWrite && op.completed) {
        survivors.push_back(op.index);
      }
      kept.push_back(op);
    }
    std::sort(survivors.begin(), survivors.end());
    for (std::size_t k = 0; k < survivors.size(); ++k) {
      if (survivors[k] != static_cast<SeqNo>(k + 1)) {
        return fail("surviving put versions are not 1.." +
                    std::to_string(survivors.size()));
      }
    }
    for (const std::size_t k : reg.absorbed) {
      if (!std::binary_search(survivors.begin(), survivors.end(),
                              reg.ops[k].index)) {
        return fail("an absorbed put names version " +
                    std::to_string(reg.ops[k].index) +
                    ", which no surviving put carries");
      }
    }
    const CheckResult check = MwmrChecker::check(kept, initial);
    if (!check.ok) return fail(check.error);
  }
  return CheckResult::good();
}

// ---- mode 1: the live engine, wall-clock ------------------------------------

ShardedWorkloadResult run_sharded_workload(
    const ShardedKvStore::Options& store_options, const KvOpMix& mix,
    std::uint32_t client_threads, std::size_t client_pipeline) {
  TBR_ENSURE(client_threads >= 1, "need at least one client");
  ShardedKvStore store(store_options);
  KvOpStream stream(store_options, mix);

  std::vector<std::uint64_t> completed(client_threads, 0);
  std::vector<std::uint64_t> failed(client_threads, 0);

  const auto started = std::chrono::steady_clock::now();
  const auto now_ns = [started] {
    return static_cast<Tick>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - started)
            .count());
  };
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
        std::vector<KvOpStream::Pending> wave;
        wave.reserve(client_pipeline);
        auto settle_wave = [&] {
          for (const KvOpStream::Pending& p : wave) {
            const OpResult r = client.wait(p.ticket);
            stream.record(p, r, now_ns());
            if (r.status.ok()) {
              ++completed[c];
            } else {
              ++failed[c];
            }
          }
          wave.clear();
        };
        for (std::uint64_t k = c; k < stream.size(); k += client_threads) {
          wave.push_back(stream.submit(client, k, now_ns()));
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
  result.registers = stream.histories();
  result.initial = store_options.initial;
  return result;
}

// ---- mode 2: deterministic capacity projection -------------------------------

CapacityProjection project_sharded_capacity(
    const ShardedKvStore::Options& store, const KvOpMix& mix,
    Tick inter_arrival) {
  KvOpStream stream(store, mix);
  // Each shard's arrival trace: indices into the stream; op k arrives at
  // k * inter_arrival.
  std::vector<std::vector<std::uint64_t>> per_shard(store.shards);
  for (std::uint64_t k = 0; k < stream.size(); ++k) {
    per_shard[stream.shard_of(k)].push_back(k);
  }
  auto arrival = [inter_arrival](std::uint64_t k) {
    return static_cast<Tick>(k) * inter_arrival;
  };

  CapacityProjection projection;
  projection.ops = stream.size();
  projection.shard_ticks.assign(store.shards, 0);
  double latency_sum = 0.0;
  std::vector<KvOpStream::Pending> window;

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
      window.clear();
      for (std::size_t k = next; k < end; ++k) {
        window.push_back(stream.submit(client, trace[k], net.now()));
      }
      for (const KvOpStream::Pending& p : window) {
        const OpResult r = client.wait(p.ticket);
        TBR_ENSURE(r.status.ok(), "capacity projection lost liveness (bug)");
        stream.record(p, r, net.now());
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
  projection.registers = stream.histories();
  projection.initial = store.initial;
  return projection;
}

}  // namespace tbr
