#include "exec/sharded_stem.h"

#include <chrono>

namespace stems {

namespace {

/// Scoped shard lock that accounts contention: the uncontended path is one
/// try_lock; only when that fails does it read the clock and charge the
/// blocked time to the run's shared counters.
class STEMS_SCOPED_CAPABILITY ContentionLock {
 public:
  ContentionLock(Mutex& mu, ShardedSpillState* spill) STEMS_ACQUIRE(mu)
      : mu_(mu) {
    if (mu_.TryLock()) return;
    const auto start = std::chrono::steady_clock::now();
    mu_.Lock();
    if (spill != nullptr) {
      const auto waited = std::chrono::steady_clock::now() - start;
      spill->lock_waits.fetch_add(1, std::memory_order_relaxed);
      spill->lock_wait_ns.fetch_add(
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(waited)
                  .count()),
          std::memory_order_relaxed);
    }
  }
  ~ContentionLock() STEMS_RELEASE() { mu_.Unlock(); }
  ContentionLock(const ContentionLock&) = delete;
  ContentionLock& operator=(const ContentionLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace

void ShardedSpillState::EnableSpill(size_t budget,
                                    const SpillOptions& spill_options,
                                    obs::MetricsRegistry* registry) {
  budget_entries = budget;
  options = spill_options;
  MutexLock lock(&pool_mu);
  pool = std::make_unique<BufferPool>(options);
  pool->AttachRegistry(registry);
}

SpillSummary ShardedSpillState::Summarize(
    const std::vector<std::unique_ptr<ShardedStem>>& stems) const {
  SpillSummary out;
  if (pool == nullptr) return out;  // spill disabled
  for (const auto& stem : stems) stem->AddResidency(&out);
  MutexLock lock(&pool_mu);
  pool->AddTo(&out);
  return out;
}

bool ShardedStem::mutation_ts_outside_lock_for_test = false;

ShardedStem::ShardedStem(int slot, const QuerySpec& query, size_t num_shards,
                         Atomic<BuildTs>* ts_counter,
                         ShardedSpillState* spill,
                         const StemOptions& stem_options)
    : ts_counter_(ts_counter), spill_(spill), slot_(slot), query_(&query) {
  for (const auto& pred : query.predicates()) {
    const auto col = pred.EquiJoinColumnFor(slot);
    if (col.has_value() && (shard_key_ < 0 || *col < shard_key_)) {
      shard_key_ = *col;
    }
  }
  const std::vector<int> index_columns = StemIndexColumns(query, {slot});
  const std::string& table =
      query.slots()[static_cast<size_t>(slot)].table_name;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>(table);
    // The shard is private until the constructor returns; the lock exists
    // to satisfy the guarded_by contract, and is uncontended by definition.
    MutexLock lock(&shard->mu);
    shard->storage.EnsureIndexes(index_columns, stem_options.index_impl,
                                 stem_options.adaptive_threshold);
    if (spill_ != nullptr && spill_->pool != nullptr) {
      // part_col -1: the shard is one spill partition, partition 0.
      MutexLock pool_lock(&spill_->pool_mu);
      shard->storage.EnableSpill(spill_->pool.get(), spill_->options,
                                 /*part_col=*/-1, &spill_->pool_mu);
    }
    shards_.push_back(std::move(shard));
  }
}

size_t ShardedStem::ShardOfValue(const Value& v) const {
  return v.Hash() % shards_.size();
}

size_t ShardedStem::ShardOfRow(const Row& row) const {
  // Placement must agree with probe routing: shard by the shard key when
  // there is one, else spread by content hash (such stems are only ever
  // probed in every shard).
  if (shard_key_ >= 0) {
    return ShardOfValue(row.value(static_cast<size_t>(shard_key_)));
  }
  return row.Hash() % shards_.size();
}

void ShardedStem::Account(const StemStorage::SpillResult& io) {
  spill_->spill_ios.fetch_add(io.ios, std::memory_order_relaxed);
  spill_->bytes_spilled.fetch_add(io.bytes, std::memory_order_relaxed);
}

ShardedStem::BuildResult ShardedStem::Build(const RowRef& row) {
  Shard& shard = *shards_[ShardOfRow(*row)];
  BuildResult out;
  // Deliberately broken ordering for the harness's mutation check: issuing
  // the timestamp out here decouples it from the entry's publication, and
  // the model checker must find the interleaving where that loses a match.
  BuildTs mutated_ts = kTsInfinity;
  if (mutation_ts_outside_lock_for_test) {
    mutated_ts = ts_counter_->fetch_add(1);
  }
  const bool budgeted = spill_ != nullptr && spill_->budget_entries > 0;
  {
    ContentionLock lock(shard.mu, spill_);
    StemStorage& storage = shard.storage;
    if (storage.Contains(row)) return out;  // absorbed (§3.2)
    // Timestamp issuance and entry publication share this critical
    // section — the visibility contract every probe relies on.
    out.ts = mutation_ts_outside_lock_for_test ? mutated_ts
                                               : ts_counter_->fetch_add(1);
    out.inserted = true;
    const StemStorage::SpillResult io = storage.Store(row, out.ts);
    if (io.entries > 0) {
      Account(io);  // behind a spilled shard: appended to its run file
    } else if (budgeted) {
      spill_->resident.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (budgeted) EnforceBudget(&shard);
  entries_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

const ShardedStem::Matches& ShardedStem::Probe(const Tuple& probe,
                                               ProbeScratch* scratch) {
  scratch->matches.clear();
  DeriveProbeBindings(*query_, probe, slot_, &scratch->bindings);
  const BuildTs probe_ts = probe.Timestamp();
  // One shard, under its lock: fault it in when spilled, look up, and copy
  // out the entries the probe sees. Only the lookup holds the lock; the
  // copied RowRefs stay valid even if a concurrent build reallocates the
  // entries.
  auto probe_shard = [&](Shard& shard) {
    ContentionLock lock(shard.mu, spill_);
    StemStorage& storage = shard.storage;
    storage.FaultInForProbe(
        scratch->bindings, [this](const StemStorage::SpillResult& in) {
          Account(in);
          // The budget may now be transiently exceeded; the next build's
          // EnforceBudget pass restores it (the simulated spill subsystem
          // over-commits across a fault-in the same way).
          spill_->resident.fetch_add(static_cast<int64_t>(in.entries),
                                     std::memory_order_relaxed);
        });
    storage.Lookup(*query_, probe, slot_, scratch->bindings, &scratch->ids);
    const std::vector<StemStorage::Entry>& entries = storage.entries();
    for (uint32_t id : scratch->ids) {
      const StemStorage::Entry& e = entries[id];
      if (e.row != nullptr && ProbeSeesEntry(e.ts, probe_ts)) {
        scratch->matches.emplace_back(e.row, e.ts);
      }
    }
  };
  for (const auto& [col, value] : scratch->bindings) {
    if (col == shard_key_) {
      // Entries with this value live in exactly one shard (builds are
      // placed by the same column).
      probe_shard(*shards_[ShardOfValue(value)]);
      return scratch->matches;
    }
  }
  for (auto& shard : shards_) probe_shard(*shard);
  return scratch->matches;
}

void ShardedStem::EnforceBudget(const Shard* except) {
  while (spill_->resident.load(std::memory_order_relaxed) >
         static_cast<int64_t>(spill_->budget_entries)) {
    // Victim: this stem's largest resident shard. Each shard is locked
    // only for the size peek (the sampled victim stays reasonable even if
    // it grows meanwhile). Avoid the shard just built into — spilling it
    // would thrash.
    Shard* victim = nullptr;
    size_t victim_size = 0;
    for (auto& shard : shards_) {
      if (shard.get() == except) continue;
      MutexLock lock(&shard->mu);
      const size_t n = shard->storage.live_entries();
      if (n > victim_size) {
        victim = shard.get();
        victim_size = n;
      }
    }
    if (victim == nullptr) return;  // nothing local left to spill
    MutexLock lock(&victim->mu);
    // A victim spilled by another worker meanwhile moves nothing here; the
    // loop re-reads the budget and picks again.
    const StemStorage::SpillResult io = victim->storage.SpillColdestPartition();
    Account(io);
    spill_->resident.fetch_sub(static_cast<int64_t>(io.entries),
                               std::memory_order_relaxed);
  }
}

void ShardedStem::AddResidency(SpillSummary* out) const {
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    shard->storage.AddTo(out);
  }
}

}  // namespace stems
