#include "exec/sharded_stem.h"

#include <algorithm>
#include <chrono>

#include "stem/stem_index.h"

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
  out.pool_hits = pool->stats().hits;
  out.pool_misses = pool->stats().misses;
  out.pool_evictions = pool->stats().evictions;
  return out;
}

bool ShardedStem::mutation_ts_outside_lock_for_test = false;

ShardedStem::ShardedStem(int slot, const QuerySpec& query, size_t num_shards,
                         Atomic<BuildTs>* ts_counter,
                         ShardedSpillState* spill)
    : ts_counter_(ts_counter), spill_(spill) {
  for (const auto& pred : query.predicates()) {
    if (!pred.is_join() || pred.op() != CompareOp::kEq) continue;
    auto col = pred.EquiJoinColumnFor(slot);
    if (!col.has_value()) continue;
    if (std::find(index_columns_.begin(), index_columns_.end(), *col) ==
        index_columns_.end()) {
      index_columns_.push_back(*col);
    }
  }
  std::sort(index_columns_.begin(), index_columns_.end());
  const std::string& table =
      query.slots()[static_cast<size_t>(slot)].table_name;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>(table);
    // The shard is private until the constructor returns; the lock exists
    // to satisfy the guarded_by contract, and is uncontended by definition.
    MutexLock lock(&shard->mu);
    for (int col : index_columns_) {
      shard->storage.indexes().emplace_back(col,
                                            std::make_unique<HashStemIndex>());
    }
    if (spill_ != nullptr && spill_->pool != nullptr) {
      // part_col -1: the shard is one spill partition, partition 0.
      MutexLock pool_lock(&spill_->pool_mu);
      shard->storage.EnableSpill(spill_->pool.get(), spill_->options,
                                 /*part_col=*/-1);
    }
    shards_.push_back(std::move(shard));
  }
}

size_t ShardedStem::ShardOfValue(const Value& v) const {
  return v.Hash() % shards_.size();
}

size_t ShardedStem::ShardOfRow(const Row& row) const {
  // Placement must agree with probe routing: shard by the first equi-join
  // column when one exists, else spread by content hash (such stems are
  // only ever scanned in full).
  if (!index_columns_.empty()) {
    return ShardOfValue(row.value(static_cast<size_t>(index_columns_[0])));
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
    if (storage.PartitionResident(0)) {
      storage.Insert(row, out.ts);
      if (budgeted) spill_->resident.fetch_add(1, std::memory_order_relaxed);
    } else {
      // A build behind a spilled shard goes straight to its run file.
      MutexLock pool_lock(&spill_->pool_mu);
      Account(storage.AppendToSpilledPartition(0, row, out.ts));
    }
  }
  if (budgeted) EnforceBudget(&shard);
  entries_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

void ShardedStem::ProbeShard(Shard* shard, int idx, const Value* key,
                             BuildTs probe_ts, ProbeScratch* scratch) {
  ContentionLock lock(shard->mu, spill_);
  StemStorage& storage = shard->storage;
  if (!storage.PartitionResident(0)) {
    MutexLock pool_lock(&spill_->pool_mu);
    const StemStorage::SpillResult io = storage.FaultInPartition(0);
    Account(io);
    // The budget may now be transiently exceeded; the next build's
    // EnforceBudget pass restores it (the simulated spill subsystem
    // over-commits across a fault-in the same way).
    spill_->resident.fetch_add(static_cast<int64_t>(io.entries),
                               std::memory_order_relaxed);
  }
  const std::vector<StemStorage::Entry>& entries = storage.entries();
  auto visit = [&](const StemStorage::Entry& e) {
    if (e.ts <= probe_ts) scratch->matches.emplace_back(e.row, e.ts);
  };
  if (idx >= 0) {
    scratch->ids.clear();
    storage.indexes()[static_cast<size_t>(idx)].second->LookupEq(
        *key, &scratch->ids);
    for (uint32_t id : scratch->ids) visit(entries[id]);
  } else {
    for (const StemStorage::Entry& e : entries) visit(e);
  }
}

std::pair<int, int> ShardedStem::IndexForBindings(
    const Bindings& bindings) const {
  std::pair<int, int> best{-1, -1};
  for (size_t b = 0; b < bindings.size(); ++b) {
    auto it = std::find(index_columns_.begin(), index_columns_.end(),
                        bindings[b].first);
    if (it == index_columns_.end()) continue;
    const int pos = static_cast<int>(it - index_columns_.begin());
    if (pos == 0) return {static_cast<int>(b), 0};  // shard key: best case
    if (best.second < 0) best = {static_cast<int>(b), pos};
  }
  return best;
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
    MutexLock pool_lock(&spill_->pool_mu);
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
    out->entries_spilled += shard->storage.entries_spilled();
    out->partitions_resident += shard->storage.partitions_resident();
    out->partitions_spilled += shard->storage.partitions_spilled();
  }
}

}  // namespace stems
