#include "exec/sharded_stem.h"

#include <algorithm>
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

/// Rough in-memory footprint of a row, for the spill byte counters (the
/// same order of accounting the simulated spill files use).
uint64_t ApproxRowBytes(const Row& row) {
  return 16 + 16 * static_cast<uint64_t>(row.num_values());
}

uint64_t PagesFor(uint64_t bytes) { return bytes / 4096 + 1; }

}  // namespace

bool ShardedStem::mutation_ts_outside_lock_for_test = false;

ShardedStem::ShardedStem(int slot, const QuerySpec& query, size_t num_shards,
                         Atomic<BuildTs>* ts_counter,
                         ShardedSpillState* spill)
    : slot_(slot), ts_counter_(ts_counter), spill_(spill) {
  for (const auto& pred : query.predicates()) {
    if (!pred.is_join() || pred.op() != CompareOp::kEq) continue;
    auto col = pred.EquiJoinColumnFor(slot_);
    if (!col.has_value()) continue;
    if (std::find(index_columns_.begin(), index_columns_.end(), *col) ==
        index_columns_.end()) {
      index_columns_.push_back(*col);
    }
  }
  std::sort(index_columns_.begin(), index_columns_.end());
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    // The shard is private until the constructor returns; the lock exists
    // to satisfy the guarded_by contract, and is uncontended by definition.
    MutexLock lock(&shard->mu);
    shard->indexes.resize(index_columns_.size());
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
  {
    ContentionLock lock(shard.mu, spill_);
    if (shard.dedup.count(row) > 0) return out;  // absorbed (§3.2)
    // Timestamp issuance and entry publication share this critical
    // section — the visibility contract every probe relies on.
    out.ts = mutation_ts_outside_lock_for_test ? mutated_ts
                                               : ts_counter_->fetch_add(1);
    out.inserted = true;
    const auto ord = static_cast<uint32_t>(shard.entries.size());
    shard.entries.push_back(Entry{row, out.ts});
    shard.dedup.insert(row);
    if (shard.resident) {
      for (size_t i = 0; i < index_columns_.size(); ++i) {
        shard.indexes[i][row->value(static_cast<size_t>(index_columns_[i]))]
            .push_back(ord);
      }
      if (spill_ != nullptr && spill_->budget_entries > 0) {
        spill_->resident.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (spill_ != nullptr) {
      // Appending behind a spilled shard goes straight to its run file:
      // no index maintenance now (FaultInLocked rebuilds from the entry
      // log), one simulated write.
      const uint64_t bytes = ApproxRowBytes(*row);
      spill_->entries_spilled.fetch_add(1, std::memory_order_relaxed);
      spill_->bytes_spilled.fetch_add(bytes, std::memory_order_relaxed);
      spill_->spill_ios.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (out.inserted && spill_ != nullptr && spill_->budget_entries > 0) {
    EnforceBudget(&shard);
  }
  if (out.inserted) entries_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

void ShardedStem::ProbeShard(Shard* shard, int idx, const Value* key,
                             BuildTs probe_ts, Matches* out) {
  ContentionLock lock(shard->mu, spill_);
  if (!shard->resident) FaultInLocked(shard);
  auto visit = [&](const Entry& e) {
    if (e.ts <= probe_ts) out->emplace_back(e.row, e.ts);
  };
  if (idx >= 0) {
    auto it = shard->indexes[static_cast<size_t>(idx)].find(*key);
    if (it != shard->indexes[static_cast<size_t>(idx)].end()) {
      for (uint32_t ord : it->second) visit(shard->entries[ord]);
    }
  } else {
    for (const Entry& e : shard->entries) visit(e);
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

void ShardedStem::FaultInLocked(Shard* shard) {
  shard->indexes.assign(index_columns_.size(), ColumnIndex{});
  for (uint32_t ord = 0; ord < shard->entries.size(); ++ord) {
    const Row& row = *shard->entries[ord].row;
    for (size_t i = 0; i < index_columns_.size(); ++i) {
      shard->indexes[i][row.value(static_cast<size_t>(index_columns_[i]))]
          .push_back(ord);
    }
  }
  shard->resident = true;
  if (spill_ != nullptr) {
    const auto n = static_cast<int64_t>(shard->entries.size());
    uint64_t bytes = 0;
    for (const Entry& e : shard->entries) bytes += ApproxRowBytes(*e.row);
    spill_->resident.fetch_add(n, std::memory_order_relaxed);
    spill_->entries_spilled.fetch_sub(static_cast<uint64_t>(n),
                                      std::memory_order_relaxed);
    spill_->spill_ios.fetch_add(PagesFor(bytes), std::memory_order_relaxed);
    spill_->faults.fetch_add(1, std::memory_order_relaxed);
    // The budget may now be transiently exceeded; the next build's
    // EnforceBudget pass restores it (the simulated spill subsystem
    // over-commits across a fault-in the same way).
  }
}

void ShardedStem::EnforceBudget(const Shard* except) {
  while (spill_->resident.load(std::memory_order_relaxed) >
         static_cast<int64_t>(spill_->budget_entries)) {
    // Victim: this stem's largest resident shard. Each shard is locked
    // only for the size/residency peek (entry counts only grow, so the
    // sampled victim stays reasonable even if it grows meanwhile). Avoid
    // the shard just built into — spilling it would thrash.
    Shard* victim = nullptr;
    size_t victim_size = 0;
    for (auto& shard : shards_) {
      if (shard.get() == except) continue;
      MutexLock lock(&shard->mu);
      if (!shard->resident) continue;
      const size_t n = shard->entries.size();
      if (n > victim_size) {
        victim = shard.get();
        victim_size = n;
      }
    }
    if (victim == nullptr) return;  // nothing local left to spill
    MutexLock lock(&victim->mu);
    if (!victim->resident || victim->entries.empty()) continue;
    victim->indexes.clear();
    victim->resident = false;
    const auto n = static_cast<int64_t>(victim->entries.size());
    uint64_t bytes = 0;
    for (const Entry& e : victim->entries) bytes += ApproxRowBytes(*e.row);
    spill_->resident.fetch_sub(n, std::memory_order_relaxed);
    spill_->entries_spilled.fetch_add(static_cast<uint64_t>(n),
                                      std::memory_order_relaxed);
    spill_->bytes_spilled.fetch_add(bytes, std::memory_order_relaxed);
    spill_->spill_ios.fetch_add(PagesFor(bytes), std::memory_order_relaxed);
  }
}

std::pair<size_t, size_t> ShardedStem::ShardResidency() const {
  size_t resident = 0;
  size_t spilled = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    if (shard->entries.empty()) continue;
    if (shard->resident) {
      ++resident;
    } else {
      ++spilled;
    }
  }
  return {resident, spilled};
}

}  // namespace stems
