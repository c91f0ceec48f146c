// ShardedStem: the threaded executor's concurrent build/probe state store.
//
// One ShardedStem per table slot, hash-partitioned into shards so workers
// building and probing the same SteM contend only per shard, never globally
// (docs/parallelism.md covers the ownership rules). Each shard owns:
//   - its entry log (row + build timestamp),
//   - the content-dedup set enforcing the paper's §3.2 set semantics,
//   - one hash index per equi-join column of the slot.
//
// Visibility contract (the threaded analogue of the §3.1 timestamp rule):
// a build issues its timestamp from the query-global atomic counter and
// inserts the entry *inside the same shard critical section*, and a probe
// issues no timestamps and reads under the same shard mutex. Together with
// the probe-side filter `entry_ts <= probe_ts` this gives the symmetric-
// join guarantee: for any two rows r, s with ts(r) < ts(s), s's probe is
// ordered after r's insert (else s's probe section — which follows s's own
// ts issuance in program order — would precede r's issuance, contradicting
// ts(r) < ts(s)), so exactly the newer row observes the older one.
//
// Spill-lite: under a global resident-entry budget (the threaded mapping of
// RunOptions::LargerThanMemory) whole shards are "spilled" — their hash
// indexes are dropped and their entries accounted off-budget, standing in
// for a partitioned run file exactly like the simulated spill subsystem
// keeps its run files in memory. A probe touching a spilled shard faults it
// back in (rebuilds the indexes, re-charges the budget). Results are never
// affected, only the I/O counters and fault-in work.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "query/query_spec.h"
#include "runtime/tuple.h"
#include "stem/probe_bindings.h"
#include "types/row.h"
#include "types/value.h"

namespace stems {

/// Budget + counters shared by all ShardedStems of one threaded query run.
/// relaxed: every field is a monotone statistic accumulated by many workers
/// and only read after the workers join (or for a best-effort budget check);
/// no field orders any other memory access. They stay std::atomic (not the
/// schedulable stems::Atomic) deliberately: statistics are not part of any
/// sync protocol, and turning them into yield points would blow up the
/// model checker's state space for zero coverage.
struct ShardedSpillState {
  /// Resident-entry budget across all stems (0 = unlimited).
  size_t budget_entries = 0;
  /// Entries currently charged against the budget (resident shards only).
  // invariant: allow(schedulable-atomic) -- relaxed: best-effort budget statistic, not a sync protocol (struct doc)
  std::atomic<int64_t> resident{0};
  // invariant: allow(schedulable-atomic) -- relaxed: monotone statistic (struct doc)
  std::atomic<uint64_t> spill_ios{0};
  // invariant: allow(schedulable-atomic) -- relaxed: monotone statistic (struct doc)
  std::atomic<uint64_t> bytes_spilled{0};
  // invariant: allow(schedulable-atomic) -- relaxed: monotone statistic (struct doc)
  std::atomic<uint64_t> entries_spilled{0};  ///< entries currently off-budget
  // invariant: allow(schedulable-atomic) -- relaxed: monotone statistic (struct doc)
  std::atomic<uint64_t> faults{0};  ///< relaxed: shard fault-ins by probes
  /// relaxed: shard-mutex contention counters for the hot paths (Build /
  /// ProbeShard): how many acquisitions found the mutex held, and the wall
  /// time spent blocked. The uncontended path pays one try_lock and no
  /// clock read.
  // invariant: allow(schedulable-atomic) -- relaxed: monotone statistic (struct doc)
  std::atomic<uint64_t> lock_waits{0};
  // invariant: allow(schedulable-atomic) -- relaxed: monotone statistic (struct doc)
  std::atomic<uint64_t> lock_wait_ns{0};
};

class ShardedStem {
 public:
  /// `ts_counter` is the query-global build-timestamp source (the threaded
  /// TimestampAuthority); `spill` may be null for unbudgeted runs.
  ShardedStem(int slot, const QuerySpec& query, size_t num_shards,
              Atomic<BuildTs>* ts_counter, ShardedSpillState* spill);

  /// Test-only mutation switch for the schedule-exploration harness: when
  /// true, Build issues the timestamp *before* entering the shard critical
  /// section — the exact §3.1 violation the visibility contract forbids.
  /// The model checker must find an interleaving where a probe pair loses
  /// a match (tests/test_schedule_explore.cc), proving the harness can see
  /// through correctly-locked-but-misordered code. Never set in production.
  static bool mutation_ts_outside_lock_for_test;

  ShardedStem(const ShardedStem&) = delete;
  ShardedStem& operator=(const ShardedStem&) = delete;

  struct BuildResult {
    bool inserted = false;  ///< false: content duplicate, absorbed (§3.2)
    BuildTs ts = kTsInfinity;
  };

  /// Inserts `row` unless an identical row is already stored. On insert the
  /// timestamp is issued and the entry published atomically w.r.t. probes
  /// of the same shard (see the visibility contract above).
  BuildResult Build(const RowRef& row);

  /// Equality bindings a probe carries (DeriveProbeBindings).
  using Bindings = ProbeBindings;

  /// Invokes `fn(row, entry_ts)` for every stored entry matching `bindings`
  /// with `entry_ts <= probe_ts` (§3.1's probe-side filter). A binding on
  /// the shard-key column routes to one shard; a binding on another indexed
  /// column uses that column's per-shard index across all shards; no usable
  /// binding (range joins, cross products) scans everything.
  /// A probe match handed back to the prober: the stored row + its build
  /// timestamp, copied out of the shard so the (expensive) continuation —
  /// predicate evaluation, concatenation, cascading — runs *outside* the
  /// shard critical section and never serializes other workers. Deferring
  /// the continuation cannot change the match set: which entries a probe
  /// observes is fixed at lock time, and the visibility contract only
  /// constrains the scan itself.
  using Matches = std::vector<std::pair<RowRef, BuildTs>>;

  template <typename Fn>
  void Probe(const Bindings& bindings, BuildTs probe_ts, Fn&& fn,
             Matches* scratch = nullptr) {
    Matches local;
    Matches& matches = scratch != nullptr ? *scratch : local;
    matches.clear();
    const auto [binding_pos, index_pos] = IndexForBindings(bindings);
    if (index_pos >= 0) {
      const Value& key = bindings[static_cast<size_t>(binding_pos)].second;
      if (index_pos == 0) {
        // Binding on the shard key: entries with this value live in exactly
        // one shard (builds are placed by the same column).
        ProbeShard(shards_[ShardOfValue(key)].get(), 0, &key, probe_ts,
                   &matches);
      } else {
        for (auto& shard : shards_) {
          ProbeShard(shard.get(), index_pos, &key, probe_ts, &matches);
        }
      }
    } else {
      for (auto& shard : shards_) {
        ProbeShard(shard.get(), -1, nullptr, probe_ts, &matches);
      }
    }
    for (auto& [row, ts] : matches) fn(row, ts);
  }

  int slot() const { return slot_; }
  size_t num_shards() const { return shards_.size(); }
  /// (resident, spilled) shard counts; sampled without a global lock.
  std::pair<size_t, size_t> ShardResidency() const;
  uint64_t num_entries() const { return entries_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    RowRef row;
    BuildTs ts;
  };
  /// Value -> entry ordinals, one map per indexed equi-join column.
  using ColumnIndex =
      std::unordered_map<Value, std::vector<uint32_t>, ValueHash>;

  /// Cache-line separated so two workers on adjacent shards never share.
  /// All state is guarded by `mu` — the shard critical section of the §3.1
  /// visibility contract — so an access outside it is a compile error
  /// under -Wthread-safety.
  struct alignas(64) Shard {
    mutable Mutex mu;
    std::vector<Entry> entries STEMS_GUARDED_BY(mu);
    std::unordered_set<RowRef, RowRefContentHash, RowRefContentEq> dedup
        STEMS_GUARDED_BY(mu);
    /// Parallel to index_columns_.
    std::vector<ColumnIndex> indexes STEMS_GUARDED_BY(mu);
    /// false: indexes dropped, entries off-budget.
    bool resident STEMS_GUARDED_BY(mu) = true;
  };

  /// (position in `bindings`, position in `index_columns_`) of the best
  /// indexable binding — the shard-key column if bound, else any other
  /// indexed column — or (-1, -1) when no binding is indexable.
  std::pair<int, int> IndexForBindings(const Bindings& bindings) const;
  size_t ShardOfValue(const Value& v) const;
  size_t ShardOfRow(const Row& row) const;

  /// Probes one shard under its mutex (faulting it in first when spilled)
  /// and appends the ts-filtered matches to `out`. Only the scan holds the
  /// lock; RowRefs are copied out so `out` stays valid after unlock even
  /// if a concurrent build reallocates the entry log.
  void ProbeShard(Shard* shard, int idx, const Value* key, BuildTs probe_ts,
                  Matches* out);

  /// Rebuilds a spilled shard's indexes and re-charges the budget.
  void FaultInLocked(Shard* shard) STEMS_REQUIRES(shard->mu);
  /// Drops the indexes of the largest resident shard other than `except`
  /// until the budget is met (or nothing is left to spill).
  void EnforceBudget(const Shard* except);

  const int slot_;
  /// sync: the query-global timestamp authority; fetch_add is issued inside
  /// the shard critical section (see Build), the shard mutex provides the
  /// ordering the §3.1 contract needs. stems::Atomic: a yield point under
  /// the model checker.
  Atomic<BuildTs>* const ts_counter_;
  ShardedSpillState* const spill_;
  /// Equi-join columns of this slot, ascending; the first is the shard key.
  std::vector<int> index_columns_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// relaxed: monotone statistic (total inserted entries across shards);
  /// sampled by observers, never used to order other accesses.
  // invariant: allow(schedulable-atomic) -- observer statistic, not a sync protocol
  std::atomic<uint64_t> entries_{0};
};

}  // namespace stems
