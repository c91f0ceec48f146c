// ShardedStem: the threaded executor's concurrent build/probe state store.
//
// One ShardedStem per table slot, hash-partitioned into shards so workers
// building and probing the same SteM contend only per shard, never globally
// (docs/parallelism.md covers the ownership rules). Each shard is a private
// StemStorage (src/stem/) under its own mutex: the entries, the §3.2
// content dedup, the index set (as StemOptions::index_impl asks), build,
// lookup and spill step are the sim SteM's code, not a copy of it. What
// lives here is only what is threaded: the shard routing, the shard locks
// and timestamp issuance.
//
// Visibility contract (the threaded analogue of the §3.1 timestamp rule):
// a build issues its timestamp from the query-global atomic counter and
// inserts the entry *inside the same shard critical section*, and a probe
// issues no timestamps and reads under the same shard mutex. Together with
// the probe-side filter `entry_ts <= probe_ts` (ProbeSeesEntry) this gives
// the symmetric-join guarantee: for any two rows r, s with ts(r) < ts(s),
// s's probe is ordered after r's insert (else s's probe section — which
// follows s's own ts issuance in program order — would precede r's
// issuance, contradicting ts(r) < ts(s)), so exactly the newer row observes
// the older one.
//
// Spill: under a global resident-entry budget (the threaded mapping of
// RunOptions::LargerThanMemory) each shard is one spill partition. A build
// past the budget spills the largest resident shard to its run file; a
// probe touching a spilled shard faults it back in before reading. Results
// are never affected, only the I/O counters and restore work.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "query/query_spec.h"
#include "runtime/tuple.h"
#include "spill/buffer_pool.h"
#include "spill/spill_summary.h"
#include "stem/probe_bindings.h"
#include "stem/stem.h"
#include "stem/stem_storage.h"
#include "types/row.h"
#include "types/value.h"

namespace stems {

namespace obs {
class MetricsRegistry;
}  // namespace obs

class ShardedStem;

/// Budget, run-wide pool + counters shared by all ShardedStems of one
/// threaded query run.
/// relaxed: every atomic is a statistic (or a best-effort budget check)
/// that orders no other memory access; std::atomic, not stems::Atomic, so
/// the model checker does not explore yield points no protocol depends on.
struct ShardedSpillState {
  /// Turns spill on for the stems constructed afterwards: `budget_entries`
  /// resident entries across them (0 = unlimited), run files behind one
  /// pool built from `options` (one partition per shard), publishing into
  /// `registry` (nullable) like the sim's pool.
  void EnableSpill(size_t budget_entries, const SpillOptions& options,
                   obs::MetricsRegistry* registry = nullptr);

  /// The run's spill state (residency, pool); safe while workers run
  /// (takes each shard lock, then the pool lock, one at a time). The spill
  /// I/O is the spill_ios / bytes_spilled counters below.
  SpillSummary Summarize(
      const std::vector<std::unique_ptr<ShardedStem>>& stems) const;

  /// Resident-entry budget across all stems (0 = unlimited).
  size_t budget_entries = 0;
  /// Entries currently charged against the budget (resident shards only).
  // invariant: allow(schedulable-atomic) -- relaxed: best-effort budget statistic, not a sync protocol (struct doc)
  std::atomic<int64_t> resident{0};
  // invariant: allow(schedulable-atomic) -- relaxed: monotone statistic (struct doc)
  std::atomic<uint64_t> spill_ios{0};
  // invariant: allow(schedulable-atomic) -- relaxed: monotone statistic (struct doc)
  std::atomic<uint64_t> bytes_spilled{0};
  /// Shard-mutex contention on the hot paths: acquisitions that found the
  /// mutex held, and the wall time spent blocked.
  // invariant: allow(schedulable-atomic) -- relaxed: monotone statistic (struct doc)
  std::atomic<uint64_t> lock_waits{0};
  // invariant: allow(schedulable-atomic) -- relaxed: monotone statistic (struct doc)
  std::atomic<uint64_t> lock_wait_ns{0};

  /// The run-wide page cache behind every shard's run file. Each shard's
  /// storage takes it on its spill paths (spill-out, fault-in, a build into
  /// a spilled shard; StemStorage::EnableSpill), always inside the shard
  /// lock: lock order shard mu -> pool_mu.
  mutable Mutex pool_mu;
  /// Set by EnableSpill before any stem exists; null = spill disabled.
  std::unique_ptr<BufferPool> pool STEMS_PT_GUARDED_BY(pool_mu);
  /// What every shard storage's run file is enabled with (page size).
  SpillOptions options;
};

class ShardedStem {
 public:
  /// `ts_counter` is the query-global build-timestamp source (the threaded
  /// TimestampAuthority); `spill` may be null for unbudgeted runs;
  /// `options` are the table's (its index implementation applies here).
  ShardedStem(int slot, const QuerySpec& query, size_t num_shards,
              Atomic<BuildTs>* ts_counter, ShardedSpillState* spill,
              const StemOptions& options = {});

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

  /// A probe match: the stored row + its build timestamp.
  using Matches = std::vector<std::pair<RowRef, BuildTs>>;
  /// A worker's reusable probe buffers.
  struct ProbeScratch {
    Matches matches;
    ProbeBindings bindings;
    std::vector<uint32_t> ids;  ///< lookup results of one shard
  };

  /// Fills `scratch->matches` with the stored entries `probe` may match and
  /// sees by the §3.1 rule, and returns it. A probe bound on the shard key
  /// searches one shard, any other every shard (StemStorage::Lookup). The
  /// matches are copies, so the expensive continuation (ProbeMatcher,
  /// cascading) runs outside the shard locks; that cannot change the match
  /// set, which is fixed at lock time.
  const Matches& Probe(const Tuple& probe, ProbeScratch* scratch);

  uint64_t num_entries() const { return entries_.load(std::memory_order_relaxed); }
  /// Adds every shard's partition residency and on-disk entries to `out`
  /// (each shard locked in turn; no global lock).
  void AddResidency(SpillSummary* out) const;

 private:
  /// Cache-line separated so two workers on adjacent shards never share.
  /// The storage is guarded by `mu` — the shard critical section of the
  /// §3.1 visibility contract — so an access outside it is a compile error
  /// under -Wthread-safety.
  struct alignas(64) Shard {
    explicit Shard(const std::string& table)
        : storage(table, /*pooled=*/false) {}
    mutable Mutex mu;
    StemStorage storage STEMS_GUARDED_BY(mu);
  };

  size_t ShardOfValue(const Value& v) const;
  size_t ShardOfRow(const Row& row) const;

  /// Charges one spill-path operation's I/O to the run counters.
  void Account(const StemStorage::SpillResult& io);
  /// Spills the largest resident shard other than `except` until the
  /// budget is met (or nothing is left to spill).
  void EnforceBudget(const Shard* except);

  /// sync: the query-global timestamp authority; fetch_add is issued inside
  /// the shard critical section (see Build), the shard mutex provides the
  /// ordering the §3.1 contract needs. stems::Atomic: a yield point under
  /// the model checker.
  Atomic<BuildTs>* const ts_counter_;
  ShardedSpillState* const spill_;
  const int slot_;
  const QuerySpec* const query_;
  /// The slot's first equi-join column, or -1 (no equi-join: rows spread by
  /// content hash). Never a range column: a range probe names no value.
  int shard_key_ = -1;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// relaxed: monotone statistic (total inserted entries across shards);
  /// sampled by observers, never used to order other accesses.
  // invariant: allow(schedulable-atomic) -- observer statistic, not a sync protocol
  std::atomic<uint64_t> entries_{0};
};

}  // namespace stems
