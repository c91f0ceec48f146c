// State Module (SteM) — the paper's core contribution (§2.1.4, §3).
//
// A SteM is "half a join": a dictionary of singleton tuples from one base
// table, supporting build (insert), probe (lookup + concatenate), and
// optionally eviction. One SteM exists per base table and is shared by all
// join predicates, all access methods, and all FROM-clause instances of
// that table.
//
// The SteM enforces, internally, the constraints of paper Table 2 that
// belong to it:
//   SteM BounceBack — builds bounce unless duplicates (set semantics);
//     probes bounce unless the SteM provably has all matches (EOT coverage)
//     or the table has a scan AM and all the probe's components are built.
//   TimeStamp — a probe returns match m iff ts(probe) >= ts(m), and (§3.5)
//     only matches newer than the probe's LastMatchTimeStamp.
//
// Optional behaviours:
//   * priority bounce (§4.1): on tables with index AMs, prioritized probe
//     tuples are bounced even when a scan is running, so they can seed
//     index lookups and surface their matches sooner;
//   * eviction (sliding window over entry count) for continuous queries;
//   * deferred, partition-clustered bounce-backs of build tuples plus a
//     partition-switch probe penalty — the "asynchronous hash index" of
//     §3.1 that makes the eddy's routing simulate Grace hash join;
//   * spillable state (src/spill/): under a global memory budget the
//     governor moves whole hash partitions to simulated run files instead
//     of evicting, keeping joins exact. Builds into a spilled partition
//     append to its run; a probe against one faults it back in first
//     (paying buffer-pool read I/O).
//
// Cross-query sharing (§5, docs/sharing.md): this class is the *per-query
// facade* of a SteM. The physical dictionary (rows, indexes, spill
// partitions) lives in a StemStorage, which the engine's StemManager may
// pool across concurrent queries. A pooled facade keeps a per-query
// visibility overlay — row -> this query's build timestamp — so a build
// whose row another query already stored skips the physical insert
// (builds_avoided) while the query's own dataflow, timestamps, EOT
// coverage and bounce decisions stay exactly those of a private run.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/query_counters.h"
#include "runtime/module.h"
#include "runtime/query_context.h"
#include "stem/eot_store.h"
#include "stem/probe_bindings.h"
#include "stem/stem_index.h"
#include "stem/stem_storage.h"

namespace stems {

class BufferPool;
struct SpillOptions;

/// When, beyond the mandatory cases, a SteM bounces probe tuples on a table
/// that also has index AMs:
///   kConstraintOnly — only the bounces Table 2 requires;
///   kPrioritized    — additionally bounce user-prioritized probes (§4.1);
///   kAlways         — bounce every uncovered probe, giving the routing
///                     policy the option of exploring index AMs (this is
///                     what enables the §4.3 index/hash hybridization).
enum class ProbeBounceMode { kConstraintOnly, kPrioritized, kAlways };

struct StemOptions {
  StemIndexImpl index_impl = StemIndexImpl::kHash;
  size_t adaptive_threshold = 64;

  SimTime build_service_time = Micros(2);
  SimTime probe_service_time = Micros(2);

  ProbeBounceMode bounce_mode = ProbeBounceMode::kConstraintOnly;

  /// Sliding window: keep at most this many entries (0 = unbounded).
  size_t max_entries = 0;

  /// Grace-mode (§3.1): when > 1, build bounce-backs are buffered per hash
  /// partition of the first join column and released in clusters of
  /// `bounce_batch` (or on Flush()/scan-EOT); probes pay
  /// `partition_switch_penalty` when they touch a different partition than
  /// the previous probe (models partition I/O locality).
  size_t num_partitions = 1;
  size_t bounce_batch = 1;
  SimTime partition_switch_penalty = 0;
};

/// The table columns a SteM for `slots` of `query` indexes: every column of
/// the table involved in a join predicate on any of those slots (paper
/// §2.1.4). Sorted ascending. The StemManager keys its pool on this set —
/// queries share a SteM only when they need the same indexes.
std::vector<int> StemIndexColumns(const QuerySpec& query,
                                  const std::vector<int>& slots);

class Stem : public Module {
 public:
  /// `storage` is the physical dictionary to attach to; nullptr creates a
  /// private one (single-query SteM, the default). A pooled storage (from
  /// the engine's StemManager) may already hold other queries' state.
  Stem(QueryContext* ctx, std::string table_name, StemOptions options = {},
       std::shared_ptr<StemStorage> storage = nullptr);

  ModuleKind kind() const override { return ModuleKind::kStem; }

  const std::string& table_name() const { return table_name_; }
  const std::vector<int>& table_slots() const { return table_slots_; }
  /// True if `slot` is one of this SteM's table instances.
  bool ServesSlot(int slot) const;

  /// Live in-memory entries of the backing storage. For a pooled SteM this
  /// is the *shared* dictionary size — the right signal for probe-cost
  /// models and the memory governor; the query's visible subset may be
  /// smaller (see builds_avoided / docs/sharing.md).
  size_t num_entries() const { return storage_->live_entries(); }
  const EotStore& eot_store() const { return eots_; }
  /// Largest build timestamp this query stored (0 when empty); §3.5
  /// re-probe gating. Always per-query, also on pooled storage.
  BuildTs max_entry_ts() const { return max_entry_ts_; }

  uint64_t duplicates_absorbed() const { return counters_.duplicates; }
  uint64_t probes_bounced() const { return probes_bounced_; }
  uint64_t probes_processed() const { return counters_.probes; }
  uint64_t matches_emitted() const { return counters_.matches; }
  uint64_t builds() const { return counters_.builds; }
  /// This SteM's share of the query's counters.
  const obs::QueryCounters& counters() const { return counters_; }
  uint64_t evictions() const { return evictions_; }

  // --- cross-query sharing (engine StemManager, docs/sharing.md) ------------

  const std::shared_ptr<StemStorage>& storage() const { return storage_; }
  bool pooled() const { return storage_->pooled(); }
  /// Did this facade attach to a storage another query had already
  /// populated? (Set by the planner from the StemManager's answer.)
  bool attached_shared() const { return attached_shared_; }
  void MarkAttachedShared() { attached_shared_ = true; }
  /// Builds whose row was already physically stored by another query: the
  /// insert, index and (if spilled) run-file work this query skipped.
  uint64_t builds_avoided() const { return counters_.builds_avoided; }
  /// Storage insertion sequence at attach time — the query's epoch
  /// boundary, for observability and diagnostics: entries at or below it
  /// predate the query. Visibility itself is *enforced* by the per-query
  /// overlay (an old entry becomes visible exactly when this query's own
  /// build of the row lands there), so the watermark is never consulted
  /// on the probe path.
  uint64_t attach_watermark() const { return attach_watermark_; }

  /// Registered by the eddy: fires after every build/EOT arrival so parked
  /// prior probers can be re-dispatched.
  void SetChangeListener(std::function<void()> listener) {
    change_listener_ = std::move(listener);
  }

  /// Releases any deferred (Grace-mode) bounce-backs immediately.
  void FlushDeferredBounces();

  /// Evicts up to `n` of the oldest live entries (used by the eddy's
  /// global MemoryGovernor, paper §6: "the eddy can make memory allocation
  /// decisions in a globally optimal manner"). Returns entries evicted;
  /// always 0 on a pooled SteM (shared state is never windowed).
  size_t EvictOldest(size_t n);

  // --- spill-aware state storage (src/spill/, paper §6 + §3.1) --------------

  /// Makes this SteM's state spillable at hash-partition granularity (on
  /// the first indexed join column). Called by the eddy at registration
  /// when EddyOptions::spill is enabled (`pool` is the query-wide buffer
  /// pool), or by the planner with the engine-wide pool for pooled SteMs —
  /// a no-op if the backing storage already spills.
  void EnableSpill(BufferPool* pool, const SpillOptions& options);
  bool spill_enabled() const { return storage_->spill_enabled(); }

  /// Moves the coldest resident partition (fewest probes per stored entry)
  /// to its run file; exact-join semantics are preserved because spilled
  /// entries keep their rows, timestamps and dedup identity. Returns the
  /// number of entries spilled (0 when nothing is spillable). The
  /// MemoryGovernor's kSpillColdest victim policy calls this instead of
  /// EvictOldest.
  size_t SpillColdestPartition();

  size_t partitions_spilled() const { return storage_->partitions_spilled(); }
  /// Spill traffic attributed to *this query's* operations (builds, probe
  /// fault-ins, governor spills it triggered): simulated page reads +
  /// writes, and bytes appended. On a private SteM this equals the run
  /// file's lifetime totals.
  uint64_t spill_ios() const { return counters_.spill_ios; }
  uint64_t bytes_spilled() const { return counters_.bytes_spilled; }

  /// Expected extra virtual time a probe pays here right now because of
  /// spilled partitions (fault-in I/O, amortized). Routing policies fold
  /// this into their cost model so probe routing reflects spill state.
  SimTime ExpectedProbeSpillCost() const {
    return storage_->ExpectedProbeSpillCost();
  }

  /// A SteM with an outstanding I/O charge marker is not quiescent: a
  /// pending event will still occupy virtual time on this query's behalf.
  bool Quiescent() const override;

  /// The name of the index implementation currently backing `column`
  /// ("hash", "ordered", "list"); empty if the column is not indexed.
  std::string IndexImplFor(int column) const;

 protected:
  SimTime ServiceTime(const Tuple& tuple) const override;
  void Process(TuplePtr tuple) override;
  /// Batched service: builds/probes of the group run back to back, and the
  /// change notification (parked-prober wakeups + memory-governor
  /// rebalance) fires once at the end of the group instead of per build.
  void ProcessBatch(std::vector<TuplePtr>* tuples) override;

 private:
  void ProcessBuild(TuplePtr tuple);
  void ProcessProbe(TuplePtr tuple);
  void EvictIfNeeded();
  void NotifyChange();
  size_t PartitionOf(const Tuple& tuple) const;

  /// Books spill I/O: the cost is drained into the next ServiceTime, and a
  /// marker event keeps the clock occupied in case no service follows. The
  /// ios/bytes of the triggering operation are billed to this query.
  void AccrueIoCharge(const StemStorage::SpillResult& io);

  /// Probe-path scratch buffers (service is serialized per module, so one
  /// set suffices; keeps the hot path allocation-free). The partition
  /// buffer is separate (and mutable) because PartitionOf() runs inside
  /// const ServiceTime() while binds_scratch_ may hold live probe state.
  ProbeBindings binds_scratch_;
  mutable ProbeBindings partition_binds_scratch_;
  std::vector<uint32_t> candidates_scratch_;
  ProbeMatcher matcher_;

  QueryContext* ctx_;
  std::string table_name_;
  std::vector<int> table_slots_;
  bool table_has_scan_am_ = false;
  bool table_has_index_am_ = false;
  StemOptions options_;

  /// The physical dictionary (rows, indexes, spill partitions). Private by
  /// default; pooled across queries when handed in by the StemManager.
  std::shared_ptr<StemStorage> storage_;

  /// Per-query visibility overlay (pooled storage only): row -> this
  /// query's build timestamp. Serves as the query's dedup set (a second
  /// build of the same row within the query is absorbed) and as the
  /// timestamp source for the TimeStamp constraint — entries another query
  /// stored stay invisible until this query's own build of the row lands
  /// here. Content-keyed so it survives spill/fault round trips.
  std::unordered_map<RowRef, BuildTs, RowRefContentHash, RowRefContentEq>
      query_ts_;

  BuildTs max_entry_ts_ = 0;
  EotStore eots_;

  /// Grace mode state.
  std::vector<std::vector<TuplePtr>> deferred_bounces_;
  mutable size_t last_probed_partition_ = SIZE_MAX;

  /// Spill I/O cost accrued during processing; drained into the next
  /// ServiceTime (write-behind spills / synchronous fault-ins consume this
  /// module's service capacity one event later).
  mutable SimTime pending_io_charge_ = 0;
  /// Undrained accruals backing pending_io_charge_, by accrual id: lets a
  /// marker retire exactly its own still-pending amount (and nothing a
  /// service already billed, and no newer accrual).
  mutable std::vector<std::pair<uint64_t, SimTime>> io_accruals_;
  uint64_t next_io_accrual_id_ = 0;
  /// Outstanding I/O marker events (AccrueIoCharge): the SteM is not
  /// quiescent while one is pending, so completion cannot be stamped
  /// ahead of trailing spill I/O.
  size_t pending_io_markers_ = 0;

  /// Batched-service state: while a group is in flight, NotifyChange()
  /// latches instead of firing, and the pending notification is delivered
  /// once after the group.
  bool defer_change_notify_ = false;
  bool pending_change_notify_ = false;

  std::function<void()> change_listener_;

  /// Hot-path metrics: series handles resolved once (the per-match
  /// "span.<mask>" key used to be rebuilt per emitted concatenation).
  CounterSeries* dups_series_ = nullptr;
  CounterSeries* bounces_series_ = nullptr;
  CounterSeries* evictions_series_ = nullptr;
  CounterSeries* spill_out_series_ = nullptr;
  CounterSeries* spill_in_series_ = nullptr;
  std::vector<std::pair<uint64_t, CounterSeries*>> span_series_;
  CounterSeries* SpanSeries(uint64_t mask);

  /// builds, duplicates, probes, matches, builds_avoided, and the spill
  /// I/O attributed to this query (spill_ios(), bytes_spilled()).
  obs::QueryCounters counters_;
  uint64_t probes_bounced_ = 0;
  uint64_t evictions_ = 0;
  uint64_t attach_watermark_ = 0;
  bool attached_shared_ = false;
};

}  // namespace stems
