// StemStorage: the shareable physical half of a SteM.
//
// The paper's §5 claim — SteMs enable "sharing of state and computation
// between queries" — requires the dictionary itself (rows, indexes, spilled
// partitions) to outlive and span individual query plans. This class is
// that dictionary: entries, content-keyed dedup identity, secondary
// indexes, and the spill-partition state, factored out of the per-query
// Stem module so several concurrent queries can attach to one copy. Its
// build (Store), probe spill step (FaultInForProbe) and lookup (Lookup) are
// the one implementation the sim Stem and the threaded shards both call.
//
// Ownership is ref-counted: every attached Stem facade holds a shared_ptr;
// the engine's StemManager keeps only a weak registry entry, so the storage
// is evicted lazily when the last query releases it. The storage schedules
// nothing on a clock: every spill operation runs synchronously and returns
// its I/O to the caller, so the sim SteM and the threaded shards share it.
//
// Visibility across queries is NOT this class's concern. In pooled mode
// every entry carries an insertion sequence number, and each attached
// facade keeps a private overlay of per-query build timestamps (see
// Stem::query_ts_ and docs/sharing.md): an entry is visible to a query iff
// that query logically built it. StemStorage only stores rows once and
// tells builders whether the row is already present (Contains).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "query/query_spec.h"
#include "runtime/tuple.h"
#include "sim/clock.h"
#include "spill/spill_options.h"
#include "spill/spill_summary.h"
#include "stem/probe_bindings.h"
#include "stem/stem_index.h"
#include "types/row.h"

namespace stems {

class BufferPool;
class Mutex;

class StemStorage {
 public:
  /// One slot of the entry array. A slot keeps its row, its index
  /// postings and its id while its spill partition is on disk: residency
  /// is a per-partition property (PartitionResident), not a per-slot one.
  struct Entry {
    RowRef row;  ///< null after eviction (tombstone)
    /// Private storage: the owning query's BuildTs. Pooled storage: the
    /// insertion sequence number (per-query timestamps live in each
    /// facade's overlay; the sequence survives spill round trips and is
    /// the source of attach-time watermarks).
    BuildTs ts = 0;
  };

  /// Result of one spill-subsystem operation, with the I/O it performed so
  /// the calling facade can bill itself (per-query attribution).
  struct SpillResult {
    size_t entries = 0;  ///< entries moved (spilled out / restored in /
                         ///< appended to a run)
    SimTime cost = 0;    ///< virtual I/O time to charge
    uint64_t ios = 0;    ///< simulated disk page reads + writes
    uint64_t bytes = 0;  ///< bytes appended to the run file
  };

  /// `pooled` marks storage managed by a StemManager (shared across
  /// queries): builds go through per-facade visibility overlays and
  /// windowed eviction is refused.
  StemStorage(std::string table_name, bool pooled);
  ~StemStorage();

  StemStorage(const StemStorage&) = delete;
  StemStorage& operator=(const StemStorage&) = delete;

  const std::string& table_name() const { return table_name_; }
  bool pooled() const { return pooled_; }

  /// Monotonic insertion sequence; a facade snapshots it at attach time as
  /// its visibility watermark (entries at or below it predate the query).
  uint64_t build_seq() const { return build_seq_; }
  BuildTs IssueSeq() { return ++build_seq_; }

  // --- rows, dedup identity, indexes -----------------------------------------

  /// Is `row` (by content) physically stored, in a resident or a spilled
  /// partition? Builders use this for set semantics within one query and
  /// for cross-query build avoidance.
  bool Contains(const RowRef& row) const { return dedup_.count(row) > 0; }

  /// Gives the storage one index of implementation `impl` per column in
  /// `cols` (StemIndexColumns), unless it is indexed already: a pooled
  /// storage is indexed by its first attacher, and later attachers need the
  /// same columns by construction (the StemManager keys its pool on them).
  void EnsureIndexes(const std::vector<int>& cols, StemIndexImpl impl,
                     size_t adaptive_threshold);

  /// Stores a row no query stored before (the caller checked Contains) and
  /// registers its dedup identity. A resident partition takes it into
  /// memory and its indexes; a spilled partition's run gets it appended
  /// instead — the row never touches memory, and a later fault-in restores
  /// it indistinguishably (TimeStamp-wise) from a resident build. Returns
  /// the append's I/O (`entries` = 1), or all zero for an in-memory insert.
  SpillResult Store(RowRef row, BuildTs stored_ts);

  /// Evicts up to `n` of the oldest live resident entries, in slot order
  /// (sliding-window semantics). Entries of spilled partitions are passed
  /// over; restoring their partition rewinds the cursor to them, so they
  /// are evicted in slot order once resident again. Pooled storage refuses
  /// (returns 0): evicting shared state would silently window every
  /// attached query's join.
  size_t EvictOldest(size_t n);

  /// Every slot ever built (tombstones included), whatever the residency
  /// of its partition; probes must DropSpilled() before reading rows.
  const std::vector<Entry>& entries() const { return entries_; }
  /// Live entries of resident partitions: what counts against budgets.
  size_t live_entries() const { return live_entries_; }

  const std::vector<std::pair<int, std::unique_ptr<StemIndex>>>& indexes()
      const {
    return indexes_;
  }

  /// Candidate entry ids (into `*out`, cleared first) for a probe of
  /// `target_slot` carrying `binds`: a bound column's index, else a range
  /// join predicate through an index that serves ranges (§2.1.4: "searches
  /// on arbitrary predicates"), else every live slot. Spilled partitions'
  /// ids are dropped; tombstones an index lists are not (skip null rows).
  /// The caller verifies the predicates per candidate.
  void Lookup(const QuerySpec& query, const Tuple& probe, int target_slot,
              const ProbeBindings& binds, std::vector<uint32_t>* out) const;

  // --- spill-aware partition state (src/spill/) ------------------------------

  /// Makes the storage spillable through `pool`, partitioned on column
  /// `part_col` (-1: one partition). `pool_mu`, when given, guards `pool`
  /// for storages that share it across threads: every operation below that
  /// reads or writes through the pool holds it, nested inside whatever lock
  /// the caller holds on this storage.
  void EnableSpill(BufferPool* pool, const SpillOptions& options,
                   int part_col, Mutex* pool_mu = nullptr);
  bool spill_enabled() const { return spill_ != nullptr; }
  size_t num_spill_partitions() const;
  bool PartitionResident(size_t p) const;
  size_t SpillPartitionOfRow(const Row& row) const;
  /// Removes from `ids` the entry ids whose partition is spilled. Lookup
  /// calls it only while partitions_spilled() > 0, so SteMs without spill
  /// pay nothing per candidate.
  void DropSpilled(std::vector<uint32_t>* ids) const;

  /// The probe-side spill step of both executors, run before Lookup():
  /// counts the probe against the partition its bindings fix on the
  /// partitioning column (victim-selection heat), then restores that
  /// partition if it is spilled, or every spilled partition when the probe
  /// is not bound to one (any of them could hold matches). Calls
  /// `bill(result)` once per restore, so the caller charges the I/O on its
  /// own clock. Returns whether any partition was restored.
  template <typename Bill>
  bool FaultInForProbe(const ProbeBindings& binds, Bill&& bill) {
    if (spill_ == nullptr) return false;
    const size_t bound = CountProbe(binds);
    if (partitions_spilled() == 0) return false;
    if (bound != kUnbound) {
      if (PartitionResident(bound)) return false;
      bill(FaultInPartition(bound));
      return true;
    }
    for (size_t p = 0; p < num_spill_partitions(); ++p) {
      if (!PartitionResident(p)) bill(FaultInPartition(p));
    }
    return true;
  }

  /// Moves the coldest resident partition to its run file (exact: rows,
  /// sequence numbers and dedup identity are preserved). A clean partition
  /// (its retained run still matches memory) only changes residency; a
  /// dirty one rewrites its run first.
  SpillResult SpillColdestPartition();
  /// Restores a partition synchronously (no-op result if resident). The
  /// whole run is read through the pool; only rows appended while the
  /// partition was spilled get new slots and index postings.
  SpillResult FaultInPartition(size_t p);
  size_t partitions_spilled() const;
  /// Live entries currently only on disk (in non-resident partitions).
  uint64_t entries_spilled() const;
  /// Expected extra virtual time a probe pays right now because of spilled
  /// partitions (fault-in I/O, amortized).
  SimTime ExpectedProbeSpillCost() const;

  /// Adds this storage's residency (live entries on disk, resident and
  /// spilled partitions) to `*out`; nothing when spill is off.
  void AddTo(SpillSummary* out) const;

 private:
  struct Spill;  // defined in stem_storage.cc; keeps spill includes out

  static constexpr size_t kUnbound = SIZE_MAX;
  /// Records probe heat (the victim-selection signal) against the partition
  /// `binds` fix on the partitioning column and returns it; kUnbound when
  /// they fix none or there is only one partition.
  size_t CountProbe(const ProbeBindings& binds);

  /// Appends a slot for `row` in partition `p` and indexes it. Dedup
  /// identity and live_entries_ are the callers' business: a restore
  /// neither re-registers the row nor counts it before the partition does.
  void AddSlot(RowRef row, BuildTs stored_ts, size_t p);

  std::string table_name_;
  bool pooled_;

  std::vector<Entry> entries_;
  size_t live_entries_ = 0;
  size_t next_eviction_ = 0;
  uint64_t build_seq_ = 0;
  std::unordered_set<RowRef, RowRefContentHash, RowRefContentEq> dedup_;

  /// join column -> index (indexes are secondary: ids into entries_).
  std::vector<std::pair<int, std::unique_ptr<StemIndex>>> indexes_;

  std::unique_ptr<Spill> spill_;
};

}  // namespace stems
