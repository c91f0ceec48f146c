// SpillFile: one SteM's partitioned run files, priced through a BufferPool.
//
// A SpillFile holds one append-only run per hash partition. Appends land in
// the partition's tail page inside the pool (write-behind) and are flushed
// through when the page fills; ReadAll() reads every page of a partition
// back through the pool (hits are free, misses pay read latency) when the
// owning SteM faults the partition in. The run is retained after a read, so
// re-spilling an unmodified partition writes nothing (see ReadAll).
//
// This is the §3.1 Grace partitioning story completed for memory pressure:
// "partition-clustered bounce-backs" wrote build tuples in partition order;
// spill files make the same partitions *individually evictable and
// restorable* under the §6 global memory budget, keeping joins exact where
// eviction would silently turn them into window joins.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/tuple.h"
#include "spill/buffer_pool.h"
#include "types/row.h"

namespace stems {

/// One spilled SteM entry: the row and its original build timestamp. The
/// timestamp travels with the row so a restored partition is
/// indistinguishable, for the TimeStamp constraint, from one that never
/// left memory.
struct SpilledEntry {
  RowRef row;
  BuildTs ts;
};

class SpillFile {
 public:
  SpillFile(BufferPool* pool, size_t partitions, size_t page_entries);

  /// Appends one entry to `partition`'s run. Returns the virtual I/O cost
  /// (page creation, fill write-through, possible pool write-back).
  SimTime Append(size_t partition, RowRef row, BuildTs ts);

  /// Reads `partition`'s whole run back (through the pool, every page) and
  /// copies the entries at run positions `from` and later into `*out`
  /// (appended). The owning SteM already holds the earlier entries in
  /// place, so it asks only for the ones appended while the partition was
  /// spilled. The run is RETAINED: while the restored partition stays
  /// unmodified in memory, re-spilling it is free (the run is still the
  /// truth), so fault-in/re-spill cycles do not rewrite disk. Returns the
  /// virtual read cost, which does not depend on `from`.
  SimTime ReadAll(size_t partition, std::vector<SpilledEntry>* out,
                  size_t from);

  /// Discards `partition`'s run (entries and pool pages). Called before a
  /// rewrite when the in-memory partition diverged from the run.
  void ClearPartition(size_t partition);

  /// Writes the partition's (dirty) tail page through. Called when a
  /// spill-out completes: a run that relieved memory pressure must be
  /// durably on disk, not only in the pool's write-behind buffer.
  SimTime FlushPartition(size_t partition);

  /// Stat-only estimate of ReadAll(partition)'s cost right now: pages not
  /// resident in the pool times the expected read cost.
  SimTime EstimateRestoreCost(size_t partition) const;

  size_t EntriesIn(size_t partition) const { return runs_[partition].size(); }
  size_t entries_total() const { return entries_total_; }
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t appends() const { return appends_; }
  uint64_t restores() const { return restores_; }
  /// Simulated disk I/Os attributed to this file (pool-stat deltas around
  /// this file's operations).
  uint64_t disk_reads() const { return disk_reads_; }
  uint64_t disk_writes() const { return disk_writes_; }
  uint64_t disk_ios() const { return disk_reads_ + disk_writes_; }

 private:
  PageKey KeyOf(size_t partition, size_t page) const;
  size_t PagesIn(size_t partition) const;

  BufferPool* pool_;
  uint32_t file_id_;
  size_t page_entries_;
  std::vector<std::vector<SpilledEntry>> runs_;
  size_t entries_total_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t appends_ = 0;
  uint64_t restores_ = 0;
  uint64_t disk_reads_ = 0;
  uint64_t disk_writes_ = 0;
};

}  // namespace stems
