#include "stem/stem_storage.h"

#include <cassert>

#include "common/thread_annotations.h"
#include "spill/spill_file.h"

namespace stems {

namespace {

/// Holds EnableSpill's pool lock, if it was given one, across one
/// operation through the buffer pool. Conditional, so invisible to the
/// thread-safety analysis; the schedule explorer checks the threaded
/// shards' locking instead (tests/test_schedule_explore.cc).
struct PoolLock {
  explicit PoolLock(Mutex* m) STEMS_NO_THREAD_SAFETY_ANALYSIS : mu(m) {
    if (mu != nullptr) mu->Lock();
  }
  ~PoolLock() STEMS_NO_THREAD_SAFETY_ANALYSIS {
    if (mu != nullptr) mu->Unlock();
  }
  Mutex* const mu;
};

}  // namespace

/// Spill-partition state: the run file and per-partition residency/heat,
/// shared by every attached query.
struct StemStorage::Spill {
  BufferPool* pool = nullptr;
  /// Guards `pool` when several storages share it across threads (null on
  /// the sim).
  Mutex* pool_mu = nullptr;
  SpillOptions options;
  std::unique_ptr<SpillFile> file;
  /// Partitioning column (first indexed join column); -1 degenerates to a
  /// single partition.
  int part_col = -1;
  std::vector<uint8_t> resident;  ///< per partition
  /// Live slotted entries per partition, resident or not (a clean spill
  /// or restore moves the whole count in or out of live_entries_). While a
  /// partition is spilled these are exactly the leading entries of its run:
  /// a spill-out leaves the run equal to the live slots, and nothing
  /// evicts a spilled slot. The run's tail past them is the rows appended
  /// while spilled, the only ones a fault-in has to slot.
  std::vector<size_t> live_in_partition;
  std::vector<uint64_t> probe_counts;  ///< per-partition heat
  /// Partition of every slot in entries_ (0 for slots that were already
  /// tombstones when spill was enabled).
  std::vector<uint16_t> part_of_entry;
  /// entries_ ids per partition, ascending, so a dirty spill-out rewrites
  /// only its own partition (evicted ids are dropped there) and a restore
  /// knows its oldest slot.
  std::vector<std::vector<uint32_t>> ids_in_partition;
  /// Run file still equals the partition's content (clean): re-spilling is
  /// free — drop the memory copy. Cleared by any in-memory mutation.
  std::vector<uint8_t> run_valid;
  /// A fault-in's unslotted run tail (reused buffer).
  std::vector<SpilledEntry> restore_scratch;
  size_t spilled_partitions = 0;
  /// Most recently faulted partition: skipped by victim selection (unless
  /// it is the only candidate) so a fault-in is not immediately undone.
  size_t last_faulted = SIZE_MAX;
  uint64_t entries_spilled_total = 0;
};

StemStorage::StemStorage(std::string table_name, bool pooled)
    : table_name_(std::move(table_name)), pooled_(pooled) {}

StemStorage::~StemStorage() = default;

void StemStorage::AddSlot(RowRef row, BuildTs stored_ts, size_t p) {
  const uint32_t id = static_cast<uint32_t>(entries_.size());
  for (auto& [col, index] : indexes_) {
    index->Insert(row->value(col), id);
  }
  if (spill_ != nullptr) {
    spill_->part_of_entry.push_back(static_cast<uint16_t>(p));
    spill_->ids_in_partition[p].push_back(id);
    ++spill_->live_in_partition[p];
  }
  entries_.push_back(Entry{std::move(row), stored_ts});
}

void StemStorage::EnsureIndexes(const std::vector<int>& cols,
                                StemIndexImpl impl,
                                size_t adaptive_threshold) {
  if (!indexes_.empty()) {
    assert(indexes_.size() == cols.size() &&
           "pooled SteM storage acquired with a different index column set");
    return;
  }
  for (int col : cols) {
    indexes_.emplace_back(col, MakeStemIndex(impl, adaptive_threshold));
  }
}

StemStorage::SpillResult StemStorage::Store(RowRef row, BuildTs stored_ts) {
  const size_t p = SpillPartitionOfRow(*row);
  dedup_.insert(row);
  SpillResult out;
  if (PartitionResident(p)) {
    if (spill_ != nullptr) spill_->run_valid[p] = 0;  // memory diverges
    AddSlot(std::move(row), stored_ts, p);
    ++live_entries_;
    return out;
  }
  Spill& s = *spill_;
  PoolLock pool_lock(s.pool_mu);
  const uint64_t ios_before = s.file->disk_ios();
  const uint64_t bytes_before = s.file->bytes_written();
  out.entries = 1;
  out.cost = s.file->Append(p, std::move(row), stored_ts);
  out.ios = s.file->disk_ios() - ios_before;
  out.bytes = s.file->bytes_written() - bytes_before;
  return out;
}

void StemStorage::Lookup(const QuerySpec& query, const Tuple& probe,
                         int target_slot, const ProbeBindings& binds,
                         std::vector<uint32_t>* out_ids) const {
  std::vector<uint32_t>& out = *out_ids;
  out.clear();
  for (const auto& [col, val] : binds) {
    for (const auto& [idx_col, index] : indexes_) {
      if (idx_col == col) {
        index->LookupEq(val, &out);
        if (partitions_spilled() > 0) DropSpilled(&out);
        return;
      }
    }
  }

  // No equality binding: try a range join predicate against an index that
  // serves ranges (StemIndexImpl::kOrdered).
  for (const auto& p : query.predicates()) {
    if (!p.is_join() || p.op() == CompareOp::kEq || p.op() == CompareOp::kNe) {
      continue;
    }
    // Orient the comparison as <stem column> OP <probe value>.
    int stem_col;
    CompareOp op = p.op();
    const ColumnRef* peer;
    if (p.lhs().table_slot == target_slot) {
      stem_col = p.lhs().column;
      peer = &p.rhs();
    } else if (p.rhs().table_slot == target_slot) {
      stem_col = p.rhs().column;
      peer = &p.lhs();
      // Flip the operator: probe OP stem  ==>  stem OP' probe.
      switch (op) {
        case CompareOp::kLt: op = CompareOp::kGt; break;
        case CompareOp::kLe: op = CompareOp::kGe; break;
        case CompareOp::kGt: op = CompareOp::kLt; break;
        case CompareOp::kGe: op = CompareOp::kLe; break;
        default: break;
      }
    } else {
      continue;
    }
    const Value* v = probe.ValueAt(peer->table_slot, peer->column);
    if (v == nullptr) continue;
    for (const auto& [idx_col, index] : indexes_) {
      if (idx_col != stem_col) continue;
      const bool lower = op == CompareOp::kGt || op == CompareOp::kGe;
      const bool inclusive = op == CompareOp::kLe || op == CompareOp::kGe;
      if (index->LookupRange(lower ? v : nullptr, inclusive,
                             lower ? nullptr : v, inclusive, &out)) {
        if (partitions_spilled() > 0) DropSpilled(&out);
        return;
      }
      out.clear();  // index cannot serve ranges; fall through to full scan
    }
  }

  // No usable index: every live slot is a candidate.
  out.reserve(entries_.size());
  for (uint32_t id = 0; id < entries_.size(); ++id) {
    if (entries_[id].row != nullptr) out.push_back(id);
  }
  if (partitions_spilled() > 0) DropSpilled(&out);
}

size_t StemStorage::EvictOldest(size_t n) {
  if (pooled_) return 0;  // shared state is never windowed (docs/sharing.md)
  size_t evicted = 0;
  while (evicted < n && next_eviction_ < entries_.size()) {
    const size_t id = next_eviction_++;
    Entry& victim = entries_[id];
    if (victim.row == nullptr) continue;  // already a tombstone
    if (spill_ != nullptr) {
      const size_t p = spill_->part_of_entry[id];
      // On disk: not in memory, so not windowed out of it. Its restore
      // rewinds the cursor back here.
      if (!spill_->resident[p]) continue;
      --spill_->live_in_partition[p];
      spill_->run_valid[p] = 0;  // a retained run would resurrect the row
    }
    dedup_.erase(victim.row);
    victim.row = nullptr;  // tombstone; index ids skip it at lookup
    --live_entries_;
    ++evicted;
  }
  return evicted;
}

// --- spill -------------------------------------------------------------------

void StemStorage::EnableSpill(BufferPool* pool, const SpillOptions& options,
                              int part_col, Mutex* pool_mu) {
  if (spill_ != nullptr) return;
  spill_ = std::make_unique<Spill>();
  Spill& s = *spill_;
  s.pool = pool;
  s.pool_mu = pool_mu;
  s.options = options;
  s.part_col = part_col;
  const size_t n =
      part_col < 0 ? 1 : (options.partitions == 0 ? 1 : options.partitions);
  s.file = std::make_unique<SpillFile>(pool, n, options.page_entries);
  s.resident.assign(n, 1);
  s.live_in_partition.assign(n, 0);
  s.probe_counts.assign(n, 0);
  s.part_of_entry.assign(entries_.size(), 0);
  s.run_valid.assign(n, 0);
  s.ids_in_partition.assign(n, {});
  for (uint32_t id = 0; id < entries_.size(); ++id) {
    if (entries_[id].row == nullptr) continue;
    const size_t p = SpillPartitionOfRow(*entries_[id].row);
    s.part_of_entry[id] = static_cast<uint16_t>(p);
    ++s.live_in_partition[p];
    s.ids_in_partition[p].push_back(id);
  }
}

size_t StemStorage::num_spill_partitions() const {
  return spill_ == nullptr ? 0 : spill_->resident.size();
}

bool StemStorage::PartitionResident(size_t p) const {
  return spill_ == nullptr || spill_->resident[p] != 0;
}

size_t StemStorage::SpillPartitionOfRow(const Row& row) const {
  if (spill_ == nullptr || spill_->part_col < 0) return 0;
  return row.value(static_cast<size_t>(spill_->part_col)).Hash() %
         spill_->resident.size();
}

size_t StemStorage::CountProbe(const ProbeBindings& binds) {
  const size_t nparts = spill_->resident.size();
  if (spill_->part_col < 0 || nparts <= 1) return kUnbound;
  for (const auto& [col, val] : binds) {
    if (col != spill_->part_col) continue;
    const size_t p = val.Hash() % nparts;
    ++spill_->probe_counts[p];
    return p;
  }
  return kUnbound;
}

void StemStorage::DropSpilled(std::vector<uint32_t>* ids) const {
  const Spill& s = *spill_;
  size_t kept = 0;
  for (uint32_t id : *ids) {
    if (s.resident[s.part_of_entry[id]]) (*ids)[kept++] = id;
  }
  ids->resize(kept);
}

StemStorage::SpillResult StemStorage::SpillColdestPartition() {
  SpillResult out;
  if (spill_ == nullptr) return out;
  Spill& s = *spill_;
  PoolLock pool_lock(s.pool_mu);
  const size_t nparts = s.resident.size();
  size_t victim = SIZE_MAX;
  double victim_heat = 0;
  for (size_t p = 0; p < nparts; ++p) {
    if (!s.resident[p] || s.live_in_partition[p] == 0) continue;
    if (p == s.last_faulted) continue;  // anti-thrash: not right back out
    const double heat = static_cast<double>(s.probe_counts[p]) /
                        static_cast<double>(s.live_in_partition[p]);
    if (victim == SIZE_MAX || heat < victim_heat ||
        (heat == victim_heat &&
         s.live_in_partition[p] > s.live_in_partition[victim])) {
      victim = p;
      victim_heat = heat;
    }
  }
  if (victim == SIZE_MAX && s.last_faulted < nparts &&
      s.resident[s.last_faulted] && s.live_in_partition[s.last_faulted] > 0) {
    // Sole candidate beats an unenforced budget.
    victim = s.last_faulted;
  }
  if (victim == SIZE_MAX) return out;

  const uint64_t ios_before = s.file->disk_ios();
  const uint64_t bytes_before = s.file->bytes_written();
  // Clean partition (faulted in earlier, unmodified since): the run file
  // already holds exactly this content, so spilling only flips residency —
  // no I/O and no per-row work. Otherwise rewrite the run from the live
  // slots (dropping evicted ids) and flush it.
  const bool clean = s.run_valid[victim] &&
                     s.file->EntriesIn(victim) == s.live_in_partition[victim];
  if (!clean) {
    s.file->ClearPartition(victim);
    std::vector<uint32_t>& ids = s.ids_in_partition[victim];
    size_t kept = 0;
    for (uint32_t id : ids) {
      const Entry& entry = entries_[id];
      if (entry.row == nullptr) continue;  // evicted since listed
      out.cost += s.file->Append(victim, entry.row, entry.ts);
      ids[kept++] = id;
    }
    ids.resize(kept);
    out.cost += s.file->FlushPartition(victim);  // run durably on disk
  }
  // Slots, index postings and dedup identity stay; probes skip the
  // partition's ids until it is resident again.
  out.entries = s.live_in_partition[victim];
  live_entries_ -= out.entries;
  s.run_valid[victim] = 1;
  s.resident[victim] = 0;
  ++s.spilled_partitions;
  s.entries_spilled_total += out.entries;
  out.ios = s.file->disk_ios() - ios_before;
  out.bytes = s.file->bytes_written() - bytes_before;
  return out;
}

StemStorage::SpillResult StemStorage::FaultInPartition(size_t p) {
  SpillResult out;
  if (spill_ == nullptr || spill_->resident[p]) return out;
  Spill& s = *spill_;
  PoolLock pool_lock(s.pool_mu);
  const uint64_t ios_before = s.file->disk_ios();
  // Every page is fetched (the I/O model is unchanged), but only the run's
  // unslotted tail — rows appended while spilled — is copied out and
  // slotted; their dedup identity was registered at append time.
  assert(s.file->EntriesIn(p) >= s.live_in_partition[p]);
  s.restore_scratch.clear();
  out.cost = s.file->ReadAll(p, &s.restore_scratch, s.live_in_partition[p]);
  s.resident[p] = 1;
  --s.spilled_partitions;
  for (SpilledEntry& e : s.restore_scratch) {
    AddSlot(std::move(e.row), e.ts, p);
  }
  s.restore_scratch.clear();
  out.entries = s.live_in_partition[p];
  live_entries_ += out.entries;
  // Slots passed over by EvictOldest while on disk are evictable again.
  const std::vector<uint32_t>& ids = s.ids_in_partition[p];
  if (!ids.empty() && ids.front() < next_eviction_) {
    next_eviction_ = ids.front();
  }
  // The retained run equals the in-memory partition again.
  s.run_valid[p] = 1;
  s.last_faulted = p;
  out.ios = s.file->disk_ios() - ios_before;
  return out;
}

size_t StemStorage::partitions_spilled() const {
  return spill_ == nullptr ? 0 : spill_->spilled_partitions;
}

uint64_t StemStorage::entries_spilled() const {
  if (spill_ == nullptr) return 0;
  // Only non-resident partitions' runs hold entries that are *not* in
  // memory (resident partitions may retain a clean run as a copy).
  uint64_t n = 0;
  for (size_t p = 0; p < spill_->resident.size(); ++p) {
    if (!spill_->resident[p]) n += spill_->file->EntriesIn(p);
  }
  return n;
}

SimTime StemStorage::ExpectedProbeSpillCost() const {
  if (spill_ == nullptr || spill_->spilled_partitions == 0) return 0;
  const Spill& s = *spill_;
  // P(the probe's partition is spilled) × mean pages per spilled partition
  // × expected page read cost.
  const double frac = static_cast<double>(s.spilled_partitions) /
                      static_cast<double>(s.resident.size());
  const size_t page_entries =
      s.options.page_entries == 0 ? 1 : s.options.page_entries;
  const double pages_per_part =
      static_cast<double>((entries_spilled() + page_entries - 1) /
                          page_entries) /
      static_cast<double>(s.spilled_partitions);
  return static_cast<SimTime>(frac * pages_per_part *
                              static_cast<double>(s.pool->ExpectedReadCost()));
}

void StemStorage::AddTo(SpillSummary* out) const {
  if (spill_ == nullptr) return;
  out->entries_spilled += entries_spilled();
  out->partitions_resident +=
      spill_->resident.size() - spill_->spilled_partitions;
  out->partitions_spilled += spill_->spilled_partitions;
}

}  // namespace stems
