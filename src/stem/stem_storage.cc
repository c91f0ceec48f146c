#include "stem/stem_storage.h"

#include <cassert>

#include "spill/spill_file.h"

namespace stems {

/// Spill-partition state: the run file and per-partition residency/heat,
/// shared by every attached query.
struct StemStorage::Spill {
  BufferPool* pool = nullptr;
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

void StemStorage::Insert(RowRef row, BuildTs stored_ts) {
  const size_t p = SpillPartitionOfRow(*row);
  assert(PartitionResident(p));
  if (spill_ != nullptr) spill_->run_valid[p] = 0;  // memory diverges
  dedup_.insert(row);
  AddSlot(std::move(row), stored_ts, p);
  ++live_entries_;
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
                              int part_col) {
  if (spill_ != nullptr) return;
  spill_ = std::make_unique<Spill>();
  Spill& s = *spill_;
  s.pool = pool;
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

int StemStorage::spill_part_col() const {
  return spill_ == nullptr ? -1 : spill_->part_col;
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

void StemStorage::CountProbe(size_t p) {
  if (spill_ != nullptr) ++spill_->probe_counts[p];
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

StemStorage::SpillResult StemStorage::AppendToSpilledPartition(
    size_t p, RowRef row, BuildTs stored_ts) {
  Spill& s = *spill_;
  assert(!s.resident[p]);
  SpillResult out;
  const uint64_t ios_before = s.file->disk_ios();
  const uint64_t bytes_before = s.file->bytes_written();
  dedup_.insert(row);
  out.entries = 1;
  out.cost = s.file->Append(p, std::move(row), stored_ts);
  out.ios = s.file->disk_ios() - ios_before;
  out.bytes = s.file->bytes_written() - bytes_before;
  return out;
}

size_t StemStorage::partitions_spilled() const {
  return spill_ == nullptr ? 0 : spill_->spilled_partitions;
}

size_t StemStorage::partitions_resident() const {
  if (spill_ == nullptr) return 0;
  return spill_->resident.size() - spill_->spilled_partitions;
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

}  // namespace stems
