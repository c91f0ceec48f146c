#include "spill/spill_file.h"

#include <cstddef>

namespace stems {

namespace {
/// Approximate serialized size of one entry: a header plus one fixed-width
/// cell per value (spill accounting, not real storage).
uint64_t ApproxEntryBytes(const Row& row) {
  return 16 + 8 * static_cast<uint64_t>(row.num_values());
}
}  // namespace

SpillFile::SpillFile(BufferPool* pool, size_t partitions, size_t page_entries)
    : pool_(pool),
      file_id_(pool->RegisterFile()),
      page_entries_(page_entries == 0 ? 1 : page_entries),
      runs_(partitions == 0 ? 1 : partitions) {}

PageKey SpillFile::KeyOf(size_t partition, size_t page) const {
  // Pages are per partition: pack the partition into the page number's high
  // bits so two partitions of one file never collide. 16 bits of partition
  // and 24 bits of page inside the 40-bit page field — RunOptions
  // validation caps SpillOptions::partitions accordingly.
  return MakePageKey(file_id_, (static_cast<uint64_t>(partition) << 24) |
                                   static_cast<uint64_t>(page));
}

size_t SpillFile::PagesIn(size_t partition) const {
  const size_t n = runs_[partition].size();
  return (n + page_entries_ - 1) / page_entries_;
}

SimTime SpillFile::Append(size_t partition, RowRef row, BuildTs ts) {
  std::vector<SpilledEntry>& run = runs_[partition];
  const uint64_t w0 = pool_->stats().disk_writes();
  SimTime cost = 0;
  const size_t page = run.size() / page_entries_;
  if (run.size() % page_entries_ == 0) {
    // First entry of a fresh tail page: allocate its frame (no read).
    cost += pool_->Create(KeyOf(partition, page));
  } else {
    const PageKey tail = KeyOf(partition, page);
    // A partially filled tail the pool evicted must be read back before it
    // can take more entries (read-modify-write) — appends to a cold tail
    // are not free.
    if (!pool_->Resident(tail)) cost += pool_->Fetch(tail);
    pool_->MarkDirty(tail);
  }
  bytes_written_ += ApproxEntryBytes(*row);
  run.push_back(SpilledEntry{std::move(row), ts});
  ++appends_;
  ++entries_total_;
  if (run.size() % page_entries_ == 0) {
    // The tail page just filled: write it through (write-behind flush).
    cost += pool_->WriteThrough(KeyOf(partition, page));
  }
  disk_writes_ += pool_->stats().disk_writes() - w0;
  return cost;
}

SimTime SpillFile::FlushPartition(size_t partition) {
  const std::vector<SpilledEntry>& run = runs_[partition];
  if (run.empty() || run.size() % page_entries_ == 0) return 0;  // no tail
  const PageKey tail = KeyOf(partition, PagesIn(partition) - 1);
  // A tail page evicted from the pool was already written back then.
  if (!pool_->Resident(tail)) return 0;
  const uint64_t w0 = pool_->stats().disk_writes();
  const SimTime cost = pool_->WriteThrough(tail);
  disk_writes_ += pool_->stats().disk_writes() - w0;
  return cost;
}

SimTime SpillFile::ReadAll(size_t partition, std::vector<SpilledEntry>* out,
                           size_t from) {
  const std::vector<SpilledEntry>& run = runs_[partition];
  if (run.empty()) return 0;
  const uint64_t r0 = pool_->stats().disk_reads();
  const uint64_t w0 = pool_->stats().disk_writes();
  SimTime cost = 0;
  const size_t pages = PagesIn(partition);
  // Pin while scanning so the clock hand cannot evict a page mid-read.
  for (size_t p = 0; p < pages; ++p) {
    cost += pool_->Fetch(KeyOf(partition, p));
    pool_->Pin(KeyOf(partition, p));
  }
  for (size_t p = 0; p < pages; ++p) pool_->Unpin(KeyOf(partition, p));
  if (from < run.size()) {
    out->insert(out->end(),
                run.begin() + static_cast<std::ptrdiff_t>(from), run.end());
  }
  ++restores_;
  disk_reads_ += pool_->stats().disk_reads() - r0;
  disk_writes_ += pool_->stats().disk_writes() - w0;
  return cost;
}

void SpillFile::ClearPartition(size_t partition) {
  std::vector<SpilledEntry>& run = runs_[partition];
  const size_t pages = PagesIn(partition);
  for (size_t p = 0; p < pages; ++p) pool_->Invalidate(KeyOf(partition, p));
  entries_total_ -= run.size();
  run.clear();
  run.shrink_to_fit();
}

SimTime SpillFile::EstimateRestoreCost(size_t partition) const {
  const size_t pages = PagesIn(partition);
  SimTime cost = 0;
  for (size_t p = 0; p < pages; ++p) {
    if (!pool_->Resident(KeyOf(partition, p))) {
      cost += pool_->ExpectedReadCost();
    }
  }
  return cost;
}

}  // namespace stems
