// BufferPool: a simulated page cache over spill run files.
//
// The pool holds a fixed number of page frames shared by every SpillFile
// of a query. Fetch() returns the *virtual* I/O cost of making a page
// resident: zero on a hit, one read-latency sample on a miss (plus a
// write-back sample when the clock hand evicts a dirty frame). Pages being
// appended to are Create()d without a read and flushed through when they
// fill, so run writing models a one-page write-behind buffer per file.
//
// Eviction is CLOCK (second chance): each hit sets a reference bit; the
// hand clears bits until it finds an unreferenced, unpinned frame. Pinned
// frames (pages mid-scan) are never evicted; if every frame is pinned the
// pool over-allocates and counts the overflow rather than deadlocking.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "sim/clock.h"
#include "spill/spill_options.h"
#include "spill/spill_summary.h"

namespace stems {

namespace obs {
class Counter;
class MetricsRegistry;
}  // namespace obs

/// Page address: (file id, page number) packed by the owning SpillFile.
using PageKey = uint64_t;

constexpr PageKey MakePageKey(uint32_t file_id, uint64_t page) {
  return (static_cast<PageKey>(file_id) << 40) | page;
}

struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;        ///< fetches that paid a disk read
  uint64_t evictions = 0;     ///< frames reclaimed by the clock hand
  uint64_t writebacks = 0;    ///< dirty frames written at eviction
  uint64_t writethroughs = 0; ///< pages flushed on append-fill
  uint64_t overflows = 0;     ///< allocations past capacity (all pinned)
  SimTime io_time = 0;        ///< total virtual I/O charged
  uint64_t disk_reads() const { return misses; }
  uint64_t disk_writes() const { return writebacks + writethroughs; }
};

class BufferPool {
 public:
  explicit BufferPool(const SpillOptions& options);

  /// Hands out file ids for SpillFiles sharing this pool.
  uint32_t RegisterFile() { return next_file_id_++; }

  /// Makes `page` resident. Returns the virtual cost: 0 on hit, a read
  /// sample on miss, plus a write-back sample if eviction hit a dirty frame.
  SimTime Fetch(PageKey page);

  /// Allocates a frame for a brand-new page (no disk read; the page is
  /// being written for the first time). Marks it dirty. Returns only the
  /// eviction write-back cost, if any.
  SimTime Create(PageKey page);

  /// Write-through of a (resident) page: charges one write sample and
  /// clears the dirty bit. Used when an append fills a run page.
  SimTime WriteThrough(PageKey page);

  void MarkDirty(PageKey page);
  void Pin(PageKey page);
  void Unpin(PageKey page);

  /// Drops a page without write-back (its file content was discarded,
  /// e.g. a run cleared by a partition fault-in).
  void Invalidate(PageKey page);

  bool Resident(PageKey page) const { return frame_of_.count(page) > 0; }

  /// Expected cost of one page read right now: the observed mean once any
  /// read happened, else one (stat-only) model sample. Policies use this
  /// to price probes against spilled partitions without mutating state.
  SimTime ExpectedReadCost() const;

  const BufferPoolStats& stats() const { return stats_; }
  /// Adds the pool's hit, miss and eviction counts to `*out`.
  void AddTo(SpillSummary* out) const {
    out->pool_hits += stats_.hits;
    out->pool_misses += stats_.misses;
    out->pool_evictions += stats_.evictions;
  }
  size_t frames_in_use() const { return frame_of_.size(); }
  size_t capacity() const { return capacity_; }

  /// Observability: publish hit/miss/eviction/write traffic into the
  /// engine-wide registry (spill.pool_* counters, aggregated across pools).
  /// Null detaches; each stats site then pays one branch.
  void AttachRegistry(obs::MetricsRegistry* registry);

 private:
  struct Frame {
    PageKey page = 0;
    bool valid = false;
    bool referenced = false;
    bool dirty = false;
    uint32_t pins = 0;
  };

  /// Finds a frame for a new page, evicting via the clock hand if the pool
  /// is full. Accumulates any write-back cost into `*cost`.
  size_t AcquireFrame(SimTime* cost);

  SimTime SampleRead();
  SimTime SampleWrite();

  size_t capacity_;
  std::vector<Frame> frames_;
  std::unordered_map<PageKey, size_t> frame_of_;
  size_t clock_hand_ = 0;
  uint32_t next_file_id_ = 0;

  std::shared_ptr<LatencyModel> read_latency_;
  std::shared_ptr<LatencyModel> write_latency_;
  Rng rng_;
  SimTime total_read_cost_ = 0;
  uint64_t reads_sampled_ = 0;

  BufferPoolStats stats_;

  /// Engine-wide registry handles (null when detached).
  obs::Counter* reg_hits_ = nullptr;
  obs::Counter* reg_misses_ = nullptr;
  obs::Counter* reg_evictions_ = nullptr;
  obs::Counter* reg_writes_ = nullptr;
  obs::Counter* reg_io_vus_ = nullptr;
};

}  // namespace stems
