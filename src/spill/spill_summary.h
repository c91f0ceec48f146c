// SpillSummary: one query's spill state, in the shape both executors
// report it (Eddy::SpillStats, ThreadedRun::SpillStats). The spill I/O a
// query did is a per-query counter (obs::QueryCounters::spill_ios and
// bytes_spilled), not part of this summary.
#pragma once

#include <cstddef>
#include <cstdint>

namespace stems {

/// Residency across a query's SteMs and its buffer pool's counters (all
/// zero when spill is disabled).
struct SpillSummary {
  uint64_t entries_spilled = 0;  ///< live entries currently on disk
  size_t partitions_resident = 0;
  size_t partitions_spilled = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
};

}  // namespace stems
