// SpillSummary: one query's spill counters, in the shape both executors
// report them (Eddy::SpillStats, ThreadedRun::SpillStats).
#pragma once

#include <cstddef>
#include <cstdint>

namespace stems {

/// Aggregated spill-subsystem counters across a query's SteMs and its
/// buffer pool (all zero when spill is disabled).
struct SpillSummary {
  uint64_t spill_ios = 0;        ///< simulated disk page reads + writes
  uint64_t bytes_spilled = 0;    ///< bytes ever appended to run files
  uint64_t entries_spilled = 0;  ///< live entries currently on disk
  size_t partitions_resident = 0;
  size_t partitions_spilled = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
};

}  // namespace stems
