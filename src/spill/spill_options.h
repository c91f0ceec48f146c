// SpillOptions: configuration of the spill-aware state storage subsystem.
//
// The paper's §6 argues that SteMs let the eddy "make memory allocation
// decisions in a globally optimal manner". Eviction alone degrades exact
// joins into window joins the moment the budget is hit; spilling keeps
// results exact by moving cold SteM partitions to simulated run files
// behind a shared buffer pool, priced through the same latency models the
// access methods use (sim/latency_model.h).
#pragma once

#include <cstdint>
#include <memory>

#include "sim/latency_model.h"

namespace stems {

struct SpillOptions {
  /// Master switch; when off, the memory governor can only evict.
  bool enabled = false;

  /// Hash partitions per SteM (on the first indexed join column). Spill
  /// and fault-in happen at whole-partition granularity.
  size_t partitions = 8;

  /// Entries per simulated disk page; run-file I/O is charged per page.
  size_t page_entries = 64;

  /// Shared buffer-pool capacity, in page frames, across all SteMs of the
  /// query. Reads hitting a pooled page are free; misses pay read latency
  /// and may force a dirty write-back (clock eviction).
  size_t pool_frames = 32;

  /// Latency of one page read / write (defaults: FixedLatency 150us/100us,
  /// a disk-like asymmetry). Any sim/latency_model.h model plugs in.
  std::shared_ptr<LatencyModel> read_latency;
  std::shared_ptr<LatencyModel> write_latency;

  /// Seed for latency sampling inside the buffer pool.
  uint64_t seed = 7;
};

}  // namespace stems
