// QueryProfile: the per-module execution profile behind EXPLAIN ANALYZE.
//
// One row per module (AMs, selection modules, SteMs) with the counters a
// routing post-mortem needs: tuples in/out, the selectivity the module
// *observed* against the static prior a conventional optimizer would have
// *assumed* (0.5 per selection conjunct, 1.0 pass-through elsewhere — the
// contrast the eddies paper motivates), build/probe/match counts, spill I/O,
// and virtual busy/queue time. Totals cover the whole query on both clocks.
//
// Built by QueryHandle::Profile() / Engine::ExplainAnalyze() from live module
// stats; pure data here (no engine dependencies) so tests and tools can
// construct and render profiles directly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/query_counters.h"

namespace stems::obs {

struct ModuleProfileRow {
  std::string name;
  std::string kind;  ///< ModuleKindName: "SM" / "ScanAM" / "SteM" / ...;
                     ///< "worker" for threaded-executor rows
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  /// tuples_out / tuples_in as measured (1.0 when nothing arrived).
  double observed_selectivity = 1.0;
  /// The uninformed static prior (0.5 for selections, 1.0 otherwise).
  double assumed_selectivity = 1.0;
  uint64_t builds = 0;
  uint64_t probes = 0;
  uint64_t matches = 0;
  uint64_t spill_ios = 0;
  uint64_t bytes_spilled = 0;
  uint64_t busy_vus = 0;        ///< virtual microseconds in service
  uint64_t queue_wait_vus = 0;  ///< summed virtual queueing delay
  size_t max_queue_len = 0;
};

struct QueryProfile {
  std::string executor;  ///< "sim" or "threaded"
  std::string policy;
  QueryCounters totals;          ///< the whole query's counters
  uint64_t virtual_time_us = 0;  ///< sim-clock completion time (sim only)
  uint64_t wall_us = 0;          ///< wall-clock submit-to-finish time
  std::vector<ModuleProfileRow> modules;

  /// Fixed-width text table (the EXPLAIN ANALYZE output): one header, one
  /// row per module, then a totals footer.
  std::string ToTable() const;
};

}  // namespace stems::obs
