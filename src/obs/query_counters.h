// QueryCounters: the one table of per-query statistics.
//
// Each counter a query accumulates is declared once, in
// STEMS_QUERY_COUNTERS: X(field, registry name or nullptr, unit, rolled up
// per tenant, help). The table defines QueryCounters (a threaded worker's,
// an eddy's or a SteM's accumulators; the base of QueryStats and
// TenantRollup) and PublishQueryCounters, the one path by which a query's
// totals reach the MetricsRegistry. scripts/check_invariants.py
// (`counter-by-name`) checks each registry name's unit suffix and its row
// in docs/observability.md, and that no other file resolves it by hand.
#pragma once

#include <cstdint>

namespace stems::obs {

class MetricsRegistry;

enum class CounterUnit { kCount, kBytes, kWallNs, kWallUs, kVirtualUs };

// clang-format off
#define STEMS_QUERY_COUNTERS(X)                                                \
  X(num_results, "eddy.results", kCount, true, "output tuples admitted")       \
  X(tuples_routed, "eddy.tuples_routed", kCount, true, "routing decisions")    \
  X(tuples_retired, nullptr, kCount, true, "tuples retired unfinished")        \
  X(spill_ios, "spill.ios", kCount, true, "run-file page I/Os")                \
  X(bytes_spilled, "spill.bytes", kBytes, true, "bytes written to run files")  \
  X(builds_avoided, nullptr, kCount, true, "builds another query had stored")  \
  X(routing_wall_ns, nullptr, kWallNs, false, "wall time routing tuples")      \
  X(morsels, "exec.morsels", kCount, false, "morsels threaded workers ran")    \
  X(builds, "stem.builds", kCount, false, "SteM inserts performed")            \
  X(duplicates, nullptr, kCount, false, "builds absorbed by set dedup")        \
  X(probes, "stem.probes", kCount, false, "SteM probes performed")             \
  X(matches, "stem.matches", kCount, false, "concatenations probes emitted")   \
  X(shard_lock_waits, "exec.shard_lock_waits", kCount, false,                  \
    "blocked shard-lock acquisitions (threaded)")                              \
  X(shard_lock_wait_ns, "exec.shard_lock_wait_ns", kWallNs, false,             \
    "wall time those acquisitions waited")                                     \
  X(result_backpressure_ns, "exec.result_backpressure_ns", kWallNs, false,     \
    "wall time workers stalled on a full result channel")
// clang-format on

struct QueryCounters {
#define STEMS_QUERY_COUNTER_FIELD(field, ...) uint64_t field = 0;
  STEMS_QUERY_COUNTERS(STEMS_QUERY_COUNTER_FIELD)
#undef STEMS_QUERY_COUNTER_FIELD

  QueryCounters& operator+=(const QueryCounters& o) {
#define STEMS_QUERY_COUNTER_ADD(field, ...) field += o.field;
    STEMS_QUERY_COUNTERS(STEMS_QUERY_COUNTER_ADD)
#undef STEMS_QUERY_COUNTER_ADD
    return *this;
  }
};

struct QueryCounterInfo {
  const char* field;
  const char* registry_name;  ///< nullptr: not published to the registry
  CounterUnit unit;
  bool tenant_rollup;
  uint64_t QueryCounters::*member;
};

inline constexpr QueryCounterInfo kQueryCounterTable[] = {
#define STEMS_QUERY_COUNTER_INFO(field, name, unit, rollup, help) \
  {#field, name, CounterUnit::unit, rollup, &QueryCounters::field},
    STEMS_QUERY_COUNTERS(STEMS_QUERY_COUNTER_INFO)
#undef STEMS_QUERY_COUNTER_INFO
};

/// Adds one query's totals to the registry: each counter with a registry
/// name, and, when `completed` (not cancelled or stopped), one
/// `engine.queries_completed` and an `engine.query_wall_us` sample.
void PublishQueryCounters(MetricsRegistry& registry,
                          const QueryCounters& counters, bool completed,
                          uint64_t wall_us);

}  // namespace stems::obs
