// In-process replay: the same generated queries, run through Engine ->
// PreparedQuery -> BoundQuery -> ResultCursor -> wire::Encode on a fresh
// engine, in the same lockstep order and page sizes the server uses. It is
// the reference for the output check, the source of the exact virtual-time
// and routing counts, and, with spans, the layer-by-layer time split.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "spans.h"
#include "workload.h"

namespace servebench {

struct ReplayQuery {
  size_t qi = 0;  ///< index into Workload::queries
  Digest digest;
  uint64_t encoded_bytes = 0;
  stems::QueryStats stats;
  /// Summed over the SteM rows (worker rows on the threaded executor) of
  /// QueryHandle::Profile().
  uint64_t builds = 0, probes = 0, matches = 0;
  double virtual_completion_ms = 0;
  double virtual_first_row_ms = 0;
  /// Wall time per stage (span self times).
  int64_t prepare_ns = 0, bind_ns = 0, submit_ns = 0, first_row_ns = 0,
          drain_ns = 0, encode_ns = 0;
  int64_t ExecNs() const { return submit_ns + first_row_ns + drain_ns; }
  int64_t QueryNs() const {
    return bind_ns + submit_ns + first_row_ns + drain_ns + encode_ns;
  }
};

struct ReplayResult {
  std::vector<ReplayQuery> queries;
  /// Summed durations of the group spans, and the summed self times of the
  /// stage spans inside them (the stage-sum check compares the two).
  int64_t group_ns = 0;
  int64_t stage_ns = 0;
  /// Engine-wide registry counters after the replay.
  uint64_t pool_hits = 0, pool_misses = 0, shard_lock_wait_ns = 0;
  /// Set when the sampled query was compared against BruteForceResultSet.
  bool brute_force_checked = false;
  bool brute_force_ok = true;
  /// Non-empty when a replay call failed.
  std::string error;
};

/// Replays `groups` groups of `w` under `options` on a fresh engine. When
/// `brute_force_qi` names a query of the first cycle, its results are also
/// checked against src/reference/brute_force.
ReplayResult Replay(const Workload& w, const stems::RunOptions& options,
                    size_t groups, std::optional<size_t> brute_force_qi,
                    SpanLog* log);

}  // namespace servebench
