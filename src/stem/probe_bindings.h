// Probe bindings: the equality bindings a probe carries into a SteM.
//
// One derivation for both executors' SteMs — the sim's Stem (index
// candidates, spill partition routing) and the threaded ShardedStem (shard
// and index selection over its per-shard StemStorage) — so they can never
// disagree about which stored entries a probe may match through an index.
#pragma once

#include <utility>
#include <vector>

#include "query/query_spec.h"
#include "runtime/tuple.h"
#include "types/value.h"

namespace stems {

/// (column of the probed slot, value the probe fixes for it).
using ProbeBindings = std::vector<std::pair<int, Value>>;

/// Writes into `*out` (cleared first, so hot paths reuse one buffer) the
/// equality bindings `probe` fixes for `target_slot`: one per equi-join
/// predicate between that slot and a slot the probe spans (§2.1.4's index
/// bind columns).
inline void DeriveProbeBindings(const QuerySpec& query, const Tuple& probe,
                                int target_slot, ProbeBindings* out) {
  out->clear();
  for (const auto& pred : query.predicates()) {
    auto col = pred.EquiJoinColumnFor(target_slot);
    if (!col.has_value()) continue;
    auto peer = pred.EquiJoinPeerOf(target_slot);
    if (!peer.has_value() || peer->table_slot == target_slot) continue;
    const Value* v = probe.ValueAt(peer->table_slot, peer->column);
    if (v != nullptr) out->emplace_back(*col, *v);
  }
}

}  // namespace stems
