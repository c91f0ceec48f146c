// The probe steps both executors' SteMs share — the equality bindings a
// probe carries, the §3.1 timestamp rule and the match step — defined once
// for the sim's Stem and the threaded ShardedStem and cascade, so they can
// never disagree about which stored entries a probe matches.
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

/// The TimeStamp constraint (§3.1): a probe stamped `probe_ts` sees an
/// entry built at `entry_ts <= probe_ts`, so the later-arriving side of a
/// pair generates its result. A self-join's retargeted probe
/// (`exclude_equal_ts`) also skips equal stamps, and a §3.5 re-probe the
/// matches it saw (`last_match_ts`); threads do neither.
inline bool ProbeSeesEntry(BuildTs entry_ts, BuildTs probe_ts,
                           bool exclude_equal_ts = false,
                           BuildTs last_match_ts = 0) {
  if (exclude_equal_ts ? entry_ts >= probe_ts : entry_ts > probe_ts) {
    return false;
  }
  return entry_ts > last_match_ts;
}

/// The match step of a probe, reusable across probes.
class ProbeMatcher {
 public:
  /// Lists every not-yet-passed predicate evaluable on the probe's span
  /// widened by `target_slot` (Table 1: matches satisfy "all query
  /// predicates that can be evaluated on the columns in t and s"), those
  /// evaluable on the probe alone included, so results carry complete
  /// predicate state. `probe` must outlive the Match() calls.
  void Reset(const QuerySpec& query, const Tuple& probe, int target_slot) {
    probe_ = &probe;
    target_slot_ = target_slot;
    decided_.clear();
    const uint64_t new_span = probe.spanned_mask() | (1ULL << target_slot);
    for (const auto& pred : query.predicates()) {
      if (!probe.PassedPredicate(pred.id()) && pred.CanEvaluate(new_span)) {
        decided_.push_back(&pred);
      }
    }
  }

  /// The probe concatenated with `row` at the target slot, the decided
  /// predicates marked passed; null when `row` fails one of them.
  TuplePtr Match(const RowRef& row, BuildTs row_ts) const {
    OverlayValueSource overlay(*probe_, target_slot_, &row->values());
    for (const Predicate* pred : decided_) {
      if (!pred->Evaluate(overlay)) return nullptr;
    }
    TuplePtr concat = probe_->ConcatWith(target_slot_, row, row_ts);
    for (const Predicate* pred : decided_) {
      concat->MarkPredicatePassed(pred->id());
    }
    return concat;
  }

 private:
  const Tuple* probe_ = nullptr;
  int target_slot_ = -1;
  std::vector<const Predicate*> decided_;
};

}  // namespace stems
