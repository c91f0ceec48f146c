// Tuple: the unit of dataflow, with its TupleState (paper §2.1.1).
//
// A tuple is a concatenation of base-table components (paper Def. 1): one
// optional Row per table slot of the query. A singleton tuple (Def. 2) has
// exactly one component. The TupleState carried with each tuple records, at
// minimum, (a) the tables it spans and (b) the predicates it has passed
// ("done bits"), plus the timestamp bookkeeping of §3.1/§3.5 and the
// prior-prober marker of §3.4 (Def. 3).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "expr/predicate.h"
#include "types/row.h"

namespace stems {

/// Build timestamps (paper §3.1): assigned from a global monotonic counter
/// when a singleton builds into a SteM; "infinity" before building.
using BuildTs = uint64_t;
constexpr BuildTs kTsInfinity = UINT64_MAX;

/// Issues global, monotonically increasing build timestamps. Shared by all
/// SteMs of a query.
class TimestampAuthority {
 public:
  BuildTs Issue() { return next_++; }
  BuildTs last_issued() const { return next_ - 1; }

 private:
  BuildTs next_ = 1;
};

class Tuple;
using TuplePtr = std::shared_ptr<Tuple>;

/// The operation the eddy is requesting from the destination module of a
/// routing step. SteMs accept builds and probes; other modules ignore this.
enum class RouteIntent : uint8_t { kAuto = 0, kBuild, kProbe };

class Tuple : public ValueSource {
 public:
  /// One base-table component and its build timestamp.
  struct Component {
    RowRef row;                       ///< null when the slot is not spanned
    BuildTs timestamp = kTsInfinity;  ///< kTsInfinity until built into a SteM
  };

  /// An empty tuple over a query with `num_slots` table slots.
  explicit Tuple(int num_slots) : components_(num_slots) {}

  /// A singleton spanning `slot`.
  static TuplePtr MakeSingleton(int num_slots, int slot, RowRef row);

  /// The seed tuple that initializes scans (paper §2.1.3).
  static TuplePtr MakeSeed(int num_slots);

  // --- components & span ---------------------------------------------------

  int num_slots() const { return static_cast<int>(components_.size()); }
  const Component& component(int slot) const { return components_[slot]; }
  bool Spans(int slot) const { return components_[slot].row != nullptr; }
  uint64_t spanned_mask() const { return spanned_mask_; }
  /// Number of spanned slots.
  int SpanSize() const;
  bool IsSingleton() const { return SpanSize() == 1; }
  /// The single spanned slot of a singleton; -1 otherwise.
  int SingletonSlot() const;

  /// Sets component `slot`; updates the span mask.
  void SetComponent(int slot, RowRef row, BuildTs ts = kTsInfinity);
  /// Marks component `slot` as built with timestamp `ts`.
  void SetBuilt(int slot, BuildTs ts);

  /// Paper §3.1: a tuple's timestamp is that of its last-arriving component:
  /// the max over built components; kTsInfinity if any component is unbuilt.
  BuildTs Timestamp() const;

  /// True iff every spanned component has been built into its SteM.
  bool AllComponentsBuilt() const;

  // --- predicates ----------------------------------------------------------

  uint64_t preds_passed() const { return preds_passed_; }
  bool PassedPredicate(int id) const { return preds_passed_ & (1ULL << id); }
  void MarkPredicatePassed(int id) { preds_passed_ |= 1ULL << id; }

  // --- special tuple kinds -------------------------------------------------

  bool is_seed() const { return is_seed_; }
  /// An End-Of-Transmission tuple (paper §2.1.3).
  bool IsEot() const;

  // --- §3.4 prior-prober state (Def. 3) -------------------------------------

  bool IsPriorProber() const { return probe_completion_slot_ >= 0; }
  int probe_completion_slot() const { return probe_completion_slot_; }
  void MarkPriorProber(int slot) { probe_completion_slot_ = slot; }
  bool probe_completed() const { return probe_completed_; }
  void MarkProbeCompleted() { probe_completed_ = true; }

  // --- §3.5 LastMatchTimeStamp ----------------------------------------------

  BuildTs last_match_ts() const { return last_match_ts_; }
  void set_last_match_ts(BuildTs ts) { last_match_ts_ = ts; }

  // --- routing bookkeeping ---------------------------------------------------

  /// Bitmask of slots whose SteM this tuple has already probed (policy aid).
  uint64_t probed_stems() const { return probed_stems_; }
  void MarkProbedStem(int slot) { probed_stems_ |= 1ULL << slot; }
  void SetProbedStemsMask(uint64_t mask) { probed_stems_ = mask; }

  /// Module ids (< 64) of access methods this tuple has probed; lets
  /// policies hedge a probe across competing AMs (paper §3.2) without
  /// re-probing the same one.
  uint64_t probed_ams() const { return probed_ams_; }
  void MarkProbedAm(int module_id) {
    if (module_id >= 0 && module_id < 64) probed_ams_ |= 1ULL << module_id;
  }

  /// Self-join support: a "retarget clone" is a copy of a built singleton
  /// moved to another slot of the same table; it probes only its table's
  /// original slot, with strict timestamp comparison, so every ordered pair
  /// is produced exactly once (see eddy/policies/policy_base.cc).
  bool is_retarget_clone() const { return is_retarget_clone_; }
  void set_is_retarget_clone(bool v) { is_retarget_clone_ = v; }
  bool retarget_spawned() const { return retarget_spawned_; }
  void set_retarget_spawned(bool v) { retarget_spawned_ = v; }

  /// Total routing steps taken; the eddy uses this as the BoundedRepetition
  /// backstop.
  uint32_t route_count() const { return route_count_; }
  void IncrementRouteCount() { ++route_count_; }

  /// Transient per-dispatch fields, set by the eddy just before delivery.
  RouteIntent route_intent() const { return route_intent_; }
  int route_target_slot() const { return route_target_slot_; }
  /// §extension for self-joins: exclude equal-timestamp matches on
  /// slot-retargeted probes so each ordered pair is produced exactly once.
  bool exclude_equal_ts() const { return exclude_equal_ts_; }
  void SetRouteInfo(RouteIntent intent, int target_slot,
                    bool exclude_equal_ts = false) {
    route_intent_ = intent;
    route_target_slot_ = target_slot;
    exclude_equal_ts_ = exclude_equal_ts;
  }

  /// Interactive priority (§4.1): prioritized tuples are bounced back by
  /// SteMs on index-AM tables so their matches enter the dataflow sooner.
  bool prioritized() const { return prioritized_; }
  void set_prioritized(bool p) { prioritized_ = p; }

  /// Matches found by this tuple's most recent SteM probe; policies use it
  /// to decide whether an index AM lookup is still worthwhile (a cache-miss
  /// signal, see eddy/policies/benefit_cost_policy.h).
  uint32_t last_probe_matches() const { return last_probe_matches_; }
  void set_last_probe_matches(uint32_t n) { last_probe_matches_ = n; }

  // --- derived --------------------------------------------------------------

  /// Concatenation (paper Table 1): a new tuple spanning this tuple's slots
  /// plus `row` at `slot`. Merges predicate state; the caller marks newly
  /// verified predicates on the result.
  TuplePtr ConcatWith(int slot, RowRef row, BuildTs row_ts) const;

  /// A copy of a singleton with its single component moved to `slot`
  /// (self-join retargeting).
  TuplePtr RetargetSingleton(int to_slot) const;

  // ValueSource:
  const Value* ValueAt(int slot, int col) const override;

  std::string ToString() const;

 private:
  std::vector<Component> components_;
  uint64_t spanned_mask_ = 0;
  uint64_t preds_passed_ = 0;
  uint64_t probed_stems_ = 0;
  uint64_t probed_ams_ = 0;
  BuildTs last_match_ts_ = 0;
  uint32_t route_count_ = 0;
  uint32_t last_probe_matches_ = 0;
  int probe_completion_slot_ = -1;
  bool probe_completed_ = false;
  bool is_seed_ = false;
  bool prioritized_ = false;
  bool is_retarget_clone_ = false;
  bool retarget_spawned_ = false;

  RouteIntent route_intent_ = RouteIntent::kAuto;
  int route_target_slot_ = -1;
  bool exclude_equal_ts_ = false;
};

}  // namespace stems
