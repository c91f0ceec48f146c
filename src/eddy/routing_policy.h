// RoutingPolicy: the eddy's pluggable brain (paper §2.1.1, §4.1).
//
// The eddy asks the policy where to send each tuple next. Policies decide
// join orders, join algorithms, access-method choice and spanning trees —
// all the adaptation the paper describes happens here. Correctness does not
// depend on the policy: the routing constraints of Table 2 are enforced by
// the SteMs/AMs internally and audited by the eddy's ConstraintChecker.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eddy/tuple_batch.h"
#include "runtime/module.h"
#include "runtime/tuple.h"

namespace stems {

class Eddy;

/// What the eddy should do with a tuple.
struct RouteDecision {
  enum class Kind {
    kSend,    ///< deliver to `dest`
    kRetire,  ///< remove from the dataflow
    kPark,    ///< hold until the SteM serving `park_slot` changes
  };

  Kind kind = Kind::kRetire;
  Module* dest = nullptr;
  RouteIntent intent = RouteIntent::kAuto;
  int target_slot = -1;
  bool exclude_equal_ts = false;
  int park_slot = -1;

  static RouteDecision Send(Module* dest, RouteIntent intent,
                            int target_slot = -1,
                            bool exclude_equal_ts = false) {
    RouteDecision d;
    d.kind = Kind::kSend;
    d.dest = dest;
    d.intent = intent;
    d.target_slot = target_slot;
    d.exclude_equal_ts = exclude_equal_ts;
    return d;
  }
  static RouteDecision Retire() { return RouteDecision{}; }
  static RouteDecision Park(int slot) {
    RouteDecision d;
    d.kind = Kind::kPark;
    d.park_slot = slot;
    return d;
  }
};

/// Per-slot probe history behind a probe-slot choice
/// (PolicyBase::ChooseProbeSlot). Threaded workers know only their own
/// probes and matches; the latency, queue and spill terms describe the
/// simulated substrate and read zero there.
struct SlotProbeStats {
  uint64_t probes = 0;   ///< probes served
  uint64_t matches = 0;  ///< concatenations those probes emitted
  double mean_latency = 0;    ///< mean virtual service latency (sim only)
  uint64_t queue_length = 0;  ///< tuples queued at the SteM (sim only)
  SimTime spill_cost = 0;     ///< expected spill cost per probe (sim only)
};

/// Where a probe-slot choice reads SlotProbeStats: the Eddy answers from
/// its SteMs, a threaded worker from its own probe counts. Looked up per
/// candidate on demand, so a policy that reads no statistics (nary_shj)
/// pays nothing for them.
class ProbeStatsView {
 public:
  virtual SlotProbeStats ForSlot(int slot) const = 0;

 protected:
  ~ProbeStatsView() = default;
};

class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;

  virtual const char* name() const = 0;

  /// Called once, after all modules are registered.
  virtual void Attach(Eddy* eddy) { eddy_ = eddy; }

  /// Chooses the next step for `tuple`. The eddy has already handled
  /// output-eligible tuples, seeds and EOTs.
  virtual RouteDecision Route(const TuplePtr& tuple) = 0;

  /// Chooses the next step for every tuple of `batch` (one decision per
  /// tuple, in order). Called by the eddy when it routes in batches
  /// (EddyOptions::batch_size > 1). The default simply loops the scalar
  /// Route(), so every policy keeps working unchanged; batch-aware policies
  /// override this to amortize one decision across tuples with a
  /// homogeneous lineage (see PolicyBase).
  virtual void ChooseBatch(const TupleBatch& batch,
                           std::vector<RouteDecision>* out) {
    out->clear();
    out->reserve(batch.size());
    for (const TuplePtr& t : batch.tuples) out->push_back(Route(t));
  }

  // --- observability (src/obs/trace.h) --------------------------------------

  /// The eddy turns this on just for decisions a tracer sampled; policies
  /// that compute numeric scores then describe them via
  /// LastDecisionScores(). Off by default so the hot path never formats.
  void set_score_tracing(bool on) {
    score_tracing_ = on;
    if (on) OnScoreTracingStart();
  }

  /// Scores behind the most recent Route()/ChooseBatch() decision, as a
  /// short "slot=N:<score>" list. Empty when untraced or when the policy
  /// has no numeric scores (e.g. the static nary_shj ordering).
  virtual const std::string& LastDecisionScores() const {
    static const std::string kEmpty;
    return kEmpty;
  }

 protected:
  bool score_tracing() const { return score_tracing_; }

  /// Called when score tracing turns on for the next decision; policies
  /// clear their previous scores here so a scoreless decision (e.g. a
  /// pre-decided build) never reports stale terms.
  virtual void OnScoreTracingStart() {}

  Eddy* eddy_ = nullptr;
  bool score_tracing_ = false;
};

}  // namespace stems
