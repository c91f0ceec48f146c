// PolicyBase: the constraint-respecting routing skeleton shared by all
// built-in policies.
//
// PolicyBase encodes the generalized n-ary symmetric hash join flow of
// paper §2.3/§3 — build first, then probe adjacent SteMs, complete probes
// through index AMs, park §3.5 re-probers — and leaves the *choices* to
// subclasses:
//   * ChooseProbeSlot    — join ordering / spanning tree selection; the one
//                          decision both executors share (threaded workers
//                          call it directly, docs/parallelism.md)
//   * ChooseIndexAm      — competitive access method selection
//   * ShouldProbeIndexAm — whether an optional bounce is worth an index
//                          lookup (join algorithm hybridization, §4.3)
//   * SelectionsFirst    — selection pushdown vs. adaptive interleaving
#pragma once

#include <vector>

#include "eddy/eddy.h"
#include "eddy/routing_policy.h"

namespace stems {

class PolicyBase : public RoutingPolicy {
 public:
  RouteDecision Route(const TuplePtr& tuple) override;

  /// Batch routing with homogeneous-lineage amortization: when the subclass
  /// opts in (AmortizeHomogeneousLineage), the decision computed for the
  /// first tuple of each RouteLineage group is reused for the rest of the
  /// group, so one policy consultation covers the whole group. Seeds and
  /// prior probers always go through the scalar Route() (their decisions
  /// depend on per-tuple state beyond the lineage key).
  void ChooseBatch(const TupleBatch& batch,
                   std::vector<RouteDecision>* out) override;

  /// Picks the next SteM to probe from non-empty, ascending `candidates`
  /// (slots), reading per-slot probe history from `stats`. Must not touch
  /// the eddy: a threaded worker calls this with no eddy attached, passing
  /// its own probe counts as `stats`.
  virtual int ChooseProbeSlot(const Tuple& tuple,
                              const std::vector<int>& candidates,
                              const ProbeStatsView& stats) = 0;

 protected:
  /// Opt-in for ChooseBatch's decision sharing. Policies whose per-tuple
  /// randomness is the point (e.g. lottery scheduling) keep this off and
  /// still benefit from the eddy's batched event-queue hops.
  virtual bool AmortizeHomogeneousLineage() const { return false; }

  /// Picks one of the bindable index AMs on the completion table.
  virtual IndexAm* ChooseIndexAm(const Tuple& tuple,
                                 const std::vector<IndexAm*>& ams);

  /// For *optional* bounces (the completion table also has a scan AM):
  /// probe the index anyway, or retire and let the scan deliver the
  /// matches? Default: always use the index.
  virtual bool ShouldProbeIndexAm(const Tuple& tuple,
                                  const std::vector<IndexAm*>& ams) {
    (void)tuple;
    (void)ams;
    return true;
  }

  /// After a probe completed through one AM, hedge it through another
  /// bindable AM on the same table? (Competitive access methods, §3.2: the
  /// eddy can run multiple AMs for the same request and take whichever
  /// answers first — the shared SteM absorbs the overlap.) Default: no.
  virtual bool ShouldHedgeProbe(const Tuple& tuple,
                                const std::vector<IndexAm*>& unprobed) {
    (void)tuple;
    (void)unprobed;
    return false;
  }

  /// Route tuples through pending selection modules before SteM probes?
  virtual bool SelectionsFirst() const { return true; }

  /// Slots whose SteM `tuple` may probe next, written into `*out`:
  /// unspanned, unprobed, joined to the tuple's span (falls back to
  /// unconnected slots for cross products). See JoinGraph::ProbeCandidates.
  void ProbeCandidates(const Tuple& tuple, std::vector<int>* out) const;

 private:
  RouteDecision RoutePriorProber(const TuplePtr& tuple);
  /// Spawns the strict-timestamp retarget clone for self-joins, once.
  void MaybeSpawnRetargetClone(const TuplePtr& tuple);

  /// ChooseBatch's per-batch decision cache (member so the steady state
  /// allocates nothing; cleared at every batch).
  struct CachedDecision {
    RouteLineage key;
    RouteDecision decision;
  };
  std::vector<CachedDecision> batch_cache_;
  /// Route()'s probe-candidate scratch (member for the same reason).
  std::vector<int> candidates_;
};

}  // namespace stems
