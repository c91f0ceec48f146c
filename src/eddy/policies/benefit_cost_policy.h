// BenefitCostPolicy: the paper's §4.1 online-metric routing policy.
//
// The eddy routes so as to maximize benefit(tuple-state, module) divided by
// expected processing time, where benefit is the expected value of partial
// results the module will emit. As in the paper, the optimization is done
// at the granularity of (module, tuple span) using continuously observed
// statistics, with a small exploration probability so alternatives keep
// being sampled.
//
// Two behaviours distinguish this policy:
//   * optional bounces (index+scan tables, ProbeBounceMode::kAlways) are
//     resolved by comparing the ETA of the match through the index AM
//     (queue + latency) against the ETA through the ongoing scan — this is
//     what hybridizes index join into hash join during execution (§4.3),
//     with cache-miss probes (last_probe_matches == 0) preferred;
//   * prioritized tuples are always expedited through index AMs (§4.1).
#pragma once

#include "common/rng.h"
#include "eddy/policies/policy_base.h"

namespace stems {

struct BenefitCostPolicyOptions {
  uint64_t seed = 42;
  /// Probability of exploring a non-best destination / an index AM probe
  /// that the cost model would decline.
  double explore_epsilon = 0.05;
  /// Optimism for unobserved destinations (expected matches per probe).
  double prior_matches = 1.0;
};

class BenefitCostPolicy : public PolicyBase {
 public:
  explicit BenefitCostPolicy(BenefitCostPolicyOptions options = {})
      : options_(options), rng_(options.seed) {}

  const char* name() const override { return "benefit-cost"; }

  const std::string& LastDecisionScores() const override {
    return last_scores_;
  }

  int ChooseProbeSlot(const Tuple& tuple, const std::vector<int>& candidates,
                      const ProbeStatsView& stats) override;

 protected:
  void OnScoreTracingStart() override { last_scores_.clear(); }

  /// §4.1 statistics move slowly relative to a batch: sharing one
  /// benefit/cost evaluation across a homogeneous-lineage group trades a
  /// per-tuple re-evaluation (and its exploration draw) for one per group.
  bool AmortizeHomogeneousLineage() const override { return true; }

  IndexAm* ChooseIndexAm(const Tuple& tuple,
                         const std::vector<IndexAm*>& ams) override;
  bool ShouldProbeIndexAm(const Tuple& tuple,
                          const std::vector<IndexAm*>& ams) override;
  bool ShouldHedgeProbe(const Tuple& tuple,
                        const std::vector<IndexAm*>& unprobed) override;

 private:
  /// Expected virtual time for one probe through `am` right now.
  SimTime IndexAmEta(const IndexAm& am) const;
  /// Expected virtual time until an ongoing scan on `slot` delivers a given
  /// missing match; kSimTimeNever when no scan is running.
  SimTime ScanEta(int slot) const;

  BenefitCostPolicyOptions options_;
  Rng rng_;
  /// Per-slot benefit/cost terms of the last traced decision (score
  /// tracing only — empty and never touched on the untraced hot path).
  std::string last_scores_;
};

}  // namespace stems
