// LotteryPolicy: ticket-based adaptive routing in the spirit of the
// original eddy paper [2].
//
// Each probe-able SteM holds tickets. A SteM that returns few matches per
// probe (selective — it shrinks the dataflow) and has a short queue earns
// more tickets; destinations are drawn by lottery, so ordering decisions
// continuously follow observed selectivities and backpressure, per tuple.
// Index AMs are likewise chosen by lottery weighted by inverse backlog.
#pragma once

#include "common/rng.h"
#include "eddy/policies/policy_base.h"

namespace stems {

struct LotteryPolicyOptions {
  uint64_t seed = 42;
  /// Weight floor so every candidate keeps a nonzero chance (exploration).
  double min_weight = 0.05;
  /// Penalty exponent for queue length (backpressure sensitivity).
  double queue_penalty = 1.0;
};

class LotteryPolicy : public PolicyBase {
 public:
  explicit LotteryPolicy(LotteryPolicyOptions options = {})
      : options_(options), rng_(options.seed) {}

  const char* name() const override { return "lottery"; }

  int ChooseProbeSlot(const Tuple& tuple, const std::vector<int>& candidates,
                      const ProbeStatsView& stats) override;

 protected:
  IndexAm* ChooseIndexAm(const Tuple& tuple,
                         const std::vector<IndexAm*>& ams) override;

 private:
  double StemWeight(const SlotProbeStats& stem) const;

  LotteryPolicyOptions options_;
  Rng rng_;
  /// ChooseProbeSlot's ticket scratch (reused: no per-tuple allocation).
  std::vector<double> weights_;
};

}  // namespace stems
