// NaryShjPolicy: the paper's n-ary symmetric hash join as a routing policy
// (§2.3): build each arriving singleton into its SteM, then probe the other
// SteMs in a fixed order (ascending slot, or a caller-specified order).
//
// With every table scanned, this policy makes the eddy execute exactly the
// n-ary SHJ of Figure 2(iii); with index AMs present it generalizes to
// index joins via the bounce/probe-completion flow (Figure 4/6).
#pragma once

#include <vector>

#include "eddy/policies/policy_base.h"

namespace stems {

class NaryShjPolicy : public PolicyBase {
 public:
  NaryShjPolicy() = default;
  /// `probe_order` lists slots in preference order; unlisted slots come
  /// last in ascending order.
  explicit NaryShjPolicy(std::vector<int> probe_order)
      : probe_order_(std::move(probe_order)) {}

  const char* name() const override { return "nary-shj"; }

  int ChooseProbeSlot(const Tuple& tuple, const std::vector<int>& candidates,
                      const ProbeStatsView& stats) override;

 protected:
  /// The probe order is a pure function of the tuple's lineage, so one
  /// decision serves every tuple of a homogeneous batch group.
  bool AmortizeHomogeneousLineage() const override { return true; }

 private:
  std::vector<int> probe_order_;
};

}  // namespace stems
