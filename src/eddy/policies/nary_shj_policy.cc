#include "eddy/policies/nary_shj_policy.h"

#include "engine/policy_registry.h"

namespace stems {

STEMS_REGISTER_POLICY("nary_shj", [](const PolicyParams& p) {
  return std::make_unique<NaryShjPolicy>(p.probe_order);
});

int NaryShjPolicy::ChooseProbeSlot(const Tuple& /*tuple*/,
                                   const std::vector<int>& candidates,
                                   const ProbeStatsView& /*stats*/) {
  for (int preferred : probe_order_) {
    for (int c : candidates) {
      if (c == preferred) return c;
    }
  }
  return candidates.front();  // ascending: the smallest slot
}

}  // namespace stems
