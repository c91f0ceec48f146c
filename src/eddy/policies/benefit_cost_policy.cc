#include "eddy/policies/benefit_cost_policy.h"

#include <cstdio>

#include "engine/policy_registry.h"

namespace stems {

STEMS_REGISTER_POLICY("benefit_cost", [](const PolicyParams& p) {
  BenefitCostPolicyOptions o;
  o.seed = p.seed;
  o.explore_epsilon = p.KnobOr("explore_epsilon", o.explore_epsilon);
  o.prior_matches = p.KnobOr("prior_matches", o.prior_matches);
  return std::make_unique<BenefitCostPolicy>(o);
});

int BenefitCostPolicy::ChooseProbeSlot(const Tuple& /*tuple*/,
                                       const std::vector<int>& candidates,
                                       const ProbeStatsView& stats) {
  if (candidates.size() > 1 && rng_.NextBool(options_.explore_epsilon)) {
    return candidates[rng_.NextBounded(candidates.size())];
  }
  // benefit/cost: expected matches per probe over expected latency.
  int best = candidates.front();
  double best_score = -1;
  for (int slot : candidates) {
    const SlotProbeStats stem = stats.ForSlot(slot);
    double matches_per_probe = options_.prior_matches;
    if (stem.probes > 0) {
      matches_per_probe = static_cast<double>(stem.matches) /
                          static_cast<double>(stem.probes);
    }
    // Spill-aware cost (§6): a SteM with spilled partitions makes probes
    // pay fault-in I/O, so its expected latency rises and the policy
    // prefers resident state while the spilled side stays cold. (On
    // threads the sim-only terms are zero, so the latency is 1.)
    const double latency = stem.mean_latency + 1.0 +
                           static_cast<double>(stem.queue_length) +
                           static_cast<double>(stem.spill_cost);
    const double score = (matches_per_probe + 0.01) / latency;
    if (score_tracing()) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%sslot=%d:%.4f",
                    last_scores_.empty() ? "" : " ", slot, score);
      last_scores_ += buf;
    }
    if (score > best_score) {
      best_score = score;
      best = slot;
    }
  }
  return best;
}

SimTime BenefitCostPolicy::IndexAmEta(const IndexAm& am) const {
  const SimTime latency = am.MeanLookupLatency();
  const int64_t backlog =
      static_cast<int64_t>(am.outstanding() + am.queue_length());
  return latency + latency * backlog;
}

SimTime BenefitCostPolicy::ScanEta(int slot) const {
  SimTime best = kSimTimeNever;
  for (const ScanAm* scan : eddy_->ScanAmsForSlot(slot)) {
    if (scan->finished()) continue;
    const size_t remaining = scan->total_rows() - scan->rows_emitted();
    if (remaining == 0) continue;
    // A missing match is uniformly placed among the remaining rows.
    const SimTime eta =
        scan->period() * static_cast<SimTime>((remaining + 1) / 2);
    if (eta < best) best = eta;
  }
  return best;
}

bool BenefitCostPolicy::ShouldProbeIndexAm(const Tuple& tuple,
                                           const std::vector<IndexAm*>& ams) {
  // §4.1: prioritized results are always expedited through the index.
  if (tuple.prioritized()) return true;

  // A probe that already found matches in the SteM cache usually has
  // nothing left to gain from the index (key joins: nothing at all); only
  // the exploration fraction goes through.
  const bool cache_hit = tuple.last_probe_matches() > 0;
  if (cache_hit) return rng_.NextBool(options_.explore_epsilon);

  // Cache miss: race the index AM against the ongoing scan and take the
  // faster expected path; occasionally explore the index regardless so its
  // cost estimate stays fresh (paper §4.3: "a small fraction ... throughout
  // the processing").
  SimTime best_am_eta = kSimTimeNever;
  for (const IndexAm* am : ams) {
    const SimTime eta = IndexAmEta(*am);
    if (eta < best_am_eta) best_am_eta = eta;
  }
  const SimTime scan_eta = ScanEta(tuple.probe_completion_slot());
  if (best_am_eta < scan_eta) return true;
  return rng_.NextBool(options_.explore_epsilon);
}

bool BenefitCostPolicy::ShouldHedgeProbe(const Tuple& tuple,
                                         const std::vector<IndexAm*>& unprobed) {
  // Hedge only when the SteM probe found nothing (the match must come from
  // an AM) and some untried mirror looks decisively faster than every AM
  // already probed — e.g. the first pick turned out to be stalled.
  if (tuple.last_probe_matches() > 0) return false;
  SimTime best_unprobed = kSimTimeNever;
  for (const IndexAm* am : unprobed) {
    const SimTime eta = IndexAmEta(*am);
    if (eta < best_unprobed) best_unprobed = eta;
  }
  SimTime best_probed = kSimTimeNever;
  const int cslot = tuple.probe_completion_slot();
  for (const IndexAm* am : eddy_->IndexAmsForSlot(cslot)) {
    if (!(tuple.probed_ams() & (1ULL << am->id()))) continue;
    const SimTime eta = IndexAmEta(*am);
    if (eta < best_probed) best_probed = eta;
  }
  if (best_probed == kSimTimeNever) return false;
  return best_unprobed * 4 < best_probed;
}

IndexAm* BenefitCostPolicy::ChooseIndexAm(const Tuple& /*tuple*/,
                                          const std::vector<IndexAm*>& ams) {
  IndexAm* best = ams.front();
  SimTime best_eta = kSimTimeNever;
  for (IndexAm* am : ams) {
    const SimTime eta = IndexAmEta(*am);
    if (eta < best_eta) {
      best_eta = eta;
      best = am;
    }
  }
  if (ams.size() > 1 && rng_.NextBool(options_.explore_epsilon)) {
    return ams[rng_.NextBounded(ams.size())];
  }
  return best;
}

}  // namespace stems
