#include "eddy/policies/lottery_policy.h"

#include <cmath>

#include "engine/policy_registry.h"

namespace stems {

STEMS_REGISTER_POLICY("lottery", [](const PolicyParams& p) {
  LotteryPolicyOptions o;
  o.seed = p.seed;
  o.min_weight = p.KnobOr("min_weight", o.min_weight);
  o.queue_penalty = p.KnobOr("queue_penalty", o.queue_penalty);
  return std::make_unique<LotteryPolicy>(o);
});

double LotteryPolicy::StemWeight(const SlotProbeStats& stem) const {
  // Observed matches per probe: selective SteMs (fewer matches) win more
  // tickets, since probing them first shrinks intermediate results.
  const double probes = static_cast<double>(stem.probes) + 1.0;
  const double matches = static_cast<double>(stem.matches);
  const double selectivity = matches / probes;
  double weight = 1.0 / (0.1 + selectivity);
  // Backpressure: long queues lose tickets.
  weight /= std::pow(1.0 + static_cast<double>(stem.queue_length),
                     options_.queue_penalty);
  return weight < options_.min_weight ? options_.min_weight : weight;
}

int LotteryPolicy::ChooseProbeSlot(const Tuple& /*tuple*/,
                                   const std::vector<int>& candidates,
                                   const ProbeStatsView& stats) {
  double total = 0;
  weights_.clear();
  for (int slot : candidates) {
    const double w = StemWeight(stats.ForSlot(slot));
    weights_.push_back(w);
    total += w;
  }
  double draw = rng_.NextDouble() * total;
  for (size_t i = 0; i < candidates.size(); ++i) {
    draw -= weights_[i];
    if (draw <= 0) return candidates[i];
  }
  return candidates.back();
}

IndexAm* LotteryPolicy::ChooseIndexAm(const Tuple& /*tuple*/,
                                      const std::vector<IndexAm*>& ams) {
  // Competitive access method selection: weight inversely with the AM's
  // backlog and observed latency, keeping a floor so slow AMs still get
  // occasional probes (they may recover; paper §3.2).
  double total = 0;
  std::vector<double> weights;
  weights.reserve(ams.size());
  for (IndexAm* am : ams) {
    const double eta =
        static_cast<double>(am->MeanLookupLatency()) *
        (1.0 + static_cast<double>(am->outstanding() + am->queue_length()));
    double w = 1e6 / (eta + 1.0);
    if (w < options_.min_weight) w = options_.min_weight;
    weights.push_back(w);
    total += w;
  }
  double draw = rng_.NextDouble() * total;
  for (size_t i = 0; i < ams.size(); ++i) {
    draw -= weights[i];
    if (draw <= 0) return ams[i];
  }
  return ams.back();
}

}  // namespace stems
