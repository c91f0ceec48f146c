#include "obs/query_counters.h"

#include "obs/metrics_registry.h"

namespace stems::obs {

void PublishQueryCounters(MetricsRegistry& registry,
                          const QueryCounters& counters, bool completed,
                          uint64_t wall_us) {
  for (const QueryCounterInfo& c : kQueryCounterTable) {
    if (c.registry_name != nullptr) {
      registry.GetCounter(c.registry_name)->Add(counters.*c.member);
    }
  }
  if (completed) {
    registry.GetCounter("engine.queries_completed")->Add();
    registry.GetHistogram("engine.query_wall_us")->Observe(wall_us);
  }
}

}  // namespace stems::obs
