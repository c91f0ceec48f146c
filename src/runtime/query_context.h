// QueryContext: per-query shared state handed to every module.
#pragma once

#include "query/query_spec.h"
#include "runtime/metrics.h"
#include "runtime/tuple.h"
#include "sim/simulation.h"

namespace stems {

namespace obs {
class Tracer;
}  // namespace obs

/// Owned by the query executor (Eddy or a static plan); modules keep a
/// non-owning pointer for its lifetime.
struct QueryContext {
  const QuerySpec* query = nullptr;
  Simulation* sim = nullptr;
  TimestampAuthority ts;
  MetricsRecorder metrics;
  /// Per-query trace-span sink; null when tracing is disabled
  /// (RunOptions::trace_every_n == 0) — the one-branch disabled path.
  obs::Tracer* tracer = nullptr;

  /// Slots of `query` bound to exactly this table definition. Identity
  /// comparison on the resolved TableDef, not a name compare: two catalog
  /// entries (or an alias shadowing another base table's name) must never
  /// alias each other's slots.
  std::vector<int> SlotsOfTable(const TableDef* def) const {
    std::vector<int> out;
    for (size_t i = 0; i < query->num_slots(); ++i) {
      if (query->slots()[i].def == def) {
        out.push_back(static_cast<int>(i));
      }
    }
    return out;
  }

  /// Name-keyed convenience: resolves `table_name` to the TableDef of the
  /// first slot whose *definition* carries that name, then matches slots by
  /// definition identity.
  std::vector<int> SlotsOfTable(const std::string& table_name) const {
    for (size_t i = 0; i < query->num_slots(); ++i) {
      const TableDef* def = query->slots()[i].def;
      if (def != nullptr && def->name == table_name) {
        return SlotsOfTable(def);
      }
    }
    return {};
  }
};

}  // namespace stems
