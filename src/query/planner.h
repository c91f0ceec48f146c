// Planner: instantiates a query as an eddy plus modules (paper §2.2).
//
// NOTE: most callers should not be here. The supported top-level API is
// stems::Engine (engine/engine.h): Engine::Submit() plans the query, picks
// the routing policy by registry name, and streams results through a
// cursor. PlanQuery() remains the documented low-level escape hatch for
// callers that need to wire modules, policies, or the simulation by hand
// (custom module graphs, policy unit tests). See docs/api.md for the
// old-wiring → Engine mapping.
//
// "The use of an eddy and SteMs obviates the need for query optimization
// because there are no a priori decisions to be made." The planner only:
//   1. validates the query against bind-field constraints (Nail-style),
//   2. creates an AM for every usable access method,
//   3. creates an SM for every selection predicate,
//   4. creates one SteM per base table (shared across self-join instances),
//   5. arranges seed tuples for the scans (done by Eddy::Start()).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "am/index_am.h"
#include "am/scan_am.h"
#include "eddy/eddy.h"
#include "query/query_spec.h"
#include "stem/stem.h"
#include "storage/table_store.h"

namespace stems {

/// Per-experiment knobs: module timing, SteM behaviour, eddy options.
struct ExecutionConfig {
  EddyOptions eddy;

  StemOptions stem_defaults;
  /// Overrides keyed by table name.
  std::map<std::string, StemOptions> stem_overrides;
  /// The options a SteM on `table` runs with, on either executor: its
  /// override if any, else the defaults.
  const StemOptions& StemOptionsFor(const std::string& table) const {
    auto it = stem_overrides.find(table);
    return it != stem_overrides.end() ? it->second : stem_defaults;
  }

  ScanAmOptions scan_defaults;
  /// Overrides keyed by access method name (AccessMethodSpec::name).
  std::map<std::string, ScanAmOptions> scan_overrides;

  IndexAmOptions index_defaults;
  /// Overrides keyed by access method name.
  std::map<std::string, IndexAmOptions> index_overrides;

  /// Create selection modules for selection predicates (they are an
  /// optimization: SteM probes enforce selections regardless).
  bool create_selection_modules = true;
};

class StemManager;

/// Builds a ready-to-run eddy for `query` over `store`. The caller still
/// picks a routing policy (Eddy::SetPolicy) before Start().
///
/// `stem_pool` (optional) enables cross-query SteM sharing: each poolable
/// SteM (unbounded, non-Grace) attaches to the engine-wide storage for its
/// (table, index columns, spill config) key instead of building a private
/// one — see docs/sharing.md. nullptr plans fully private state.
Result<std::unique_ptr<Eddy>> PlanQuery(const QuerySpec& query,
                                        const TableStore& store,
                                        Simulation* sim,
                                        const ExecutionConfig& config = {},
                                        StemManager* stem_pool = nullptr);

}  // namespace stems
