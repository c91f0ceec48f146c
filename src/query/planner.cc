#include "query/planner.h"

#include <set>

#include "query/validation.h"
#include "stem/stem_manager.h"

namespace stems {

Result<std::unique_ptr<Eddy>> PlanQuery(const QuerySpec& query,
                                        const TableStore& store,
                                        Simulation* sim,
                                        const ExecutionConfig& config,
                                        StemManager* stem_pool) {
  // Step 1: structural sanity (friendly errors for empty FROM lists,
  // duplicate aliases, cross products), then bind-order validation (paper
  // §2.2, via [18]).
  STEMS_RETURN_NOT_OK(ValidateQueryShape(query));
  STEMS_RETURN_NOT_OK(ValidateBindOrder(query));
  if (query.num_predicates() > 64) {
    return Status::InvalidQuery("at most 64 predicates supported");
  }

  auto eddy = std::make_unique<Eddy>(query, sim, config.eddy);
  QueryContext* ctx = eddy->ctx();

  // Batched dataflow (EddyOptions::batch_size): modules service tuple
  // groups of the same size per event, so the per-event amortization holds
  // end to end, not just at the router.
  const size_t service_batch = config.eddy.batch_size;

  // Step 4 (done early so AMs can assume SteMs exist): one SteM per base
  // table, shared across all FROM-clause instances of that table. With a
  // StemManager, the SteM's physical storage is additionally shared across
  // *queries*: the facade attaches to the pooled storage for its (table,
  // index columns, spill config) key — a late-attaching query skips the
  // build work for rows already stored (docs/sharing.md).
  std::set<std::string> tables_done;
  for (const auto& inst : query.slots()) {
    if (!tables_done.insert(inst.table_name).second) continue;
    const StemOptions& opts = config.StemOptionsFor(inst.table_name);
    // Windowed (max_entries) and Grace-mode (partitioned bounce) SteMs stay
    // private: eviction windows and phased partition release are per-query
    // execution strategies, not shareable state.
    const bool poolable = stem_pool != nullptr && opts.max_entries == 0 &&
                          opts.num_partitions <= 1;
    std::shared_ptr<StemStorage> storage;
    bool shared = false;
    if (poolable) {
      const std::vector<int> cols =
          StemIndexColumns(query, ctx->SlotsOfTable(inst.table_name));
      storage = stem_pool->Acquire(
          StemManager::KeyFor(inst.table_name, cols, opts,
                              config.eddy.spill.enabled, config.eddy.spill),
          inst.table_name, &shared);
    }
    auto module =
        std::make_unique<Stem>(ctx, inst.table_name, opts, std::move(storage));
    if (shared) module->MarkAttachedShared();
    if (poolable && config.eddy.spill.enabled) {
      // Pooled storage spills through the engine-wide buffer pool (shared
      // partitions must outlive any one query); private SteMs get the
      // query-wide pool at registration instead.
      module->EnableSpill(stem_pool->SpillPool(config.eddy.spill),
                          config.eddy.spill);
    }
    Stem* stem = eddy->AddModule(std::move(module));
    // Grace-mode SteMs stay scalar: their per-probe partition-switch
    // penalty depends on the partition of the *previous* probe, which
    // batched service (service times summed up front) would misprice.
    if (opts.partition_switch_penalty <= 0) {
      stem->set_service_batch(service_batch);
    }
  }

  // Step 2: an AM for every access method that can possibly be used.
  tables_done.clear();
  for (const auto& inst : query.slots()) {
    if (!tables_done.insert(inst.table_name).second) continue;
    STEMS_ASSIGN_OR_RETURN(const StoredTable* data,
                           store.GetTable(inst.table_name));
    for (const auto& am : inst.def->access_methods) {
      if (am.kind == AccessMethodKind::kScan) {
        ScanAmOptions opts = config.scan_defaults;
        auto it = config.scan_overrides.find(am.name);
        if (it != config.scan_overrides.end()) opts = it->second;
        // Scan AMs accept only the seed; batched service is a no-op there.
        eddy->AddModule(std::make_unique<ScanAm>(
            ctx, am.name, inst.table_name, data->rows(), opts));
      } else {
        IndexAmOptions opts = config.index_defaults;
        auto it = config.index_overrides.find(am.name);
        if (it != config.index_overrides.end()) opts = it->second;
        eddy->AddModule(std::make_unique<IndexAm>(
                ctx, am.name, inst.table_name, am.bind_columns, data, opts))
            ->set_service_batch(service_batch);
      }
    }
  }

  // Step 3: an SM per selection predicate.
  if (config.create_selection_modules) {
    for (const auto& p : query.predicates()) {
      if (!p.is_join()) {
        eddy->AddModule(std::make_unique<SelectionModule>(ctx, &p))
            ->set_service_batch(service_batch);
      }
    }
  }

  return eddy;
}

}  // namespace stems
