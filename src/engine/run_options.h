// RunOptions: everything Engine::Submit needs to know about *how* to run a
// query, in one validated struct.
//
// Folds the planner's ExecutionConfig (module timing, SteM behaviour) and
// the EddyOptions it embeds together with the routing-policy selection that
// used to require a concrete-policy #include. Named presets cover the
// recurring configurations of the paper's experiments; everything else is
// reachable through the `exec` escape hatch.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "engine/policy_registry.h"
#include "exec/executor.h"
#include "query/planner.h"

namespace stems {

struct RunOptions {
  /// Registry name of the routing policy ("nary_shj", "lottery",
  /// "benefit_cost", ...). See PolicyRegistry::Names().
  std::string policy = "nary_shj";

  /// Knobs forwarded to the policy factory (seed, probe order, ...).
  PolicyParams policy_params;

  /// Tuples routed (and serviced) per scheduling step. 1 = the paper's
  /// per-tuple dataflow (the Paper() preset stays scalar); > 1 amortizes
  /// the policy consultation, constraint audit and event-queue hop across
  /// the batch (see EddyOptions::batch_size). Values > 1 take precedence
  /// over exec.eddy.batch_size. Batching never changes the result set —
  /// only virtual-time interleaving.
  size_t batch_size = 1;

  /// Global in-memory entry budget across all SteMs of the query
  /// (0 = unlimited). Nonzero values override
  /// exec.eddy.memory.global_entry_budget. With `spill` off, the governor
  /// evicts at the budget (window-join semantics); with it on, state
  /// spills and results stay exact.
  size_t memory_budget_entries = 0;

  /// Spill-aware state storage (§6 + §3.1, src/spill/): under memory
  /// pressure the governor moves cold SteM hash partitions to simulated
  /// partitioned run files behind a shared buffer pool instead of evicting
  /// them, and a probe into a spilled partition faults it back in first
  /// (paying the simulated read I/O). Switches the governor's victim
  /// policy to kSpillColdest (unless exec.eddy.memory.victim_policy was
  /// explicitly set to an eviction policy); exact results, priced through
  /// the disk latency models in exec.eddy.spill.
  bool spill = false;

  /// Cross-query state sharing (paper §5, docs/sharing.md): SteMs attach
  /// to the engine-wide pool keyed by (table, indexed columns, spill
  /// config) instead of building private state. Concurrent queries over
  /// the same tables then store each row, index posting and spilled
  /// partition once; a late-attaching query skips the physical build work
  /// for rows already stored (QueryStats::builds_avoided) while its
  /// results stay exactly those of a private run (per-query visibility
  /// epochs). Windowed (max_entries) and Grace-mode SteMs always stay
  /// private. Incompatible with an evicting memory governor — under a
  /// budget, sharing requires the spilling victim policy.
  bool share_stems = false;

  /// Which execution substrate runs the query (docs/parallelism.md):
  /// kSim (default) is the deterministic virtual-clock dataflow; kThreaded
  /// is the wall-clock morsel-driven thread pool. The threaded envelope is
  /// narrower — scan-AM tables, BuildFirst semantics, no sharing — and
  /// Engine::Submit reports Unsupported for combinations outside it.
  ExecutorKind executor = ExecutorKind::kSim;

  /// Worker threads for the threaded executor (0 = hardware concurrency,
  /// clamped to [1, 8]). Ignored by the sim executor.
  size_t num_threads = 0;

  /// Trace-span sampling (src/obs/trace.h, docs/observability.md):
  /// 0 disables tracing entirely (no tracer is allocated; every
  /// instrumentation site costs one branch on a null pointer), 1 records
  /// every routing decision / module service span / worker morsel, N
  /// records every Nth per stream. Export via QueryHandle::DumpTrace()
  /// (Chrome trace_event JSON).
  uint64_t trace_every_n = 0;

  /// Ring capacity of the per-query tracer (most recent events win).
  size_t trace_capacity = 16384;

  /// Publish this query's counters into the engine-wide metric registry
  /// (Engine::metrics_registry(), Server::MetricsText()). On by default;
  /// benches turn it off to measure the instrumentation's own cost.
  bool publish_metrics = true;

  /// Full low-level knob set: module timing defaults and per-module
  /// overrides, SteM options, and the embedded EddyOptions.
  ExecutionConfig exec;

  /// Checks internal consistency and that `policy` is registered.
  Status Validate() const;

  /// The planner-ready ExecutionConfig: `exec` with the top-level
  /// shorthands folded in (batch_size, memory_budget_entries, and the
  /// spill toggle's victim-policy flip). The single place Engine::Submit
  /// translates RunOptions for PlanQuery.
  ExecutionConfig EffectiveExec() const;

  // --- named presets --------------------------------------------------------

  /// The paper's default experimental setup: benefit/cost routing (§4.1)
  /// with probe bouncing left to Table 2's constraints.
  static RunOptions Paper();

  /// Memory-constrained execution (§6): a global SteM entry budget with the
  /// MemoryGovernor evicting across SteMs, plus adaptive SteM indexes so
  /// small states stay cheap.
  static RunOptions LowMemory(size_t global_entry_budget = 1024);

  /// §3.5 relaxed BuildFirst: singletons of `no_build_tables` probe without
  /// building (re-probing under LastMatchTimeStamp), for tables too large
  /// to hold in a SteM.
  static RunOptions RelaxedBuildFirst(std::vector<std::string> no_build_tables);

  /// Exact execution of workloads whose build state exceeds memory: a
  /// global entry budget with spilling enabled (kSpillColdest governor,
  /// partitioned run files, shared buffer pool) plus adaptive SteM indexes.
  /// Results are identical to an unlimited-memory run; only virtual time
  /// differs (the simulated disk I/O).
  static RunOptions LargerThanMemory(size_t memory_budget_entries = 1024);

  /// Multi-user serving (§5): cross-query SteM sharing on, so concurrent
  /// queries over the same tables pool their build state, with benefit/cost
  /// routing. The direct scaling preset for many-queries-per-engine
  /// workloads.
  static RunOptions MultiQuery();

  /// Wall-clock morsel-driven execution on `num_threads` workers
  /// (0 = hardware concurrency). Batch size 64 so each claimed morsel
  /// amortizes the chunk-cursor hop, as in the sim's batched routing.
  static RunOptions Threaded(size_t num_threads = 0);
};

}  // namespace stems
