// Eddy: the adaptive tuple router (paper §2.1.1), extended with SteMs.
//
// The eddy owns all modules of a query (AMs, SMs, SteMs), continuously
// routes tuples between them according to a pluggable RoutingPolicy, sends
// tuples that span all tables and pass all predicates to the output, and
// terminates when no work remains. It also:
//   * routes EOT tuples to their table's SteM as builds (paper §2.1.3);
//   * seeds scan AMs at query start (paper §2.2 step 5);
//   * parks prior probers waiting for SteM growth and wakes them on change;
//   * audits every routing decision with a ConstraintChecker.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "am/index_am.h"
#include "am/scan_am.h"
#include "eddy/constraints.h"
#include "eddy/memory_governor.h"
#include "eddy/routing_policy.h"
#include "obs/query_counters.h"
#include "query/join_graph.h"
#include "runtime/query_context.h"
#include "sm/selection_module.h"
#include "spill/spill_options.h"
#include "spill/spill_summary.h"
#include "stem/stem.h"

namespace stems {

class BufferPool;

namespace obs {
class Gauge;
}  // namespace obs

struct EddyOptions {
  /// Virtual cost of one routing step.
  SimTime routing_overhead = Micros(1);
  /// Tuples routed per eddy scheduling step. 1 (default) is the paper's
  /// per-tuple routing; > 1 pops up to batch_size tuples per event-queue
  /// hop, asks the policy for all decisions at once (ChooseBatch), audits
  /// lineage-homogeneous groups once, and delivers same-destination runs as
  /// one batch. Changes virtual-time interleaving, never the result set.
  size_t batch_size = 1;
  /// BoundedRepetition backstop: max routing steps per tuple.
  uint32_t max_routes_per_tuple = 10000;
  /// §4.1 simplification: build every singleton into its SteM first, even
  /// when Table 2 would not require it. Policies may rely on it.
  bool always_build = true;
  /// §3.5: allow singletons to probe unbuilt (re-probing under
  /// LastMatchTimeStamp until covered).
  bool relax_build_first = false;
  /// Tables whose SteM build is skipped under relax_build_first (the
  /// paper's "much larger than the others" table). Each must have exactly
  /// one access method, a scan, and duplicate-free rows (without a SteM
  /// there is no set-semantics dedup for it).
  std::vector<std::string> no_build_tables;
  ConstraintMode constraint_mode = ConstraintMode::kRecord;
  /// §6: global memory control across SteMs (0 budget = disabled).
  MemoryGovernorOptions memory;
  /// Spill-aware state storage (src/spill/): when enabled, every SteM gets
  /// a partitioned run file behind one query-wide buffer pool, and the
  /// governor's kSpillColdest policy can move partitions to disk instead
  /// of evicting (exact larger-than-memory execution).
  SpillOptions spill;
  /// Optional classifier for the "results.prioritized" metric: evaluated on
  /// every output tuple (priority *flags* only propagate through the
  /// generating side's probes, so metrics use the ground-truth predicate).
  std::function<bool(const Tuple&)> result_priority_classifier;
  /// Observability (src/obs/): the engine-wide metric registry for live
  /// metrics (route-queue gauge, buffer-pool counters; the query's counters
  /// are published at its end, from Counters()), and the per-query trace-span
  /// sink. Both nullable — detached eddies (unit tests, planner-level
  /// callers) run dark.
  obs::MetricsRegistry* registry = nullptr;
  obs::Tracer* tracer = nullptr;
};

class Eddy {
 public:
  Eddy(const QuerySpec& query, Simulation* sim, EddyOptions options = {});
  ~Eddy();

  Eddy(const Eddy&) = delete;
  Eddy& operator=(const Eddy&) = delete;

  // --- wiring (used by the planner / tests) --------------------------------

  /// Registers a module; the eddy takes ownership and wires its sink.
  template <typename M>
  M* AddModule(std::unique_ptr<M> module) {
    M* raw = module.get();
    RegisterModule(std::move(module));
    return raw;
  }

  void SetPolicy(std::unique_ptr<RoutingPolicy> policy);

  // --- execution -------------------------------------------------------------

  /// Seeds every scan AM (paper §2.2 step 5). Call once.
  void Start();

  /// Start() + run the simulation until it drains.
  void RunToCompletion();

  /// True when no module has queued/in-flight work and the routing queue is
  /// empty: no future event can originate from this query. Tuples may still
  /// be parked; see DrainParked().
  bool Quiescent() const;

  /// Retires every parked tuple (prior probers whose completion table can
  /// never change again; their results are generated by the other side's
  /// probes). Legal only once the eddy is Quiescent(); the constraint
  /// checker audits each retirement. Returns tuples retired.
  size_t DrainParked();

  /// Cooperative cancellation: drops every queued and parked tuple, halts
  /// every module (Module::Halt: their queued and in-flight work is
  /// discarded unprocessed) and retires all future module emissions on
  /// arrival.
  void Cancel();
  bool cancelled() const { return cancelled_; }

  /// True when the query's LIMIT was hit: the eddy self-cancelled the
  /// dataflow but the buffered results are complete and valid. The engine
  /// needs no special case — the halted dataflow drains to Quiescent() and
  /// the query finishes normally (QueryStats::cancelled tracks only
  /// QueryHandle::Cancel, so it stays false). Observability accessor.
  bool limit_reached() const { return limit_reached_; }

  // --- results & stats -------------------------------------------------------

  const std::vector<TuplePtr>& results() const { return results_; }
  uint64_t num_results() const { return results_.size(); }
  uint64_t tuples_routed() const { return counters_.tuples_routed; }
  size_t parked_count() const;

  const std::vector<ConstraintViolation>& violations() const {
    return checker_->violations();
  }

  /// The §6 global memory governor (budget configured via EddyOptions).
  const MemoryGovernor& memory_governor() const { return memory_governor_; }

  /// Spill state across this query's SteMs and its buffer pool (the spill
  /// I/O is in Counters()).
  SpillSummary SpillStats() const;

  /// The query's totals so far: its routing counters plus its SteMs'.
  /// tuples_routed / routing_wall_ns is the router's real per-tuple cost
  /// (policy, audit, dispatch), the quantity batching amortizes.
  obs::QueryCounters Counters() const;

  /// The query-wide spill buffer pool; nullptr when spill is disabled.
  const BufferPool* buffer_pool() const { return buffer_pool_.get(); }

  QueryContext* ctx() { return &ctx_; }
  const QuerySpec& query() const { return *ctx_.query; }
  const JoinGraph& join_graph() const { return join_graph_; }
  const EddyOptions& options() const { return options_; }
  Simulation* sim() const { return ctx_.sim; }

  // --- module lookup (policies & checker) ------------------------------------

  const std::vector<std::unique_ptr<Module>>& modules() const {
    return modules_;
  }
  Stem* StemForSlot(int slot) const;
  Stem* StemForTable(const std::string& table) const;
  const std::vector<IndexAm*>& IndexAmsForSlot(int slot) const;
  const std::vector<ScanAm*>& ScanAmsForSlot(int slot) const;
  SelectionModule* SmForPredicate(int predicate_id) const;
  const std::vector<SelectionModule*>& selection_modules() const {
    return sms_;
  }

  /// Per-slot probe history read from this eddy's SteMs: the view PolicyBase
  /// hands to ChooseProbeSlot.
  const ProbeStatsView& probe_stats() const { return probe_stats_; }

  /// Does Table 2's BuildFirst apply to singletons of `slot`'s table (or is
  /// the eddy running with always_build)?
  bool BuildRequired(int slot) const;

  /// Injects a tuple into the routing flow (AM emissions arrive this way;
  /// policies use it for self-join retarget clones).
  void InjectTuple(TuplePtr tuple);

 private:
  void RegisterModule(std::unique_ptr<Module> module);
  void OnModuleEmit(TuplePtr tuple, Module* from);
  void MaybeStartRouting();
  void RouteOne(TuplePtr tuple);
  /// Batched routing step (batch_size > 1): pops up to batch_size tuples
  /// from the queue *at event time* (so emissions arriving during the
  /// routing_overhead window join the batch), pre-routes EOTs/outputs,
  /// gets all policy decisions via ChooseBatch, audits, and dispatches
  /// with order-preserving same-destination clustering.
  void RouteBatchFromQueue();
  /// Pre-policy handling shared by RouteOne/RouteBatchFromQueue: retires
  /// over-limit tuples, collects outputs. Returns false when the tuple was
  /// consumed. EOT handling stays in the callers (scalar delivers
  /// immediately; batched keeps queue order).
  bool PreRoute(TuplePtr& tuple);
  /// Records one sampled routing-decision instant event (lineage mask, the
  /// module chosen, intent, and the policy's scores when it computes any).
  void TraceRouteDecision(const TuplePtr& tuple, const RouteDecision& decision,
                          size_t batch);
  /// The single admission point for output tuples: clamps against LIMIT
  /// (a full result buffer retires the tuple — no other code path may grow
  /// results_) and self-cancels the dataflow when the limit fills. Keeping
  /// admission in one place is what makes the LIMIT bound structural: a
  /// same-destination AcceptBatch cluster can emit many outputs in one
  /// service event, and each one funnels through this clamp.
  void AdmitResult(TuplePtr tuple);
  void OnStemChanged(int table_ordinal);

  class StemProbeStats final : public ProbeStatsView {
   public:
    explicit StemProbeStats(const Eddy& eddy) : eddy_(eddy) {}
    SlotProbeStats ForSlot(int slot) const override;

   private:
    const Eddy& eddy_;
  };

  QueryContext ctx_;
  EddyOptions options_;
  StemProbeStats probe_stats_{*this};
  JoinGraph join_graph_;
  std::unique_ptr<RoutingPolicy> policy_;
  std::unique_ptr<ConstraintChecker> checker_;
  MemoryGovernor memory_governor_{MemoryGovernorOptions{}};
  /// Query-wide pool for *private* spilling SteMs, created lazily at
  /// registration; stays null when every SteM spills through the engine's
  /// shared pool (or spill is off).
  std::unique_ptr<BufferPool> buffer_pool_;

  std::vector<std::unique_ptr<Module>> modules_;
  std::vector<Stem*> stem_by_slot_;
  std::vector<std::vector<IndexAm*>> index_ams_by_slot_;
  std::vector<std::vector<ScanAm*>> scan_ams_by_slot_;
  std::map<int, SelectionModule*> sm_by_pred_;
  std::vector<SelectionModule*> sms_;

  std::deque<TuplePtr> route_queue_;
  bool routing_busy_ = false;
  bool started_ = false;
  bool cancelled_ = false;
  bool limit_reached_ = false;

  /// Scratch buffers for the batched routing path (reused across steps so
  /// the steady state allocates nothing).
  struct PendingRoute {
    /// Index into policy_batch_.tuples, or -1 for a pre-decided EOT build
    /// (which skips the policy and the audit; its tuple/decision live here).
    int32_t policy_index = -1;
    TuplePtr eot_tuple;
    RouteDecision eot_decision;
  };
  struct AuditedRoute {
    RouteLineage lineage;
    Module* dest;
    RouteIntent intent;
    int target_slot;
    bool exclude_equal_ts;
  };
  TupleBatch policy_batch_;
  std::vector<RouteDecision> decisions_scratch_;
  std::vector<PendingRoute> pending_scratch_;
  std::vector<AuditedRoute> audited_scratch_;
  std::vector<TuplePtr> cluster_scratch_;

  /// Hot-path metrics handles (resolved once instead of per result).
  CounterSeries* results_series_ = nullptr;
  CounterSeries* prioritized_series_ = nullptr;

  /// Engine-wide routing-queue high-water gauge (null when no registry is
  /// attached). The query's counters reach the registry once, at its end
  /// (PublishQueryCounters).
  obs::Gauge* reg_queue_hwm_ = nullptr;

  /// Prior probers waiting for their completion table's SteM to change.
  std::map<int, std::vector<TuplePtr>> parked_by_slot_;

  std::vector<TuplePtr> results_;
  /// Routing counters (tuples_routed, tuples_retired, routing_wall_ns).
  obs::QueryCounters counters_;
};

}  // namespace stems
