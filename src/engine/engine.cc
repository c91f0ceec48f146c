#include "engine/engine.h"

#include "common/logging.h"
#include "exec/threaded_executor.h"
#include "query/planner.h"

namespace stems {

namespace {

/// Events run per pump slice. Small enough that cursors stay responsive
/// with several queries interleaved, large enough to amortize the loop.
constexpr uint64_t kPumpChunk = 256;

}  // namespace

Engine::Engine() = default;
Engine::~Engine() = default;

namespace internal {

QueryExecution::~QueryExecution() {
  // Stop-and-join: the run reads this execution's spec until its workers
  // exit. A run that already finished is only joined (at once, or after
  // its last worker's final instructions).
  if (threaded != nullptr) threaded->Stop();
}

bool QueryExecution::done() const {
  if (cancelled) return true;
  return threaded != nullptr ? threaded->results().closed() : finished;
}

}  // namespace internal

Status Engine::AddTable(TableDef def, std::vector<RowRef> rows) {
  const std::string name = def.name;
  Schema schema = def.schema;
  // Pre-check the store so a failure cannot leave catalog and store
  // diverged (the store's only failure mode is a duplicate name, e.g. rows
  // pre-loaded through the store() escape hatch).
  if (store_.GetTable(name).ok()) {
    return Status::AlreadyExists("table '" + name +
                                 "' already has rows in the store");
  }
  STEMS_RETURN_NOT_OK(catalog_.AddTable(std::move(def)));
  return store_.AddTable(name, std::move(schema), std::move(rows));
}

Result<QueryHandle> Engine::Submit(const QuerySpec& query,
                                   RunOptions options) {
  STEMS_RETURN_NOT_OK(options.Validate());

  auto exec = std::make_shared<internal::QueryExecution>();
  exec->engine = this;
  // The eddy keeps a pointer to its QuerySpec for its whole lifetime; the
  // execution owns a copy so the handle outlives the caller's spec.
  exec->query = query;
  exec->policy_name = options.policy;
  // wall-clock: stamps real submission time for the engine.query_wall_us
  // histogram; the simulation itself runs on sim_'s virtual clock.
  exec->submitted_wall = std::chrono::steady_clock::now();
  if (options.publish_metrics) exec->registry = &registry_;
  if (options.trace_every_n > 0) {
    exec->tracer = std::make_shared<obs::Tracer>(options.trace_every_n,
                                                 options.trace_capacity);
  }

  if (options.executor == ExecutorKind::kThreaded) {
    // Wall-clock morsel-driven execution (docs/parallelism.md): Start
    // validates, queues the run on the pool and returns; the workers
    // stream results into the run's channel on their own threads, and the
    // handle's cursors never touch the shared clock. The engine keeps no
    // reference: dropping the last handle stops the run.
    if (threaded_pool_ == nullptr) {
      threaded_pool_ = std::make_unique<ThreadPoolExecutor>();
    }
    ExecObs obs;
    obs.registry = exec->registry;
    obs.tracer = exec->tracer.get();
    STEMS_ASSIGN_OR_RETURN(
        exec->threaded,
        threaded_pool_->Start(exec->query, options, store_, obs));
    return QueryHandle(exec);
  }

  ExecutionConfig cfg = options.EffectiveExec();
  cfg.eddy.registry = exec->registry;
  cfg.eddy.tracer = exec->tracer.get();
  STEMS_ASSIGN_OR_RETURN(
      exec->eddy,
      PlanQuery(exec->query, store_, &sim_, cfg,
                options.share_stems ? &stem_pool_ : nullptr));
  STEMS_ASSIGN_OR_RETURN(std::unique_ptr<RoutingPolicy> policy,
                         PolicyRegistry::Global().Create(
                             options.policy, options.policy_params));
  exec->eddy->SetPolicy(std::move(policy));
  // Seed the scans now: the query is live and interleaves with every other
  // live query as soon as anyone advances the shared clock.
  exec->eddy->Start();

  queries_.push_back(exec);
  // A query can be born quiescent (LIMIT 0 never seeds the scans); mark it
  // finished now so done() holds without a cursor pump.
  CheckCompletions();
  return QueryHandle(exec);
}

void Engine::MarkFinished(internal::QueryExecution* exec) {
  exec->completed_at = sim_.now();
  // wall-clock: closes the observability span opened at Submit; virtual
  // completion time is recorded separately (completed_at, sim_.now()).
  exec->wall_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - exec->submitted_wall)
          .count());
  if (exec->registry != nullptr) {
    obs::PublishQueryCounters(*exec->registry, exec->eddy->Counters(),
                              /*completed=*/true, exec->wall_us);
  }
}

void Engine::CheckCompletions() {
  for (auto& exec : queries_) {
    if (exec->finished || exec->cancelled) continue;
    if (exec->eddy != nullptr && exec->eddy->Quiescent()) {
      // Parked prior probers can never be woken now; retiring them is the
      // RunToCompletion drain, audited by the constraint checker.
      exec->eddy->DrainParked();
      exec->finished = true;
      MarkFinished(exec.get());
    }
  }
  // Prune retired executions nobody holds a handle to anymore (the engine's
  // ref is the last one): a long-lived engine must not grow by a module
  // graph plus a buffered result set per past query. Quiescent() is part of
  // the predicate because a *cancelled* eddy may still have no-op events on
  // the shared clock holding raw module pointers (a halted scan's pending
  // emission); destroying it before they fire is a use-after-free.
  std::erase_if(queries_,
                [](const std::shared_ptr<internal::QueryExecution>& e) {
                  return (e->finished || e->cancelled) &&
                         (e->eddy == nullptr || e->eddy->Quiescent()) &&
                         e.use_count() == 1;
                });
}

void Engine::PumpUntilResult(internal::QueryExecution* exec, size_t target) {
  while (!exec->finished && !exec->cancelled &&
         exec->eddy->num_results() <= target) {
    if (sim_.RunSteps(kPumpChunk) == 0) {
      CheckCompletions();
      if (!exec->finished && !exec->cancelled) {
        // Should be unreachable: an idle clock with a non-quiescent eddy
        // means a module lost track of in-flight work. Fail closed rather
        // than spinning forever — but *say so*: the stream ends with a
        // non-OK QueryHandle::status() instead of silently passing off a
        // truncated buffer as the complete result set.
        STEMS_LOG(Error)
            << "engine: simulation idle but query not quiescent; "
               "forcing completion";
        exec->eddy->DrainParked();
        exec->error = Status::Internal(
            "query forced to completion: simulation went idle while the "
            "dataflow was not quiescent (a module lost in-flight work); "
            "the result set may be truncated");
        exec->finished = true;
        MarkFinished(exec);
      }
    } else {
      CheckCompletions();
    }
  }
}

void Engine::PumpToCompletion(internal::QueryExecution* exec) {
  PumpUntilResult(exec, SIZE_MAX);
}

void Engine::RunAll() {
  // Snapshot: pumping prunes handle-less retired executions from queries_,
  // which would invalidate an iterator over the member vector.
  std::vector<std::shared_ptr<internal::QueryExecution>> live = queries_;
  for (auto& exec : live) {
    if (!exec->finished && !exec->cancelled) {
      PumpToCompletion(exec.get());
    }
  }
}

size_t Engine::active_queries() const {
  size_t n = threaded_pool_ != nullptr ? threaded_pool_->live_runs() : 0;
  for (const auto& exec : queries_) {
    if (!exec->finished && !exec->cancelled) ++n;
  }
  return n;
}

}  // namespace stems
