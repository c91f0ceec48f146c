// Engine: the top-level façade of the stems system.
//
// The paper's central claim (§2.2) is that eddies + SteMs "obviate the need
// for query optimization": a query should be *submitted* as intent, not
// hand-assembled. The Engine realizes that as a declarative API. It owns
// the Catalog (what tables look like), the TableStore (their data) and the
// shared Simulation clock, and turns a SQL string plus RunOptions into a
// running eddy in one call:
//
//   Engine engine;
//   engine.AddTable(def, rows);                          // describe data
//   auto handle = engine.Query(                          // submit SQL
//       "SELECT u.id, o.item FROM users u, orders o "
//       "WHERE u.id = o.user_id AND u.age >= 30 LIMIT 100").ValueOrDie();
//   ResultCursor cursor = handle.cursor();               // stream rows
//   while (auto row = cursor.NextRow()) Use(row->Get("o.item"));
//
// Serving-style hot path — parse and bind once, execute many times:
//
//   auto prepared = engine.Prepare(
//       "SELECT * FROM users u WHERE u.age >= $min").ValueOrDie();
//   auto handle = prepared.Bind(sql::SqlParams().Set("min",
//       Value::Int64(30))).Submit(options).ValueOrDie();
//
// Several queries may be live at once: each submission wires an
// independent eddy (its own modules, its own routing policy) onto the
// shared discrete-event clock, so their events interleave in virtual-time
// order — pumping any one cursor advances every live query.
//
// A threaded query (RunOptions::executor = kThreaded) streams instead:
// Submit starts it on the engine's ThreadPoolExecutor and returns, its
// workers push result batches into a bounded channel, and its cursor
// blocks on that channel (docs/parallelism.md, "Streaming and
// backpressure").
//
// Engine::Submit(QuerySpec) with QueryBuilder remains the programmatic
// escape hatch; the planner's PlanQuery() is the layer below that.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "eddy/eddy.h"
#include "engine/run_options.h"
#include "exec/executor.h"
#include "obs/metrics_registry.h"
#include "obs/profile.h"
#include "obs/query_counters.h"
#include "obs/trace.h"
#include "query/query_spec.h"
#include "sql/binder.h"
#include "stem/stem_manager.h"
#include "storage/table_store.h"

namespace stems {

class Engine;
class QueryHandle;
class ResultCursor;
class ThreadedRun;
class ThreadPoolExecutor;

/// Execution statistics of one submitted query (snapshot; final once
/// QueryHandle::done()). The scalar counters — num_results, tuples_routed,
/// routing_wall_ns, builds, probes, spill_ios, ... — are the query's
/// QueryCounters (src/obs/query_counters.h, one table for every surface).
struct QueryStats : obs::QueryCounters {
  size_t constraint_violations = 0;
  size_t parked = 0;

  // --- cross-query sharing (RunOptions::share_stems, docs/sharing.md) -------
  /// SteMs of this query that attached to storage another query had
  /// already populated.
  size_t stems_shared = 0;
  /// Virtual time at which the engine *observed* completion; kSimTimeNever
  /// while running, and always for threaded queries (they have no virtual
  /// clock). With several interleaved queries this can lag the query's
  /// actual last event by up to one pump slice (other queries' events may
  /// advance the shared clock within the same slice).
  SimTime completed_at = kSimTimeNever;
  std::string policy;
  bool cancelled = false;

  // --- execution substrate (RunOptions::executor, docs/parallelism.md) ------
  /// "sim" or "threaded".
  std::string executor = "sim";
  /// Per-worker counters of a threaded run, in worker-id order (the
  /// counters above are their merge, plus the run-wide spill and
  /// shard-lock totals); empty for sim runs.
  std::vector<obs::QueryCounters> worker_counters;

  // --- spill state (all zero when RunOptions::spill is off) -----------------
  /// Live entries currently on disk.
  uint64_t entries_spilled = 0;
  /// SteM hash partitions currently resident / spilled (summed over SteMs).
  size_t partitions_resident = 0;
  size_t partitions_spilled = 0;
};

namespace internal {

/// Shared state of one submitted query, owned jointly by the Engine and any
/// outstanding QueryHandle/ResultCursor. Internal: use QueryHandle.
struct QueryExecution {
  Engine* engine = nullptr;
  QuerySpec query;  ///< owned copy; the eddy points into it
  /// Sim executions own an eddy on the shared clock; threaded executions
  /// own a streaming ThreadedRun instead (eddy stays null — every eddy
  /// deref below the handle API is branched on this).
  std::unique_ptr<Eddy> eddy;
  std::shared_ptr<ThreadedRun> threaded;
  /// Threaded executions: the handle's buffer — rows moved out of the
  /// run's channel, unread from threaded_head on. A cursor moves each row
  /// out as it hands it over, so read rows hold no tuple and the buffer
  /// keeps only what the consumer has not read yet.
  std::vector<TuplePtr> threaded_rows;
  size_t threaded_head = 0;
  std::string policy_name;
  size_t next_result = 0;  ///< cursor consumption position (shared)
  /// Sim completion (threaded completion is the run's channel closing).
  bool finished = false;
  bool cancelled = false;
  SimTime completed_at = kSimTimeNever;
  /// Sim: the counters Cancel published for a query it stopped. Stats()
  /// reports these from then on: module events already on the shared clock
  /// still run, but their work is not the query's any more.
  std::optional<obs::QueryCounters> stopped_counters;
  /// Per-query trace sink (RunOptions::trace_every_n > 0); shared so the
  /// handle can export after the engine pruned the execution's eddy.
  std::shared_ptr<obs::Tracer> tracer;
  /// Engine-wide registry this query publishes into (null when
  /// RunOptions::publish_metrics is off).
  obs::MetricsRegistry* registry = nullptr;
  /// Wall clock: submission time, and submit-to-completion span (the
  /// engine.query_wall_us histogram's sample). For sim queries the span
  /// includes time the clock sat idle between cursor pumps.
  std::chrono::steady_clock::time_point submitted_wall;
  uint64_t wall_us = 0;
  /// Non-OK when the engine had to force completion (idle clock with a
  /// non-quiescent eddy): the buffered results may be incomplete. Surfaced
  /// through QueryHandle::status() / ResultCursor::status().
  Status error;

  /// The last handle is gone: a threaded run still going is stopped and
  /// its workers joined.
  ~QueryExecution();
  /// Every result produced (or cancelled). For a threaded run this reads
  /// the channel's completion under its lock.
  bool done() const;
};

}  // namespace internal

/// Schema-aware view of one result row: the declared projection applied to
/// a composite result tuple. Columns are addressed by position (SELECT-list
/// order) or by their qualified label ("u.age"). Cheap to copy — it shares
/// the underlying tuple and points into the query's spec, so it must not
/// outlive the QueryHandle it came from.
class RowView {
 public:
  RowView() = default;

  bool valid() const { return tuple_ != nullptr; }
  size_t num_columns() const;

  /// Label / declared type / value of output column `i` (SELECT order).
  const std::string& name(size_t i) const;
  ValueType type(size_t i) const;
  const Value& value(size_t i) const;

  /// Value by qualified label; nullptr when the projection has no such
  /// column.
  const Value* Find(const std::string& label) const;
  /// Value by qualified label; aborts on an unknown label (use Find for
  /// the checked variant). `row.Get("R.a")` replaces raw slot indexing.
  const Value& Get(const std::string& label) const;

  /// The output schema (shared by every row of the query).
  const Schema& schema() const;

  /// "(u.id=1, o.item=10)".
  std::string ToString() const;

  /// Escape hatch: the underlying composite tuple (all slots, pre-
  /// projection).
  const TuplePtr& tuple() const { return tuple_; }

 private:
  friend class ResultCursor;
  RowView(TuplePtr tuple, const QuerySpec* query)
      : tuple_(std::move(tuple)), query_(query) {}

  TuplePtr tuple_;
  const QuerySpec* query_ = nullptr;
};

/// Pull-based streaming access to a query's results. On the sim executor
/// Next() lazily advances the shared simulation just far enough to produce
/// the next result; on the threaded executor it takes the next row the
/// workers pushed, waiting for one if none is there yet. All cursors of one
/// query share the consumption position (they are views of the same
/// stream).
class ResultCursor {
 public:
  /// The next result in production order; std::nullopt once the query has
  /// finished and every result was returned, or after Cancel().
  std::optional<TuplePtr> Next();

  /// For callers that must not block (the server's engine thread): true
  /// when the next `rows` calls to Next() — or the end of the stream —
  /// are available without waiting. Otherwise arranges for `on_ready` to be
  /// called once, from a worker thread, when that may have become true,
  /// and returns false; ask again then. Sim queries always return true:
  /// their Next() advances the shared clock instead of waiting. `on_ready`
  /// must be cheap and thread-safe, and must not call back into the engine.
  bool NotifyWhenReady(size_t rows, std::function<void()> on_ready);

  /// Next() with the query's projection applied: a schema-aware row.
  std::optional<RowView> NextRow();

  /// Runs the query to completion and returns all not-yet-consumed results.
  std::vector<TuplePtr> Drain();

  /// Drain() with the query's projection applied.
  std::vector<RowView> DrainRows();

  /// The query's output schema (labels + types, SELECT-list order).
  const Schema& schema() const;

  /// Results handed out so far.
  size_t consumed() const { return exec_->next_result; }

  /// Execution health: non-OK when the engine forced completion on a stuck
  /// dataflow — the stream ended but may be missing results. OK on normal
  /// completion and on cancellation.
  const Status& status() const { return exec_->error; }

  // --- spill observability (src/spill/; zero when spill is disabled) --------
  /// Simulated disk page I/Os performed so far to keep this query's state
  /// exact under its memory budget.
  uint64_t spill_ios() const;
  /// Bytes appended to spill run files so far.
  uint64_t bytes_spilled() const;
  /// SteM hash partitions currently in memory (summed over SteMs).
  size_t partitions_resident() const;

 private:
  friend class QueryHandle;
  explicit ResultCursor(std::shared_ptr<internal::QueryExecution> exec)
      : exec_(std::move(exec)) {}

  std::shared_ptr<internal::QueryExecution> exec_;
};

/// Caller's grip on a submitted query: cursor, stats, cancellation. Copyable
/// (all copies refer to the same execution); must not outlive its Engine
/// (except to be destroyed: the Engine's teardown already stopped and
/// joined a threaded query's workers).
class QueryHandle {
 public:
  QueryHandle() = default;

  bool valid() const { return exec_ != nullptr; }

  /// Streaming access to results. Cursors share one consumption position.
  ResultCursor cursor() const { return ResultCursor(exec_); }

  /// Runs this query to completion (results stay buffered for the cursor).
  /// On a threaded query this drains the result channel into the handle's
  /// buffer, so the workers never stall on a caller that holds no cursor.
  void Wait();

  /// True once the query has produced every result (or was cancelled).
  bool done() const { return exec_->done(); }

  /// Execution health: OK while running and on clean completion; non-OK
  /// when the engine forced completion because the shared clock went idle
  /// with this query's dataflow not quiescent (a module lost in-flight
  /// work) — the result set may be truncated. Check after done().
  const Status& status() const { return exec_->error; }

  /// Cooperatively cancels the query: pending and future tuples are
  /// dropped, cursors return std::nullopt, no further results appear. On an
  /// already-finished query this discards the unconsumed buffered results.
  /// A threaded query's workers are stopped and joined before it returns.
  void Cancel();

  QueryStats Stats() const;
  const MetricsRecorder& metrics() const;
  const QuerySpec& query() const { return exec_->query; }

  /// Per-module execution profile (tuples in/out, observed vs assumed
  /// selectivity, build/probe/match counts, spill I/O, busy/queue-wait
  /// virtual time). Snapshot while running, final once done(). The text
  /// rendering (Profile().ToTable()) is what EXPLAIN ANALYZE returns.
  obs::QueryProfile Profile() const;

  /// The query's trace spans as Chrome trace_event JSON (load in
  /// chrome://tracing or Perfetto). Tracing is enabled per query via
  /// RunOptions::trace_every_n; without it this returns an empty (but
  /// well-formed) trace document.
  std::string DumpTrace() const;

  /// Low-level escape hatch (module stats, constraint violations, ...).
  /// Null for threaded executions — they have no module graph.
  Eddy* eddy() const { return exec_->eddy.get(); }

 private:
  friend class Engine;
  explicit QueryHandle(std::shared_ptr<internal::QueryExecution> exec)
      : exec_(std::move(exec)) {}

  std::shared_ptr<internal::QueryExecution> exec_;
};

/// A prepared query with its parameter values filled in, ready to submit.
/// Produced by PreparedQuery::Bind; carries any bind error forward so the
/// serving idiom stays one chained expression:
///
///   prepared.Bind({Value::Int64(30)}).Submit(options)
///
/// A bind failure (arity, unknown name, type mismatch) surfaces from
/// Submit() as that error.
class BoundQuery {
 public:
  /// Submits the bound spec to the engine (same semantics as
  /// Engine::Submit). Returns the deferred bind error, if any.
  Result<QueryHandle> Submit(RunOptions options = {}) const;

  /// The bind outcome (OK when the parameters applied cleanly).
  const Status& status() const { return status_; }
  /// The executable spec; valid only when status().ok().
  const QuerySpec& spec() const { return spec_; }

 private:
  friend class PreparedQuery;
  BoundQuery(Engine* engine, QuerySpec spec) : engine_(engine),
                                               spec_(std::move(spec)) {}
  explicit BoundQuery(Status error) : status_(std::move(error)) {}

  Engine* engine_ = nullptr;
  Status status_;
  QuerySpec spec_;
};

/// A parsed-and-bound SQL statement, reusable across executions. The
/// expensive front-end work (lexing, parsing, name resolution, shape
/// validation) happened once in Engine::Prepare; Bind() only patches
/// parameter constants into a copy of the bound spec — the serving hot
/// path (bench_sql asserts it is >= 5x cheaper than re-parsing).
/// Copyable; must not outlive its Engine.
class PreparedQuery {
 public:
  PreparedQuery() = default;

  /// Fills the parameter placeholders ('?' in order, '$name' by name) and
  /// returns a submittable query. Errors are carried inside the BoundQuery
  /// (see above) so Bind(...).Submit(...) chains.
  BoundQuery Bind(const sql::SqlParams& params = {}) const;

  /// Shorthand for Bind({}).Submit(options) on parameterless statements.
  Result<QueryHandle> Submit(RunOptions options = {}) const;

  /// The bound spec template (parameter constants still unbound).
  const QuerySpec& spec() const { return bound_.spec; }
  /// Placeholder sites, in order of appearance.
  const std::vector<sql::ParamSite>& params() const { return bound_.params; }

 private:
  friend class Engine;
  PreparedQuery(Engine* engine, sql::BoundStatement bound)
      : engine_(engine), bound_(std::move(bound)) {}

  Engine* engine_ = nullptr;
  sql::BoundStatement bound_;
};

class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- data definition -------------------------------------------------------

  /// Registers a table's definition and its rows in one step.
  Status AddTable(TableDef def, std::vector<RowRef> rows);

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  TableStore& store() { return store_; }
  const TableStore& store() const { return store_; }
  Simulation& sim() { return sim_; }
  /// The cross-query SteM pool (RunOptions::share_stems; docs/sharing.md).
  StemManager& stem_pool() { return stem_pool_; }

  // --- query execution -------------------------------------------------------

  /// One-shot SQL submission: parses, binds against the catalog, and
  /// submits in one call. The statement must be parameter-free (use
  /// Prepare for '?' / '$name' placeholders). See docs/sql.md for the
  /// dialect.
  Result<QueryHandle> Query(const std::string& sql, RunOptions options = {});

  /// Compiles a SQL statement (lex, parse, resolve, validate) into a
  /// reusable PreparedQuery. Parameter values bind later, per execution —
  /// the serving hot path skips every front-end stage.
  Result<PreparedQuery> Prepare(const std::string& sql);

  /// Runs `sql` to completion and returns the rendered per-module profile
  /// (the long-hand form of submitting "EXPLAIN ANALYZE <sql>" and reading
  /// its one-row result; see docs/observability.md).
  Result<std::string> ExplainAnalyze(const std::string& sql,
                                     RunOptions options = {});

  /// Programmatic escape hatch: submits a QueryBuilder-built spec.
  /// Validates `options`, plans `query` (one SteM per table, one AM per
  /// access method, one SM per selection around an eddy), instantiates the
  /// named routing policy from the registry, and starts the scans. The
  /// returned handle streams results; execution advances when a cursor is
  /// pumped or RunAll() is called. A threaded query instead starts on the
  /// engine's worker threads and runs on its own; threaded Submits queue
  /// in submit order inside the executor and never block the caller.
  Result<QueryHandle> Submit(const QuerySpec& query, RunOptions options = {});

  /// Drives the shared clock until every live sim query completes
  /// (threaded queries run on their own threads; Wait() on their handles).
  void RunAll();

  /// Queries submitted and not yet finished or cancelled.
  size_t active_queries() const;

  // --- observability (docs/observability.md) ---------------------------------

  /// The engine-wide metric registry every query publishes into (unless
  /// RunOptions::publish_metrics is off): eddy routing counters, SteM
  /// build/probe/match traffic, spill I/O, executor contention, and the
  /// engine.query_wall_us completion histogram. The server exposes it as
  /// Prometheus text (Server::MetricsText()).
  obs::MetricsRegistry& metrics_registry() { return registry_; }
  const obs::MetricsRegistry& metrics_registry() const { return registry_; }

 private:
  friend class ResultCursor;
  friend class QueryHandle;

  /// Advances the shared simulation until `exec` finishes, is cancelled, or
  /// has produced more than `target` results. Interleaves every live query.
  void PumpUntilResult(internal::QueryExecution* exec, size_t target);
  void PumpToCompletion(internal::QueryExecution* exec);
  /// Marks quiescent queries finished (draining their parked tuples).
  void CheckCompletions();
  /// Sim completion bookkeeping shared by every finish path: stamps
  /// completed_at / wall_us and publishes the completion metrics (a
  /// threaded run publishes its own when its last worker finishes).
  void MarkFinished(internal::QueryExecution* exec);

  Catalog catalog_;
  TableStore store_;
  /// Declared before the queries (so destroyed after them): pooled SteM
  /// storages write their spill files through stem_pool_'s buffer pools.
  StemManager stem_pool_;
  Simulation sim_;
  /// Engine-wide metric registry (handles are pointer-stable; queries,
  /// executors and the server all publish into it).
  obs::MetricsRegistry registry_;
  /// Sim executions; threaded ones live only as long as their handles.
  std::vector<std::shared_ptr<internal::QueryExecution>> queries_;
  /// Lazily created wall-clock executor (RunOptions::executor=threaded).
  /// One per engine: concurrent threaded Submits queue inside it, one run
  /// at a time, instead of oversubscribing the machine. Declared last, so
  /// destroyed first: it stops and joins every run before the store and the
  /// registry they read go away.
  std::unique_ptr<ThreadPoolExecutor> threaded_pool_;
};

}  // namespace stems
