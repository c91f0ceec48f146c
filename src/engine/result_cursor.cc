// ResultCursor and QueryHandle: the pull side of the Engine façade.
#include "engine/engine.h"
#include "exec/threaded_executor.h"
#include "stem/stem.h"

namespace stems {

namespace {

/// The handle's buffer of a threaded execution with its read prefix
/// dropped, ready for a channel Pop to append to.
std::vector<TuplePtr>* UnreadBuffer(internal::QueryExecution* exec) {
  auto& rows = exec->threaded_rows;
  rows.erase(rows.begin(),
             rows.begin() + static_cast<std::ptrdiff_t>(exec->threaded_head));
  exec->threaded_head = 0;
  return &rows;
}

}  // namespace

std::optional<TuplePtr> ResultCursor::Next() {
  internal::QueryExecution* exec = exec_.get();
  if (exec->cancelled) return std::nullopt;
  if (exec->threaded != nullptr) {
    // Threaded executions stream: serve the handle's buffer, and when it is
    // used up, block on the run's channel for the workers' next batch. A
    // blocking Pop that moves nothing means the stream has ended.
    while (exec->threaded_head >= exec->threaded_rows.size()) {
      if (exec->threaded->results().Pop(UnreadBuffer(exec),
                                        /*wait_rows=*/1) == 0) {
        return std::nullopt;
      }
    }
    ++exec->next_result;
    return std::move(exec->threaded_rows[exec->threaded_head++]);
  }
  const Eddy& eddy = *exec->eddy;
  if (exec->next_result >= eddy.num_results() && !exec->finished) {
    // Advance the shared clock just far enough for the push output to grow
    // past the cursor (or for the query to finish).
    exec->engine->PumpUntilResult(exec, exec->next_result);
  }
  if (exec->cancelled) return std::nullopt;
  if (exec->next_result < eddy.num_results()) {
    return eddy.results()[exec->next_result++];
  }
  return std::nullopt;
}

bool ResultCursor::NotifyWhenReady(size_t rows,
                                   std::function<void()> on_ready) {
  internal::QueryExecution* exec = exec_.get();
  if (exec->cancelled || exec->threaded == nullptr) return true;
  const size_t buffered = exec->threaded_rows.size() - exec->threaded_head;
  if (buffered >= rows) return true;
  return exec->threaded->results().PopOrNotify(
      UnreadBuffer(exec), rows - buffered, std::move(on_ready));
}

std::optional<RowView> ResultCursor::NextRow() {
  auto tuple = Next();
  if (!tuple.has_value()) return std::nullopt;
  return RowView(std::move(*tuple), &exec_->query);
}

std::vector<TuplePtr> ResultCursor::Drain() {
  std::vector<TuplePtr> out;
  while (auto t = Next()) {
    out.push_back(std::move(*t));
  }
  return out;
}

std::vector<RowView> ResultCursor::DrainRows() {
  std::vector<RowView> out;
  while (auto row = NextRow()) {
    out.push_back(std::move(*row));
  }
  return out;
}

const Schema& ResultCursor::schema() const {
  return exec_->query.output_schema();
}

size_t RowView::num_columns() const {
  return query_->output_columns().size();
}

const std::string& RowView::name(size_t i) const {
  return query_->output_columns()[i].label;
}

ValueType RowView::type(size_t i) const {
  return query_->output_columns()[i].type;
}

const Value& RowView::value(size_t i) const {
  static const Value kNull;
  const ColumnRef& ref = query_->output_columns()[i].ref;
  const Value* v = tuple_->ValueAt(ref.table_slot, ref.column);
  // Result tuples span every slot, so v is only null for malformed
  // hand-built tuples; degrade to SQL NULL rather than crash.
  return v != nullptr ? *v : kNull;
}

const Value* RowView::Find(const std::string& label) const {
  auto i = query_->FindOutputColumn(label);
  return i.has_value() ? &value(*i) : nullptr;
}

const Value& RowView::Get(const std::string& label) const {
  const Value* v = Find(label);
  if (v == nullptr) {
    internal::DieOnError(Status::NotFound(
        "no output column '" + label + "' in projection of: " +
        query_->ToString()));
  }
  return *v;
}

const Schema& RowView::schema() const { return query_->output_schema(); }

std::string RowView::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < num_columns(); ++i) {
    if (i > 0) out += ", ";
    out += name(i) + "=" + value(i).ToString();
  }
  out += ")";
  return out;
}

// Threaded runs answer from their live counters (final once the channel
// closes), so a spilling query's I/O is visible while it streams.
uint64_t ResultCursor::spill_ios() const {
  if (exec_->threaded != nullptr) return exec_->threaded->spill_ios();
  return exec_->eddy->SpillStats().spill_ios;
}

uint64_t ResultCursor::bytes_spilled() const {
  if (exec_->threaded != nullptr) return exec_->threaded->bytes_spilled();
  return exec_->eddy->SpillStats().bytes_spilled;
}

size_t ResultCursor::partitions_resident() const {
  if (exec_->threaded != nullptr) {
    return exec_->threaded->partitions_resident();
  }
  return exec_->eddy->SpillStats().partitions_resident;
}

void QueryHandle::Wait() {
  if (exec_->cancelled) return;
  if (exec_->threaded != nullptr) {
    // Drain the channel into the handle's buffer until the stream ends:
    // the workers never stall on a caller that holds no cursor.
    while (exec_->threaded->results().Pop(UnreadBuffer(exec_.get()),
                                          ResultChannel::kCapacityRows) > 0) {
    }
    return;
  }
  if (!exec_->finished) exec_->engine->PumpToCompletion(exec_.get());
}

void QueryHandle::Cancel() {
  if (exec_->cancelled) return;
  exec_->cancelled = true;
  if (exec_->threaded != nullptr) {
    // Raise the run's stop flag, abandon its channel, join its workers. On
    // a finished run this only discards what the cursors did not consume.
    exec_->threaded->Stop();
    return;
  }
  if (!exec_->finished) {
    // Still running: stop the dataflow too. (On a finished query, Cancel
    // only discards the buffered results the cursors have not consumed.)
    exec_->completed_at = exec_->engine->sim_.now();
    exec_->eddy->Cancel();
  }
}

QueryStats QueryHandle::Stats() const {
  if (exec_->threaded != nullptr) {
    QueryStats stats;
    stats.executor = "threaded";
    stats.policy = exec_->policy_name;
    stats.cancelled = exec_->cancelled;
    // completed_at stays kSimTimeNever: a threaded run has no virtual clock.
    const std::optional<ExecOutcome> outcome =
        exec_->threaded->results().summary();
    if (!outcome.has_value()) {
      // Still running: the rows seen so far and the live spill counters;
      // the routing counters are worker-private until completion.
      stats.num_results = exec_->next_result + exec_->threaded_rows.size() -
                          exec_->threaded_head;
      stats.spill_ios = exec_->threaded->spill_ios();
      stats.bytes_spilled = exec_->threaded->bytes_spilled();
      return stats;
    }
    stats.num_results = outcome->totals.results;
    stats.tuples_routed = outcome->totals.tuples_routed;
    stats.tuples_retired = outcome->totals.tuples_retired;
    stats.routing_wall_ns = outcome->totals.routing_wall_ns;
    stats.constraint_violations = outcome->violations.size();
    stats.worker_counters = outcome->workers;
    stats.spill_ios = outcome->spill_ios;
    stats.bytes_spilled = outcome->bytes_spilled;
    stats.entries_spilled = outcome->entries_spilled;
    stats.partitions_resident = outcome->partitions_resident;
    stats.partitions_spilled = outcome->partitions_spilled;
    return stats;
  }
  const Eddy& eddy = *exec_->eddy;
  QueryStats stats;
  stats.executor = "sim";
  stats.num_results = eddy.num_results();
  stats.tuples_routed = eddy.tuples_routed();
  stats.tuples_retired = eddy.tuples_retired();
  stats.routing_wall_ns = eddy.routing_wall_ns();
  stats.constraint_violations = eddy.violations().size();
  stats.parked = eddy.parked_count();
  stats.completed_at = exec_->completed_at;
  stats.policy = exec_->policy_name;
  stats.cancelled = exec_->cancelled;
  for (const auto& module : eddy.modules()) {
    if (module->kind() != ModuleKind::kStem) continue;
    const auto* stem = static_cast<const Stem*>(module.get());
    stats.builds_avoided += stem->builds_avoided();
    if (stem->attached_shared()) ++stats.stems_shared;
  }
  const Eddy::SpillSummary spill = eddy.SpillStats();
  stats.spill_ios = spill.spill_ios;
  stats.bytes_spilled = spill.bytes_spilled;
  stats.entries_spilled = spill.entries_spilled;
  stats.partitions_resident = spill.partitions_resident;
  stats.partitions_spilled = spill.partitions_spilled;
  return stats;
}

obs::QueryProfile QueryHandle::Profile() const {
  obs::QueryProfile p;
  const QueryStats stats = Stats();
  p.executor = stats.executor;
  p.policy = stats.policy;
  p.num_results = stats.num_results;
  p.tuples_routed = stats.tuples_routed;
  p.tuples_retired = stats.tuples_retired;
  p.routing_wall_ns = stats.routing_wall_ns;
  p.wall_us = exec_->wall_us;
  p.spill_ios = stats.spill_ios;
  p.bytes_spilled = stats.bytes_spilled;
  if (stats.completed_at != kSimTimeNever) {
    p.virtual_time_us = static_cast<uint64_t>(stats.completed_at);
  }

  if (exec_->threaded != nullptr) {
    // No module graph: one row per worker, on the wall clock (the busy
    // column carries wall microseconds inside morsel processing). Empty
    // until the run completes.
    const std::optional<ExecOutcome> outcome =
        exec_->threaded->results().summary();
    if (!outcome.has_value()) return p;
    p.wall_us = outcome->wall_us;
    for (size_t w = 0; w < outcome->workers.size(); ++w) {
      const WorkerCounters& c = outcome->workers[w];
      obs::ModuleProfileRow row;
      row.name = "worker" + std::to_string(w);
      row.kind = "worker";
      row.tuples_in = c.tuples_routed;
      row.tuples_out = c.results;
      row.builds = c.builds;
      row.probes = c.probes;
      row.matches = c.matches;
      row.busy_vus = c.routing_wall_ns / 1000;
      if (c.tuples_routed > 0) {
        row.observed_selectivity = static_cast<double>(c.results) /
                                   static_cast<double>(c.tuples_routed);
      }
      p.modules.push_back(std::move(row));
    }
    return p;
  }

  for (const auto& module : exec_->eddy->modules()) {
    obs::ModuleProfileRow row;
    row.name = module->name();
    row.kind = ModuleKindName(module->kind());
    const ModuleStats& ms = module->stats();
    row.tuples_in = ms.tuples_in;
    row.tuples_out = ms.tuples_out;
    row.busy_vus = static_cast<uint64_t>(ms.busy_time);
    row.queue_wait_vus = static_cast<uint64_t>(ms.queue_wait_time);
    row.max_queue_len = ms.max_queue_len;
    if (ms.tuples_in > 0) {
      row.observed_selectivity = static_cast<double>(ms.tuples_out) /
                                 static_cast<double>(ms.tuples_in);
    }
    // The prior a conventional optimizer would have started from; the gap
    // to the observed column is the mis-estimation adaptive routing absorbs.
    row.assumed_selectivity =
        module->kind() == ModuleKind::kSelection ? 0.5 : 1.0;
    if (module->kind() == ModuleKind::kStem) {
      const auto* stem = static_cast<const Stem*>(module.get());
      row.builds = stem->builds();
      row.probes = stem->probes_processed();
      row.matches = stem->matches_emitted();
      row.spill_ios = stem->spill_ios();
      row.bytes_spilled = stem->bytes_spilled();
    }
    p.modules.push_back(std::move(row));
  }
  return p;
}

std::string QueryHandle::DumpTrace() const {
  if (exec_->tracer == nullptr) {
    // Well-formed empty trace, so consumers need no special casing.
    return "{\"traceEvents\":[],\"otherData\":{\"events_seen\":0,"
           "\"events_recorded\":0,\"every_n\":0}}";
  }
  return exec_->tracer->ToJson();
}

const MetricsRecorder& QueryHandle::metrics() const {
  if (exec_->threaded != nullptr) {
    // No module graph, no per-module time series; per-worker counters live
    // in Stats().worker_counters instead.
    static const MetricsRecorder kEmpty;
    return kEmpty;
  }
  return exec_->eddy->ctx()->metrics;
}

}  // namespace stems
