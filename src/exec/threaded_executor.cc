#include "exec/threaded_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "eddy/policies/policy_base.h"
#include "eddy/tuple_batch.h"
#include "engine/policy_registry.h"
#include "engine/run_options.h"
#include "exec/limit_gate.h"
#include "exec/sharded_stem.h"
#include "obs/trace.h"
#include "query/join_graph.h"
#include "query/query_spec.h"
#include "stem/probe_bindings.h"
#include "storage/table_store.h"

namespace stems {

namespace {

/// Shards per SteM. Plenty for 64 workers' worth of lock spreading while
/// keeping per-shard hash maps dense; also the spill granularity (one
/// partition per shard).
constexpr size_t kShardsPerStem = 64;

/// A contiguous row range of one table slot — what a worker claims, and
/// materializes into the TupleBatch morsel.
struct SourceChunk {
  int slot;
  size_t begin;
  size_t end;
};

/// A worker's own probe history: the statistics its policy instance reads.
/// Only probes and matches exist here; the sim-only terms stay zero.
struct WorkerProbeStats final : ProbeStatsView {
  std::vector<SlotProbeStats> slots;
  SlotProbeStats ForSlot(int slot) const override {
    return slots[static_cast<size_t>(slot)];
  }
};

/// One instance of the registered policy `options` names, for the worker
/// whose lottery stream `seed` selects. Workers call its ChooseProbeSlot
/// directly, so the policy must be built on PolicyBase; one that answers
/// only Route() needs an eddy and is rejected rather than approximated.
Result<std::unique_ptr<PolicyBase>> CreateWorkerPolicy(
    const RunOptions& options, uint64_t seed) {
  PolicyParams params = options.policy_params;
  params.seed = seed;
  STEMS_ASSIGN_OR_RETURN(std::unique_ptr<RoutingPolicy> policy,
                         PolicyRegistry::Global().Create(options.policy,
                                                         params));
  if (dynamic_cast<PolicyBase*>(policy.get()) == nullptr) {
    return Status::Unsupported(
        "threaded executor: routing policy '" + options.policy +
        "' is not built on PolicyBase, so workers cannot call its "
        "ChooseProbeSlot; it runs on the sim executor only");
  }
  return std::unique_ptr<PolicyBase>(
      static_cast<PolicyBase*>(policy.release()));
}

}  // namespace

struct ThreadedRun::Worker {
  obs::QueryCounters counters;
  /// Results admitted during the current morsel, flushed to the channel at
  /// its end.
  std::vector<TuplePtr> results;
  std::unique_ptr<PolicyBase> policy;
  WorkerProbeStats probe_stats;
  std::vector<TuplePtr> cascade_stack;
  std::vector<int> candidates_scratch;
  ProbeMatcher matcher;
  ShardedStem::ProbeScratch probe_scratch;
};

/// Everything one run needs, set up by Start before the run is published
/// to the dispatcher and read-only afterwards (apart from the documented
/// sync fields and each worker's own slot).
struct ThreadedRun::State {
  explicit State(size_t num_workers) : channel(num_workers) {}

  const QuerySpec* query = nullptr;
  std::unique_ptr<JoinGraph> graph;

  std::vector<const StoredTable*> tables;  ///< per slot
  std::vector<std::unique_ptr<ShardedStem>> stems;
  /// sync: the query-global timestamp authority; every fetch_add happens
  /// inside a shard critical section (ShardedStem::Build), which supplies
  /// the §3.1 ordering. stems::Atomic: a model-checking yield point.
  Atomic<BuildTs> ts_counter{1};
  ShardedSpillState spill;

  std::vector<SourceChunk> chunks;
  /// sync: the morsel-dispatch cursor; fetch_add is the whole claim
  /// protocol (chunks itself is immutable once workers start).
  /// stems::Atomic: a model-checking yield point.
  Atomic<size_t> next_chunk{0};

  uint64_t full_mask = 0;
  uint64_t all_preds_mask = 0;
  std::vector<std::vector<const Predicate*>> selections;  ///< per slot

  /// The LIMIT admission race + drain flags (exec/limit_gate.h) — the
  /// protocol object the schedule-exploration harness drives directly.
  /// Stop requests (cancel, dropped handle, executor teardown) raise the
  /// same drain flag.
  LimitGate gate;

  /// The result stream: workers flush into it, the consumer reads it, and
  /// the last worker closes it with the run summary.
  ResultChannel channel;

  /// Metric and trace sinks (nullable). Morsel spans are stamped with wall
  /// time relative to `run_start` (Start's clock reading), so the run's
  /// timeline starts at ts=0 in the exported Chrome trace; the summary's
  /// wall_us runs from it too.
  ExecObs obs;
  std::chrono::steady_clock::time_point run_start;

  /// Workers own their slot exclusively while running; padded so adjacent
  /// workers' accumulators never share a cache line.
  struct alignas(64) PaddedWorker {
    Worker ws;
  };
  std::vector<PaddedWorker> workers;

  Mutex violations_mu;
  std::vector<std::string> violations STEMS_GUARDED_BY(violations_mu);
};

ThreadedRun::ThreadedRun(std::unique_ptr<State> state)
    : state_(std::move(state)) {}

ThreadedRun::~ThreadedRun() = default;

ResultChannel& ThreadedRun::results() { return state_->channel; }

SpillSummary ThreadedRun::SpillStats() const {
  return state_->spill.Summarize(state_->stems);
}

obs::QueryCounters ThreadedRun::LiveSpillIo() const {
  obs::QueryCounters live;
  live.spill_ios = state_->spill.spill_ios.load(std::memory_order_relaxed);
  live.bytes_spilled =
      state_->spill.bytes_spilled.load(std::memory_order_relaxed);
  return live;
}

bool ThreadedRun::TryBegin() {
  MutexLock lock(&mu_);
  if (stop_requested_) return false;
  phase_ = Phase::kRunning;
  return true;
}

void ThreadedRun::MarkJoined() {
  {
    MutexLock lock(&mu_);
    phase_ = Phase::kJoined;
  }
  joined_cv_.NotifyAll();
}

bool ThreadedRun::RequestStop() {
  bool running = false;
  {
    MutexLock lock(&mu_);
    stop_requested_ = true;
    running = phase_ == Phase::kRunning;
  }
  state_->gate.RequestStop();
  state_->channel.Abandon();
  return running;
}

void ThreadedRun::Stop() {
  if (RequestStop()) Join();
}

void ThreadedRun::Join() {
  MutexLock lock(&mu_);
  while (phase_ != Phase::kJoined) joined_cv_.Wait(mu_);
}

bool ThreadedRun::live() {
  {
    MutexLock lock(&mu_);
    if (stop_requested_) return false;
  }
  return !state_->channel.closed();
}

size_t ThreadPoolExecutor::EffectiveThreads(size_t requested,
                                            size_t fallback) {
  size_t n = requested != 0 ? requested : fallback;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    n = std::clamp<size_t>(n, 1, 8);
  }
  return std::clamp<size_t>(n, 1, 64);
}

Status ThreadPoolExecutor::ValidateSupported(const QuerySpec& query,
                                             const RunOptions& options) {
  // Options outside the envelope. Each of these exists to model behaviour
  // the wall-clock dataflow deliberately does not reproduce; see
  // docs/parallelism.md for the rationale per item.
  if (options.share_stems) {
    return Status::Unsupported(
        "threaded executor: cross-query SteM sharing (share_stems) is "
        "sim-only");
  }
  const size_t budget = options.memory_budget_entries != 0
                            ? options.memory_budget_entries
                            : options.exec.eddy.memory.global_entry_budget;
  if (budget > 0 && !options.spill && !options.exec.eddy.spill.enabled) {
    return Status::Unsupported(
        "threaded executor: an evicting (window-semantics) memory budget is "
        "sim-only; set spill=true for the exact larger-than-memory mode");
  }
  if (options.exec.eddy.relax_build_first ||
      !options.exec.eddy.no_build_tables.empty()) {
    return Status::Unsupported(
        "threaded executor: relaxed BuildFirst (§3.5) is sim-only");
  }
  if (!options.exec.eddy.always_build) {
    return Status::Unsupported(
        "threaded executor: always_build=false routing is sim-only");
  }
  for (const auto& slot : query.slots()) {
    if (options.exec.StemOptionsFor(slot.table_name).max_entries > 0) {
      return Status::Unsupported(
          "threaded executor: windowed SteMs (StemOptions::max_entries, on "
          "table '" + slot.table_name + "') are sim-only");
    }
  }
  if (options.exec.eddy.result_priority_classifier != nullptr) {
    return Status::Unsupported(
        "threaded executor: result-priority metrics (§4.1) are sim-only");
  }
  STEMS_RETURN_NOT_OK(
      CreateWorkerPolicy(options, options.policy_params.seed).status());
  // Query shapes outside the envelope.
  if (query.num_slots() == 0 || query.num_slots() > 64) {
    return Status::Unsupported("threaded executor: 1..64 table slots");
  }
  if (query.num_predicates() > 64) {
    return Status::Unsupported("threaded executor: at most 64 predicates");
  }
  std::set<std::string> seen_tables;
  for (const auto& slot : query.slots()) {
    if (!seen_tables.insert(slot.table_name).second) {
      return Status::Unsupported(
          "threaded executor: self-joins (table '" + slot.table_name +
          "' in several FROM slots) are sim-only");
    }
    if (slot.def == nullptr || !slot.def->HasScanAm()) {
      return Status::Unsupported(
          "threaded executor: table '" + slot.table_name +
          "' has no scan access method; index-only tables (probe "
          "bouncing, EOT coverage) are sim-only");
    }
  }
  return Status::OK();
}

void ThreadPoolExecutor::AdmitResult(RunState* state, WorkerState* ws,
                                     TuplePtr tuple) {
  // Constraint audit (the threaded analogue of the sim's checker verdicts):
  // a result must span everything, be fully built, and have passed every
  // predicate. Violations are collected, never dropped — the equivalence
  // gate compares them against the sim run's audit.
  if (tuple->spanned_mask() != state->full_mask ||
      !tuple->AllComponentsBuilt() ||
      (tuple->preds_passed() & state->all_preds_mask) !=
          state->all_preds_mask) {
    MutexLock lock(&state->violations_mu);
    state->violations.push_back("invalid result admitted: " +
                                tuple->ToString());
  }
  if (state->gate.TryAdmit().admitted) {
    ws->results.push_back(std::move(tuple));
    ++ws->counters.num_results;
  } else {
    ++ws->counters.tuples_retired;
  }
}

void ThreadPoolExecutor::Cascade(RunState* state, WorkerState* ws,
                                 TuplePtr tuple) {
  const QuerySpec& query = *state->query;
  auto& stack = ws->cascade_stack;
  stack.push_back(std::move(tuple));
  while (!stack.empty()) {
    TuplePtr t = std::move(stack.back());
    stack.pop_back();
    if (state->gate.stop_requested()) {
      ++ws->counters.tuples_retired;
      continue;
    }
    if (t->spanned_mask() == state->full_mask) {
      AdmitResult(state, ws, std::move(t));
      continue;
    }
    // The worker's policy instance picks the probe from the join-graph
    // candidates: the rule and the policy code the sim eddy routes by.
    auto& candidates = ws->candidates_scratch;
    state->graph->ProbeCandidates(t->spanned_mask(), state->full_mask,
                                  &candidates);
    ++ws->counters.tuples_routed;
    const int target =
        ws->policy->ChooseProbeSlot(*t, candidates, ws->probe_stats);
    ShardedStem& stem = *state->stems[static_cast<size_t>(target)];

    // The predicates this probe decides are listed once and applied to the
    // matches outside the shard locks, as Stem::ProcessProbe does.
    ws->matcher.Reset(query, *t, target);
    uint64_t matches = 0;
    for (const auto& [row, entry_ts] : stem.Probe(*t, &ws->probe_scratch)) {
      TuplePtr nt = ws->matcher.Match(row, entry_ts);
      if (nt == nullptr) continue;
      ++matches;
      if (nt->spanned_mask() == state->full_mask) {
        AdmitResult(state, ws, std::move(nt));
      } else {
        stack.push_back(std::move(nt));
      }
    }
    ++ws->counters.probes;
    ws->counters.matches += matches;
    SlotProbeStats& history =
        ws->probe_stats.slots[static_cast<size_t>(target)];
    ++history.probes;
    history.matches += matches;
    // One probe per tuple, then out of the dataflow: the cascade continues
    // through the concatenations (see the exactly-once note in the header).
    ++ws->counters.tuples_retired;
  }
}

void ThreadPoolExecutor::ProcessSource(RunState* state, WorkerState* ws,
                                       const TuplePtr& tuple) {
  const int slot = tuple->SingletonSlot();
  ++ws->counters.tuples_routed;
  for (const Predicate* pred : state->selections[static_cast<size_t>(slot)]) {
    if (!pred->Evaluate(*tuple)) {
      ++ws->counters.tuples_retired;
      return;
    }
    tuple->MarkPredicatePassed(pred->id());
  }
  auto built =
      state->stems[static_cast<size_t>(slot)]->Build(tuple->component(slot).row);
  if (!built.inserted) {
    // Content duplicate: absorbed by set semantics (§3.2), like the sim.
    ++ws->counters.duplicates;
    ++ws->counters.tuples_retired;
    return;
  }
  ++ws->counters.builds;
  tuple->SetBuilt(slot, built.ts);
  Cascade(state, ws, tuple);
}

void ThreadPoolExecutor::WorkerMain(RunState* state, int worker_id) {
  WorkerState& ws = state->workers[static_cast<size_t>(worker_id)].ws;
  const int num_slots = static_cast<int>(state->query->num_slots());
  obs::Tracer* tracer = state->obs.tracer;
  TupleBatch morsel;
  for (;;) {
    const size_t c = state->next_chunk.fetch_add(1);
    if (c >= state->chunks.size()) break;
    if (state->gate.stop_requested()) continue;  // fast drain
    const SourceChunk& chunk = state->chunks[c];
    const auto start = std::chrono::steady_clock::now();
    ++ws.counters.morsels;
    // Materialize the claimed row range as the TupleBatch morsel, then run
    // each singleton's full lifecycle inline (build + cascade).
    morsel.clear();
    const auto& rows = state->tables[static_cast<size_t>(chunk.slot)]->rows();
    for (size_t i = chunk.begin; i < chunk.end; ++i) {
      if (rows[i]->IsEot()) continue;  // EOT markers are sim-protocol, not data
      morsel.tuples.push_back(
          Tuple::MakeSingleton(num_slots, chunk.slot, rows[i]));
    }
    for (TuplePtr& t : morsel.tuples) {
      if (state->gate.stop_requested()) {
        ++ws.counters.tuples_retired;
        continue;
      }
      ProcessSource(state, &ws, t);
    }
    const auto end = std::chrono::steady_clock::now();
    ws.counters.routing_wall_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
    // The morsel's results go out now, outside every shard lock: a full
    // channel stalls this worker, never a SteM.
    ws.counters.result_backpressure_ns += state->channel.Push(&ws.results);
    // Morsel boundary = preemption point. The query's consumer (a cursor,
    // or the server's engine and network threads and its client) shares
    // these cores; yielding here lets it run now rather than after a full
    // scheduler slice. With nothing else runnable this returns at once.
    std::this_thread::yield();
    if (tracer != nullptr && tracer->SampleMorsel()) {
      char args[96];
      std::snprintf(args, sizeof(args),
                    "\"slot\":%d,\"rows\":%zu,\"chunk\":%zu", chunk.slot,
                    morsel.tuples.size(), c);
      obs::TraceEvent ev;
      ev.name = "morsel";
      ev.cat = "morsel";
      ev.ph = 'X';
      ev.ts_us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              start - state->run_start)
              .count());
      ev.dur_us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(end - start)
              .count());
      ev.tid = static_cast<uint32_t>(worker_id);
      ev.args_json = args;
      tracer->Record(std::move(ev));
    }
  }
  if (state->channel.FinishProducer(&ws.results,
                                    &ws.counters.result_backpressure_ns)) {
    Finalize(state);
  }
}

void ThreadPoolExecutor::Finalize(RunState* state) {
  ExecOutcome out;
  out.workers.reserve(state->workers.size());
  for (const auto& padded : state->workers) {
    out.totals += padded.ws.counters;
    out.workers.push_back(padded.ws.counters);
  }
  {
    MutexLock lock(&state->violations_mu);
    out.violations = std::move(state->violations);
  }
  out.limit_reached = state->gate.limit_reached();
  out.spill = state->spill.Summarize(state->stems);
  out.totals.spill_ios = state->spill.spill_ios.load();
  out.totals.bytes_spilled = state->spill.bytes_spilled.load();
  out.totals.shard_lock_waits = state->spill.lock_waits.load();
  out.totals.shard_lock_wait_ns = state->spill.lock_wait_ns.load();
  out.wall_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - state->run_start)
          .count());

  // Publish the run's totals once, at completion — workers never touch
  // shared metric state on the hot path. A stopped run (cancel, dropped
  // handle) publishes its work but is not a completion, as on the sim.
  if (obs::MetricsRegistry* registry = state->obs.registry) {
    const bool stopped =
        state->gate.stop_requested() && !state->gate.limit_reached();
    obs::PublishQueryCounters(*registry, out.totals, !stopped, out.wall_us);
  }
  state->channel.Close(std::move(out));
}

void ThreadPoolExecutor::RunWorkers(RunState* state) {
  const size_t num_threads = state->workers.size();
  std::vector<std::thread> threads;
  threads.reserve(num_threads - 1);
  for (size_t w = 1; w < num_threads; ++w) {
    threads.emplace_back(WorkerMain, state, static_cast<int>(w));
  }
  WorkerMain(state, 0);
  for (auto& t : threads) t.join();
}

void ThreadPoolExecutor::DispatcherMain() {
  for (;;) {
    std::shared_ptr<ThreadedRun> run;
    {
      MutexLock lock(&mu_);
      while (pending_.empty() && !shutdown_) work_cv_.Wait(mu_);
      if (pending_.empty()) return;  // shutdown, nothing left to settle
      run = std::move(pending_.front());
      pending_.pop_front();
      active_ = run;
    }
    if (run->TryBegin()) {
      RunWorkers(run->state_.get());
    } else {
      // Stopped while queued: no worker ever starts; the stream just ends.
      run->state_->channel.Close(ExecOutcome{});
    }
    run->MarkJoined();
    MutexLock lock(&mu_);
    active_.reset();
  }
}

Result<std::shared_ptr<ThreadedRun>> ThreadPoolExecutor::Start(
    const QuerySpec& query, const RunOptions& options, const TableStore& store,
    const ExecObs& obs) {
  STEMS_RETURN_NOT_OK(ValidateSupported(query, options));
  const size_t num_threads =
      EffectiveThreads(options.num_threads, default_threads_);

  auto state = std::make_unique<RunState>(num_threads);
  RunState& st = *state;
  st.obs = obs;
  // wall-clock: the run's submit instant (trace origin, summary wall_us).
  st.run_start = std::chrono::steady_clock::now();
  st.query = &query;
  st.graph = std::make_unique<JoinGraph>(query);
  st.full_mask = query.full_span_mask();
  if (query.limit().has_value()) st.gate.SetLimit(*query.limit());

  const size_t num_slots = query.num_slots();
  st.tables.resize(num_slots);
  st.selections.resize(num_slots);
  for (size_t s = 0; s < num_slots; ++s) {
    STEMS_ASSIGN_OR_RETURN(st.tables[s],
                           store.GetTable(query.slots()[s].table_name));
    st.selections[s] = query.SelectionsOn(static_cast<int>(s));
  }
  for (const auto& pred : query.predicates()) {
    st.all_preds_mask |= 1ULL << pred.id();
  }

  if (options.spill || options.exec.eddy.spill.enabled) {
    st.spill.EnableSpill(options.memory_budget_entries != 0
                             ? options.memory_budget_entries
                             : options.exec.eddy.memory.global_entry_budget,
                         options.exec.eddy.spill, obs.registry);
  }
  st.stems.reserve(num_slots);
  for (size_t s = 0; s < num_slots; ++s) {
    st.stems.push_back(std::make_unique<ShardedStem>(
        static_cast<int>(s), query, kShardsPerStem, &st.ts_counter, &st.spill,
        options.exec.StemOptionsFor(query.slots()[s].table_name)));
  }

  // Morsel size: RunOptions::batch_size, the same knob that sizes the sim's
  // routing batches. LIMIT 0 short-circuits like the sim's unseeded scans.
  const size_t morsel_rows = std::max<size_t>(1, options.batch_size);
  if (st.gate.limit() > 0) {
    for (size_t s = 0; s < num_slots; ++s) {
      const size_t n = st.tables[s]->num_rows();
      for (size_t begin = 0; begin < n; begin += morsel_rows) {
        st.chunks.push_back(SourceChunk{static_cast<int>(s), begin,
                                        std::min(begin + morsel_rows, n)});
      }
    }
  }

  st.workers = std::vector<RunState::PaddedWorker>(num_threads);
  for (size_t w = 0; w < num_threads; ++w) {
    // The seed is mixed per worker so stochastic policies' streams stay
    // decorrelated across workers.
    WorkerState& ws = st.workers[w].ws;
    const uint64_t seed =
        options.policy_params.seed * 0x9e3779b97f4a7c15ULL + w;
    STEMS_ASSIGN_OR_RETURN(ws.policy, CreateWorkerPolicy(options, seed));
    ws.probe_stats.slots.resize(num_slots);
  }

  std::shared_ptr<ThreadedRun> run(new ThreadedRun(std::move(state)));
  if (st.chunks.empty()) {
    // Nothing to scan (LIMIT 0, empty tables): the run is born finished,
    // with no thread started.
    Finalize(&st);
    run->MarkJoined();
    return run;
  }
  {
    MutexLock lock(&mu_);
    if (!dispatcher_.joinable()) {
      dispatcher_ = std::thread([this] { DispatcherMain(); });
    }
    pending_.push_back(run);
  }
  work_cv_.NotifyAll();
  return run;
}

Status ThreadPoolExecutor::Execute(const QuerySpec& query,
                                   const RunOptions& options,
                                   const TableStore& store, ExecOutcome* out,
                                   const ExecObs& obs) {
  STEMS_ASSIGN_OR_RETURN(std::shared_ptr<ThreadedRun> run,
                         Start(query, options, store, obs));
  std::vector<TuplePtr> rows;
  while (run->results().Pop(&rows, ResultChannel::kCapacityRows) > 0) {
  }
  run->Join();
  *out = *run->results().summary();
  out->results = std::move(rows);
  return Status::OK();
}

size_t ThreadPoolExecutor::live_runs() const {
  std::vector<std::shared_ptr<ThreadedRun>> runs;
  {
    MutexLock lock(&mu_);
    runs.assign(pending_.begin(), pending_.end());
    if (active_ != nullptr) runs.push_back(active_);
  }
  size_t n = 0;
  for (const auto& run : runs) n += run->live() ? 1 : 0;
  return n;
}

ThreadPoolExecutor::~ThreadPoolExecutor() {
  std::vector<std::shared_ptr<ThreadedRun>> runs;
  std::thread dispatcher;
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
    runs.assign(pending_.begin(), pending_.end());
    if (active_ != nullptr) runs.push_back(active_);
    dispatcher = std::move(dispatcher_);
  }
  // Queued runs end unstarted; the running one drains (stop flag) and no
  // worker stays stalled on its abandoned channel.
  for (const auto& run : runs) run->RequestStop();
  work_cv_.NotifyAll();
  if (dispatcher.joinable()) dispatcher.join();
}

}  // namespace stems
