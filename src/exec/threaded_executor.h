// ThreadPoolExecutor: morsel-driven wall-clock execution (docs/parallelism.md).
//
// The dataflow is the paper's, re-scheduled for real cores. A TupleBatch is
// the morsel: workers claim fixed-size row ranges of the base tables from a
// shared chunk list (a single atomic cursor — the HyPer-style morsel
// dispatch), materialize each range as a batch of singletons, and run every
// tuple's whole lifecycle inline:
//
//   selections -> build into the slot's ShardedStem (set-semantics dedup)
//     -> cascade: probe one unspanned join-connected SteM, chosen by the
//        worker's own instance of the registered RoutingPolicy, concatenate
//        the timestamp-visible matches, repeat until full span -> admit.
//
// Because every table streams through a scan (the supported envelope), each
// result is produced exactly once: along the cascade rooted at its
// newest-timestamped component, by the §3.1 argument the ShardedStem header
// spells out. No bounces, no parking, no EOTs — those exist to cope with
// index-AM incompleteness and relaxed BuildFirst, which stay sim-only.
//
// Concurrency rules: SteM state is only touched under its shard mutex;
// routing policies, their probe statistics and per-morsel results are
// worker-private; LIMIT/cancel is one atomic admission counter plus a stop
// flag (LimitGate).
//
// Lifecycle: Start validates and queues a run, then returns. A dispatcher
// thread owned by the executor takes runs in submit order, one at a time,
// and runs each on its own worker threads. Workers flush their results
// into the run's bounded ResultChannel at the end of every morsel; the
// worker that finishes last publishes the run's summary and closes the
// channel. The consumer reads the channel while the workers run. A
// consumer that stops reading stalls its run once the channel is full —
// and with it the runs queued behind it — until it reads on or stops the
// run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "exec/executor.h"
#include "exec/result_channel.h"

namespace stems {

class QuerySpec;
class TableStore;
struct RunOptions;

/// One threaded query from Start to its last row, shared by the executor
/// (while queued or running) and the consumer.
class ThreadedRun {
 public:
  ~ThreadedRun();
  ThreadedRun(const ThreadedRun&) = delete;
  ThreadedRun& operator=(const ThreadedRun&) = delete;

  /// The result stream; closed() once the run finished or was stopped.
  ResultChannel& results();

  /// Stops the run — the LimitGate stop flag drains the workers, and the
  /// channel is abandoned so none stays stalled — then joins its workers.
  /// On a run whose stream already ended it only drops the unread rows
  /// and joins; a run still queued never starts. Idempotent; never call it
  /// from a worker (e.g. inside a PopOrNotify callback).
  void Stop();

  /// Spill state of the run's SteMs: live while the workers run, final
  /// once results().closed().
  SpillSummary SpillStats() const;
  /// The spill I/O so far (spill_ios, bytes_spilled; every other counter
  /// zero): the only counters readable while the workers run.
  obs::QueryCounters LiveSpillIo() const;

 private:
  friend class ThreadPoolExecutor;
  struct State;
  struct Worker;
  enum class Phase { kQueued, kRunning, kJoined };

  explicit ThreadedRun(std::unique_ptr<State> state);
  /// The dispatcher's claim: kQueued -> kRunning, unless a stop came first
  /// (then false, and the run never spawns a worker).
  bool TryBegin();
  void MarkJoined();
  /// Raises the stop flag and abandons the channel; true when the run's
  /// workers are running (so Stop must wait for them).
  bool RequestStop();
  /// Waits until the run's workers exited.
  void Join();
  /// Neither stopped nor finished.
  bool live();

  std::unique_ptr<State> state_;
  Mutex mu_;
  CondVar joined_cv_;
  Phase phase_ STEMS_GUARDED_BY(mu_) = Phase::kQueued;
  bool stop_requested_ STEMS_GUARDED_BY(mu_) = false;
};

class ThreadPoolExecutor {
 public:
  /// `default_threads` applies when RunOptions::num_threads is 0;
  /// 0 = hardware concurrency (clamped to [1, 8]).
  explicit ThreadPoolExecutor(size_t default_threads = 0)
      : default_threads_(default_threads) {}
  /// Stops every queued and running run and joins the dispatcher.
  ~ThreadPoolExecutor();
  ThreadPoolExecutor(const ThreadPoolExecutor&) = delete;
  ThreadPoolExecutor& operator=(const ThreadPoolExecutor&) = delete;

  /// Validates `query` under `options`, sets the run up and queues it;
  /// returns without waiting for any worker. Non-OK when the combination
  /// is outside the threaded envelope. `query`, `store` and the `obs`
  /// sinks must stay alive until the run is joined (ThreadedRun::Stop, or
  /// this executor's destruction).
  Result<std::shared_ptr<ThreadedRun>> Start(const QuerySpec& query,
                                             const RunOptions& options,
                                             const TableStore& store,
                                             const ExecObs& obs = {});

  /// Synchronous form: Start, drain every result into `out->results`,
  /// join. On a non-OK return `*out` is unspecified.
  Status Execute(const QuerySpec& query, const RunOptions& options,
                 const TableStore& store, ExecOutcome* out,
                 const ExecObs& obs = {});

  /// Runs queued or running that were neither stopped nor finished.
  size_t live_runs() const;

  /// Whether the query/options combination is inside the threaded
  /// envelope. Non-OK names the first sim-only feature requested
  /// (docs/parallelism.md, "What stays sim-only"), or a routing policy
  /// the workers cannot drive (one not built on PolicyBase).
  static Status ValidateSupported(const QuerySpec& query,
                                  const RunOptions& options);

  /// Worker count for a request (0 = default), clamped to [1, 64].
  static size_t EffectiveThreads(size_t requested, size_t fallback = 0);

 private:
  using RunState = ThreadedRun::State;
  using WorkerState = ThreadedRun::Worker;

  void DispatcherMain();
  /// Spawns the run's workers (worker 0 on the calling thread), joins them.
  static void RunWorkers(RunState* state);
  static void WorkerMain(RunState* state, int worker_id);
  /// The last worker's epilogue: merges the workers' counters into the
  /// run summary, publishes it to the registry and closes the channel.
  static void Finalize(RunState* state);
  static void ProcessSource(RunState* state, WorkerState* ws,
                            const TuplePtr& tuple);
  static void Cascade(RunState* state, WorkerState* ws, TuplePtr tuple);
  static void AdmitResult(RunState* state, WorkerState* ws, TuplePtr tuple);

  size_t default_threads_;
  mutable Mutex mu_;
  CondVar work_cv_;
  /// Runs waiting for the dispatcher, in submit order.
  std::deque<std::shared_ptr<ThreadedRun>> pending_ STEMS_GUARDED_BY(mu_);
  /// The run whose workers are up (null between runs).
  std::shared_ptr<ThreadedRun> active_ STEMS_GUARDED_BY(mu_);
  bool shutdown_ STEMS_GUARDED_BY(mu_) = false;
  /// Started by the first Start, joined by the destructor.
  std::thread dispatcher_ STEMS_GUARDED_BY(mu_);
};

}  // namespace stems
