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
// routing policies, their probe statistics and results are worker-private
// (merged on read);
// LIMIT/cancel is one atomic admission counter plus a stop flag. Workers
// are spawned per Execute and joined before it returns — no state outlives
// the call.
#pragma once

#include <cstddef>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "exec/executor.h"

namespace stems {

class QuerySpec;
class TableStore;
struct RunOptions;

class ThreadPoolExecutor {
 public:
  /// `default_threads` applies when RunOptions::num_threads is 0;
  /// 0 = hardware concurrency (clamped to [1, 8]).
  explicit ThreadPoolExecutor(size_t default_threads = 0)
      : default_threads_(default_threads) {}

  /// Runs `query` over `store` to completion under `options`, filling
  /// `*out`. Returns non-OK (and leaves `*out` unspecified) when the
  /// query/options combination is outside the threaded envelope. `obs`
  /// carries the optional metric/trace sinks the run publishes into.
  Status Execute(const QuerySpec& query, const RunOptions& options,
                 const TableStore& store, ExecOutcome* out,
                 const ExecObs& obs = {});

  /// Whether the query/options combination is inside the threaded
  /// envelope. Non-OK names the first sim-only feature requested
  /// (docs/parallelism.md, "What stays sim-only"), or a routing policy
  /// the workers cannot drive (one not built on PolicyBase).
  static Status ValidateSupported(const QuerySpec& query,
                                  const RunOptions& options);

  /// Worker count for a request (0 = default), clamped to [1, 64].
  static size_t EffectiveThreads(size_t requested, size_t fallback = 0);

 private:
  struct RunState;
  struct WorkerState;

  static void WorkerMain(RunState* state, int worker_id);
  static void ProcessSource(RunState* state, WorkerState* ws,
                            const TuplePtr& tuple);
  static void Cascade(RunState* state, WorkerState* ws, TuplePtr tuple);
  static void AdmitResult(RunState* state, WorkerState* ws, TuplePtr tuple);

  /// One query runs at a time per executor; concurrent Submits queue here
  /// rather than oversubscribing the machine.
  Mutex run_mu_;
  size_t default_threads_;
};

}  // namespace stems
