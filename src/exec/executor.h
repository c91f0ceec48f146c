// Execution substrates: how a submitted query's dataflow is driven
// (docs/parallelism.md).
//
// The engine has exactly two ways to run the eddies-and-SteMs dataflow:
//
//   kSim      — the deterministic discrete-event simulator (src/sim/): every
//               module is an actor on one virtual clock, executions are
//               bit-for-bit reproducible, and virtual time prices remote
//               latencies and disk I/O. This is the default and the
//               reference semantics for all equivalence/property tests.
//               Engine::Submit plans it onto the engine's shared clock.
//   kThreaded — the wall-clock morsel-driven thread pool
//               (threaded_executor.h): TupleBatch is the morsel, SteM state
//               is hash-sharded across workers, and each worker runs its own
//               instance of the registered routing policy on its own probe
//               statistics. Same result set, real cores.
//
// Both take the same RunOptions through Engine::Submit; this header holds
// the vocabulary the threaded run reports back in (ExecOutcome).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/query_counters.h"
#include "runtime/tuple.h"
#include "spill/spill_summary.h"

namespace stems {

namespace obs {
class Tracer;
}  // namespace obs

/// Observability hookup for one threaded run: the engine-wide registry
/// the run publishes into and the per-query trace sink. Both nullable —
/// a default-constructed ExecObs runs the query dark (tests, benches).
struct ExecObs {
  obs::MetricsRegistry* registry = nullptr;
  obs::Tracer* tracer = nullptr;
};

/// Which execution substrate Engine::Submit puts the query on.
enum class ExecutorKind { kSim, kThreaded };

/// Everything a threaded run reports about itself once complete: the
/// summary its ResultChannel publishes at close (with `results` empty —
/// the rows streamed through the channel), or ThreadPoolExecutor::Execute's
/// whole answer (with every result).
struct ExecOutcome {
  std::vector<TuplePtr> results;
  /// Constraint-audit verdict: invariant breaches observed while running
  /// (empty on every correct execution; the equivalence gate compares this
  /// against the sim run's audit).
  std::vector<std::string> violations;
  /// Per-worker accumulators. Workers never share counters on the hot
  /// path: each owns one QueryCounters, merged when the run completes.
  std::vector<obs::QueryCounters> workers;
  /// The run's totals: the merge of `workers`, plus the run-wide spill and
  /// shard-lock counters.
  obs::QueryCounters totals;
  /// Spill state of the sharded SteMs, in the sim's shape
  /// (Eddy::SpillStats).
  SpillSummary spill;
  /// True when the run stopped early because the query's LIMIT filled.
  bool limit_reached = false;
  /// Wall-clock microseconds from ThreadPoolExecutor::Start to completion.
  uint64_t wall_us = 0;
};

}  // namespace stems
