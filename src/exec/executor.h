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

#include "runtime/tuple.h"

namespace stems {

namespace obs {
class MetricsRegistry;
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

/// One worker's routing accumulators (threaded executor). Workers never
/// share counters on the hot path — each owns one of these, and readers
/// merge the vector (QueryStats aggregates them; the per-worker breakdown
/// is kept for observability).
struct WorkerCounters {
  uint64_t morsels = 0;         ///< TupleBatch work units processed
  uint64_t tuples_routed = 0;   ///< routing decisions made
  uint64_t tuples_retired = 0;  ///< tuples dropped from the dataflow
  uint64_t builds = 0;          ///< SteM inserts performed
  uint64_t duplicates = 0;      ///< builds absorbed by set-semantics dedup
  uint64_t probes = 0;          ///< SteM probes performed
  uint64_t matches = 0;         ///< concatenations emitted by probes
  uint64_t results = 0;         ///< output tuples this worker admitted
  uint64_t routing_wall_ns = 0;  ///< wall time inside morsel processing

  WorkerCounters& operator+=(const WorkerCounters& o) {
    morsels += o.morsels;
    tuples_routed += o.tuples_routed;
    tuples_retired += o.tuples_retired;
    builds += o.builds;
    duplicates += o.duplicates;
    probes += o.probes;
    matches += o.matches;
    results += o.results;
    routing_wall_ns += o.routing_wall_ns;
    return *this;
  }
};

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
  /// Per-worker accumulators, merged on read.
  std::vector<WorkerCounters> workers;
  /// Aggregate of `workers` (merged when the run completes).
  WorkerCounters totals;
  /// Spill observability of the sharded state (the sim path reports through
  /// Eddy::SpillStats instead).
  uint64_t spill_ios = 0;
  uint64_t bytes_spilled = 0;
  uint64_t entries_spilled = 0;
  size_t partitions_resident = 0;
  size_t partitions_spilled = 0;
  /// Shard-mutex contention: blocked hot-path acquisitions and the wall
  /// time they spent waiting.
  uint64_t shard_lock_waits = 0;
  uint64_t shard_lock_wait_ns = 0;
  /// True when the run stopped early because the query's LIMIT filled.
  bool limit_reached = false;
  /// Wall time the workers spent stalled on a full result channel (summed
  /// over workers): the consumer's backpressure.
  uint64_t result_backpressure_ns = 0;
  /// Wall-clock microseconds from ThreadPoolExecutor::Start to completion.
  uint64_t wall_us = 0;
};

}  // namespace stems
