// Module: the base class of all query processing modules (paper §2.1).
//
// Each module has an input queue and a service model; in the paper each
// module runs in its own thread, here each runs as an actor on the
// discrete-event simulator (single-threaded asynchrony, paper [24]).
// Modules receive tuples from the eddy and emit tuples back to the eddy
// through their sink.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "runtime/tuple.h"
#include "sim/clock.h"
#include "sim/simulation.h"

namespace stems {

namespace obs {
class Tracer;
}  // namespace obs

enum class ModuleKind { kSelection, kScanAm, kIndexAm, kStem, kOperator };

const char* ModuleKindName(ModuleKind kind);

/// Observable per-module statistics; the eddy's routing policies feed on
/// these (paper §4.1: expected processing time, expected matches).
struct ModuleStats {
  uint64_t tuples_in = 0;        ///< tuples accepted
  uint64_t tuples_out = 0;       ///< tuples emitted (incl. bounce-backs)
  uint64_t busy_time = 0;        ///< total virtual service time
  uint64_t queue_wait_time = 0;  ///< summed virtual queueing delay
  size_t max_queue_len = 0;
  /// Tuples a halt discarded unprocessed (queued, in flight, or arriving
  /// after it); the eddy retires them.
  uint64_t tuples_dropped = 0;

  /// Mean virtual time a tuple spends queued + in service.
  double MeanLatency() const {
    if (tuples_in == 0) return 0;
    return static_cast<double>(queue_wait_time + busy_time) /
           static_cast<double>(tuples_in);
  }
};

class Module {
 public:
  using TupleSink = std::function<void(TuplePtr, Module* from)>;

  Module(Simulation* sim, std::string name);
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::string& name() const { return name_; }
  int id() const { return id_; }
  void set_id(int id) { id_ = id; }

  virtual ModuleKind kind() const = 0;

  /// Wires the module's output to the eddy (or a test collector).
  void SetSink(TupleSink sink) { sink_ = std::move(sink); }

  /// Enqueues a tuple for processing; service starts when the (single)
  /// server frees up.
  void Accept(TuplePtr tuple);

  /// Batch entry point: drains `*batch` into the input queue (in order)
  /// with one bookkeeping pass, then starts service. Used by the eddy's
  /// batched router to deliver a cluster of same-destination tuples in one
  /// call; the drained vector keeps its capacity for the caller to reuse.
  void AcceptBatch(std::vector<TuplePtr>* batch);

  /// Tuples serviced per scheduled event (default 1 = one event per tuple).
  /// With n > 1 the module drains up to n queued tuples per event, charging
  /// the sum of their virtual service times as one busy period — the
  /// event-queue hop is amortized. Service times are evaluated up front
  /// (before any tuple of the group is processed), so a ServiceTime() that
  /// depends on processing order (e.g. the Grace-mode partition-switch
  /// penalty) must keep the module scalar.
  void set_service_batch(size_t n) { service_batch_ = n == 0 ? 1 : n; }
  size_t service_batch() const { return service_batch_; }

  /// Observability: when set (by the eddy at registration), every sampled
  /// service group records one complete trace span (virtual clock). Null =
  /// tracing disabled; the service path pays one branch.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  size_t queue_length() const { return queue_.size(); }
  bool busy() const { return busy_; }

  /// Stops the module for good (query cancellation, LIMIT): queued and
  /// later-arriving tuples are dropped, and a service group already on the
  /// clock is discarded when its event fires; each counts in
  /// stats().tuples_dropped. Quiescent() stays false until that event has
  /// fired, so owners can read it as "no pending event references this
  /// module".
  void Halt();
  bool halted() const { return halted_; }
  /// True when no queued or in-service work remains. AMs with outstanding
  /// asynchronous lookups override this.
  virtual bool Quiescent() const { return queue_.empty() && !busy_; }

  const ModuleStats& stats() const { return stats_; }

 protected:
  /// Virtual service time charged for processing `tuple`.
  virtual SimTime ServiceTime(const Tuple& tuple) const = 0;

  /// Processes one tuple after its service time has elapsed. Implementations
  /// emit results (and bounce-backs) via Emit().
  virtual void Process(TuplePtr tuple) = 0;

  /// Processes and drains a serviced group (batched service path; `*tuples`
  /// is the module's reusable service buffer — implementations must leave
  /// it empty). The default loops Process(); modules with per-change side
  /// effects may override to amortize them across the group (e.g. the SteM
  /// defers its change notification to the end of the group).
  virtual void ProcessBatch(std::vector<TuplePtr>* tuples) {
    for (auto& t : *tuples) Process(std::move(t));
    tuples->clear();
  }

  /// Sends a tuple back to the eddy.
  void Emit(TuplePtr tuple);

  Simulation* sim() const { return sim_; }

 private:
  void MaybeStartService();
  /// Records a sampled 'X' span for a service period starting now.
  void TraceService(SimTime start, SimTime duration, size_t group_size);

  Simulation* sim_;
  std::string name_;
  int id_ = -1;
  TupleSink sink_;
  obs::Tracer* tracer_ = nullptr;

  struct QueueEntry {
    TuplePtr tuple;
    SimTime enqueued_at;
  };
  std::deque<QueueEntry> queue_;
  bool busy_ = false;
  bool halted_ = false;
  size_t service_batch_ = 1;
  /// Reusable buffer for the in-flight service group (busy_ serializes
  /// service, so one buffer suffices); keeps the batched path allocation-free.
  std::vector<TuplePtr> in_service_;
  ModuleStats stats_;
};

}  // namespace stems
