// TenantGovernor: per-tenant admission control for the shared engine.
//
// Every server session authenticates as a tenant; the governor decides,
// per Submit, whether the tenant may start another query *now* (admit),
// must wait for capacity (queue) or is hard-over quota (reject with a
// retry-after hint). Three budgets, all fed by accounting the engine
// already keeps:
//
//   * concurrent queries — a simple slot count;
//   * memory             — the sum of the *declared* MemoryGovernor entry
//                          budgets (RunOptions::memory_budget_entries) of
//                          the tenant's running queries; an undeclared
//                          query charges the quota's default estimate;
//   * spill I/O          — simulated disk I/Os (QueryStats::spill_ios /
//                          ResultCursor::spill_ios) accumulated over a
//                          sliding accounting window, so one tenant's
//                          spill-heavy queries cannot monopolize the
//                          (shared) buffer pool and run files.
//
// The governor also rolls every finished query's QueryStats up into a
// per-tenant TenantRollup, the observability surface the Stats wire frame
// serves. Admission decisions and rollups are pure bookkeeping: the
// *server* owns the queue of deferred submits and re-offers them through
// TryAdmitQueued when a running query finishes.
//
// Thread-safety: fully locked — the engine thread drives admissions while
// tests and operators read rollups concurrently.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/engine.h"

namespace stems::server {

/// Per-tenant budgets. Zero-valued limits mean "unlimited" except
/// max_concurrent_queries, which must be >= 1.
struct TenantQuota {
  /// Queries of this tenant allowed to run at once; further submits queue.
  size_t max_concurrent_queries = 4;
  /// Deferred submits the tenant may have waiting; past this, Submit is
  /// rejected outright with a retry-after hint.
  size_t max_queued_submits = 16;
  /// Ceiling on the summed declared memory budgets (entries) of the
  /// tenant's running queries. 0 = unlimited.
  size_t max_memory_entries = 0;
  /// Memory charge (entries) for a query that declares no budget; only
  /// consulted when max_memory_entries > 0.
  size_t default_query_memory_entries = 256;
  /// Spill I/Os the tenant may consume per accounting window. 0 =
  /// unlimited.
  uint64_t spill_io_window_budget = 0;
  /// Length of the spill-I/O accounting window.
  uint32_t spill_window_ms = 1000;
  /// Retry-after hint attached to queue-full rejections.
  uint32_t reject_retry_after_ms = 100;
};

/// Cumulative per-tenant accounting: admission counters plus the sum of
/// every finished query's counters (the base; its `tenant_rollup` entries
/// are the ones served).
struct TenantRollup : obs::QueryCounters {
  uint64_t queries_submitted = 0;
  uint64_t queries_admitted = 0;
  uint64_t queries_queued = 0;
  uint64_t queries_rejected = 0;
  uint64_t queries_completed = 0;
  uint64_t queries_cancelled = 0;
  uint64_t queries_failed = 0;
  // Live state (running right now).
  uint64_t running_queries = 0;
  uint64_t queued_queries = 0;
  uint64_t memory_entries_in_use = 0;
  // Admission-queue observability.
  /// Most deferred submits this tenant ever had waiting at once.
  uint64_t queue_high_water = 0;
  /// Total wall-clock milliseconds deferred submits spent waiting in the
  /// admission queue before being admitted (or dropped/cancelled).
  uint64_t queued_time_ms = 0;

  /// The rollup as ordered (name, value) counters — the Stats wire frame's
  /// payload: the admission counters, the rolled-up query counters in
  /// table order, then the live and queue state.
  std::vector<std::pair<std::string, uint64_t>> Counters() const;
};

enum class AdmissionOutcome { kAdmit, kQueue, kReject };

struct AdmissionDecision {
  AdmissionOutcome outcome = AdmissionOutcome::kAdmit;
  /// Non-OK exactly for kReject (kResourceExhausted with the quota named).
  Status status;
  /// Retry-after hint for kReject; also set on kQueue as an estimate of
  /// when capacity may free.
  uint32_t retry_after_ms = 0;
};

class TenantGovernor {
 public:
  /// Injectable clock for the spill-I/O window (tests pin it).
  using Clock = std::chrono::steady_clock;

  Status RegisterTenant(const std::string& name, TenantQuota quota);
  bool HasTenant(const std::string& name) const;
  /// Registered tenant names, registration order.
  std::vector<std::string> TenantNames() const;

  /// Admission check for a Submit that would charge `memory_entries`
  /// (0 = use the quota's default estimate). kAdmit charges the slot and
  /// memory immediately; kQueue charges the queue slot; kReject charges
  /// nothing. Unknown tenants are rejected (kNotFound).
  AdmissionDecision OnSubmit(const std::string& tenant, size_t memory_entries);

  /// Re-offers the head of the tenant's deferred queue: when capacity
  /// allows, converts one queued charge into a running charge and returns
  /// true. The server pops its pending submit and starts it iff this
  /// returns true.
  bool TryAdmitQueued(const std::string& tenant, size_t memory_entries);

  /// Drops one queued charge without admitting (session died while its
  /// submit waited).
  void DropQueued(const std::string& tenant);

  /// Releases a running query's slot + memory charge and rolls its final
  /// QueryStats into the tenant rollup. `error` is the query's terminal
  /// status (kOk for clean completion).
  void OnQueryFinished(const std::string& tenant, size_t memory_entries,
                       const QueryStats& stats, const Status& error);

  /// Feeds live spill-I/O progress (delta since the last report) into the
  /// tenant's accounting window while a query is still running.
  void OnSpillProgress(const std::string& tenant, uint64_t spill_io_delta);

  /// Snapshot of the tenant's rollup (zero-valued for unknown tenants).
  TenantRollup Rollup(const std::string& tenant) const;

  /// The memory charge a query with the given declared budget costs this
  /// tenant (applies the default estimate; 0 for unknown tenants).
  size_t MemoryCharge(const std::string& tenant,
                      size_t declared_entries) const;

 private:
  struct TenantState {
    TenantQuota quota;
    TenantRollup rollup;
    // Spill-I/O accounting window.
    Clock::time_point window_start{};
    uint64_t window_spill_ios = 0;
    bool window_open = false;
    /// Enqueue times of the deferred submits, admission (FIFO) order —
    /// mirrors the server's pending-submit deque, which admits and drops
    /// from the front.
    std::deque<Clock::time_point> queued_since;
  };

  /// Pops the oldest enqueue timestamp and adds its elapsed wait to
  /// rollup.queued_time_ms.
  void SettleQueuedTime(TenantState* state) STEMS_REQUIRES(mu_);
  /// Rolls the window forward and returns the I/Os consumed in the
  /// current window.
  uint64_t WindowSpillIos(TenantState* state, Clock::time_point now) const
      STEMS_REQUIRES(mu_);
  /// Capacity check shared by OnSubmit and TryAdmitQueued. Returns
  /// kAdmit/kQueue (never kReject) with retry hints set.
  AdmissionOutcome CheckCapacity(TenantState* state, size_t memory_entries,
                                 uint32_t* retry_after_ms)
      STEMS_REQUIRES(mu_);

  mutable Mutex mu_;
  std::unordered_map<std::string, TenantState> tenants_ STEMS_GUARDED_BY(mu_);
  std::vector<std::string> tenant_order_ STEMS_GUARDED_BY(mu_);
};

}  // namespace stems::server
