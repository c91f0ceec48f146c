#include "server/tenant_governor.h"

#include <algorithm>

namespace stems::server {

std::vector<std::pair<std::string, uint64_t>> TenantRollup::Counters() const {
  std::vector<std::pair<std::string, uint64_t>> out = {
      {"queries_submitted", queries_submitted},
      {"queries_admitted", queries_admitted},
      {"queries_queued", queries_queued},
      {"queries_rejected", queries_rejected},
      {"queries_completed", queries_completed},
      {"queries_cancelled", queries_cancelled},
      {"queries_failed", queries_failed},
  };
  for (const obs::QueryCounterInfo& c : obs::kQueryCounterTable) {
    if (c.tenant_rollup) out.emplace_back(c.field, this->*c.member);
  }
  out.insert(out.end(), {
                            {"running_queries", running_queries},
                            {"queued_queries", queued_queries},
                            {"memory_entries_in_use", memory_entries_in_use},
                            {"queue_high_water", queue_high_water},
                            {"queued_time_ms", queued_time_ms},
                        });
  return out;
}

Status TenantGovernor::RegisterTenant(const std::string& name,
                                      TenantQuota quota) {
  if (name.empty()) {
    return Status::InvalidArgument("tenant name must be nonempty");
  }
  if (quota.max_concurrent_queries == 0) {
    return Status::InvalidArgument("tenant '" + name +
                                   "': max_concurrent_queries must be >= 1");
  }
  MutexLock lock(&mu_);
  if (tenants_.count(name) != 0) {
    return Status::AlreadyExists("tenant '" + name + "' already registered");
  }
  tenants_[name].quota = quota;
  tenant_order_.push_back(name);
  return Status::OK();
}

bool TenantGovernor::HasTenant(const std::string& name) const {
  MutexLock lock(&mu_);
  return tenants_.count(name) != 0;
}

std::vector<std::string> TenantGovernor::TenantNames() const {
  MutexLock lock(&mu_);
  return tenant_order_;
}

uint64_t TenantGovernor::WindowSpillIos(TenantState* state,
                                        Clock::time_point now) const {
  if (!state->window_open ||
      now - state->window_start >=
          std::chrono::milliseconds(state->quota.spill_window_ms)) {
    state->window_open = true;
    state->window_start = now;
    state->window_spill_ios = 0;
  }
  return state->window_spill_ios;
}

AdmissionOutcome TenantGovernor::CheckCapacity(TenantState* state,
                                               size_t memory_entries,
                                               uint32_t* retry_after_ms) {
  const TenantQuota& quota = state->quota;
  TenantRollup& rollup = state->rollup;
  *retry_after_ms = 0;
  if (rollup.running_queries >= quota.max_concurrent_queries) {
    *retry_after_ms = quota.reject_retry_after_ms;
    return AdmissionOutcome::kQueue;
  }
  if (quota.max_memory_entries > 0 &&
      rollup.memory_entries_in_use + memory_entries >
          quota.max_memory_entries) {
    *retry_after_ms = quota.reject_retry_after_ms;
    return AdmissionOutcome::kQueue;
  }
  if (quota.spill_io_window_budget > 0) {
    const auto now = Clock::now();
    if (WindowSpillIos(state, now) >= quota.spill_io_window_budget) {
      // Capacity frees when the window rolls over.
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
          now - state->window_start);
      const int64_t remaining =
          static_cast<int64_t>(quota.spill_window_ms) - elapsed.count();
      *retry_after_ms =
          static_cast<uint32_t>(std::max<int64_t>(remaining, 1));
      return AdmissionOutcome::kQueue;
    }
  }
  return AdmissionOutcome::kAdmit;
}

AdmissionDecision TenantGovernor::OnSubmit(const std::string& tenant,
                                           size_t memory_entries) {
  MutexLock lock(&mu_);
  auto it = tenants_.find(tenant);
  AdmissionDecision decision;
  if (it == tenants_.end()) {
    decision.outcome = AdmissionOutcome::kReject;
    decision.status = Status::NotFound("unknown tenant '" + tenant + "'");
    return decision;
  }
  TenantState& state = it->second;
  TenantRollup& rollup = state.rollup;
  ++rollup.queries_submitted;
  const size_t charge = memory_entries > 0
                            ? memory_entries
                            : state.quota.default_query_memory_entries;
  // A query that can never fit must not sit in the queue forever.
  if (state.quota.max_memory_entries > 0 &&
      charge > state.quota.max_memory_entries) {
    ++rollup.queries_rejected;
    decision.outcome = AdmissionOutcome::kReject;
    decision.status = Status::ResourceExhausted(
        "query memory charge of " + std::to_string(charge) +
        " entries exceeds tenant '" + tenant + "' memory quota of " +
        std::to_string(state.quota.max_memory_entries) +
        " entries (can never be admitted)");
    return decision;
  }
  uint32_t retry = 0;
  if (CheckCapacity(&state, charge, &retry) == AdmissionOutcome::kAdmit) {
    ++rollup.queries_admitted;
    ++rollup.running_queries;
    if (state.quota.max_memory_entries > 0) {
      rollup.memory_entries_in_use += charge;
    }
    decision.outcome = AdmissionOutcome::kAdmit;
    return decision;
  }
  if (rollup.queued_queries >= state.quota.max_queued_submits) {
    ++rollup.queries_rejected;
    decision.outcome = AdmissionOutcome::kReject;
    decision.status = Status::ResourceExhausted(
        "tenant '" + tenant + "' is over quota (" +
        std::to_string(rollup.running_queries) + " running, " +
        std::to_string(rollup.queued_queries) +
        " queued submits waiting — admission queue full); retry later");
    decision.retry_after_ms = std::max(retry, 1u);
    return decision;
  }
  ++rollup.queries_queued;
  ++rollup.queued_queries;
  rollup.queue_high_water =
      std::max(rollup.queue_high_water, rollup.queued_queries);
  state.queued_since.push_back(Clock::now());
  decision.outcome = AdmissionOutcome::kQueue;
  decision.retry_after_ms = std::max(retry, 1u);
  return decision;
}

void TenantGovernor::SettleQueuedTime(TenantState* state) {
  if (state->queued_since.empty()) return;
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - state->queued_since.front());
  state->rollup.queued_time_ms +=
      static_cast<uint64_t>(std::max<int64_t>(waited.count(), 0));
  state->queued_since.pop_front();
}

bool TenantGovernor::TryAdmitQueued(const std::string& tenant,
                                    size_t memory_entries) {
  MutexLock lock(&mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return false;
  TenantState& state = it->second;
  TenantRollup& rollup = state.rollup;
  if (rollup.queued_queries == 0) return false;
  const size_t charge = memory_entries > 0
                            ? memory_entries
                            : state.quota.default_query_memory_entries;
  uint32_t retry = 0;
  if (CheckCapacity(&state, charge, &retry) != AdmissionOutcome::kAdmit) {
    return false;
  }
  --rollup.queued_queries;
  SettleQueuedTime(&state);
  ++rollup.queries_admitted;
  ++rollup.running_queries;
  if (state.quota.max_memory_entries > 0) {
    rollup.memory_entries_in_use += charge;
  }
  return true;
}

void TenantGovernor::DropQueued(const std::string& tenant) {
  MutexLock lock(&mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  TenantRollup& rollup = it->second.rollup;
  if (rollup.queued_queries > 0) --rollup.queued_queries;
  // A cancel may remove a mid-queue entry while this settles the oldest
  // timestamp: queued_time_ms stays exact in total, only its attribution
  // across the tenant's own submits can shift.
  SettleQueuedTime(&it->second);
}

void TenantGovernor::OnQueryFinished(const std::string& tenant,
                                     size_t memory_entries,
                                     const QueryStats& stats,
                                     const Status& error) {
  MutexLock lock(&mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  TenantState& state = it->second;
  TenantRollup& rollup = state.rollup;
  if (rollup.running_queries > 0) --rollup.running_queries;
  if (state.quota.max_memory_entries > 0) {
    const size_t charge = memory_entries > 0
                              ? memory_entries
                              : state.quota.default_query_memory_entries;
    rollup.memory_entries_in_use -=
        std::min<uint64_t>(rollup.memory_entries_in_use, charge);
  }
  ++rollup.queries_completed;
  if (stats.cancelled) ++rollup.queries_cancelled;
  if (!error.ok()) ++rollup.queries_failed;
  static_cast<obs::QueryCounters&>(rollup) += stats;
}

void TenantGovernor::OnSpillProgress(const std::string& tenant,
                                     uint64_t spill_io_delta) {
  if (spill_io_delta == 0) return;
  MutexLock lock(&mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  TenantState& state = it->second;
  WindowSpillIos(&state, Clock::now());  // roll the window forward
  state.window_spill_ios += spill_io_delta;
}

TenantRollup TenantGovernor::Rollup(const std::string& tenant) const {
  MutexLock lock(&mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? TenantRollup{} : it->second.rollup;
}

size_t TenantGovernor::MemoryCharge(const std::string& tenant,
                                    size_t declared_entries) const {
  MutexLock lock(&mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return 0;
  return declared_entries > 0 ? declared_entries
                              : it->second.quota.default_query_memory_entries;
}

}  // namespace stems::server
