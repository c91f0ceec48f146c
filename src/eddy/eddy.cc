#include "eddy/eddy.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>

#include "common/logging.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "spill/buffer_pool.h"

namespace stems {

Eddy::Eddy(const QuerySpec& query, Simulation* sim, EddyOptions options)
    : options_(options),
      join_graph_(query),
      memory_governor_(options.memory) {
  ctx_.query = &query;
  ctx_.sim = sim;
  const size_t n = query.num_slots();
  stem_by_slot_.resize(n, nullptr);
  index_ams_by_slot_.resize(n);
  scan_ams_by_slot_.resize(n);
  checker_ = std::make_unique<ConstraintChecker>(
      this, options_.constraint_mode, options_.max_routes_per_tuple);
  results_series_ = ctx_.metrics.SeriesHandle("results");
  prioritized_series_ = ctx_.metrics.SeriesHandle("results.prioritized");
  ctx_.tracer = options_.tracer;
  if (options_.registry != nullptr) {
    reg_queue_hwm_ = options_.registry->GetGauge("eddy.route_queue_hwm");
  }
}

Eddy::~Eddy() = default;

void Eddy::RegisterModule(std::unique_ptr<Module> module) {
  Module* raw = module.get();
  raw->set_id(static_cast<int>(modules_.size()));
  raw->set_tracer(ctx_.tracer);
  raw->SetSink([this](TuplePtr t, Module* from) {
    OnModuleEmit(std::move(t), from);
  });
  switch (raw->kind()) {
    case ModuleKind::kStem: {
      auto* stem = static_cast<Stem*>(raw);
      for (int slot : stem->table_slots()) {
        assert(stem_by_slot_[slot] == nullptr && "two SteMs for one slot");
        stem_by_slot_[slot] = stem;
      }
      stem->SetChangeListener([this, slot = stem->table_slots().front()] {
        OnStemChanged(slot);
      });
      // The query-wide pool is created on first use by a SteM that still
      // needs spill: pooled SteMs arrive with spill already enabled through
      // the engine-wide pool, and a query whose SteMs are all pooled never
      // allocates (or misleadingly reports) a pool of its own.
      if (options_.spill.enabled && !stem->spill_enabled()) {
        if (buffer_pool_ == nullptr) {
          buffer_pool_ = std::make_unique<BufferPool>(options_.spill);
          buffer_pool_->AttachRegistry(options_.registry);
        }
        stem->EnableSpill(buffer_pool_.get(), options_.spill);
      }
      memory_governor_.Watch(stem);
      break;
    }
    case ModuleKind::kIndexAm: {
      auto* am = static_cast<IndexAm*>(raw);
      for (int slot : am->table_slots()) index_ams_by_slot_[slot].push_back(am);
      break;
    }
    case ModuleKind::kScanAm: {
      auto* am = static_cast<ScanAm*>(raw);
      for (int slot : am->table_slots()) scan_ams_by_slot_[slot].push_back(am);
      break;
    }
    case ModuleKind::kSelection: {
      auto* sm = static_cast<SelectionModule*>(raw);
      sm_by_pred_[sm->predicate()->id()] = sm;
      sms_.push_back(sm);
      break;
    }
    case ModuleKind::kOperator:
      break;
  }
  modules_.push_back(std::move(module));
}

void Eddy::SetPolicy(std::unique_ptr<RoutingPolicy> policy) {
  policy_ = std::move(policy);
  policy_->Attach(this);
}

SlotProbeStats Eddy::StemProbeStats::ForSlot(int slot) const {
  SlotProbeStats out;
  const Stem* stem = eddy_.StemForSlot(slot);
  if (stem == nullptr) return out;
  out.probes = stem->probes_processed();
  out.matches = stem->matches_emitted();
  out.mean_latency = stem->stats().MeanLatency();
  out.queue_length = stem->queue_length();
  out.spill_cost = stem->ExpectedProbeSpillCost();
  return out;
}

Stem* Eddy::StemForSlot(int slot) const {
  assert(slot >= 0 && static_cast<size_t>(slot) < stem_by_slot_.size());
  return stem_by_slot_[slot];
}

Stem* Eddy::StemForTable(const std::string& table) const {
  // Resolve through the same TableDef-identity match the modules use.
  const std::vector<int> slots = ctx_.SlotsOfTable(table);
  return slots.empty() ? nullptr : stem_by_slot_[slots.front()];
}

const std::vector<IndexAm*>& Eddy::IndexAmsForSlot(int slot) const {
  return index_ams_by_slot_[slot];
}

const std::vector<ScanAm*>& Eddy::ScanAmsForSlot(int slot) const {
  return scan_ams_by_slot_[slot];
}

SelectionModule* Eddy::SmForPredicate(int predicate_id) const {
  auto it = sm_by_pred_.find(predicate_id);
  return it == sm_by_pred_.end() ? nullptr : it->second;
}

bool Eddy::BuildRequired(int slot) const {
  const TableDef* def = ctx_.query->slots()[slot].def;
  // Table 2 BuildFirst: always required with multiple AMs or an index AM.
  if (def->access_methods.size() > 1 || def->HasIndexAm()) return true;
  // §3.5 relaxation for explicitly listed single-scan tables.
  if (options_.relax_build_first) {
    for (const auto& t : options_.no_build_tables) {
      if (t == def->name) return false;
    }
  }
  return options_.always_build;
}

void Eddy::Start() {
  assert(policy_ != nullptr && "no routing policy set");
  assert(!started_);
  started_ = true;
  // LIMIT 0 asks for nothing: complete immediately without seeding the
  // scans (the engine observes quiescence and marks the query finished).
  if (ctx_.query->limit().has_value() && *ctx_.query->limit() == 0) {
    limit_reached_ = true;
    Cancel();
    return;
  }
  const int num_slots = static_cast<int>(ctx_.query->num_slots());
  // Seed every scan AM (paper §2.2 step 5). Seeds bypass the policy.
  for (const auto& module : modules_) {
    if (module->kind() == ModuleKind::kScanAm) {
      module->Accept(Tuple::MakeSeed(num_slots));
    }
  }
}

void Eddy::RunToCompletion() {
  if (!started_) Start();
  ctx_.sim->Run();
  // Drain: tuples still parked are prior probers whose completion table can
  // never change again (e.g. theta-joined index-only tables). Every result
  // they could contribute to is generated by the other side's probes, so
  // they retire (the checker verifies the retirement is legal).
  while (DrainParked() > 0) {
    ctx_.sim->Run();
  }
}

bool Eddy::Quiescent() const {
  if (routing_busy_ || !route_queue_.empty()) return false;
  for (const auto& module : modules_) {
    if (!module->Quiescent()) return false;
  }
  return true;
}

size_t Eddy::DrainParked() {
  size_t drained = 0;
  while (parked_count() > 0) {
    std::map<int, std::vector<TuplePtr>> parked = std::move(parked_by_slot_);
    parked_by_slot_.clear();
    for (auto& [slot, tuples] : parked) {
      for (auto& t : tuples) {
        checker_->Check(*t, RouteDecision::Retire());
        ++counters_.tuples_retired;
        ++drained;
      }
    }
  }
  return drained;
}

void Eddy::Cancel() {
  cancelled_ = true;
  counters_.tuples_retired += route_queue_.size();
  route_queue_.clear();
  for (auto& [slot, tuples] : parked_by_slot_) {
    counters_.tuples_retired += tuples.size();
  }
  parked_by_slot_.clear();
  // Halt every module: without this a cancelled query's scans keep
  // self-scheduling row emissions, and its SteMs keep probing the tuples
  // already queued at them, on the shared clock — taxing every other query
  // on the engine for work nobody reads. The dropped tuples are retired
  // (Counters()).
  for (const auto& module : modules_) module->Halt();
}

void Eddy::InjectTuple(TuplePtr tuple) {
  if (cancelled_) {
    ++counters_.tuples_retired;
    return;
  }
  route_queue_.push_back(std::move(tuple));
  if (reg_queue_hwm_ != nullptr) {
    reg_queue_hwm_->SetMax(static_cast<int64_t>(route_queue_.size()));
  }
  MaybeStartRouting();
}

void Eddy::OnModuleEmit(TuplePtr tuple, Module* /*from*/) {
  InjectTuple(std::move(tuple));
}

void Eddy::MaybeStartRouting() {
  if (routing_busy_ || route_queue_.empty()) return;
  routing_busy_ = true;
  // One event-queue hop (and one routing_overhead charge) covers up to
  // batch_size queued tuples.
  if (options_.batch_size <= 1) {
    TuplePtr tuple = std::move(route_queue_.front());
    route_queue_.pop_front();
    ctx_.sim->Schedule(options_.routing_overhead,
                       [this, t = std::move(tuple)]() mutable {
                         // wall-clock: measures the real CPU cost of the
                         // routing decision (counters_.routing_wall_ns is an
                         // observability counter, never simulation input).
                         const auto start = std::chrono::steady_clock::now();
                         RouteOne(std::move(t));
                         routing_busy_ = false;
                         MaybeStartRouting();
                         // wall-clock: closes the span opened above.
                         counters_.routing_wall_ns += static_cast<uint64_t>(
                             (std::chrono::steady_clock::now() - start)
                                 .count());
                       });
    return;
  }
  // The tuples stay queued until the event fires: emissions arriving
  // during the routing_overhead window join this batch, and the closure
  // captures only `this` (no allocation).
  ctx_.sim->Schedule(options_.routing_overhead, [this] {
    // wall-clock: measures the real CPU cost of batch routing
    // (observability counter only, never simulation input).
    const auto start = std::chrono::steady_clock::now();
    RouteBatchFromQueue();
    routing_busy_ = false;
    MaybeStartRouting();
    // wall-clock: closes the span opened above.
    counters_.routing_wall_ns += static_cast<uint64_t>(
        (std::chrono::steady_clock::now() - start).count());
  });
}

bool Eddy::PreRoute(TuplePtr& tuple) {
  ++counters_.tuples_routed;
  tuple->IncrementRouteCount();

  // BoundedRepetition backstop: a policy bug must not hang the simulation.
  // The checker records the violation; the tuple is forcibly retired.
  if (tuple->route_count() > options_.max_routes_per_tuple) {
    STEMS_LOG(Error) << "BoundedRepetition exceeded for " << tuple->ToString();
    checker_->Check(*tuple, RouteDecision::Retire());
    ++counters_.tuples_retired;
    return false;
  }

  // Output check (paper §2.1.1): spans all base tables and passed all
  // predicates.
  if (!tuple->is_seed() && !tuple->IsEot() &&
      tuple->spanned_mask() == ctx_.query->full_span_mask()) {
    const uint64_t all_preds =
        ctx_.query->num_predicates() == 0
            ? 0
            : (1ULL << ctx_.query->num_predicates()) - 1;
    if ((tuple->preds_passed() & all_preds) == all_preds) {
      AdmitResult(std::move(tuple));
      return false;
    }
  }
  return true;
}

void Eddy::AdmitResult(TuplePtr tuple) {
  const std::optional<uint64_t>& limit = ctx_.query->limit();
  if (limit.has_value() && results_.size() >= *limit) {
    // The LIMIT filled earlier — possibly within this very routing batch,
    // when a same-destination AcceptBatch cluster emitted several outputs
    // in one service event. The clamp sits before the push, so the bound
    // holds regardless of how many outputs share the step.
    ++counters_.tuples_retired;
    return;
  }
  results_series_->Increment(ctx_.sim->now());
  const bool prioritized = options_.result_priority_classifier
                               ? options_.result_priority_classifier(*tuple)
                               : tuple->prioritized();
  if (prioritized) {
    prioritized_series_->Increment(ctx_.sim->now());
  }
  results_.push_back(std::move(tuple));
  if (limit.has_value() && results_.size() >= *limit) {
    // LIMIT hit: stop the dataflow (halt scans, drop queued and parked
    // work) but keep the buffered results. The in-flight remainder
    // drains, the eddy goes Quiescent(), and the engine marks the
    // query *finished* — cancellation state is tracked per-handle, so
    // a LIMIT completion never reads as cancelled.
    limit_reached_ = true;
    Cancel();
  }
}

void Eddy::RouteOne(TuplePtr tuple) {
  // A routing event scheduled before Cancel() may still fire; drop its
  // tuple instead of routing on.
  if (cancelled_) {
    ++counters_.tuples_retired;
    return;
  }
  if (!PreRoute(tuple)) return;

  // EOT tuples go straight to their table's SteM as builds (paper §2.1.3).
  if (tuple->IsEot()) {
    const int slot = tuple->SingletonSlot();
    assert(slot >= 0);
    Stem* stem = stem_by_slot_[slot];
    assert(stem != nullptr);
    tuple->SetRouteInfo(RouteIntent::kBuild, slot);
    stem->Accept(std::move(tuple));
    return;
  }

  // Sampling is decided *before* the policy runs so score tracing is live
  // during the decision it describes.
  const bool traced = ctx_.tracer != nullptr && ctx_.tracer->SampleRoute();
  if (traced) policy_->set_score_tracing(true);
  RouteDecision decision = policy_->Route(tuple);
  if (traced) {
    TraceRouteDecision(tuple, decision, 1);
    policy_->set_score_tracing(false);
  }
  checker_->Check(*tuple, decision);

  switch (decision.kind) {
    case RouteDecision::Kind::kSend:
      assert(decision.dest != nullptr);
      tuple->SetRouteInfo(decision.intent, decision.target_slot,
                          decision.exclude_equal_ts);
      decision.dest->Accept(std::move(tuple));
      return;
    case RouteDecision::Kind::kPark:
      parked_by_slot_[decision.park_slot].push_back(std::move(tuple));
      return;
    case RouteDecision::Kind::kRetire:
      ++counters_.tuples_retired;
      return;
  }
}

void Eddy::RouteBatchFromQueue() {
  // Cancel() clears the queue (and counts the drops); a fired event then
  // finds nothing to do.
  if (cancelled_ || route_queue_.empty()) return;

  // A batch of one routes through the scalar path: the batch machinery
  // (pending entries, lineage keys, clustering) only pays for itself from
  // two tuples up.
  if (route_queue_.size() == 1) {
    TuplePtr tuple = std::move(route_queue_.front());
    route_queue_.pop_front();
    RouteOne(std::move(tuple));
    return;
  }

  // Phase 1: pop up to batch_size tuples; pre-policy handling. EOT tuples
  // keep their queue position (a probe routed after a scan's EOT must reach
  // the SteM after it, or EOT coverage would claim completeness over builds
  // still in this batch), so they become pre-decided entries instead of
  // being delivered immediately.
  const size_t n = std::min(options_.batch_size, route_queue_.size());
  pending_scratch_.clear();
  policy_batch_.clear();
  for (size_t i = 0; i < n; ++i) {
    // PreRoute can hit the query's LIMIT and Cancel() mid-batch, which
    // clears the queue out from under this loop.
    if (cancelled_ || route_queue_.empty()) break;
    TuplePtr tuple = std::move(route_queue_.front());
    route_queue_.pop_front();
    if (!PreRoute(tuple)) continue;
    if (tuple->IsEot()) {
      const int slot = tuple->SingletonSlot();
      assert(slot >= 0);
      Stem* stem = stem_by_slot_[slot];
      assert(stem != nullptr);
      PendingRoute p;
      p.eot_tuple = std::move(tuple);
      p.eot_decision = RouteDecision::Send(stem, RouteIntent::kBuild, slot);
      pending_scratch_.push_back(std::move(p));
      continue;
    }
    PendingRoute p;
    p.policy_index = static_cast<int32_t>(policy_batch_.tuples.size());
    pending_scratch_.push_back(std::move(p));
    policy_batch_.tuples.push_back(std::move(tuple));
  }
  if (cancelled_) {
    // LIMIT (or cancel) fired while collecting the batch: the tuples
    // already popped retire instead of routing into a halted dataflow.
    counters_.tuples_retired += pending_scratch_.size();
    pending_scratch_.clear();
    policy_batch_.clear();
    return;
  }
  if (pending_scratch_.empty()) return;

  // Phase 2: one policy consultation for the whole batch. One sampling
  // draw covers the batch (the trace records the batch size); scores are
  // live during the consultation they describe.
  const bool traced = ctx_.tracer != nullptr && !policy_batch_.tuples.empty() &&
                      ctx_.tracer->SampleRoute();
  if (traced) policy_->set_score_tracing(true);
  policy_->ChooseBatch(policy_batch_, &decisions_scratch_);
  if (decisions_scratch_.size() != policy_batch_.size()) {
    // A custom ChooseBatch returned the wrong number of decisions (e.g. a
    // missing out->clear()). Recover deterministically through the scalar
    // Route() rather than indexing out of bounds.
    STEMS_LOG(Error) << "policy '" << policy_->name() << "' returned "
                     << decisions_scratch_.size() << " batch decisions for "
                     << policy_batch_.size() << " tuples; falling back to "
                     << "per-tuple routing";
    decisions_scratch_.clear();
    decisions_scratch_.reserve(policy_batch_.size());
    for (const TuplePtr& t : policy_batch_.tuples) {
      decisions_scratch_.push_back(policy_->Route(t));
    }
  }
  if (traced) {
    TraceRouteDecision(policy_batch_.tuples.front(),
                       decisions_scratch_.front(), policy_batch_.size());
    policy_->set_score_tracing(false);
  }

  // Phase 3: audit + dispatch. The audit is amortized within the batch:
  // a (lineage, decision) pair that already passed is not re-checked.
  // Same-destination runs are delivered as one AcceptBatch call; delivery
  // order per module matches queue order.
  audited_scratch_.clear();
  cluster_scratch_.clear();
  Module* cluster_dest = nullptr;
  auto flush_cluster = [&] {
    if (cluster_scratch_.empty()) return;
    if (cluster_scratch_.size() == 1) {
      cluster_dest->Accept(std::move(cluster_scratch_.front()));
      cluster_scratch_.clear();
    } else {
      cluster_dest->AcceptBatch(&cluster_scratch_);
    }
  };

  size_t dispatched = 0;
  for (PendingRoute& p : pending_scratch_) {
    if (cancelled_) {
      // LIMIT/cancel tripped mid-dispatch: the rest of the batch (and the
      // undelivered cluster) must not enter the halted dataflow — retire
      // it, mirroring the phase-1 guard (clamp inside the batch path).
      counters_.tuples_retired += cluster_scratch_.size();
      cluster_scratch_.clear();
      counters_.tuples_retired += pending_scratch_.size() - dispatched;
      break;
    }
    ++dispatched;
    const bool predecided = p.policy_index < 0;
    const RouteDecision& decision =
        predecided ? p.eot_decision : decisions_scratch_[p.policy_index];
    TuplePtr& tuple =
        predecided ? p.eot_tuple : policy_batch_.tuples[p.policy_index];
    if (!predecided) {
      // Seeds and prior probers carry decision-relevant state beyond the
      // lineage key; their audits never amortize.
      const bool amortizable = decision.kind == RouteDecision::Kind::kSend &&
                               !tuple->is_seed() && !tuple->IsPriorProber();
      bool skip_audit = false;
      RouteLineage lineage;
      if (amortizable) {
        lineage = RouteLineage::Of(*tuple);
        for (const AuditedRoute& a : audited_scratch_) {
          if (a.dest == decision.dest && a.intent == decision.intent &&
              a.target_slot == decision.target_slot &&
              a.exclude_equal_ts == decision.exclude_equal_ts &&
              a.lineage == lineage) {
            skip_audit = true;
            break;
          }
        }
      }
      if (!skip_audit) {
        const bool ok = checker_->Check(*tuple, decision);
        if (ok && amortizable) {
          audited_scratch_.push_back({lineage, decision.dest, decision.intent,
                                      decision.target_slot,
                                      decision.exclude_equal_ts});
        }
      }
    }
    switch (decision.kind) {
      case RouteDecision::Kind::kSend:
        assert(decision.dest != nullptr);
        tuple->SetRouteInfo(decision.intent, decision.target_slot,
                            decision.exclude_equal_ts);
        if (decision.dest != cluster_dest) {
          flush_cluster();
          cluster_dest = decision.dest;
        }
        cluster_scratch_.push_back(std::move(tuple));
        break;
      case RouteDecision::Kind::kPark:
        parked_by_slot_[decision.park_slot].push_back(std::move(tuple));
        break;
      case RouteDecision::Kind::kRetire:
        ++counters_.tuples_retired;
        break;
    }
  }
  flush_cluster();
  pending_scratch_.clear();
  policy_batch_.clear();
}

void Eddy::TraceRouteDecision(const TuplePtr& tuple,
                              const RouteDecision& decision, size_t batch) {
  obs::TraceEvent ev;
  ev.cat = "route";
  ev.ph = 'i';
  ev.ts_us = static_cast<uint64_t>(ctx_.sim->now());
  const char* kind = "retire";
  switch (decision.kind) {
    case RouteDecision::Kind::kSend:
      ev.name = decision.dest->name();
      ev.tid = static_cast<uint32_t>(decision.dest->id());
      kind = "send";
      break;
    case RouteDecision::Kind::kPark:
      ev.name = "park";
      kind = "park";
      break;
    case RouteDecision::Kind::kRetire:
      ev.name = "retire";
      break;
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "\"lineage\":%llu,\"kind\":\"%s\",\"intent\":%d,\"batch\":%zu",
                static_cast<unsigned long long>(tuple->spanned_mask()), kind,
                static_cast<int>(decision.intent), batch);
  ev.args_json = buf;
  const std::string& scores = policy_->LastDecisionScores();
  if (!scores.empty()) {
    ev.args_json += ",\"scores\":\"" + obs::Tracer::JsonEscape(scores) + "\"";
  }
  ctx_.tracer->Record(std::move(ev));
}

void Eddy::OnStemChanged(int table_ordinal) {
  // §6: enforce the global memory budget as SteMs grow.
  memory_governor_.Rebalance();
  // Wake tuples parked on any slot served by this SteM.
  Stem* stem = stem_by_slot_[table_ordinal];
  for (int slot : stem->table_slots()) {
    auto it = parked_by_slot_.find(slot);
    if (it == parked_by_slot_.end() || it->second.empty()) continue;
    auto woken = std::move(it->second);
    it->second.clear();
    for (auto& t : woken) InjectTuple(std::move(t));
  }
}

SpillSummary Eddy::SpillStats() const {
  SpillSummary out;
  for (const auto& module : modules_) {
    if (module->kind() != ModuleKind::kStem) continue;
    static_cast<const Stem*>(module.get())->storage()->AddTo(&out);
  }
  if (buffer_pool_ != nullptr) buffer_pool_->AddTo(&out);
  return out;
}

obs::QueryCounters Eddy::Counters() const {
  obs::QueryCounters c = counters_;
  c.num_results = results_.size();
  for (const auto& module : modules_) {
    c.tuples_retired += module->stats().tuples_dropped;
    if (module->kind() == ModuleKind::kStem) {
      c += static_cast<const Stem*>(module.get())->counters();
    }
  }
  return c;
}

size_t Eddy::parked_count() const {
  size_t n = 0;
  for (const auto& [slot, v] : parked_by_slot_) n += v.size();
  return n;
}

}  // namespace stems
