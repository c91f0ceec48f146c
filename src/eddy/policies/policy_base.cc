#include "eddy/policies/policy_base.h"

#include <cassert>

namespace stems {

RouteDecision PolicyBase::Route(const TuplePtr& tuple) {
  if (tuple->is_seed()) return RouteDecision::Retire();

  if (tuple->IsPriorProber()) return RoutePriorProber(tuple);

  // BuildFirst: an unbuilt singleton builds into its own SteM (Table 2 rule
  // when the table has multiple AMs or an index AM; §4.1 simplification
  // otherwise, unless the eddy runs with the §3.5 relaxation).
  const int slot = tuple->SingletonSlot();
  const bool unbuilt =
      slot >= 0 && tuple->component(slot).timestamp == kTsInfinity;
  if (unbuilt && eddy_->BuildRequired(slot)) {
    Stem* stem = eddy_->StemForSlot(slot);
    assert(stem != nullptr);
    return RouteDecision::Send(stem, RouteIntent::kBuild, slot);
  }

  // Selection pushdown (subclasses may interleave instead).
  if (SelectionsFirst()) {
    for (SelectionModule* sm : eddy_->selection_modules()) {
      const Predicate* p = sm->predicate();
      if (!tuple->PassedPredicate(p->id()) &&
          p->CanEvaluate(tuple->spanned_mask())) {
        return RouteDecision::Send(sm, RouteIntent::kAuto);
      }
    }
  }

  // Self-joins: the first probe of a just-built singleton of a multi-slot
  // table also spawns the reverse-direction clone.
  MaybeSpawnRetargetClone(tuple);

  ProbeCandidates(*tuple, &candidates_);
  if (candidates_.empty()) {
    // Nothing left to probe: every result this tuple contributes to will be
    // generated by later-arriving tuples probing the SteMs that hold its
    // components.
    return RouteDecision::Retire();
  }
  const int target =
      ChooseProbeSlot(*tuple, candidates_, eddy_->probe_stats());
  Stem* stem = eddy_->StemForSlot(target);
  assert(stem != nullptr);
  return RouteDecision::Send(stem, RouteIntent::kProbe, target,
                             tuple->is_retarget_clone());
}

void PolicyBase::ChooseBatch(const TupleBatch& batch,
                             std::vector<RouteDecision>* out) {
  out->clear();
  out->reserve(batch.size());
  if (!AmortizeHomogeneousLineage() || batch.size() < 2) {
    for (const TuplePtr& t : batch.tuples) out->push_back(Route(t));
    return;
  }

  // Decisions computed so far this batch, keyed by lineage. Batches are
  // small and lineage groups few, so a linear scan beats a hash map here.
  batch_cache_.clear();

  for (const TuplePtr& tuple : batch.tuples) {
    // Seeds and prior probers depend on state outside the lineage key
    // (bindable AMs, probe-completion progress): never share their
    // decisions.
    if (tuple->is_seed() || tuple->IsPriorProber()) {
      out->push_back(Route(tuple));
      continue;
    }
    const RouteLineage key = RouteLineage::Of(*tuple);
    const CachedDecision* hit = nullptr;
    for (const auto& c : batch_cache_) {
      if (c.key == key) {
        hit = &c;
        break;
      }
    }
    if (hit == nullptr) {
      RouteDecision d = Route(tuple);
      batch_cache_.push_back({key, d});
      out->push_back(d);
      continue;
    }
    // Reuse the group's decision, but preserve the per-tuple side effect
    // the scalar path performs at this point: a built singleton that is
    // about to probe (or retire with nothing left to probe) spawns its
    // self-join retarget clone exactly once.
    const RouteDecision& d = hit->decision;
    const bool past_selections =
        d.kind == RouteDecision::Kind::kRetire ||
        (d.kind == RouteDecision::Kind::kSend &&
         d.intent == RouteIntent::kProbe);
    if (past_selections) MaybeSpawnRetargetClone(tuple);
    out->push_back(d);
  }
}

RouteDecision PolicyBase::RoutePriorProber(const TuplePtr& tuple) {
  const int cslot = tuple->probe_completion_slot();

  // Bindable index AMs on the completion table, not yet probed by this
  // tuple.
  std::vector<IndexAm*> bindable;
  for (IndexAm* am : eddy_->IndexAmsForSlot(cslot)) {
    if (tuple->probed_ams() & (1ULL << am->id())) continue;
    if (!am->ExtractBindValues(*tuple, cslot).empty()) bindable.push_back(am);
  }

  if (tuple->probe_completed()) {
    // One completion AM has been probed; optionally hedge through another
    // (competitive access methods, §3.2).
    if (!bindable.empty() && ShouldHedgeProbe(*tuple, bindable)) {
      IndexAm* am = ChooseIndexAm(*tuple, bindable);
      tuple->MarkProbedAm(am->id());
      return RouteDecision::Send(am, RouteIntent::kProbe, cslot);
    }
    return RouteDecision::Retire();
  }

  if (!bindable.empty()) {
    const TableDef* def = eddy_->query().slots()[cslot].def;
    const bool bounce_was_optional =
        def->HasScanAm() && tuple->AllComponentsBuilt();
    if (!bounce_was_optional || ShouldProbeIndexAm(*tuple, bindable)) {
      IndexAm* am = ChooseIndexAm(*tuple, bindable);
      tuple->MarkProbedAm(am->id());
      return RouteDecision::Send(am, RouteIntent::kProbe, cslot);
    }
    return RouteDecision::Retire();
  }

  // No index AM can serve this probe: §3.5 re-probe path. Re-probe when the
  // SteM has grown since we last looked; otherwise park until it changes.
  Stem* stem = eddy_->StemForSlot(cslot);
  assert(stem != nullptr);
  if (stem->max_entry_ts() > tuple->last_match_ts() ||
      stem->eot_store().HasFullCoverage()) {
    return RouteDecision::Send(stem, RouteIntent::kProbe, cslot,
                               tuple->exclude_equal_ts());
  }
  return RouteDecision::Park(cslot);
}

void PolicyBase::ProbeCandidates(const Tuple& tuple,
                                 std::vector<int>* out) const {
  uint64_t probeable = 0;
  for (int s = 0; s < static_cast<int>(eddy_->query().num_slots()); ++s) {
    if (eddy_->StemForSlot(s) != nullptr) probeable |= 1ULL << s;
  }
  eddy_->join_graph().ProbeCandidates(
      tuple.spanned_mask(), probeable & ~tuple.probed_stems(), out);
}

IndexAm* PolicyBase::ChooseIndexAm(const Tuple& /*tuple*/,
                                   const std::vector<IndexAm*>& ams) {
  assert(!ams.empty());
  return ams.front();
}

void PolicyBase::MaybeSpawnRetargetClone(const TuplePtr& tuple) {
  const int slot = tuple->SingletonSlot();
  if (slot < 0 || tuple->retarget_spawned() || tuple->is_retarget_clone()) {
    return;
  }
  if (tuple->component(slot).timestamp == kTsInfinity) return;  // not built
  Stem* stem = eddy_->StemForSlot(slot);
  if (stem == nullptr || stem->table_slots().size() < 2) return;
  assert(stem->table_slots().size() == 2 &&
         "self-joins with more than two instances are not supported");
  tuple->set_retarget_spawned(true);
  const int other =
      stem->table_slots()[0] == slot ? stem->table_slots()[1]
                                     : stem->table_slots()[0];
  TuplePtr clone = tuple->RetargetSingleton(other);
  clone->set_is_retarget_clone(true);
  // The clone's sole task is the strict-timestamp reverse probe of its own
  // table: mask out every other SteM.
  uint64_t all = eddy_->query().full_span_mask();
  clone->SetProbedStemsMask(all & ~(1ULL << slot));
  eddy_->InjectTuple(std::move(clone));
}

}  // namespace stems
