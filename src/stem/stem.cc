#include "stem/stem.h"

#include <algorithm>
#include <cassert>

#include "spill/spill_options.h"

namespace stems {

std::vector<int> StemIndexColumns(const QuerySpec& query,
                                  const std::vector<int>& slots) {
  std::vector<int> cols;
  auto add = [&cols](int col) {
    if (std::find(cols.begin(), cols.end(), col) == cols.end()) {
      cols.push_back(col);
    }
  };
  // One secondary index per column of the table involved in a join
  // predicate on any of its slots (paper §2.1.4). Range-joined columns are
  // indexed too: with an ordered implementation they serve range probes,
  // otherwise LookupRange declines and probes fall back to full scans.
  for (const auto& p : query.predicates()) {
    if (!p.is_join()) continue;
    for (int slot : slots) {
      auto col = p.EquiJoinColumnFor(slot);
      if (col.has_value()) {
        add(*col);
        continue;
      }
      if (p.lhs().table_slot == slot) add(p.lhs().column);
      if (p.rhs().table_slot == slot) add(p.rhs().column);
    }
  }
  std::sort(cols.begin(), cols.end());
  return cols;
}

Stem::Stem(QueryContext* ctx, std::string table_name, StemOptions options,
           std::shared_ptr<StemStorage> storage)
    : Module(ctx->sim, "SteM(" + table_name + ")"),
      ctx_(ctx),
      table_name_(std::move(table_name)),
      options_(options),
      storage_(std::move(storage)) {
  table_slots_ = ctx_->SlotsOfTable(table_name_);
  assert(!table_slots_.empty() && "SteM table does not appear in the query");
  const TableDef* def = ctx_->query->slots()[table_slots_.front()].def;
  table_has_scan_am_ = def->HasScanAm();
  table_has_index_am_ = def->HasIndexAm();

  if (storage_ == nullptr) {
    storage_ = std::make_shared<StemStorage>(table_name_, /*pooled=*/false);
  }
  storage_->EnsureIndexes(StemIndexColumns(*ctx_->query, table_slots_),
                          options_.index_impl, options_.adaptive_threshold);
  attach_watermark_ = storage_->build_seq();

  if (options_.num_partitions > 1) {
    deferred_bounces_.resize(options_.num_partitions);
  }
  dups_series_ = ctx_->metrics.SeriesHandle(name() + ".dups");
  bounces_series_ = ctx_->metrics.SeriesHandle(name() + ".bounces");
  evictions_series_ = ctx_->metrics.SeriesHandle(name() + ".evictions");
  spill_out_series_ = ctx_->metrics.SeriesHandle(name() + ".spill.out");
  spill_in_series_ = ctx_->metrics.SeriesHandle(name() + ".spill.in");
}

CounterSeries* Stem::SpanSeries(uint64_t mask) {
  for (const auto& [m, series] : span_series_) {
    if (m == mask) return series;
  }
  CounterSeries* series =
      ctx_->metrics.SeriesHandle("span." + std::to_string(mask));
  span_series_.emplace_back(mask, series);
  return series;
}

bool Stem::ServesSlot(int slot) const {
  return std::find(table_slots_.begin(), table_slots_.end(), slot) !=
         table_slots_.end();
}

std::string Stem::IndexImplFor(int column) const {
  for (const auto& [c, idx] : storage_->indexes()) {
    if (c == column) return idx->impl_name();
  }
  return "";
}

void Stem::EnableSpill(BufferPool* pool, const SpillOptions& options) {
  const auto& indexes = storage_->indexes();
  storage_->EnableSpill(pool, options,
                        indexes.empty() ? -1 : indexes.front().first);
}

void Stem::AccrueIoCharge(const StemStorage::SpillResult& io) {
  counters_.spill_ios += io.ios;
  counters_.bytes_spilled += io.bytes;
  const SimTime cost = io.cost;
  if (cost <= 0) return;
  const uint64_t id = next_io_accrual_id_++;
  pending_io_charge_ += cost;
  io_accruals_.emplace_back(id, cost);
  ++pending_io_markers_;
  // The disk traffic occupies virtual time even if this SteM never
  // services another tuple: while the marker is pending the SteM is not
  // Quiescent(), so the engine cannot stamp completion ahead of the I/O.
  // On firing, the marker retires exactly its own accrual *if it is still
  // pending* — an intervening service may have billed it already (the
  // busy period subsumed the marker), and newer accruals must stay billed.
  sim()->Schedule(cost, [this, id] {
    --pending_io_markers_;
    for (auto it = io_accruals_.begin(); it != io_accruals_.end(); ++it) {
      if (it->first == id) {
        pending_io_charge_ -= it->second;
        io_accruals_.erase(it);
        break;
      }
    }
  });
}

size_t Stem::SpillColdestPartition() {
  const StemStorage::SpillResult out = storage_->SpillColdestPartition();
  AccrueIoCharge(out);
  if (out.entries > 0) {
    spill_out_series_->Increment(sim()->now(),
                                 static_cast<int64_t>(out.entries));
  }
  return out.entries;
}

bool Stem::Quiescent() const {
  if (!Module::Quiescent()) return false;
  return pending_io_markers_ == 0;
}

size_t Stem::PartitionOf(const Tuple& tuple) const {
  const auto& indexes = storage_->indexes();
  if (options_.num_partitions <= 1 || indexes.empty()) return 0;
  const int part_col = indexes.front().first;
  const int slot = tuple.SingletonSlot();
  if (slot >= 0 && ServesSlot(slot)) {
    const Value* v = tuple.ValueAt(slot, part_col);  // build side
    return v == nullptr ? 0 : v->Hash() % options_.num_partitions;
  }
  // Probe side: the value bound to the partitioning column, if any.
  int target = tuple.route_target_slot();
  if (target < 0 || !ServesSlot(target)) target = table_slots_.front();
  DeriveProbeBindings(*ctx_->query, tuple, target, &partition_binds_scratch_);
  for (const auto& [col, val] : partition_binds_scratch_) {
    if (col == part_col) return val.Hash() % options_.num_partitions;
  }
  return 0;
}

SimTime Stem::ServiceTime(const Tuple& tuple) const {
  // Drain the spill subsystem's accrued I/O charge (write-behind spills,
  // synchronous fault-ins): the disk traffic consumes this module's service
  // capacity on its next scheduled event.
  SimTime io_charge = 0;
  if (pending_io_charge_ > 0) {
    io_charge = pending_io_charge_;
    pending_io_charge_ = 0;
    io_accruals_.clear();  // billed: their markers retire nothing
  }
  const int slot = tuple.SingletonSlot();
  const bool is_build =
      tuple.route_intent() == RouteIntent::kBuild ||
      (tuple.route_intent() == RouteIntent::kAuto && slot >= 0 &&
       ServesSlot(slot) && tuple.component(slot).timestamp == kTsInfinity);
  if (is_build) return options_.build_service_time + io_charge;
  SimTime t = options_.probe_service_time + io_charge;
  if (options_.partition_switch_penalty > 0) {
    const size_t part = PartitionOf(tuple);
    if (part != last_probed_partition_) t += options_.partition_switch_penalty;
  }
  return t;
}

void Stem::Process(TuplePtr tuple) {
  const int slot = tuple->SingletonSlot();
  switch (tuple->route_intent()) {
    case RouteIntent::kBuild:
      ProcessBuild(std::move(tuple));
      return;
    case RouteIntent::kProbe:
      ProcessProbe(std::move(tuple));
      return;
    case RouteIntent::kAuto:
      if (slot >= 0 && ServesSlot(slot) &&
          tuple->component(slot).timestamp == kTsInfinity) {
        ProcessBuild(std::move(tuple));
      } else {
        ProcessProbe(std::move(tuple));
      }
      return;
  }
}

void Stem::ProcessBuild(TuplePtr tuple) {
  const int slot = tuple->SingletonSlot();
  assert(slot >= 0 && ServesSlot(slot) &&
         "build tuple is not a singleton of this SteM's table");
  RowRef row = tuple->component(slot).row;

  if (row->IsEot()) {
    // EOTs are built into the SteM alongside data tuples (paper §2.1.3) and
    // are not bounced back. Coverage is per-query: another query's scan
    // completing says nothing about what *this* query has been shown.
    eots_.Add(std::move(row));
    // Any coverage change can complete deferred work and wake parked
    // probers.
    FlushDeferredBounces();
    NotifyChange();
    return;
  }

  // Set-semantics duplicate elimination (paper §3.2): competing AMs build
  // into the same SteM; the copy that arrives second is absorbed, and is
  // *not* bounced back (SteM BounceBack constraint) so it never probes.
  // Dedup is per query: on pooled storage the overlay is the query's dedup
  // set, so a row first built by a *different* query is not a duplicate
  // here — it must still probe on this query's behalf.
  const bool pooled = storage_->pooled();
  if (pooled ? query_ts_.count(row) > 0 : storage_->Contains(row)) {
    ++counters_.duplicates;
    dups_series_->Increment(sim()->now());
    return;
  }

  const BuildTs ts = ctx_->ts.Issue();
  ++counters_.builds;
  if (ts > max_entry_ts_) max_entry_ts_ = ts;
  if (pooled) query_ts_.emplace(row, ts);

  if (pooled && storage_->Contains(row)) {
    // Cross-query shared hit: the row (and its index postings, and any
    // spilled copy) is already stored. Only the per-query visibility entry
    // above was needed — the physical build work is avoided entirely.
    ++counters_.builds_avoided;
  } else {
    // Pooled entries store the insertion sequence (timestamps live in each
    // query's overlay); private entries store the query's own timestamp.
    const StemStorage::SpillResult io =
        storage_->Store(row, pooled ? storage_->IssueSeq() : ts);
    if (io.entries > 0) {  // appended to a spilled partition's run
      AccrueIoCharge(io);
      spill_out_series_->Increment(sim()->now());
    }
  }
  tuple->SetBuilt(slot, ts);
  EvictIfNeeded();
  NotifyChange();

  if (options_.num_partitions > 1 && options_.bounce_batch > 1) {
    // Grace-mode: defer the bounce-back, clustered by hash partition
    // (paper §3.1's "asynchronous hash index"). The tuple will re-enter the
    // dataflow when its partition's batch fills or on an EOT/flush.
    const size_t part = PartitionOf(*tuple);
    deferred_bounces_[part].push_back(std::move(tuple));
    if (deferred_bounces_[part].size() >= options_.bounce_batch) {
      auto batch = std::move(deferred_bounces_[part]);
      deferred_bounces_[part].clear();
      for (auto& t : batch) Emit(std::move(t));
    }
    return;
  }
  Emit(std::move(tuple));
}

void Stem::EvictIfNeeded() {
  if (options_.max_entries == 0) return;
  if (storage_->live_entries() > options_.max_entries) {
    EvictOldest(storage_->live_entries() - options_.max_entries);
  }
}

size_t Stem::EvictOldest(size_t n) {
  const size_t evicted = storage_->EvictOldest(n);
  if (evicted > 0) {
    evictions_ += evicted;
    evictions_series_->Increment(sim()->now(),
                                 static_cast<int64_t>(evicted));
  }
  return evicted;
}

void Stem::NotifyChange() {
  if (defer_change_notify_) {
    pending_change_notify_ = true;
    return;
  }
  if (change_listener_) change_listener_();
}

void Stem::ProcessBatch(std::vector<TuplePtr>* tuples) {
  defer_change_notify_ = true;
  Module::ProcessBatch(tuples);
  defer_change_notify_ = false;
  if (pending_change_notify_) {
    pending_change_notify_ = false;
    NotifyChange();
  }
}

void Stem::FlushDeferredBounces() {
  for (auto& partition : deferred_bounces_) {
    auto batch = std::move(partition);
    partition.clear();
    for (auto& t : batch) Emit(std::move(t));
  }
}

void Stem::ProcessProbe(TuplePtr tuple) {
  assert(!tuple->is_seed() && "seed tuple routed to a SteM");
  int target_slot = tuple->route_target_slot();
  if (target_slot < 0 || !ServesSlot(target_slot) ||
      tuple->Spans(target_slot)) {
    target_slot = -1;
    for (int s : table_slots_) {
      if (!tuple->Spans(s)) {
        target_slot = s;
        break;
      }
    }
    assert(target_slot >= 0 && "probe tuple already spans all SteM slots");
  }

  DeriveProbeBindings(*ctx_->query, *tuple, target_slot, &binds_scratch_);

  // Restore whatever spilled state the probe may match before it is
  // processed, billing each fault-in's read I/O to this query as a service
  // charge.
  const auto bill = [this](const StemStorage::SpillResult& in) {
    AccrueIoCharge(in);
    if (in.entries > 0) {
      spill_in_series_->Increment(sim()->now(),
                                  static_cast<int64_t>(in.entries));
    }
  };
  const bool faulted = storage_->FaultInForProbe(binds_scratch_, bill);

  if (options_.partition_switch_penalty > 0) {
    last_probed_partition_ = PartitionOf(*tuple);
  }

  storage_->Lookup(*ctx_->query, *tuple, target_slot, binds_scratch_,
                   &candidates_scratch_);
  matcher_.Reset(*ctx_->query, *tuple, target_slot);

  const BuildTs probe_ts = tuple->Timestamp();
  const BuildTs last_match_ts = tuple->last_match_ts();
  const bool pooled = storage_->pooled();
  ++counters_.probes;
  uint32_t matches_this_probe = 0;

  const auto& entries = storage_->entries();
  for (uint32_t id : candidates_scratch_) {
    const StemStorage::Entry& entry = entries[id];
    if (entry.row == nullptr) continue;  // evicted
    // Visibility epoch (docs/sharing.md): on pooled storage an entry's
    // timestamp *for this query* lives in the overlay; entries only other
    // queries built are invisible — the probe must not treat concurrent
    // state as its own, or results would depend on co-running queries.
    BuildTs entry_ts;
    if (pooled) {
      auto it = query_ts_.find(entry.row);
      if (it == query_ts_.end()) continue;
      entry_ts = it->second;
    } else {
      entry_ts = entry.ts;
    }
    if (!ProbeSeesEntry(entry_ts, probe_ts, tuple->exclude_equal_ts(),
                        last_match_ts)) {
      continue;
    }
    TuplePtr concat = matcher_.Match(entry.row, entry_ts);
    if (concat == nullptr) continue;
    ++counters_.matches;
    ++matches_this_probe;
    // Partial-result accounting (online metric, §1.2/§3.4): intermediate
    // spans are the partial results FFF surfaces to users.
    SpanSeries(concat->spanned_mask())->Increment(sim()->now());
    Emit(std::move(concat));
  }

  tuple->MarkProbedStem(target_slot);
  tuple->set_last_probe_matches(matches_this_probe);

  // SteM BounceBack constraint (paper Table 2) for probe tuples.
  const bool covered = eots_.Covers(binds_scratch_);
  bool bounce;
  if (covered) {
    bounce = false;  // all matches provably delivered
  } else if (table_has_index_am_ &&
             (options_.bounce_mode == ProbeBounceMode::kAlways ||
              (options_.bounce_mode == ProbeBounceMode::kPrioritized &&
               tuple->prioritized()))) {
    // Optional bounce (§4.1 / §4.3): give the policy a chance to expedite
    // this probe's matches through an index AM. Because the table has AMs
    // feeding the shared SteM, the policy may also safely retire the tuple
    // instead (when a scan AM exists).
    bounce = true;
  } else if (table_has_scan_am_ && tuple->AllComponentsBuilt()) {
    // Missing matches will find this tuple's components in their SteMs when
    // they arrive from the scan.
    bounce = false;
  } else {
    bounce = true;
  }

  if (bounce) {
    tuple->set_last_match_ts(max_entry_ts_);
    tuple->MarkPriorProber(target_slot);
    ++probes_bounced_;
    bounces_series_->Increment(sim()->now());
    Emit(std::move(tuple));
  }
  // Otherwise the probe tuple leaves the dataflow here: every result it
  // could still contribute to will be generated by later-arriving builds
  // probing the SteMs holding this tuple's components (TimeStamp rule).

  if (faulted) {
    // Synchronous fault-ins grew resident state: let the memory governor
    // rebalance (it will not immediately re-spill the faulted partition)
    // and parked probers reconsider.
    NotifyChange();
  }
}

}  // namespace stems
