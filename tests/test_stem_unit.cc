// Unit tests: the SteM module in isolation — build/probe mechanics, the
// SteM BounceBack and TimeStamp constraints (paper Table 2), set-semantics
// dedup, EOT coverage, eviction, index implementations, Grace mode, and
// spill partitions that leave and return in place.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "spill/buffer_pool.h"
#include "stem/eot_store.h"
#include "stem/stem.h"
#include "stem/stem_index.h"
#include "tests/test_util.h"

namespace stems {
namespace {

using testing::IndexSpec;
using testing::IntSchema;
using testing::ScanSpec;
using testing::TestDb;

// --- StemIndex implementations ----------------------------------------------

TEST(StemIndexTest, HashInsertLookup) {
  auto idx = MakeStemIndex(StemIndexImpl::kHash);
  idx->Insert(Value::Int64(1), 10);
  idx->Insert(Value::Int64(1), 11);
  idx->Insert(Value::Int64(2), 12);
  std::vector<uint32_t> out;
  idx->LookupEq(Value::Int64(1), &out);
  EXPECT_EQ(out.size(), 2u);
  out.clear();
  idx->LookupEq(Value::Int64(9), &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(idx->size(), 3u);
  EXPECT_STREQ(idx->impl_name(), "hash");
  EXPECT_FALSE(idx->LookupRange(nullptr, true, nullptr, true, &out));
}

TEST(StemIndexTest, OrderedRangeLookup) {
  auto idx = MakeStemIndex(StemIndexImpl::kOrdered);
  for (int i = 0; i < 10; ++i) {
    idx->Insert(Value::Int64(i), static_cast<uint32_t>(i));
  }
  std::vector<uint32_t> out;
  Value lo = Value::Int64(3), hi = Value::Int64(6);
  EXPECT_TRUE(idx->LookupRange(&lo, true, &hi, true, &out));
  EXPECT_EQ(out, (std::vector<uint32_t>{3, 4, 5, 6}));
  out.clear();
  EXPECT_TRUE(idx->LookupRange(&lo, false, &hi, false, &out));
  EXPECT_EQ(out, (std::vector<uint32_t>{4, 5}));
  out.clear();
  EXPECT_TRUE(idx->LookupRange(nullptr, true, &lo, true, &out));
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 1, 2, 3}));
}

TEST(StemIndexTest, AdaptiveUpgradesListToHash) {
  // Paper §3.1: "the SteM may use a linked list when it holds a small
  // number of tuples, and switch to a hash-based implementation when the
  // list size increases ... independent of other modules."
  AdaptiveStemIndex idx(/*upgrade_threshold=*/4);
  for (int i = 0; i < 4; ++i) {
    idx.Insert(Value::Int64(i), static_cast<uint32_t>(i));
  }
  EXPECT_STREQ(idx.impl_name(), "list");
  idx.Insert(Value::Int64(4), 4);
  EXPECT_STREQ(idx.impl_name(), "hash");
  EXPECT_EQ(idx.size(), 5u);
  std::vector<uint32_t> out;
  idx.LookupEq(Value::Int64(2), &out);  // survives the upgrade
  EXPECT_EQ(out, (std::vector<uint32_t>{2}));
}

// --- EotStore ---------------------------------------------------------------

TEST(EotStoreTest, EqualityCoverage) {
  EotStore store;
  // EOT for probe x=5 on schema (x, y).
  store.Add(MakeEotRowRef({Value::Int64(5), Value::Eot()}));
  EXPECT_TRUE(store.Covers({{0, Value::Int64(5)}}));
  EXPECT_FALSE(store.Covers({{0, Value::Int64(6)}}));
  EXPECT_FALSE(store.Covers({{1, Value::Int64(5)}}));  // different column
  // A probe binding MORE columns is still covered (subset rule).
  EXPECT_TRUE(store.Covers({{0, Value::Int64(5)}, {1, Value::Int64(9)}}));
  // An unbound probe is not covered.
  EXPECT_FALSE(store.Covers({}));
}

TEST(EotStoreTest, FullCoverageFromScanEot) {
  EotStore store;
  EXPECT_FALSE(store.HasFullCoverage());
  store.Add(MakeEotRowRef({Value::Eot(), Value::Eot()}));
  EXPECT_TRUE(store.HasFullCoverage());
  EXPECT_TRUE(store.Covers({}));
  EXPECT_TRUE(store.Covers({{1, Value::Int64(3)}}));
}

TEST(EotStoreTest, DuplicatesIgnored) {
  EotStore store;
  store.Add(MakeEotRowRef({Value::Int64(5), Value::Eot()}));
  store.Add(MakeEotRowRef({Value::Int64(5), Value::Eot()}));
  EXPECT_EQ(store.size(), 1u);
}

// --- SteM module --------------------------------------------------------------

/// Harness: a two-table query R(a) join S(x, p); SteM under test on S.
class StemTest : public ::testing::Test {
 protected:
  void SetUp() override { Init({ScanSpec("S.scan")}); }

  void Init(std::vector<AccessMethodSpec> s_ams, StemOptions options = {}) {
    db_ = std::make_unique<TestDb>();
    db_->AddTable("R", IntSchema({"a"}), {}, {ScanSpec("R.scan")});
    db_->AddTable("S", IntSchema({"x", "p"}), {}, std::move(s_ams));
    QueryBuilder qb(db_->catalog);
    qb.AddTable("R").AddTable("S").AddJoin("R.a", "S.x");
    query_ = qb.Build().ValueOrDie();
    ctx_.query = &query_;
    ctx_.sim = &sim_;
    stem_ = std::make_unique<Stem>(&ctx_, "S", options);
    out_.clear();
    stem_->SetSink([this](TuplePtr t, Module*) { out_.push_back(std::move(t)); });
  }

  /// Builds the S row (x, p) into the SteM; returns emitted count delta.
  void BuildS(int64_t x, int64_t p) {
    TuplePtr t = Tuple::MakeSingleton(
        2, 1, MakeRow({Value::Int64(x), Value::Int64(p)}));
    t->SetRouteInfo(RouteIntent::kBuild, 1);
    stem_->Accept(std::move(t));
    sim_.Run();
  }

  /// Probes with an R singleton of value a (optionally pre-built at ts).
  TuplePtr ProbeR(int64_t a, BuildTs ts = kTsInfinity) {
    TuplePtr t = Tuple::MakeSingleton(2, 0, MakeRow({Value::Int64(a)}));
    if (ts != kTsInfinity) t->SetBuilt(0, ts);
    t->SetRouteInfo(RouteIntent::kProbe, 1);
    stem_->Accept(t);
    sim_.Run();
    return t;
  }

  /// Emitted tuples that are concatenated matches (span both slots).
  std::vector<TuplePtr> Matches() const {
    std::vector<TuplePtr> m;
    for (const auto& t : out_) {
      if (t->spanned_mask() == 0b11) m.push_back(t);
    }
    return m;
  }

  /// Makes the SteM under test spillable: `partitions` hash partitions on
  /// S.x, small pages so runs span several of them.
  void EnableSpill(size_t partitions) {
    SpillOptions so;
    so.enabled = true;
    so.partitions = partitions;
    so.page_entries = 4;
    so.pool_frames = 2;
    pool_ = std::make_unique<BufferPool>(so);
    stem_->EnableSpill(pool_.get(), so);
  }

  /// Smallest S.x whose rows hash to spill partition `p`.
  int64_t KeyInPartition(size_t p) const {
    for (int64_t x = 0;; ++x) {
      if (stem_->storage()->SpillPartitionOfRow(
              *MakeRow({Value::Int64(x), Value::Int64(0)})) == p) {
        return x;
      }
    }
  }

  /// Build timestamps of the live slots, in slot order.
  std::vector<BuildTs> LiveTimestamps() const {
    std::vector<BuildTs> ts;
    for (const auto& e : stem_->storage()->entries()) {
      if (e.row != nullptr) ts.push_back(e.ts);
    }
    return ts;
  }

  std::unique_ptr<TestDb> db_;
  QuerySpec query_;
  Simulation sim_;
  QueryContext ctx_;
  std::unique_ptr<BufferPool> pool_;  // outlives stem_ (declared first)
  std::unique_ptr<Stem> stem_;
  std::vector<TuplePtr> out_;
};

TEST_F(StemTest, BuildAssignsTimestampAndBounces) {
  TuplePtr t = Tuple::MakeSingleton(
      2, 1, MakeRow({Value::Int64(1), Value::Int64(2)}));
  t->SetRouteInfo(RouteIntent::kBuild, 1);
  stem_->Accept(t);
  sim_.Run();
  ASSERT_EQ(out_.size(), 1u);          // bounced back
  EXPECT_EQ(out_[0].get(), t.get());   // the same tuple
  EXPECT_NE(t->Timestamp(), kTsInfinity);
  EXPECT_EQ(stem_->num_entries(), 1u);
  EXPECT_EQ(stem_->builds(), 1u);
}

TEST_F(StemTest, DuplicateBuildAbsorbedNotBounced) {
  BuildS(1, 2);
  out_.clear();
  BuildS(1, 2);  // identical content
  EXPECT_TRUE(out_.empty());  // absorbed (paper §3.2): no bounce, no probe
  EXPECT_EQ(stem_->num_entries(), 1u);
  EXPECT_EQ(stem_->duplicates_absorbed(), 1u);
}

TEST_F(StemTest, ProbeFindsMatchesAndEvaluatesPredicates) {
  BuildS(5, 50);
  BuildS(5, 51);
  BuildS(6, 60);
  out_.clear();
  ProbeR(5);
  auto matches = Matches();
  ASSERT_EQ(matches.size(), 2u);
  for (const auto& m : matches) {
    EXPECT_TRUE(m->PassedPredicate(0));  // join predicate marked passed
    EXPECT_EQ(m->ValueAt(1, 0)->AsInt64(), 5);
  }
}

TEST_F(StemTest, TimestampConstraintFiltersNewerEntries) {
  // Paper §3.1 TimeStamp rule: probe t sees match m iff ts(t) >= ts(m).
  BuildS(5, 50);  // ts 1
  BuildS(5, 51);  // ts 2
  out_.clear();
  ProbeR(5, /*ts=*/1);  // built between the two S rows
  EXPECT_EQ(Matches().size(), 1u);
  out_.clear();
  ProbeR(5, /*ts=*/2);
  EXPECT_EQ(Matches().size(), 2u);
  out_.clear();
  ProbeR(5, kTsInfinity);  // unbuilt probe sees everything
  EXPECT_EQ(Matches().size(), 2u);
}

TEST_F(StemTest, ExcludeEqualTsForRetargetProbes) {
  BuildS(5, 50);  // ts 1
  out_.clear();
  TuplePtr t = Tuple::MakeSingleton(2, 0, MakeRow({Value::Int64(5)}));
  t->SetBuilt(0, 1);  // tie
  t->SetRouteInfo(RouteIntent::kProbe, 1, /*exclude_equal_ts=*/true);
  stem_->Accept(t);
  sim_.Run();
  EXPECT_TRUE(Matches().empty());  // strict comparison excludes the tie
}

TEST_F(StemTest, LastMatchTimestampSkipsSeenEntries) {
  // §3.5 re-probe path: only entries newer than last_match_ts are returned.
  BuildS(5, 50);  // ts 1
  BuildS(5, 51);  // ts 2
  out_.clear();
  TuplePtr t = Tuple::MakeSingleton(2, 0, MakeRow({Value::Int64(5)}));
  t->set_last_match_ts(1);
  t->SetRouteInfo(RouteIntent::kProbe, 1);
  stem_->Accept(t);
  sim_.Run();
  EXPECT_EQ(Matches().size(), 1u);  // only ts 2
}

TEST_F(StemTest, ProbeNotBouncedWhenScanAmExistsAndBuilt) {
  // Table 2 BounceBack: S has a scan AM and the probe is fully built.
  BuildS(5, 50);
  out_.clear();
  ProbeR(7, /*ts=*/5);  // no matches, but no bounce either
  EXPECT_TRUE(out_.empty());
  EXPECT_EQ(stem_->probes_bounced(), 0u);
}

TEST_F(StemTest, ProbeBouncedWhenUnbuiltComponent) {
  // Relaxed-BuildFirst probes (ts infinity) must bounce: their matches
  // cannot rendezvous through other SteMs.
  out_.clear();
  TuplePtr t = ProbeR(7, kTsInfinity);
  ASSERT_EQ(out_.size(), 1u);
  EXPECT_TRUE(t->IsPriorProber());
  EXPECT_EQ(t->probe_completion_slot(), 1);
  EXPECT_EQ(t->last_match_ts(), stem_->max_entry_ts());
}

TEST_F(StemTest, ProbeBouncedOnIndexOnlyTableUntilEotCovered) {
  Init({IndexSpec("S.idx", {0})});
  BuildS(5, 50);
  out_.clear();
  TuplePtr t = ProbeR(5, /*ts=*/5);
  // Matches returned AND bounced: coverage unknown.
  EXPECT_EQ(Matches().size(), 1u);
  EXPECT_TRUE(t->IsPriorProber());
  // Now build the EOT for x=5 — later probes are covered.
  TuplePtr eot = Tuple::MakeSingleton(
      2, 1, MakeEotRowRef({Value::Int64(5), Value::Eot()}));
  eot->SetRouteInfo(RouteIntent::kBuild, 1);
  stem_->Accept(std::move(eot));
  sim_.Run();
  out_.clear();
  TuplePtr t2 = ProbeR(5, /*ts=*/6);
  EXPECT_EQ(Matches().size(), 1u);
  EXPECT_FALSE(t2->IsPriorProber());  // covered: not bounced
}

TEST_F(StemTest, BounceModeAlwaysOverridesScanRule) {
  Init({ScanSpec("S.scan"), IndexSpec("S.idx", {0})},
       [] {
         StemOptions o;
         o.bounce_mode = ProbeBounceMode::kAlways;
         return o;
       }());
  BuildS(5, 50);
  out_.clear();
  TuplePtr t = ProbeR(5, /*ts=*/5);
  EXPECT_TRUE(t->IsPriorProber());  // bounced despite scan AM
}

TEST_F(StemTest, PrioritizedBounceMode) {
  Init({ScanSpec("S.scan"), IndexSpec("S.idx", {0})},
       [] {
         StemOptions o;
         o.bounce_mode = ProbeBounceMode::kPrioritized;
         return o;
       }());
  BuildS(5, 50);
  out_.clear();
  TuplePtr plain = ProbeR(5, /*ts=*/5);
  EXPECT_FALSE(plain->IsPriorProber());
  TuplePtr hot = Tuple::MakeSingleton(2, 0, MakeRow({Value::Int64(5)}));
  hot->SetBuilt(0, 6);
  hot->set_prioritized(true);
  hot->SetRouteInfo(RouteIntent::kProbe, 1);
  stem_->Accept(hot);
  sim_.Run();
  EXPECT_TRUE(hot->IsPriorProber());
}

TEST_F(StemTest, EvictionSlidingWindow) {
  StemOptions o;
  o.max_entries = 2;
  Init({ScanSpec("S.scan")}, o);
  BuildS(1, 10);
  BuildS(2, 20);
  BuildS(3, 30);
  EXPECT_EQ(stem_->num_entries(), 2u);
  EXPECT_EQ(stem_->evictions(), 1u);
  out_.clear();
  ProbeR(1, /*ts=*/9);
  EXPECT_TRUE(Matches().empty());  // oldest row evicted
  out_.clear();
  ProbeR(3, /*ts=*/9);
  EXPECT_EQ(Matches().size(), 1u);
  // Re-inserting an evicted row is NOT a duplicate (dedup set was purged).
  out_.clear();
  BuildS(1, 10);
  EXPECT_EQ(stem_->duplicates_absorbed(), 0u);
}

TEST_F(StemTest, SpillCyclesKeepSlotsAndIndexesBounded) {
  // A partition leaves and returns in place: repeated spill/fault-in
  // cycles must not grow the entry array or the index postings.
  EnableSpill(/*partitions=*/1);
  for (int64_t i = 0; i < 16; ++i) BuildS(i % 4, i);  // 4 rows per key
  StemStorage& storage = *stem_->storage();

  auto sorted_match_payloads = [this] {
    std::vector<int64_t> p;
    for (const auto& m : Matches()) p.push_back(m->ValueAt(1, 1)->AsInt64());
    std::sort(p.begin(), p.end());
    return p;
  };
  out_.clear();
  ProbeR(2, /*ts=*/100);
  const std::vector<int64_t> before = sorted_match_payloads();
  ASSERT_EQ(before, (std::vector<int64_t>{2, 6, 10, 14}));

  // First cycle: the dirty spill writes the run; the fault-in reads it.
  const StemStorage::SpillResult first = storage.SpillColdestPartition();
  EXPECT_EQ(first.entries, 16u);
  EXPECT_GT(first.ios, 0u);
  EXPECT_EQ(stem_->num_entries(), 0u);
  EXPECT_EQ(storage.FaultInPartition(0).entries, 16u);
  const size_t slots = storage.entries().size();
  std::vector<size_t> postings;
  for (const auto& [col, index] : storage.indexes()) {
    postings.push_back(index->size());
  }
  EXPECT_EQ(slots, 16u);

  for (int cycle = 0; cycle < 50; ++cycle) {
    const StemStorage::SpillResult out = storage.SpillColdestPartition();
    EXPECT_EQ(out.entries, 16u);
    EXPECT_EQ(out.ios, 0u) << "clean re-spill wrote the run again";
    EXPECT_EQ(stem_->num_entries(), 0u);
    EXPECT_EQ(stem_->partitions_spilled(), 1u);
    // The probe faults the partition back in (kFaultIn) and sees it whole.
    out_.clear();
    ProbeR(2, /*ts=*/100);
    ASSERT_EQ(sorted_match_payloads(), before) << "cycle " << cycle;
    EXPECT_EQ(stem_->num_entries(), 16u);
    ASSERT_EQ(storage.entries().size(), slots) << "cycle " << cycle;
    for (size_t i = 0; i < postings.size(); ++i) {
      ASSERT_EQ(storage.indexes()[i].second->size(), postings[i])
          << "cycle " << cycle;
    }
  }
  EXPECT_EQ(stem_->duplicates_absorbed(), 0u);
}

TEST_F(StemTest, RowsBuiltWhileSpilledGetOneSlot) {
  EnableSpill(/*partitions=*/1);
  for (int64_t i = 0; i < 8; ++i) BuildS(i % 2, i);
  StemStorage& storage = *stem_->storage();
  storage.SpillColdestPartition();
  BuildS(1, 100);  // appended to the run; no slot while spilled
  BuildS(1, 101);
  EXPECT_EQ(storage.entries().size(), 8u);
  BuildS(1, 100);  // dedup identity survives spill
  EXPECT_EQ(stem_->duplicates_absorbed(), 1u);

  EXPECT_EQ(storage.FaultInPartition(0).entries, 10u);
  EXPECT_EQ(storage.entries().size(), 10u);
  // The restored partition matches its run, so the next cycles are clean
  // and slot nothing new.
  for (int cycle = 0; cycle < 3; ++cycle) {
    EXPECT_EQ(storage.SpillColdestPartition().ios, 0u);
    EXPECT_EQ(storage.FaultInPartition(0).entries, 10u);
  }
  EXPECT_EQ(storage.entries().size(), 10u);
  EXPECT_EQ(storage.indexes().front().second->size(), 10u);
  out_.clear();
  ProbeR(1, /*ts=*/100);
  EXPECT_EQ(Matches().size(), 6u);
}

TEST_F(StemTest, WindowedEvictionReachesRowsRestoredInPlace) {
  // max_entries and spill together on private storage: while a partition
  // is on disk the eviction cursor passes its slots; restoring it must
  // make them evictable again, oldest build first.
  StemOptions o;
  o.max_entries = 6;
  Init({ScanSpec("S.scan")}, o);
  EnableSpill(/*partitions=*/2);
  StemStorage& storage = *stem_->storage();
  const int64_t ka = KeyInPartition(0);
  const int64_t kb = KeyInPartition(1);
  const size_t pa = 0;
  for (int64_t i = 0; i < 4; ++i) BuildS(ka, i);  // ts 1..4, slots 0..3
  for (int64_t i = 0; i < 2; ++i) BuildS(kb, i);  // ts 5..6, slots 4..5
  // Coldest-partition tie goes to the larger one: A.
  ASSERT_EQ(storage.SpillColdestPartition().entries, 4u);
  ASSERT_FALSE(storage.PartitionResident(pa));
  // A's slots stay in place, hidden from probes while on disk.
  std::vector<uint32_t> ids{0, 1, 2, 3, 4, 5};
  storage.DropSpilled(&ids);
  EXPECT_EQ(ids, (std::vector<uint32_t>{4, 5}));
  EXPECT_EQ(storage.entries().size(), 6u);
  // Five more B builds: the window overflows once, and the cursor passes
  // A's four spilled slots to evict B's oldest row (ts 5).
  for (int64_t i = 2; i < 7; ++i) BuildS(kb, i);
  EXPECT_EQ(stem_->evictions(), 1u);
  EXPECT_EQ(stem_->num_entries(), 6u);

  EXPECT_EQ(storage.FaultInPartition(pa).entries, 4u);
  EXPECT_EQ(stem_->num_entries(), 10u);
  // The restored rows are the oldest live ones and go first, in build order.
  for (BuildTs expected = 1; expected <= 4; ++expected) {
    ASSERT_EQ(LiveTimestamps().front(), expected);
    ASSERT_EQ(stem_->EvictOldest(1), 1u);
    const std::vector<BuildTs> live = LiveTimestamps();
    EXPECT_EQ(std::count(live.begin(), live.end(), expected), 0);
  }
  EXPECT_EQ(LiveTimestamps().front(), 6u);
  // None is kept forever: the window can drain completely.
  EXPECT_EQ(stem_->EvictOldest(100), 6u);
  EXPECT_EQ(stem_->num_entries(), 0u);
  EXPECT_TRUE(LiveTimestamps().empty());
}

TEST_F(StemTest, GraceModeDefersBouncesUntilBatchOrFlush) {
  StemOptions o;
  o.num_partitions = 4;
  o.bounce_batch = 3;
  Init({ScanSpec("S.scan")}, o);
  // Builds with the same partition key hash together.
  for (int i = 0; i < 2; ++i) {
    TuplePtr t = Tuple::MakeSingleton(
        2, 1, MakeRow({Value::Int64(8), Value::Int64(i)}));
    t->SetRouteInfo(RouteIntent::kBuild, 1);
    stem_->Accept(std::move(t));
  }
  sim_.Run();
  EXPECT_TRUE(out_.empty());  // deferred (batch of 3 not reached)
  EXPECT_EQ(stem_->num_entries(), 2u);  // but stored immediately
  stem_->FlushDeferredBounces();
  EXPECT_EQ(out_.size(), 2u);  // clustered release
}

TEST_F(StemTest, ServesSlotAndIndexImpl) {
  EXPECT_TRUE(stem_->ServesSlot(1));
  EXPECT_FALSE(stem_->ServesSlot(0));
  EXPECT_EQ(stem_->IndexImplFor(0), "hash");  // join column S.x
  EXPECT_EQ(stem_->IndexImplFor(1), "");      // p is not a join column
}

TEST_F(StemTest, ProbeBindingsExtraction) {
  TuplePtr t = Tuple::MakeSingleton(2, 0, MakeRow({Value::Int64(9)}));
  ProbeBindings binds;
  DeriveProbeBindings(query_, *t, 1, &binds);
  ASSERT_EQ(binds.size(), 1u);
  EXPECT_EQ(binds[0].first, 0);                // S.x
  EXPECT_EQ(binds[0].second.AsInt64(), 9);
}

}  // namespace
}  // namespace stems
