// Tests: the §6 global memory governor (eddy-controlled eviction across
// SteMs) and window-join semantics under memory pressure.
#include <gtest/gtest.h>

#include "eddy/memory_governor.h"
#include "tests/test_util.h"

namespace stems {
namespace {

using testing::EddyRun;
using testing::FastConfig;
using testing::IntRows;
using testing::IntSchema;
using testing::MakePolicy;
using testing::PolicyKind;
using testing::ScanSpec;
using testing::TestDb;

std::vector<std::vector<int64_t>> SequentialRows(int n, int64_t offset = 0) {
  std::vector<std::vector<int64_t>> rows;
  for (int i = 0; i < n; ++i) rows.push_back({i + offset});
  return rows;
}

class MemoryGovernorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.AddTable("R", IntSchema({"a"}), IntRows(SequentialRows(50)),
                 {ScanSpec("R.scan")});
    db_.AddTable("S", IntSchema({"x"}), IntRows(SequentialRows(50)),
                 {ScanSpec("S.scan")});
    QueryBuilder qb(db_.catalog);
    qb.AddTable("R").AddTable("S").AddJoin("R.a", "S.x");
    query_ = qb.Build().ValueOrDie();
  }

  TestDb db_;
  QuerySpec query_;
};

TEST_F(MemoryGovernorTest, BudgetEnforcedAcrossStems) {
  ExecutionConfig config = FastConfig();
  config.eddy.memory.global_entry_budget = 30;
  Simulation sim;
  auto eddy = PlanQuery(query_, db_.store, &sim, config).ValueOrDie();
  eddy->SetPolicy(MakePolicy(PolicyKind::kNaryShj));
  eddy->RunToCompletion();
  EXPECT_LE(eddy->memory_governor().TotalEntries(), 30u);
  EXPECT_GT(eddy->memory_governor().total_evicted(), 0u);
  // 100 singletons built, only 30 retained.
  EXPECT_EQ(eddy->StemForTable("R")->num_entries() +
                eddy->StemForTable("S")->num_entries(),
            eddy->memory_governor().TotalEntries());
}

TEST_F(MemoryGovernorTest, UnlimitedBudgetEvictsNothing) {
  ExecutionConfig config = FastConfig();
  Simulation sim;
  auto eddy = PlanQuery(query_, db_.store, &sim, config).ValueOrDie();
  eddy->SetPolicy(MakePolicy(PolicyKind::kNaryShj));
  eddy->RunToCompletion();
  EXPECT_EQ(eddy->memory_governor().total_evicted(), 0u);
  EXPECT_EQ(eddy->memory_governor().TotalEntries(), 100u);
}

TEST_F(MemoryGovernorTest, LargestFirstBalancesSizes) {
  // R scans 4x faster than S: without governance SteM(R) would dwarf
  // SteM(S); largest-first keeps them comparable.
  ExecutionConfig config = FastConfig();
  config.eddy.memory.global_entry_budget = 20;
  config.eddy.memory.victim_policy = MemoryVictimPolicy::kLargestFirst;
  config.scan_overrides["R.scan"].period = Micros(10);
  config.scan_overrides["S.scan"].period = Micros(40);
  Simulation sim;
  auto eddy = PlanQuery(query_, db_.store, &sim, config).ValueOrDie();
  eddy->SetPolicy(MakePolicy(PolicyKind::kNaryShj));
  eddy->Start();
  sim.RunUntil(Micros(800));  // mid-flight
  const size_t r = eddy->StemForTable("R")->num_entries();
  const size_t s = eddy->StemForTable("S")->num_entries();
  EXPECT_LE(r + s, 20u);
  EXPECT_LE(r > s ? r - s : s - r, 17u);  // neither side starved
  sim.Run();
}

TEST_F(MemoryGovernorTest, WindowSemanticsStillSubsetOfFullJoin) {
  // Under memory pressure results are a subset of the full join — never
  // spurious tuples, never duplicates.
  ExecutionConfig config = FastConfig();
  config.eddy.memory.global_entry_budget = 10;
  EddyRun run = RunEddy(query_, db_, config, MakePolicy(PolicyKind::kNaryShj));
  const auto full = BruteForceResultSet(query_, db_.store);
  EXPECT_TRUE(run.duplicates.empty());
  for (const auto& key : run.keys) {
    EXPECT_TRUE(full.count(key) > 0) << "spurious result " << key;
  }
  EXPECT_EQ(run.violations, 0u);
}

// Governor x batched routing: the victim policies must behave identically
// whether rebalances fire per tuple or once per serviced batch (the SteM
// defers its change notification to the end of a batch group).
class MemoryGovernorBatchTest
    : public MemoryGovernorTest,
      public ::testing::WithParamInterface<size_t /*batch_size*/> {};

TEST_P(MemoryGovernorBatchTest, ColdestFirstEnforcesBudget) {
  ExecutionConfig config = FastConfig();
  config.eddy.batch_size = GetParam();
  config.eddy.memory.global_entry_budget = 30;
  config.eddy.memory.victim_policy = MemoryVictimPolicy::kColdestFirst;
  Simulation sim;
  auto eddy = PlanQuery(query_, db_.store, &sim, config).ValueOrDie();
  eddy->SetPolicy(MakePolicy(PolicyKind::kNaryShj));
  eddy->RunToCompletion();
  EXPECT_LE(eddy->memory_governor().TotalEntries(), 30u);
  EXPECT_GT(eddy->memory_governor().total_evicted(), 0u);
  EXPECT_EQ(eddy->memory_governor().total_spilled(), 0u);
  // Eviction = window semantics: a subset of the full join, never
  // spurious rows or duplicates.
  std::vector<std::string> duplicates;
  const auto keys = KeysOf(eddy->results(), &duplicates);
  const auto full = BruteForceResultSet(query_, db_.store);
  EXPECT_TRUE(duplicates.empty());
  for (const auto& key : keys) {
    EXPECT_TRUE(full.count(key) > 0) << "spurious result " << key;
  }
  EXPECT_EQ(eddy->violations().size(), 0u);
}

TEST_P(MemoryGovernorBatchTest, SpillColdestKeepsJoinExact) {
  ExecutionConfig config = FastConfig();
  config.eddy.batch_size = GetParam();
  config.eddy.memory.global_entry_budget = 30;
  config.eddy.memory.victim_policy = MemoryVictimPolicy::kSpillColdest;
  config.eddy.spill.enabled = true;
  Simulation sim;
  auto eddy = PlanQuery(query_, db_.store, &sim, config).ValueOrDie();
  eddy->SetPolicy(MakePolicy(PolicyKind::kNaryShj));
  eddy->RunToCompletion();
  const MemoryGovernor& governor = eddy->memory_governor();
  EXPECT_GT(governor.total_spilled(), 0u);
  EXPECT_EQ(governor.total_evicted(), 0u);
  // Per-SteM spill accounting covers every watched SteM and sums to the
  // governor total.
  uint64_t per_stem_sum = 0;
  ASSERT_EQ(governor.watched().size(), governor.spilled_by_stem().size());
  for (uint64_t n : governor.spilled_by_stem()) per_stem_sum += n;
  EXPECT_EQ(per_stem_sum, governor.total_spilled());
  // Spilling preserves exactness where eviction would drop matches.
  std::vector<std::string> duplicates;
  const auto keys = KeysOf(eddy->results(), &duplicates);
  EXPECT_TRUE(duplicates.empty());
  EXPECT_EQ(keys, BruteForceResultSet(query_, db_.store));
  EXPECT_EQ(eddy->violations().size(), 0u);
  const obs::QueryCounters counters = eddy->Counters();
  EXPECT_GT(counters.spill_ios, 0u);
  EXPECT_GT(counters.bytes_spilled, 0u);
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, MemoryGovernorBatchTest,
                         ::testing::Values(1, 64));

TEST(MemoryGovernorUnitTest, ColdestFirstPrefersUnprobedStem) {
  // Direct unit-level check of the victim policy.
  TestDb db;
  db.AddTable("A", IntSchema({"k"}), IntRows(SequentialRows(5)),
              {ScanSpec("A.scan")});
  db.AddTable("B", IntSchema({"k"}), IntRows(SequentialRows(5)),
              {ScanSpec("B.scan")});
  QueryBuilder qb(db.catalog);
  qb.AddTable("A").AddTable("B").AddJoin("A.k", "B.k");
  QuerySpec q = qb.Build().ValueOrDie();
  Simulation sim;
  QueryContext ctx;
  ctx.query = &q;
  ctx.sim = &sim;
  Stem a(&ctx, "A"), b(&ctx, "B");
  a.SetSink([](TuplePtr, Module*) {});
  b.SetSink([](TuplePtr, Module*) {});
  auto build = [&](Stem& stem, int slot, int64_t v) {
    TuplePtr t = Tuple::MakeSingleton(2, slot, MakeRow({Value::Int64(v)}));
    t->SetRouteInfo(RouteIntent::kBuild, slot);
    stem.Accept(std::move(t));
    sim.Run();
  };
  for (int64_t i = 0; i < 4; ++i) build(a, 0, i);
  for (int64_t i = 0; i < 4; ++i) build(b, 1, i);
  // Probe only SteM(A): it is hot; B is cold.
  TuplePtr probe = Tuple::MakeSingleton(2, 1, MakeRow({Value::Int64(1)}));
  probe->SetBuilt(1, 100);
  probe->SetRouteInfo(RouteIntent::kProbe, 0);
  a.Accept(std::move(probe));
  sim.Run();

  MemoryGovernorOptions opts;
  opts.global_entry_budget = 6;
  opts.victim_policy = MemoryVictimPolicy::kColdestFirst;
  opts.eviction_batch = 2;
  MemoryGovernor governor(opts);
  governor.Watch(&a);
  governor.Watch(&b);
  governor.Rebalance();
  EXPECT_EQ(governor.TotalEntries(), 6u);
  EXPECT_EQ(a.num_entries(), 4u);  // hot SteM untouched
  EXPECT_EQ(b.num_entries(), 2u);  // cold SteM shrunk
}

TEST(MemoryGovernorUnitTest, RebalanceBailsOutWhenNoVictimCanShrink) {
  // kSpillColdest over SteMs that were never EnableSpill()ed: no victim can
  // shrink, so Rebalance must log and bail instead of spinning (the
  // "all SteMs at minimum size" failure mode).
  TestDb db;
  db.AddTable("A", IntSchema({"k"}), IntRows(SequentialRows(6)),
              {ScanSpec("A.scan")});
  db.AddTable("B", IntSchema({"k"}), IntRows(SequentialRows(6)),
              {ScanSpec("B.scan")});
  QueryBuilder qb(db.catalog);
  qb.AddTable("A").AddTable("B").AddJoin("A.k", "B.k");
  QuerySpec q = qb.Build().ValueOrDie();
  Simulation sim;
  QueryContext ctx;
  ctx.query = &q;
  ctx.sim = &sim;
  Stem a(&ctx, "A"), b(&ctx, "B");
  a.SetSink([](TuplePtr, Module*) {});
  b.SetSink([](TuplePtr, Module*) {});
  auto build = [&](Stem& stem, int slot, int64_t v) {
    TuplePtr t = Tuple::MakeSingleton(2, slot, MakeRow({Value::Int64(v)}));
    t->SetRouteInfo(RouteIntent::kBuild, slot);
    stem.Accept(std::move(t));
    sim.Run();
  };
  for (int64_t i = 0; i < 4; ++i) build(a, 0, i);
  for (int64_t i = 0; i < 4; ++i) build(b, 1, i);

  MemoryGovernorOptions opts;
  opts.global_entry_budget = 3;  // unreachable without spill support
  opts.victim_policy = MemoryVictimPolicy::kSpillColdest;
  MemoryGovernor governor(opts);
  governor.Watch(&a);
  governor.Watch(&b);
  governor.Rebalance();  // must return (bail), not loop forever
  EXPECT_EQ(governor.TotalEntries(), 8u);  // nothing shrank
  EXPECT_EQ(governor.total_spilled(), 0u);
  EXPECT_EQ(governor.total_evicted(), 0u);
}

}  // namespace
}  // namespace stems
