// Engine façade: Submit/cursor streaming, cancellation, and multi-query
// interleaving on the shared simulation clock; the threaded executor's
// streaming lifecycle (Wait without a cursor, stop-and-join on a dropped
// handle or a destroyed engine, live spill counters).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "exec/result_channel.h"
#include "query/planner.h"
#include "reference/brute_force.h"
#include "tests/test_util.h"

namespace stems {
namespace {

using testing::IntRows;
using testing::IntSchema;
using testing::ScanSpec;

/// Adds fan_l(k, id) and fan_r(k, id): `n` distinct rows each, keys
/// alternating between two values, so fan_l ⋈ fan_r on k has n*n/2
/// results — 20,000 for n = 200, far beyond the result channel's bound.
void AddFanOutTables(Engine* engine, int64_t n = 200) {
  for (const std::string name : {"fan_l", "fan_r"}) {
    std::vector<std::vector<int64_t>> rows;
    for (int64_t i = 0; i < n; ++i) rows.push_back({i % 2, i});
    TableDef def{name, IntSchema({"k", "id"}), {ScanSpec(name + ".scan")}};
    ASSERT_TRUE(engine->AddTable(std::move(def), IntRows(rows)).ok());
  }
}

QuerySpec FanOutQuery(const Engine& engine) {
  QueryBuilder qb(engine.catalog());
  qb.AddTable("fan_l").AddTable("fan_r").AddJoin("fan_l.k", "fan_r.k");
  return qb.Build().ValueOrDie();
}

/// Two workers, small morsels: a run that cannot finish until its reader
/// has taken most of its 20,000 rows out of the bounded channel.
RunOptions SmallMorselThreaded() {
  RunOptions options = RunOptions::Threaded(2);
  options.batch_size = 8;
  return options;
}

/// users ⋈ orders ⋈ items with an age selection — the quickstart query.
/// Expected results: users 1 and 2 pass age >= 30; user 1 has two orders,
/// user 2 one; every ordered item exists. Cardinality 3.
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .AddTable(TableDef{"users", IntSchema({"id", "age"}),
                                       {ScanSpec("users.scan")}},
                              IntRows({{1, 34}, {2, 57}, {3, 25}}))
                    .ok());
    ASSERT_TRUE(engine_
                    .AddTable(TableDef{"orders",
                                       IntSchema({"user_id", "item_id"}),
                                       {ScanSpec("orders.scan")}},
                              IntRows({{1, 10}, {1, 11}, {2, 10}, {3, 12}}))
                    .ok());
    ASSERT_TRUE(engine_
                    .AddTable(TableDef{"items", IntSchema({"id", "price"}),
                                       {ScanSpec("items.scan")}},
                              IntRows({{10, 999}, {11, 25}, {12, 150}}))
                    .ok());
  }

  QuerySpec ThreeWayQuery() {
    QueryBuilder qb(engine_.catalog());
    qb.AddTable("users", "u").AddTable("orders", "o").AddTable("items", "i");
    qb.AddJoin("u.id", "o.user_id").AddJoin("o.item_id", "i.id");
    qb.AddSelection("u.age", CompareOp::kGe, Value::Int64(30));
    return qb.Build().ValueOrDie();
  }

  QuerySpec TwoWayQuery() {
    QueryBuilder qb(engine_.catalog());
    qb.AddTable("orders", "o").AddTable("items", "i");
    qb.AddJoin("o.item_id", "i.id");
    return qb.Build().ValueOrDie();
  }

  /// A join whose "bulk" side streams 2000 rows — slow enough to cancel
  /// mid-flight, with matches from the first row so a cursor gets a result
  /// long before the scan ends. Registers the table on first use.
  QuerySpec BulkQuery() {
    if (!engine_.catalog().GetTable("bulk").ok()) {
      std::vector<std::vector<int64_t>> rows;
      for (int64_t i = 0; i < 2000; ++i) rows.push_back({10 + (i % 3)});
      EXPECT_TRUE(engine_
                      .AddTable(TableDef{"bulk", IntSchema({"item"}),
                                         {ScanSpec("bulk.scan")}},
                                IntRows(rows))
                      .ok());
    }
    QueryBuilder qb(engine_.catalog());
    qb.AddTable("bulk").AddTable("items", "i");
    qb.AddJoin("bulk.item", "i.id");
    return qb.Build().ValueOrDie();
  }

  Engine engine_;
};

TEST_F(EngineTest, SubmitRejectsUnknownPolicy) {
  RunOptions options;
  options.policy = "optimizer";
  auto handle = engine_.Submit(ThreeWayQuery(), options);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, AddTableRejectsDuplicates) {
  Status st = engine_.AddTable(
      TableDef{"users", IntSchema({"id"}), {ScanSpec("users.scan2")}},
      IntRows({{1}}));
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
}

TEST_F(EngineTest, AddTableFailureLeavesCatalogAndStoreConsistent) {
  // Rows pre-loaded through the store() escape hatch: AddTable must fail
  // without registering a catalog entry, so a corrected retry can succeed.
  ASSERT_TRUE(
      engine_.store().AddTable("pre", IntSchema({"k"}), IntRows({{1}})).ok());
  Status st = engine_.AddTable(
      TableDef{"pre", IntSchema({"k"}), {ScanSpec("pre.scan")}},
      IntRows({{2}}));
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(engine_.catalog().GetTable("pre").ok())
      << "failed AddTable left a catalog entry behind";
}

TEST_F(EngineTest, DrainMatchesBruteForceAndPlanQueryPath) {
  const QuerySpec query = ThreeWayQuery();

  // New façade path.
  QueryHandle handle = engine_.Submit(query).ValueOrDie();
  std::vector<TuplePtr> streamed = handle.cursor().Drain();
  EXPECT_EQ(streamed.size(), 3u);
  EXPECT_TRUE(handle.done());

  // Ground truth.
  const std::set<std::string> expected =
      BruteForceResultSet(query, engine_.store());
  EXPECT_EQ(KeysOf(streamed), expected);

  // Old low-level escape hatch produces the identical result set.
  Simulation sim;
  auto eddy = PlanQuery(query, engine_.store(), &sim).ValueOrDie();
  eddy->SetPolicy(
      PolicyRegistry::Global().Create("nary_shj").ValueOrDie());
  eddy->RunToCompletion();
  EXPECT_EQ(KeysOf(eddy->results()), expected);
  EXPECT_EQ(eddy->results().size(), streamed.size());
}

TEST_F(EngineTest, CursorStreamsInProductionOrder) {
  QueryHandle handle = engine_.Submit(ThreeWayQuery()).ValueOrDie();
  ResultCursor cursor = handle.cursor();

  std::vector<TuplePtr> pulled;
  while (auto t = cursor.Next()) pulled.push_back(*t);
  EXPECT_EQ(pulled.size(), 3u);
  // Next() past the end keeps returning nullopt.
  EXPECT_FALSE(cursor.Next().has_value());

  // The pull stream is exactly the eddy's push output, in order.
  const auto& pushed = handle.eddy()->results();
  ASSERT_EQ(pulled.size(), pushed.size());
  for (size_t i = 0; i < pulled.size(); ++i) {
    EXPECT_EQ(pulled[i].get(), pushed[i].get()) << "at index " << i;
  }
  EXPECT_EQ(cursor.consumed(), 3u);
}

TEST_F(EngineTest, DrainEqualsPushTotals) {
  // Drain() on a half-consumed cursor returns exactly the rest.
  QueryHandle handle = engine_.Submit(ThreeWayQuery()).ValueOrDie();
  ResultCursor cursor = handle.cursor();
  ASSERT_TRUE(cursor.Next().has_value());
  std::vector<TuplePtr> rest = cursor.Drain();
  EXPECT_EQ(rest.size(), 2u);
  EXPECT_EQ(handle.Stats().num_results, 3u);
  EXPECT_EQ(handle.Stats().constraint_violations, 0u);
  EXPECT_NE(handle.Stats().completed_at, kSimTimeNever);
}

TEST_F(EngineTest, CursorAfterCancelReturnsNothing) {
  QueryHandle handle = engine_.Submit(ThreeWayQuery()).ValueOrDie();
  ResultCursor cursor = handle.cursor();
  ASSERT_TRUE(cursor.Next().has_value());  // query is producing

  handle.Cancel();
  EXPECT_TRUE(handle.done());
  EXPECT_TRUE(handle.Stats().cancelled);
  EXPECT_FALSE(cursor.Next().has_value());
  EXPECT_TRUE(cursor.Drain().empty());
  EXPECT_EQ(engine_.active_queries(), 0u);

  // The engine remains usable: a fresh submission completes normally.
  QueryHandle again = engine_.Submit(ThreeWayQuery()).ValueOrDie();
  EXPECT_EQ(again.cursor().Drain().size(), 3u);
}

TEST_F(EngineTest, CancelBeforeFirstResult) {
  QueryHandle handle = engine_.Submit(ThreeWayQuery()).ValueOrDie();
  handle.Cancel();
  EXPECT_TRUE(handle.cursor().Drain().empty());
  EXPECT_EQ(handle.Stats().num_results, 0u);
}

TEST_F(EngineTest, CancelHaltsScanStreams) {
  // A cancelled query's scans must stop self-scheduling: otherwise every
  // later query on the shared clock pays for the dead stream's events.
  QueryHandle handle = engine_.Submit(BulkQuery()).ValueOrDie();
  handle.Cancel();

  // A second query drains normally, and the whole clock goes idle without
  // the cancelled scan delivering its 2000 rows.
  QueryHandle other = engine_.Submit(TwoWayQuery()).ValueOrDie();
  EXPECT_EQ(other.cursor().Drain().size(), 4u);
  engine_.sim().Run();
  const auto& scans = handle.eddy()->ScanAmsForSlot(0);
  ASSERT_EQ(scans.size(), 1u);
  EXPECT_TRUE(scans[0]->finished());
  EXPECT_LT(scans[0]->rows_emitted(), scans[0]->total_rows());
}

TEST_F(EngineTest, PruneAfterCancelWaitsForPendingEvents) {
  // Regression (use-after-free): cancelling and dropping the handle leaves
  // the engine holding the last reference while the cancelled scan's
  // already-scheduled emission event still points at its module. The prune
  // must wait for the eddy to go quiescent before destroying it. The slow
  // scan period puts that pending event far beyond the second query's
  // events, i.e. after several prune opportunities.
  {
    RunOptions slow;
    slow.exec.scan_overrides["bulk.scan"].period = Seconds(1);
    QueryHandle doomed = engine_.Submit(BulkQuery(), slow).ValueOrDie();
    (void)doomed.cursor().Next();
    doomed.Cancel();
  }  // handle dropped — engine owns the cancelled execution alone

  // A long second query pumps through many prune opportunities before the
  // clock reaches the dead query's pending event; under ASan the old prune
  // destroyed the cancelled eddy in one of them and crashed when the event
  // fired.
  // (2000 scanned rows hold only 3 distinct values; SteM set semantics
  // dedup them, so the join yields 3 results from thousands of events.)
  QueryHandle other = engine_.Submit(BulkQuery()).ValueOrDie();
  EXPECT_EQ(other.cursor().Drain().size(), 3u);
  engine_.sim().Run();
  engine_.RunAll();
  EXPECT_EQ(engine_.active_queries(), 0u);
}

/// A module that claims in-flight work forever: Quiescent() is false with
/// no event ever scheduled — the shape of a module bug that loses track of
/// a tuple. The engine must fail closed *and say so*.
class StuckModule : public Module {
 public:
  explicit StuckModule(Simulation* sim) : Module(sim, "stuck") {}
  ModuleKind kind() const override { return ModuleKind::kOperator; }
  bool Quiescent() const override { return false; }

 protected:
  SimTime ServiceTime(const Tuple&) const override { return 0; }
  void Process(TuplePtr) override {}
};

TEST_F(EngineTest, StuckModuleSurfacesErrorInsteadOfSilentTruncation) {
  // Regression: Engine::PumpUntilResult used to fabricate completion when
  // the clock idled with a non-quiescent eddy — callers got a truncated
  // result set that looked complete. The stream still ends (fail closed,
  // no spin), but the handle and cursor now carry a non-OK status.
  QueryHandle handle = engine_.Submit(ThreeWayQuery()).ValueOrDie();
  handle.eddy()->AddModule(std::make_unique<StuckModule>(&engine_.sim()));

  ResultCursor cursor = handle.cursor();
  const std::vector<TuplePtr> results = cursor.Drain();
  EXPECT_EQ(results.size(), 3u);  // everything produced before the wedge
  EXPECT_TRUE(handle.done());
  EXPECT_FALSE(handle.Stats().cancelled);
  EXPECT_FALSE(handle.status().ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kInternal);
  EXPECT_EQ(cursor.status().code(), StatusCode::kInternal);

  // A healthy query on the same engine completes with an OK status.
  QueryHandle healthy = engine_.Submit(TwoWayQuery()).ValueOrDie();
  EXPECT_EQ(healthy.cursor().Drain().size(), 4u);
  EXPECT_TRUE(healthy.status().ok());
}

TEST_F(EngineTest, CancelInterleavedWithAnotherCursorsDrain) {
  // Regression companion to PruneAfterCancelWaitsForPendingEvents, shaped
  // as the use-after-free hazard documented in Engine::CheckCompletions:
  // one query's cursor is mid-Drain on the shared clock while another
  // query is cancelled and dropped with no-op events still scheduled
  // against its modules. Draining must prune the dead execution without
  // touching freed memory (the ASan+UBSan job is the real referee here).
  QueryHandle other = engine_.Submit(BulkQuery()).ValueOrDie();
  ResultCursor cursor = other.cursor();
  ASSERT_TRUE(cursor.Next().has_value());  // mid-drain: stream is live

  {
    RunOptions slow;
    slow.exec.scan_overrides["bulk.scan"].period = Seconds(1);
    QueryHandle doomed = engine_.Submit(BulkQuery(), slow).ValueOrDie();
    (void)doomed.cursor().Next();
    doomed.Cancel();
  }  // handle dropped — the engine alone holds the cancelled execution

  const std::vector<TuplePtr> rest = cursor.Drain();
  EXPECT_EQ(1 + rest.size(), 3u);  // 2000 rows, 3 distinct join values
  EXPECT_TRUE(other.status().ok());
  engine_.RunAll();
  EXPECT_EQ(engine_.active_queries(), 0u);
}

TEST_F(EngineTest, InterleavedQueriesBothComplete) {
  // Submit both before pumping either: their eddies share the clock, so
  // alternating Next() calls interleave the two executions.
  QueryHandle h1 = engine_.Submit(ThreeWayQuery()).ValueOrDie();
  QueryHandle h2 = engine_.Submit(TwoWayQuery()).ValueOrDie();
  EXPECT_EQ(engine_.active_queries(), 2u);

  ResultCursor c1 = h1.cursor();
  ResultCursor c2 = h2.cursor();
  std::vector<TuplePtr> r1, r2;
  bool more1 = true, more2 = true;
  while (more1 || more2) {
    if (more1) {
      auto t = c1.Next();
      more1 = t.has_value();
      if (t) r1.push_back(*t);
    }
    if (more2) {
      auto t = c2.Next();
      more2 = t.has_value();
      if (t) r2.push_back(*t);
    }
  }

  EXPECT_EQ(KeysOf(r1), BruteForceResultSet(ThreeWayQuery(), engine_.store()));
  EXPECT_EQ(KeysOf(r2), BruteForceResultSet(TwoWayQuery(), engine_.store()));
  EXPECT_EQ(r2.size(), 4u);  // every order joins its item
  EXPECT_TRUE(h1.done());
  EXPECT_TRUE(h2.done());
  EXPECT_EQ(h1.eddy()->violations().size(), 0u);
  EXPECT_EQ(h2.eddy()->violations().size(), 0u);
  EXPECT_EQ(engine_.active_queries(), 0u);
}

TEST_F(EngineTest, PumpingOneCursorAdvancesTheOther) {
  QueryHandle h1 = engine_.Submit(ThreeWayQuery()).ValueOrDie();
  QueryHandle h2 = engine_.Submit(TwoWayQuery()).ValueOrDie();
  // Drain query 1 completely; query 2 rode along on the shared clock and
  // has buffered (or at least made) progress without its cursor moving.
  EXPECT_EQ(h1.cursor().Drain().size(), 3u);
  EXPECT_GT(h2.eddy()->tuples_routed(), 0u);
  // Its results are still all there for the late reader.
  EXPECT_EQ(h2.cursor().Drain().size(), 4u);
}

TEST_F(EngineTest, SequentialQueriesOnOneEngine) {
  for (int round = 0; round < 3; ++round) {
    QueryHandle handle = engine_.Submit(TwoWayQuery()).ValueOrDie();
    EXPECT_EQ(handle.cursor().Drain().size(), 4u) << "round " << round;
  }
  EXPECT_EQ(engine_.active_queries(), 0u);
}

TEST_F(EngineTest, RunAllCompletesEverything) {
  QueryHandle h1 = engine_.Submit(ThreeWayQuery()).ValueOrDie();
  QueryHandle h2 = engine_.Submit(TwoWayQuery()).ValueOrDie();
  engine_.RunAll();
  EXPECT_TRUE(h1.done());
  EXPECT_TRUE(h2.done());
  EXPECT_EQ(h1.Stats().num_results, 3u);
  EXPECT_EQ(h2.Stats().num_results, 4u);
}

TEST_F(EngineTest, WaitBuffersResultsForLaterCursor) {
  QueryHandle handle = engine_.Submit(ThreeWayQuery()).ValueOrDie();
  handle.Wait();
  EXPECT_TRUE(handle.done());
  EXPECT_EQ(handle.cursor().Drain().size(), 3u);
}

TEST_F(EngineTest, PolicySweepOverRegistry) {
  // The registry makes "run this query under every policy" a loop.
  const std::set<std::string> expected =
      BruteForceResultSet(ThreeWayQuery(), engine_.store());
  for (const std::string& policy : PolicyRegistry::Global().Names()) {
    RunOptions options;
    options.policy = policy;
    QueryHandle handle = engine_.Submit(ThreeWayQuery(), options).ValueOrDie();
    EXPECT_EQ(KeysOf(handle.cursor().Drain()), expected)
        << "policy " << policy;
    EXPECT_EQ(handle.Stats().policy, policy);
  }
}

TEST_F(EngineTest, QueryBuiltBeforeLaterDdlStillRuns) {
  // Regression: QuerySpec slots hold resolved TableDef pointers, and
  // QueryContext::SlotsOfTable matches on that identity. Registering more
  // tables after the spec is built must not invalidate those pointers
  // (Catalog stores defs in a deque) nor confuse slot resolution, even
  // when an alias shadows another base table's name.
  QueryBuilder qb(engine_.catalog());
  qb.AddTable("orders", "items").AddTable("items", "x");  // shadowing alias
  qb.AddJoin("items.item_id", "x.id");
  QuerySpec query = qb.Build().ValueOrDie();

  // DDL after the spec was built: would have reallocated a vector-backed
  // catalog and dangled query.slots()[i].def.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(engine_
                    .AddTable(TableDef{"extra" + std::to_string(i),
                                       IntSchema({"k"}),
                                       {ScanSpec("e" + std::to_string(i))}},
                              IntRows({{1}}))
                    .ok());
  }

  QueryHandle handle = engine_.Submit(query).ValueOrDie();
  EXPECT_EQ(KeysOf(handle.cursor().Drain()),
            BruteForceResultSet(query, engine_.store()));
  EXPECT_EQ(handle.Stats().constraint_violations, 0u);
}

TEST_F(EngineTest, HandleOutlivesCallerQuerySpec) {
  std::optional<QueryHandle> handle;
  {
    QuerySpec local = ThreeWayQuery();
    handle = engine_.Submit(local).ValueOrDie();
  }  // `local` destroyed; the execution owns its copy
  EXPECT_EQ(handle->cursor().Drain().size(), 3u);
}

// --- threaded streaming lifecycle -------------------------------------------

TEST_F(EngineTest, ThreadedWaitWithoutCursorOutrunsTheChannelBound) {
  AddFanOutTables(&engine_);
  const QuerySpec query = FanOutQuery(engine_);
  const std::set<std::string> expected =
      BruteForceResultSet(query, engine_.store());
  ASSERT_GT(expected.size(), 2 * ResultChannel::kCapacityRows);

  auto handle = engine_.Submit(query, SmallMorselThreaded()).ValueOrDie();
  // No cursor: Wait() must drain the channel, or the workers would stall
  // on it forever.
  handle.Wait();
  EXPECT_TRUE(handle.done());
  EXPECT_EQ(handle.Stats().num_results, expected.size());
  std::vector<std::string> duplicates;
  EXPECT_EQ(KeysOf(handle.cursor().Drain(), &duplicates), expected);
  EXPECT_TRUE(duplicates.empty());
}

TEST_F(EngineTest, DroppingEveryThreadedHandleStopsAndJoinsTheRun) {
  AddFanOutTables(&engine_);
  obs::MetricsRegistry& registry = engine_.metrics_registry();
  {
    QueryHandle handle =
        engine_.Submit(FanOutQuery(engine_), SmallMorselThreaded())
            .ValueOrDie();
    ResultCursor cursor = handle.cursor();
    ASSERT_TRUE(cursor.Next().has_value());
    // 20,000 results against a 4096-row channel: the run stalls on its
    // reader (the whole run takes milliseconds; give the workers ample
    // time to fill the channel), it does not finish.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_FALSE(handle.done());
    EXPECT_EQ(engine_.active_queries(), 1u);
  }  // last handle and cursor gone: the run is stopped and joined here
  EXPECT_EQ(engine_.active_queries(), 0u);
  EXPECT_EQ(registry.GetCounter("engine.queries_completed")->value(), 0u)
      << "a stopped run is not a completion";
  // Its work and its backpressure are still published.
  EXPECT_GT(registry.GetCounter("exec.morsels")->value(), 0u);
  EXPECT_GT(registry.GetCounter("exec.result_backpressure_ns")->value(), 0u);

  // The executor is free again: the next threaded query runs to the end.
  auto next = engine_.Submit(ThreeWayQuery(), RunOptions::Threaded(2));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next.Value().cursor().Drain().size(), 3u);
  EXPECT_EQ(registry.GetCounter("engine.queries_completed")->value(), 1u);
}

TEST(EngineLifecycleTest, DestroyingTheEngineStopsItsThreadedRuns) {
  auto engine = std::make_unique<Engine>();
  AddFanOutTables(engine.get());
  QueryHandle running =
      engine->Submit(FanOutQuery(*engine), SmallMorselThreaded()).ValueOrDie();
  ASSERT_TRUE(running.cursor().Next().has_value());
  // A second run queued behind the stalled first one: it must never start.
  QueryHandle queued =
      engine->Submit(FanOutQuery(*engine), SmallMorselThreaded()).ValueOrDie();
  EXPECT_EQ(engine->active_queries(), 2u);
  // Stops both runs and joins every worker; the handles that outlive the
  // engine are only destroyed afterwards (their runs are already over).
  engine.reset();
}

TEST_F(EngineTest, ThreadedRunsReportNoVirtualCompletionTime) {
  // A sim query first, so the shared clock reads well past zero.
  auto sim = engine_.Submit(ThreeWayQuery()).ValueOrDie();
  sim.Wait();
  ASSERT_GT(engine_.sim().now(), 0);
  EXPECT_NE(sim.Stats().completed_at, kSimTimeNever);
  EXPECT_GT(sim.Profile().virtual_time_us, 0u);

  auto threaded =
      engine_.Submit(ThreeWayQuery(), RunOptions::Threaded(2)).ValueOrDie();
  threaded.Wait();
  ASSERT_TRUE(threaded.done());
  EXPECT_EQ(threaded.Stats().completed_at, kSimTimeNever)
      << "a threaded run has no virtual clock to complete on";
  EXPECT_EQ(threaded.Profile().virtual_time_us, 0u);
  EXPECT_GT(threaded.Profile().wall_us, 0u);
}

TEST_F(EngineTest, ThreadedSpillCountersAreLiveWhileStreaming) {
  AddFanOutTables(&engine_);
  RunOptions options = RunOptions::LargerThanMemory(32);
  options.executor = ExecutorKind::kThreaded;
  options.num_threads = 2;
  options.batch_size = 8;
  auto handle = engine_.Submit(FanOutQuery(engine_), options).ValueOrDie();
  ResultCursor cursor = handle.cursor();

  // fan_l's morsels are claimed before fan_r's, so by the first result
  // well over 32 fan_l entries are built and spill I/O has happened — read
  // here while the run is still going (it cannot finish without this
  // reader).
  ASSERT_TRUE(cursor.Next().has_value());
  ASSERT_FALSE(handle.done());
  const uint64_t first = cursor.spill_ios();
  EXPECT_GT(first, 0u);
  EXPECT_GE(handle.Stats().spill_ios, first);

  uint64_t last = first;
  size_t rows = 1;
  while (cursor.Next().has_value()) {
    ++rows;
    const uint64_t now = cursor.spill_ios();
    EXPECT_GE(now, last) << "spill_ios went backwards at row " << rows;
    last = now;
  }
  ASSERT_TRUE(handle.done());
  EXPECT_EQ(rows, 20000u);
  EXPECT_EQ(last, handle.Stats().spill_ios);
  EXPECT_EQ(cursor.bytes_spilled(), handle.Stats().bytes_spilled);
  EXPECT_GE(last, first);
}

}  // namespace
}  // namespace stems
