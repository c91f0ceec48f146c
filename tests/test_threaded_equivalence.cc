// Sim-vs-threaded equivalence gate (the CI wall for docs/parallelism.md).
//
// The deterministic simulated-clock executor is the reference semantics;
// the wall-clock morsel-driven executor must reproduce its result set
// exactly. This suite pins that across the whole supported matrix — every
// registered routing policy × batch size {8, 64} × threads {1, 2, 4} —
// with the brute-force evaluator as the independent anchor, and requires
// both substrates to finish with clean audit verdicts (zero violations).
// It also covers the LargerThanMemory spill preset, exact LIMIT clamping
// under concurrent admission, the Engine/SQL integration, the
// unsupported-combination errors, and that threaded workers run the
// registered policy itself (custom policies, PolicyParams).
#include <algorithm>
#include <atomic>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eddy/policies/nary_shj_policy.h"
#include "engine/engine.h"
#include "exec/threaded_executor.h"
#include "tests/test_util.h"

namespace stems {
namespace {

using testing::IntRows;
using testing::IntSchema;
using testing::ScanSpec;
using testing::TestDb;

constexpr size_t kBatchSizes[] = {8, 64};
constexpr size_t kThreadCounts[] = {1, 2, 4};

/// relaxed: a test-only tally, read after the run's workers have joined.
std::atomic<uint64_t> g_counting_consultations{0};

/// A policy only this test registers: nary_shj's choice, counted. Threaded
/// workers must consult it like any built-in (it also rides through the
/// whole equivalence matrix, which enumerates the registry).
class CountingPolicy final : public NaryShjPolicy {
 public:
  const char* name() const override { return "counting"; }

  int ChooseProbeSlot(const Tuple& tuple, const std::vector<int>& candidates,
                      const ProbeStatsView& stats) override {
    g_counting_consultations.fetch_add(1, std::memory_order_relaxed);
    return NaryShjPolicy::ChooseProbeSlot(tuple, candidates, stats);
  }
};

STEMS_REGISTER_POLICY("counting", [](const PolicyParams&) {
  return std::make_unique<CountingPolicy>();
});

/// Deterministic row generator (tests must not depend on ambient RNG).
std::vector<RowRef> RandomIntRows(uint64_t seed, size_t n, size_t cols,
                                  int64_t domain) {
  std::vector<std::vector<int64_t>> data(n, std::vector<int64_t>(cols));
  uint64_t x = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (auto& row : data) {
    for (auto& v : row) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      v = static_cast<int64_t>((x >> 33) % static_cast<uint64_t>(domain));
    }
  }
  return IntRows(data);
}

/// The reference run: the query on the sim executor through
/// Engine::Submit (PlanQuery + Eddy on the engine clock), drained to
/// completion. The handle's status is the engine's quiescence check; the
/// constraint checker's audit must be clean.
std::set<std::string> RunSim(const QuerySpec& query, const TestDb& db,
                             const std::string& policy, size_t batch_size) {
  Engine engine;
  for (const TableDef& def : db.catalog.tables()) {
    EXPECT_TRUE(
        engine.AddTable(def, db.store.GetTable(def.name).ValueOrDie()->rows())
            .ok());
  }
  RunOptions options;
  options.policy = policy;
  options.batch_size = batch_size;
  options.exec.scan_defaults.period = Micros(10);
  auto submitted = engine.Submit(query, options);
  EXPECT_TRUE(submitted.ok()) << submitted.status().ToString();
  if (!submitted.ok()) return {};
  QueryHandle handle = std::move(submitted).ValueOrDie();
  std::vector<std::string> duplicates;
  std::set<std::string> keys = KeysOf(handle.cursor().Drain(), &duplicates);
  EXPECT_TRUE(handle.done());
  EXPECT_TRUE(handle.status().ok()) << handle.status().ToString();
  EXPECT_TRUE(duplicates.empty());
  EXPECT_EQ(handle.Stats().constraint_violations, 0u);
  return keys;
}

struct RunSummary {
  std::set<std::string> keys;
  std::vector<std::string> duplicates;
  ExecOutcome outcome;
};

RunSummary RunThreaded(const QuerySpec& query, const TestDb& db,
                       const std::string& policy, size_t batch_size,
                       size_t threads, RunOptions options = {}) {
  options.policy = policy;
  options.batch_size = batch_size;
  options.executor = ExecutorKind::kThreaded;
  options.num_threads = threads;
  ThreadPoolExecutor executor;
  RunSummary run;
  Status st = executor.Execute(query, options, db.store, &run.outcome);
  EXPECT_TRUE(st.ok()) << st.ToString();
  run.keys = KeysOf(run.outcome.results, &run.duplicates);
  return run;
}

/// The gate itself: one sim reference run per registered policy, then the
/// threaded matrix must match it key-for-key with clean audits on both
/// sides.
void ExpectEquivalence(const QuerySpec& query, const TestDb& db,
                       RunOptions threaded_base = {}) {
  const std::set<std::string> expected = BruteForceResultSet(query, db.store);
  for (const std::string& policy : PolicyRegistry::Global().Names()) {
    SCOPED_TRACE("policy=" + policy);
    const std::set<std::string> sim = RunSim(query, db, policy, 8);
    EXPECT_EQ(sim, expected) << "sim run diverges from brute force";
    for (size_t batch : kBatchSizes) {
      for (size_t threads : kThreadCounts) {
        SCOPED_TRACE("batch=" + std::to_string(batch) +
                     " threads=" + std::to_string(threads));
        const RunSummary threaded =
            RunThreaded(query, db, policy, batch, threads, threaded_base);
        EXPECT_EQ(threaded.keys, sim);
        EXPECT_TRUE(threaded.duplicates.empty())
            << threaded.duplicates.size() << " duplicates, first: "
            << threaded.duplicates.front();
        // "Identical audit verdicts": the sim run's audit is clean
        // (RunSim), so the threaded one must be too.
        EXPECT_TRUE(threaded.outcome.violations.empty());
      }
    }
  }
}

TestDb TwoTableDb() {
  TestDb db;
  // Duplicate rows included on purpose: the §3.2 set-semantics dedup must
  // behave identically under concurrent builds.
  auto r = RandomIntRows(1, 40, 2, 8);
  r.push_back(r.front());
  r.push_back(r.front());
  db.AddTable("R", IntSchema({"a", "b"}), std::move(r), {ScanSpec("R.scan")});
  db.AddTable("S", IntSchema({"x", "y"}), RandomIntRows(2, 40, 2, 8),
              {ScanSpec("S.scan")});
  return db;
}

TEST(ThreadedEquivalence, EquiJoin2) {
  TestDb db = TwoTableDb();
  QueryBuilder qb(db.catalog);
  qb.AddTable("R").AddTable("S").AddJoin("R.a", "S.x");
  ExpectEquivalence(std::move(qb).Build().ValueOrDie(), db);
}

TEST(ThreadedEquivalence, Chain3WithSelection) {
  TestDb db;
  db.AddTable("R", IntSchema({"a", "b"}), RandomIntRows(3, 30, 2, 6),
              {ScanSpec("R.scan")});
  db.AddTable("S", IntSchema({"x", "y"}), RandomIntRows(4, 30, 2, 6),
              {ScanSpec("S.scan")});
  db.AddTable("T", IntSchema({"u", "v"}), RandomIntRows(5, 30, 2, 6),
              {ScanSpec("T.scan")});
  QueryBuilder qb(db.catalog);
  qb.AddTable("R").AddTable("S").AddTable("T");
  qb.AddJoin("R.a", "S.x").AddJoin("S.y", "T.u");
  qb.AddSelection("R.b", CompareOp::kLt, Value::Int64(4));
  ExpectEquivalence(std::move(qb).Build().ValueOrDie(), db);
}

TEST(ThreadedEquivalence, Star4) {
  TestDb db;
  db.AddTable("A", IntSchema({"a", "b", "c"}), RandomIntRows(6, 24, 3, 5),
              {ScanSpec("A.scan")});
  db.AddTable("B", IntSchema({"x"}), RandomIntRows(7, 20, 1, 5),
              {ScanSpec("B.scan")});
  db.AddTable("C", IntSchema({"x"}), RandomIntRows(8, 20, 1, 5),
              {ScanSpec("C.scan")});
  db.AddTable("D", IntSchema({"x"}), RandomIntRows(9, 20, 1, 5),
              {ScanSpec("D.scan")});
  QueryBuilder qb(db.catalog);
  qb.AddTable("A").AddTable("B").AddTable("C").AddTable("D");
  qb.AddJoin("A.a", "B.x").AddJoin("A.b", "C.x").AddJoin("A.c", "D.x");
  ExpectEquivalence(std::move(qb).Build().ValueOrDie(), db);
}

TEST(ThreadedEquivalence, RangeJoin) {
  // Non-equality join: no hash bindings, so threaded probes take the
  // all-shard scan path.
  TestDb db;
  db.AddTable("R", IntSchema({"a"}), RandomIntRows(10, 18, 1, 12),
              {ScanSpec("R.scan")});
  db.AddTable("S", IntSchema({"x"}), RandomIntRows(11, 18, 1, 12),
              {ScanSpec("S.scan")});
  QueryBuilder qb(db.catalog);
  qb.AddTable("R").AddTable("S").AddJoin("R.a", "S.x", CompareOp::kLt);
  ExpectEquivalence(std::move(qb).Build().ValueOrDie(), db);
}

TEST(ThreadedEquivalence, CrossProduct) {
  // Join-graph fallback: no predicates at all, every unspanned slot is a
  // probe candidate.
  TestDb db;
  db.AddTable("R", IntSchema({"a"}), RandomIntRows(12, 8, 1, 100),
              {ScanSpec("R.scan")});
  db.AddTable("S", IntSchema({"x"}), RandomIntRows(13, 6, 1, 100),
              {ScanSpec("S.scan")});
  QueryBuilder qb(db.catalog);
  qb.AddTable("R").AddTable("S");
  ExpectEquivalence(std::move(qb).Build().ValueOrDie(), db);
}

TEST(ThreadedEquivalence, LargerThanMemorySpillPreset) {
  // The spill preset case the ISSUE calls out: a budget far below the
  // build state forces the threaded executor's spill-lite path (shard
  // index drops + probe fault-ins) — results must stay exact.
  TestDb db;
  db.AddTable("R", IntSchema({"a", "b"}), RandomIntRows(14, 60, 2, 10),
              {ScanSpec("R.scan")});
  db.AddTable("S", IntSchema({"x", "y"}), RandomIntRows(15, 60, 2, 10),
              {ScanSpec("S.scan")});
  QueryBuilder qb(db.catalog);
  qb.AddTable("R").AddTable("S").AddJoin("R.a", "S.x");
  const QuerySpec query = std::move(qb).Build().ValueOrDie();

  const std::set<std::string> expected = BruteForceResultSet(query, db.store);
  for (const std::string& policy : PolicyRegistry::Global().Names()) {
    SCOPED_TRACE("policy=" + policy);
    for (size_t batch : kBatchSizes) {
      for (size_t threads : kThreadCounts) {
        SCOPED_TRACE("batch=" + std::to_string(batch) +
                     " threads=" + std::to_string(threads));
        const RunSummary run = RunThreaded(query, db, policy, batch, threads,
                                           RunOptions::LargerThanMemory(32));
        EXPECT_EQ(run.keys, expected);
        EXPECT_TRUE(run.duplicates.empty());
        EXPECT_TRUE(run.outcome.violations.empty());
        EXPECT_GT(run.outcome.spill_ios, 0u)
            << "budget 32 over ~120 entries must spill";
        EXPECT_GT(run.outcome.entries_spilled + run.outcome.spill_ios, 0u);
      }
    }
  }
}

TEST(ThreadedEquivalence, LimitClampIsExactUnderConcurrency) {
  TestDb db = TwoTableDb();
  QueryBuilder qb(db.catalog);
  qb.AddTable("R").AddTable("S").AddJoin("R.a", "S.x");
  const QuerySpec unlimited = std::move(qb).Build().ValueOrDie();
  const size_t total = BruteForceResultSet(unlimited, db.store).size();
  ASSERT_GT(total, 10u);

  QueryBuilder qb2(db.catalog);
  qb2.AddTable("R").AddTable("S").AddJoin("R.a", "S.x");
  qb2.Limit(7);
  const QuerySpec limited = std::move(qb2).Build().ValueOrDie();
  for (size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const RunSummary run = RunThreaded(limited, db, "nary_shj", 8, threads);
    EXPECT_EQ(run.outcome.results.size(), 7u);
    EXPECT_TRUE(run.outcome.limit_reached);
    EXPECT_TRUE(run.outcome.violations.empty());
  }
  // LIMIT 0 completes without touching a single morsel.
  QueryBuilder qb3(db.catalog);
  qb3.AddTable("R").AddTable("S").AddJoin("R.a", "S.x");
  qb3.Limit(0);
  const RunSummary zero =
      RunThreaded(std::move(qb3).Build().ValueOrDie(), db, "nary_shj", 8, 2);
  EXPECT_TRUE(zero.outcome.results.empty());
  EXPECT_EQ(zero.outcome.totals.morsels, 0u);
}

/// R(a, b) -> S(x, y) -> T(u) with R.a = S.x and S.y = T.u: S's
/// singletons have two probe candidates, R (slot 0) and T (slot 2). Every
/// R row joins every S row; each T row joins one S row.
QuerySpec ChainWithTwoCandidates(TestDb* db) {
  std::vector<std::vector<int64_t>> r, s, t;
  for (int64_t i = 0; i < 20; ++i) r.push_back({1, i});
  for (int64_t k = 0; k < 5; ++k) s.push_back({1, k});
  for (int64_t k = 0; k < 3; ++k) t.push_back({k});
  db->AddTable("R", IntSchema({"a", "b"}), IntRows(r), {ScanSpec("R.scan")});
  db->AddTable("S", IntSchema({"x", "y"}), IntRows(s), {ScanSpec("S.scan")});
  db->AddTable("T", IntSchema({"u"}), IntRows(t), {ScanSpec("T.scan")});
  QueryBuilder qb(db->catalog);
  qb.AddTable("R").AddTable("S").AddTable("T");
  qb.AddJoin("R.a", "S.x").AddJoin("S.y", "T.u");
  return std::move(qb).Build().ValueOrDie();
}

TEST(ThreadedEquivalence, WorkersConsultTheRegisteredPolicy) {
  TestDb db;
  const QuerySpec query = ChainWithTwoCandidates(&db);
  g_counting_consultations.store(0);
  const RunSummary run = RunThreaded(query, db, "counting", 8, 2);
  EXPECT_EQ(run.keys, BruteForceResultSet(query, db.store));
  EXPECT_TRUE(run.outcome.violations.empty());
  // Every probe a worker issues is chosen by the registered policy: no
  // silent first-candidate fallback for names the executor does not know.
  EXPECT_GT(run.outcome.totals.probes, 0u);
  EXPECT_EQ(g_counting_consultations.load(), run.outcome.totals.probes);
}

TEST(ThreadedEquivalence, ProbeOrderParamIsHonoured) {
  TestDb db;
  const QuerySpec query = ChainWithTwoCandidates(&db);
  const std::set<std::string> expected = BruteForceResultSet(query, db.store);
  RunOptions t_first;
  t_first.policy_params.probe_order = {2};
  // One worker claims the chunks in slot order: R, then S, then T. With
  // the default order each S singleton probes R first and emits 20 RS
  // concatenations (100 matches), whose T probes find nothing yet; T's
  // cascade then adds 3 ST and 60 RST matches. Probing T first, the S
  // singletons find T empty and emit nothing: 63 matches, same results.
  const RunSummary by_slot = RunThreaded(query, db, "nary_shj", 8, 1);
  const RunSummary ordered =
      RunThreaded(query, db, "nary_shj", 8, 1, t_first);
  EXPECT_EQ(by_slot.keys, expected);
  EXPECT_EQ(ordered.keys, expected);
  EXPECT_EQ(by_slot.outcome.totals.matches, 163u);
  EXPECT_EQ(ordered.outcome.totals.matches, 63u);
}

TEST(ThreadedEquivalence, EngineSubmitAndStats) {
  Engine engine;
  TableDef r;
  r.name = "R";
  r.schema = IntSchema({"a", "b"});
  r.access_methods = {ScanSpec("R.scan")};
  ASSERT_TRUE(engine.AddTable(r, RandomIntRows(20, 40, 2, 8)).ok());
  TableDef s;
  s.name = "S";
  s.schema = IntSchema({"x", "y"});
  s.access_methods = {ScanSpec("S.scan")};
  ASSERT_TRUE(engine.AddTable(s, RandomIntRows(21, 40, 2, 8)).ok());

  QueryBuilder qb(engine.catalog());
  qb.AddTable("R").AddTable("S").AddJoin("R.a", "S.x");
  const QuerySpec query = std::move(qb).Build().ValueOrDie();
  const std::set<std::string> expected =
      BruteForceResultSet(query, engine.store());

  auto submitted = engine.Submit(query, RunOptions::Threaded(2));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  QueryHandle handle = std::move(submitted).ValueOrDie();
  EXPECT_EQ(handle.eddy(), nullptr);

  // The run streams: the handle is done once the drain saw the stream end.
  std::vector<std::string> duplicates;
  EXPECT_EQ(KeysOf(handle.cursor().Drain(), &duplicates), expected);
  EXPECT_TRUE(duplicates.empty());
  EXPECT_TRUE(handle.done());

  const QueryStats stats = handle.Stats();
  EXPECT_EQ(stats.executor, "threaded");
  EXPECT_EQ(stats.num_results, expected.size());
  EXPECT_EQ(stats.constraint_violations, 0u);
  EXPECT_EQ(stats.worker_counters.size(), 2u);
  uint64_t worker_results = 0;
  uint64_t worker_routed = 0;
  for (const WorkerCounters& wc : stats.worker_counters) {
    worker_results += wc.results;
    worker_routed += wc.tuples_routed;
  }
  EXPECT_EQ(worker_results, stats.num_results);
  EXPECT_EQ(worker_routed, stats.tuples_routed);
  EXPECT_GT(stats.tuples_routed, 0u);

  // SQL front end through the same dispatch, with a LIMIT.
  auto sql = engine.Query(
      "SELECT R.a, S.y FROM R, S WHERE R.a = S.x LIMIT 5",
      RunOptions::Threaded(2));
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_EQ(std::move(sql).ValueOrDie().cursor().Drain().size(), 5u);
}

TEST(ThreadedEquivalence, InterleavedNextAcrossBatchSizes) {
  // Two streams at once, morsels of 1 and of 64 rows, read one Next() at a
  // time in alternation. The second run queues behind the first inside the
  // executor; each result set fits the result channel, so the first run
  // can finish (and the second start) while its reader is still at row 1.
  Engine engine;
  TableDef r;
  r.name = "R";
  r.schema = IntSchema({"a", "b"});
  r.access_methods = {ScanSpec("R.scan")};
  ASSERT_TRUE(engine.AddTable(r, RandomIntRows(22, 60, 2, 6)).ok());
  TableDef s;
  s.name = "S";
  s.schema = IntSchema({"x", "y"});
  s.access_methods = {ScanSpec("S.scan")};
  ASSERT_TRUE(engine.AddTable(s, RandomIntRows(23, 60, 2, 6)).ok());
  QueryBuilder qb(engine.catalog());
  qb.AddTable("R").AddTable("S").AddJoin("R.a", "S.x");
  const QuerySpec query = std::move(qb).Build().ValueOrDie();
  const std::set<std::string> expected =
      BruteForceResultSet(query, engine.store());
  ASSERT_LT(expected.size(), ResultChannel::kCapacityRows);

  std::vector<ResultCursor> cursors;
  std::vector<QueryHandle> handles;
  for (size_t batch : {size_t{1}, size_t{64}}) {
    RunOptions options = RunOptions::Threaded(2);
    options.batch_size = batch;
    auto submitted = engine.Submit(query, options);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    handles.push_back(std::move(submitted).ValueOrDie());
    cursors.push_back(handles.back().cursor());
  }
  std::vector<std::vector<TuplePtr>> rows(2);
  std::vector<bool> open = {true, true};
  while (open[0] || open[1]) {
    for (size_t q = 0; q < 2; ++q) {
      if (!open[q]) continue;
      std::optional<TuplePtr> t = cursors[q].Next();
      if (t.has_value()) {
        rows[q].push_back(std::move(*t));
      } else {
        open[q] = false;
      }
    }
  }
  for (size_t q = 0; q < 2; ++q) {
    SCOPED_TRACE(q == 0 ? "batch 1" : "batch 64");
    std::vector<std::string> duplicates;
    EXPECT_EQ(KeysOf(rows[q], &duplicates), expected);
    EXPECT_TRUE(duplicates.empty());
    EXPECT_TRUE(handles[q].done());
    EXPECT_EQ(handles[q].Stats().num_results, expected.size());
    EXPECT_EQ(cursors[q].consumed(), expected.size());
  }
}

TEST(ThreadedEquivalence, UnsupportedCombinationsAreTypedErrors) {
  Engine engine;
  TableDef scan_table;
  scan_table.name = "R";
  scan_table.schema = IntSchema({"a"});
  scan_table.access_methods = {ScanSpec("R.scan")};
  ASSERT_TRUE(engine.AddTable(scan_table, IntRows({{1}, {2}})).ok());
  TableDef index_only;
  index_only.name = "I";
  index_only.schema = IntSchema({"x"});
  index_only.access_methods = {testing::IndexSpec("I.idx", {0})};
  ASSERT_TRUE(engine.AddTable(index_only, IntRows({{1}, {2}})).ok());

  // share_stems is rejected by option validation alone.
  {
    RunOptions o = RunOptions::Threaded(2);
    o.share_stems = true;
    EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  }
  // An evicting (non-spill) memory budget is sim-only.
  {
    QueryBuilder qb(engine.catalog());
    qb.AddTable("R");
    RunOptions o = RunOptions::Threaded(2);
    o.memory_budget_entries = 16;
    auto r = engine.Submit(std::move(qb).Build().ValueOrDie(), o);
    EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
  }
  // Index-only tables need probe bouncing — sim-only.
  {
    QueryBuilder qb(engine.catalog());
    qb.AddTable("R").AddTable("I").AddJoin("R.a", "I.x");
    auto r = engine.Submit(std::move(qb).Build().ValueOrDie(),
                           RunOptions::Threaded(2));
    EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
  }
  // Self-joins (retarget clones) are sim-only.
  {
    QueryBuilder qb(engine.catalog());
    qb.AddTable("R", "r1").AddTable("R", "r2").AddJoin("r1.a", "r2.a");
    auto r = engine.Submit(std::move(qb).Build().ValueOrDie(),
                           RunOptions::Threaded(2));
    EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
  }
  // Relaxed BuildFirst is sim-only.
  {
    QueryBuilder qb(engine.catalog());
    qb.AddTable("R");
    RunOptions o = RunOptions::RelaxedBuildFirst({"R"});
    o.executor = ExecutorKind::kThreaded;
    auto r = engine.Submit(std::move(qb).Build().ValueOrDie(), o);
    EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
  }
}

TEST(ThreadedEquivalence, RandomQueriesMatchBruteForce) {
  for (uint64_t seed = 100; seed < 103; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    TestDb db;
    db.AddTable("R", IntSchema({"a", "b"}),
                RandomIntRows(seed, 25 + seed % 10, 2, 7),
                {ScanSpec("R.scan")});
    db.AddTable("S", IntSchema({"x", "y"}),
                RandomIntRows(seed + 50, 25, 2, 7), {ScanSpec("S.scan")});
    db.AddTable("T", IntSchema({"u"}), RandomIntRows(seed + 90, 20, 1, 7),
                {ScanSpec("T.scan")});
    QueryBuilder qb(db.catalog);
    qb.AddTable("R").AddTable("S").AddTable("T");
    qb.AddJoin("R.a", "S.x").AddJoin("S.y", "T.u");
    if (seed % 2 == 0) {
      qb.AddSelection("S.y", CompareOp::kGe, Value::Int64(2));
    }
    ExpectEquivalence(std::move(qb).Build().ValueOrDie(), db);
  }
}

}  // namespace
}  // namespace stems
