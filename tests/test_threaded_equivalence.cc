// Sim-vs-threaded equivalence gate (the CI wall for docs/parallelism.md).
//
// The deterministic simulated-clock executor is the reference semantics;
// the wall-clock morsel-driven executor must reproduce its result set
// exactly. This suite pins that across the whole supported matrix — every
// registered routing policy × batch size {8, 64} × threads {1, 2, 4} —
// with the brute-force evaluator as the independent anchor, and requires
// both substrates to finish with clean audit verdicts (zero violations).
// It also covers the served chain-join shape (a prepared statement streamed
// one row at a time), the LargerThanMemory spill preset, exact LIMIT clamping
// under concurrent admission, the Engine/SQL integration, the
// unsupported-combination errors, and that threaded workers run the
// registered policy itself (custom policies, PolicyParams).
#include <algorithm>
#include <atomic>
#include <functional>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eddy/policies/nary_shj_policy.h"
#include "engine/engine.h"
#include "exec/sharded_stem.h"
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

/// Threaded bases for the range joins: an ordered index serves their range
/// probes in every shard; the adaptive one LargerThanMemory picks cannot,
/// so those probes read every entry.
std::vector<RunOptions> RangeIndexBases() {
  std::vector<RunOptions> bases(3);
  bases[1].exec.stem_defaults.index_impl = StemIndexImpl::kOrdered;
  bases[2].exec.stem_defaults.index_impl =
      RunOptions::LargerThanMemory(32).exec.stem_defaults.index_impl;
  return bases;
}

TEST(ThreadedEquivalence, RangeJoin) {
  // Non-equality join: no equality bindings and no shard key, so threaded
  // probes run the range lookup in every shard.
  TestDb db;
  db.AddTable("R", IntSchema({"a"}), RandomIntRows(10, 18, 1, 12),
              {ScanSpec("R.scan")});
  db.AddTable("S", IntSchema({"x"}), RandomIntRows(11, 18, 1, 12),
              {ScanSpec("S.scan")});
  QueryBuilder qb(db.catalog);
  qb.AddTable("R").AddTable("S").AddJoin("R.a", "S.x", CompareOp::kLt);
  const QuerySpec query = std::move(qb).Build().ValueOrDie();
  for (const RunOptions& base : RangeIndexBases()) {
    SCOPED_TRACE("index_impl=" +
                 std::to_string(static_cast<int>(
                     base.exec.stem_defaults.index_impl)));
    ExpectEquivalence(query, db, base);
  }
}

TEST(ThreadedEquivalence, MixedEqualityAndRangeChain) {
  // R.a = S.x AND S.y < T.u: S is sharded on x, and T's probes into S
  // bind only the range column y, so they search every S shard through
  // its y index; S's probes into T are range probes on T.u.
  TestDb db;
  db.AddTable("R", IntSchema({"a", "b"}), RandomIntRows(16, 20, 2, 6),
              {ScanSpec("R.scan")});
  db.AddTable("S", IntSchema({"x", "y"}), RandomIntRows(17, 20, 2, 6),
              {ScanSpec("S.scan")});
  db.AddTable("T", IntSchema({"u"}), RandomIntRows(18, 16, 1, 6),
              {ScanSpec("T.scan")});
  QueryBuilder qb(db.catalog);
  qb.AddTable("R").AddTable("S").AddTable("T");
  qb.AddJoin("R.a", "S.x").AddJoin("S.y", "T.u", CompareOp::kLt);
  const QuerySpec query = std::move(qb).Build().ValueOrDie();
  for (const RunOptions& base : RangeIndexBases()) {
    SCOPED_TRACE("index_impl=" +
                 std::to_string(static_cast<int>(
                     base.exec.stem_defaults.index_impl)));
    ExpectEquivalence(query, db, base);
  }
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
  // The spill preset: a budget far below the build state forces the
  // threaded executor's spill path (shards spilled to run files through the
  // run-wide pool, faulted back in by probes) — results must stay exact.
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
        EXPECT_GT(run.outcome.totals.spill_ios, 0u)
            << "budget 32 over ~120 entries must spill";
        EXPECT_GT(
            run.outcome.spill.entries_spilled + run.outcome.totals.spill_ios,
            0u);
        EXPECT_TRUE(run.outcome.spill.partitions_spilled > 0 ||
                    run.outcome.spill.entries_spilled > 0)
            << "budget 32 must leave shards on disk at completion";
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
  for (const obs::QueryCounters& wc : stats.worker_counters) {
    worker_results += wc.num_results;
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

TEST(ThreadedEquivalence, PreparedChainJoinStreamsExactly) {
  // The served `threaded` workload's shape, scaled down: A(id,k,v) ⋈
  // B(id,k,j) ⋈ C(id,j,w) with balanced keys (each key on two rows of
  // every join column), so C probes B through B.j, which is not B's shard
  // key; a prepared `a.id >= $min` bound three ways; Threaded(2); a
  // streamed cursor read one row at a time. The key values are picked so
  // that each of the 64 shards of a threaded SteM holds exactly three.
  constexpr size_t kShards = 64;  // ThreadPoolExecutor's shards per SteM
  constexpr size_t kKeysPerShard = 3;
  constexpr int64_t kRowsPerKey = 2;
  std::vector<int64_t> key_values;
  std::vector<size_t> keys_per_shard(kShards, 0);
  for (int64_t k = 0; key_values.size() < kShards * kKeysPerShard; ++k) {
    size_t& n = keys_per_shard[Value::Int64(k).Hash() % kShards];
    if (n < kKeysPerShard) {
      ++n;
      key_values.push_back(k);
    }
  }
  const int64_t num_rows =
      static_cast<int64_t>(key_values.size()) * kRowsPerKey;

  std::mt19937_64 rng(7);
  auto balanced_keys = [&] {
    std::vector<int64_t> keys;
    for (int64_t k : key_values) keys.insert(keys.end(), kRowsPerKey, k);
    std::shuffle(keys.begin(), keys.end(), rng);
    return keys;
  };
  const std::vector<int64_t> ak = balanced_keys(), bk = balanced_keys(),
                             bj = balanced_keys(), cj = balanced_keys();
  std::vector<std::vector<int64_t>> a, b, c;
  for (int64_t i = 0; i < num_rows; ++i) {
    a.push_back({i, ak[i], i % 100});
    b.push_back({i, bk[i], bj[i]});
    c.push_back({i, cj[i], i % 1000});
  }
  Engine engine;
  const std::pair<const char*, std::vector<std::string>> defs[] = {
      {"A", {"id", "k", "v"}}, {"B", {"id", "k", "j"}}, {"C", {"id", "j", "w"}}};
  const std::vector<std::vector<int64_t>>* rows[] = {&a, &b, &c};
  for (size_t t = 0; t < 3; ++t) {
    const std::string name = defs[t].first;
    ASSERT_TRUE(engine
                    .AddTable(TableDef{name, IntSchema(defs[t].second),
                                       {ScanSpec(name + ".scan")}},
                              IntRows(*rows[t]))
                    .ok());
  }
  auto prepared = engine.Prepare(
      "SELECT a.v, b.id, c.w FROM A a, B b, C c "
      "WHERE a.k = b.k AND b.j = c.j AND a.id >= $min");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  for (int64_t min : {num_rows / 10, num_rows * 2 / 5, num_rows * 2 / 3}) {
    SCOPED_TRACE("$min = " + std::to_string(min));
    const BoundQuery bound = prepared.Value().Bind(
        sql::SqlParams().Set("min", Value::Int64(min)));
    ASSERT_TRUE(bound.status().ok()) << bound.status().ToString();
    const std::set<std::string> expected =
        BruteForceResultSet(bound.spec(), engine.store());
    ASSERT_EQ(expected.size(), static_cast<size_t>((num_rows - min) *
                                                   kRowsPerKey * kRowsPerKey));

    auto handle = bound.Submit(RunOptions::Threaded(2));
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    ResultCursor cursor = handle.Value().cursor();
    std::vector<TuplePtr> streamed;
    while (std::optional<TuplePtr> t = cursor.Next()) {
      streamed.push_back(std::move(*t));
    }
    std::vector<std::string> duplicates;
    EXPECT_EQ(KeysOf(streamed, &duplicates), expected);
    EXPECT_TRUE(duplicates.empty()) << duplicates.size() << " duplicates";
    EXPECT_TRUE(handle.Value().done());
    EXPECT_EQ(handle.Value().Stats().constraint_violations, 0u);
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
  // Windowed SteMs (max_entries) are sim-only: threads would silently
  // join over every row instead of the window.
  {
    QueryBuilder qb(engine.catalog());
    qb.AddTable("R");
    RunOptions o = RunOptions::Threaded(2);
    o.exec.stem_defaults.max_entries = 5;
    auto r = engine.Submit(std::move(qb).Build().ValueOrDie(), o);
    EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
    RunOptions per_table = RunOptions::Threaded(2);
    per_table.exec.stem_overrides["R"].max_entries = 5;
    QueryBuilder qb2(engine.catalog());
    qb2.AddTable("R");
    r = engine.Submit(std::move(qb2).Build().ValueOrDie(), per_table);
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

TEST(ShardedStemLookup, RangeProbesUseTheOrderedIndex) {
  // R.a < S.x: with an ordered index (StemOptions::index_impl) an S probe
  // into R's stem gets only the rows in range from each shard; a hash
  // index cannot serve ranges, so the probe reads every row and leaves the
  // predicate to the match step.
  TestDb db;
  db.AddTable("R", IntSchema({"a"}), {}, {ScanSpec("R.scan")});
  db.AddTable("S", IntSchema({"x"}), {}, {ScanSpec("S.scan")});
  QueryBuilder qb(db.catalog);
  qb.AddTable("R").AddTable("S").AddJoin("R.a", "S.x", CompareOp::kLt);
  const QuerySpec query = std::move(qb).Build().ValueOrDie();
  for (const StemIndexImpl impl :
       {StemIndexImpl::kOrdered, StemIndexImpl::kHash}) {
    StemOptions options;
    options.index_impl = impl;
    Atomic<BuildTs> ts{1};
    ShardedStem stem(0, query, /*num_shards=*/4, &ts, nullptr, options);
    for (int64_t a = 0; a < 10; ++a) {
      ASSERT_TRUE(stem.Build(MakeRow({Value::Int64(a)})).inserted);
    }
    ShardedStem::ProbeScratch scratch;
    const auto probe = Tuple::MakeSingleton(2, 1, MakeRow({Value::Int64(4)}));
    EXPECT_EQ(stem.Probe(*probe, &scratch).size(),
              impl == StemIndexImpl::kOrdered ? 4u : 10u);
  }
}

TEST(ShardedStemSpill, CleanRespillIsFreeAndSpilledBuildReturnsOnce) {
  // Two shards, budget 1: building into the second shard spills the first
  // to its run file, a build behind the spilled shard appends to that run,
  // and a probe faults the shard back in.
  TestDb db;
  db.AddTable("R", IntSchema({"a", "b"}), {}, {ScanSpec("R.scan")});
  db.AddTable("S", IntSchema({"x"}), {}, {ScanSpec("S.scan")});
  QueryBuilder qb(db.catalog);
  qb.AddTable("R").AddTable("S").AddJoin("R.a", "S.x");
  const QuerySpec query = std::move(qb).Build().ValueOrDie();

  ShardedSpillState spill;
  spill.EnableSpill(/*budget_entries=*/1, SpillOptions{});
  Atomic<BuildTs> ts{1};
  std::vector<std::unique_ptr<ShardedStem>> stems;
  stems.push_back(std::make_unique<ShardedStem>(0, query, /*num_shards=*/2,
                                                &ts, &spill));
  ShardedStem& stem = *stems.front();
  // Rows are placed by the shard-key hash: find a key in the other shard.
  const int64_t key = 1;
  int64_t other = 2;
  while (Value::Int64(other).Hash() % 2 == Value::Int64(key).Hash() % 2) {
    ++other;
  }
  auto build = [&](int64_t a, int64_t b) {
    return stem.Build(MakeRow({Value::Int64(a), Value::Int64(b)}));
  };
  auto probe_key = [&]() {
    // An unbuilt S row: bound to `key` on the shard key, sees everything.
    std::multiset<int64_t> bs;
    ShardedStem::ProbeScratch scratch;
    for (const auto& [row, ts] : stem.Probe(
             *Tuple::MakeSingleton(2, 1, MakeRow({Value::Int64(key)})),
             &scratch)) {
      bs.insert(row->value(1).AsInt64());
    }
    return bs;
  };

  ASSERT_TRUE(build(key, 10).inserted);
  ASSERT_TRUE(build(other, 0).inserted);  // over budget: spills `key`'s shard
  SpillSummary s = spill.Summarize(stems);
  ASSERT_EQ(s.partitions_spilled, 1u);
  EXPECT_EQ(s.entries_spilled, 1u);
  EXPECT_GT(spill.spill_ios.load(), 0u) << "a dirty spill-out writes its run";

  // Behind the spilled shard: a new row goes to the run, a duplicate is
  // still absorbed (its dedup identity stays in memory).
  ASSERT_TRUE(build(key, 11).inserted);
  EXPECT_FALSE(build(key, 10).inserted);
  EXPECT_EQ(spill.Summarize(stems).entries_spilled, 2u);

  // The probe faults the shard in: the row built while it was spilled
  // comes back exactly once, next to the one spilled with the shard.
  EXPECT_EQ(probe_key(), (std::multiset<int64_t>{10, 11}));
  EXPECT_EQ(spill.Summarize(stems).partitions_spilled, 0u);

  // A build into the other shard re-spills the restored one. Nothing was
  // built into it since the fault-in, so its retained run is still the
  // truth: the spill-out costs no I/O.
  const uint64_t ios_before = spill.spill_ios.load();
  ASSERT_TRUE(build(other, 1).inserted);
  s = spill.Summarize(stems);
  ASSERT_EQ(s.partitions_spilled, 1u);
  EXPECT_EQ(s.entries_spilled, 2u);
  EXPECT_EQ(spill.spill_ios.load(), ios_before)
      << "clean re-spill must be free";

  // And the second round trip loses and duplicates nothing either.
  EXPECT_EQ(probe_key(), (std::multiset<int64_t>{10, 11}));
  EXPECT_EQ(stem.num_entries(), 4u);
}

}  // namespace
}  // namespace stems
