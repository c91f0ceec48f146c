// Spill equivalence property: for every registered routing policy and a
// spread of queries, running with a tight global memory budget (25% of the
// total build size) plus spilling enabled must produce a result set
// identical to the unlimited-memory run — exactness is the whole point of
// spilling over eviction. Checked for scalar and batched routing,
// mirroring tests/test_batch_equivalence.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "reference/brute_force.h"
#include "tests/test_util.h"

namespace stems {
namespace {

using testing::IndexSpec;
using testing::IntRows;
using testing::IntSchema;
using testing::ScanSpec;

/// A case builds its tables into a fresh engine and returns the query;
/// `build_rows` is the total number of build tuples (the budget baseline).
struct SpillCase {
  std::string name;
  size_t build_rows;
  std::function<QuerySpec(Engine&)> make;
};

void AddIntTable(Engine& engine, const std::string& name,
                 const std::vector<std::string>& cols,
                 const std::vector<std::vector<int64_t>>& rows,
                 std::vector<AccessMethodSpec> ams) {
  TableDef def;
  def.name = name;
  def.schema = IntSchema(cols);
  def.access_methods = std::move(ams);
  ASSERT_TRUE(engine.AddTable(std::move(def), IntRows(rows)).ok());
}

std::vector<std::vector<int64_t>> RandomRows(Rng& rng, int n, int cols,
                                             int64_t domain) {
  std::vector<std::vector<int64_t>> rows;
  for (int r = 0; r < n; ++r) {
    std::vector<int64_t> row;
    for (int c = 0; c < cols; ++c) row.push_back(rng.NextInt(0, domain));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<SpillCase> Cases() {
  std::vector<SpillCase> cases;

  cases.push_back({"equijoin2", 240, [](Engine& e) {
                     Rng rng(201);
                     AddIntTable(e, "R", {"k", "a"},
                                 RandomRows(rng, 120, 2, 30),
                                 {ScanSpec("R.scan")});
                     AddIntTable(e, "S", {"x", "p"},
                                 RandomRows(rng, 120, 2, 30),
                                 {ScanSpec("S.scan")});
                     QueryBuilder qb(e.catalog());
                     qb.AddTable("R").AddTable("S").AddJoin("R.k", "S.x");
                     return qb.Build().ValueOrDie();
                   }});

  cases.push_back({"chain3_selection", 180, [](Engine& e) {
                     Rng rng(202);
                     AddIntTable(e, "R", {"a", "b"}, RandomRows(rng, 60, 2, 10),
                                 {ScanSpec("R.scan")});
                     AddIntTable(e, "S", {"x", "y"}, RandomRows(rng, 60, 2, 10),
                                 {ScanSpec("S.scan")});
                     AddIntTable(e, "T", {"u", "v"}, RandomRows(rng, 60, 2, 10),
                                 {ScanSpec("T.scan")});
                     QueryBuilder qb(e.catalog());
                     qb.AddTable("R").AddTable("S").AddTable("T");
                     qb.AddJoin("R.b", "S.x").AddJoin("S.y", "T.u");
                     qb.AddSelection("R.a", CompareOp::kLe, Value::Int64(6));
                     return qb.Build().ValueOrDie();
                   }});

  cases.push_back({"self_join", 60, [](Engine& e) {
                     Rng rng(203);
                     AddIntTable(e, "R", {"g", "v"}, RandomRows(rng, 60, 2, 8),
                                 {ScanSpec("R.scan")});
                     QueryBuilder qb(e.catalog());
                     qb.AddTable("R", "l").AddTable("R", "r");
                     qb.AddJoin("l.g", "r.g");
                     return qb.Build().ValueOrDie();
                   }});

  // Index AM on T: spilled partitions interact with prior probers, probe
  // completion through the index, and parking.
  cases.push_back({"index_am", 140, [](Engine& e) {
                     Rng rng(204);
                     AddIntTable(e, "R", {"a"}, RandomRows(rng, 80, 1, 40),
                                 {ScanSpec("R.scan")});
                     AddIntTable(e, "T", {"key", "w"},
                                 RandomRows(rng, 60, 2, 40),
                                 {ScanSpec("T.scan"), IndexSpec("T.idx", {0})});
                     QueryBuilder qb(e.catalog());
                     qb.AddTable("R").AddTable("T").AddJoin("R.a", "T.key");
                     return qb.Build().ValueOrDie();
                   }});

  // Range join: probes have no equality binding on the partitioning column
  // and must fault in every spilled partition.
  cases.push_back({"range_join", 60, [](Engine& e) {
                     Rng rng(205);
                     AddIntTable(e, "R", {"a"}, RandomRows(rng, 30, 1, 12),
                                 {ScanSpec("R.scan")});
                     AddIntTable(e, "S", {"x"}, RandomRows(rng, 30, 1, 12),
                                 {ScanSpec("S.scan")});
                     QueryBuilder qb(e.catalog());
                     qb.AddTable("R").AddTable("S");
                     qb.AddJoin("R.a", "S.x", CompareOp::kLe);
                     return qb.Build().ValueOrDie();
                   }});

  return cases;
}

struct RunOutcome {
  std::set<std::string> keys;
  std::vector<std::string> duplicates;
  std::set<std::string> expected;  ///< brute-force ground truth
  QueryStats stats;
};

RunOutcome RunCase(const SpillCase& c, const std::string& policy,
                   size_t budget, size_t batch_size) {
  Engine engine;
  QuerySpec query = c.make(engine);
  RunOptions options;
  options.policy = policy;
  options.policy_params.seed = 42;
  options.batch_size = batch_size;
  options.exec.scan_defaults.period = Micros(10);
  options.exec.index_defaults.latency =
      std::make_shared<FixedLatency>(Micros(50));
  if (budget > 0) {
    options.memory_budget_entries = budget;
    options.spill = true;
  }
  auto submitted = engine.Submit(query, options);
  EXPECT_TRUE(submitted.ok()) << submitted.status().ToString();
  QueryHandle handle = std::move(submitted).ValueOrDie();
  handle.Wait();

  RunOutcome out;
  out.keys = KeysOf(handle.eddy()->results(), &out.duplicates);
  out.expected = BruteForceResultSet(query, engine.store());
  out.stats = handle.Stats();
  return out;
}

TEST(SpillEquivalenceTest, AllPoliciesTightBudgetMatchesUnlimited) {
  for (const std::string& policy : PolicyRegistry::Global().Names()) {
    for (const SpillCase& c : Cases()) {
      SCOPED_TRACE("policy=" + policy + " case=" + c.name);
      RunOutcome unlimited = RunCase(c, policy, /*budget=*/0, 1);
      if (::testing::Test::HasFatalFailure()) return;
      // The unlimited run anchors correctness against ground truth.
      EXPECT_EQ(unlimited.keys, unlimited.expected);
      EXPECT_TRUE(unlimited.duplicates.empty());
      EXPECT_EQ(unlimited.stats.constraint_violations, 0u);
      EXPECT_EQ(unlimited.stats.spill_ios, 0u);

      const size_t budget = c.build_rows / 4;  // 25% of total build size
      for (size_t batch_size : {size_t{1}, size_t{8}}) {
        SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
        RunOutcome spilled = RunCase(c, policy, budget, batch_size);
        EXPECT_EQ(spilled.keys, unlimited.keys);
        EXPECT_TRUE(spilled.duplicates.empty());
        EXPECT_EQ(spilled.stats.constraint_violations, 0u);
        EXPECT_EQ(spilled.stats.parked, 0u);
        // Memory pressure was real: the governor spilled and the run
        // files saw disk traffic. (Resident entries may transiently
        // exceed the budget around a fault-in; exactness never depends
        // on the budget being airtight.)
        EXPECT_GT(spilled.stats.spill_ios, 0u);
        EXPECT_GT(spilled.stats.bytes_spilled, 0u);
      }
    }
  }
}

// The acceptance bound of the larger-than-memory workload: with the
// default fault-in policy, virtual completion time under a 25% budget must
// stay within 5x of the unlimited run. Sized so the fixed per-page I/O
// latencies amortize over the build (the equivalence cases above are
// deliberately tiny and would be latency-dominated).
TEST(SpillEquivalenceTest, FaultInRuntimeWithinFiveXOfUnlimited) {
  const SpillCase c{"equijoin_large", 800, [](Engine& e) {
                      Rng rng(206);
                      AddIntTable(e, "R", {"k", "a"},
                                  RandomRows(rng, 400, 2, 200),
                                  {ScanSpec("R.scan")});
                      AddIntTable(e, "S", {"x", "p"},
                                  RandomRows(rng, 400, 2, 200),
                                  {ScanSpec("S.scan")});
                      QueryBuilder qb(e.catalog());
                      qb.AddTable("R").AddTable("S").AddJoin("R.k", "S.x");
                      return qb.Build().ValueOrDie();
                    }};
  RunOutcome unlimited = RunCase(c, "nary_shj", 0, 1);
  RunOutcome spilled = RunCase(c, "nary_shj", c.build_rows / 4, 1);
  EXPECT_EQ(spilled.keys, unlimited.keys);
  ASSERT_GT(unlimited.stats.completed_at, 0);
  ASSERT_NE(unlimited.stats.completed_at, kSimTimeNever);
  ASSERT_NE(spilled.stats.completed_at, kSimTimeNever);
  EXPECT_GT(spilled.stats.spill_ios, 0u);
  EXPECT_LE(spilled.stats.completed_at, unlimited.stats.completed_at * 5);
}

// Validation: spill knobs are checked, and the spilling victim policy
// cannot be requested without run files to spill to.
TEST(SpillEquivalenceTest, OptionValidation) {
  RunOptions o;
  o.exec.eddy.memory.victim_policy = MemoryVictimPolicy::kSpillColdest;
  EXPECT_FALSE(o.Validate().ok());
  o.spill = true;
  EXPECT_TRUE(o.Validate().ok());
  o.exec.eddy.spill.partitions = 0;
  EXPECT_FALSE(o.Validate().ok());
  o.exec.eddy.spill.partitions = 1 << 16;  // exceeds the page-key packing
  EXPECT_FALSE(o.Validate().ok());
  o.exec.eddy.spill.partitions = 8;
  o.exec.eddy.spill.page_entries = 0;
  EXPECT_FALSE(o.Validate().ok());
  o.exec.eddy.spill.page_entries = 64;
  o.exec.eddy.spill.pool_frames = 0;
  EXPECT_FALSE(o.Validate().ok());

  RunOptions preset = RunOptions::LargerThanMemory(512);
  EXPECT_TRUE(preset.Validate().ok());
  EXPECT_TRUE(preset.spill);
  EXPECT_EQ(preset.memory_budget_entries, 512u);
}

}  // namespace
}  // namespace stems
