// ConstraintChecker tests: deliberately broken routing policies must be
// caught (paper Table 2's rules are enforceable, not aspirational).
#include <gtest/gtest.h>

#include "eddy/policies/policy_base.h"
#include "tests/test_util.h"

namespace stems {
namespace {

using testing::FastConfig;
using testing::IndexSpec;
using testing::IntRows;
using testing::IntSchema;
using testing::MakePolicy;
using testing::PolicyKind;
using testing::ScanSpec;
using testing::TestDb;

/// Violates BuildFirst: unbuilt singletons go straight to probing.
class SkipBuildPolicy : public PolicyBase {
 public:
  const char* name() const override { return "bad-skip-build"; }

  int ChooseProbeSlot(const Tuple&, const std::vector<int>& c,
                      const ProbeStatsView&) override {
    return c.front();
  }

  RouteDecision Route(const TuplePtr& tuple) override {
    const int slot = tuple->SingletonSlot();
    if (slot >= 0 && tuple->component(slot).timestamp == kTsInfinity &&
        !tuple->IsPriorProber()) {
      std::vector<int> candidates;
      ProbeCandidates(*tuple, &candidates);
      if (!candidates.empty()) {
        return RouteDecision::Send(eddy_->StemForSlot(candidates.front()),
                                   RouteIntent::kProbe, candidates.front());
      }
    }
    return PolicyBase::Route(tuple);
  }
};

/// Violates ProbeCompletion: retires prior probers immediately.
class DropProberPolicy : public PolicyBase {
 public:
  const char* name() const override { return "bad-drop-prober"; }

  int ChooseProbeSlot(const Tuple&, const std::vector<int>& c,
                      const ProbeStatsView&) override {
    return c.front();
  }

  RouteDecision Route(const TuplePtr& tuple) override {
    if (tuple->IsPriorProber() && !tuple->probe_completed()) {
      return RouteDecision::Retire();
    }
    return PolicyBase::Route(tuple);
  }
};

/// Violates ProbeCompletion: prior probers probe a different SteM.
class WrongStemPolicy : public PolicyBase {
 public:
  const char* name() const override { return "bad-wrong-stem"; }

  int ChooseProbeSlot(const Tuple&, const std::vector<int>& c,
                      const ProbeStatsView&) override {
    return c.front();
  }

  RouteDecision Route(const TuplePtr& tuple) override {
    if (tuple->IsPriorProber() && !tuple->probe_completed()) {
      // Probe some OTHER table's SteM — the §3.4 duplicate recipe.
      for (int s = 0; s < static_cast<int>(eddy_->query().num_slots()); ++s) {
        if (s != tuple->probe_completion_slot() && !tuple->Spans(s)) {
          return RouteDecision::Send(eddy_->StemForSlot(s),
                                     RouteIntent::kProbe, s);
        }
      }
    }
    return PolicyBase::Route(tuple);
  }
};

class ConstraintsTest : public ::testing::Test {
 protected:
  // R joins S; S is index-only so probes genuinely bounce.
  void SetUp() override {
    db_.AddTable("R", IntSchema({"a"}), IntRows({{1}, {2}, {3}}),
                 {ScanSpec("R.scan")});
    db_.AddTable("S", IntSchema({"x", "y"}),
                 IntRows({{1, 4}, {2, 5}, {3, 6}}),
                 {IndexSpec("S.idx", {0})});
    db_.AddTable("T", IntSchema({"b"}), IntRows({{4}, {5}}),
                 {ScanSpec("T.scan")});
    QueryBuilder qb(db_.catalog);
    qb.AddTable("R").AddTable("S").AddTable("T");
    qb.AddJoin("R.a", "S.x").AddJoin("S.y", "T.b");
    query_ = qb.Build().ValueOrDie();
  }

  size_t ViolationsWith(std::unique_ptr<RoutingPolicy> policy) {
    auto run = RunEddy(query_, db_, FastConfig(), std::move(policy));
    return run.violations;
  }

  TestDb db_;
  QuerySpec query_;
};

TEST_F(ConstraintsTest, CorrectPoliciesHaveNoViolations) {
  EXPECT_EQ(ViolationsWith(MakePolicy(PolicyKind::kNaryShj)), 0u);
  EXPECT_EQ(ViolationsWith(MakePolicy(PolicyKind::kLottery)), 0u);
  EXPECT_EQ(ViolationsWith(MakePolicy(PolicyKind::kBenefitCost)), 0u);
}

TEST_F(ConstraintsTest, BuildFirstViolationDetected) {
  EXPECT_GT(ViolationsWith(std::make_unique<SkipBuildPolicy>()), 0u);
}

TEST_F(ConstraintsTest, ProbeCompletionRetireViolationDetected) {
  EXPECT_GT(ViolationsWith(std::make_unique<DropProberPolicy>()), 0u);
}

TEST_F(ConstraintsTest, ProbeCompletionWrongStemViolationDetected) {
  EXPECT_GT(ViolationsWith(std::make_unique<WrongStemPolicy>()), 0u);
}

TEST_F(ConstraintsTest, CheckerOffRecordsNothing) {
  ExecutionConfig config = FastConfig();
  config.eddy.constraint_mode = ConstraintMode::kOff;
  auto run = RunEddy(query_, db_, config,
                     std::make_unique<DropProberPolicy>());
  EXPECT_EQ(run.violations, 0u);
}

TEST_F(ConstraintsTest, BoundedRepetitionBackstopTerminates) {
  // A policy that ping-pongs tuples to SMs forever must still terminate via
  // the BoundedRepetition backstop.
  class PingPongPolicy : public PolicyBase {
   public:
    const char* name() const override { return "bad-pingpong"; }
    RouteDecision Route(const TuplePtr& tuple) override {
      if (!eddy_->selection_modules().empty() && !tuple->is_seed()) {
        SelectionModule* sm = eddy_->selection_modules().front();
        if (sm->predicate()->CanEvaluate(tuple->spanned_mask())) {
          return RouteDecision::Send(sm, RouteIntent::kAuto);
        }
      }
      return PolicyBase::Route(tuple);
    }

    int ChooseProbeSlot(const Tuple&, const std::vector<int>& c,
                        const ProbeStatsView&) override {
      return c.front();
    }
  };

  // Two tables, so a passed singleton is not output-eligible and the bad
  // policy can ping-pong it through the SM forever.
  TestDb db;
  db.AddTable("R", IntSchema({"a"}), IntRows({{7}}), {ScanSpec("R.scan")});
  db.AddTable("S", IntSchema({"x"}), IntRows({{1}}), {ScanSpec("S.scan")});
  QueryBuilder qb(db.catalog);
  qb.AddTable("R").AddTable("S");
  qb.AddSelection("R.a", CompareOp::kGt, Value::Int64(0));
  QuerySpec q = qb.Build().ValueOrDie();
  ExecutionConfig config = FastConfig();
  config.eddy.max_routes_per_tuple = 50;
  auto run = RunEddy(q, db, config, std::make_unique<PingPongPolicy>());
  // Terminated (we got here) and flagged.
  EXPECT_GT(run.violations, 0u);
}

}  // namespace
}  // namespace stems
