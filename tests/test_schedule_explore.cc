// Schedule-exploration harnesses: the model-checking scheduler
// (src/check/) driving *real* engine components — ShardedStem's §3.1
// visibility contract, the LimitGate admission race, spill-lite victim /
// fault-in vs concurrent probes, the threaded executor's ResultChannel,
// the server RequestQueue, and the TenantGovernor — over systematically
// explored thread interleavings.
//
// The harness proves its own teeth with mutation checks: flipping
// ShardedStem::mutation_ts_outside_lock_for_test moves the §3.1 timestamp
// issuance outside the shard critical section, and the explorer must find
// (and deterministically replay) an interleaving that loses a match;
// flipping ResultChannel::mutation_close_before_last_flush_for_test lets
// the stream close before a producer's final flush, and the explorer must
// find the interleaving that loses its rows.
//
// Failing schedules print a replay command:
//   STEMS_SCHEDULE='v1:...' ./test_schedule_explore --gtest_filter=...
// and fixed ones are pinned forever in tests/schedule_corpus/ (replayed by
// the Corpus test below via STEMS_CORPUS_DIR).
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "check/explorer.h"
#include "check/scheduler.h"
#include "common/thread_annotations.h"
#include "exec/limit_gate.h"
#include "exec/result_channel.h"
#include "exec/sharded_stem.h"
#include "obs/metrics_registry.h"
#include "query/query_spec.h"
#include "runtime/tuple.h"
#include "server/request_queue.h"
#include "server/tenant_governor.h"
#include "types/row.h"
#include "types/value.h"

namespace stems {
namespace {

using check::Explorer;
using check::TestCase;
using check::TestFactory;

// --- shared fixtures ---------------------------------------------------------

/// R(a) JOIN S(x) ON R.a = S.x — the two-slot equi-join every stem harness
/// runs under. Built once; read-only during exploration.
const QuerySpec& JoinSpec() {
  static const QuerySpec* spec = [] {
    static Catalog catalog;
    TableDef r;
    r.name = "R";
    r.schema = Schema({{"a", ValueType::kInt64}});
    TableDef s;
    s.name = "S";
    s.schema = Schema({{"x", ValueType::kInt64}});
    EXPECT_TRUE(catalog.AddTable(std::move(r)).ok());
    EXPECT_TRUE(catalog.AddTable(std::move(s)).ok());
    QueryBuilder qb(catalog);
    qb.AddTable("R").AddTable("S");
    qb.AddJoin("R.a", "S.x");
    auto built = qb.Build();
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return new QuerySpec(std::move(built).ValueOrDie());
  }();
  return *spec;
}

/// RAII toggle for the §3.1 mutation switch.
class ScopedMutation {
 public:
  ScopedMutation() { ShardedStem::mutation_ts_outside_lock_for_test = true; }
  ~ScopedMutation() { ShardedStem::mutation_ts_outside_lock_for_test = false; }
};

Explorer::Options SmokeOptions(uint64_t seed = 1) {
  Explorer::Options opts;
  opts.random_schedules = 120;
  opts.pct_schedules = 60;
  opts.pct_depth = 3;
  opts.seed = seed;
  return opts;
}

// --- §3.1 visibility: "exactly the newer row observes the older" -------------

/// Two threads, one row each on opposite slots: build your row, then probe
/// the peer stem with your own build timestamp. The symmetric-join
/// guarantee says exactly ONE of the two probes sees the other's row: the
/// newer-timestamped row observes the older, never both, never neither.
struct VisibilityState {
  Atomic<BuildTs> ts{1};
  std::unique_ptr<ShardedStem> stem_r;
  std::unique_ptr<ShardedStem> stem_s;
  int seen_by_r = 0;  // r's probe of stem_s matched s
  int seen_by_s = 0;  // s's probe of stem_r matched r
};

TestFactory VisibilityFactory() {
  return [] {
    const QuerySpec& query = JoinSpec();
    auto st = std::make_shared<VisibilityState>();
    st->stem_r =
        std::make_unique<ShardedStem>(0, query, /*num_shards=*/1, &st->ts,
                                      nullptr);
    st->stem_s =
        std::make_unique<ShardedStem>(1, query, /*num_shards=*/1, &st->ts,
                                      nullptr);
    TestCase tc;
    tc.threads.push_back([st] {
      const auto built = st->stem_r->Build(MakeRow({Value::Int64(7)}));
      ShardedStem::Bindings bind{{0, Value::Int64(7)}};
      st->stem_s->Probe(bind, built.ts,
                        [&](const RowRef&, BuildTs) { ++st->seen_by_r; });
    });
    tc.threads.push_back([st] {
      const auto built = st->stem_s->Build(MakeRow({Value::Int64(7)}));
      ShardedStem::Bindings bind{{0, Value::Int64(7)}};
      st->stem_r->Probe(bind, built.ts,
                        [&](const RowRef&, BuildTs) { ++st->seen_by_s; });
    });
    tc.check = [st]() -> std::string {
      const int cross = st->seen_by_r + st->seen_by_s;
      if (cross == 1) return "";
      return "expected exactly 1 cross observation, got " +
             std::to_string(cross) + " (seen_by_r=" +
             std::to_string(st->seen_by_r) +
             " seen_by_s=" + std::to_string(st->seen_by_s) + ")";
    };
    return tc;
  };
}

TEST(StemVisibility, HoldsUnderRandomAndPctExploration) {
  Explorer explorer(SmokeOptions(/*seed=*/11));
  const auto result = explorer.Explore("stem_visibility", VisibilityFactory());
  EXPECT_TRUE(result.ok) << result.failure << "\ntrace: "
                         << result.failing_trace;
  EXPECT_GT(result.schedules, 0u);
}

TEST(StemVisibility, HoldsUnderExhaustiveDfs) {
  // The model-checking mode proper: every interleaving of the 2-thread
  // configuration (up to the schedule cap) passes on correct code.
  Explorer::Options opts;
  opts.random_schedules = 0;
  opts.pct_schedules = 0;
  opts.dfs_max_schedules = 4000;
  opts.dfs_max_depth = 64;
  Explorer explorer(opts);
  const auto result = explorer.Explore("stem_visibility_dfs",
                                       VisibilityFactory());
  EXPECT_TRUE(result.ok) << result.failure << "\ntrace: "
                         << result.failing_trace;
  EXPECT_GT(result.schedules, 100u)
      << "DFS explored suspiciously few schedules";
}

// --- the mutation check: the harness must catch misordered code --------------

TEST(StemVisibilityMutation, SeededExplorationFindsTheLostMatch) {
  ScopedMutation mutate;
  Explorer explorer(SmokeOptions(/*seed=*/11));
  const auto result =
      explorer.Explore("stem_visibility_mutated", VisibilityFactory());
  ASSERT_FALSE(result.ok)
      << "timestamp issuance outside the critical section must be caught";
  EXPECT_NE(result.failure.find("cross observation"), std::string::npos)
      << result.failure;
  ASSERT_FALSE(result.failing_trace.empty());

  // The recorded decision trace replays the failure deterministically —
  // ten times out of ten, on a fresh scheduler each time.
  for (int i = 0; i < 10; ++i) {
    const auto replay = explorer.Replay("stem_visibility_mutated",
                                        VisibilityFactory(),
                                        result.failing_trace);
    ASSERT_FALSE(replay.ok) << "replay " << i << " did not reproduce";
    // Explore prefixes the finding strategy ("[random] ..."); the replayed
    // failure is the same text without it.
    EXPECT_NE(result.failure.find(replay.failure), std::string::npos)
        << replay.failure << " vs " << result.failure;
  }

  // And the bug does NOT reproduce on the *correct* code: replaying the
  // same trace there either diverges (the fixed code has a different
  // sync-point sequence, so the trace no longer applies) or completes —
  // but never loses the match. The failure is in the ordering under test,
  // not in the harness.
  ShardedStem::mutation_ts_outside_lock_for_test = false;
  const auto fixed = explorer.Replay("stem_visibility_fixed",
                                     VisibilityFactory(),
                                     result.failing_trace);
  ShardedStem::mutation_ts_outside_lock_for_test = true;  // ScopedMutation
  EXPECT_EQ(fixed.failure.find("cross observation"), std::string::npos)
      << fixed.failure;
}

TEST(StemVisibilityMutation, ExhaustiveDfsFindsTheLostMatch) {
  ScopedMutation mutate;
  Explorer::Options opts;
  opts.random_schedules = 0;
  opts.pct_schedules = 0;
  opts.dfs_max_schedules = 4000;
  Explorer explorer(opts);
  const auto result =
      explorer.Explore("stem_visibility_mutated_dfs", VisibilityFactory());
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.failure.find("cross observation"), std::string::npos);
}

// --- LimitGate: the threaded executor's exact-LIMIT admission ----------------

struct LimitState {
  LimitGate gate{3};
  int admitted[2] = {0, 0};
  int filled[2] = {0, 0};
};

TestFactory LimitFactory() {
  return [] {
    auto st = std::make_shared<LimitState>();
    TestCase tc;
    for (int i = 0; i < 2; ++i) {
      tc.threads.push_back([st, i] {
        for (int k = 0; k < 2; ++k) {
          const auto admit = st->gate.TryAdmit();
          if (admit.admitted) ++st->admitted[i];
          if (admit.filled) ++st->filled[i];
        }
      });
    }
    tc.check = [st]() -> std::string {
      const int admitted = st->admitted[0] + st->admitted[1];
      const int filled = st->filled[0] + st->filled[1];
      if (admitted != 3)
        return "admitted " + std::to_string(admitted) + ", want exactly 3";
      if (filled != 1)
        return "filled " + std::to_string(filled) + ", want exactly 1";
      if (!st->gate.stop_requested()) return "stop flag not raised";
      if (!st->gate.limit_reached()) return "limit_reached not raised";
      return "";
    };
    return tc;
  };
}

TEST(LimitGateCheck, ExactlyLimitAdmissionsUnderExploration) {
  Explorer::Options opts = SmokeOptions(/*seed=*/5);
  opts.dfs_max_schedules = 2000;  // small config: enumerate it too
  Explorer explorer(opts);
  const auto result = explorer.Explore("limit_gate", LimitFactory());
  EXPECT_TRUE(result.ok) << result.failure << "\ntrace: "
                         << result.failing_trace;
}

// --- spill-lite: victim selection / fault-in vs concurrent probes ------------

struct SpillState {
  ShardedSpillState spill;
  Atomic<BuildTs> ts{1};
  std::unique_ptr<ShardedStem> stem;
};

TestFactory SpillFactory() {
  return [] {
    const QuerySpec& query = JoinSpec();
    auto st = std::make_shared<SpillState>();
    st->spill.budget_entries = 1;  // every second build spills a victim
    st->stem = std::make_unique<ShardedStem>(0, query, /*num_shards=*/2,
                                             &st->ts, &st->spill);
    TestCase tc;
    tc.threads.push_back([st] {
      st->stem->Build(MakeRow({Value::Int64(1)}));
      st->stem->Build(MakeRow({Value::Int64(2)}));
      st->stem->Build(MakeRow({Value::Int64(3)}));
    });
    tc.threads.push_back([st] {
      // Unbindable probe: scans (and faults in) every shard, racing the
      // builder's victim selection.
      ShardedStem::Bindings none;
      st->stem->Probe(none, kTsInfinity, [](const RowRef&, BuildTs) {});
    });
    tc.check = [st]() -> std::string {
      // Whatever was spilled and faulted back, nothing may be lost: a
      // final full scan sees all three builds.
      int matches = 0;
      ShardedStem::Bindings none;
      st->stem->Probe(none, kTsInfinity,
                      [&](const RowRef&, BuildTs) { ++matches; });
      if (matches != 3)
        return "final scan saw " + std::to_string(matches) +
               " of 3 built entries";
      if (st->stem->num_entries() != 3) return "entry counter drifted";
      return "";
    };
    return tc;
  };
}

TEST(SpillCheck, NoEntryLostAcrossVictimAndFaultIn) {
  Explorer explorer(SmokeOptions(/*seed=*/23));
  const auto result = explorer.Explore("spill_lite", SpillFactory());
  EXPECT_TRUE(result.ok) << result.failure << "\ntrace: "
                         << result.failing_trace;
}

// --- ResultChannel: the threaded executor's result stream --------------------
//
// Two producers play workers: each admits up to two rows through a
// LimitGate, flushes the first as a mid-run morsel (Push) and the rest in
// its final flush (FinishProducer); whoever retires last closes the stream,
// exactly as ThreadPoolExecutor::WorkerMain / Finalize do. The consumer
// either drains the stream to its end or cancels after the first batch
// (LimitGate stop + Abandon, as ThreadedRun::Stop does).

enum class ChannelConsumer { kDrain, kCancel };

struct ChannelState {
  ChannelState(size_t capacity, uint64_t limit)
      : channel(/*num_producers=*/2, capacity), gate(limit) {}
  ResultChannel channel;
  LimitGate gate;
  int admitted[2] = {0, 0};
  int closes = 0;  // producers only; the channel orders the last one
  size_t delivered = 0;
  bool saw_end = false;
};

TestFactory ChannelFactory(size_t capacity, uint64_t limit,
                           ChannelConsumer consumer) {
  return [capacity, limit, consumer] {
    auto st = std::make_shared<ChannelState>(capacity, limit);
    TestCase tc;
    for (int i = 0; i < 2; ++i) {
      tc.threads.push_back([st, i] {
        std::vector<TuplePtr> rows;
        uint64_t stall_ns = 0;
        for (int k = 0; k < 2; ++k) {
          if (st->gate.stop_requested()) break;
          if (!st->gate.TryAdmit().admitted) continue;
          RowRef row = MakeRow({Value::Int64(10 * i + k)});
          rows.push_back(Tuple::MakeSingleton(1, 0, std::move(row)));
          ++st->admitted[i];
          if (k == 0) stall_ns += st->channel.Push(&rows);
        }
        if (st->channel.FinishProducer(&rows, &stall_ns)) {
          ++st->closes;
          st->channel.Close(ExecOutcome{});
        }
      });
    }
    tc.threads.push_back([st, consumer] {
      std::vector<TuplePtr> out;
      if (consumer == ChannelConsumer::kCancel) {
        st->delivered += st->channel.Pop(&out, /*wait_rows=*/1);
        st->gate.RequestStop();
        st->channel.Abandon();
        return;
      }
      size_t n = 0;
      while ((n = st->channel.Pop(&out, /*wait_rows=*/1)) > 0) {
        st->delivered += n;
      }
      st->saw_end = true;
    });
    tc.check = [st, limit, consumer]() -> std::string {
      const size_t admitted =
          static_cast<size_t>(st->admitted[0] + st->admitted[1]);
      if (st->closes != 1)
        return "stream closed " + std::to_string(st->closes) +
               " times, want exactly once";
      if (!st->channel.closed()) return "stream never closed";
      if (consumer == ChannelConsumer::kCancel) {
        if (st->delivered > admitted) return "delivered rows never admitted";
        return "";
      }
      if (limit != UINT64_MAX && admitted != limit)
        return "admitted " + std::to_string(admitted) + ", want the limit " +
               std::to_string(limit);
      if (st->delivered != admitted)
        return "delivered " + std::to_string(st->delivered) + " of " +
               std::to_string(admitted) + " admitted rows";
      return "";
    };
    return tc;
  };
}

/// The lost-rows mutation's harness: room for every row (no producer
/// stalls), drained to the end.
TestFactory ChannelMutationFactory() {
  return ChannelFactory(/*capacity=*/8, UINT64_MAX, ChannelConsumer::kDrain);
}

/// RAII toggle for the close-before-last-flush mutation.
class ScopedChannelMutation {
 public:
  ScopedChannelMutation() {
    ResultChannel::mutation_close_before_last_flush_for_test = true;
  }
  ~ScopedChannelMutation() {
    ResultChannel::mutation_close_before_last_flush_for_test = false;
  }
};

TEST(ResultChannelCheck, FullChannelDeliversEveryRowOnce) {
  // Capacity 1: every second flush stalls until the consumer pops.
  Explorer::Options opts = SmokeOptions(/*seed=*/71);
  opts.spurious_budget = 1;
  Explorer explorer(opts);
  const auto result = explorer.Explore(
      "result_channel_full",
      ChannelFactory(/*capacity=*/1, UINT64_MAX, ChannelConsumer::kDrain));
  EXPECT_TRUE(result.ok) << result.failure << "\ntrace: "
                         << result.failing_trace;
}

TEST(ResultChannelCheck, LimitFillRacesProducerFinish) {
  // LIMIT 3 over four candidate rows: the filling admission raises the
  // stop flag while the other producer may be mid-flush or retiring.
  Explorer::Options opts = SmokeOptions(/*seed=*/73);
  opts.dfs_max_schedules = 2000;
  Explorer explorer(opts);
  const auto result = explorer.Explore(
      "result_channel_limit",
      ChannelFactory(/*capacity=*/1, /*limit=*/3, ChannelConsumer::kDrain));
  EXPECT_TRUE(result.ok) << result.failure << "\ntrace: "
                         << result.failing_trace;
}

TEST(ResultChannelCheck, CancelNeverStrandsAStalledProducer) {
  // The consumer leaves after one batch; a producer stalled on the full
  // channel must wake (Abandon), and the last one must still close.
  Explorer::Options opts = SmokeOptions(/*seed=*/79);
  opts.spurious_budget = 1;
  Explorer explorer(opts);
  const auto result = explorer.Explore(
      "result_channel_cancel",
      ChannelFactory(/*capacity=*/1, UINT64_MAX, ChannelConsumer::kCancel));
  EXPECT_TRUE(result.ok) << result.failure << "\ntrace: "
                         << result.failing_trace;
}

TEST(ResultChannelMutation, ExplorationFindsTheLostFinalFlush) {
  ScopedChannelMutation mutate;
  // The losing schedule starves one producer between its retirement and
  // its flush while the other producer and the consumer run to the end —
  // rare under a uniform walk, so this harness gets a longer one.
  Explorer::Options opts = SmokeOptions(/*seed=*/83);
  opts.random_schedules = 4000;
  Explorer explorer(opts);
  const auto result =
      explorer.Explore("result_channel_mutated", ChannelMutationFactory());
  ASSERT_FALSE(result.ok)
      << "closing the stream before the last flush must be caught";
  EXPECT_NE(result.failure.find("admitted rows"), std::string::npos)
      << result.failure;
  // Printed so the schedule can be pinned in the corpus verbatim.
  std::cerr << "[check] result_channel_mutated trace: "
            << result.failing_trace << "\n";
  const auto replay = explorer.Replay("result_channel_mutated",
                                      ChannelMutationFactory(),
                                      result.failing_trace);
  EXPECT_FALSE(replay.ok) << "the recorded schedule must reproduce";
}

// --- server RequestQueue: no loss, per-lane FIFO, backpressure ---------------

struct QueueState {
  explicit QueueState(size_t cap) : queue(cap) {}
  server::RequestQueue queue;
  int push_ok = 0;
  int pops = 0;
  std::vector<std::string> lane1_order;
};

TestFactory QueueFactory() {
  return [] {
    auto st = std::make_shared<QueueState>(/*per_lane_capacity=*/1);
    TestCase tc;
    tc.threads.push_back([st] {  // producer
      for (int i = 1; i <= 3; ++i) {
        server::Request request;
        request.session_id = 1;
        request.lane = 1;
        request.payload = std::to_string(i);
        // No retry on a full lane: the push either lands or is counted
        // against the backpressure bound.
        if (st->queue.TryPush(std::move(request))) ++st->push_ok;
      }
      server::Request eof;
      eof.kind = server::Request::Kind::kEndOfInput;
      eof.session_id = 1;
      eof.lane = 1;
      st->queue.PushControl(std::move(eof));  // bypasses the bound
    });
    tc.threads.push_back([st] {  // consumer (the engine pump's pop loop)
      for (int i = 0; i < 4; ++i) {
        server::Request request;
        if (st->queue.PopWithTimeout(&request,
                                     std::chrono::milliseconds(10))) {
          ++st->pops;
          if (request.kind == server::Request::Kind::kFrame) {
            st->lane1_order.push_back(request.payload);
          }
        }
      }
    });
    tc.check = [st]() -> std::string {
      // Everything successfully pushed (plus the unbounded control
      // message) is popped — a virtual timeout can fire only on an empty
      // queue, so backpressure rejections are the only loss channel.
      if (st->pops != st->push_ok + 1)
        return "popped " + std::to_string(st->pops) + ", pushed " +
               std::to_string(st->push_ok) + "+1 control";
      for (size_t i = 1; i < st->lane1_order.size(); ++i) {
        if (st->lane1_order[i - 1] >= st->lane1_order[i])
          return "lane FIFO violated: " + st->lane1_order[i - 1] +
                 " before " + st->lane1_order[i];
      }
      if (st->queue.size() != 0) return "queue not drained";
      return "";
    };
    return tc;
  };
}

TEST(RequestQueueCheck, NoLossUnderBackpressureAndExploration) {
  Explorer explorer(SmokeOptions(/*seed=*/31));
  const auto result = explorer.Explore("request_queue", QueueFactory());
  EXPECT_TRUE(result.ok) << result.failure << "\ntrace: "
                         << result.failing_trace;
}

// --- spurious wakeups: the cv predicates must be loops, not ifs --------------
//
// RequestQueue::PopWithTimeout is the exact wait the server's engine loop
// parks on (EngineThreadMain pops with a bounded timeout), so these
// regressions cover both the queue predicate and the engine-loop cv-wait.

TEST(SpuriousWakeupCheck, PopSurvivesInjectedWakes) {
  Explorer::Options opts = SmokeOptions(/*seed=*/41);
  opts.spurious_budget = 2;  // every cv wait may wake without cause, twice
  Explorer explorer(opts);
  const auto result = explorer.Explore("pop_spurious", [] {
    auto st = std::make_shared<QueueState>(/*per_lane_capacity=*/4);
    TestCase tc;
    tc.threads.push_back([st] {
      server::Request request;
      request.lane = 1;
      request.payload = "x";
      st->queue.TryPush(std::move(request));  // capacity 4: always lands
    });
    tc.threads.push_back([st] {
      server::Request request;
      if (st->queue.PopWithTimeout(&request, std::chrono::milliseconds(10)))
        ++st->pops;
    });
    tc.check = [st]() -> std::string {
      // A spurious wake is not a timeout: with a request pushed, the
      // predicate loop must re-park and still deliver it.
      return st->pops == 1 ? "" : "pop lost the pushed request";
    };
    return tc;
  });
  EXPECT_TRUE(result.ok) << result.failure << "\ntrace: "
                         << result.failing_trace;
}

TEST(SpuriousWakeupCheck, EmptyPopTimesOutDespiteWakes) {
  Explorer::Options opts = SmokeOptions(/*seed=*/43);
  opts.spurious_budget = 2;
  Explorer explorer(opts);
  const auto result = explorer.Explore("pop_empty_timeout", [] {
    auto st = std::make_shared<QueueState>(/*per_lane_capacity=*/4);
    TestCase tc;
    tc.threads.push_back([st] {
      server::Request request;
      if (st->queue.PopWithTimeout(&request, std::chrono::milliseconds(5)))
        ++st->pops;
    });
    tc.check = [st]() -> std::string {
      // Spurious wakes must not be reported as data; only the (virtual)
      // timeout ends the empty wait, with false.
      return st->pops == 0 ? "" : "empty pop fabricated a request";
    };
    return tc;
  });
  EXPECT_TRUE(result.ok) << result.failure << "\ntrace: "
                         << result.failing_trace;
}

// --- TenantGovernor: the admit-on-completion sweep ---------------------------

struct GovernorState {
  server::TenantGovernor governor;
  int admitted = 0;   // across both threads; governor mutex serializes
  int queued = 0;
  int readmitted = 0;
};

TestFactory GovernorFactory() {
  return [] {
    auto st = std::make_shared<GovernorState>();
    server::TenantQuota quota;
    quota.max_concurrent_queries = 1;
    EXPECT_TRUE(st->governor.RegisterTenant("t", quota).ok());
    TestCase tc;
    for (int i = 0; i < 2; ++i) {
      tc.threads.push_back([st] {
        const auto decision = st->governor.OnSubmit("t", 0);
        if (decision.outcome == server::AdmissionOutcome::kAdmit) {
          ++st->admitted;
          st->governor.OnQueryFinished("t", 0, QueryStats{}, Status::OK());
          // The completion sweep: a submit our quota deferred must now
          // fit — admit it on the spot, exactly as SweepCompletions does.
          if (st->governor.TryAdmitQueued("t", 0)) {
            ++st->readmitted;
            st->governor.OnQueryFinished("t", 0, QueryStats{}, Status::OK());
          }
        } else if (decision.outcome == server::AdmissionOutcome::kQueue) {
          ++st->queued;
        }
      });
    }
    tc.check = [st]() -> std::string {
      if (st->admitted + st->queued != 2)
        return "lost a submit: admitted=" + std::to_string(st->admitted) +
               " queued=" + std::to_string(st->queued);
      if (st->admitted < 1) return "nobody admitted under a 1-slot quota";
      // Every queued submit is either re-admitted by a completion sweep or
      // still queued; nothing may be double-admitted or dropped.
      const auto rollup = st->governor.Rollup("t");
      if (rollup.running_queries != 0)
        return "slots leaked: " + std::to_string(rollup.running_queries) +
               " still running";
      const auto still_queued =
          static_cast<int>(rollup.queued_queries);
      if (st->readmitted + still_queued != st->queued)
        return "queue accounting drifted: readmitted=" +
               std::to_string(st->readmitted) +
               " still_queued=" + std::to_string(still_queued) +
               " queued=" + std::to_string(st->queued);
      return "";
    };
    return tc;
  };
}

TEST(GovernorCheck, AdmitOnCompletionSweepUnderExploration) {
  Explorer explorer(SmokeOptions(/*seed=*/53));
  const auto result = explorer.Explore("tenant_governor", GovernorFactory());
  EXPECT_TRUE(result.ok) << result.failure << "\ntrace: "
                         << result.failing_trace;
}

// --- deadlock detection ------------------------------------------------------

TEST(DeadlockCheck, AbBaLockCycleIsReportedWithWaitsFor) {
  Explorer::Options opts;
  opts.random_schedules = 0;
  opts.pct_schedules = 0;
  opts.dfs_max_schedules = 200;  // 2 threads, 2 locks: tiny tree
  Explorer explorer(opts);
  const auto result = explorer.Explore("ab_ba_deadlock", [] {
    auto a = std::make_shared<Mutex>();
    auto b = std::make_shared<Mutex>();
    TestCase tc;
    tc.threads.push_back([a, b] {
      MutexLock la(a.get());
      MutexLock lb(b.get());
    });
    tc.threads.push_back([a, b] {
      MutexLock lb(b.get());
      MutexLock la(a.get());
    });
    tc.check = [] { return std::string(); };
    return tc;
  });
  ASSERT_FALSE(result.ok) << "the AB-BA cycle must be found";
  EXPECT_NE(result.failure.find("deadlock"), std::string::npos)
      << result.failure;
  EXPECT_NE(result.failure.find("waits-for"), std::string::npos)
      << result.failure;
}

// --- trace replay determinism ------------------------------------------------

TEST(ReplayCheck, SameTraceSameSchedule) {
  // Record one random schedule, then replay its trace on a fresh
  // scheduler: the decision sequence taken must be identical.
  const TestFactory factory = LimitFactory();
  auto first = factory();
  check::Scheduler recorder({});
  check::RandomSource random(/*seed=*/7);
  const auto recorded = recorder.Run(std::move(first.threads), &random);
  ASSERT_TRUE(recorded.completed) << recorded.failure;
  ASSERT_FALSE(recorded.trace.empty());
  // Printed so a passing schedule can be lifted into the corpus verbatim.
  std::cerr << "[check] recorded limit_gate trace: " << recorded.trace
            << "\n";

  std::vector<std::string> tokens;
  ASSERT_TRUE(check::Scheduler::DecodeTrace(recorded.trace, &tokens));
  auto second = factory();
  check::Scheduler replayer({});
  check::ReplaySource replay(tokens);
  const auto replayed = replayer.Run(std::move(second.threads), &replay);
  EXPECT_TRUE(replayed.completed) << replayed.failure;
  EXPECT_EQ(replayed.trace, recorded.trace);
}

TEST(ReplayCheck, MalformedTraceIsRejected) {
  std::vector<std::string> tokens;
  EXPECT_FALSE(check::Scheduler::DecodeTrace("r0,r1", &tokens));  // no tag
  EXPECT_FALSE(check::Scheduler::DecodeTrace("v1:r0,,r1", &tokens));
  EXPECT_FALSE(check::Scheduler::DecodeTrace("v1:x9", &tokens));
  EXPECT_TRUE(check::Scheduler::DecodeTrace("v1:r0,s1,t0", &tokens));
  EXPECT_EQ(tokens.size(), 3u);
}

// --- coverage metrics --------------------------------------------------------

TEST(MetricsCheck, ExplorationPublishesCoverageCounters) {
  obs::MetricsRegistry registry;
  Explorer::Options opts = SmokeOptions(/*seed=*/61);
  opts.metrics = &registry;
  Explorer explorer(opts);
  const auto result = explorer.Explore("metrics_probe", LimitFactory());
  ASSERT_TRUE(result.ok) << result.failure;
  EXPECT_EQ(registry.GetCounter("check.schedules_explored")->value(),
            result.schedules);
  EXPECT_EQ(registry.GetCounter("check.states_pruned")->value(),
            result.pruned);
  EXPECT_GT(result.schedules, 0u);
}

// --- the regression corpus ---------------------------------------------------

/// The code-path mutation a corpus target replays under.
enum class Mutation { kNone, kStemTsOutsideLock, kChannelCloseBeforeFlush };

void SetMutation(Mutation mutation, bool on) {
  if (mutation == Mutation::kStemTsOutsideLock) {
    ShardedStem::mutation_ts_outside_lock_for_test = on;
  }
  if (mutation == Mutation::kChannelCloseBeforeFlush) {
    ResultChannel::mutation_close_before_last_flush_for_test = on;
  }
}

/// Target registry for corpus entries: name -> (factory, mutation).
const std::map<std::string, std::pair<TestFactory, Mutation>>& CorpusTargets() {
  static const auto* targets =
      new std::map<std::string, std::pair<TestFactory, Mutation>>{
          {"stem_visibility", {VisibilityFactory(), Mutation::kNone}},
          {"stem_visibility_mutated",
           {VisibilityFactory(), Mutation::kStemTsOutsideLock}},
          {"limit_gate", {LimitFactory(), Mutation::kNone}},
          {"request_queue", {QueueFactory(), Mutation::kNone}},
          {"result_channel", {ChannelMutationFactory(), Mutation::kNone}},
          {"result_channel_mutated",
           {ChannelMutationFactory(), Mutation::kChannelCloseBeforeFlush}},
      };
  return *targets;
}

TEST(CorpusCheck, EveryRecordedScheduleStillBehaves) {
  const char* dir = std::getenv("STEMS_CORPUS_DIR");
  if (dir == nullptr || *dir == '\0') {
    GTEST_SKIP() << "STEMS_CORPUS_DIR not set (ctest sets it)";
  }
  const auto corpus = check::LoadCorpus(dir);
  ASSERT_FALSE(corpus.empty()) << "empty corpus dir: " << dir;
  Explorer explorer({});
  for (const auto& entry : corpus) {
    SCOPED_TRACE(entry.file);
    ASSERT_NE(entry.target, "__malformed__") << "unparseable corpus file";
    const auto it = CorpusTargets().find(entry.target);
    ASSERT_NE(it, CorpusTargets().end())
        << "corpus names unknown target '" << entry.target << "'";
    const auto& [factory, mutation] = it->second;
    SetMutation(mutation, true);
    const auto result = explorer.Replay(entry.target, factory, entry.trace);
    SetMutation(mutation, false);
    if (entry.expect == "fail") {
      EXPECT_FALSE(result.ok)
          << "recorded failing schedule no longer fails — if the bug class "
             "is truly gone, retire the corpus entry deliberately";
      // It must fail on the invariant, not by no longer applying to the
      // code (a diverged replay would keep a stale entry vacuously red).
      EXPECT_EQ(result.failure.find("divergence"), std::string::npos)
          << result.failure;
    } else {
      EXPECT_TRUE(result.ok) << result.failure;
    }
  }
}

}  // namespace
}  // namespace stems
