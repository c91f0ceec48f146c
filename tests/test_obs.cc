// Observability layer: the thread-safe metrics registry, per-query trace
// spans and their Chrome trace JSON export, EXPLAIN ANALYZE profiles, the
// one counter table behind QueryStats and the registry, and the server's
// metrics exposition
// (Metrics wire frame, Stats frame additions, slow-query log).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "engine/engine.h"
#include "obs/metrics_registry.h"
#include "obs/profile.h"
#include "obs/query_counters.h"
#include "obs/trace.h"
#include "runtime/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "server/tenant_governor.h"
#include "tests/test_util.h"

namespace stems {
namespace {

using testing::IntRows;
using testing::IntSchema;
using testing::ScanSpec;

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistryTest, CounterGaugeBasics) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("a.count");
  c->Add();
  c->Add(9);
  EXPECT_EQ(c->value(), 10u);
  // Handles are stable: a second lookup returns the same object.
  EXPECT_EQ(registry.GetCounter("a.count"), c);

  obs::Gauge* g = registry.GetGauge("a.depth");
  g->Set(7);
  g->Add(-2);
  EXPECT_EQ(g->value(), 5);
  g->SetMax(3);
  EXPECT_EQ(g->value(), 5) << "SetMax must not lower the gauge";
  g->SetMax(11);
  EXPECT_EQ(g->value(), 11);
}

TEST(MetricsRegistryTest, HistogramPercentilesAreOrdered) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("lat.us");
  EXPECT_EQ(h->Percentile(0.5), 0.0) << "empty histogram reads zero";
  for (uint64_t v = 1; v <= 1000; ++v) h->Observe(v);
  EXPECT_EQ(h->count(), 1000u);
  EXPECT_EQ(h->sum(), 500500u);
  const double p50 = h->Percentile(0.50);
  const double p95 = h->Percentile(0.95);
  const double p99 = h->Percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Power-of-two buckets: the true p50 (500) lives in (256, 512], the
  // tail in (512, 1024].
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 512.0);
  EXPECT_LE(p99, 1024.0);
}

TEST(MetricsRegistryTest, ExpositionTextFormat) {
  obs::MetricsRegistry registry;
  registry.GetCounter("eddy.tuples_routed")->Add(42);
  registry.GetGauge("spill.pool_pages")->Set(-3);
  registry.GetHistogram("engine.query_wall_us")->Observe(100);
  const std::string text = registry.ExpositionText();
  EXPECT_NE(text.find("# TYPE stems_eddy_tuples_routed counter\n"
                      "stems_eddy_tuples_routed 42\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("stems_spill_pool_pages -3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE stems_engine_query_wall_us summary"),
            std::string::npos);
  EXPECT_NE(text.find("stems_engine_query_wall_us{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("stems_engine_query_wall_us_count 1"),
            std::string::npos);
}

// The TSan regression of the synchronized metrics path: four writer
// threads pump both the engine-wide registry and the per-query
// MetricsRecorder (whose std::map + SeriesHandle used to be unguarded)
// while a reader snapshots concurrently.
TEST(MetricsRegistryTest, ConcurrentPumpFromFourWorkers) {
  obs::MetricsRegistry registry;
  MetricsRecorder recorder;
  constexpr int kWorkers = 4;
  constexpr int kIters = 2000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)registry.ExpositionText();
      (void)registry.Snapshot();
      if (recorder.Has("results")) (void)recorder.Series("results").total();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      obs::Counter* shared = registry.GetCounter("shared.count");
      obs::Histogram* hist = registry.GetHistogram("shared.lat");
      CounterSeries* series = recorder.SeriesHandle("results");
      for (int i = 0; i < kIters; ++i) {
        shared->Add();
        registry.GetGauge("w" + std::to_string(w) + ".depth")->Set(i);
        hist->Observe(static_cast<uint64_t>(i));
        series->Increment(static_cast<SimTime>(i));
        recorder.Count("probes", static_cast<SimTime>(i));
      }
    });
  }
  for (auto& t : workers) t.join();
  stop = true;
  reader.join();
  EXPECT_EQ(registry.GetCounter("shared.count")->value(),
            static_cast<uint64_t>(kWorkers * kIters));
  EXPECT_EQ(registry.GetHistogram("shared.lat")->count(),
            static_cast<uint64_t>(kWorkers * kIters));
  EXPECT_EQ(recorder.Series("results").total(), kWorkers * kIters);
  EXPECT_EQ(recorder.Series("probes").total(), kWorkers * kIters);
}

// --- Tracer ------------------------------------------------------------------

TEST(TracerTest, SamplingRecordsEveryNth) {
  obs::Tracer tracer(/*every_n=*/3);
  int sampled = 0;
  for (int i = 0; i < 10; ++i) {
    if (tracer.SampleRoute()) ++sampled;
  }
  EXPECT_EQ(sampled, 4) << "events 0, 3, 6, 9";
  // Streams sample independently: the service stream starts fresh.
  EXPECT_TRUE(tracer.SampleService());
  EXPECT_FALSE(tracer.SampleService());
  EXPECT_EQ(tracer.events_seen(), 12u);
}

TEST(TracerTest, RingKeepsMostRecentEvents) {
  obs::Tracer tracer(/*every_n=*/1, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    obs::TraceEvent ev;
    ev.name = "e" + std::to_string(i);
    ev.cat = "route";
    ev.ph = 'i';
    ev.ts_us = static_cast<uint64_t>(i);
    tracer.Record(std::move(ev));
  }
  EXPECT_EQ(tracer.events_recorded(), 10u);
  const std::string json = tracer.ToJson();
  // Only the most recent `capacity` events survive, oldest-first.
  EXPECT_EQ(json.find("\"e5\""), std::string::npos) << json;
  for (int i = 6; i < 10; ++i) {
    EXPECT_NE(json.find("\"e" + std::to_string(i) + "\""), std::string::npos)
        << json;
  }
  const size_t e6 = json.find("\"e6\"");
  const size_t e9 = json.find("\"e9\"");
  EXPECT_LT(e6, e9) << "events must be emitted oldest-first";
}

TEST(TracerTest, JsonEscape) {
  EXPECT_EQ(obs::Tracer::JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

/// Minimal structural JSON validation: balanced braces/brackets outside
/// string literals, no trailing garbage. Catches truncated or unescaped
/// output without a JSON library.
void ExpectWellFormedJson(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; break;
      case '}': case ']':
        --depth;
        ASSERT_GE(depth, 0) << "unbalanced close in: " << json;
        break;
      default: break;
    }
  }
  EXPECT_FALSE(in_string) << "unterminated string in: " << json;
  EXPECT_EQ(depth, 0) << "unbalanced braces in: " << json;
}

// --- engine fixture ----------------------------------------------------------

/// users ⋈ orders ⋈ items with an age selection (the quickstart query):
/// users 1 and 2 pass age >= 30, user 1 has two orders, user 2 one, every
/// ordered item exists. Cardinality 3.
class ObsEngineTest : public ::testing::Test {
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

  static constexpr const char* kJoinSql =
      "SELECT u.id, o.item_id, i.price FROM users u, orders o, items i "
      "WHERE u.id = o.user_id AND o.item_id = i.id AND u.age >= 30";

  Engine engine_;
};

// --- EXPLAIN ANALYZE ---------------------------------------------------------

TEST_F(ObsEngineTest, ExplainAnalyzeGoldenProfile) {
  // Tiny memory budget with spill on, so the profile's spill columns move.
  RunOptions options;
  options.spill = true;
  options.memory_budget_entries = 4;
  auto handle = engine_.Query(std::string("EXPLAIN ANALYZE ") + kJoinSql,
                              options);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_TRUE(handle.Value().done()) << "EXPLAIN ANALYZE runs to completion";
  const obs::QueryProfile profile = handle.Value().Profile();

  EXPECT_EQ(profile.executor, "sim");
  EXPECT_EQ(profile.totals.num_results, 3u);
  EXPECT_GT(profile.totals.tuples_routed, 0u);
  EXPECT_GT(profile.totals.spill_ios, 0u) << "budget of 4 entries must spill";

  // Per-module rows: the selection must show its *observed* selectivity
  // (2 of 3 users pass age >= 30) against the uninformed 0.5 prior, and
  // the SteMs must carry build/probe/spill counters.
  const obs::ModuleProfileRow* selection = nullptr;
  uint64_t stem_rows = 0;
  uint64_t stem_builds = 0;
  uint64_t stem_spill_ios = 0;
  for (const obs::ModuleProfileRow& m : profile.modules) {
    if (m.kind == "SM") selection = &m;
    if (m.kind == "SteM") {
      ++stem_rows;
      stem_builds += m.builds;
      stem_spill_ios += m.spill_ios;
    }
  }
  ASSERT_NE(selection, nullptr) << "profile must list the selection module";
  EXPECT_EQ(selection->tuples_in, 3u);
  EXPECT_EQ(selection->tuples_out, 2u);
  EXPECT_NEAR(selection->observed_selectivity, 2.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(selection->assumed_selectivity, 0.5);
  EXPECT_GE(stem_rows, 2u) << "two join columns => at least two SteMs";
  EXPECT_GT(stem_builds, 0u);
  EXPECT_GT(stem_spill_ios, 0u) << "spill I/O must be attributed to SteMs";

  // The rendered table carries the headline columns.
  const std::string table = profile.ToTable();
  for (const char* needle :
       {"module", "sel(obs)", "sel(asm)", "spill_io", "executor=sim"}) {
    EXPECT_NE(table.find(needle), std::string::npos)
        << "missing '" << needle << "' in:\n" << table;
  }
}

TEST_F(ObsEngineTest, ExplainAnalyzeConvenienceAndPrepareRejection) {
  auto table = engine_.ExplainAnalyze(kJoinSql);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_NE(table.Value().find("SteM"), std::string::npos);

  auto prepared = engine_.Prepare(std::string("EXPLAIN ANALYZE ") + kJoinSql);
  ASSERT_FALSE(prepared.ok());
  EXPECT_EQ(prepared.status().code(), StatusCode::kInvalidQuery);
  EXPECT_NE(prepared.status().message().find("cannot be prepared"),
            std::string::npos);
}

TEST_F(ObsEngineTest, ExplainRequiresAnalyze) {
  auto handle = engine_.Query(std::string("EXPLAIN ") + kJoinSql);
  ASSERT_FALSE(handle.ok());
  EXPECT_NE(handle.status().message().find("expected ANALYZE"),
            std::string::npos);
}

// --- trace export ------------------------------------------------------------

TEST_F(ObsEngineTest, SimTraceExportsChromeJson) {
  RunOptions options;
  options.trace_every_n = 1;
  auto handle = engine_.Query(kJoinSql, options);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  handle.Value().Wait();
  const std::string json = handle.Value().DumpTrace();
  ExpectWellFormedJson(json);
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u) << json.substr(0, 80);
  EXPECT_NE(json.find("\"otherData\""), std::string::npos);
  EXPECT_NE(json.find("\"events_seen\""), std::string::npos);
  EXPECT_NE(json.find("\"every_n\":1"), std::string::npos);
  // Both sim streams must appear: routing decisions and module service
  // spans on the virtual clock.
  EXPECT_NE(json.find("\"cat\":\"route\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"module\""), std::string::npos);
}

TEST_F(ObsEngineTest, ThreadedTraceExportsMorselSpans) {
  RunOptions options = RunOptions::Threaded();
  options.trace_every_n = 1;
  auto handle = engine_.Query(kJoinSql, options);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  handle.Value().Wait();
  const std::string json = handle.Value().DumpTrace();
  ExpectWellFormedJson(json);
  EXPECT_NE(json.find("\"cat\":\"morsel\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
}

TEST_F(ObsEngineTest, TracingDisabledDumpsEmptyTrace) {
  auto handle = engine_.Query(kJoinSql);
  ASSERT_TRUE(handle.ok());
  handle.Value().Wait();
  const std::string json = handle.Value().DumpTrace();
  ExpectWellFormedJson(json);
  EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"every_n\":0"), std::string::npos);
}

// --- engine-wide registry ----------------------------------------------------

TEST_F(ObsEngineTest, EngineRegistryAggregatesAcrossQueries) {
  ASSERT_TRUE(engine_.Query(kJoinSql).ok());
  auto handle = engine_.Query(kJoinSql);
  ASSERT_TRUE(handle.ok());
  handle.Value().Wait();
  // Both queries were driven to completion lazily by cursors; pump the
  // first too.
  obs::MetricsRegistry& registry = engine_.metrics_registry();
  EXPECT_GE(registry.GetCounter("engine.queries_completed")->value(), 1u);
  EXPECT_GT(registry.GetCounter("eddy.tuples_routed")->value(), 0u);
  EXPECT_GT(registry.GetHistogram("engine.query_wall_us")->count(), 0u);
  const std::string text = registry.ExpositionText();
  EXPECT_NE(text.find("stems_engine_queries_completed"), std::string::npos);
}

TEST_F(ObsEngineTest, PublishMetricsOffKeepsRegistryQuiet) {
  RunOptions options;
  options.publish_metrics = false;
  auto handle = engine_.Query(kJoinSql, options);
  ASSERT_TRUE(handle.ok());
  handle.Value().Wait();
  EXPECT_EQ(engine_.metrics_registry().GetCounter("engine.queries_completed")
                ->value(),
            0u);
}

// --- one counter table, every surface ----------------------------------------

// Engine over R(a, b) ⋈ S(x, y), 2000 rows each on 500 keys: with a
// LargerThanMemory budget of 128 entries both executors spill.
class CounterTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<std::vector<int64_t>> r, s;
    for (int64_t i = 0; i < 2000; ++i) {
      r.push_back({i % 500, i});
      s.push_back({(i * 7) % 500, i});
    }
    ASSERT_TRUE(engine_
                    .AddTable(TableDef{"R", IntSchema({"a", "b"}),
                                       {ScanSpec("R.scan")}},
                              IntRows(r))
                    .ok());
    ASSERT_TRUE(engine_
                    .AddTable(TableDef{"S", IntSchema({"x", "y"}),
                                       {ScanSpec("S.scan")}},
                              IntRows(s))
                    .ok());
  }

  /// Runs `n` spilling joins to completion; returns their summed counters
  /// and the workers' sum.
  void RunQueries(const RunOptions& options, int n, obs::QueryCounters* sum,
                  obs::QueryCounters* workers) {
    for (int q = 0; q < n; ++q) {
      auto handle = engine_.Query(std::string(kSql) + std::to_string(q * 50),
                                  options);
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      handle.Value().Wait();
      const QueryStats stats = handle.Value().Stats();
      ASSERT_GT(stats.num_results, 0u);
      ASSERT_GT(stats.spill_ios, 0u) << "budget 128 must spill";
      *sum += stats;
      for (const obs::QueryCounters& w : stats.worker_counters) *workers += w;
    }
  }

  uint64_t Registry(const char* name) {
    return engine_.metrics_registry().GetCounter(name)->value();
  }

  /// Every table entry with a registry name reads the summed Stats().
  void ExpectRegistryMatches(const obs::QueryCounters& sum) {
    for (const obs::QueryCounterInfo& c : obs::kQueryCounterTable) {
      if (c.registry_name == nullptr) continue;
      EXPECT_EQ(Registry(c.registry_name), sum.*c.member)
          << c.registry_name << " vs QueryStats::" << c.field;
    }
  }

  static constexpr const char* kSql =
      "SELECT R.a, S.y FROM R, S WHERE R.a = S.x AND R.b >= ";

  Engine engine_;
};

TEST_F(CounterTableTest, SimRegistryAgreesWithStats) {
  obs::QueryCounters sum, workers;
  RunQueries(RunOptions::LargerThanMemory(128), 3, &sum, &workers);
  ExpectRegistryMatches(sum);
  EXPECT_GT(Registry("spill.ios"), 0u);
  EXPECT_GT(Registry("spill.bytes"), 0u);
  EXPECT_GT(Registry("stem.probes"), 0u);
  EXPECT_EQ(Registry("engine.queries_completed"), 3u);
  EXPECT_EQ(engine_.metrics_registry().GetHistogram("engine.query_wall_us")
                ->count(),
            3u);
}

TEST_F(CounterTableTest, ThreadedRegistryAgreesWithStats) {
  RunOptions options = RunOptions::LargerThanMemory(128);
  options.executor = ExecutorKind::kThreaded;
  options.num_threads = 2;
  obs::QueryCounters sum, workers;
  RunQueries(options, 3, &sum, &workers);
  ExpectRegistryMatches(sum);
  // Worker-only entries are the merge of the per-worker counters.
  EXPECT_EQ(Registry("exec.morsels"), workers.morsels);
  EXPECT_GT(workers.morsels, 0u);
  EXPECT_EQ(Registry("eddy.tuples_routed"), workers.tuples_routed);
  EXPECT_EQ(Registry("stem.builds"), workers.builds);
  EXPECT_EQ(Registry("spill.ios"), sum.spill_ios);
  EXPECT_GT(Registry("spill.ios"), 0u);
  EXPECT_EQ(Registry("engine.queries_completed"), 3u);
}

TEST_F(CounterTableTest, SimCancelAfterCompletionIsNotCountedTwice) {
  auto handle = engine_.Query(std::string(kSql) + "0",
                              RunOptions::LargerThanMemory(128));
  ASSERT_TRUE(handle.ok());
  handle.Value().Wait();
  handle.Value().Cancel();
  const QueryStats stats = handle.Value().Stats();
  EXPECT_EQ(Registry("engine.queries_completed"), 1u);
  EXPECT_EQ(Registry("eddy.tuples_routed"), stats.tuples_routed);
  EXPECT_EQ(Registry("spill.ios"), stats.spill_ios);
}

TEST_F(CounterTableTest, SimCancelMidRunPublishesWorkButNoCompletion) {
  auto handle = engine_.Query(std::string(kSql) + "0",
                              RunOptions::LargerThanMemory(128));
  ASSERT_TRUE(handle.ok());
  ResultCursor cursor = handle.Value().cursor();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(cursor.Next().has_value());
  ASSERT_FALSE(handle.Value().done());
  handle.Value().Cancel();
  const QueryStats stats = handle.Value().Stats();
  EXPECT_GT(stats.tuples_routed, 0u);
  obs::QueryCounters sum;
  sum += stats;
  ExpectRegistryMatches(sum);
  EXPECT_EQ(Registry("engine.queries_completed"), 0u)
      << "a stopped query is not a completion";
  EXPECT_EQ(engine_.metrics_registry().GetHistogram("engine.query_wall_us")
                ->count(),
            0u);
}

// Module events of a cancelled sim query that are already on the shared
// clock still run while another query drains it. Their work must not reach
// the cancelled query's Stats(): it stays what Cancel published.
TEST_F(CounterTableTest, SimCancelMidRunFreezesStats) {
  auto cancelled = engine_.Query(std::string(kSql) + "0",
                                 RunOptions::LargerThanMemory(128));
  ASSERT_TRUE(cancelled.ok());
  ResultCursor cursor = cancelled.Value().cursor();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(cursor.Next().has_value());
  ASSERT_FALSE(cancelled.Value().done());
  cancelled.Value().Cancel();
  const uint64_t probes = Registry("stem.probes");
  const uint64_t matches = Registry("stem.matches");

  auto drained = engine_.Query(std::string(kSql) + "50",
                               RunOptions::LargerThanMemory(128));
  ASSERT_TRUE(drained.ok());
  drained.Value().Wait();

  const QueryStats stats = cancelled.Value().Stats();
  EXPECT_EQ(stats.probes, probes);
  EXPECT_EQ(stats.matches, matches);
  // The work itself stopped at Cancel, not only the reported stats: the
  // cancelled query's SteMs probed nothing more while the second query
  // drained the shared clock.
  uint64_t stem_probes = 0;
  for (const obs::ModuleProfileRow& row : cancelled.Value().Profile().modules) {
    if (row.kind == "SteM") stem_probes += row.probes;
  }
  EXPECT_EQ(stem_probes, probes);
  obs::QueryCounters sum;
  sum += stats;
  sum += drained.Value().Stats();
  ExpectRegistryMatches(sum);
}

// The Stats wire frame's payload is the wire contract.
TEST(TenantRollupTest, StatsFrameCounterNames) {
  // Golden counter-name list of the Stats wire frame payload. A counter
  // the table rolls up per tenant must appear here; update deliberately.
  server::TenantRollup rollup;
  std::vector<std::string> names;
  for (const auto& [name, value] : rollup.Counters()) names.push_back(name);
  const std::vector<std::string> expected = {
      "queries_submitted", "queries_admitted", "queries_queued",
      "queries_rejected", "queries_completed", "queries_cancelled",
      "queries_failed", "num_results", "tuples_routed", "tuples_retired",
      "spill_ios", "bytes_spilled", "builds_avoided", "running_queries",
      "queued_queries", "memory_entries_in_use", "queue_high_water",
      "queued_time_ms",
  };
  EXPECT_EQ(names, expected)
      << "TenantRollup::Counters() drifted from the golden list; update "
         "both (and docs/observability.md) together";
}

// --- tenant governor queue accounting ---------------------------------------

TEST(TenantGovernorObsTest, QueueHighWaterAndQueuedTime) {
  server::TenantGovernor governor;
  server::TenantQuota quota;
  quota.max_concurrent_queries = 1;
  ASSERT_TRUE(governor.RegisterTenant("t", quota).ok());
  ASSERT_EQ(governor.OnSubmit("t", 0).outcome,
            server::AdmissionOutcome::kAdmit);
  ASSERT_EQ(governor.OnSubmit("t", 0).outcome,
            server::AdmissionOutcome::kQueue);
  ASSERT_EQ(governor.OnSubmit("t", 0).outcome,
            server::AdmissionOutcome::kQueue);
  EXPECT_EQ(governor.Rollup("t").queue_high_water, 2u);

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  governor.OnQueryFinished("t", 0, QueryStats{}, Status::OK());
  ASSERT_TRUE(governor.TryAdmitQueued("t", 0));
  governor.DropQueued("t");
  const server::TenantRollup rollup = governor.Rollup("t");
  EXPECT_EQ(rollup.queue_high_water, 2u) << "high water is monotone";
  EXPECT_EQ(rollup.queued_queries, 0u);
  // Both deferred submits waited at least the 20ms sleep (minus sched
  // noise; assert a conservative floor).
  EXPECT_GE(rollup.queued_time_ms, 10u);
}

// --- server exposition -------------------------------------------------------

class ObsServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .AddTable(TableDef{"users", IntSchema({"id", "age"}),
                                       {ScanSpec("users.scan")}},
                              IntRows({{1, 34}, {2, 57}, {3, 25}}))
                    .ok());
  }

  Engine engine_;
};

TEST_F(ObsServerTest, MetricsFrameServesExpositionEndToEnd) {
  server::ServerOptions options;
  server::Server srv(&engine_, options);
  ASSERT_TRUE(srv.Start().ok());
  server::Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", srv.port(), "tenant_a").ok());
  auto rows = client.RunQuery("SELECT u.id FROM users u WHERE u.age >= 30");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.Value().size(), 2u);

  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const std::string& text = metrics.Value();
  for (const char* needle :
       {"stems_server_submits_admitted 1", "stems_server_sessions_active",
        "stems_server_engine_ticks", "stems_server_request_queue_high_water",
        "stems_server_fetch_us_count", "stems_engine_queries_completed",
        "stems_eddy_tuples_routed"}) {
    EXPECT_NE(text.find(needle), std::string::npos)
        << "missing '" << needle << "' in:\n" << text;
  }
  // The wire frame and the in-process accessor serve the same registry.
  EXPECT_NE(srv.MetricsText().find("stems_server_submits_admitted 1"),
            std::string::npos);

  // Stats frame additions: server health rides with the tenant rollup.
  auto stats = client.TenantStats();
  ASSERT_TRUE(stats.ok());
  bool saw_ticks = false, saw_hwm = false, saw_queued_time = false;
  for (const auto& [name, value] : stats.Value()) {
    if (name == "server.engine_ticks") saw_ticks = value > 0;
    if (name == "server.request_queue_high_water") saw_hwm = value > 0;
    if (name == "queued_time_ms") saw_queued_time = true;
  }
  EXPECT_TRUE(saw_ticks);
  EXPECT_TRUE(saw_hwm);
  EXPECT_TRUE(saw_queued_time);

  EXPECT_TRUE(client.Close().ok());
  srv.Shutdown();
}

TEST_F(ObsServerTest, SlowQueryLogFiresAboveThreshold) {
  Mutex mu;
  std::vector<std::string> lines;
  server::ServerOptions options;
  options.slow_query_ms = 1;
  options.slow_query_log = [&](const std::string& line) {
    MutexLock lock(&mu);
    lines.push_back(line);
  };
  // Pin a floor under the query's wall time (the hook runs on the engine
  // thread between Submit and the first Fetch's pump).
  options.post_submit_hook = [](const std::string&, QueryHandle&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  server::Server srv(&engine_, options);
  ASSERT_TRUE(srv.Start().ok());
  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv.port(), "tenant_a").ok());
  auto rows = client.RunQuery("SELECT u.id FROM users u");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(client.Close().ok());
  srv.Shutdown();

  MutexLock lock(&mu);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("slow query: tenant=tenant_a"), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("wall_ms="), std::string::npos);
  EXPECT_NE(lines[0].find("results=3"), std::string::npos);
  EXPECT_GE(engine_.metrics_registry().GetCounter("server.slow_queries")
                ->value(),
            1u);
}

TEST_F(ObsServerTest, ExplainAnalyzeRejectedOverTheWire) {
  server::ServerOptions options;
  server::Server srv(&engine_, options);
  ASSERT_TRUE(srv.Start().ok());
  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv.port(), "tenant_a").ok());
  auto prepared =
      client.Prepare("EXPLAIN ANALYZE SELECT u.id FROM users u");
  ASSERT_FALSE(prepared.ok());
  EXPECT_NE(client.last_error().message.find("cannot be prepared"),
            std::string::npos)
      << client.last_error().message;
  EXPECT_TRUE(client.Close().ok());
  srv.Shutdown();
}

}  // namespace
}  // namespace stems
