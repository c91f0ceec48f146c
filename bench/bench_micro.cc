// Micro-benchmarks (google-benchmark): SteM data-structure throughput, EOT
// coverage checks, eddy routing overhead, the cost of the constraint
// checker (an ablation over ConstraintMode), and an end-to-end sweep over
// every policy in the registry.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "bench/bench_util.h"
#include "engine/engine.h"
#include "stem/eot_store.h"
#include "stem/stem_index.h"
#include "storage/generators.h"

namespace stems {
namespace {

// --- SteM index implementations --------------------------------------------

void BM_StemIndexInsert(benchmark::State& state) {
  const auto impl = static_cast<StemIndexImpl>(state.range(0));
  const size_t n = 4096;
  Rng rng(1);
  std::vector<Value> keys;
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(Value::Int64(rng.NextInt(0, 1 << 20)));
  }
  for (auto _ : state) {
    auto index = MakeStemIndex(impl, 64);
    for (size_t i = 0; i < n; ++i) {
      index->Insert(keys[i], static_cast<uint32_t>(i));
    }
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_StemIndexInsert)
    ->Arg(static_cast<int>(StemIndexImpl::kHash))
    ->Arg(static_cast<int>(StemIndexImpl::kOrdered))
    ->Arg(static_cast<int>(StemIndexImpl::kAdaptive));

void BM_StemIndexLookup(benchmark::State& state) {
  const auto impl = static_cast<StemIndexImpl>(state.range(0));
  const size_t n = 4096;
  Rng rng(2);
  auto index = MakeStemIndex(impl, 64);
  std::vector<Value> keys;
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(Value::Int64(rng.NextInt(0, 1 << 16)));
    index->Insert(keys.back(), static_cast<uint32_t>(i));
  }
  std::vector<uint32_t> out;
  size_t i = 0;
  for (auto _ : state) {
    out.clear();
    index->LookupEq(keys[i++ % n], &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_StemIndexLookup)
    ->Arg(static_cast<int>(StemIndexImpl::kHash))
    ->Arg(static_cast<int>(StemIndexImpl::kOrdered))
    ->Arg(static_cast<int>(StemIndexImpl::kAdaptive));

// --- EOT coverage ------------------------------------------------------------

void BM_EotCoverage(benchmark::State& state) {
  const int64_t num_eots = state.range(0);
  EotStore store;
  for (int64_t i = 0; i < num_eots; ++i) {
    store.Add(MakeEotRowRef({Value::Int64(i), Value::Eot(), Value::Eot()}));
  }
  int64_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.Covers({{0, Value::Int64(probe++ % (num_eots + 7))}}));
  }
}
BENCHMARK(BM_EotCoverage)->Arg(16)->Arg(256)->Arg(2048);

// --- End-to-end eddy: routing overhead & constraint checker ablation --------

}  // namespace

// External linkage: the policy-sweep registration in main() below names it.
// `batch_size` is the RunOptions::batch_size knob; the reported
// routed_per_sec / outputs_per_sec counters are the BENCH trajectory data
// points CI publishes (per policy and batch size).
void RunSmallQuery(ConstraintMode mode, const std::string& policy,
                   size_t batch_size, benchmark::State& state) {
  int64_t tuples_routed = 0;
  int64_t outputs = 0;
  double routing_secs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    auto schema = Schema({{"k", ValueType::kInt64}});
    std::vector<ColumnGenSpec> cols{
        {"k", ColumnGenSpec::Kind::kUniform, 0, 255, 0, 0}};
    engine.AddTable(
        TableDef{"R", schema, {{"R.scan", AccessMethodKind::kScan, {}}}},
        GenerateRows(cols, 512, 51)).IgnoreError();
    engine.AddTable(
        TableDef{"S", schema, {{"S.scan", AccessMethodKind::kScan, {}}}},
        GenerateRows(cols, 512, 52)).IgnoreError();
    QueryBuilder qb(engine.catalog());
    qb.AddTable("R").AddTable("S").AddJoin("R.k", "S.k");
    QuerySpec query = qb.Build().ValueOrDie();
    RunOptions options;
    options.policy = policy;
    options.batch_size = batch_size;
    options.exec.scan_defaults.period = Micros(1);
    options.exec.eddy.constraint_mode = mode;
    QueryHandle handle = engine.Submit(query, options).ValueOrDie();
    state.ResumeTiming();
    handle.Wait();
    const QueryStats stats = handle.Stats();
    tuples_routed += static_cast<int64_t>(stats.tuples_routed);
    outputs += static_cast<int64_t>(stats.num_results);
    routing_secs += static_cast<double>(stats.routing_wall_ns) * 1e-9;
  }
  state.SetItemsProcessed(tuples_routed);
  // Router-path throughput: tuples routed per second spent inside routing
  // steps (policy consultation + constraint audit + dispatch) — the cost
  // batch_size amortizes. items_per_second above stays the end-to-end rate.
  state.counters["routed_per_sec"] =
      benchmark::Counter(static_cast<double>(tuples_routed) / routing_secs);
  state.counters["outputs_per_sec"] = benchmark::Counter(
      static_cast<double>(outputs), benchmark::Counter::kIsRate);
  state.SetLabel("items = routing steps");
}

// Observability cost knob for the reorder workload: kDefault is the
// shipping configuration (registry publishing on, tracing off — the
// disabled trace path is one branch on a null pointer), kBare turns the
// whole observability layer off (the pre-observability baseline), kTraced
// samples every 64th event into the per-query ring. CI asserts kDefault
// within 3% and kTraced within 15% of kBare on routed_per_sec.
enum class ObsMode { kDefault, kBare, kTraced };

// The §4.1 reorder workload (bench_reorder's shape: prioritized subset of
// R, T with a slow scan plus an index, priority bounce on SteM(T)),
// measured for wall-clock routing throughput across batch sizes. This is
// the acceptance workload for the batched-dataflow refactor: batch_size=64
// must route ≥ 2x the tuples/sec of batch_size=1.
void RunReorderWorkload(size_t batch_size, benchmark::State& state,
                        ObsMode obs_mode = ObsMode::kDefault) {
  constexpr int64_t kPriorityCutoff = 10;
  int64_t tuples_routed = 0;
  int64_t outputs = 0;
  double routing_secs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    // 1000 rows over 100 distinct join keys: probe hits arrive in
    // multi-match bursts, the arrival pattern that fills routing batches
    // (and that a production feed with skewed keys produces naturally).
    engine.AddTable(
        TableDef{"R", SchemaR(), {{"R.scan", AccessMethodKind::kScan, {}}}},
        GenerateTableR(2000, 100, 5)).IgnoreError();
    engine.AddTable(TableDef{"T",
                             SchemaT(),
                             {{"T.scan", AccessMethodKind::kScan, {}},
                              {"T.idx", AccessMethodKind::kIndex, {0}}}},
                    GenerateTableT(250, 6)).IgnoreError();
    QueryBuilder qb(engine.catalog());
    qb.AddTable("R").AddTable("T").AddJoin("R.a", "T.key");
    QuerySpec query = qb.Build().ValueOrDie();
    RunOptions options;
    options.batch_size = batch_size;
    // bench_reorder's timing shape compressed 5000x, so source delivery
    // outpaces the 1us-per-step router and routing is the bottleneck —
    // the regime batching exists for. The virtual ratios (T scan 12x
    // slower than R, index lookups in between) are preserved.
    options.exec.scan_overrides["R.scan"].period = Micros(1);
    options.exec.scan_overrides["R.scan"].prioritizer = [](const Row& row) {
      return row.value(1).AsInt64() < kPriorityCutoff;
    };
    options.exec.scan_overrides["T.scan"].period = Micros(12);
    options.exec.index_defaults.latency =
        std::make_shared<FixedLatency>(Micros(40));
    StemOptions t_stem;
    t_stem.bounce_mode = ProbeBounceMode::kPrioritized;
    options.exec.stem_overrides["T"] = t_stem;
    if (obs_mode == ObsMode::kBare) options.publish_metrics = false;
    if (obs_mode == ObsMode::kTraced) options.trace_every_n = 64;
    QueryHandle handle = engine.Submit(query, options).ValueOrDie();
    state.ResumeTiming();
    handle.Wait();
    const QueryStats stats = handle.Stats();
    tuples_routed += static_cast<int64_t>(stats.tuples_routed);
    outputs += static_cast<int64_t>(stats.num_results);
    routing_secs += static_cast<double>(stats.routing_wall_ns) * 1e-9;
  }
  state.SetItemsProcessed(tuples_routed);
  // Router-path throughput (see RunSmallQuery): the acceptance metric for
  // the batched dataflow is this counter's ratio across batch sizes.
  state.counters["routed_per_sec"] =
      benchmark::Counter(static_cast<double>(tuples_routed) / routing_secs);
  state.counters["outputs_per_sec"] = benchmark::Counter(
      static_cast<double>(outputs), benchmark::Counter::kIsRate);
  state.SetLabel("items = routing steps");
}

// The larger-than-memory workload (src/spill/): an equijoin whose build
// state is 4x the global entry budget, run with spilling enabled. The
// reported counters are the CI trajectory for the spill subsystem:
// spill_ios / bytes_spilled must stay nonzero (the budget actually binds)
// and vt_ratio (spilled virtual completion / unlimited virtual completion)
// must stay within the 5x acceptance bound on this quick workload.
// wall_ratio is the same comparison on the wall clock (total spilled over
// total unlimited time in QueryHandle::Wait): what the spill path costs in
// CPU beyond its I/O model. It is reported, not gated.
void RunSpillWorkload(benchmark::State& state) {
  const size_t rows = 600;  // per table; budget = 25% of total build size
  int64_t spill_ios = 0;
  int64_t bytes_spilled = 0;
  double vt_ratio = 0;
  double wall_secs[2] = {0, 0};
  int64_t iterations = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SimTime completed[2] = {0, 0};
    uint64_t ios = 0;
    uint64_t bytes = 0;
    for (int spill = 0; spill < 2; ++spill) {
      Engine engine;
      auto schema = Schema({{"k", ValueType::kInt64}});
      std::vector<ColumnGenSpec> cols{
          {"k", ColumnGenSpec::Kind::kUniform, 0, 299, 0, 0}};
      engine.AddTable(
          TableDef{"R", schema, {{"R.scan", AccessMethodKind::kScan, {}}}},
          GenerateRows(cols, rows, 71)).IgnoreError();
      engine.AddTable(
          TableDef{"S", schema, {{"S.scan", AccessMethodKind::kScan, {}}}},
          GenerateRows(cols, rows, 72)).IgnoreError();
      QueryBuilder qb(engine.catalog());
      qb.AddTable("R").AddTable("S").AddJoin("R.k", "S.k");
      QuerySpec query = qb.Build().ValueOrDie();
      RunOptions options =
          spill ? RunOptions::LargerThanMemory(rows / 2) : RunOptions();
      options.exec.scan_defaults.period = Micros(10);
      QueryHandle handle = engine.Submit(query, options).ValueOrDie();
      state.ResumeTiming();
      const auto wall_start = std::chrono::steady_clock::now();
      handle.Wait();
      const auto wall_end = std::chrono::steady_clock::now();
      wall_secs[spill] +=
          std::chrono::duration<double>(wall_end - wall_start).count();
      state.PauseTiming();
      const QueryStats stats = handle.Stats();
      completed[spill] = stats.completed_at;
      if (spill) {
        ios = stats.spill_ios;
        bytes = stats.bytes_spilled;
      }
    }
    state.ResumeTiming();
    spill_ios += static_cast<int64_t>(ios);
    bytes_spilled += static_cast<int64_t>(bytes);
    vt_ratio += static_cast<double>(completed[1]) /
                static_cast<double>(completed[0]);
    ++iterations;
  }
  state.counters["spill_ios"] =
      benchmark::Counter(static_cast<double>(spill_ios) / iterations);
  state.counters["bytes_spilled"] =
      benchmark::Counter(static_cast<double>(bytes_spilled) / iterations);
  state.counters["vt_ratio"] = benchmark::Counter(vt_ratio / iterations);
  state.counters["wall_ratio"] =
      benchmark::Counter(wall_secs[1] / wall_secs[0]);
  state.SetLabel("unlimited vs LargerThanMemory(25%)");
}

// Cross-query SteM sharing (RunOptions::share_stems): N identical queries
// submitted concurrently, shared vs private build state. The CI trajectory
// counter is shared_build_reduction — total physical SteM inserts (rows +
// index postings actually written) of the private run over the shared run;
// with fan-out N it should approach N (the first query builds, the rest
// attach). builds_avoided is the shared run's skipped physical builds.
void RunSharedFanoutWorkload(size_t fanout, benchmark::State& state) {
  const size_t rows = 512;
  int64_t private_inserts = 0;
  int64_t shared_inserts = 0;
  int64_t builds_avoided = 0;
  int64_t iterations = 0;
  for (auto _ : state) {
    uint64_t inserts[2] = {0, 0};
    uint64_t avoided = 0;
    for (int shared = 0; shared < 2; ++shared) {
      state.PauseTiming();
      Engine engine;
      const std::vector<ColumnGenSpec> cols{
          {"k", ColumnGenSpec::Kind::kUniform, 0, 127, 0, 1.0},
          {"v", ColumnGenSpec::Kind::kSequential, 0, 0, 1, 1.0}};
      engine.AddTable(TableDef{"R", SchemaFor(cols),
                               {{"R.scan", AccessMethodKind::kScan, {}}}},
                      GenerateRows(cols, rows, 81)).IgnoreError();
      engine.AddTable(TableDef{"S", SchemaFor(cols),
                               {{"S.scan", AccessMethodKind::kScan, {}}}},
                      GenerateRows(cols, rows, 82)).IgnoreError();
      QueryBuilder qb(engine.catalog());
      qb.AddTable("R").AddTable("S").AddJoin("R.k", "S.k");
      QuerySpec query = qb.Build().ValueOrDie();
      RunOptions options;
      options.share_stems = shared != 0;
      options.exec.scan_defaults.period = Micros(1);
      std::vector<QueryHandle> handles;
      for (size_t i = 0; i < fanout; ++i) {
        handles.push_back(engine.Submit(query, options).ValueOrDie());
      }
      state.ResumeTiming();
      engine.RunAll();
      state.PauseTiming();
      for (QueryHandle& h : handles) {
        for (const auto& module : h.eddy()->modules()) {
          if (module->kind() != ModuleKind::kStem) continue;
          const auto* stem = static_cast<const Stem*>(module.get());
          inserts[shared] += stem->builds() - stem->builds_avoided();
        }
        avoided += h.Stats().builds_avoided;
      }
      state.ResumeTiming();
    }
    private_inserts += static_cast<int64_t>(inserts[0]);
    shared_inserts += static_cast<int64_t>(inserts[1]);
    builds_avoided += static_cast<int64_t>(avoided);
    ++iterations;
  }
  state.counters["shared_build_reduction"] = benchmark::Counter(
      static_cast<double>(private_inserts) /
      static_cast<double>(shared_inserts > 0 ? shared_inserts : 1));
  state.counters["builds_avoided"] =
      benchmark::Counter(static_cast<double>(builds_avoided) / iterations);
  state.SetLabel("private vs share_stems, identical concurrent queries");
}

namespace {

void BM_SpillLargerThanMemory(benchmark::State& state) {
  RunSpillWorkload(state);
}
BENCHMARK(BM_SpillLargerThanMemory);

void BM_SharedStemFanout(benchmark::State& state) {
  RunSharedFanoutWorkload(static_cast<size_t>(state.range(0)), state);
}
BENCHMARK(BM_SharedStemFanout)->ArgName("fanout")->Arg(2)->Arg(4);

void BM_EddyEndToEnd_CheckerOff(benchmark::State& state) {
  RunSmallQuery(ConstraintMode::kOff, "nary_shj", 1, state);
}
void BM_EddyEndToEnd_CheckerRecord(benchmark::State& state) {
  RunSmallQuery(ConstraintMode::kRecord, "nary_shj", 1, state);
}
BENCHMARK(BM_EddyEndToEnd_CheckerOff);
BENCHMARK(BM_EddyEndToEnd_CheckerRecord);

void BM_ReorderWorkload(benchmark::State& state) {
  RunReorderWorkload(static_cast<size_t>(state.range(0)), state);
}
void BM_ReorderWorkloadBare(benchmark::State& state) {
  RunReorderWorkload(static_cast<size_t>(state.range(0)), state,
                     ObsMode::kBare);
}
void BM_ReorderWorkloadTraced(benchmark::State& state) {
  RunReorderWorkload(static_cast<size_t>(state.range(0)), state,
                     ObsMode::kTraced);
}
BENCHMARK(BM_ReorderWorkload)
    ->ArgName("batch")
    ->Arg(1)
    ->Arg(8)
    ->Arg(64);
// The observability-overhead pair (batch 64 only — the hot routing
// configuration): Bare is the pre-observability baseline, Traced samples
// every 64th event. CI compares both against the default run above.
BENCHMARK(BM_ReorderWorkloadBare)->ArgName("batch")->Arg(64);
BENCHMARK(BM_ReorderWorkloadTraced)->ArgName("batch")->Arg(64);

// --- Row hashing / dedup ------------------------------------------------------

void BM_RowHash(benchmark::State& state) {
  Rng rng(3);
  std::vector<RowRef> rows;
  for (int i = 0; i < 1024; ++i) {
    rows.push_back(MakeRow({Value::Int64(rng.NextInt(0, 1 << 20)),
                            Value::Int64(rng.NextInt(0, 1 << 20)),
                            Value::String("payload")}));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rows[i++ % rows.size()]->Hash());
  }
}
BENCHMARK(BM_RowHash);

}  // namespace
}  // namespace stems

// Custom main instead of BENCHMARK_MAIN(): the end-to-end benchmark sweeps
// every policy in the registry by enumeration, so new policies appear here
// with zero bench edits. Registration happens in main, after every
// STEMS_REGISTER_POLICY static initializer has run.
int main(int argc, char** argv) {
  stems::bench::ForEachRegisteredPolicy([](const std::string& policy) {
    benchmark::RegisterBenchmark(
        ("BM_EddyEndToEnd_Policy/" + policy).c_str(),
        [policy](benchmark::State& state) {
          stems::RunSmallQuery(stems::ConstraintMode::kOff, policy,
                               static_cast<size_t>(state.range(0)), state);
        })
        ->ArgName("batch")
        ->Arg(1)
        ->Arg(8)
        ->Arg(64);
  });
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
