// servebench: end-to-end and per-layer benchmark of the served engine.
//
//   servebench --workload <serve|join|spill|threaded> --seed <n>
//              --seconds <s> --trace <0|1> [--spans-out <file>]
//
// One process, one load-generator thread. The run
//   1. sets up (engine, tables, Server::Start, connects, Prepare, warm-up
//      groups) kSetups times and keeps the last, reporting the median;
//   2. serves generated queries for --seconds (then to the end of the
//      cycle) through the public Client, closed loop, timing each from
//      Submit to its last Rows frame, in slices of at least kSliceSeconds;
//      the yardstick runs before each set-up and after each slice, and
//      wall-clock and CPU metrics are scaled by its median (yardstick.h);
//   3. replays the same generated queries in-process on a fresh engine,
//      which is the reference for the output check and the source of the
//      virtual-time metrics and exact routing counts;
//   4. prints a readable report and, as its last stdout line, one JSON
//      object: end-to-end metrics with --trace 0, per-layer metrics with
//      --trace 1 (spans around every RPC of every other served cycle, and
//      around each Engine/cursor/encode call of the replay).
// Exit code 0 when the run completed; the JSON's "correct" field carries
// the output, brute-force and stage-sum checks.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "replay.h"
#include "served.h"
#include "spans.h"
#include "workload.h"
#include "yardstick.h"

using namespace servebench;

namespace {

/// Set-ups per run; setup_s reports their median.
constexpr int kSetups = 5;
/// Minimum length of a slice of the measured window. Wall-clock and CPU
/// metrics are computed per slice and reported as the median over slices,
/// so a burst of neighbour load that covers less than half of the window
/// does not move them.
constexpr double kSliceSeconds = 1.0;
/// The stage-sum acceptance: replay stage self times must cover at least
/// this share of the replay's measured group time.
constexpr double kMinStageSumShare = 0.95;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;  ///< required: run.py passes BENCHMARK.json's run_seconds
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && args->seconds > 0;
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double Seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Pins the process to the last `n` CPUs it may run on, before any thread
/// starts (threads inherit the mask). Returns the CPUs, e.g. "3" or "2,3".
std::string PinToLastCpus(size_t n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "unpinned";
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  std::string list;
  for (int cpu = CPU_SETSIZE - 1, taken = 0;
       cpu >= 0 && taken < static_cast<int>(n); --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &pinned);
    list = std::to_string(cpu) + (list.empty() ? "" : ",") + list;
    ++taken;
  }
  if (sched_setaffinity(0, sizeof(pinned), &pinned) != 0) return "unpinned";
  return list;
}

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Peak resident memory of this process (VmHWM), 0 if unreadable. Not
/// getrusage's ru_maxrss: that survives execve, so under a parent such as
/// run.py it reports the parent's size whenever the parent was larger.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kb / 1024.0;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
  double raw = -1;  ///< the value before host-speed correction, if corrected
};

/// One Prometheus sample value from Metrics-frame text ("name value").
double PromValue(const std::string& text, const std::string& name) {
  size_t pos = 0;
  while ((pos = text.find(name + " ", pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::strtod(text.c_str() + pos + name.size() + 1, nullptr);
    }
    pos += name.size();
  }
  return 0;
}

/// server.fetch_us histogram (sum, count) and the request-queue high water,
/// read through the public Metrics and Stats frames.
struct ServerCounters {
  double fetch_us_sum = 0;
  double fetch_count = 0;
  double queue_high_water = 0;
};

std::optional<ServerCounters> ReadServerCounters(stems::server::Client& c) {
  auto metrics = c.Metrics();
  auto stats = c.TenantStats();
  if (!metrics.ok() || !stats.ok()) return std::nullopt;
  ServerCounters out;
  out.fetch_us_sum = PromValue(metrics.Value(), "stems_server_fetch_us_sum");
  out.fetch_count = PromValue(metrics.Value(), "stems_server_fetch_us_count");
  for (const auto& [name, value] : stats.Value()) {
    if (name == "server.request_queue_high_water") {
      out.queue_high_water = static_cast<double>(value);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <serve|join|spill|threaded> --seed <n>"
                 " --seconds <s> --trace <0|1> [--spans-out <file>]\n",
                 argv[0]);
    return 2;
  }
  const std::optional<Workload> maybe_workload =
      MakeWorkload(args.workload, args.seed);
  if (!maybe_workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *maybe_workload;
  const std::string cpus = PinToLastCpus(w.cpus);
  std::string yardstick_error;
  std::unique_ptr<Yardstick> yardstick = Yardstick::Start(&yardstick_error);
  if (!yardstick) {
    std::fprintf(stderr, "%s\n", yardstick_error.c_str());
    return 1;
  }
  // Yardstick times: one before each set-up and one after each slice.
  std::vector<double> yard_s;

  // --- 1. set-up, kSetups times -------------------------------------------
  std::vector<ServedQuery> served;
  std::vector<double> setup_s;
  std::unique_ptr<ServedSetup> setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();
    yard_s.push_back(yardstick->Measure());
    const Clock::time_point t0 = Clock::now();
    std::string error;
    setup = ServedSetup::Start(w, &error);
    if (!setup) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return 1;
    }
    for (size_t g = 0; g < w.warmup_groups; ++g) {
      setup->RunGroup(g, nullptr, &served);
    }
    setup_s.push_back(Seconds(t0, Clock::now()));
  }
  const size_t warmup_queries = served.size();

  // --- 2. measured window -------------------------------------------------
  SpanLog served_log;
  // Traced runs read the Metrics and Stats frames around every group (so
  // traced and untraced groups see the same extra RPCs) and keep the
  // engine-side Fetch time (server.fetch_us deltas) of the traced groups.
  // Untraced groups give the wall time per served query.
  ServerCounters traced_engine;
  bool counters_ok = true;
  double untraced_s = 0;
  size_t untraced_queries = 0;
  // Peak memory is read after the window's first cycle: a fixed amount of
  // work (the set-ups, their warm-up groups, and every generated query
  // once). The window's query count varies with machine speed, and on serve
  // memory grows with every query served (README, "Findings").
  double peak_rss_mb = 0;
  // Whole cycles of at least kSliceSeconds; CPU time excludes the load
  // generator's own thread.
  struct Slice {
    size_t begin = 0, end = 0;  ///< range in `served`
    double seconds = 0, cpu_s = 0;
  };
  std::vector<Slice> slices;
  auto engine_cpu = [] {
    return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) -
           CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  };
  Slice open{served.size(), 0, 0, engine_cpu()};
  const Clock::time_point window0 = Clock::now();
  Clock::time_point slice0 = window0;
  const Clock::time_point deadline =
      window0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds));
  // The window ends on a cycle boundary, so every generated query is served
  // equally often and the mix of selectivities is the same in every run.
  size_t groups = 0;
  while (Clock::now() < deadline || groups % w.groups_per_cycle() != 0) {
    // Traced runs trace every other cycle through the generated queries, so
    // traced and untraced latency cover the same queries in the same
    // minutes of the same run (trace.overhead_pct).
    const bool traced =
        args.trace && (groups / w.groups_per_cycle()) % 2 == 1;
    std::optional<ServerCounters> c0;
    if (args.trace) c0 = ReadServerCounters(setup->client(0));
    const Clock::time_point g0 = Clock::now();
    setup->RunGroup(groups, traced ? &served_log : nullptr, &served);
    const Clock::time_point g1 = Clock::now();
    if (args.trace) {
      const std::optional<ServerCounters> c1 =
          ReadServerCounters(setup->client(0));
      if (c0 && c1) {
        if (traced) {
          traced_engine.fetch_us_sum += c1->fetch_us_sum - c0->fetch_us_sum;
          traced_engine.fetch_count += c1->fetch_count - c0->fetch_count;
        }
        traced_engine.queue_high_water = c1->queue_high_water;
      } else {
        counters_ok = false;
      }
    }
    if (!traced) {
      untraced_s += Seconds(g0, g1);
      untraced_queries += w.sessions;
    }
    ++groups;
    if (groups == w.groups_per_cycle()) {
      peak_rss_mb = PeakRssMb();
    }
    const bool last = Clock::now() >= deadline;
    if (groups % w.groups_per_cycle() == 0 &&
        (Seconds(slice0, g1) >= kSliceSeconds || last)) {
      const double cpu = engine_cpu();
      Slice done{open.begin, served.size(), Seconds(slice0, g1),
                 cpu - open.cpu_s};
      if (last && done.seconds < kSliceSeconds && !slices.empty()) {
        // A short tail joins the slice before it.
        slices.back().end = done.end;
        slices.back().seconds += done.seconds;
        slices.back().cpu_s += done.cpu_s;
      } else {
        slices.push_back(done);
      }
      // The yardstick runs between slices, outside their time and CPU.
      yard_s.push_back(yardstick->Measure());
      open = Slice{served.size(), 0, 0, engine_cpu()};
      slice0 = Clock::now();
    }
  }
  const Clock::time_point window1 = Clock::now();
  setup.reset();
  yardstick.reset();

  // --- 3. in-process replay -----------------------------------------------
  stems::Rng sample_rng(args.seed ^ 0x5eedull);
  const size_t sample_qi = sample_rng.NextBounded(w.queries.size());
  SpanLog replay_log;
  const ReplayResult replay =
      Replay(w, w.options, w.groups_per_cycle(), sample_qi, &replay_log);
  // The threaded executor has no virtual clock. Its virtual-time metrics
  // come from the same queries under its own routing options (policy,
  // batch size) on the sim executor. They follow routing and batching, not
  // the thread pool, and with scan-only tables they come out close to
  // join's (README, "End-to-end metrics").
  std::optional<ReplayResult> sim_replay;
  if (w.kind == Kind::kThreaded && !args.trace) {
    stems::RunOptions options = w.options;
    options.executor = stems::ExecutorKind::kSim;
    SpanLog scratch;
    sim_replay = Replay(w, options, w.groups_per_cycle(), std::nullopt,
                        &scratch);
  }
  std::optional<ReplayResult> unbudgeted;
  if (w.kind == Kind::kSpill && args.trace) {
    stems::RunOptions options = w.options;
    options.memory_budget_entries = 0;
    options.spill = false;
    SpanLog scratch;
    unbudgeted = Replay(w, options, w.groups_per_cycle(), std::nullopt,
                        &scratch);
  }

  // --- output check -------------------------------------------------------
  std::vector<std::string> problems;
  for (const std::optional<ReplayResult>* r : {&sim_replay, &unbudgeted}) {
    if (r->has_value() && !(*r)->error.empty()) {
      problems.push_back("replay: " + (*r)->error);
    }
  }
  if (!replay.error.empty()) problems.push_back("replay: " + replay.error);
  std::map<size_t, Digest> expected;
  for (const ReplayQuery& q : replay.queries) expected[q.qi] = q.digest;
  size_t failed = 0;
  for (const ServedQuery& q : served) {
    std::string problem = q.error;
    const auto ref = expected.find(q.qi);
    if (problem.empty() && (ref == expected.end() || !(ref->second == q.digest))) {
      problem = "query " + std::to_string(q.qi) + ": served " +
                std::to_string(q.digest.rows) +
                " rows, the replay disagrees (row count or checksum)";
    }
    if (!problem.empty()) {
      ++failed;
      if (problems.size() < 8) problems.push_back(problem);
    }
  }
  size_t attempted = served.size();
  if (replay.brute_force_checked) {
    ++attempted;
    if (!replay.brute_force_ok) {
      ++failed;
      problems.push_back("brute-force reference disagrees on query " +
                         std::to_string(sample_qi));
    }
  } else {
    problems.push_back("brute-force sample was not checked");
  }

  // --- metrics -------------------------------------------------------------
  // Per-slice statistics; the untraced metrics report their medians.
  std::vector<double> p50s, p90s, first_row_p50s, qps, cpu_ms;
  std::vector<double> traced_latency, untraced_latency;
  size_t completed = 0;
  for (const Slice& slice : slices) {
    std::vector<double> latency, first_row;
    for (size_t i = slice.begin; i < slice.end; ++i) {
      const ServedQuery& q = served[i];
      if (!q.error.empty() || q.latency_ms < 0) continue;
      latency.push_back(q.latency_ms);
      (q.traced ? traced_latency : untraced_latency).push_back(q.latency_ms);
      if (q.first_row_ms >= 0) first_row.push_back(q.first_row_ms);
    }
    const auto n = static_cast<double>(latency.size());
    completed += latency.size();
    p50s.push_back(Quantile(latency, 0.5));
    p90s.push_back(Quantile(latency, 0.9));
    first_row_p50s.push_back(Quantile(first_row, 0.5));
    qps.push_back(Ratio(n, slice.seconds));
    cpu_ms.push_back(Ratio(slice.cpu_s * 1000.0, n));
  }
  const double window_s = Seconds(window0, window1);
  std::vector<Metric> metrics;
  auto add = [&](const std::string& name, double value, const char* unit,
                 size_t samples) {
    metrics.push_back(Metric{name, value, unit, samples});
  };
  // Host-speed correction (README): the run's wall-clock and CPU metrics
  // are scaled to the yardstick's nominal speed, so a slower or faster
  // period of the shared host cancels out while any change to the engine,
  // which the yardstick does not use, shows in full.
  bool yardstick_ok = !yard_s.empty();
  for (double y : yard_s) yardstick_ok = yardstick_ok && y > 0;
  if (!yardstick_ok) problems.push_back("yardstick: loopback round trip failed");
  const double yard_median = Quantile(yard_s, 0.5);
  const double host_scale = Ratio(Yardstick::kNominalSeconds, yard_median);
  auto add_corrected = [&](const std::string& name, double raw,
                           double exponent, const char* unit, size_t samples) {
    metrics.push_back(Metric{name, raw * std::pow(host_scale, exponent), unit,
                             samples, raw});
  };

  const std::vector<ReplayQuery>& rq = replay.queries;
  auto replay_sum = [](const std::vector<ReplayQuery>& qs, auto field) {
    double total = 0;
    for (const ReplayQuery& q : qs) total += static_cast<double>(field(q));
    return total;
  };
  auto replay_median = [](const std::vector<ReplayQuery>& qs, auto field) {
    std::vector<double> v;
    for (const ReplayQuery& q : qs) v.push_back(static_cast<double>(field(q)));
    return Quantile(v, 0.5);
  };
  const double results = replay_sum(rq, [](auto& q) { return q.stats.num_results; });
  const double rows = replay_sum(rq, [](auto& q) { return q.digest.rows; });

  if (!args.trace) {
    const std::vector<ReplayQuery>& vq =
        sim_replay ? sim_replay->queries : replay.queries;
    add_corrected("latency_p50_ms", Quantile(p50s, 0.5), 1, "ms", completed);
    add_corrected("latency_p90_ms", Quantile(p90s, 0.5), 1, "ms", completed);
    add_corrected("first_row_p50_ms", Quantile(first_row_p50s, 0.5), 1, "ms",
                  completed);
    add_corrected("throughput_qps", Quantile(qps, 0.5), -1, "1/s", completed);
    add_corrected("cpu_ms_per_query", Quantile(cpu_ms, 0.5), 1, "ms",
                  completed);
    // Means, not medians: virtual times move in whole scan steps, and on
    // serve the two statements finish at two distinct times, so a median
    // jumps between steps (or modes) from one seed to the next.
    const double nv = static_cast<double>(vq.size());
    add("virtual_completion_ms",
        Ratio(replay_sum(vq, [](auto& q) { return q.virtual_completion_ms; }),
              nv),
        "ms", vq.size());
    add("virtual_first_row_ms",
        Ratio(replay_sum(vq, [](auto& q) { return q.virtual_first_row_ms; }),
              nv),
        "ms", vq.size());
    add("peak_rss_mb", peak_rss_mb, "MB", 1);
    add_corrected("setup_s", Quantile(setup_s, 0.5), 1, "s", setup_s.size());
  } else {
    // server layer: client RTTs from the traced groups' RPC spans.
    served_log.ComputeSelfTimes();
    std::map<std::string, std::vector<double>> rtt_us;
    for (const Span& s : served_log.spans()) {
      if (s.parent >= 0) {
        rtt_us[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) /
                                 1000.0);
      }
    }
    const std::vector<double>& fetch_rtt = rtt_us["rpc.fetch"];
    double fetch_rtt_mean = 0;
    for (double v : fetch_rtt) fetch_rtt_mean += v;
    fetch_rtt_mean = Ratio(fetch_rtt_mean, static_cast<double>(fetch_rtt.size()));
    const double engine_fetch_us_mean =
        Ratio(traced_engine.fetch_us_sum, traced_engine.fetch_count);
    if (!counters_ok) {
      problems.push_back("Metrics/Stats frames could not be read");
    }
    const double served_us_per_query =
        Ratio(untraced_s * 1e6, static_cast<double>(untraced_queries));
    const double replay_us_per_query =
        Ratio(replay_sum(rq, [](auto& q) { return q.QueryNs(); }) / 1000.0,
              static_cast<double>(rq.size()));
    add("server.bind_rtt_p50_us", Quantile(rtt_us["rpc.bind"], 0.5), "us",
        rtt_us["rpc.bind"].size());
    add("server.submit_rtt_p50_us", Quantile(rtt_us["rpc.submit"], 0.5), "us",
        rtt_us["rpc.submit"].size());
    add("server.fetch_rtt_p50_us", Quantile(fetch_rtt, 0.5), "us",
        fetch_rtt.size());
    add("server.engine_fetch_us_mean", engine_fetch_us_mean, "us",
        static_cast<size_t>(traced_engine.fetch_count));
    add("server.transport_us_per_rpc", fetch_rtt_mean - engine_fetch_us_mean,
        "us", fetch_rtt.size());
    add("server.overhead_share",
        1.0 - Ratio(replay_us_per_query, served_us_per_query), "share",
        untraced_queries);
    add("server.queue_high_water", traced_engine.queue_high_water, "count",
        1);

    // wire layer.
    add("wire.encode_ns_per_row",
        Ratio(replay_sum(rq, [](auto& q) { return q.encode_ns; }), rows), "ns",
        static_cast<size_t>(rows));
    add("wire.bytes_per_row",
        Ratio(replay_sum(rq, [](auto& q) { return q.encoded_bytes; }), rows),
        "B", static_cast<size_t>(rows));

    // sql / engine / query layers: replay stage self times.
    add("sql.prepare_us",
        replay_median(rq, [](auto& q) { return q.prepare_ns; }) / 1000.0, "us",
        rq.size());
    add("engine.bind_us",
        replay_median(rq, [](auto& q) { return q.bind_ns; }) / 1000.0, "us",
        rq.size());
    add("engine.submit_us",
        replay_median(rq, [](auto& q) { return q.submit_ns; }) / 1000.0, "us",
        rq.size());
    add("engine.first_row_us",
        replay_median(rq, [](auto& q) { return q.first_row_ns; }) / 1000.0,
        "us", rq.size());
    add("engine.drain_us",
        replay_median(rq, [](auto& q) { return q.drain_ns; }) / 1000.0, "us",
        rq.size());

    // eddy layer.
    const double routed =
        replay_sum(rq, [](auto& q) { return q.stats.tuples_routed; });
    const double routing_ns =
        replay_sum(rq, [](auto& q) { return q.stats.routing_wall_ns; });
    add("eddy.routed_per_result", Ratio(routed, results), "count", rq.size());
    add("eddy.routing_ns_per_tuple", Ratio(routing_ns, routed), "ns",
        static_cast<size_t>(routed));
    // Threaded runs sum routing time over their workers.
    const double lanes =
        rq.empty() ? 1 : std::max<double>(1, rq[0].stats.worker_counters.size());
    add("eddy.routing_share",
        Ratio(routing_ns,
              lanes * replay_sum(rq, [](auto& q) { return q.ExecNs(); })),
        "share", rq.size());

    // stem layer.
    const double builds = replay_sum(rq, [](auto& q) { return q.builds; });
    const double probes = replay_sum(rq, [](auto& q) { return q.probes; });
    add("stem.builds_per_query",
        Ratio(builds, static_cast<double>(rq.size())), "count", rq.size());
    add("stem.probes_per_result", Ratio(probes, results), "count", rq.size());
    add("stem.matches_per_probe",
        Ratio(replay_sum(rq, [](auto& q) { return q.matches; }), probes),
        "count", rq.size());
    add("stem.builds_avoided_share",
        Ratio(replay_sum(rq, [](auto& q) { return q.stats.builds_avoided; }),
              builds),
        "share", rq.size());

    // spill layer (zero on workloads without a memory budget).
    add("spill.ios_per_query",
        Ratio(replay_sum(rq, [](auto& q) { return q.stats.spill_ios; }),
              static_cast<double>(rq.size())),
        "count", rq.size());
    add("spill.pool_hit_rate",
        Ratio(static_cast<double>(replay.pool_hits),
              static_cast<double>(replay.pool_hits + replay.pool_misses)),
        "share", static_cast<size_t>(replay.pool_hits + replay.pool_misses));
    add("spill.bytes_per_result",
        Ratio(replay_sum(rq, [](auto& q) { return q.stats.bytes_spilled; }),
              results),
        "B", rq.size());
    add("spill.overhead_ratio",
        unbudgeted ? Ratio(replay_sum(rq, [](auto& q) { return q.drain_ns; }),
                           replay_sum(unbudgeted->queries,
                                      [](auto& q) { return q.drain_ns; }))
                   : 0.0,
        "ratio", unbudgeted ? rq.size() : 0);

    // exec layer (zero off the threaded executor).
    double imbalance = 0, workers = 0;
    for (const ReplayQuery& q : rq) {
      const auto& wc = q.stats.worker_counters;
      if (wc.empty()) continue;
      double max = 0, sum = 0;
      for (const auto& c : wc) {
        max = std::max(max, static_cast<double>(c.tuples_routed));
        sum += static_cast<double>(c.tuples_routed);
      }
      imbalance += Ratio(max, sum / static_cast<double>(wc.size()));
      workers = static_cast<double>(wc.size());
    }
    const double submit_ns = replay_sum(rq, [](auto& q) { return q.submit_ns; });
    add("exec.shard_lock_wait_share",
        Ratio(static_cast<double>(replay.shard_lock_wait_ns),
              submit_ns * workers),
        "share", workers > 0 ? rq.size() : 0);
    add("exec.worker_imbalance",
        Ratio(imbalance, workers > 0 ? static_cast<double>(rq.size()) : 0),
        "ratio", workers > 0 ? rq.size() : 0);
    add("exec.routed_per_s_per_worker",
        Ratio(routed, submit_ns / 1e9 * workers), "1/s",
        workers > 0 ? rq.size() : 0);

    // trace layer.
    add("trace.overhead_pct",
        (Ratio(Quantile(traced_latency, 0.5), Quantile(untraced_latency, 0.5)) -
         1.0) *
            100.0,
        "%", traced_latency.size() + untraced_latency.size());
    const double stage_share =
        Ratio(static_cast<double>(replay.stage_ns),
              static_cast<double>(replay.group_ns));
    add("trace.stage_sum_share", stage_share, "share", rq.size());
    if (stage_share < kMinStageSumShare) {
      problems.push_back("stage-sum check: replay stages cover " +
                         std::to_string(stage_share) + " of the query time");
    }

    if (!args.spans_out.empty()) {
      replay_log.ComputeSelfTimes();
      if (!served_log.WriteTsv(args.spans_out + ".served.tsv") ||
          !replay_log.WriteTsv(args.spans_out + ".replay.tsv")) {
        problems.push_back("could not write spans to " + args.spans_out);
      }
    }
  }

  // --- report ----------------------------------------------------------------
  const bool correct = failed == 0 && problems.empty();
  std::printf("servebench %s seed=%" PRIu64 " trace=%d cpus=%s: %zu groups"
              " in %zu slices, %.3f s (%zu warm-up queries), %zu/%zu failed\n",
              w.name.c_str(), args.seed, args.trace ? 1 : 0, cpus.c_str(),
              groups, slices.size(), window_s, warmup_queries, failed,
              attempted);
  std::printf("  one cycle: %zu queries, %.0f result rows (replay)\n",
              rq.size(), rows);
  for (const std::string& p : problems) std::printf("  problem: %s\n", p.c_str());
  std::printf("  yardstick %.3f ms (median of %zu, nominal %.3f ms):"
              " host-speed scale %.4f\n",
              yard_median * 1000.0, yard_s.size(),
              Yardstick::kNominalSeconds * 1000.0, host_scale);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.4f %-6s (n=%zu)", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
    if (m.raw >= 0) std::printf(" raw %.4f", m.raw);
    std::printf("\n");
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
