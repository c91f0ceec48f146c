#include "replay.h"

#include <cstring>
#include <memory>
#include <utility>

#include "reference/brute_force.h"
#include "server/wire.h"

namespace servebench {

using stems::Engine;
using stems::QueryHandle;
using stems::ResultCursor;
using stems::RowView;
using stems::SimTime;
using stems::Value;
namespace wire = stems::server::wire;

namespace {

double VirtualMs(SimTime from, SimTime to) {
  return static_cast<double>(to - from) / 1000.0;
}

struct Live {
  size_t ordinal = 0;  ///< index into ReplayResult::queries
  stems::PreparedQuery prepared;
  std::optional<stems::BoundQuery> bound;
  QueryHandle handle;
  SimTime submitted_at = 0;
  bool first_page = true;
  bool done = false;
  bool sample = false;  ///< checked against the brute-force reference
  std::vector<stems::TuplePtr> tuples;  ///< kept only when `sample`
};

/// Runs one group under a "replay.group" span; returns an error message,
/// empty on success.
std::string RunGroup(Engine& engine, const Workload& w,
                     const stems::RunOptions& options, size_t g, SpanLog* log,
                     std::vector<Live>* live_queries,
                     std::vector<ReplayQuery>* queries) {
  std::vector<Live>& live = *live_queries;
  ScopedSpan group(log, "replay.group", -1, -1);
  auto query_span = [&](const char* name, const Live& q) {
    return ScopedSpan(log, name, group.id(), static_cast<int64_t>(q.ordinal));
  };

  for (size_t s = 0; s < w.sessions; ++s) {
    ScopedSpan span = query_span("prepare", live[s]);
    auto prepared = engine.Prepare(w.statements[w.At(g, s).stmt]);
    if (!prepared.ok()) return "Prepare: " + prepared.status().ToString();
    live[s].prepared = std::move(prepared).Value();
  }
  for (size_t s = 0; s < w.sessions; ++s) {
    ScopedSpan span = query_span("bind", live[s]);
    live[s].bound.emplace(live[s].prepared.Bind(
        stems::sql::SqlParams().Set("min", Value::Int64(w.At(g, s).min))));
  }
  for (size_t s = 0; s < w.sessions; ++s) {
    live[s].submitted_at = engine.sim().now();
    ScopedSpan span = query_span("submit", live[s]);
    auto handle = live[s].bound->Submit(options);
    if (!handle.ok()) return "Submit: " + handle.status().ToString();
    live[s].handle = std::move(handle).Value();
  }

  // Fetch round robin, exactly as the served loop does: one row first,
  // then pages of w.page_rows, each page pulled from the cursor and then
  // encoded as the server's Rows frame.
  size_t remaining = w.sessions;
  while (remaining > 0) {
    for (Live& q : live) {
      if (q.done) continue;
      ReplayQuery& rq = (*queries)[q.ordinal];
      wire::RowsResponse page;
      bool end_of_stream = false;
      {
        ScopedSpan span = query_span(q.first_page ? "first_row" : "drain", q);
        const size_t max_rows = q.first_page ? 1 : w.page_rows;
        ResultCursor cursor = q.handle.cursor();
        while (page.rows.size() < max_rows) {
          std::optional<RowView> row = cursor.NextRow();
          if (!row.has_value()) {
            end_of_stream = true;
            break;
          }
          std::vector<Value> values;
          const size_t n = row->num_columns();
          values.reserve(n);
          for (size_t i = 0; i < n; ++i) values.push_back(row->value(i));
          page.rows.push_back(std::move(values));
          if (q.sample) q.tuples.push_back(row->tuple());
        }
      }
      q.first_page = false;
      {
        ScopedSpan span = query_span("encode", q);
        auto frame = wire::Encode(page);
        if (!frame.ok()) return "wire::Encode: " + frame.status().ToString();
        rq.encoded_bytes += frame.Value().size();
      }
      for (const auto& row : page.rows) rq.digest.AddRow(row);
      if (end_of_stream) {
        q.done = true;
        --remaining;
        if (!q.handle.status().ok()) {
          return "query: " + q.handle.status().ToString();
        }
      }
    }
  }
  return "";
}

}  // namespace

ReplayResult Replay(const Workload& w, const stems::RunOptions& options,
                    size_t groups, std::optional<size_t> brute_force_qi,
                    SpanLog* log) {
  ReplayResult out;
  Engine engine;
  for (const TableData& t : w.tables) {
    stems::Status st = engine.AddTable(t.def, t.rows);
    if (!st.ok()) {
      out.error = "AddTable: " + st.ToString();
      return out;
    }
  }
  const size_t first_span = log->spans().size();

  for (size_t g = 0; g < groups && out.error.empty(); ++g) {
    const bool in_first_cycle = g < w.groups_per_cycle();
    std::vector<Live> live(w.sessions);
    for (size_t s = 0; s < w.sessions; ++s) {
      live[s].ordinal = out.queries.size();
      out.queries.emplace_back();
      out.queries.back().qi = w.IndexAt(g, s);
      live[s].sample = in_first_cycle && brute_force_qi &&
                       *brute_force_qi == out.queries.back().qi;
    }
    out.error = RunGroup(engine, w, options, g, log, &live, &out.queries);
    if (!out.error.empty()) break;

    // Per-query statistics, read after the group span has ended.
    for (Live& q : live) {
      ReplayQuery& rq = out.queries[q.ordinal];
      rq.stats = q.handle.Stats();
      for (const auto& row : q.handle.Profile().modules) {
        if (row.kind == "SteM" || row.kind == "worker") {
          rq.builds += row.builds;
          rq.probes += row.probes;
          rq.matches += row.matches;
        }
      }
      if (rq.stats.completed_at != stems::kSimTimeNever) {
        rq.virtual_completion_ms =
            VirtualMs(q.submitted_at, rq.stats.completed_at);
      }
      const SimTime first =
          q.handle.metrics().Series("results").TimeToReach(1);
      if (first != stems::kSimTimeNever) {
        rq.virtual_first_row_ms = VirtualMs(q.submitted_at, first);
      }
      if (q.sample) {
        const std::set<std::string> expected =
            stems::BruteForceResultSet(q.bound->spec(), engine.store());
        std::vector<std::string> duplicates;
        const std::set<std::string> actual =
            stems::KeysOf(q.tuples, &duplicates);
        out.brute_force_checked = true;
        out.brute_force_ok = duplicates.empty() && expected == actual;
      }
    }
  }

  // Stage times from the spans recorded above.
  log->ComputeSelfTimes();
  const auto& spans = log->spans();
  for (size_t i = first_span; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent < 0) {
      out.group_ns += s.end_ns - s.start_ns;
      continue;
    }
    out.stage_ns += s.self_ns;
    ReplayQuery& rq = out.queries[static_cast<size_t>(s.query)];
    int64_t* slot = nullptr;
    if (std::strcmp(s.name, "prepare") == 0) slot = &rq.prepare_ns;
    if (std::strcmp(s.name, "bind") == 0) slot = &rq.bind_ns;
    if (std::strcmp(s.name, "submit") == 0) slot = &rq.submit_ns;
    if (std::strcmp(s.name, "first_row") == 0) slot = &rq.first_row_ns;
    if (std::strcmp(s.name, "drain") == 0) slot = &rq.drain_ns;
    if (std::strcmp(s.name, "encode") == 0) slot = &rq.encode_ns;
    if (slot != nullptr) *slot += s.self_ns;
  }

  for (const auto& [name, value] : engine.metrics_registry().Snapshot()) {
    const auto v = static_cast<uint64_t>(value);
    if (name == "spill.pool_hits") out.pool_hits = v;
    if (name == "spill.pool_misses") out.pool_misses = v;
    if (name == "exec.shard_lock_wait_ns") out.shard_lock_wait_ns = v;
  }
  return out;
}

}  // namespace servebench
