#include "workload.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"

namespace servebench {

using stems::AccessMethodKind;
using stems::MakeRow;
using stems::Rng;
using stems::RowRef;
using stems::RunOptions;
using stems::Schema;
using stems::TableDef;
using stems::Value;
using stems::ValueType;

namespace {

/// Distinct queries per run. Served queries cycle through them in order, so
/// every window sees the same spread of selectivities.
constexpr size_t kQueriesPerRun = 16;

TableData Table(const std::string& name,
                const std::vector<std::string>& columns,
                std::vector<RowRef> rows) {
  std::vector<stems::ColumnDef> fields;
  for (const auto& c : columns) fields.push_back({c, ValueType::kInt64});
  return TableData{
      TableDef{name, Schema(fields),
               {{name + ".scan", AccessMethodKind::kScan, {}}}},
      std::move(rows)};
}

int64_t Uniform(Rng& rng, int64_t bound) {
  return static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(bound)));
}

/// Stratified parameters: query i draws `$min` from the middle half of the
/// i-th of kQueriesPerRun equal slices of [lo, hi). Seeds change the values
/// but not the spread of selectivities a cycle covers, nor which queries
/// share a lockstep group, which keeps the run-to-run spread of the medians
/// small.
std::vector<QueryInstance> StratifiedQueries(Rng& rng, int64_t lo, int64_t hi,
                                             size_t num_statements) {
  std::vector<QueryInstance> queries(kQueriesPerRun);
  const double width =
      static_cast<double>(hi - lo) / static_cast<double>(kQueriesPerRun);
  for (size_t i = 0; i < kQueriesPerRun; ++i) {
    queries[i].stmt = i % num_statements;
    queries[i].min =
        lo + static_cast<int64_t>(
                 (static_cast<double>(i) + 0.25 + 0.5 * rng.NextDouble()) *
                 width);
  }
  return queries;
}

/// Up to 1% more than `base` rows, so virtual completion times (set by the
/// longest scan) differ between seeds while the work per query barely does.
int64_t JitteredRows(Rng& rng, int64_t base) {
  return base + Uniform(rng, std::max<int64_t>(1, base / 100));
}

/// `n` join keys in [0, keys): every key the same number of times (within
/// one), in a seeded order. Each query then does the same join work for
/// every seed; only the arrangement of matches in the scan changes.
std::vector<int64_t> BalancedKeys(Rng& rng, int64_t n, int64_t keys) {
  std::vector<int64_t> out;
  for (size_t i : rng.Permutation(static_cast<size_t>(n))) {
    out.push_back(static_cast<int64_t>(i) % keys);
  }
  return out;
}

/// Chain tables A(id,k,v) - B(id,k,j) - C(id,j,w) with balanced join keys.
/// The selection is a range over A's id, which is also its scan order: the
/// first qualifying A row arrives at a time set by `$min`, so the time to
/// the first result measures the engine and not where a random match
/// happened to fall in the scan (with a random selection column the median
/// first-row time moved by tens of percent between seeds).
void ChainTables(Rng& rng, int64_t rows, int64_t keys, Workload* w) {
  const int64_t na = JitteredRows(rng, rows), nb = JitteredRows(rng, rows),
                nc = JitteredRows(rng, rows);
  const std::vector<int64_t> ak = BalancedKeys(rng, na, keys),
                             bk = BalancedKeys(rng, nb, keys),
                             bj = BalancedKeys(rng, nb, keys),
                             cj = BalancedKeys(rng, nc, keys);
  std::vector<RowRef> a, b, c;
  for (int64_t i = 0; i < na; ++i) {
    a.push_back(MakeRow({Value::Int64(i), Value::Int64(ak[i]),
                         Value::Int64(Uniform(rng, 100))}));
  }
  for (int64_t i = 0; i < nb; ++i) {
    b.push_back(MakeRow(
        {Value::Int64(i), Value::Int64(bk[i]), Value::Int64(bj[i])}));
  }
  for (int64_t i = 0; i < nc; ++i) {
    c.push_back(MakeRow({Value::Int64(i), Value::Int64(cj[i]),
                         Value::Int64(Uniform(rng, 1000))}));
  }
  w->tables.push_back(Table("A", {"id", "k", "v"}, std::move(a)));
  w->tables.push_back(Table("B", {"id", "k", "j"}, std::move(b)));
  w->tables.push_back(Table("C", {"id", "j", "w"}, std::move(c)));
  w->statements = {
      "SELECT a.v, b.id, c.w FROM A a, B b, C c "
      "WHERE a.k = b.k AND b.j = c.j AND a.id >= $min"};
  w->queries = StratifiedQueries(rng, rows / 10, rows * 7 / 10, 1);
}

}  // namespace

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  if (name == "serve") {
    w.kind = Kind::kServe;
    std::vector<RowRef> users, orders;
    const int64_t num_users = 40;
    for (int64_t i = 1; i <= num_users; ++i) {
      users.push_back(
          MakeRow({Value::Int64(i), Value::Int64(20 + Uniform(rng, 40))}));
    }
    // Every user has two orders, the first arriving in the same scan step
    // as the user: the virtual time to a join's first row then depends on
    // `$min`, not on where a random order falls in the scan. Up to two
    // more orders (users 1 and 2) make the join's virtual completion differ
    // slightly between seeds.
    const int64_t num_orders = 2 * num_users + Uniform(rng, 3);
    for (int64_t i = 0; i < num_orders; ++i) {
      orders.push_back(MakeRow({Value::Int64(i),
                                Value::Int64(1 + i % num_users),
                                Value::Int64(Uniform(rng, 20))}));
    }
    w.tables.push_back(Table("users", {"id", "age"}, std::move(users)));
    w.tables.push_back(
        Table("orders", {"id", "user_id", "item"}, std::move(orders)));
    w.statements = {
        "SELECT u.id, o.item FROM users u, orders o "
        "WHERE u.id = o.user_id AND u.id >= $min",
        "SELECT u.id, u.age FROM users u WHERE u.id >= $min"};
    w.queries = StratifiedQueries(rng, 1, 31, 2);
    w.options.share_stems = true;
    w.sessions = 4;
    w.warmup_groups = 200;
  } else if (name == "join") {
    w.kind = Kind::kJoin;
    ChainTables(rng, 3000, 1000, &w);
    w.options = RunOptions::Paper();
    w.warmup_groups = 4;
  } else if (name == "spill") {
    w.kind = Kind::kSpill;
    // Build state (3 x ~800 rows) is about nine times the entry budget.
    ChainTables(rng, 800, 800, &w);
    w.options = RunOptions::LargerThanMemory(256);
    w.warmup_groups = 2;
  } else if (name == "threaded") {
    w.kind = Kind::kThreaded;
    ChainTables(rng, 3000, 1000, &w);
    // Two workers (the "threaded" preset takes every core); the server's
    // threads and the load generator wait while they run.
    w.options = RunOptions::Threaded(2);
    w.cpus = 2;
    w.warmup_groups = 4;
  } else {
    return std::nullopt;
  }
  return w;
}

}  // namespace servebench
