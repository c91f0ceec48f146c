// Seeded workload generation for servebench: tables, statements, the list
// of distinct parameterised queries a run cycles through, and the RunOptions
// every workload serves with. Everything here is a pure function of
// (workload name, seed), so two runs with one seed submit identical queries
// over identical data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "engine/run_options.h"
#include "types/row.h"
#include "types/value.h"

namespace servebench {

enum class Kind { kServe, kJoin, kSpill, kThreaded };

struct TableData {
  stems::TableDef def;
  std::vector<stems::RowRef> rows;
};

/// One generated query: statement index plus its `$min` parameter.
struct QueryInstance {
  size_t stmt = 0;
  int64_t min = 0;
};

struct Workload {
  Kind kind = Kind::kJoin;
  std::string name;
  std::vector<TableData> tables;
  std::vector<std::string> statements;
  /// The distinct queries of a run; group g, slot s runs
  /// queries[(g * sessions + s) % queries.size()].
  std::vector<QueryInstance> queries;
  /// Server base options; the in-process replay runs with the same ones.
  stems::RunOptions options;
  /// Sessions served in lockstep by the one load-generator thread; a
  /// "group" is one query on each of them.
  size_t sessions = 1;
  /// Groups served during set-up (after connect + prepare) so lazy
  /// initialisation is paid before the measured window opens.
  size_t warmup_groups = 1;
  /// Rows per Fetch after the first (which always asks for one row).
  uint32_t page_rows = 4096;
  /// CPUs the process is pinned to: one for the sim executor, one per
  /// worker on the threaded executor (README, "Pinning").
  size_t cpus = 1;

  size_t groups_per_cycle() const {
    return (queries.size() + sessions - 1) / sessions;
  }
  const QueryInstance& At(size_t group, size_t slot) const {
    return queries[(group * sessions + slot) % queries.size()];
  }
  size_t IndexAt(size_t group, size_t slot) const {
    return (group * sessions + slot) % queries.size();
  }
  const char* TenantOf(size_t slot) const {
    return slot < (sessions + 1) / 2 ? "tenant_a" : "tenant_b";
  }
};

/// The named workload for `seed`; nullopt for an unknown name.
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// Order-independent digest of a result multiset: row count plus the
/// wrapping sum of a per-row hash, identical whether rows arrive over the
/// wire or from an in-process cursor.
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;

  template <typename GetValue>
  void AddRow(size_t num_columns, GetValue&& value_at) {
    uint64_t h = 0x9e3779b97f4a7c15ull ^ num_columns;
    for (size_t i = 0; i < num_columns; ++i) {
      h = Mix(h ^ (static_cast<uint64_t>(value_at(i).Hash()) + i));
    }
    ++rows;
    sum += h;
  }
  void AddRow(const std::vector<stems::Value>& row) {
    AddRow(row.size(), [&](size_t i) -> const stems::Value& { return row[i]; });
  }
  bool operator==(const Digest& o) const {
    return rows == o.rows && sum == o.sum;
  }

 private:
  static uint64_t Mix(uint64_t x) {  // splitmix64 finaliser
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
};

}  // namespace servebench
