// Scan Access Module (paper §2.1.3).
//
// Accepts only the seed tuple, then streams every row of its data source at
// a configurable pace, finishing with a scan EOT tuple ("predicate true").
// Rate pacing models the source's delivery speed; a StallWindow-style pause
// schedule models flaky web sources for the competitive-AM experiments.
#pragma once

#include <functional>
#include <vector>

#include "am/access_module.h"
#include "sim/latency_model.h"

namespace stems {

struct ScanAmOptions {
  /// Virtual time between consecutive rows.
  SimTime period = Millis(1);
  /// Delay before the first row.
  SimTime initial_delay = 0;
  /// Windows during which the source is stalled: a row due inside a window
  /// is delivered at the window's end.
  std::vector<StallWindowLatency::Window> stall_windows;
  /// Admin cost of accepting the seed.
  SimTime service_time = Micros(1);
  /// §4.1 interactive priorities: rows matching this predicate are emitted
  /// as prioritized tuples (expedited by SteMs with kPrioritized bounce).
  std::function<bool(const Row&)> prioritizer;
};

class ScanAm : public AccessModule {
 public:
  ScanAm(QueryContext* ctx, std::string name, std::string table_name,
         std::vector<RowRef> rows, ScanAmOptions options = {});

  ModuleKind kind() const override { return ModuleKind::kScanAm; }

  /// Still streaming rows?
  bool Quiescent() const override {
    return Module::Quiescent() && !streaming_;
  }

  size_t rows_emitted() const { return next_row_; }
  size_t total_rows() const { return rows_.size(); }
  /// Delivered its EOT, or halted (Module::Halt: no further rows or EOT;
  /// an already-scheduled emission fires once as a no-op, and the scan
  /// reports Quiescent only after that).
  bool finished() const { return finished_ || halted(); }
  SimTime period() const { return options_.period; }

 protected:
  SimTime ServiceTime(const Tuple&) const override {
    return options_.service_time;
  }
  void Process(TuplePtr tuple) override;

 private:
  void EmitNextRow();
  /// Earliest allowed delivery time for a row due at `due`, accounting for
  /// stall windows.
  SimTime ApplyStalls(SimTime due) const;

  std::vector<RowRef> rows_;
  ScanAmOptions options_;
  size_t next_row_ = 0;
  bool streaming_ = false;
  bool finished_ = false;
  bool seeded_ = false;
};

}  // namespace stems
