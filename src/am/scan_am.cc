#include "am/scan_am.h"

#include <cassert>

namespace stems {

RowRef MakeEotRow(size_t num_columns, const std::vector<int>& bind_columns,
                  const std::vector<Value>& bind_values) {
  std::vector<Value> values(num_columns, Value::Eot());
  assert(bind_columns.size() == bind_values.size());
  for (size_t i = 0; i < bind_columns.size(); ++i) {
    values[bind_columns[i]] = bind_values[i];
  }
  return MakeEotRowRef(std::move(values));
}

AccessModule::AccessModule(QueryContext* ctx, std::string name,
                           std::string table_name)
    : Module(ctx->sim, std::move(name)),
      ctx_(ctx),
      table_name_(std::move(table_name)) {
  table_slots_ = ctx_->SlotsOfTable(table_name_);
  assert(!table_slots_.empty() && "AM table does not appear in the query");
  canonical_slot_ = table_slots_.front();
}

ScanAm::ScanAm(QueryContext* ctx, std::string name, std::string table_name,
               std::vector<RowRef> rows, ScanAmOptions options)
    : AccessModule(ctx, std::move(name), std::move(table_name)),
      rows_(std::move(rows)),
      options_(std::move(options)) {}

void ScanAm::Process(TuplePtr tuple) {
  // Scans accept only the seed tuple (paper §2.1.3); anything else is a
  // routing bug caught in debug builds, and bounced back untouched
  // otherwise.
  if (!tuple->is_seed()) {
    assert(false && "scan AM received a non-seed tuple");
    Emit(std::move(tuple));
    return;
  }
  if (seeded_) return;  // duplicate seed: ignore
  seeded_ = true;
  streaming_ = true;
  SimTime due = sim()->now() + options_.initial_delay + options_.period;
  sim()->At(ApplyStalls(due), [this] { EmitNextRow(); });
}

SimTime ScanAm::ApplyStalls(SimTime due) const {
  for (const auto& w : options_.stall_windows) {
    if (due >= w.start && due < w.end) return w.end;
  }
  return due;
}

void ScanAm::EmitNextRow() {
  // Halted after this emission was scheduled: the event still held a
  // pointer to this module, so streaming_ (and with it Quiescent) is
  // cleared only now. rows_emitted() keeps what was delivered.
  if (halted()) {
    streaming_ = false;
    return;
  }
  const int num_slots = static_cast<int>(ctx_->query->num_slots());
  if (next_row_ < rows_.size()) {
    auto singleton =
        Tuple::MakeSingleton(num_slots, canonical_slot(), rows_[next_row_]);
    if (options_.prioritizer && options_.prioritizer(*rows_[next_row_])) {
      singleton->set_prioritized(true);
    }
    ++next_row_;
    ctx_->metrics.Count(name() + ".rows", sim()->now());
    Emit(std::move(singleton));
    SimTime due = sim()->now() + options_.period;
    sim()->At(ApplyStalls(due), [this] { EmitNextRow(); });
    return;
  }
  // All rows delivered: emit the scan EOT ("predicate true": all fields are
  // EOT markers) and go quiescent.
  const size_t num_cols =
      ctx_->query->slots()[canonical_slot()].def->schema.num_columns();
  auto eot =
      Tuple::MakeSingleton(num_slots, canonical_slot(),
                           MakeEotRow(num_cols, /*bind_columns=*/{},
                                      /*bind_values=*/{}));
  streaming_ = false;
  finished_ = true;
  Emit(std::move(eot));
}

}  // namespace stems
