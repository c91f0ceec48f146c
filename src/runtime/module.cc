#include "runtime/module.h"

#include <cassert>
#include <cstdio>

#include "obs/trace.h"

namespace stems {

const char* ModuleKindName(ModuleKind kind) {
  switch (kind) {
    case ModuleKind::kSelection:
      return "SM";
    case ModuleKind::kScanAm:
      return "ScanAM";
    case ModuleKind::kIndexAm:
      return "IndexAM";
    case ModuleKind::kStem:
      return "SteM";
    case ModuleKind::kOperator:
      return "Op";
  }
  return "?";
}

Module::Module(Simulation* sim, std::string name)
    : sim_(sim), name_(std::move(name)) {}

void Module::Accept(TuplePtr tuple) {
  ++stats_.tuples_in;
  queue_.push_back({std::move(tuple), sim_->now()});
  if (queue_.size() > stats_.max_queue_len) {
    stats_.max_queue_len = queue_.size();
  }
  MaybeStartService();
}

void Module::AcceptBatch(std::vector<TuplePtr>* batch) {
  if (batch->empty()) return;
  const SimTime now = sim_->now();
  stats_.tuples_in += batch->size();
  for (auto& tuple : *batch) {
    queue_.push_back({std::move(tuple), now});
  }
  batch->clear();
  if (queue_.size() > stats_.max_queue_len) {
    stats_.max_queue_len = queue_.size();
  }
  MaybeStartService();
}

void Module::Halt() {
  halted_ = true;
  MaybeStartService();  // drops the queue
}

void Module::Emit(TuplePtr tuple) {
  assert(sink_ && "module output not wired");
  ++stats_.tuples_out;
  sink_(std::move(tuple), this);
}

void Module::TraceService(SimTime start, SimTime duration, size_t group_size) {
  if (!tracer_->SampleService()) return;
  obs::TraceEvent ev;
  ev.name = name_;
  ev.cat = "module";
  ev.ph = 'X';
  ev.ts_us = static_cast<uint64_t>(start);
  ev.dur_us = static_cast<uint64_t>(duration);
  ev.tid = static_cast<uint32_t>(id_ < 0 ? 0 : id_);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "\"group\":%zu,\"queued\":%zu", group_size,
                queue_.size());
  ev.args_json = buf;
  tracer_->Record(std::move(ev));
}

void Module::MaybeStartService() {
  if (halted_) {
    stats_.tuples_dropped += queue_.size();
    queue_.clear();
    return;
  }
  if (busy_ || queue_.empty()) return;
  busy_ = true;
  if (service_batch_ <= 1 || queue_.size() == 1) {
    QueueEntry entry = std::move(queue_.front());
    queue_.pop_front();
    stats_.queue_wait_time +=
        static_cast<uint64_t>(sim_->now() - entry.enqueued_at);
    const SimTime service = ServiceTime(*entry.tuple);
    stats_.busy_time += static_cast<uint64_t>(service);
    if (tracer_ != nullptr) TraceService(sim_->now(), service, 1);
    sim_->Schedule(service, [this, t = std::move(entry.tuple)]() mutable {
      if (halted_) ++stats_.tuples_dropped;
      else Process(std::move(t));
      busy_ = false;
      MaybeStartService();
    });
    return;
  }
  // Batched service: one event covers up to service_batch_ queued tuples;
  // the virtual busy period is the sum of their individual service times.
  // The group lives in the reusable in_service_ buffer and the closure
  // captures only `this`, so the steady state allocates nothing.
  const size_t n = std::min(service_batch_, queue_.size());
  in_service_.clear();
  SimTime total = 0;
  const SimTime now = sim_->now();
  for (size_t i = 0; i < n; ++i) {
    QueueEntry entry = std::move(queue_.front());
    queue_.pop_front();
    stats_.queue_wait_time += static_cast<uint64_t>(now - entry.enqueued_at);
    total += ServiceTime(*entry.tuple);
    in_service_.push_back(std::move(entry.tuple));
  }
  stats_.busy_time += static_cast<uint64_t>(total);
  if (tracer_ != nullptr) TraceService(now, total, n);
  sim_->Schedule(total, [this] {
    if (halted_) {
      stats_.tuples_dropped += in_service_.size();
      in_service_.clear();
    } else {
      ProcessBatch(&in_service_);
    }
    busy_ = false;
    MaybeStartService();
  });
}

}  // namespace stems
