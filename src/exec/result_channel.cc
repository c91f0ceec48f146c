#include "exec/result_channel.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>

namespace stems {

bool ResultChannel::mutation_close_before_last_flush_for_test = false;

namespace {

/// Appends `*from` to `*to`, leaving `*from` empty (a swap when `*to` is).
void MoveRows(std::vector<TuplePtr>* from, std::vector<TuplePtr>* to) {
  if (to->empty()) {
    to->swap(*from);
    return;
  }
  to->insert(to->end(), std::make_move_iterator(from->begin()),
             std::make_move_iterator(from->end()));
  from->clear();
}

}  // namespace

uint64_t ResultChannel::Push(std::vector<TuplePtr>* rows) {
  if (rows->empty()) return 0;
  uint64_t stall_ns = 0;
  std::function<void()> ready;
  std::vector<TuplePtr> dropped;
  bool wake = false;
  {
    MutexLock lock(&mu_);
    if (rows_.size() >= capacity_ && !abandoned_) {
      const auto start = std::chrono::steady_clock::now();
      while (rows_.size() >= capacity_ && !abandoned_) space_cv_.Wait(mu_);
      stall_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
    if (abandoned_) {
      dropped.swap(*rows);  // released below, outside the lock
    } else {
      MoveRows(rows, &rows_);
      ready = TakeReadyLocked();
      wake = consumer_wants_ != 0 && rows_.size() >= consumer_wants_;
    }
  }
  if (wake) data_cv_.NotifyAll();
  if (ready) ready();
  return stall_ns;
}

bool ResultChannel::FinishProducer(std::vector<TuplePtr>* rows,
                                   uint64_t* stall_ns) {
  if (mutation_close_before_last_flush_for_test) {
    bool last = false;
    {
      MutexLock lock(&mu_);
      last = RetireLocked();
    }
    *stall_ns += Push(rows);
    return last;
  }
  // Flush first, retire second: the last retirement then follows every
  // producer's final flush, so Close can never overtake a row.
  *stall_ns += Push(rows);
  MutexLock lock(&mu_);
  return RetireLocked();
}

bool ResultChannel::RetireLocked() {
  if (live_producers_ == 0) return false;
  return --live_producers_ == 0;
}

void ResultChannel::Close(ExecOutcome summary) {
  std::function<void()> ready;
  {
    MutexLock lock(&mu_);
    closed_ = true;
    summary_ = std::move(summary);
    ready = TakeReadyLocked();
  }
  data_cv_.NotifyAll();
  if (ready) ready();
}

size_t ResultChannel::Pop(std::vector<TuplePtr>* out, size_t wait_rows) {
  const size_t want = std::min(wait_rows, capacity_);
  size_t moved = 0;
  {
    MutexLock lock(&mu_);
    while (rows_.size() < want && !closed_) {
      consumer_wants_ = want;
      data_cv_.Wait(mu_);
    }
    consumer_wants_ = 0;
    moved = rows_.size();
    if (moved == 0) return 0;
    MoveRows(&rows_, out);
  }
  space_cv_.NotifyAll();
  return moved;
}

bool ResultChannel::PopOrNotify(std::vector<TuplePtr>* out, size_t want,
                                std::function<void()> on_ready) {
  bool ready = false;
  size_t moved = 0;
  {
    MutexLock lock(&mu_);
    moved = rows_.size();
    MoveRows(&rows_, out);
    ready = closed_ || moved >= want;
    if (ready) {
      on_ready_ = nullptr;
    } else {
      on_ready_ = std::move(on_ready);
      ready_rows_ = std::min(want - moved, capacity_);
    }
  }
  if (moved > 0) space_cv_.NotifyAll();
  return ready;
}

std::function<void()> ResultChannel::TakeReadyLocked() {
  if (!on_ready_ || (!closed_ && rows_.size() < ready_rows_)) return nullptr;
  return std::exchange(on_ready_, nullptr);
}

void ResultChannel::Abandon() {
  std::vector<TuplePtr> dropped;
  std::function<void()> unfired;
  {
    MutexLock lock(&mu_);
    abandoned_ = true;
    dropped.swap(rows_);
    unfired = std::exchange(on_ready_, nullptr);
  }
  space_cv_.NotifyAll();
  data_cv_.NotifyAll();
}

bool ResultChannel::closed() const {
  MutexLock lock(&mu_);
  return closed_;
}

std::optional<ExecOutcome> ResultChannel::summary() const {
  MutexLock lock(&mu_);
  return summary_;
}

}  // namespace stems
