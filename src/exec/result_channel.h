// ResultChannel: the bounded hand-off between a threaded query's workers
// (producers) and whoever reads its results (the consumer: a ResultCursor,
// QueryHandle::Wait, or ThreadPoolExecutor::Execute).
//
// Workers collect admitted results per morsel and flush them here at the
// end of each morsel — never while holding a shard lock. The channel holds
// at most kCapacityRows rows before a flush stalls its producer (a flush
// that finds room appends its whole batch, so the bound can be overshot by
// one morsel's results). The consumer moves rows out in bulk.
//
// Completion protocol: each producer ends with FinishProducer (final flush,
// then retire). The producer that retires last owns the run's summary: it
// merges the counters every other producer left behind (their retirement,
// under the channel lock, orders those writes before it) and calls Close,
// which publishes the summary and ends the stream under the same lock. So
// closed() implies every row is in the channel and summary() is final.
//
// Stopping: Abandon() is the consumer leaving (cancel, dropped handle,
// engine teardown). Buffered rows are dropped, stalled producers wake, and
// later flushes are discarded, so backpressure never outlives the reader.
//
// Built on stems::Mutex / CondVar so the schedule-exploration harness
// (tests/test_schedule_explore.cc) drives the real protocol object.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/thread_annotations.h"
#include "exec/executor.h"
#include "runtime/tuple.h"

namespace stems {

class ResultChannel {
 public:
  /// Rows buffered before a flush stalls its producer. One server page
  /// (servebench's 4096-row Fetch) fits, so a consumer that keeps up never
  /// stalls the workers.
  static constexpr size_t kCapacityRows = 4096;

  /// Test-only mutation switch for the schedule-exploration harness: when
  /// true, FinishProducer retires the producer *before* its final flush, so
  /// the last producer to retire can close the stream while another one's
  /// rows are still on their way in — the lost-rows bug the harness must
  /// find. Never set in production.
  static bool mutation_close_before_last_flush_for_test;

  explicit ResultChannel(size_t num_producers,
                         size_t capacity_rows = kCapacityRows)
      : capacity_(capacity_rows), live_producers_(num_producers) {}
  ResultChannel(const ResultChannel&) = delete;
  ResultChannel& operator=(const ResultChannel&) = delete;

  // --- producer side -------------------------------------------------------

  /// Appends `*rows` (left empty). Blocks while the channel holds its
  /// capacity or more and the consumer is still reading. Returns the
  /// wall nanoseconds spent stalled.
  uint64_t Push(std::vector<TuplePtr>* rows) STEMS_EXCLUDES(mu_);

  /// A producer's last act: flushes `*rows` (as Push, stall time added to
  /// `*stall_ns`), then retires the producer. Returns true for the producer
  /// that retired last — it must call Close.
  bool FinishProducer(std::vector<TuplePtr>* rows, uint64_t* stall_ns)
      STEMS_EXCLUDES(mu_);

  /// Ends the stream and publishes the run's summary (an ExecOutcome whose
  /// `results` stay empty: the rows went through the channel).
  void Close(ExecOutcome summary) STEMS_EXCLUDES(mu_);

  // --- consumer side -------------------------------------------------------

  /// Moves every buffered row to the end of `*out`; returns how many.
  /// First waits until min(wait_rows, capacity) rows are buffered or the
  /// stream ended, so with wait_rows >= 1 a Pop that returns 0 means the
  /// stream is over. wait_rows = 1 serves a reader row by row; a larger
  /// batch (a drain) spares the workers a consumer wake-up per morsel.
  size_t Pop(std::vector<TuplePtr>* out, size_t wait_rows) STEMS_EXCLUDES(mu_);

  /// Non-blocking readiness for a consumer that needs `want` more rows:
  /// moves the buffered rows to `*out` and returns true when that gave it
  /// `want` rows or the stream has ended. Otherwise arms `on_ready` and
  /// returns false; a producer calls it once (outside the lock) when
  /// min(want - moved, capacity) rows are buffered or the stream ends.
  /// Capping at the capacity keeps a stalled producer from waiting on a
  /// consumer that waits for more rows than the channel can hold. A new
  /// arming replaces an unfired one.
  bool PopOrNotify(std::vector<TuplePtr>* out, size_t want,
                   std::function<void()> on_ready) STEMS_EXCLUDES(mu_);

  /// The consumer is gone: drops buffered rows and any armed notification,
  /// wakes stalled producers, discards later flushes. Idempotent.
  void Abandon() STEMS_EXCLUDES(mu_);

  /// True once Close ran (every row is in the channel, summary() final).
  bool closed() const STEMS_EXCLUDES(mu_);
  /// The published summary; nullopt until closed().
  std::optional<ExecOutcome> summary() const STEMS_EXCLUDES(mu_);

 private:
  /// Takes the armed notification if its threshold is met.
  std::function<void()> TakeReadyLocked() STEMS_REQUIRES(mu_);
  /// Retires one producer; true when it was the last.
  bool RetireLocked() STEMS_REQUIRES(mu_);

  const size_t capacity_;
  mutable Mutex mu_;
  /// Consumers wait here for rows or the end of the stream.
  CondVar data_cv_;
  /// Producers wait here for room.
  CondVar space_cv_;
  std::vector<TuplePtr> rows_ STEMS_GUARDED_BY(mu_);
  /// Buffered rows the waiting consumer needs before a flush wakes it
  /// (0 = no consumer waiting).
  size_t consumer_wants_ STEMS_GUARDED_BY(mu_) = 0;
  size_t live_producers_ STEMS_GUARDED_BY(mu_);
  bool closed_ STEMS_GUARDED_BY(mu_) = false;
  bool abandoned_ STEMS_GUARDED_BY(mu_) = false;
  std::optional<ExecOutcome> summary_ STEMS_GUARDED_BY(mu_);
  /// The armed notification and the buffered-row count that fires it.
  std::function<void()> on_ready_ STEMS_GUARDED_BY(mu_);
  size_t ready_rows_ STEMS_GUARDED_BY(mu_) = 0;
};

}  // namespace stems
