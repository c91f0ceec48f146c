// RequestQueue: the bounded MPSC hand-off between the server's network
// thread (producer) and engine thread (consumer), extracted from server.h
// so the schedule-exploration harness (src/check/) can drive the real
// queue over every interleaving.
//
// Fairness: requests are segregated into per-tenant *lanes* (Request.lane,
// stamped by the network thread from the session's Hello-assigned lane id)
// and the consumer pops lanes round-robin, so a chatty tenant that keeps
// its own lane full cannot crowd another tenant out of the pump (the
// ROADMAP fairness item; regression-tested in test_request_queue.cc and
// test_server.cc). The capacity bound is *per lane* for the same reason —
// one tenant's backlog must never consume another's push budget.
//
// Control messages (disconnects, end-of-input, protocol errors, and the
// query-ready wakes a threaded query's workers send) bypass the capacity
// bound — cleanup and wakes are never lost to backpressure — but NOT the
// ordering: they enter their session's lane so e.g. an end-of-input
// marker is consumed only after every frame queued before it (pipelined
// requests are still answered after a half-close).
//
// Ordering: FIFO within a lane. A session's lane can change exactly once
// (0 -> tenant lane, when the engine thread processes its Hello), so
// per-session FIFO additionally needs lane 0 to drain before any tenant
// lane — hence lane 0 has strict priority. That cannot starve tenants:
// lane 0 carries only pre-authentication frames, is capacity-bounded,
// and every session leaves it at its first processed Hello.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "common/thread_annotations.h"
#include "server/wire.h"

namespace stems::server {

/// One unit of work handed from the network thread to the engine thread.
struct Request {
  /// kQueryReady: a threaded query's worker reports rows (or the end of
  /// the stream) ready for the Fetch parked on it; one per parked Fetch.
  enum class Kind {
    kFrame,
    kProtocolError,
    kEndOfInput,
    kDisconnect,
    kQueryReady
  };
  Kind kind = Kind::kFrame;
  uint64_t session_id = 0;
  uint64_t query_id = 0;  ///< kQueryReady: which of the session's queries
  /// Fairness lane, assigned per tenant at Hello (0 = the shared
  /// pre-authentication lane).
  uint32_t lane = 0;
  wire::FrameType type = wire::FrameType::kError;
  std::string payload;  // frame payload, or the protocol-error message
};

class RequestQueue {
 public:
  /// `per_lane_capacity` bounds each tenant lane independently.
  explicit RequestQueue(size_t per_lane_capacity)
      : per_lane_capacity_(per_lane_capacity) {}
  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Moves `request` into its lane and returns true; when that lane is
  /// full, returns false and leaves `request` untouched so the caller can
  /// park and retry the intact frame.
  bool TryPush(Request&& request);

  /// Unbounded push (disconnect / end-of-input / protocol error): joins
  /// `request.lane` in FIFO order but ignores the capacity bound, so
  /// cleanup is never lost to backpressure.
  void PushControl(Request request);

  /// Pops the next request: the pre-auth lane 0 first (see file comment),
  /// then tenant lanes round-robin (one request per lane per turn,
  /// ascending lane id, wrapping). False on timeout with nothing to pop.
  bool PopWithTimeout(Request* request, std::chrono::milliseconds timeout);

  size_t size() const;
  /// Deepest the queue has ever been (backpressure observability).
  size_t high_water() const;
  void WakeAll();

 private:
  bool HasWorkLocked() const STEMS_REQUIRES(mu_) { return lane_total_ > 0; }
  /// Pops under the fairness policy; requires HasWorkLocked().
  Request PopLocked() STEMS_REQUIRES(mu_);
  void PushLocked(Request&& request) STEMS_REQUIRES(mu_);

  mutable Mutex mu_;
  CondVar cv_;
  /// Lane id -> pending requests; empty deques are erased, so iteration
  /// touches only lanes with queued work.
  std::map<uint32_t, std::deque<Request>> lanes_ STEMS_GUARDED_BY(mu_);
  size_t lane_total_ STEMS_GUARDED_BY(mu_) = 0;
  /// The tenant lane served last; the next round-robin pop starts
  /// strictly after it (lane 0 is outside the rotation).
  uint32_t rr_cursor_ STEMS_GUARDED_BY(mu_) = 0;
  const size_t per_lane_capacity_;
  size_t high_water_ STEMS_GUARDED_BY(mu_) = 0;
};

}  // namespace stems::server
