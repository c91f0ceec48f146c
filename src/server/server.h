// Server: the network front-end that turns the in-process Engine into a
// multi-tenant query service.
//
// Two threads serve N client sessions over one shared Engine:
//
//   * the network thread owns every socket: a poll(2) loop accepts
//     connections, reads bytes into per-session buffers, frames them
//     (server/wire.h) and hands decoded work to the engine thread through
//     a bounded queue; response bytes flow back through per-session output
//     buffers written when the socket is writable. A slow client therefore
//     only backs up its own buffers — it never blocks the engine clock or
//     any other session.
//   * the engine thread is the only thread that touches the Engine (the
//     discrete-event core is single-threaded by design): it pops requests
//     in arrival order, runs Prepare/Bind/Submit, pumps ResultCursors to
//     build Fetch responses, and drives admission control. It never waits
//     on a threaded query: a Fetch its rows cannot fill yet is *parked*,
//     and the query's workers wake the thread with a kQueryReady control
//     request once the page is full or the stream has ended — each page
//     is still one RPC, and no Fetch is answered with a partial page.
//
// Sessions authenticate as a *tenant* (Hello frame); the TenantGovernor
// decides per Submit whether the tenant may run another query now, must
// queue behind its quota, or is rejected with a retry-after hint. Finished
// queries roll their QueryStats up per tenant (the Stats frame).
//
// Lifecycle: construct over a fully-populated Engine, Start(), serve,
// Shutdown() — which stops accepting, drains active sessions up to
// ServerOptions::shutdown_drain_ms, cancels whatever is still running via
// the engine's cancel path, and joins both threads. The Engine must
// outlive the Server and must not be touched by the owner between Start()
// and Shutdown().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "engine/engine.h"
#include "server/request_queue.h"
#include "server/tenant_governor.h"
#include "server/wire.h"

namespace stems::server {

struct TenantConfig {
  std::string name;
  /// Shared secret the Hello frame must present. Empty = no token check
  /// for this tenant.
  std::string token;
  TenantQuota quota;
};

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 = pick an ephemeral port (see
  /// Server::port()).
  uint16_t port = 0;
  size_t max_sessions = 64;
  uint32_t max_frame_payload = wire::kMaxFramePayload;
  /// Bounded request queue between the network and engine threads; when
  /// full, the network thread stops decoding (socket buffers provide the
  /// backpressure to clients).
  size_t request_queue_capacity = 256;
  /// Graceful-shutdown drain budget: how long Shutdown() keeps serving so
  /// active queries can finish before the remainder is cancelled.
  uint32_t shutdown_drain_ms = 2000;
  /// Base RunOptions for every Submit (a Submit frame's preset string
  /// replaces them wholesale). share_stems pools SteM state across the
  /// tenants' queries — the serving configuration.
  RunOptions run_options;
  /// Tenants allowed to connect. Empty = open mode: any tenant name is
  /// accepted (no token check) and auto-registered with a default quota.
  std::vector<TenantConfig> tenants;
  /// Slow-query log threshold: a query whose submit-to-finish wall time
  /// reaches this many milliseconds is reported (one line: tenant, wall
  /// time, result/routing/spill counters) when its slot is released.
  /// 0 disables the log.
  uint32_t slow_query_ms = 0;
  /// Receives each slow-query line; when unset, lines go to STEMS_LOG
  /// (Warning). Called on the engine thread — keep it cheap.
  std::function<void(const std::string& line)> slow_query_log;
  /// Test-only hook, invoked on the engine thread right after a query is
  /// submitted to the Engine (fault injection into the live dataflow).
  std::function<void(const std::string& tenant, QueryHandle&)>
      post_submit_hook;
};

class Server {
 public:
  /// The engine must be fully populated (AddTable) before Start().
  Server(Engine* engine, ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1:<port>, spawns the network and engine threads.
  Status Start();

  /// Graceful stop: stop accepting, drain up to shutdown_drain_ms, cancel
  /// remaining queries, close every socket, join both threads. Idempotent.
  void Shutdown();

  /// The bound port (after Start()).
  uint16_t port() const { return port_; }
  bool running() const { return started_; }

  /// Live observability (thread-safe).
  size_t active_sessions() const;
  /// Engine-loop wakeups since Start(). An idle server must stay on the
  /// long cv-wait cadence, so this grows by only a few per second with no
  /// clients connected (regression-tested: the loop must not busy-tick).
  uint64_t engine_ticks() const {
    return engine_ticks_.load(std::memory_order_relaxed);
  }
  TenantRollup TenantStats(const std::string& tenant) const {
    return governor_.Rollup(tenant);
  }
  const TenantGovernor& governor() const { return governor_; }
  /// Prometheus-style plaintext exposition of the engine's metrics
  /// registry, with the server.* gauges (sessions, engine ticks, request
  /// queue depth/high-water) refreshed first. Thread-safe; also serves the
  /// Metrics wire frame.
  std::string MetricsText();

 private:
  struct Session;
  struct QueryRec;

  // Request + RequestQueue live in server/request_queue.h: the bounded,
  // lane-fair MPSC hand-off between the two threads (extracted so the
  // schedule-exploration harness can drive the real queue).

  // --- network thread --------------------------------------------------------
  enum class ReadOutcome {
    kOpen,  // socket still readable (possibly after appending bytes)
    kEof,   // orderly end of input: the peer half-closed its write side
    kError  // hard socket error: the connection is dead both ways
  };

  void NetThreadMain();
  void AcceptNewSession();
  /// Drains readable bytes from one session into its input buffer.
  ReadOutcome ReadFromSession(const std::shared_ptr<Session>& session);
  /// Extracts complete frames from the session's input buffer and pushes
  /// them onto the request queue, honoring backpressure.
  void ParseFrames(const std::shared_ptr<Session>& session);
  void FlushSession(const std::shared_ptr<Session>& session);
  void CloseSessionFd(const std::shared_ptr<Session>& session);
  void WakeNet();

  // --- engine thread ---------------------------------------------------------
  void EngineThreadMain();
  void ProcessRequest(const Request& request);
  void ProcessFrame(const std::shared_ptr<Session>& session,
                    wire::FrameType type, const std::string& payload);
  void HandleHello(const std::shared_ptr<Session>& session,
                   const std::string& payload);
  void HandlePrepare(const std::shared_ptr<Session>& session,
                     const std::string& payload);
  void HandleBind(const std::shared_ptr<Session>& session,
                  const std::string& payload);
  void HandleSubmit(const std::shared_ptr<Session>& session,
                    const std::string& payload);
  void HandleFetch(const std::shared_ptr<Session>& session,
                   const std::string& payload);
  /// Serves one Fetch page of an admitted query from its cursor (the
  /// synchronous path: a sim query pumps the clock, a threaded one only
  /// reads rows already there). Returns false when the query id ended
  /// with this page and was erased.
  bool AnswerFetch(const std::shared_ptr<Session>& session, uint64_t query_id,
                   uint32_t max_rows);
  /// A kQueryReady wake: answers the query's parked Fetches, in order, as
  /// far as its ready rows allow (re-arming the wake for the rest).
  void ServeParkedFetches(const std::shared_ptr<Session>& session,
                          uint64_t query_id);
  /// The callback a threaded query's worker runs when a parked Fetch may be
  /// answerable: pushes a kQueryReady control request for it.
  std::function<void()> QueryReadyWake(const std::shared_ptr<Session>& session,
                                       uint64_t query_id);
  /// Reports the query's spill I/O since the last report to the tenant's
  /// accounting window (live for threaded queries too).
  void ReportSpillProgress(QueryRec* rec, uint64_t total_ios);
  void HandleCancel(const std::shared_ptr<Session>& session,
                    const std::string& payload);
  void HandleStats(const std::shared_ptr<Session>& session);
  void HandleMetrics(const std::shared_ptr<Session>& session);
  /// Reports a finished query on the slow-query log when it ran at least
  /// ServerOptions::slow_query_ms (no-op when disabled or never started).
  void MaybeLogSlowQuery(const QueryRec& rec);
  /// Starts a bound spec on the engine and wires the QueryRec. Returns
  /// non-OK when Engine::Submit failed (slot already released).
  Status StartQuery(const std::shared_ptr<Session>& session, QueryRec* rec);
  /// Returns a finished query's governor slot + memory charge and rolls
  /// its final QueryStats into the tenant rollup (idempotent).
  void ReleaseSlot(const std::shared_ptr<Session>& session, QueryRec* rec);
  /// Observes queries that finished since the last sweep: releases their
  /// governor slots, rolls up stats, then admits queued submits that now
  /// fit.
  void SweepCompletions();
  void AdmitQueuedSubmits();
  /// True if any tenant has a deferred submit waiting for capacity (the
  /// per-tenant deques can be empty; the map keeps drained entries).
  bool HasQueuedSubmits() const;
  /// Cancels every live query of the session and releases its governor
  /// charges; the session keeps only its socket state afterwards.
  void CleanupSessionState(const std::shared_ptr<Session>& session);
  /// Engine-thread shutdown tail: cancel everything still running.
  void CancelAllQueries();
  bool Drained() const;

  /// Sends one response frame (appends to the session's output buffer and
  /// wakes the network thread).
  void SendFrame(const std::shared_ptr<Session>& session, std::string frame);
  /// Encodes and sends a Rows response; a row too wide for the wire format
  /// is surfaced as a typed error frame instead of a truncated frame.
  void SendRows(const std::shared_ptr<Session>& session,
                const wire::RowsResponse& response);
  void SendError(const std::shared_ptr<Session>& session, const Status& status,
                 uint32_t retry_after_ms = 0);
  /// Error + mark the session for close-after-flush (protocol violations).
  void SendErrorAndClose(const std::shared_ptr<Session>& session,
                         const Status& status);

  std::shared_ptr<Session> FindSession(uint64_t session_id) const;

  Engine* engine_;
  ServerOptions options_;
  TenantGovernor governor_;
  RequestQueue queue_;

  /// sync: lifecycle flags crossing the owner / net / engine threads;
  /// the (seq_cst) accesses give each flag flip a single global order, and
  /// thread start/join bracket the non-atomic state around it.
  /// stems::Atomic: model-checking yield points (src/check/).
  Atomic<bool> started_{false};
  Atomic<bool> shutdown_requested_{false};
  Atomic<bool> stop_net_{false};
  Atomic<bool> engine_thread_done_{false};
  /// relaxed: monotone wakeup counter, observability only.
  // invariant: allow(schedulable-atomic) -- observability statistic, not a sync protocol
  std::atomic<uint64_t> engine_ticks_{0};
  /// sync: written by Shutdown() strictly before the shutdown_requested_
  /// store; the engine thread reads it only after observing that flag, so
  /// the seq_cst flag publishes this plain field.
  std::chrono::steady_clock::time_point shutdown_deadline_{};

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;

  mutable Mutex sessions_mu_;
  /// The session map is shared between the net thread (accept/poll/erase)
  /// and the engine thread (FindSession); Session field ownership is
  /// documented on the struct itself (server.cc).
  std::map<uint64_t, std::shared_ptr<Session>> sessions_
      STEMS_GUARDED_BY(sessions_mu_);
  uint64_t next_session_id_ STEMS_GUARDED_BY(sessions_mu_) = 1;
  /// Engine-thread-owned (only HandleSubmit touches it); not guarded.
  uint64_t next_query_id_ = 1;

  /// Deferred submits per tenant, admission order: (session id, query id).
  std::unordered_map<std::string,
                     std::deque<std::pair<uint64_t, uint64_t>>>
      pending_submits_;

  /// Tenant -> fairness lane id for the request queue. Engine-thread-owned
  /// (assigned in HandleHello); sessions carry their lane in an atomic the
  /// network thread reads when stamping requests. Lane 0 is the shared
  /// pre-authentication lane, so ids start at 1.
  std::unordered_map<std::string, uint32_t> tenant_lanes_;
  uint32_t next_lane_id_ = 1;

  std::thread net_thread_;
  std::thread engine_thread_;
};

}  // namespace stems::server
