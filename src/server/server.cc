#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logging.h"

namespace stems::server {

namespace {

constexpr char kServerVersion[] = "stems-server/1";
constexpr int kPollTimeoutMs = 20;

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Maps a Submit frame's preset string onto RunOptions. "" keeps the
/// server's configured base options.
Result<RunOptions> OptionsForPreset(const RunOptions& base,
                                    const std::string& preset) {
  if (preset.empty()) return base;
  if (preset == "paper") return RunOptions::Paper();
  if (preset == "low_memory") return RunOptions::LowMemory();
  if (preset == "larger_than_memory") return RunOptions::LargerThanMemory();
  if (preset == "multi_query") return RunOptions::MultiQuery();
  if (preset == "threaded") return RunOptions::Threaded();
  return Status::InvalidArgument(
      "unknown RunOptions preset '" + preset +
      "' (expected one of: paper, low_memory, larger_than_memory, "
      "multi_query, threaded)");
}

}  // namespace

/// One running query of a session. Before admission it holds the bound
/// spec waiting in the tenant's queue; after admission, the live handle.
struct Server::QueryRec {
  std::string tenant;
  bool admitted = false;
  /// Governor slot + memory charge returned and stats rolled up.
  bool slot_released = false;
  QuerySpec spec;
  RunOptions options;
  /// Declared memory budget (entries); 0 charges the tenant default.
  size_t memory_charge = 0;
  QueryHandle handle;
  /// Spill I/Os already reported to the governor's accounting window.
  uint64_t last_spill_ios = 0;
  /// A deferred (queued) submit that failed at admission time; surfaced
  /// as the Error response of the next Fetch.
  Status submit_error;
  /// Fetches waiting for a threaded query's rows (their max_rows, arrival
  /// order); the head's wake is armed on the query's result channel.
  std::deque<uint32_t> parked_fetches;
};

/// One client connection. Socket-side fields belong to the network
/// thread, protocol state to the engine thread; the output buffer is the
/// shared hand-off (engine appends, network flushes).
struct Server::Session {
  uint64_t id = 0;
  int fd = -1;

  // --- network-thread-owned -------------------------------------------------
  std::string in_buffer;
  /// Set on an unrecoverable framing error: the byte stream cannot be
  /// resynchronized, so no further frames are parsed.
  bool reading_paused = false;
  /// The client half-closed its write side (orderly EOF). Frames already
  /// buffered are still parsed and answered before the session closes.
  bool eof_seen = false;
  /// The post-EOF end-of-input marker has been queued to the engine
  /// thread (exactly once, after every buffered frame).
  bool end_of_input_queued = false;
  /// A send() hit a hard error: the peer can never receive the remaining
  /// output, so the session closes instead of waiting for a flush.
  bool write_dead = false;
  /// A decoded frame the bounded request queue had no room for; retried
  /// before any further parsing (frames must stay ordered). The payload is
  /// read and written only by the network thread; the flag alone crosses
  /// threads (the engine thread reads it in Drained(), where a parked
  /// frame is still pending work).
  Request stalled_request;
  /// sync: flag-only cross-thread read; the engine thread never touches
  /// stalled_request itself (seq_cst default kept for simplicity).
  /// stems::Atomic for model-checking yield points (src/check/).
  Atomic<bool> has_stalled{false};

  /// sync: fairness lane, written once by the engine thread at Hello and
  /// read by the network thread when stamping requests (0 until then —
  /// the shared pre-auth lane).
  Atomic<uint32_t> lane{0};

  // --- shared output path ---------------------------------------------------
  Mutex out_mu;
  std::string out_buffer STEMS_GUARDED_BY(out_mu);
  size_t out_offset STEMS_GUARDED_BY(out_mu) = 0;
  bool close_after_flush STEMS_GUARDED_BY(out_mu) = false;

  /// sync: close/cleanup handshake bits between the net and engine
  /// threads; exchange() makes each transition exactly-once, and the
  /// seq_cst accesses order them against the surrounding socket state.
  Atomic<bool> fd_closed{false};
  Atomic<bool> engine_cleared{false};
  Atomic<bool> disconnect_queued{false};

  // --- engine-thread-owned --------------------------------------------------
  enum class State { kAwaitHello, kReady, kClosing };
  State state = State::kAwaitHello;
  std::string tenant;
  bool cleaned = false;
  std::unordered_map<uint32_t, PreparedQuery> prepared;
  std::unordered_map<uint32_t, QuerySpec> portals;
  std::map<uint64_t, QueryRec> queries;
};

// --- lifecycle ---------------------------------------------------------------

Server::Server(Engine* engine, ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      queue_(std::max<size_t>(options_.request_queue_capacity, 1)) {}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  if (started_) return Status::AlreadyExists("server already started");
  if (options_.max_frame_payload < 64 ||
      options_.max_frame_payload > wire::kMaxFramePayload) {
    return Status::InvalidArgument(
        "max_frame_payload must be in [64, " +
        std::to_string(wire::kMaxFramePayload) + "]");
  }
  STEMS_RETURN_NOT_OK(options_.run_options.Validate());
  for (const TenantConfig& cfg : options_.tenants) {
    STEMS_RETURN_NOT_OK(governor_.RegisterTenant(cfg.name, cfg.quota));
  }

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status st =
        Status::Internal(std::string("bind(): ") + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (listen(listen_fd_, 128) != 0) {
    const Status st =
        Status::Internal(std::string("listen(): ") + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  SetNonBlocking(listen_fd_);
  if (pipe(wake_pipe_) != 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("pipe(): ") + std::strerror(errno));
  }
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);

  shutdown_requested_ = false;
  stop_net_ = false;
  engine_thread_done_ = false;
  started_ = true;
  net_thread_ = std::thread([this] { NetThreadMain(); });
  engine_thread_ = std::thread([this] { EngineThreadMain(); });
  return Status::OK();
}

void Server::Shutdown() {
  if (!started_) return;
  shutdown_deadline_ = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(options_.shutdown_drain_ms);
  shutdown_requested_ = true;
  queue_.WakeAll();
  WakeNet();
  if (engine_thread_.joinable()) engine_thread_.join();
  stop_net_ = true;
  WakeNet();
  if (net_thread_.joinable()) net_thread_.join();
  if (wake_pipe_[0] >= 0) close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
  {
    MutexLock lock(&sessions_mu_);
    sessions_.clear();
  }
  started_ = false;
}

size_t Server::active_sessions() const {
  MutexLock lock(&sessions_mu_);
  size_t n = 0;
  for (const auto& [id, session] : sessions_) {
    if (!session->fd_closed) ++n;
  }
  return n;
}

std::shared_ptr<Server::Session> Server::FindSession(
    uint64_t session_id) const {
  MutexLock lock(&sessions_mu_);
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : it->second;
}

// --- network thread ----------------------------------------------------------

void Server::WakeNet() {
  if (wake_pipe_[1] < 0) return;
  const char byte = 1;
  // A full pipe already guarantees a pending wake-up.
  [[maybe_unused]] ssize_t n = write(wake_pipe_[1], &byte, 1);
}

void Server::AcceptNewSession() {
  while (true) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: try next tick
    SetNonBlocking(fd);
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto session = std::make_shared<Session>();
    session->fd = fd;
    MutexLock lock(&sessions_mu_);
    if (sessions_.size() >= options_.max_sessions) {
      close(fd);
      return;
    }
    session->id = next_session_id_++;
    sessions_[session->id] = session;
  }
}

Server::ReadOutcome Server::ReadFromSession(
    const std::shared_ptr<Session>& session) {
  char buf[65536];
  while (true) {
    const ssize_t n = recv(session->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      session->in_buffer.append(buf, static_cast<size_t>(n));
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n == 0) return ReadOutcome::kEof;  // orderly half-close
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return ReadOutcome::kError;
  }
  return ReadOutcome::kOpen;
}

void Server::FlushSession(const std::shared_ptr<Session>& session) {
  MutexLock lock(&session->out_mu);
  while (session->out_offset < session->out_buffer.size()) {
    const ssize_t n =
        send(session->fd, session->out_buffer.data() + session->out_offset,
             session->out_buffer.size() - session->out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      session->out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // Hard write error: the peer can never receive this output. Mark the
    // session dead so the poll loop closes it (an EOF-draining session no
    // longer reads, so the failure would otherwise go unnoticed).
    session->write_dead = true;
    break;
  }
  if (session->out_offset == session->out_buffer.size()) {
    session->out_buffer.clear();
    session->out_offset = 0;
  }
}

void Server::CloseSessionFd(const std::shared_ptr<Session>& session) {
  if (session->fd_closed.exchange(true)) return;
  close(session->fd);
  if (!session->disconnect_queued.exchange(true)) {
    Request request;
    request.kind = Request::Kind::kDisconnect;
    request.session_id = session->id;
    request.lane = session->lane.load();
    queue_.PushControl(std::move(request));
  }
}

void Server::NetThreadMain() {
  while (!stop_net_) {
    std::vector<pollfd> fds;
    std::vector<std::shared_ptr<Session>> polled;
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    bool accepting = false;
    {
      MutexLock lock(&sessions_mu_);
      accepting = !shutdown_requested_ &&
                  sessions_.size() < options_.max_sessions;
    }
    const size_t listen_idx = fds.size();
    if (accepting) fds.push_back({listen_fd_, POLLIN, 0});

    {
      MutexLock lock(&sessions_mu_);
      for (auto it = sessions_.begin(); it != sessions_.end();) {
        const std::shared_ptr<Session>& session = it->second;
        if (session->fd_closed) {
          // The engine thread has released this session's queries and
          // governor charges; the map entry is all that remains.
          if (session->engine_cleared) {
            it = sessions_.erase(it);
            continue;
          }
          ++it;
          continue;
        }
        short events = 0;
        if (!session->reading_paused && !session->eof_seen) events |= POLLIN;
        {
          MutexLock out_lock(&session->out_mu);
          if (session->out_offset < session->out_buffer.size()) {
            events |= POLLOUT;
          }
        }
        // Nothing to wait for (e.g. EOF seen, output drained): keep the
        // session in `polled` for its per-tick parse/close checks, but
        // hand poll(2) a negative fd so a HUP-ready socket cannot spin
        // the loop. fds and polled must stay index-aligned.
        fds.push_back({events != 0 ? session->fd : -1, events, 0});
        polled.push_back(session);
        ++it;
      }
    }

    poll(fds.data(), static_cast<nfds_t>(fds.size()), kPollTimeoutMs);

    if (fds[0].revents & POLLIN) {
      char drain[256];
      while (read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }
    if (accepting && (fds[listen_idx].revents & POLLIN)) AcceptNewSession();

    const size_t first_session = accepting ? listen_idx + 1 : listen_idx;
    for (size_t i = 0; i < polled.size(); ++i) {
      const std::shared_ptr<Session>& session = polled[i];
      const short revents = fds[first_session + i].revents;
      if (session->fd_closed) continue;
      if (revents & POLLOUT) {
        FlushSession(session);
        if (session->write_dead) {
          CloseSessionFd(session);
          continue;
        }
      }
      if (!session->eof_seen && (revents & (POLLIN | POLLHUP | POLLERR))) {
        const ReadOutcome outcome = ReadFromSession(session);
        if (outcome == ReadOutcome::kError) {
          CloseSessionFd(session);
          continue;
        }
        // Orderly EOF: the client may have pipelined requests and
        // half-closed before reading responses. Stop reading, but parse
        // and answer everything already buffered before closing.
        if (outcome == ReadOutcome::kEof) session->eof_seen = true;
      }
      ParseFrames(session);
      if (session->eof_seen && !session->has_stalled &&
          !session->end_of_input_queued) {
        // Every complete buffered frame is now queued; tell the engine
        // thread the input is done so it can answer them, clean up, and
        // close the session after the responses flush.
        session->end_of_input_queued = true;
        Request request;
        request.kind = Request::Kind::kEndOfInput;
        request.session_id = session->id;
        request.lane = session->lane.load();
        queue_.PushControl(std::move(request));
      }
      // Server-initiated close: everything flushed, nothing more to say.
      bool flushed = false;
      bool closing = false;
      {
        MutexLock out_lock(&session->out_mu);
        flushed = session->out_offset == session->out_buffer.size();
        closing = session->close_after_flush;
      }
      if (closing && flushed) CloseSessionFd(session);
    }
  }

  // Shutdown: one best-effort flush, then close everything.
  MutexLock lock(&sessions_mu_);
  for (auto& [id, session] : sessions_) {
    if (session->fd_closed) continue;
    FlushSession(session);
    session->fd_closed = true;
    close(session->fd);
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::ParseFrames(const std::shared_ptr<Session>& session) {
  while (!session->reading_paused) {
    if (session->has_stalled) {
      if (!queue_.TryPush(std::move(session->stalled_request))) return;
      session->has_stalled = false;
    }
    wire::FrameHeader header;
    std::string payload;
    Status error;
    if (!wire::TryExtractFrame(&session->in_buffer,
                               options_.max_frame_payload, &header, &payload,
                               &error)) {
      if (!error.ok()) {
        // The stream cannot be resynchronized: stop parsing and let the
        // engine thread answer with an error frame and close.
        session->reading_paused = true;
        Request request;
        request.kind = Request::Kind::kProtocolError;
        request.session_id = session->id;
        request.lane = session->lane.load();
        request.payload = error.message();
        queue_.PushControl(std::move(request));
      }
      return;
    }
    Request request;
    request.kind = Request::Kind::kFrame;
    request.session_id = session->id;
    request.lane = session->lane.load();
    request.type = header.type;
    request.payload = std::move(payload);
    if (!queue_.TryPush(std::move(request))) {
      // Bounded-queue backpressure: park the frame, retry next tick; the
      // unread socket bytes throttle the client.
      session->stalled_request = std::move(request);
      session->has_stalled = true;
      return;
    }
  }
}

// --- engine thread -----------------------------------------------------------

void Server::EngineThreadMain() {
  while (true) {
    engine_ticks_.fetch_add(1, std::memory_order_relaxed);
    // Only two things make progress with *time* rather than with a queued
    // request: the governor's admission window (queued submits can start
    // to fit as the spill-I/O window rolls over) and the shutdown drain
    // deadline. Poll at 20ms only while one of those is pending; otherwise
    // park on the queue's cv with a long bounded timeout so an idle server
    // burns ~0 CPU. Every producer (TryPush/PushControl/WakeAll) notifies
    // the cv, so new work still wakes the loop immediately.
    const bool timed_work = HasQueuedSubmits() || shutdown_requested_;
    const auto timeout = timed_work ? std::chrono::milliseconds(20)
                                    : std::chrono::milliseconds(250);
    Request request;
    if (queue_.PopWithTimeout(&request, timeout)) {
      ProcessRequest(request);
    }
    SweepCompletions();
    // Re-offer queued submits every tick, not only after a completion:
    // capacity can also free with time alone (the spill-I/O window rolls
    // over), and a tenant with no running queries would otherwise strand
    // its queue forever.
    if (HasQueuedSubmits()) AdmitQueuedSubmits();
    if (shutdown_requested_ &&
        (Drained() ||
         std::chrono::steady_clock::now() >= shutdown_deadline_)) {
      CancelAllQueries();
      break;
    }
  }
  engine_thread_done_ = true;
}

bool Server::Drained() const {
  if (queue_.size() != 0) return false;
  MutexLock lock(&sessions_mu_);
  for (const auto& [id, session] : sessions_) {
    // A frame parked under backpressure is pending work the queue cannot
    // see; the network thread re-offers it next tick, so keep draining.
    if (!session->fd_closed && session->has_stalled) return false;
    if (session->cleaned) continue;
    for (const auto& [qid, rec] : session->queries) {
      if (!rec.admitted && rec.submit_error.ok()) return false;  // queued
      if (rec.admitted && rec.handle.valid() && !rec.handle.done()) {
        return false;
      }
    }
  }
  return true;
}

void Server::CancelAllQueries() {
  std::vector<std::shared_ptr<Session>> all;
  {
    MutexLock lock(&sessions_mu_);
    for (auto& [id, session] : sessions_) all.push_back(session);
  }
  for (auto& session : all) {
    CleanupSessionState(session);
    session->engine_cleared = true;
  }
}

void Server::ProcessRequest(const Request& request) {
  std::shared_ptr<Session> session = FindSession(request.session_id);
  if (session == nullptr) return;
  switch (request.kind) {
    case Request::Kind::kDisconnect:
      CleanupSessionState(session);
      session->engine_cleared = true;
      return;
    case Request::Kind::kEndOfInput:
      // The client half-closed after pipelining: every frame it sent has
      // been answered above (queue order), and nothing more can arrive.
      // Tear down like an implicit Close — flush the buffered responses,
      // then let the network thread close the socket.
      CleanupSessionState(session);
      session->state = Session::State::kClosing;
      {
        MutexLock lock(&session->out_mu);
        session->close_after_flush = true;
      }
      WakeNet();
      return;
    case Request::Kind::kProtocolError:
      SendErrorAndClose(session, Status::InvalidArgument(request.payload));
      return;
    case Request::Kind::kFrame:
      if (session->state == Session::State::kClosing) return;
      ProcessFrame(session, request.type, request.payload);
      return;
    case Request::Kind::kQueryReady:
      if (session->cleaned) return;
      ServeParkedFetches(session, request.query_id);
      return;
  }
}

void Server::ProcessFrame(const std::shared_ptr<Session>& session,
                          wire::FrameType type, const std::string& payload) {
  using wire::FrameType;
  if (session->state == Session::State::kAwaitHello &&
      type != FrameType::kHello) {
    SendErrorAndClose(
        session,
        Status::InvalidArgument(std::string("out-of-order frame: ") +
                                wire::FrameTypeName(type) +
                                " before Hello (the session must "
                                "authenticate first)"));
    return;
  }
  switch (type) {
    case FrameType::kHello:
      if (session->state != Session::State::kAwaitHello) {
        SendErrorAndClose(session,
                          Status::InvalidArgument(
                              "out-of-order frame: duplicate Hello on an "
                              "authenticated session"));
        return;
      }
      HandleHello(session, payload);
      return;
    case FrameType::kPrepare:
      HandlePrepare(session, payload);
      return;
    case FrameType::kBind:
      HandleBind(session, payload);
      return;
    case FrameType::kSubmit:
      HandleSubmit(session, payload);
      return;
    case FrameType::kFetch:
      HandleFetch(session, payload);
      return;
    case FrameType::kCancel:
      HandleCancel(session, payload);
      return;
    case FrameType::kStats:
      HandleStats(session);
      return;
    case FrameType::kMetrics:
      HandleMetrics(session);
      return;
    case FrameType::kClose:
      CleanupSessionState(session);
      session->state = Session::State::kClosing;
      SendFrame(session, wire::EncodeCloseOk());
      {
        MutexLock lock(&session->out_mu);
        session->close_after_flush = true;
      }
      WakeNet();
      return;
    default:
      SendErrorAndClose(
          session,
          Status::InvalidArgument(
              "unknown frame type " +
              std::to_string(static_cast<unsigned>(type)) +
              " (a response type, or a type this server does not speak)"));
      return;
  }
}

void Server::HandleHello(const std::shared_ptr<Session>& session,
                         const std::string& payload) {
  wire::HelloRequest hello;
  Status st = wire::Decode(payload, &hello);
  if (!st.ok()) {
    SendErrorAndClose(session, st);
    return;
  }
  if (hello.protocol_version != wire::kProtocolVersion) {
    SendErrorAndClose(
        session, Status::Unsupported(
                     "protocol version " +
                     std::to_string(hello.protocol_version) +
                     " not supported (server speaks version " +
                     std::to_string(wire::kProtocolVersion) + ")"));
    return;
  }
  if (hello.tenant.empty()) {
    SendErrorAndClose(session,
                      Status::InvalidArgument("Hello: tenant must be named"));
    return;
  }
  if (options_.tenants.empty()) {
    // Open mode: first connection of a tenant registers it.
    if (!governor_.HasTenant(hello.tenant)) {
      (void)governor_.RegisterTenant(hello.tenant, TenantQuota{});
    }
  } else {
    const TenantConfig* config = nullptr;
    for (const TenantConfig& cfg : options_.tenants) {
      if (cfg.name == hello.tenant) {
        config = &cfg;
        break;
      }
    }
    if (config == nullptr) {
      SendErrorAndClose(session, Status::NotFound("unknown tenant '" +
                                                  hello.tenant + "'"));
      return;
    }
    if (!config->token.empty() && config->token != hello.token) {
      SendErrorAndClose(
          session, Status::InvalidArgument("authentication failed for "
                                           "tenant '" +
                                           hello.tenant + "'"));
      return;
    }
  }
  session->tenant = hello.tenant;
  session->state = Session::State::kReady;
  // Assign the tenant's fairness lane; every frame the network thread
  // parses after this store is stamped with it (frames already in flight
  // ride the shared pre-auth lane 0, which is harmless).
  uint32_t& lane = tenant_lanes_[hello.tenant];
  if (lane == 0) lane = next_lane_id_++;
  session->lane.store(lane);
  wire::HelloOk ok;
  ok.session_id = session->id;
  ok.server_version = kServerVersion;
  SendFrame(session, wire::Encode(ok));
}

void Server::HandlePrepare(const std::shared_ptr<Session>& session,
                           const std::string& payload) {
  wire::PrepareRequest request;
  Status st = wire::Decode(payload, &request);
  if (!st.ok()) {
    SendErrorAndClose(session, st);
    return;
  }
  Result<PreparedQuery> prepared = engine_->Prepare(request.sql);
  if (!prepared.ok()) {
    // SQL errors are the session's business, not a protocol violation:
    // the error frame carries the positioned diagnostic and the session
    // lives on.
    SendError(session, prepared.status());
    return;
  }
  const Schema& schema = prepared.Value().spec().output_schema();
  // The PrepareOk column list and every Rows frame carry u16 counts; a
  // statement wider than that can never stream back correctly.
  if (schema.columns().size() > 0xFFFF ||
      prepared.Value().params().size() > 0xFFFF) {
    SendError(session,
              Status::InvalidArgument(
                  "Prepare: statement exceeds wire limits (at most 65535 "
                  "output columns and 65535 parameters)"));
    return;
  }
  wire::PrepareOk ok;
  ok.stmt_id = request.stmt_id;
  ok.num_params = static_cast<uint16_t>(prepared.Value().params().size());
  for (const ColumnDef& col : schema.columns()) {
    ok.columns.emplace_back(col.name, col.type);
  }
  session->prepared[request.stmt_id] = std::move(prepared).Value();
  SendFrame(session, wire::Encode(ok));
}

void Server::HandleBind(const std::shared_ptr<Session>& session,
                        const std::string& payload) {
  wire::BindRequest request;
  Status st = wire::Decode(payload, &request);
  if (!st.ok()) {
    SendErrorAndClose(session, st);
    return;
  }
  auto it = session->prepared.find(request.stmt_id);
  if (it == session->prepared.end()) {
    SendError(session,
              Status::NotFound("Bind: unknown statement id " +
                               std::to_string(request.stmt_id) +
                               " (Prepare it first)"));
    return;
  }
  sql::SqlParams params;
  for (const Value& v : request.positional) params.Add(v);
  for (const auto& [name, v] : request.named) params.Set(name, v);
  BoundQuery bound = it->second.Bind(params);
  if (!bound.status().ok()) {
    SendError(session, bound.status());
    return;
  }
  session->portals[request.portal_id] = bound.spec();
  wire::BindOk ok;
  ok.portal_id = request.portal_id;
  SendFrame(session, wire::Encode(ok));
}

Status Server::StartQuery(const std::shared_ptr<Session>& session,
                          QueryRec* rec) {
  Result<QueryHandle> result = engine_->Submit(rec->spec, rec->options);
  if (!result.ok()) return result.status();
  rec->handle = std::move(result).Value();
  rec->admitted = true;
  if (options_.post_submit_hook) {
    options_.post_submit_hook(session->tenant, rec->handle);
  }
  return Status::OK();
}

void Server::HandleSubmit(const std::shared_ptr<Session>& session,
                          const std::string& payload) {
  wire::SubmitRequest request;
  Status st = wire::Decode(payload, &request);
  if (!st.ok()) {
    SendErrorAndClose(session, st);
    return;
  }
  auto portal = session->portals.find(request.portal_id);
  if (portal == session->portals.end()) {
    SendError(session,
              Status::NotFound("Submit: unknown portal id " +
                               std::to_string(request.portal_id) +
                               " (Bind it first)"));
    return;
  }
  Result<RunOptions> options =
      OptionsForPreset(options_.run_options, request.preset);
  if (!options.ok()) {
    SendError(session, options.status());
    return;
  }

  QueryRec rec;
  rec.tenant = session->tenant;
  rec.spec = portal->second;
  rec.options = std::move(options).Value();
  rec.memory_charge = rec.options.memory_budget_entries;

  const AdmissionDecision decision =
      governor_.OnSubmit(session->tenant, rec.memory_charge);
  {
    // Cross-tenant admission outcomes, one counter per verdict: the feed
    // behind the stems_server_submits_* exposition series.
    obs::MetricsRegistry& registry = engine_->metrics_registry();
    const char* name =
        decision.outcome == AdmissionOutcome::kAdmit ? "server.submits_admitted"
        : decision.outcome == AdmissionOutcome::kQueue
            ? "server.submits_queued"
            : "server.submits_rejected";
    registry.GetCounter(name)->Add(1);
  }
  if (decision.outcome == AdmissionOutcome::kReject) {
    SendError(session, decision.status, decision.retry_after_ms);
    return;
  }
  const uint64_t query_id = next_query_id_++;
  if (decision.outcome == AdmissionOutcome::kAdmit) {
    Status start = StartQuery(session, &rec);
    if (!start.ok()) {
      governor_.OnQueryFinished(session->tenant, rec.memory_charge,
                                QueryStats{}, start);
      SendError(session, start);
      return;
    }
    session->queries.emplace(query_id, std::move(rec));
    wire::SubmitOk ok;
    ok.query_id = query_id;
    ok.admitted = true;
    SendFrame(session, wire::Encode(ok));
    return;
  }
  // Queued: the spec waits in the tenant's admission queue; Fetch serves
  // rows once capacity frees.
  session->queries.emplace(query_id, std::move(rec));
  auto& queue = pending_submits_[session->tenant];
  queue.emplace_back(session->id, query_id);
  wire::SubmitOk ok;
  ok.query_id = query_id;
  ok.admitted = false;
  ok.queue_position = static_cast<uint32_t>(queue.size());
  SendFrame(session, wire::Encode(ok));
}

void Server::HandleFetch(const std::shared_ptr<Session>& session,
                         const std::string& payload) {
  wire::FetchRequest request;
  Status st = wire::Decode(payload, &request);
  if (!st.ok()) {
    SendErrorAndClose(session, st);
    return;
  }
  auto it = session->queries.find(request.query_id);
  if (it == session->queries.end()) {
    SendError(session,
              Status::NotFound("Fetch: unknown query id " +
                               std::to_string(request.query_id) +
                               " (never submitted, already drained, or "
                               "cancelled)"));
    return;
  }
  QueryRec& rec = it->second;
  if (!rec.admitted) {
    if (!rec.submit_error.ok()) {
      // The deferred submit failed when its turn came; typed error, then
      // the query id is gone.
      SendError(session, rec.submit_error);
      session->queries.erase(it);
      return;
    }
    // Still waiting in the admission queue: an empty, not-done response.
    wire::RowsResponse rows;
    rows.query_id = request.query_id;
    SendRows(session, rows);
    return;
  }

  const uint32_t max_rows =
      std::clamp<uint32_t>(request.max_rows, 1, wire::kMaxRowsPerFetch);
  if (!rec.parked_fetches.empty() ||
      !rec.handle.cursor().NotifyWhenReady(
          max_rows, QueryReadyWake(session, request.query_id))) {
    // A threaded query that cannot fill this page yet: park the Fetch
    // instead of blocking the engine thread (pipelined Fetches queue
    // behind it). Never answer with the rows so far and done=false — the
    // client would re-send at once and spin on the workers' CPUs.
    rec.parked_fetches.push_back(max_rows);
    return;
  }
  AnswerFetch(session, request.query_id, max_rows);
}

bool Server::AnswerFetch(const std::shared_ptr<Session>& session,
                         uint64_t query_id, uint32_t max_rows) {
  auto it = session->queries.find(query_id);
  QueryRec& rec = it->second;
  // Wall time serving this admitted Fetch (cursor pumping dominates),
  // observed on every exit path below. Queued-submit polls are excluded —
  // they would drown the histogram in empty round trips — and so is the
  // time a Fetch spends parked.
  struct FetchTimer {
    obs::Histogram* hist;
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    ~FetchTimer() {
      hist->Observe(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
    }
  } fetch_timer{engine_->metrics_registry().GetHistogram("server.fetch_us")};

  wire::RowsResponse response;
  response.query_id = query_id;
  ResultCursor cursor = rec.handle.cursor();
  bool end_of_stream = false;
  while (response.rows.size() < max_rows) {
    std::optional<RowView> row = cursor.NextRow();
    if (!row.has_value()) {
      end_of_stream = true;
      break;
    }
    std::vector<Value> values;
    const size_t n = row->num_columns();
    values.reserve(n);
    for (size_t i = 0; i < n; ++i) values.push_back(row->value(i));
    response.rows.push_back(std::move(values));
  }
  ReportSpillProgress(&rec, cursor.spill_ios());

  if (end_of_stream && rec.handle.done()) {
    ReleaseSlot(session, &rec);
    const Status& error = rec.handle.status();
    if (!error.ok() && response.rows.empty()) {
      // Typed end-of-stream: the failure travels as an error frame, never
      // as a silent done-bit.
      SendError(session, error);
      session->queries.erase(it);
      AdmitQueuedSubmits();
      return false;
    }
    if (error.ok()) {
      response.done = true;
      SendRows(session, response);
      session->queries.erase(it);
      AdmitQueuedSubmits();
      return false;
    }
    // Rows collected this round travel first; the error frame ends the
    // stream on the next Fetch.
    SendRows(session, response);
    AdmitQueuedSubmits();
    return true;
  }
  SendRows(session, response);
  return true;
}

void Server::ServeParkedFetches(const std::shared_ptr<Session>& session,
                                uint64_t query_id) {
  auto it = session->queries.find(query_id);
  if (it == session->queries.end()) return;  // cancelled meanwhile
  QueryRec& rec = it->second;  // map node: stable until erased
  ReportSpillProgress(&rec, rec.handle.cursor().spill_ios());
  while (!rec.parked_fetches.empty()) {
    const uint32_t max_rows = rec.parked_fetches.front();
    if (!rec.handle.cursor().NotifyWhenReady(
            max_rows, QueryReadyWake(session, query_id))) {
      return;  // re-armed: the next wake resumes here
    }
    rec.parked_fetches.pop_front();
    const size_t still_parked = rec.parked_fetches.size();
    if (!AnswerFetch(session, query_id, max_rows)) {
      // The stream ended with that page and the id is gone: pipelined
      // Fetches behind it get what a late Fetch gets.
      for (size_t i = 0; i < still_parked; ++i) {
        SendError(session,
                  Status::NotFound("Fetch: unknown query id " +
                                   std::to_string(query_id) +
                                   " (already drained)"));
      }
      return;
    }
  }
}

std::function<void()> Server::QueryReadyWake(
    const std::shared_ptr<Session>& session, uint64_t query_id) {
  Request wake;
  wake.kind = Request::Kind::kQueryReady;
  wake.session_id = session->id;
  wake.lane = session->lane.load();
  wake.query_id = query_id;
  // Runs on a worker thread; the queue is the only server state it
  // touches. The run is joined (cancel / cleanup) before the server goes.
  return [this, wake] { queue_.PushControl(wake); };
}

void Server::ReportSpillProgress(QueryRec* rec, uint64_t total_ios) {
  if (total_ios > rec->last_spill_ios) {
    governor_.OnSpillProgress(rec->tenant, total_ios - rec->last_spill_ios);
    rec->last_spill_ios = total_ios;
  }
}

void Server::HandleCancel(const std::shared_ptr<Session>& session,
                          const std::string& payload) {
  wire::CancelRequest request;
  Status st = wire::Decode(payload, &request);
  if (!st.ok()) {
    SendErrorAndClose(session, st);
    return;
  }
  auto it = session->queries.find(request.query_id);
  if (it == session->queries.end()) {
    SendError(session, Status::NotFound("Cancel: unknown query id " +
                                        std::to_string(request.query_id)));
    return;
  }
  QueryRec& rec = it->second;
  if (!rec.admitted && rec.submit_error.ok()) {
    // Still queued: drop it from the tenant's admission queue.
    auto& queue = pending_submits_[rec.tenant];
    for (auto qit = queue.begin(); qit != queue.end(); ++qit) {
      if (qit->first == session->id && qit->second == request.query_id) {
        queue.erase(qit);
        break;
      }
    }
    governor_.DropQueued(rec.tenant);
  } else if (rec.admitted && !rec.slot_released) {
    rec.handle.Cancel();
    ReleaseSlot(session, &rec);
  }
  // Fetches parked on the query are answered before the CancelOk, in the
  // order the client sent them.
  for (size_t i = 0; i < rec.parked_fetches.size(); ++i) {
    SendError(session,
              Status::NotFound("Fetch: query id " +
                               std::to_string(request.query_id) +
                               " was cancelled while the Fetch waited"));
  }
  session->queries.erase(it);
  wire::CancelOk ok;
  ok.query_id = request.query_id;
  SendFrame(session, wire::Encode(ok));
  AdmitQueuedSubmits();
}

void Server::HandleStats(const std::shared_ptr<Session>& session) {
  wire::StatsOk ok;
  ok.counters = governor_.Rollup(session->tenant).Counters();
  // Server-level health rides along with the tenant's rollup, so one Stats
  // frame answers both "how is my workload doing" and "is the server
  // keeping up".
  ok.counters.emplace_back("server.engine_ticks", engine_ticks());
  ok.counters.emplace_back("server.request_queue_high_water",
                           queue_.high_water());
  SendFrame(session, wire::Encode(ok));
}

std::string Server::MetricsText() {
  obs::MetricsRegistry& registry = engine_->metrics_registry();
  registry.GetGauge("server.sessions_active")
      ->Set(static_cast<int64_t>(active_sessions()));
  registry.GetGauge("server.engine_ticks")
      ->Set(static_cast<int64_t>(engine_ticks()));
  registry.GetGauge("server.request_queue_depth")
      ->Set(static_cast<int64_t>(queue_.size()));
  registry.GetGauge("server.request_queue_high_water")
      ->Set(static_cast<int64_t>(queue_.high_water()));
  return registry.ExpositionText();
}

void Server::HandleMetrics(const std::shared_ptr<Session>& session) {
  wire::MetricsOk ok;
  ok.text = MetricsText();
  SendFrame(session, wire::Encode(ok));
}

void Server::ReleaseSlot(const std::shared_ptr<Session>& session,
                         QueryRec* rec) {
  (void)session;
  if (rec->slot_released) return;
  rec->slot_released = true;
  QueryStats stats;
  Status error;
  if (rec->handle.valid()) {
    stats = rec->handle.Stats();
    error = rec->handle.status();
    // Final spill delta (completions between fetches).
    ReportSpillProgress(rec, stats.spill_ios);
    MaybeLogSlowQuery(*rec);
  }
  governor_.OnQueryFinished(rec->tenant, rec->memory_charge, stats, error);
}

void Server::MaybeLogSlowQuery(const QueryRec& rec) {
  if (options_.slow_query_ms == 0 || !rec.handle.valid()) return;
  const obs::QueryProfile profile = rec.handle.Profile();
  const uint64_t wall_ms = profile.wall_us / 1000;
  if (wall_ms < options_.slow_query_ms) return;
  engine_->metrics_registry().GetCounter("server.slow_queries")->Add(1);
  std::string line =
      "slow query: tenant=" + rec.tenant + " wall_ms=" +
      std::to_string(wall_ms) + " threshold_ms=" +
      std::to_string(options_.slow_query_ms) + " executor=" +
      profile.executor + " policy=" + profile.policy + " results=" +
      std::to_string(profile.totals.num_results) + " tuples_routed=" +
      std::to_string(profile.totals.tuples_routed) + " spill_ios=" +
      std::to_string(profile.totals.spill_ios) + " bytes_spilled=" +
      std::to_string(profile.totals.bytes_spilled) + " modules=" +
      std::to_string(profile.modules.size());
  if (options_.slow_query_log) {
    options_.slow_query_log(line);
  } else {
    STEMS_LOG(Warning) << line;
  }
}

void Server::SweepCompletions() {
  std::vector<std::shared_ptr<Session>> all;
  {
    MutexLock lock(&sessions_mu_);
    for (auto& [id, session] : sessions_) all.push_back(session);
  }
  for (auto& session : all) {
    if (session->cleaned) continue;
    for (auto& [qid, rec] : session->queries) {
      if (rec.admitted && !rec.slot_released && rec.handle.done()) {
        // The query finished while some other session's Fetch pumped the
        // shared clock; its slot frees now, its buffered rows stay until
        // the owner drains them. The engine loop re-offers queued submits
        // right after this sweep.
        ReleaseSlot(session, &rec);
      }
    }
  }
}

bool Server::HasQueuedSubmits() const {
  for (const auto& [tenant, queue] : pending_submits_) {
    if (!queue.empty()) return true;
  }
  return false;
}

void Server::AdmitQueuedSubmits() {
  for (auto& [tenant, queue] : pending_submits_) {
    while (!queue.empty()) {
      const auto [session_id, query_id] = queue.front();
      std::shared_ptr<Session> session = FindSession(session_id);
      if (session == nullptr || session->cleaned) {
        // CleanupSessionState already settled the governor charge.
        queue.pop_front();
        continue;
      }
      auto it = session->queries.find(query_id);
      if (it == session->queries.end()) {
        queue.pop_front();
        continue;
      }
      QueryRec& rec = it->second;
      if (!governor_.TryAdmitQueued(tenant, rec.memory_charge)) break;
      queue.pop_front();
      Status start = StartQuery(session, &rec);
      if (!start.ok()) {
        // Slot charged by TryAdmitQueued; settle it and surface the error
        // on the owner's next Fetch.
        governor_.OnQueryFinished(tenant, rec.memory_charge, QueryStats{},
                                  start);
        rec.submit_error = start;
        rec.slot_released = true;
      }
    }
  }
}

void Server::CleanupSessionState(const std::shared_ptr<Session>& session) {
  if (session->cleaned) return;
  session->cleaned = true;
  for (auto& [qid, rec] : session->queries) {
    if (rec.admitted && !rec.slot_released) {
      rec.handle.Cancel();
      ReleaseSlot(session, &rec);
    } else if (!rec.admitted && rec.submit_error.ok()) {
      auto pending = pending_submits_.find(rec.tenant);
      if (pending != pending_submits_.end()) {
        auto& queue = pending->second;
        for (auto it = queue.begin(); it != queue.end(); ++it) {
          if (it->first == session->id && it->second == qid) {
            queue.erase(it);
            break;
          }
        }
      }
      governor_.DropQueued(rec.tenant);
    }
  }
  session->queries.clear();
  session->portals.clear();
  session->prepared.clear();
  AdmitQueuedSubmits();
}

void Server::SendRows(const std::shared_ptr<Session>& session,
                      const wire::RowsResponse& response) {
  Result<std::string> frame = wire::Encode(response);
  if (!frame.ok()) {
    // A row too wide for the wire format (defense in depth; Prepare
    // already rejects over-wide schemas): typed error, not a bad frame.
    SendError(session, frame.status());
    return;
  }
  SendFrame(session, std::move(frame).Value());
}

void Server::SendFrame(const std::shared_ptr<Session>& session,
                       std::string frame) {
  {
    MutexLock lock(&session->out_mu);
    if (session->fd_closed) return;  // client already gone; drop quietly
    session->out_buffer.append(frame);
  }
  WakeNet();
}

void Server::SendError(const std::shared_ptr<Session>& session,
                       const Status& status, uint32_t retry_after_ms) {
  SendFrame(session,
            wire::Encode(wire::ErrorFromStatus(status, retry_after_ms)));
}

void Server::SendErrorAndClose(const std::shared_ptr<Session>& session,
                               const Status& status) {
  SendError(session, status);
  CleanupSessionState(session);
  session->state = Session::State::kClosing;
  {
    MutexLock lock(&session->out_mu);
    session->close_after_flush = true;
  }
  WakeNet();
}

}  // namespace stems::server
