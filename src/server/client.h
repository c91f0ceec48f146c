// Client: the blocking library side of the stems wire protocol
// (server/wire.h), used by the stems_cli example, servebench and the
// server test suite.
//
//   Client client;
//   STEMS_RETURN_NOT_OK(client.Connect("127.0.0.1", port, "tenant_a", ""));
//   auto prepared = client.Prepare(
//       "SELECT u.id FROM users u WHERE u.age >= $min");
//   auto portal = client.Bind(prepared.Value().stmt_id,
//                             sql::SqlParams().Set("min", Value::Int64(30)));
//   auto submit = client.Submit(portal.Value());
//   while (true) {
//     auto fetch = client.Fetch(submit.Value().query_id);
//     for (auto& row : fetch.Value().rows) Use(row);
//     if (fetch.Value().done) break;
//   }
//
// One outstanding request at a time (strict request/response); not
// thread-safe — one Client per thread. Every server-reported failure is
// returned as its wire Status and kept in last_error() with the
// structured extras (retry-after hint, SQL position).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "server/wire.h"
#include "sql/params.h"
#include "types/value.h"

namespace stems::server {

/// The most recent Error frame, with its structured fields.
struct ClientError {
  StatusCode code = StatusCode::kOk;
  std::string message;
  uint32_t sql_line = 0;
  uint32_t sql_column = 0;
  uint32_t retry_after_ms = 0;
};

struct PrepareResult {
  uint32_t stmt_id = 0;
  size_t num_params = 0;
  std::vector<std::pair<std::string, ValueType>> columns;
};

struct SubmitResult {
  uint64_t query_id = 0;
  bool admitted = true;
  uint32_t queue_position = 0;
};

struct FetchResult {
  std::vector<std::vector<Value>> rows;
  bool done = false;
};

class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Opens the TCP connection and authenticates as `tenant`.
  Status Connect(const std::string& host, uint16_t port,
                 const std::string& tenant, const std::string& token = "");
  bool connected() const { return fd_ >= 0; }
  uint64_t session_id() const { return session_id_; }

  /// Compiles `sql` server-side; statement ids are allocated by the
  /// client.
  Result<PrepareResult> Prepare(const std::string& sql);

  /// Binds parameters into a fresh portal of the prepared statement.
  Result<uint32_t> Bind(uint32_t stmt_id, const sql::SqlParams& params = {});

  /// Starts the portal's query. An over-quota submit is *queued*
  /// (admitted=false, Fetch returns rows once capacity frees); a
  /// hard-over-quota submit fails with kResourceExhausted and a
  /// retry-after hint in last_error().
  Result<SubmitResult> Submit(uint32_t portal_id,
                              const std::string& preset = "");

  /// Up to max_rows results. done=true ends the stream; a query that
  /// failed server-side ends with its typed Status instead.
  Result<FetchResult> Fetch(uint64_t query_id, uint32_t max_rows = 1024);

  Status Cancel(uint64_t query_id);

  /// This tenant's rolled-up QueryStats counters.
  Result<std::vector<std::pair<std::string, uint64_t>>> TenantStats();

  /// Engine-wide metrics, Prometheus plaintext (Server::MetricsText()).
  Result<std::string> Metrics();

  /// Orderly session end (Close/CloseOk), then disconnects.
  Status Close();

  /// Hard disconnect without a Close frame — the misbehaving-client shape
  /// the server's mid-query cleanup tests exercise.
  void Abort();

  /// Convenience: Prepare + Bind + Submit + Fetch-to-end. Spins through
  /// queued admission (brief sleeps between empty fetches).
  Result<std::vector<std::vector<Value>>> RunQuery(
      const std::string& sql, const sql::SqlParams& params = {},
      const std::string& preset = "");

  const ClientError& last_error() const { return last_error_; }

  /// Testing escape hatch: opens the TCP connection without sending a
  /// Hello frame (protocol-violation tests drive the raw socket).
  Status ConnectRawForTest(const std::string& host, uint16_t port);
  /// Testing escape hatch: raw bytes onto the socket (malformed-frame
  /// robustness tests).
  Status SendRaw(const void* data, size_t size);
  /// Testing escape hatch: half-closes the write side (shutdown(SHUT_WR)),
  /// signalling EOF to the server while responses stay readable.
  void ShutdownWriteForTest();
  /// Testing escape hatch: blocking read of the next whole frame.
  Status ReadFrameRaw(wire::FrameType* type, std::string* payload);

 private:
  /// Sends one frame and reads the response, which must be `expected` or
  /// an Error frame (returned as its Status).
  Status RoundTrip(const std::string& frame, wire::FrameType expected,
                   std::string* response_payload);
  Status WriteAll(const void* data, size_t size);
  Status ReadExactly(void* data, size_t size);

  int fd_ = -1;
  uint64_t session_id_ = 0;
  uint32_t next_stmt_id_ = 1;
  uint32_t next_portal_id_ = 1;
  ClientError last_error_;
};

}  // namespace stems::server
