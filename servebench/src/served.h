// The served path: an Engine behind a loopback Server, driven through the
// public Client by the one load-generator thread. Each session is a closed
// loop (the next request goes out only after the reply arrived), and the
// thread blocks in the socket read, never in a sleep.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "spans.h"
#include "workload.h"

namespace servebench {

struct ServedQuery {
  size_t qi = 0;  ///< index into Workload::queries
  Digest digest;
  /// Empty when every RPC of the query succeeded; otherwise the first
  /// failure (connection error, typed error frame, rejected submit).
  std::string error;
  double latency_ms = -1;    ///< Submit sent -> last Rows frame received
  double first_row_ms = -1;  ///< Submit sent -> first Rows frame with a row
  bool traced = false;
};

/// Engine + Server + one connected Client per session, statements prepared
/// on every session.
class ServedSetup {
 public:
  ServedSetup(const ServedSetup&) = delete;
  ServedSetup& operator=(const ServedSetup&) = delete;
  /// Closes the sessions, then shuts the server down before the engine.
  ~ServedSetup();

  /// Loads the tables, starts the server, connects and prepares. Returns
  /// null and sets `error` on failure.
  static std::unique_ptr<ServedSetup> Start(const Workload& w,
                                            std::string* error);

  /// Serves group `g` in lockstep: Bind on every session, Submit on every
  /// session, then Fetch round robin (one row first, then pages) until
  /// every query is done. Appends one ServedQuery per session. With a log,
  /// each RPC is recorded as a span under its query's span.
  void RunGroup(size_t g, SpanLog* log, std::vector<ServedQuery>* out);

  stems::server::Client& client(size_t session) { return *clients_[session]; }

 private:
  explicit ServedSetup(const Workload& w) : w_(w) {}

  const Workload& w_;
  std::unique_ptr<stems::Engine> engine_;
  std::unique_ptr<stems::server::Server> server_;
  std::vector<std::unique_ptr<stems::server::Client>> clients_;
  /// stmt_ids_[session][statement]
  std::vector<std::vector<uint32_t>> stmt_ids_;
};

}  // namespace servebench
