#include "served.h"

#include <utility>

namespace servebench {

using stems::Status;
using stems::Value;
using stems::server::Client;
using stems::server::Server;
using stems::server::ServerOptions;
using stems::server::TenantConfig;

namespace {

double MsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

ServedSetup::~ServedSetup() {
  for (auto& client : clients_) {
    if (client->connected()) client->Close().IgnoreError();
  }
  clients_.clear();
  if (server_) server_->Shutdown();
  server_.reset();
  engine_.reset();
}

std::unique_ptr<ServedSetup> ServedSetup::Start(const Workload& w,
                                                std::string* error) {
  std::unique_ptr<ServedSetup> setup(new ServedSetup(w));
  setup->engine_ = std::make_unique<stems::Engine>();
  for (const TableData& t : w.tables) {
    Status st = setup->engine_->AddTable(t.def, t.rows);
    if (!st.ok()) {
      *error = "AddTable: " + st.ToString();
      return nullptr;
    }
  }
  ServerOptions options;
  options.run_options = w.options;
  for (const char* name : {"tenant_a", "tenant_b"}) {
    TenantConfig tenant;
    tenant.name = name;
    // Room for every session's query at once: the closed loop never queues.
    tenant.quota.max_concurrent_queries = 8;
    tenant.quota.max_queued_submits = 64;
    options.tenants.push_back(tenant);
  }
  setup->server_ =
      std::make_unique<Server>(setup->engine_.get(), std::move(options));
  Status st = setup->server_->Start();
  if (!st.ok()) {
    *error = "Server::Start: " + st.ToString();
    return nullptr;
  }
  for (size_t s = 0; s < w.sessions; ++s) {
    auto client = std::make_unique<Client>();
    st = client->Connect("127.0.0.1", setup->server_->port(), w.TenantOf(s));
    if (!st.ok()) {
      *error = "Connect: " + st.ToString();
      return nullptr;
    }
    std::vector<uint32_t> ids;
    for (const std::string& sql : w.statements) {
      auto prepared = client->Prepare(sql);
      if (!prepared.ok()) {
        *error = "Prepare: " + prepared.status().ToString();
        return nullptr;
      }
      ids.push_back(prepared.Value().stmt_id);
    }
    setup->clients_.push_back(std::move(client));
    setup->stmt_ids_.push_back(std::move(ids));
  }
  return setup;
}

void ServedSetup::RunGroup(size_t g, SpanLog* log,
                           std::vector<ServedQuery>* out) {
  struct Live {
    size_t out_index = 0;
    uint32_t portal = 0;
    uint64_t query_id = 0;
    Clock::time_point submitted;
    bool done = false;
    int32_t span = -1;
  };
  std::vector<Live> live(w_.sessions);
  size_t remaining = w_.sessions;
  auto fail = [&](Live& q, const char* what, const Status& st) {
    ServedQuery& o = (*out)[q.out_index];
    if (o.error.empty()) o.error = std::string(what) + ": " + st.ToString();
    q.done = true;
    --remaining;
    if (log != nullptr) log->End(q.span);
  };

  for (size_t s = 0; s < w_.sessions; ++s) {
    live[s].out_index = out->size();
    ServedQuery o;
    o.qi = w_.IndexAt(g, s);
    o.traced = log != nullptr;
    out->push_back(o);
    if (log != nullptr) {
      live[s].span =
          log->Begin("served.query", -1, static_cast<int64_t>(o.qi));
    }
  }
  auto rpc_span = [&](const char* name, const Live& q) {
    return ScopedSpan(log, name, q.span,
                      static_cast<int64_t>((*out)[q.out_index].qi));
  };

  for (size_t s = 0; s < w_.sessions; ++s) {
    const QueryInstance& q = w_.At(g, s);
    ScopedSpan span = rpc_span("rpc.bind", live[s]);
    auto portal = clients_[s]->Bind(
        stmt_ids_[s][q.stmt],
        stems::sql::SqlParams().Set("min", Value::Int64(q.min)));
    if (!portal.ok()) {
      fail(live[s], "Bind", portal.status());
      continue;
    }
    live[s].portal = portal.Value();
  }
  for (size_t s = 0; s < w_.sessions; ++s) {
    if (live[s].done) continue;
    live[s].submitted = Clock::now();
    ScopedSpan span = rpc_span("rpc.submit", live[s]);
    auto submit = clients_[s]->Submit(live[s].portal);
    if (!submit.ok()) {
      fail(live[s], "Submit", submit.status());
      continue;
    }
    live[s].query_id = submit.Value().query_id;
  }

  while (remaining > 0) {
    for (size_t s = 0; s < w_.sessions; ++s) {
      Live& q = live[s];
      if (q.done) continue;
      ServedQuery& o = (*out)[q.out_index];
      // Until the first row has arrived, ask for exactly one.
      const uint32_t max_rows = o.first_row_ms < 0 ? 1 : w_.page_rows;
      stems::Result<stems::server::FetchResult> fetch =
          Status::Internal("unreached");
      {
        ScopedSpan span = rpc_span("rpc.fetch", q);
        fetch = clients_[s]->Fetch(q.query_id, max_rows);
      }
      if (!fetch.ok()) {
        fail(q, "Fetch", fetch.status());
        continue;
      }
      const Clock::time_point now = Clock::now();
      const stems::server::FetchResult& page = fetch.Value();
      if (o.first_row_ms < 0 && !page.rows.empty()) {
        o.first_row_ms = MsSince(q.submitted, now);
      }
      for (const auto& row : page.rows) o.digest.AddRow(row);
      if (page.done) {
        o.latency_ms = MsSince(q.submitted, now);
        q.done = true;
        --remaining;
        if (log != nullptr) log->End(q.span);
      }
    }
  }
}

}  // namespace servebench
