// The network front-end (src/server/): end-to-end over a real loopback
// socket. Covers result equivalence against in-process Engine::Query runs
// (single client and 4 clients x 2 tenants), positioned SQL error frames,
// typed not-found errors, protocol violations (out-of-order frames, raw
// garbage), the typed end-of-stream for queries that fail mid-flight
// (injected stuck module), a session killed mid-Fetch over pooled SteMs,
// and graceful shutdown draining then cancelling.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "tests/test_util.h"

namespace stems::server {
namespace {

using sql::SqlParams;
using testing::IntRows;
using testing::IntSchema;
using testing::ScanSpec;

/// The quickstart workload plus a bulk join pair, loaded identically into
/// any engine so wire results can be checked against in-process runs.
void FillEngine(Engine* engine) {
  ASSERT_TRUE(engine
                  ->AddTable(TableDef{"users", IntSchema({"id", "age"}),
                                      {ScanSpec("users.scan")}},
                             IntRows({{1, 34}, {2, 57}, {3, 25}, {4, 41}}))
                  .ok());
  ASSERT_TRUE(engine
                  ->AddTable(TableDef{"orders",
                                      IntSchema({"user_id", "item_id"}),
                                      {ScanSpec("orders.scan")}},
                             IntRows({{1, 10}, {1, 11}, {2, 10}, {3, 12},
                                      {4, 11}, {4, 12}}))
                  .ok());
  std::vector<std::vector<int64_t>> r_rows, s_rows;
  for (int64_t i = 0; i < 60; ++i) {
    r_rows.push_back({i % 12, i});
    s_rows.push_back({i % 12, i % 6});
  }
  ASSERT_TRUE(engine
                  ->AddTable(TableDef{"R", IntSchema({"a", "b"}),
                                      {ScanSpec("R.scan")}},
                             IntRows(r_rows))
                  .ok());
  ASSERT_TRUE(engine
                  ->AddTable(TableDef{"S", IntSchema({"x", "y"}),
                                      {ScanSpec("S.scan")}},
                             IntRows(s_rows))
                  .ok());
}

std::string RenderRow(const std::vector<Value>& row) {
  std::string out;
  for (const Value& v : row) {
    if (!out.empty()) out += "|";
    out += v.ToString();
  }
  return out;
}

std::vector<std::string> Sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<std::string> WireRows(
    const std::vector<std::vector<Value>>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back(RenderRow(row));
  return out;
}

/// The in-process answer for (sql, params), computed on a private engine
/// with the same data — the server's shared engine is never touched from
/// the test thread while the server runs.
std::vector<std::string> InProcessRows(const std::string& sql,
                                       const SqlParams& params = {}) {
  Engine engine;
  FillEngine(&engine);
  auto prepared = engine.Prepare(sql);
  EXPECT_TRUE(prepared.ok()) << prepared.status().message();
  auto handle = prepared.Value().Bind(params).Submit();
  EXPECT_TRUE(handle.ok()) << handle.status().message();
  std::vector<std::string> out;
  ResultCursor cursor = handle.Value().cursor();
  while (auto row = cursor.NextRow()) {
    std::string rendered;
    for (size_t i = 0; i < row->num_columns(); ++i) {
      if (!rendered.empty()) rendered += "|";
      rendered += row->value(i).ToString();
    }
    out.push_back(std::move(rendered));
  }
  EXPECT_TRUE(cursor.status().ok()) << cursor.status().message();
  return out;
}

constexpr char kJoinSql[] =
    "SELECT u.id, o.item_id FROM users u, orders o "
    "WHERE u.id = o.user_id AND u.age >= $min";
constexpr char kBulkSql[] =
    "SELECT R.b, S.y FROM R, S WHERE R.a = S.x AND R.b >= $min";

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override { FillEngine(&engine_); }

  /// Starts the server over engine_ with `options` (port stays ephemeral).
  void StartServer(ServerOptions options = {}) {
    server_ = std::make_unique<Server>(&engine_, std::move(options));
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  Engine engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, SingleQueryMatchesInProcess) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), "tenant_a").ok());
  auto rows = client.RunQuery(kJoinSql,
                              SqlParams().Set("min", Value::Int64(30)));
  ASSERT_TRUE(rows.ok()) << rows.status().message();
  EXPECT_EQ(
      Sorted(WireRows(rows.Value())),
      Sorted(InProcessRows(kJoinSql,
                           SqlParams().Set("min", Value::Int64(30)))));
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerTest, PreparedStatementReusedAcrossPortals) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), "tenant_a").ok());
  auto prepared = client.Prepare(kJoinSql);
  ASSERT_TRUE(prepared.ok()) << prepared.status().message();
  EXPECT_EQ(prepared.Value().num_params, 1u);
  ASSERT_EQ(prepared.Value().columns.size(), 2u);
  EXPECT_EQ(prepared.Value().columns[0].first, "u.id");
  EXPECT_EQ(prepared.Value().columns[1].first, "o.item_id");
  for (const int64_t min : {25, 40, 100}) {
    auto portal = client.Bind(prepared.Value().stmt_id,
                              SqlParams().Set("min", Value::Int64(min)));
    ASSERT_TRUE(portal.ok());
    auto submit = client.Submit(portal.Value());
    ASSERT_TRUE(submit.ok());
    std::vector<std::vector<Value>> rows;
    while (true) {
      auto fetch = client.Fetch(submit.Value().query_id);
      ASSERT_TRUE(fetch.ok());
      for (auto& row : fetch.Value().rows) rows.push_back(std::move(row));
      if (fetch.Value().done) break;
    }
    EXPECT_EQ(Sorted(WireRows(rows)),
              Sorted(InProcessRows(
                  kJoinSql, SqlParams().Set("min", Value::Int64(min)))))
        << "min=" << min;
  }
  EXPECT_TRUE(client.Close().ok());
}

/// The ISSUE acceptance bar: 4 concurrent clients across 2 tenants, mixed
/// prepared statements, every result set identical to an in-process run.
TEST_F(ServerTest, FourClientsTwoTenantsMatchInProcess) {
  ServerOptions options;
  options.run_options.share_stems = true;
  StartServer(std::move(options));

  struct Workload {
    std::string tenant;
    std::string sql;
    int64_t min;
  };
  const std::vector<Workload> workloads = {
      {"tenant_a", kJoinSql, 30},
      {"tenant_a", kBulkSql, 20},
      {"tenant_b", kJoinSql, 40},
      {"tenant_b", kBulkSql, 45},
  };
  std::vector<std::string> expected[4];
  for (size_t i = 0; i < workloads.size(); ++i) {
    expected[i] = Sorted(InProcessRows(
        workloads[i].sql,
        SqlParams().Set("min", Value::Int64(workloads[i].min))));
    ASSERT_FALSE(expected[i].empty());
  }

  std::vector<std::string> got[4];
  Status statuses[4];
  std::vector<std::thread> threads;
  for (size_t i = 0; i < workloads.size(); ++i) {
    threads.emplace_back([&, i] {
      Client client;
      statuses[i] = client.Connect("127.0.0.1", server_->port(),
                                   workloads[i].tenant);
      if (!statuses[i].ok()) return;
      // Each client runs its statement three times over one prepared
      // handle, interleaving with the other sessions on the shared clock.
      for (int repeat = 0; repeat < 3 && statuses[i].ok(); ++repeat) {
        auto rows = client.RunQuery(
            workloads[i].sql,
            SqlParams().Set("min", Value::Int64(workloads[i].min)));
        if (!rows.ok()) {
          statuses[i] = rows.status();
          return;
        }
        got[i] = Sorted(WireRows(rows.Value()));
      }
      statuses[i] = client.Close();
    });
  }
  for (auto& t : threads) t.join();
  for (size_t i = 0; i < workloads.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok())
        << "client " << i << ": " << statuses[i].message();
    EXPECT_EQ(got[i], expected[i]) << "client " << i;
  }

  // Per-tenant rollups saw every query (3 repeats x 2 clients per tenant).
  for (const char* tenant : {"tenant_a", "tenant_b"}) {
    const TenantRollup rollup = server_->TenantStats(tenant);
    EXPECT_EQ(rollup.queries_submitted, 6u) << tenant;
    EXPECT_EQ(rollup.queries_completed, 6u) << tenant;
    EXPECT_EQ(rollup.queries_failed, 0u) << tenant;
  }
}

TEST_F(ServerTest, SqlErrorsCarryPosition) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), "tenant_a").ok());
  auto prepared = client.Prepare("SELECT * FROM R WHERE R.a > AND R.b = 1");
  ASSERT_FALSE(prepared.ok());
  EXPECT_EQ(client.last_error().code, StatusCode::kInvalidQuery);
  EXPECT_EQ(client.last_error().sql_line, 1u);
  EXPECT_EQ(client.last_error().sql_column, 29u);
  EXPECT_NE(client.last_error().message.find("expected expression"),
            std::string::npos);
  // A failed Prepare is not fatal: the session keeps serving.
  EXPECT_TRUE(client.Prepare("SELECT R.a FROM R").ok());
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerTest, UnknownIdsAreTypedNotFound) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), "tenant_a").ok());
  EXPECT_FALSE(client.Bind(999).ok());
  EXPECT_EQ(client.last_error().code, StatusCode::kNotFound);
  EXPECT_FALSE(client.Submit(999).ok());
  EXPECT_EQ(client.last_error().code, StatusCode::kNotFound);
  EXPECT_FALSE(client.Fetch(999).ok());
  EXPECT_EQ(client.last_error().code, StatusCode::kNotFound);
  EXPECT_EQ(client.Cancel(999).code(), StatusCode::kNotFound);
  // None of those were protocol violations; the session still works.
  auto rows = client.RunQuery("SELECT u.id FROM users u");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.Value().size(), 4u);
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerTest, UnknownTenantRejected) {
  ServerOptions options;
  TenantConfig tenant;
  tenant.name = "tenant_a";
  tenant.token = "secret";
  options.tenants = {tenant};
  StartServer(std::move(options));

  Client stranger;
  EXPECT_FALSE(
      stranger.Connect("127.0.0.1", server_->port(), "tenant_b").ok());
  Client wrong_token;
  EXPECT_FALSE(wrong_token
                   .Connect("127.0.0.1", server_->port(), "tenant_a", "nope")
                   .ok());
  Client ok;
  EXPECT_TRUE(
      ok.Connect("127.0.0.1", server_->port(), "tenant_a", "secret").ok());
  EXPECT_TRUE(ok.Close().ok());
}

// ---------------------------------------------------------------------------
// Protocol robustness: violations answer with an Error frame, then close.
// ---------------------------------------------------------------------------

TEST_F(ServerTest, FrameBeforeHelloIsFatal) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.ConnectRawForTest("127.0.0.1", server_->port()).ok());
  const std::string frame = wire::Encode(wire::FetchRequest{1, 10});
  ASSERT_TRUE(client.SendRaw(frame.data(), frame.size()).ok());
  wire::FrameType type;
  std::string payload;
  ASSERT_TRUE(client.ReadFrameRaw(&type, &payload).ok());
  EXPECT_EQ(type, wire::FrameType::kError);
  wire::ErrorResponse error;
  ASSERT_TRUE(wire::Decode(payload, &error).ok());
  EXPECT_EQ(error.code, StatusCode::kInvalidArgument);
  EXPECT_NE(error.message.find("Hello"), std::string::npos);
  // The server closes after flushing the error.
  EXPECT_FALSE(client.ReadFrameRaw(&type, &payload).ok());
}

TEST_F(ServerTest, DuplicateHelloIsFatal) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), "tenant_a").ok());
  wire::HelloRequest hello;
  hello.tenant = "tenant_a";
  const std::string frame = wire::Encode(hello);
  ASSERT_TRUE(client.SendRaw(frame.data(), frame.size()).ok());
  wire::FrameType type;
  std::string payload;
  ASSERT_TRUE(client.ReadFrameRaw(&type, &payload).ok());
  EXPECT_EQ(type, wire::FrameType::kError);
  EXPECT_FALSE(client.ReadFrameRaw(&type, &payload).ok());
}

TEST_F(ServerTest, GarbageBytesAnswerErrorThenClose) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.ConnectRawForTest("127.0.0.1", server_->port()).ok());
  // Header announcing a payload far over the frame ceiling: unframeable,
  // so the server must error out and close without waiting for bytes.
  const uint8_t poison[8] = {0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x00, 0x00, 0x00};
  ASSERT_TRUE(client.SendRaw(poison, sizeof(poison)).ok());
  wire::FrameType type;
  std::string payload;
  ASSERT_TRUE(client.ReadFrameRaw(&type, &payload).ok());
  EXPECT_EQ(type, wire::FrameType::kError);
  wire::ErrorResponse error;
  ASSERT_TRUE(wire::Decode(payload, &error).ok());
  EXPECT_NE(error.message.find("oversized"), std::string::npos);
  EXPECT_FALSE(client.ReadFrameRaw(&type, &payload).ok());

  // The violation poisoned only that connection; the server stays healthy.
  Client healthy;
  ASSERT_TRUE(healthy.Connect("127.0.0.1", server_->port(), "tenant_a").ok());
  EXPECT_TRUE(healthy.RunQuery("SELECT u.id FROM users u").ok());
  EXPECT_TRUE(healthy.Close().ok());
}

TEST_F(ServerTest, TruncatedPayloadIsFatalButContained) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.ConnectRawForTest("127.0.0.1", server_->port()).ok());
  // A well-framed Hello whose payload is cut short: framing succeeds, the
  // typed decode fails, the server answers and closes.
  wire::HelloRequest hello;
  hello.tenant = "tenant_a";
  std::string frame = wire::Encode(hello);
  std::string body = frame.substr(wire::kHeaderBytes,
                                  frame.size() - wire::kHeaderBytes - 2);
  std::string cut = wire::EncodeFrame(wire::FrameType::kHello, body);
  ASSERT_TRUE(client.SendRaw(cut.data(), cut.size()).ok());
  wire::FrameType type;
  std::string payload;
  ASSERT_TRUE(client.ReadFrameRaw(&type, &payload).ok());
  EXPECT_EQ(type, wire::FrameType::kError);
  wire::ErrorResponse error;
  ASSERT_TRUE(wire::Decode(payload, &error).ok());
  EXPECT_NE(error.message.find("truncated"), std::string::npos);
  EXPECT_FALSE(client.ReadFrameRaw(&type, &payload).ok());
}

/// Use-after-move regression: with a single-slot request queue, pipelined
/// frames constantly hit backpressure; a parked frame must survive a
/// failed queue push intact (a corrupted payload would decode as
/// "truncated" and kill the session).
TEST_F(ServerTest, BackpressureKeepsParkedFramesIntact) {
  ServerOptions options;
  options.request_queue_capacity = 1;
  StartServer(std::move(options));
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), "tenant_a").ok());

  constexpr uint32_t kPipelined = 50;
  std::string batch;
  for (uint32_t i = 1; i <= kPipelined; ++i) {
    batch += wire::Encode(wire::PrepareRequest{i, "SELECT u.id FROM users u"});
  }
  ASSERT_TRUE(client.SendRaw(batch.data(), batch.size()).ok());
  for (uint32_t i = 1; i <= kPipelined; ++i) {
    wire::FrameType type;
    std::string payload;
    ASSERT_TRUE(client.ReadFrameRaw(&type, &payload).ok()) << "frame " << i;
    ASSERT_EQ(type, wire::FrameType::kPrepareOk) << "frame " << i;
    wire::PrepareOk ok;
    ASSERT_TRUE(wire::Decode(payload, &ok).ok());
    EXPECT_EQ(ok.stmt_id, i);
  }
  EXPECT_TRUE(client.Close().ok());
}

/// A client that pipelines a whole session and half-closes (SHUT_WR)
/// before reading must still get every response: frames buffered at EOF
/// are parsed and answered, then the server closes after flushing.
TEST_F(ServerTest, PipelinedRequestsAnsweredAfterHalfClose) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.ConnectRawForTest("127.0.0.1", server_->port()).ok());

  wire::HelloRequest hello;
  hello.tenant = "tenant_a";
  std::string batch = wire::Encode(hello);
  batch += wire::Encode(wire::PrepareRequest{1, "SELECT u.id FROM users u"});
  wire::BindRequest bind;
  bind.stmt_id = 1;
  bind.portal_id = 1;
  batch += wire::Encode(bind).Value();
  batch += wire::Encode(wire::SubmitRequest{1, ""});
  batch += wire::Encode(wire::FetchRequest{1, 100});  // first query id is 1
  ASSERT_TRUE(client.SendRaw(batch.data(), batch.size()).ok());
  client.ShutdownWriteForTest();

  const wire::FrameType expected[] = {
      wire::FrameType::kHelloOk, wire::FrameType::kPrepareOk,
      wire::FrameType::kBindOk, wire::FrameType::kSubmitOk,
      wire::FrameType::kRows};
  std::string payload;
  for (const wire::FrameType want : expected) {
    wire::FrameType type;
    ASSERT_TRUE(client.ReadFrameRaw(&type, &payload).ok())
        << "expected " << wire::FrameTypeName(want) << " after half-close";
    ASSERT_EQ(type, want);
  }
  wire::RowsResponse rows;
  ASSERT_TRUE(wire::Decode(payload, &rows).ok());
  EXPECT_EQ(rows.rows.size(), 4u);
  EXPECT_TRUE(rows.done);
  // Nothing more was requested: the server closes the drained session.
  wire::FrameType type;
  EXPECT_FALSE(client.ReadFrameRaw(&type, &payload).ok());
}

/// Fairness regression (the ROADMAP item the lane-aware queue fixes): a
/// chatty tenant flooding the request queue must not starve another
/// tenant's access to the engine pump. Every chatty Submit stalls the
/// engine thread (post_submit_hook), so the flood's backlog takes hundreds
/// of milliseconds to drain; round-robin dequeue must answer the quiet
/// tenant's query while most of that backlog is still queued. Under the
/// old FIFO queue the quiet tenant's frames waited behind the whole flood.
TEST_F(ServerTest, ChattyTenantCannotStarveQuietTenant) {
  constexpr uint32_t kChatty = 40;
  ServerOptions options;
  TenantConfig chatty;
  chatty.name = "tenant_chatty";
  chatty.quota.max_concurrent_queries = kChatty;  // all submits admit
  chatty.quota.max_queued_submits = kChatty;
  TenantConfig quiet;
  quiet.name = "tenant_quiet";
  options.tenants = {chatty, quiet};
  options.post_submit_hook = [](const std::string& tenant, QueryHandle&) {
    if (tenant == "tenant_chatty") {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };
  StartServer(std::move(options));

  Client flood;
  ASSERT_TRUE(
      flood.Connect("127.0.0.1", server_->port(), "tenant_chatty").ok());
  std::string batch;
  for (uint32_t i = 1; i <= kChatty; ++i) {
    batch += wire::Encode(wire::PrepareRequest{i, "SELECT u.id FROM users u"});
    wire::BindRequest bind;
    bind.stmt_id = i;
    bind.portal_id = i;
    batch += wire::Encode(bind).Value();
    batch += wire::Encode(wire::SubmitRequest{i, ""});
  }
  ASSERT_TRUE(flood.SendRaw(batch.data(), batch.size()).ok());

  Client prompt;
  ASSERT_TRUE(
      prompt.Connect("127.0.0.1", server_->port(), "tenant_quiet").ok());
  auto rows = prompt.RunQuery("SELECT u.id FROM users u");
  ASSERT_TRUE(rows.ok()) << rows.status().message();
  EXPECT_EQ(rows.Value().size(), 4u);

  // The ordering assertion: the quiet tenant was served while the flood
  // was still draining. FIFO would have processed all chatty submits
  // before the quiet tenant's first post-Hello frame.
  const TenantRollup backlog = server_->TenantStats("tenant_chatty");
  EXPECT_LT(backlog.queries_submitted, static_cast<uint64_t>(kChatty))
      << "quiet tenant waited for the whole chatty backlog";
  const TenantRollup served = server_->TenantStats("tenant_quiet");
  EXPECT_EQ(served.queries_completed, 1u);

  // The backpressure gauge saw the flood queue up.
  const std::string metrics = server_->MetricsText();
  const auto pos = metrics.find("server_request_queue_high_water");
  ASSERT_NE(pos, std::string::npos);
  const size_t value_at = metrics.find_first_of("0123456789", pos);
  ASSERT_NE(value_at, std::string::npos);
  EXPECT_GE(std::stoull(metrics.substr(value_at)), 5u)
      << "expected the chatty backlog to register on the high-water gauge";

  // Drain: the flood's responses all arrive eventually.
  for (uint32_t i = 1; i <= 3 * kChatty; ++i) {
    wire::FrameType type;
    std::string payload;
    ASSERT_TRUE(flood.ReadFrameRaw(&type, &payload).ok()) << "frame " << i;
  }
  EXPECT_TRUE(flood.Close().ok());
  EXPECT_TRUE(prompt.Close().ok());
}

// ---------------------------------------------------------------------------
// Failure surfacing and mid-query disconnects
// ---------------------------------------------------------------------------

/// A module that claims in-flight work forever (copied shape from
/// tests/test_engine.cc): the engine fails the query closed with
/// kInternal, which the server must surface as a typed Error frame.
class StuckModule : public Module {
 public:
  explicit StuckModule(Simulation* sim) : Module(sim, "stuck") {}
  ModuleKind kind() const override { return ModuleKind::kOperator; }
  bool Quiescent() const override { return false; }

 protected:
  SimTime ServiceTime(const Tuple&) const override { return 0; }
  void Process(TuplePtr) override {}
};

TEST_F(ServerTest, StuckQuerySurfacesTypedErrorOnFetch) {
  ServerOptions options;
  options.post_submit_hook = [this](const std::string& tenant,
                                    QueryHandle& handle) {
    if (tenant == "tenant_sick") {
      handle.eddy()->AddModule(
          std::make_unique<StuckModule>(&engine_.sim()));
    }
  };
  StartServer(std::move(options));

  Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", server_->port(), "tenant_sick").ok());
  auto prepared = client.Prepare("SELECT u.id FROM users u");
  ASSERT_TRUE(prepared.ok());
  auto portal = client.Bind(prepared.Value().stmt_id);
  ASSERT_TRUE(portal.ok());
  auto submit = client.Submit(portal.Value());
  ASSERT_TRUE(submit.ok());
  // Rows produced before the wedge stream normally; the stream then ends
  // with the engine's forced-completion kInternal instead of done=true.
  size_t rows_seen = 0;
  Status end = Status::OK();
  while (true) {
    auto fetch = client.Fetch(submit.Value().query_id);
    if (!fetch.ok()) {
      end = fetch.status();
      break;
    }
    rows_seen += fetch.Value().rows.size();
    ASSERT_FALSE(fetch.Value().done)
        << "a wedged query must not report a clean end of stream";
  }
  EXPECT_EQ(rows_seen, 4u);  // everything produced before the wedge
  EXPECT_EQ(end.code(), StatusCode::kInternal);
  EXPECT_EQ(client.last_error().code, StatusCode::kInternal);

  // The failure was that query's alone: same session, healthy tenant path.
  const TenantRollup rollup = server_->TenantStats("tenant_sick");
  EXPECT_EQ(rollup.queries_failed, 1u);
  Client healthy;
  ASSERT_TRUE(
      healthy.Connect("127.0.0.1", server_->port(), "tenant_ok").ok());
  EXPECT_TRUE(healthy.RunQuery("SELECT u.id FROM users u").ok());
  EXPECT_TRUE(healthy.Close().ok());
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerTest, SessionKilledMidFetchLeavesEngineHealthy) {
  ServerOptions options;
  options.run_options.share_stems = true;  // pooled SteMs across sessions
  StartServer(std::move(options));
  const SqlParams params = SqlParams().Set("min", Value::Int64(0));
  const std::vector<std::string> expected =
      Sorted(InProcessRows(kBulkSql, params));

  // Victim: submit, pull one partial batch, vanish without Close.
  {
    Client victim;
    ASSERT_TRUE(
        victim.Connect("127.0.0.1", server_->port(), "tenant_a").ok());
    auto prepared = victim.Prepare(kBulkSql);
    ASSERT_TRUE(prepared.ok());
    auto portal = victim.Bind(prepared.Value().stmt_id, params);
    ASSERT_TRUE(portal.ok());
    auto submit = victim.Submit(portal.Value());
    ASSERT_TRUE(submit.ok());
    auto fetch = victim.Fetch(submit.Value().query_id, 8);
    ASSERT_TRUE(fetch.ok());
    ASSERT_FALSE(fetch.Value().done);
    victim.Abort();  // hard disconnect mid-stream, no Close frame
  }

  // Survivor on the same pooled engine: exact results, before and after
  // the server notices the disconnect and cancels the orphan.
  Client survivor;
  ASSERT_TRUE(
      survivor.Connect("127.0.0.1", server_->port(), "tenant_b").ok());
  for (int repeat = 0; repeat < 3; ++repeat) {
    auto rows = survivor.RunQuery(kBulkSql, params);
    ASSERT_TRUE(rows.ok()) << rows.status().message();
    EXPECT_EQ(Sorted(WireRows(rows.Value())), expected)
        << "repeat " << repeat;
  }
  EXPECT_TRUE(survivor.Close().ok());

  // The victim's orphaned query was charged back to its tenant.
  const TenantRollup rollup = server_->TenantStats("tenant_a");
  EXPECT_EQ(rollup.queries_submitted, 1u);
  EXPECT_EQ(rollup.queries_cancelled, 1u);
  EXPECT_EQ(rollup.running_queries, 0u);
  EXPECT_EQ(rollup.memory_entries_in_use, 0u);
}

TEST_F(ServerTest, GracefulShutdownDrainsThenCancels) {
  ServerOptions options;
  options.shutdown_drain_ms = 300;
  StartServer(std::move(options));

  // One query is left admitted but never fully fetched: it can never
  // drain, so Shutdown must hold the door for ~drain_ms, then cancel it.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), "tenant_a").ok());
  auto prepared = client.Prepare(kBulkSql);
  ASSERT_TRUE(prepared.ok());
  auto portal = client.Bind(prepared.Value().stmt_id,
                            SqlParams().Set("min", Value::Int64(0)));
  ASSERT_TRUE(portal.ok());
  auto submit = client.Submit(portal.Value());
  ASSERT_TRUE(submit.ok());
  auto fetch = client.Fetch(submit.Value().query_id, 4);
  ASSERT_TRUE(fetch.ok());
  ASSERT_FALSE(fetch.Value().done);

  const auto t0 = std::chrono::steady_clock::now();
  server_->Shutdown();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_GE(elapsed, 250);   // the drain window was honored...
  EXPECT_LT(elapsed, 5000);  // ...and the remainder was cancelled, not hung
  EXPECT_FALSE(server_->running());
  const TenantRollup rollup = server_->TenantStats("tenant_a");
  EXPECT_EQ(rollup.queries_cancelled, 1u);
  EXPECT_EQ(rollup.running_queries, 0u);

  // The engine survived its server: direct in-process use still works.
  auto direct = engine_.Query("SELECT u.id FROM users u");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct.Value().cursor().Drain().size(), 4u);
}

TEST_F(ServerTest, ShutdownIsImmediateWhenDrained) {
  ServerOptions options;
  options.shutdown_drain_ms = 10000;  // never waited on when idle
  StartServer(std::move(options));
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), "tenant_a").ok());
  ASSERT_TRUE(client.RunQuery("SELECT u.id FROM users u").ok());
  const auto t0 = std::chrono::steady_clock::now();
  server_->Shutdown();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(elapsed, 2000);
}

TEST_F(ServerTest, IdleServerStaysParkedOnTheQueueCv) {
  // Regression: the engine loop used to poll the request queue on a flat
  // 20ms timeout even with nothing running — ~50 wakeups/sec of pure idle
  // burn. Idle must mean the long cv-wait cadence (a handful of wakeups
  // per second at most); queued submits and shutdown still get the fast
  // 20ms tick because only *time* can unblock them.
  StartServer();
  // One connect/query round-trip to prove we measure post-activity idle,
  // not just never-started.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), "tenant_a").ok());
  ASSERT_TRUE(client.RunQuery("SELECT u.id FROM users u").ok());
  ASSERT_TRUE(client.Close().ok());

  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // settle
  const uint64_t before = server_->engine_ticks();
  rusage ru_before{};
  getrusage(RUSAGE_SELF, &ru_before);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  const uint64_t idle_ticks = server_->engine_ticks() - before;
  rusage ru_after{};
  getrusage(RUSAGE_SELF, &ru_after);

  // 600ms on a 250ms cv-wait is ~3 wakeups; the old 20ms tick was ~30.
  // Allow jitter headroom but stay far below the polling cadence.
  EXPECT_LE(idle_ticks, 8u) << "engine loop is busy-ticking while idle";
  const auto cpu_us = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000 + tv.tv_usec;
  };
  const int64_t burned_us =
      (cpu_us(ru_after.ru_utime) - cpu_us(ru_before.ru_utime)) +
      (cpu_us(ru_after.ru_stime) - cpu_us(ru_before.ru_stime));
  // ~0 CPU over 600ms of wall idle. 100ms is an order of magnitude of
  // headroom for sanitizer builds and the test thread's own bookkeeping.
  EXPECT_LT(burned_us, 100000) << "idle server burned " << burned_us
                               << "us CPU over a 600ms window";
}

TEST_F(ServerTest, ThreadedPresetMatchesInProcess) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), "tenant_a").ok());
  auto rows = client.RunQuery(kBulkSql,
                              SqlParams().Set("min", Value::Int64(0)),
                              "threaded");
  ASSERT_TRUE(rows.ok()) << rows.status().message();
  EXPECT_EQ(Sorted(WireRows(rows.Value())),
            Sorted(InProcessRows(kBulkSql,
                                 SqlParams().Set("min", Value::Int64(0)))));
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerTest, CancelStopsAStreamingQuery) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), "tenant_a").ok());
  auto prepared = client.Prepare(kBulkSql);
  ASSERT_TRUE(prepared.ok());
  auto portal = client.Bind(prepared.Value().stmt_id,
                            SqlParams().Set("min", Value::Int64(0)));
  ASSERT_TRUE(portal.ok());
  auto submit = client.Submit(portal.Value());
  ASSERT_TRUE(submit.ok());
  auto fetch = client.Fetch(submit.Value().query_id, 4);
  ASSERT_TRUE(fetch.ok());
  ASSERT_TRUE(client.Cancel(submit.Value().query_id).ok());
  // The query id is gone after cancellation.
  EXPECT_FALSE(client.Fetch(submit.Value().query_id).ok());
  EXPECT_EQ(client.last_error().code, StatusCode::kNotFound);
  const TenantRollup rollup = server_->TenantStats("tenant_a");
  EXPECT_EQ(rollup.queries_cancelled, 1u);
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerTest, SimQueryCompletesWhileAThreadedQueryStreams) {
  // fan_l ⋈ fan_r: 20,000 rows, far more than a threaded query's result
  // channel holds, so the run cannot finish while its reader holds back.
  for (const std::string name : {"fan_l", "fan_r"}) {
    std::vector<std::vector<int64_t>> rows;
    for (int64_t i = 0; i < 200; ++i) rows.push_back({i % 2, i});
    TableDef def{name, IntSchema({"k", "id"}), {ScanSpec(name + ".scan")}};
    ASSERT_TRUE(engine_.AddTable(std::move(def), IntRows(rows)).ok());
  }
  StartServer();

  Client streaming;
  ASSERT_TRUE(streaming.Connect("127.0.0.1", server_->port(), "tenant_a").ok());
  auto prepared = streaming.Prepare(
      "SELECT fan_l.id, fan_r.id FROM fan_l, fan_r WHERE fan_l.k = fan_r.k");
  ASSERT_TRUE(prepared.ok()) << prepared.status().message();
  auto portal = streaming.Bind(prepared.Value().stmt_id);
  ASSERT_TRUE(portal.ok());
  auto submit = streaming.Submit(portal.Value(), "threaded");
  ASSERT_TRUE(submit.ok()) << submit.status().message();
  const uint64_t query_id = submit.Value().query_id;
  // The first Fetch parks on the engine thread until a worker flushes.
  auto first = streaming.Fetch(query_id, 1);
  ASSERT_TRUE(first.ok()) << first.status().message();
  ASSERT_EQ(first.Value().rows.size(), 1u);
  EXPECT_FALSE(first.Value().done);

  // Another session's sim query is served while the threaded one runs:
  // the engine thread never waits on the workers.
  Client sim;
  ASSERT_TRUE(sim.Connect("127.0.0.1", server_->port(), "tenant_b").ok());
  auto rows = sim.RunQuery(kJoinSql, SqlParams().Set("min", Value::Int64(30)));
  ASSERT_TRUE(rows.ok()) << rows.status().message();
  EXPECT_EQ(Sorted(WireRows(rows.Value())),
            Sorted(InProcessRows(kJoinSql,
                                 SqlParams().Set("min", Value::Int64(30)))));
  EXPECT_EQ(server_->TenantStats("tenant_a").running_queries, 1u)
      << "the threaded query finished before its reader drained it";
  EXPECT_TRUE(sim.Close().ok());

  // Every later page is full until the last: a Fetch is answered when its
  // rows are there, never with a partial page.
  size_t total = first.Value().rows.size();
  size_t fetches = 0;
  while (true) {
    auto page = streaming.Fetch(query_id, 4096);
    ASSERT_TRUE(page.ok()) << page.status().message();
    ++fetches;
    total += page.Value().rows.size();
    if (page.Value().done) break;
    EXPECT_EQ(page.Value().rows.size(), 4096u);
  }
  EXPECT_EQ(total, 20000u);
  EXPECT_LE(fetches, 20000u / 4096 + 2);
  EXPECT_TRUE(streaming.Close().ok());
}

}  // namespace
}  // namespace stems::server
