#include "server/http.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "common/json.h"
#include "core/model_lake.h"
#include "server/client.h"
#include "server/server.h"

namespace mlake::server {
namespace {

TEST(HttpParseTest, SimpleGet) {
  std::string wire =
      "GET /v1/models?k=5&q=legal%20sum HTTP/1.1\r\n"
      "Host: x\r\n"
      "X-Mlake-Deadline-Ms: 250\r\n"
      "\r\n";
  HttpRequest req;
  auto parsed = ParseHttpRequest(wire, 1 << 20, &req);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.ValueUnsafe(), wire.size());
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/v1/models");
  EXPECT_EQ(req.QueryParam("k"), "5");
  EXPECT_EQ(req.QueryParam("q"), "legal sum");
  EXPECT_EQ(req.QueryParam("absent", "fallback"), "fallback");
  EXPECT_EQ(req.Header("x-mlake-deadline-ms"), "250");
  EXPECT_EQ(req.Header("X-Mlake-Deadline-Ms"), "250");  // case-insensitive
  EXPECT_TRUE(req.KeepAlive());
  EXPECT_TRUE(req.body.empty());
}

TEST(HttpParseTest, PostBodyAndPipelining) {
  std::string one =
      "POST /v1/search HTTP/1.1\r\n"
      "Content-Length: 9\r\n"
      "Connection: close\r\n"
      "\r\n"
      "{\"k\": 3}\n";
  std::string wire = one + "GET /healthz HTTP/1.1\r\n\r\n";
  HttpRequest req;
  auto parsed = ParseHttpRequest(wire, 1 << 20, &req);
  ASSERT_TRUE(parsed.ok());
  // Only the first request is consumed; the next one stays buffered.
  EXPECT_EQ(parsed.ValueUnsafe(), one.size());
  EXPECT_EQ(req.body, "{\"k\": 3}\n");
  EXPECT_FALSE(req.KeepAlive());
}

TEST(HttpParseTest, IncompleteReturnsZero) {
  HttpRequest req;
  // Truncated at every boundary: mid-request-line, mid-headers, mid-body.
  EXPECT_EQ(ParseHttpRequest("GET /x HT", 1024, &req).ValueOrDie(), 0u);
  EXPECT_EQ(ParseHttpRequest("GET /x HTTP/1.1\r\nHost: a\r\n", 1024, &req)
                .ValueOrDie(),
            0u);
  EXPECT_EQ(ParseHttpRequest(
                "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", 1024,
                &req)
                .ValueOrDie(),
            0u);
}

TEST(HttpParseTest, MalformedAndOversized) {
  HttpRequest req;
  EXPECT_TRUE(ParseHttpRequest("NONSENSE\r\n\r\n", 1024, &req)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseHttpRequest("GET /x SPDY/3\r\n\r\n", 1024, &req)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      ParseHttpRequest("GET /x HTTP/1.1\r\nbad header line\r\n\r\n", 1024,
                       &req)
          .status()
          .IsInvalidArgument());
  // Chunked encoding is not spoken.
  EXPECT_TRUE(ParseHttpRequest(
                  "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                  1024, &req)
                  .status()
                  .IsUnimplemented());
  // Body above the budget is ResourceExhausted (-> 429/413 family).
  EXPECT_TRUE(ParseHttpRequest(
                  "POST /x HTTP/1.1\r\nContent-Length: 2048\r\n\r\n", 1024,
                  &req)
                  .status()
                  .IsResourceExhausted());
}

TEST(HttpParseTest, ResponseRoundTrip) {
  HttpResponse response;
  response.status = 429;
  response.body = "{\"error\":{}}";
  response.headers.emplace_back("Retry-After", "1");
  std::string wire = SerializeHttpResponse(response, /*keep_alive=*/false);

  HttpResponse parsed;
  auto consumed = ParseHttpResponse(wire, 1 << 20, &parsed);
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(consumed.ValueUnsafe(), wire.size());
  EXPECT_EQ(parsed.status, 429);
  EXPECT_EQ(parsed.body, response.body);
  EXPECT_EQ(parsed.Header("retry-after"), "1");
  EXPECT_EQ(parsed.Header("connection"), "close");
}

TEST(HttpParseTest, RequestSerializeParseRoundTrip) {
  std::string wire = SerializeHttpRequest("POST", "/v1/search", "{\"k\":1}",
                                          {{"X-Mlake-Deadline-Ms", "50"}});
  HttpRequest req;
  auto consumed = ParseHttpRequest(wire, 1 << 20, &req);
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(consumed.ValueUnsafe(), wire.size());
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.path, "/v1/search");
  EXPECT_EQ(req.body, "{\"k\":1}");
  EXPECT_EQ(req.Header("x-mlake-deadline-ms"), "50");
}

// ---- Incremental response reader ---------------------------------------

/// A chunked response: `body` cut into chunks of the sizes in `cuts`
/// (cycled), with a chunk extension on every other size line and a
/// trailer after the zero chunk.
std::string ChunkedWire(const std::string& body,
                        const std::vector<size_t>& cuts) {
  std::string wire =
      "HTTP/1.1 200 OK\r\n"
      "Content-Type: application/x-ndjson\r\n"
      "Transfer-Encoding: chunked\r\n"
      "\r\n";
  size_t at = 0;
  for (size_t i = 0; at < body.size(); ++i) {
    size_t n = std::min(cuts[i % cuts.size()], body.size() - at);
    char size_line[32];
    std::snprintf(size_line, sizeof(size_line), i % 2 == 0 ? "%zx" : "%zX;ext=%zu",
                  n, i);
    wire += size_line;
    wire += "\r\n";
    wire.append(body, at, n);
    wire += "\r\n";
    at += n;
  }
  wire += "0\r\nX-Trailer: yes\r\n\r\n";
  return wire;
}

std::string PatternBody(size_t size) {
  std::string body;
  body.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    body.push_back(i % 61 == 60 ? '\n' : static_cast<char>('a' + i % 26));
  }
  return body;
}

/// Feeds `wire` to a fresh reader in pieces cut at `splits`.
Result<bool> FeedInPieces(std::string_view wire,
                          const std::vector<size_t>& splits,
                          HttpResponseReader* reader) {
  size_t at = 0;
  for (size_t split : splits) {
    auto fed = reader->Feed(wire.substr(at, split - at));
    if (!fed.ok()) return fed;
    at = split;
  }
  return reader->Feed(wire.substr(at));
}

TEST(HttpResponseReaderTest, EverySplitMatchesOneShotParse) {
  const std::string body = PatternBody(700);
  // Bytes after the response (a pipelined next message) stay unconsumed.
  const std::string chunked = ChunkedWire(body, {1, 2, 200, 13, 64});
  HttpResponse one_shot;
  auto consumed = ParseHttpResponse(chunked + "HTTP/1.1", 1 << 20, &one_shot);
  ASSERT_TRUE(consumed.ok()) << consumed.status().ToString();
  ASSERT_EQ(consumed.ValueUnsafe(), chunked.size());
  EXPECT_EQ(one_shot.body, body);
  EXPECT_EQ(one_shot.content_type, "application/x-ndjson");

  HttpResponse sized;
  sized.body = body;
  const std::string with_length = SerializeHttpResponse(sized, true);

  for (const std::string& wire : {chunked, with_length}) {
    const std::string stream = wire + "HTTP/1.1";
    for (size_t split = 0; split <= stream.size(); ++split) {
      HttpResponseReader reader(1 << 20);
      auto done = FeedInPieces(stream, {split}, &reader);
      ASSERT_TRUE(done.ok()) << split << ": " << done.status().ToString();
      ASSERT_TRUE(done.ValueUnsafe()) << split;
      EXPECT_EQ(reader.response().status, 200);
      EXPECT_EQ(reader.response().body, body) << split;
      EXPECT_EQ(reader.consumed(), wire.size()) << split;
    }
    // And one byte at a time: done exactly at the final byte.
    HttpResponseReader reader(1 << 20);
    for (size_t i = 0; i < wire.size(); ++i) {
      auto done = reader.Feed(std::string_view(wire).substr(i, 1));
      ASSERT_TRUE(done.ok()) << i << ": " << done.status().ToString();
      ASSERT_EQ(done.ValueUnsafe(), i + 1 == wire.size()) << i;
    }
    EXPECT_EQ(reader.response().body, body);
    EXPECT_EQ(reader.consumed(), wire.size());
  }
}

TEST(HttpResponseReaderTest, MalformedFramingFailsAtAnySplit) {
  const std::string head =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
  const std::string bad[] = {
      head + "zz\r\nab\r\n0\r\n\r\n",                  // not hex
      head + "\r\nab\r\n0\r\n\r\n",                    // empty size
      head + " ;ext\r\nab\r\n0\r\n\r\n",               // blank before ext
      head + "12345678901234567\r\nab\r\n0\r\n\r\n",   // 17 digits
      head + "2\r\nabXY0\r\n\r\n",                     // data not CRLF-ended
      head + "2\r\nab\r\n3\r\nabc\n\r0\r\n\r\n",        // LF CR after data
  };
  for (const std::string& wire : bad) {
    HttpResponse parsed;
    auto one_shot = ParseHttpResponse(wire, 1 << 20, &parsed);
    EXPECT_TRUE(one_shot.status().IsInvalidArgument())
        << wire << " -> " << one_shot.status().ToString();
    for (size_t split = 0; split <= wire.size(); ++split) {
      HttpResponseReader reader(1 << 20);
      auto done = FeedInPieces(wire, {split}, &reader);
      EXPECT_TRUE(done.status().IsInvalidArgument())
          << split << ": " << done.status().ToString();
    }
  }
  // A status line that is not HTTP, and a head with no end in sight.
  HttpResponse parsed;
  EXPECT_TRUE(ParseHttpResponse("SPDY/3 200\r\n\r\n", 1024, &parsed)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseHttpResponse("HTTP/1.1 " + std::string(70000, 'x'), 1024,
                                &parsed)
                  .status()
                  .IsInvalidArgument());
  // Any other transfer coding is not spoken.
  EXPECT_TRUE(ParseHttpResponse(
                  "HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n", 1024,
                  &parsed)
                  .status()
                  .IsUnimplemented());
}

TEST(HttpResponseReaderTest, OversizedBodyIsResourceExhausted) {
  const std::string body = PatternBody(5000);
  HttpResponse sized;
  sized.body = body;
  for (const std::string& wire :
       {ChunkedWire(body, {1000}), SerializeHttpResponse(sized, true)}) {
    HttpResponse parsed;
    EXPECT_TRUE(ParseHttpResponse(wire, 4999, &parsed)
                    .status()
                    .IsResourceExhausted());
    EXPECT_TRUE(ParseHttpResponse(wire, 5000, &parsed).ok());
    HttpResponseReader reader(4999);
    Status failed;
    for (size_t i = 0; i < wire.size() && failed.ok(); i += 7) {
      failed = reader.Feed(std::string_view(wire).substr(i, 7)).status();
    }
    EXPECT_TRUE(failed.IsResourceExhausted()) << failed.ToString();
  }
}

// A reader that re-decoded the body from its start on every read would
// copy ~2 TiB here and run for hours; decoding each chunk once is linear.
TEST(HttpResponseReaderTest, TwoMiBFedOneByteAtATimeIsLinear) {
  const std::string body = PatternBody(size_t{2} << 20);
  const std::string wire = ChunkedWire(body, {65536, 3, 4096, 1, 777});
  auto start = std::chrono::steady_clock::now();
  HttpResponseReader reader(size_t{4} << 20);
  bool done = false;
  for (size_t i = 0; i < wire.size(); ++i) {
    auto fed = reader.Feed(std::string_view(wire).substr(i, 1));
    ASSERT_TRUE(fed.ok()) << i << ": " << fed.status().ToString();
    done = fed.ValueUnsafe();
  }
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ASSERT_TRUE(done);
  EXPECT_TRUE(reader.response().body == body);
  EXPECT_EQ(reader.consumed(), wire.size());
  EXPECT_LT(seconds, 60.0);
}

TEST(HttpStatusMapTest, CanonicalTable) {
  EXPECT_EQ(HttpStatusForStatus(Status::OK()), 200);
  EXPECT_EQ(HttpStatusForStatus(Status::InvalidArgument("x")), 400);
  EXPECT_EQ(HttpStatusForStatus(Status::OutOfRange("x")), 400);
  EXPECT_EQ(HttpStatusForStatus(Status::NotFound("x")), 404);
  EXPECT_EQ(HttpStatusForStatus(Status::AlreadyExists("x")), 409);
  EXPECT_EQ(HttpStatusForStatus(Status::FailedPrecondition("x")), 409);
  EXPECT_EQ(HttpStatusForStatus(Status::ResourceExhausted("x")), 429);
  EXPECT_EQ(HttpStatusForStatus(Status::IOError("x")), 500);
  EXPECT_EQ(HttpStatusForStatus(Status::Corruption("x")), 500);
  EXPECT_EQ(HttpStatusForStatus(Status::Internal("x")), 500);
  EXPECT_EQ(HttpStatusForStatus(Status::Unimplemented("x")), 501);
  EXPECT_EQ(HttpStatusForStatus(Status::Unavailable("x")), 503);
  EXPECT_EQ(HttpStatusForStatus(Status::DeadlineExceeded("x")), 504);
}

TEST(HttpStatusMapTest, ErrorResponseShape) {
  HttpResponse response = ErrorResponse(Status::NotFound("model m1"));
  EXPECT_EQ(response.status, 404);
  auto body = Json::Parse(response.body);
  ASSERT_TRUE(body.ok());
  const Json* error = body.ValueUnsafe().Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code"), "NotFound");
  EXPECT_EQ(error->GetString("message"), "model m1");

  // Overload answers carry Retry-After, per the admission contract.
  HttpResponse overloaded =
      ErrorResponse(Status::ResourceExhausted("queue full"));
  EXPECT_EQ(overloaded.status, 429);
  EXPECT_EQ(overloaded.Header("Retry-After"), "1");
}

TEST(Base64Test, RoundTripAllLengths) {
  // Exercise every padding arm, including binary bytes.
  for (size_t len = 0; len <= 9; ++len) {
    std::string bytes;
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>((i * 77 + 200) & 0xff));
    }
    std::string encoded = Base64Encode(bytes);
    EXPECT_EQ(encoded.size() % 4, 0u);
    auto decoded = Base64Decode(encoded);
    ASSERT_TRUE(decoded.ok()) << "len=" << len;
    EXPECT_EQ(decoded.ValueUnsafe(), bytes) << "len=" << len;
  }
  EXPECT_EQ(Base64Encode("Man"), "TWFu");
  EXPECT_EQ(Base64Encode("Ma"), "TWE=");
  EXPECT_EQ(Base64Encode("M"), "TQ==");
}

TEST(Base64Test, RejectsGarbage) {
  EXPECT_TRUE(Base64Decode("abc").status().IsInvalidArgument());    // length
  EXPECT_TRUE(Base64Decode("ab!d").status().IsInvalidArgument());   // charset
  EXPECT_TRUE(Base64Decode("=abc").status().IsInvalidArgument());   // padding
}

TEST(UrlDecodeTest, Decodes) {
  EXPECT_EQ(UrlDecode("a%2Fb+c%20d"), "a/b c d");
  EXPECT_EQ(UrlDecode("plain"), "plain");
  EXPECT_EQ(UrlDecode("%zz"), "%zz");  // malformed escape passes through
}

// ---- MLQL plan cache (parse once, reuse) -------------------------------

std::unique_ptr<core::ModelLake> OpenEmptyLake(const std::string& dir) {
  core::LakeOptions options;
  options.root = dir;
  options.input_dim = 8;
  options.num_classes = 2;
  return core::ModelLake::Open(options).MoveValueUnsafe();
}

// Regression test: the search handler used to re-parse the MLQL text on
// every request, including the duplicate sends a client's keep-alive-
// race retry produces. The lake's plan cache must parse a repeated
// query exactly once, even when every round trip rides a fresh
// connection after a server-side idle close.
TEST(PlanCacheTest, ParseOnceAcrossKeepAliveRetries) {
  std::string dir = MakeTempDir("mlake-plancache").ValueOrDie();
  auto lake = OpenEmptyLake(dir);

  ServerOptions options;
  options.threads = 2;
  // Time idle connections out quickly so every iteration below runs
  // the client's retry-once keep-alive-race path.
  options.keep_alive_timeout_ms = 50;
  LakeServer server(lake.get(), options);
  ASSERT_TRUE(server.Start().ok());

  HttpClient client("127.0.0.1", server.port());
  const std::string body =
      R"({"type": "mlql", "query": "FIND MODELS WHERE task = 'sum' LIMIT 3"})";
  const int kRequests = 5;
  for (int i = 0; i < kRequests; ++i) {
    // Search is read-only: opting into the idempotent keep-alive-race
    // retry is what keeps this loop running over timed-out connections.
    auto response = client.Post("/v1/search", body, {}, /*timeout_ms=*/0,
                                /*idempotent=*/true);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.ValueUnsafe().status, 200)
        << response.ValueUnsafe().body;
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
  }

  core::ModelLake::PlanCacheCounters counters = lake->PlanCacheStats();
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_GE(counters.hits, static_cast<uint64_t>(kRequests - 1));
  EXPECT_GE(counters.entries, 1u);

  // The planner block of /statsz surfaces the same counters.
  auto statsz = client.Get("/statsz");
  ASSERT_TRUE(statsz.ok());
  auto parsed = Json::Parse(statsz.ValueUnsafe().body).ValueOrDie();
  const Json* planner = parsed.Find("planner");
  ASSERT_NE(planner, nullptr);
  ASSERT_NE(planner->Find("plan_cache"), nullptr);
  EXPECT_EQ(planner->Find("plan_cache")->GetInt64("misses", -1), 1);
  EXPECT_FALSE(planner->GetString("last_plan").empty());

  ASSERT_TRUE(server.Stop().ok());
  lake.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// Formatting variants of one query normalize to the same cached parse.
TEST(PlanCacheTest, NormalizedQueryTextSharesEntry) {
  std::string dir = MakeTempDir("mlake-plannorm").ValueOrDie();
  auto lake = OpenEmptyLake(dir);
  ASSERT_TRUE(lake->Query("FIND MODELS LIMIT 3").ok());   // miss, cached
  ASSERT_TRUE(lake->Query("find models limit 3").ok());   // miss, aliases
  // The second query's canonical rendering matched the first entry's
  // alias, so a third spelling that normalizes identically now hits.
  core::ModelLake::PlanCacheCounters before = lake->PlanCacheStats();
  ASSERT_TRUE(lake->Query("FIND MODELS LIMIT 3").ok());
  core::ModelLake::PlanCacheCounters after = lake->PlanCacheStats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
  lake.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// A lake mutation moves the mutation epoch; the plan cache must drop
// its entries (conservative hygiene: parses cannot go stale, but the
// cache must never outlive an epoch unbounded).
TEST(PlanCacheTest, InvalidatedOnLakeMutation) {
  std::string dir = MakeTempDir("mlake-planinval").ValueOrDie();
  auto lake = OpenEmptyLake(dir);
  ASSERT_TRUE(lake->Query("FIND MODELS").ok());
  EXPECT_GE(lake->PlanCacheStats().entries, 1u);

  ASSERT_TRUE(lake->RegisterDataset("corpus/a", {"s1", "s2"}).ok());

  // The stale-epoch sweep runs on the next lookup: one fresh miss.
  uint64_t misses_before = lake->PlanCacheStats().misses;
  ASSERT_TRUE(lake->Query("FIND MODELS").ok());
  core::ModelLake::PlanCacheCounters counters = lake->PlanCacheStats();
  EXPECT_EQ(counters.misses, misses_before + 1);
  lake.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

}  // namespace
}  // namespace mlake::server
