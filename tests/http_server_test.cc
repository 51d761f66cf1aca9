// The shared HTTP transport: route-table matching, admission-exempt
// routes, deadlines, and the read/write bounds that keep one slow or
// stalled peer from holding a worker. Fake handler sets stand in for
// mlaked and the router wherever the behavior under test is the
// transport's own; the trickle case drives a real LakeServer.

#include "server/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "common/file_util.h"
#include "server/client.h"
#include "server/server.h"

namespace mlake::server {
namespace {

using Clock = std::chrono::steady_clock;

int64_t MsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start)
      .count();
}

/// A raw loopback socket, for peers HttpClient cannot imitate (trickling
/// a request, never reading a response).
int ConnectRaw(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// True once the server has closed `fd` (EOF or reset). Data the server
/// sent before closing is drained and ignored.
bool PeerClosed(int fd) {
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) return true;
    if (n < 0) return errno != EAGAIN && errno != EWOULDBLOCK;
  }
}

HttpResponse Text(std::string body) {
  HttpResponse response;
  response.content_type = "text/plain";
  response.body = std::move(body);
  return response;
}

TEST(HttpServerTest, RouteTableMatchesInOrderWithOneCapture) {
  HttpServer server(HttpServerOptions{});
  server.Route("GET", "/items/{id}/tags",
               [](RequestContext& c) { return Text("tags:" + c.id); });
  server.Route("GET", "/items/{id}",
               [](RequestContext& c) { return Text("item:" + c.id); });
  server.Route("GET", "/items", [](RequestContext&) { return Text("list"); });
  server.Route("POST", "/items", [](RequestContext& c) {
    c.label += ":create";
    return Text("created");
  });
  ASSERT_TRUE(server.Start().ok());
  HttpClient client("127.0.0.1", server.port());

  auto body_of = [&](const std::string& path) {
    auto response = client.Get(path);
    EXPECT_TRUE(response.ok());
    return response.ok() ? response.ValueUnsafe().body : std::string();
  };
  EXPECT_EQ(body_of("/items"), "list");
  EXPECT_EQ(body_of("/items/a7"), "item:a7");
  EXPECT_EQ(body_of("/items/a7/tags"), "tags:a7");
  // A capture followed by a suffix needs at least one character; the
  // bare capture route then takes the rest of the path.
  EXPECT_EQ(body_of("/items//tags"), "item:/tags");
  EXPECT_EQ(body_of("/items/a/b"), "item:a/b");
  auto created = client.Post("/items", "{}");
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created.ValueUnsafe().body, "created");

  auto missing = client.Get("/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.ValueUnsafe().status, 404);
  auto wrong_method = client.Post("/items/a7", "{}");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method.ValueUnsafe().status, 404);

  // Labels are "<METHOD> <pattern>", refinable by the handler. Read
  // after Stop(): a request is recorded once its response is written.
  ASSERT_TRUE(server.Stop().ok());
  auto snapshot = server.metrics().Snapshot();
  EXPECT_EQ(snapshot["GET /items/{id}"].requests, 3u);
  EXPECT_EQ(snapshot["GET /items/{id}/tags"].requests, 1u);
  EXPECT_EQ(snapshot["GET /items"].requests, 1u);
  EXPECT_EQ(snapshot["POST /items:create"].requests, 1u);
  EXPECT_EQ(snapshot["(unmatched)"].requests, 2u);
}

TEST(HttpServerTest, DeadlinesApplyExceptOnExemptRoutes) {
  HttpServer server(HttpServerOptions{});
  server.Route("GET", "/live", [](RequestContext&) { return Text("ok"); },
               /*admission_exempt=*/true);
  server.Route("GET", "/slow", [](RequestContext& c) {
    EXPECT_TRUE(c.has_deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    return Text("late");
  });
  ASSERT_TRUE(server.Start().ok());
  HttpClient client("127.0.0.1", server.port());

  auto malformed = client.Get("/slow", {{"X-Mlake-Deadline-Ms", "soon"}});
  ASSERT_TRUE(malformed.ok());
  EXPECT_EQ(malformed.ValueUnsafe().status, 400);
  // The handler finished, but after its deadline: a late success is 504.
  auto late = client.Get("/slow", {{"X-Mlake-Deadline-Ms", "20"}});
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late.ValueUnsafe().status, 504);
  // Exempt routes never parse the header.
  auto live = client.Get("/live", {{"X-Mlake-Deadline-Ms", "soon"}});
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.ValueUnsafe().status, 200);
  ASSERT_TRUE(server.Stop().ok());
}

TEST(HttpServerTest, StalledReaderFreesWorkerAndStopReturnsPromptly) {
  // A client that requests an endless stream and never reads: once the
  // socket buffers fill, send() blocks. SO_SNDTIMEO must fail it so the
  // worker (the only one) and whatever the streamer pins are released.
  HttpServerOptions options;
  options.threads = 1;
  options.keep_alive_timeout_ms = 300;
  options.drain_deadline_ms = 10000;
  HttpServer server(options);
  auto released = std::make_shared<std::atomic<bool>>(false);
  auto streams = std::make_shared<std::atomic<int>>(0);
  server.Route("GET", "/stream", [released, streams](RequestContext&) {
    streams->fetch_add(1);
    // Stands in for the export's snapshot pin: alive exactly as long as
    // the streamer is.
    struct Pin {
      std::shared_ptr<std::atomic<bool>> released;
      ~Pin() { released->store(true); }
    };
    auto pin = std::make_shared<Pin>();
    pin->released = released;
    HttpResponse response;
    response.streamer = [pin](std::string* chunk) {
      chunk->assign(1u << 20, 'x');
      return true;
    };
    return response;
  });
  server.Route("GET", "/ping", [](RequestContext&) { return Text("pong"); });
  ASSERT_TRUE(server.Start().ok());

  auto open_stalled_stream = [&] {
    int fd = ConnectRaw(server.port());
    EXPECT_GE(fd, 0);
    std::string request = "GET /stream HTTP/1.1\r\nHost: t\r\n\r\n";
    EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    return fd;
  };
  int fd = open_stalled_stream();
  auto start = Clock::now();
  while (!released->load() && MsSince(start) < 5000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(released->load()) << "streamer still pinned after 5 s";

  {
    // The lone worker is free again.
    HttpClient client("127.0.0.1", server.port());
    client.set_timeout_ms(3000);
    auto pong = client.Get("/ping", {{"Connection", "close"}});
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_EQ(pong.ValueUnsafe().body, "pong");
  }
  ::close(fd);

  // Stop() with a stalled stream in flight waits out the write bound,
  // not the 10 s drain deadline.
  released->store(false);
  fd = open_stalled_stream();
  start = Clock::now();
  while (streams->load() < 2 && MsSince(start) < 5000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(streams->load(), 2);
  auto stop_begun = Clock::now();
  ASSERT_TRUE(server.Stop().ok());
  EXPECT_LT(MsSince(stop_begun), 2000);
  EXPECT_TRUE(released->load());
  ::close(fd);
}

TEST(HttpServerTest, TrickleClientIsCutOffAndNextClientServed) {
  // One worker, and a client that sends its request one byte every
  // 50 ms: the started request must arrive whole within
  // keep_alive_timeout_ms of its first byte, or the connection closes.
  std::string dir = MakeTempDir("mlake-trickle").ValueOrDie();
  core::LakeOptions lake_options;
  lake_options.root = dir;
  lake_options.input_dim = 16;
  lake_options.num_classes = 4;
  auto lake = core::ModelLake::Open(lake_options).MoveValueUnsafe();
  ServerOptions options;
  options.threads = 1;
  options.keep_alive_timeout_ms = 300;
  LakeServer server(lake.get(), options);
  ASSERT_TRUE(server.Start().ok());

  int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  const std::string request =
      "GET /healthz HTTP/1.1\r\nHost: trickle\r\n"
      "X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n\r\n";
  auto start = Clock::now();
  bool closed = false;
  for (size_t i = 0; i < request.size() && !closed && MsSince(start) < 2000;
       ++i) {
    if (::send(fd, &request[i], 1, MSG_NOSIGNAL) != 1) {
      closed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    closed = PeerClosed(fd);
  }
  int64_t closed_after_ms = MsSince(start);
  EXPECT_TRUE(closed) << "trickling connection still open after "
                      << closed_after_ms << " ms";
  EXPECT_LT(closed_after_ms, 2000);
  ::close(fd);

  HttpClient client("127.0.0.1", server.port());
  client.set_timeout_ms(3000);
  auto response = client.Get("/healthz");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.ValueUnsafe().status, 200);

  ASSERT_TRUE(server.Stop().ok());
  lake.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

}  // namespace
}  // namespace mlake::server
