#ifndef MLAKE_SERVER_HTTP_SERVER_H_
#define MLAKE_SERVER_HTTP_SERVER_H_

// The one HTTP/1.1 transport in src/: mlaked (server/server.h) and the
// cluster router (cluster/router.h) are handler sets registered on it.
// Nothing else binds, accepts, polls or reads a request.
//
// Threading model: one blocking accept thread plus a worker pool
// (common/thread_pool) running thread-per-connection keep-alive loops.
// A worker owns its connection until the client closes, the keep-alive
// bound fires, or the fairness rotation closes it
// (max_requests_per_connection, so a saturated pool cycles to queued
// connections; clients reconnect transparently).
//
// Per request, in order:
//   1. Read, bounded. The idle wait before a request and the read of a
//      started request are each bounded by keep_alive_timeout_ms (the
//      second from the request's first byte), so a client trickling
//      bytes cannot hold a worker. Accepted sockets also carry
//      SO_SNDTIMEO = keep_alive_timeout_ms, so a client that stops
//      reading mid-response frees its worker (and, for a streamed body,
//      whatever the streamer pins).
//   2. Route. The first route whose method and pattern match wins.
//      Unmatched requests answer 404 under the "(unmatched)" label.
//   3. Admission. Connections beyond max_queue waiting for a worker are
//      answered 429 by the accept thread; requests beyond max_inflight
//      executing handlers are answered 429 (ResourceExhausted). Routes
//      marked admission-exempt (liveness, heartbeat) skip this step and
//      the next.
//   4. Deadline. X-Mlake-Deadline-Ms (or default_deadline_ms) is checked
//      before the handler and again after it: a late success is a 504.
//      A malformed header is a 400.
//   5. Write, then record latency under the route's metrics label. A
//      streaming response (HttpResponse::streamer) goes out chunked.
//
// Graceful shutdown: Stop() flips the drain flag, closes the listener,
// serves request bytes already sitting in kernel buffers (grace probe),
// answers connections accepted but never picked up with 503, waits for
// in-flight requests up to drain_deadline_ms, then force-closes the
// rest.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "server/http.h"
#include "server/metrics.h"

namespace mlake::server {

struct HttpServerOptions {
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (see HttpServer::port()).
  int port = 0;
  /// Worker pool size — the maximum number of concurrently served
  /// connections (thread-per-connection).
  int threads = 8;
  /// Maximum concurrently executing requests; the excess is rejected
  /// with 429 + Retry-After (ResourceExhausted).
  int max_inflight = 64;
  /// Maximum connections accepted but not yet picked up by a worker;
  /// beyond it the accept thread answers 429 directly and closes.
  int max_queue = 128;
  /// A keep-alive connection is closed after this many requests so a
  /// saturated pool rotates to queued connections (fairness; clients
  /// reconnect transparently). 0 = unlimited.
  int max_requests_per_connection = 1000;
  /// Bounds the idle wait before a request, the read of one request
  /// from its first byte, and each blocked socket write. Reaching any
  /// of them closes the connection, freeing its worker.
  int keep_alive_timeout_ms = 30000;
  /// Deadline applied when a request carries no X-Mlake-Deadline-Ms
  /// header. 0 = none.
  int default_deadline_ms = 0;
  /// How long Stop() waits for in-flight requests to finish before
  /// force-closing their connections.
  int drain_deadline_ms = 5000;
  size_t max_body_bytes = 64u << 20;
};

/// What a route handler sees of one request.
struct RequestContext {
  using Clock = std::chrono::steady_clock;

  const HttpRequest& request;
  /// The route pattern's `{...}` capture ("" for an exact route).
  std::string id;
  Clock::time_point arrival;
  /// False when neither the header nor default_deadline_ms set one (and
  /// always for admission-exempt routes).
  bool has_deadline = false;
  Clock::time_point deadline;
  /// Metrics label, "<METHOD> <pattern>"; a handler may refine it (e.g.
  /// "POST /v1/search:ann") to split one route's latency by kind.
  std::string label;

  /// True once the peer closed or Stop() severed the connection at the
  /// drain deadline — a long handler polls this to give up early. A
  /// pipelined next request is not a close.
  bool ConnectionLost() const;

  int fd = -1;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(RequestContext&)>;

  explicit HttpServer(HttpServerOptions options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Appends a route; call before Start(). `pattern` is an exact path
  /// ("/v1/export") or a path with one capture ("/v1/models/{id}/doc"):
  /// the capture matches the rest of the path when it ends the
  /// pattern, and one or more characters when a suffix follows it.
  /// Routes match in registration order, so register a suffix route
  /// before the bare capture route it would otherwise shadow.
  void Route(std::string method, std::string pattern, Handler handler,
             bool admission_exempt = false);

  /// Binds, listens and starts the accept thread + worker pool.
  Status Start();

  /// Graceful shutdown (see the file comment). Idempotent; also run by
  /// the destructor.
  Status Stop();

  /// The bound port (the actual one when options.port was 0). Valid
  /// after Start().
  int port() const { return port_; }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  int inflight() const { return inflight_.load(std::memory_order_relaxed); }

  const HttpServerOptions& options() const { return options_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// The /statsz "server" block: uptime, pool size, drain flag and the
  /// admission counters.
  Json StatsJson() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct RouteEntry {
    std::string method;
    std::string prefix;  // the whole path for an exact route
    std::string suffix;
    bool has_capture = false;
    std::string label;
    bool admission_exempt = false;
    Handler handler;
  };

  /// How one connection's read loop ended.
  enum class ReadOutcome { kRequest, kClosed, kTimeout, kDrainingIdle,
                           kMalformed };

  void AcceptLoop();
  void HandleConnection(int fd);
  ReadOutcome ReadRequest(int fd, std::string* buf, HttpRequest* request,
                          Status* parse_error);
  HttpResponse Dispatch(const HttpRequest& request, Clock::time_point arrival,
                        int fd, std::string* label);
  /// Writes the head and, for a streaming response, every chunk plus the
  /// terminator. False once the peer is gone or a write timed out.
  bool WriteResponse(int fd, HttpResponse* response, bool keep_alive);
  void ForceCloseConnections();

  HttpServerOptions options_;
  std::vector<RouteEntry> routes_;
  MetricsRegistry metrics_;

  int listen_fd_ = -1;
  int port_ = 0;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int> queued_conns_{0};
  std::atomic<int> inflight_{0};
  std::atomic<int> active_conns_{0};
  std::atomic<uint64_t> rejected_queue_{0};
  std::atomic<uint64_t> rejected_inflight_{0};
  std::atomic<uint64_t> connections_accepted_{0};

  /// Open connection fds, for force-close at the drain deadline.
  std::mutex conns_mu_;
  std::set<int> open_conns_;
  std::condition_variable drain_cv_;

  Clock::time_point start_time_;

  // Last: these threads use every member above.
  std::unique_ptr<ThreadPool> pool_;
  std::thread accept_thread_;
};

}  // namespace mlake::server

#endif  // MLAKE_SERVER_HTTP_SERVER_H_
