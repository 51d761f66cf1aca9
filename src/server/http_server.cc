#include "server/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/string_util.h"

namespace mlake::server {

namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedMs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               since)
      .count();
}

uint64_t ElapsedUs(Clock::time_point since) {
  auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - since)
                .count();
  return us < 0 ? 0 : static_cast<uint64_t>(us);
}

/// TCP_NODELAY plus the write bound: a send() blocked this long on a
/// peer that stopped reading fails with EAGAIN instead of pinning the
/// worker.
void ConfigureAccepted(int fd, int send_timeout_ms) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = send_timeout_ms / 1000;
  tv.tv_usec = (send_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

bool RequestContext::ConnectionLost() const {
  char probe;
  return ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT) == 0;
}

HttpServer::HttpServer(HttpServerOptions options)
    : options_(std::move(options)) {
  if (options_.threads <= 0) options_.threads = 8;
  if (options_.max_inflight <= 0) options_.max_inflight = 1;
  if (options_.max_queue < 0) options_.max_queue = 0;
}

HttpServer::~HttpServer() { (void)Stop(); }

void HttpServer::Route(std::string method, std::string pattern,
                       Handler handler, bool admission_exempt) {
  RouteEntry route;
  route.label = method + " " + pattern;
  route.method = std::move(method);
  size_t open = pattern.find('{');
  size_t close = pattern.find('}', open);
  if (open != std::string::npos && close != std::string::npos) {
    route.has_capture = true;
    route.prefix = pattern.substr(0, open);
    route.suffix = pattern.substr(close + 1);
  } else {
    route.prefix = std::move(pattern);
  }
  route.admission_exempt = admission_exempt;
  route.handler = std::move(handler);
  routes_.push_back(std::move(route));
}

Status HttpServer::Start() {
  if (started_.load()) return Status::FailedPrecondition("already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  Status error;
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    error = Status::InvalidArgument("bad bind address: " +
                                    options_.bind_address);
  } else if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) < 0) {
    error = Status::IOError(std::string("bind: ") + std::strerror(errno));
  } else if (::listen(listen_fd_, 128) < 0) {
    error = Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  if (!error.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return error;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }

  draining_.store(false);
  start_time_ = Clock::now();
  pool_ = std::make_unique<ThreadPool>(options_.threads);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_.store(true);
  return Status::OK();
}

Status HttpServer::Stop() {
  if (!started_.load()) return Status::OK();
  draining_.store(true);

  // Wake the accept thread out of accept() (shutdown, then close after
  // the join — closing a blocking-accept fd does not reliably wake it).
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // Drain: workers notice draining_ within one poll tick (idle
  // connections close; busy ones finish their in-flight request, send
  // Connection: close, and exit).
  auto deadline = Clock::now() +
                  std::chrono::milliseconds(options_.drain_deadline_ms);
  {
    std::unique_lock<std::mutex> lock(conns_mu_);
    drain_cv_.wait_until(lock, deadline, [this] {
      return active_conns_.load() == 0 && queued_conns_.load() == 0;
    });
  }
  if (active_conns_.load() != 0) {
    // Drain deadline expired: sever the remaining connections. Their
    // handlers observe the dead socket and unwind.
    ForceCloseConnections();
  }
  // Joins workers; still-queued connection tasks run first, see
  // draining_ and answer 503 immediately.
  pool_.reset();
  started_.store(false);
  return Status::OK();
}

void HttpServer::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (Stop) or fatal accept error
    }
    if (draining_.load()) {
      ::close(fd);
      return;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    ConfigureAccepted(fd, options_.keep_alive_timeout_ms);

    // Queue-depth admission: connections beyond what the pool will pick
    // up soon are turned away right here with the overload answer.
    if (queued_conns_.load(std::memory_order_relaxed) >= options_.max_queue) {
      rejected_queue_.fetch_add(1, std::memory_order_relaxed);
      HttpResponse response = ErrorResponse(
          Status::ResourceExhausted("server overloaded: connection queue full"));
      WriteResponse(fd, &response, /*keep_alive=*/false);
      ::close(fd);
      metrics_.Record("(admission)", response.status, 0);
      continue;
    }

    queued_conns_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      open_conns_.insert(fd);
    }
    pool_->Submit([this, fd] { HandleConnection(fd); });
  }
}

void HttpServer::ForceCloseConnections() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (int fd : open_conns_) ::shutdown(fd, SHUT_RDWR);
}

HttpServer::ReadOutcome HttpServer::ReadRequest(int fd, std::string* buf,
                                                HttpRequest* request,
                                                Status* parse_error) {
  // One bound for the idle wait, restarted once by the request's first
  // byte: a started request must arrive whole within the same bound.
  auto limit = std::chrono::milliseconds(options_.keep_alive_timeout_ms);
  auto expires = Clock::now() + limit;
  for (;;) {
    if (!buf->empty()) {
      auto parsed = ParseHttpRequest(*buf, options_.max_body_bytes, request);
      if (!parsed.ok()) {
        *parse_error = parsed.status();
        return ReadOutcome::kMalformed;
      }
      size_t consumed = parsed.ValueUnsafe();
      if (consumed > 0) {
        buf->erase(0, consumed);
        return ReadOutcome::kRequest;
      }
      // Bytes keep arriving, but too slowly: the trickle bound.
      if (Clock::now() >= expires) return ReadOutcome::kTimeout;
    }

    pollfd pfd{fd, POLLIN, 0};
    if (draining_.load() && buf->empty()) {
      // Grace probe: bytes may already sit in the kernel buffer — a
      // request we committed to by accepting it. Only close when the
      // connection is genuinely quiet.
      int ready = ::poll(&pfd, 1, 0);
      if (ready <= 0) return ReadOutcome::kDrainingIdle;
    } else {
      int64_t left = std::chrono::duration_cast<std::chrono::milliseconds>(
                         expires - Clock::now())
                         .count();
      // Short ticks so a drain that begins mid-wait is noticed promptly.
      int ready = ::poll(&pfd, 1, static_cast<int>(std::clamp<int64_t>(
                                      left, 0, 100)));
      if (ready < 0 && errno != EINTR) return ReadOutcome::kClosed;
      if (ready <= 0) {
        if (Clock::now() >= expires) return ReadOutcome::kTimeout;
        continue;
      }
    }

    char chunk[16384];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) return ReadOutcome::kClosed;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return ReadOutcome::kClosed;
    }
    if (buf->empty()) expires = Clock::now() + limit;
    buf->append(chunk, static_cast<size_t>(n));
  }
}

void HttpServer::HandleConnection(int fd) {
  queued_conns_.fetch_sub(1, std::memory_order_relaxed);
  active_conns_.fetch_add(1, std::memory_order_relaxed);

  std::string buf;
  int served = 0;
  if (draining_.load()) {
    // Accepted before the drain began but never picked up: refuse
    // cleanly instead of silently dropping the connection.
    HttpResponse response =
        ErrorResponse(Status::Unavailable("server shutting down"));
    WriteResponse(fd, &response, /*keep_alive=*/false);
  } else {
    for (;;) {
      HttpRequest request;
      Status parse_error;
      ReadOutcome outcome = ReadRequest(fd, &buf, &request, &parse_error);
      if (outcome == ReadOutcome::kMalformed) {
        HttpResponse response = ErrorResponse(parse_error);
        WriteResponse(fd, &response, /*keep_alive=*/false);
        metrics_.Record("(malformed)", response.status, 0);
        break;
      }
      if (outcome != ReadOutcome::kRequest) break;

      auto arrival = Clock::now();
      ++served;
      std::string label;
      HttpResponse response = Dispatch(request, arrival, fd, &label);
      bool keep_alive = request.KeepAlive() && !draining_.load() &&
                        (options_.max_requests_per_connection <= 0 ||
                         served < options_.max_requests_per_connection);
      bool wrote = WriteResponse(fd, &response, keep_alive);
      metrics_.Record(label, response.status, ElapsedUs(arrival));
      if (!wrote || !keep_alive) break;
    }
  }

  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    open_conns_.erase(fd);
  }
  ::close(fd);
  active_conns_.fetch_sub(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    drain_cv_.notify_all();
  }
}

bool HttpServer::WriteResponse(int fd, HttpResponse* response,
                               bool keep_alive) {
  // The head and a Content-Length body leave in one sendmsg, the body
  // straight from its own buffer.
  std::string head = SerializeHttpResponseHead(*response, keep_alive);
  if (!response->is_streaming()) return WriteAll(fd, head, response->body);
  bool wrote = WriteAll(fd, head);
  // Chunked body: pump the streamer until it runs dry, then the
  // zero-chunk terminator. A mid-stream write failure means the peer is
  // gone or stalled — the framing is now broken, so just close.
  std::string chunk;
  while (wrote && response->streamer(&chunk)) {
    size_t size = chunk.size();
    chunk += "\r\n";
    wrote = WriteAll(fd, ChunkHead(size), chunk);
    chunk.clear();
  }
  if (wrote) wrote = WriteAll(fd, FinalChunk());
  // Drop the streamer eagerly: it may pin a lake snapshot (the export's
  // shared lock), which should not outlive the response.
  response->streamer = nullptr;
  return wrote;
}

HttpResponse HttpServer::Dispatch(const HttpRequest& request,
                                  Clock::time_point arrival, int fd,
                                  std::string* label) {
  // ---- route ----------------------------------------------------------
  const std::string& path = request.path;
  const RouteEntry* route = nullptr;
  std::string id;
  for (const RouteEntry& r : routes_) {
    if (r.method != request.method) continue;
    if (!r.has_capture) {
      if (path == r.prefix) {
        route = &r;
        break;
      }
      continue;
    }
    size_t fixed = r.prefix.size() + r.suffix.size();
    if (path.size() < fixed || !StartsWith(path, r.prefix) ||
        !EndsWith(path, r.suffix)) {
      continue;
    }
    id = path.substr(r.prefix.size(), path.size() - fixed);
    if (id.empty() && !r.suffix.empty()) continue;
    route = &r;
    break;
  }
  if (route == nullptr) {
    *label = "(unmatched)";
    return ErrorResponse(
        Status::NotFound(request.method + " " + path + " has no handler"));
  }
  *label = route->label;

  RequestContext ctx{request, std::move(id), arrival,
                     /*has_deadline=*/false, /*deadline=*/{}, route->label,
                     fd};
  // Health and heartbeat are exempt from admission and deadlines (a
  // router must be able to read a saturated backend's load; a 429
  // heartbeat would blind the rebalancer exactly when it matters).
  if (route->admission_exempt) {
    HttpResponse response = route->handler(ctx);
    *label = std::move(ctx.label);
    return response;
  }

  // ---- admission ------------------------------------------------------
  int inflight = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (inflight > options_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    rejected_inflight_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(Status::ResourceExhausted(
        "server overloaded: " + std::to_string(inflight - 1) +
        " requests in flight"));
  }
  struct InflightRelease {
    std::atomic<int>* counter;
    ~InflightRelease() { counter->fetch_sub(1, std::memory_order_relaxed); }
  } release{&inflight_};

  // ---- deadline -------------------------------------------------------
  int64_t deadline_ms = options_.default_deadline_ms;
  std::string_view header = request.Header("x-mlake-deadline-ms");
  if (!header.empty()) {
    std::string digits(header);  // `end` points into it: keep it alive
    char* end = nullptr;
    long v = std::strtol(digits.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v <= 0) {
      return ErrorResponse(
          Status::InvalidArgument("malformed X-Mlake-Deadline-Ms header"));
    }
    deadline_ms = v;
  }
  ctx.has_deadline = deadline_ms > 0;
  ctx.deadline = arrival + std::chrono::milliseconds(deadline_ms);
  if (ctx.has_deadline && Clock::now() >= ctx.deadline) {
    return ErrorResponse(Status::DeadlineExceeded(
        "deadline of " + std::to_string(deadline_ms) +
        " ms expired before execution"));
  }

  // ---- handler --------------------------------------------------------
  HttpResponse response = route->handler(ctx);
  *label = std::move(ctx.label);

  // The handler itself may have spent the deadline; a late answer is a
  // missed deadline, not a success.
  if (ctx.has_deadline && response.status < 400 &&
      Clock::now() >= ctx.deadline) {
    return ErrorResponse(Status::DeadlineExceeded(
        "deadline of " + std::to_string(deadline_ms) +
        " ms expired during execution"));
  }
  return response;
}

Json HttpServer::StatsJson() const {
  Json server = Json::MakeObject();
  server.Set("uptime_ms", ElapsedMs(start_time_));
  server.Set("threads", options_.threads);
  server.Set("draining", draining_.load());
  server.Set("connections_accepted", connections_accepted_.load());
  server.Set("inflight", inflight_.load());
  server.Set("max_inflight", options_.max_inflight);
  server.Set("queued_connections", queued_conns_.load());
  server.Set("max_queue", options_.max_queue);
  server.Set("rejected_inflight", rejected_inflight_.load());
  server.Set("rejected_queue", rejected_queue_.load());
  return server;
}

}  // namespace mlake::server
