#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/string_util.h"

namespace mlake::server {

namespace {

using Clock = std::chrono::steady_clock;

/// Largest response body a client accepts (a whole-lake export fits).
constexpr size_t kMaxResponseBytes = size_t{256} << 20;

}  // namespace

HttpClient::HttpClient(std::string host, int port)
    : host_(std::move(host)), port_(port) {}

HttpClient::~HttpClient() { Close(); }

void HttpClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reused_ = false;
}

Status HttpClient::Connect() {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host address: " + host_);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st =
        Status::Unavailable(std::string("connect: ") + std::strerror(errno));
    Close();
    return st;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  reused_ = false;
  return Status::OK();
}

Result<HttpResponse> HttpClient::Get(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& headers,
    int timeout_ms) {
  // GETs don't mutate; the keep-alive-race retry is always safe.
  return RoundTrip("GET", path, "", headers, timeout_ms,
                   /*idempotent=*/true);
}

Result<HttpResponse> HttpClient::Post(
    const std::string& path, const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers,
    int timeout_ms, bool idempotent) {
  return RoundTrip("POST", path, body, headers, timeout_ms, idempotent);
}

Result<HttpResponse> HttpClient::RoundTrip(
    const std::string& method, const std::string& path,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers,
    int timeout_ms, bool idempotent) {
  if (timeout_ms <= 0) timeout_ms = timeout_ms_;
  auto start = Clock::now();
  std::string wire = SerializeHttpRequest(method, path, body, headers);

  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ < 0) MLAKE_RETURN_NOT_OK(Connect());
    // Only a reused connection may have been closed under us; a request
    // that dies on a fresh connection is a real error. And even on a
    // reused connection, a non-idempotent POST is never resent — the
    // server may have applied the half-delivered request before the
    // connection died, and a silent resend would double-apply it.
    // Mutating callers carry an idempotency key / sequence and retry at
    // their own layer instead.
    bool may_retry = reused_ && attempt == 0 && idempotent;

    bool sent = WriteAll(fd_, wire);
    // Each read is fed to one reader that keeps its place, so the head
    // is parsed once and every chunk of a streamed body decoded once.
    HttpResponseReader reader(kMaxResponseBytes);
    bool got_bytes = false;
    bool dead = !sent;
    while (!dead) {
      auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                         Clock::now() - start)
                         .count();
      if (elapsed >= timeout_ms) {
        Close();
        return Status::DeadlineExceeded("no response within " +
                                        std::to_string(timeout_ms) + " ms");
      }
      pollfd pfd{fd_, POLLIN, 0};
      int ready =
          ::poll(&pfd, 1, static_cast<int>(timeout_ms - elapsed));
      if (ready < 0 && errno != EINTR) {
        dead = true;
        break;
      }
      if (ready <= 0) continue;
      char chunk[16384];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) {
        dead = true;
        break;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        dead = true;
        break;
      }
      got_bytes = true;
      auto done = reader.Feed(std::string_view(chunk, static_cast<size_t>(n)));
      if (!done.ok()) {
        Close();  // the framing is lost: the connection cannot be reused
        return done.status();
      }
      if (done.ValueUnsafe()) {
        reused_ = true;
        if (EqualsIgnoreCase(reader.response().Header("connection"),
                             "close")) {
          Close();
        }
        return std::move(reader.response());
      }
    }
    Close();
    if (got_bytes) {
      return Status::Unavailable("connection closed mid-response");
    }
    if (!may_retry) {
      return Status::Unavailable("connection closed before response");
    }
    // Stale keep-alive connection: reconnect and resend once.
  }
  return Status::Internal("unreachable");
}

HttpClientPool::HttpClientPool(size_t max_idle_per_endpoint)
    : max_idle_(max_idle_per_endpoint == 0 ? 1 : max_idle_per_endpoint) {}

HttpClientPool::Lease& HttpClientPool::Lease::operator=(
    Lease&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    key_ = std::move(other.key_);
    client_ = std::move(other.client_);
    other.pool_ = nullptr;
    other.client_.reset();
  }
  return *this;
}

void HttpClientPool::Lease::Discard() {
  client_.reset();
  pool_ = nullptr;
}

void HttpClientPool::Lease::Release() {
  if (pool_ != nullptr && client_ != nullptr) {
    pool_->Return(key_, std::move(client_));
  }
  pool_ = nullptr;
  client_.reset();
}

HttpClientPool::Lease HttpClientPool::Acquire(const std::string& host,
                                              int port) {
  std::string key = host + ":" + std::to_string(port);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = idle_.find(key);
    if (it != idle_.end() && !it->second.empty()) {
      std::unique_ptr<HttpClient> client = std::move(it->second.back());
      it->second.pop_back();
      return Lease(this, std::move(key), std::move(client));
    }
  }
  return Lease(this, std::move(key),
               std::make_unique<HttpClient>(host, port));
}

size_t HttpClientPool::IdleCount(const std::string& host, int port) const {
  std::string key = host + ":" + std::to_string(port);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = idle_.find(key);
  return it == idle_.end() ? 0 : it->second.size();
}

void HttpClientPool::Return(const std::string& key,
                            std::unique_ptr<HttpClient> client) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& list = idle_[key];
  if (list.size() >= max_idle_) return;  // excess: drop, socket closes
  list.push_back(std::move(client));
}

}  // namespace mlake::server
