#include "cluster/router.h"

#include <algorithm>
#include <deque>
#include <map>

#include "common/hash.h"
#include "common/sharding.h"
#include "common/string_util.h"
#include "search/executor.h"
#include "search/parser.h"
#include "versioning/model_graph.h"

namespace mlake::cluster {

namespace {

using server::ErrorResponse;
using server::HttpRequest;
using server::HttpResponse;
using server::JsonResponse;
using server::RequestContext;

using Clock = std::chrono::steady_clock;

/// Milliseconds left until `deadline` (0 when already past).
int64_t RemainingMs(Clock::time_point deadline) {
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                  Clock::now())
                .count();
  return ms < 0 ? 0 : ms;
}

/// The router's transport: its eight transport fields, with admission
/// limits left at the HttpServer defaults (in-flight requests cannot
/// outnumber the worker threads anyway).
server::HttpServerOptions TransportOptions(const RouterOptions& options) {
  server::HttpServerOptions transport;
  transport.bind_address = options.bind_address;
  transport.port = options.port;
  transport.threads = options.threads;
  transport.max_requests_per_connection = options.max_requests_per_connection;
  transport.keep_alive_timeout_ms = options.keep_alive_timeout_ms;
  transport.default_deadline_ms = options.default_deadline_ms;
  transport.drain_deadline_ms = options.drain_deadline_ms;
  transport.max_body_bytes = options.max_body_bytes;
  return transport;
}

/// Reconstructs a Status from a backend error response so the router
/// can re-emit it through ErrorResponse with the same code family.
Status StatusFromResponse(const HttpResponse& response) {
  std::string message =
      "backend answered HTTP " + std::to_string(response.status);
  std::string code;
  if (auto parsed = Json::Parse(response.body);
      parsed.ok() && parsed.ValueUnsafe().is_object()) {
    const Json* err = parsed.ValueUnsafe().Find("error");
    if (err != nullptr && err->is_object()) {
      code = err->GetString("code");
      message = err->GetString("message", message);
    }
  }
  if (code == "NotFound") return Status::NotFound(message);
  if (code == "InvalidArgument") return Status::InvalidArgument(message);
  if (code == "AlreadyExists") return Status::AlreadyExists(message);
  if (code == "FailedPrecondition") return Status::FailedPrecondition(message);
  if (code == "OutOfRange") return Status::OutOfRange(message);
  if (code == "Unimplemented") return Status::Unimplemented(message);
  if (code == "ResourceExhausted") return Status::ResourceExhausted(message);
  if (code == "DeadlineExceeded") return Status::DeadlineExceeded(message);
  if (code == "Unavailable") return Status::Unavailable(message);
  return Status::Internal(message);
}

/// All legs answered 200? Otherwise `*relay` is the first non-200
/// backend response, re-emitted verbatim — the backend's error body is
/// exactly what a single-lake server would have said.
bool AllOk(const std::vector<HttpResponse>& legs, HttpResponse* relay) {
  for (const HttpResponse& leg : legs) {
    if (leg.status != 200) {
      *relay = leg;
      return false;
    }
  }
  return true;
}

Result<Json> ParseJsonBody(const HttpResponse& response) {
  auto parsed = Json::Parse(response.body);
  if (!parsed.ok()) {
    return Status::Internal("malformed backend response: " +
                            parsed.status().message());
  }
  if (!parsed.ValueUnsafe().is_object()) {
    return Status::Internal("backend response is not an object");
  }
  return parsed;
}

Json FloatVecToJson(const std::vector<float>& vec) {
  Json arr = Json::MakeArray();
  for (float f : vec) arr.Append(Json(static_cast<double>(f)));
  return arr;
}

/// Collects every leg's "models" entries into one list. Scores travel
/// the wire as %.17g doubles (exact double round trip), so sorting the
/// parsed legs with search::ScoreDescIdAsc reproduces the single-lake
/// order bit for bit.
Result<std::vector<search::RankedModel>> CollectHits(
    const std::vector<HttpResponse>& legs) {
  std::vector<search::RankedModel> hits;
  for (const HttpResponse& leg : legs) {
    MLAKE_ASSIGN_OR_RETURN(Json body, ParseJsonBody(leg));
    const Json* models = body.Find("models");
    if (models == nullptr || !models->is_array()) {
      return Status::Internal("backend search response has no models array");
    }
    for (const Json& m : models->AsArray()) {
      if (!m.is_object()) continue;
      hits.push_back(
          search::RankedModel{m.GetString("id"), m.GetDouble("score")});
    }
  }
  return hits;
}

/// The "models" array of a search response: the first k of `hits`.
Json ModelsJson(const std::vector<search::RankedModel>& hits, size_t k) {
  Json arr = Json::MakeArray();
  for (size_t i = 0; i < hits.size() && i < k; ++i) {
    Json j = Json::MakeObject();
    j.Set("id", hits[i].id);
    j.Set("score", hits[i].score);
    arr.Append(std::move(j));
  }
  return arr;
}

/// Merges per-shard top-k lists: same comparator as the executor's
/// final sort, truncated to k. Shards hold disjoint models, so no
/// dedup is needed and each document's score is its exact global one.
Result<Json> MergeModels(const std::vector<HttpResponse>& legs, size_t k) {
  MLAKE_ASSIGN_OR_RETURN(std::vector<search::RankedModel> hits,
                         CollectHits(legs));
  std::sort(hits.begin(), hits.end(), search::ScoreDescIdAsc);
  return ModelsJson(hits, k);
}

/// The server caps k at 10000, so that is the deepest global keyword
/// ranking one scatter can assemble (documented limitation: hybrid RRF
/// ranks are exact while every shard has <= 10000 scoring documents).
constexpr int64_t kMaxServerK = 10000;

}  // namespace

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      pool_(options_.max_idle_per_endpoint == 0 ? 1
                                                : options_.max_idle_per_endpoint),
      http_(TransportOptions(options_)) {
  if (options_.fanout_threads <= 0) {
    options_.fanout_threads =
        std::max<int>(8, 2 * static_cast<int>(options_.backends.size()));
  }
  if (options_.heartbeat_interval_ms <= 0) options_.heartbeat_interval_ms = 500;
  if (options_.heartbeat_timeout_ms <= 0) options_.heartbeat_timeout_ms = 250;
  if (options_.heartbeat_misses_down <= 0) options_.heartbeat_misses_down = 1;
  if (options_.hedge_min_delay_ms < 0) options_.hedge_min_delay_ms = 0;
  for (size_t i = 0; i < options_.backends.size(); ++i) {
    backends_.push_back(std::make_unique<BackendState>());
  }
  RegisterRoutes();
}

Router::~Router() { (void)Stop(); }

std::shared_ptr<const ShardMap> Router::CurrentMap() const {
  std::lock_guard<std::mutex> lock(map_mu_);
  return map_;
}

Status Router::Start() {
  if (heartbeat_thread_.joinable()) {
    return Status::FailedPrecondition("already started");
  }
  if (options_.backends.empty()) {
    return Status::InvalidArgument("router needs at least one backend");
  }
  if (options_.default_deadline_ms <= 0) {
    // Scatter legs inherit the remaining budget; with none, every
    // search would expire before its first leg.
    return Status::InvalidArgument("default_deadline_ms must be > 0, got " +
                                   std::to_string(options_.default_deadline_ms));
  }
  int max_shard = 0;
  for (const BackendSpec& b : options_.backends) {
    if (b.shard_id < 0) {
      return Status::InvalidArgument("backend " + b.host + ":" +
                                     std::to_string(b.port) +
                                     " has no shard assignment");
    }
    max_shard = std::max(max_shard, b.shard_id);
  }
  cluster_size_ = options_.cluster_size > 0
                      ? static_cast<size_t>(options_.cluster_size)
                      : static_cast<size_t>(max_shard) + 1;
  std::vector<int> per_slot(cluster_size_, 0);
  for (const BackendSpec& b : options_.backends) {
    if (static_cast<size_t>(b.shard_id) < cluster_size_) {
      per_slot[static_cast<size_t>(b.shard_id)]++;
    }
  }
  for (size_t slot = 0; slot < cluster_size_; ++slot) {
    if (per_slot[slot] == 0) {
      return Status::InvalidArgument("shard " + std::to_string(slot) +
                                     " has no backend");
    }
  }

  // Synchronous first poll: Start() returns with a live map, so a
  // request racing the first heartbeat tick never sees unknown health.
  PollBackendsOnce();
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    PublishMapLocked();
  }

  fanout_pool_ = std::make_unique<ThreadPool>(options_.fanout_threads);
  Status started = http_.Start();
  if (!started.ok()) {
    fanout_pool_.reset();
    return started;
  }
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    hb_stop_ = false;
  }
  heartbeat_thread_ = std::thread([this] { HeartbeatLoop(); });
  return Status::OK();
}

Status Router::Stop() {
  if (!heartbeat_thread_.joinable()) return Status::OK();
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    hb_stop_ = true;
  }
  hb_cv_.notify_all();
  // Drains in-flight requests, which still scatter on the fanout pool.
  Status stopped = http_.Stop();
  heartbeat_thread_.join();
  fanout_pool_.reset();
  return stopped;
}

void Router::RegisterRoutes() {
  // Owner-answers reads broadcast. For the governance reads the shard
  // map ranks caught-up replicas ahead of their leader, and a stale
  // replica's 503 is retryable — the leg fails over to the leader — so
  // these prefer replicas without risking stale answers.
  auto broadcast = [this](RequestContext& c) {
    return HandleBroadcastGet(c.request.path, c.deadline);
  };
  http_.Route("GET", "/healthz",
              [this](RequestContext&) { return HandleHealthz(); },
              /*admission_exempt=*/true);
  http_.Route("GET", "/statsz",
              [this](RequestContext&) { return JsonResponse(StatszJson()); });
  http_.Route("GET", "/v1/models", [this](RequestContext& c) {
    return HandleModelList(c.deadline);
  });
  http_.Route("GET", "/v1/models/{id}/citation", broadcast);
  http_.Route("GET", "/v1/models/{id}/doc", broadcast);
  http_.Route("GET", "/v1/models/{id}", broadcast);
  http_.Route("GET", "/v1/audit/{id}", broadcast);
  http_.Route("GET", "/v1/export", [this](RequestContext& c) {
    return HandleExport(c.deadline);
  });
  http_.Route("GET", "/v1/lineage/{id}", broadcast);
  http_.Route("GET", "/v1/embedding/{id}", broadcast);
  http_.Route("POST", "/v1/search",
              [this](RequestContext& c) { return HandleSearch(c); });
  http_.Route("POST", "/v1/ingest", [this](RequestContext& c) {
    return HandleIngest(c.request, c.deadline);
  });
}

// ---------------------------------------------------------------------------
// Heartbeats and the versioned shard map
// ---------------------------------------------------------------------------

void Router::HeartbeatLoop() {
  std::unique_lock<std::mutex> lock(hb_mu_);
  while (!hb_cv_.wait_for(
      lock, std::chrono::milliseconds(options_.heartbeat_interval_ms),
      [this] { return hb_stop_; })) {
    lock.unlock();
    TickNow();
    lock.lock();
  }
}

void Router::TickNow() {
  PollBackendsOnce();
  std::lock_guard<std::mutex> lock(map_mu_);
  PublishMapLocked();
}

void Router::PollBackendsOnce() {
  for (size_t i = 0; i < options_.backends.size(); ++i) {
    const BackendSpec& spec = options_.backends[i];
    BackendState& state = *backends_[i];
    auto lease = pool_.Acquire(spec.host, spec.port);
    auto result =
        lease->Get("/v1/heartbeat", {}, options_.heartbeat_timeout_ms);
    if (!result.ok() || result.ValueUnsafe().status != 200) {
      if (!result.ok()) lease.Discard();
      int misses = state.misses.fetch_add(1, std::memory_order_relaxed) + 1;
      if (misses >= options_.heartbeat_misses_down) {
        state.healthy.store(false, std::memory_order_relaxed);
      }
      continue;
    }
    auto body = Json::Parse(result.ValueUnsafe().body);
    if (!body.ok() || !body.ValueUnsafe().is_object()) continue;
    const Json& hb = body.ValueUnsafe();
    state.misses.store(0, std::memory_order_relaxed);
    state.healthy.store(true, std::memory_order_relaxed);
    state.draining.store(hb.GetBool("draining"), std::memory_order_relaxed);
    state.inflight.store(hb.GetInt64("inflight"), std::memory_order_relaxed);
    state.models.store(hb.GetInt64("models"), std::memory_order_relaxed);
    state.index_generation.store(hb.GetInt64("index_generation"),
                                 std::memory_order_relaxed);
    state.p95_us.store(static_cast<int64_t>(hb.GetDouble("search_p95_us")),
                       std::memory_order_relaxed);
    state.is_replica.store(hb.GetString("role") == "replica",
                           std::memory_order_relaxed);
    state.applied_seq.store(
        static_cast<uint64_t>(hb.GetInt64("applied_seq")),
        std::memory_order_relaxed);
    state.replication_epoch.store(
        static_cast<uint64_t>(hb.GetInt64("replication_epoch")),
        std::memory_order_relaxed);
    state.heartbeats_ok.fetch_add(1, std::memory_order_relaxed);
  }
}

void Router::PublishMapLocked() {
  std::vector<BackendHealth> health(backends_.size());
  for (size_t i = 0; i < backends_.size(); ++i) {
    const BackendState& s = *backends_[i];
    health[i].healthy = s.healthy.load(std::memory_order_relaxed);
    health[i].draining = s.draining.load(std::memory_order_relaxed);
    health[i].is_replica = s.is_replica.load(std::memory_order_relaxed);
    health[i].inflight = s.inflight.load(std::memory_order_relaxed);
    health[i].p95_us = s.p95_us.load(std::memory_order_relaxed);
  }
  ShardMap next =
      BuildShardMap(options_.backends, health, cluster_size_, epoch_ + 1);
  // Epoch bumps only on a real assignment change: the deterministic
  // replica ordering makes the comparison structural, so a quiet
  // cluster keeps one epoch and in-flight drains are the exception,
  // not the rule. A role flip (promote) changes the writer lists even
  // when the read order holds, so both are compared.
  if (map_ != nullptr && next.replicas == map_->replicas &&
      next.writers == map_->writers) {
    return;
  }
  epoch_ += 1;
  next.epoch = epoch_;
  map_ = std::make_shared<const ShardMap>(std::move(next));
}

// ---------------------------------------------------------------------------
// Scatter-gather with hedged retries
// ---------------------------------------------------------------------------

void Router::LaunchAttempt(const std::shared_ptr<ScatterCall>& call,
                           size_t slot, int backend, int attempt_index,
                           const std::string& method, const std::string& path,
                           const std::string& body, int timeout_ms,
                           int64_t deadline_ms) {
  {
    std::lock_guard<std::mutex> lock(call->mu);
    call->legs[slot].launched++;
    call->legs[slot].outstanding++;
  }
  const BackendSpec& spec = options_.backends[static_cast<size_t>(backend)];
  std::string host = spec.host;
  int port = spec.port;
  fanout_pool_->Submit([this, call, slot, host, port, attempt_index, method,
                        path, body, timeout_ms, deadline_ms] {
    std::vector<std::pair<std::string, std::string>> headers;
    if (deadline_ms > 0) {
      headers.emplace_back("X-Mlake-Deadline-Ms", std::to_string(deadline_ms));
    }
    auto lease = pool_.Acquire(host, port);
    // Scatter legs are read-only (/v1/search families), so the POSTs are
    // idempotent and may ride the client's keep-alive-race retry.
    Result<HttpResponse> result =
        method == "GET" ? lease->Get(path, headers, timeout_ms)
                        : lease->Post(path, body, headers, timeout_ms,
                                      /*idempotent=*/true);
    // 503 (draining / shutting down) is retryable on a replica; any
    // other HTTP status is the backend's definitive answer.
    bool retryable =
        !result.ok() || result.ValueUnsafe().status == 503;
    if (!result.ok()) lease.Discard();
    std::lock_guard<std::mutex> lock(call->mu);
    LegCall& leg = call->legs[slot];
    leg.outstanding--;
    if (!retryable) {
      if (!leg.have_response) {
        leg.have_response = true;
        leg.response = result.MoveValueUnsafe();
        leg.winner = attempt_index;
      }
    } else {
      leg.error = result.ok() ? Status::Unavailable("backend answered 503")
                              : result.status();
    }
    call->cv.notify_all();
  });
}

Result<std::vector<server::HttpResponse>> Router::ScatterAll(
    const std::string& method, const std::string& path,
    const std::string& body, Clock::time_point deadline, bool first_2xx) {
  std::shared_ptr<const ShardMap> map = CurrentMap();
  if (map == nullptr || map->cluster_size() != cluster_size_) {
    return Status::Unavailable("no shard map published yet");
  }
  if (RemainingMs(deadline) <= 0) {
    return Status::DeadlineExceeded("deadline expired before scatter");
  }

  // Per-leg monitor bookkeeping (which replica fires next, hedge
  // deadline); the legs' outcomes live in the shared ScatterCall.
  struct LegRun {
    std::vector<int> replicas;
    Clock::time_point hedge_at;
    size_t next_replica = 1;
    bool hedged = false;
    int hedge_attempt = -1;
  };
  std::vector<LegRun> runs(cluster_size_);
  auto call = std::make_shared<ScatterCall>();
  call->legs.resize(cluster_size_);

  // Launch every slot's primary up front; the monitor below never holds
  // a fanout-pool slot itself, so attempts cannot starve behind waits.
  for (size_t slot = 0; slot < cluster_size_; ++slot) {
    LegRun& run = runs[slot];
    run.replicas = map->replicas[slot];
    if (run.replicas.empty()) {
      return Status::Unavailable("shard " + std::to_string(slot) +
                                 " has no backend");
    }
    int primary = run.replicas[0];
    int64_t remaining = std::max<int64_t>(1, RemainingMs(deadline));
    // Hedge when the primary exceeds a multiple of its own advertised
    // p95 (floor for cold backends with no history yet).
    int64_t p95_ms =
        backends_[static_cast<size_t>(primary)]->p95_us.load(
            std::memory_order_relaxed) /
        1000;
    int64_t hedge_ms = std::max<int64_t>(
        options_.hedge_min_delay_ms,
        static_cast<int64_t>(static_cast<double>(p95_ms) *
                             options_.hedge_p95_multiplier));
    bool can_hedge = options_.enable_hedging && run.replicas.size() > 1;
    run.hedge_at = can_hedge
                       ? std::min(deadline, Clock::now() + std::chrono::milliseconds(
                                                hedge_ms))
                       : deadline;
    // Transport timeout: the remaining budget plus slack, so a backend
    // that enforces the forwarded deadline answers 504 in-band instead
    // of dying as an opaque socket timeout.
    LaunchAttempt(call, slot, primary, 0, method, path, body,
                  static_cast<int>(remaining + 50), remaining);
  }

  std::unique_lock<std::mutex> lock(call->mu);
  // Launches the leg's next replica; the caller holds `lock`.
  auto fail_over = [&](size_t slot) {
    int backend = runs[slot].replicas[runs[slot].next_replica++];
    int attempt = call->legs[slot].launched;
    failovers_.fetch_add(1, std::memory_order_relaxed);
    int64_t remaining = std::max<int64_t>(1, RemainingMs(deadline));
    lock.unlock();
    LaunchAttempt(call, slot, backend, attempt, method, path, body,
                  static_cast<int>(remaining + 50), remaining);
    lock.lock();
  };
  // With `first_2xx`, the slot holding a 2xx answer, else -1; the
  // caller holds `lock`.
  auto answered_2xx = [&]() -> int {
    if (!first_2xx) return -1;
    for (size_t slot = 0; slot < cluster_size_; ++slot) {
      const LegCall& leg = call->legs[slot];
      if (leg.have_response && leg.response.status / 100 == 2) {
        return static_cast<int>(slot);
      }
    }
    return -1;
  };
  // Hands over the leg's answer; the caller holds `lock`.
  auto take = [&](size_t slot) {
    LegCall& leg = call->legs[slot];
    if (runs[slot].hedged && leg.winner == runs[slot].hedge_attempt) {
      hedge_wins_.fetch_add(1, std::memory_order_relaxed);
    }
    return std::move(leg.response);
  };

  // Pass 1 — hedging: visit legs in hedge-deadline order. A leg whose
  // primary failed outright fails over immediately; one that is merely
  // slow gets a second attempt on the next replica.
  std::vector<size_t> order(cluster_size_);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return runs[a].hedge_at < runs[b].hedge_at;
  });
  for (size_t slot : order) {
    LegRun& run = runs[slot];
    LegCall& leg = call->legs[slot];
    while (!leg.have_response && Clock::now() < run.hedge_at &&
           answered_2xx() < 0) {
      if (leg.outstanding == 0) {
        // Every launched attempt failed: fail over, don't wait.
        if (run.next_replica >= run.replicas.size() ||
            RemainingMs(deadline) <= 0) {
          break;
        }
        fail_over(slot);
        continue;
      }
      call->cv.wait_until(lock, run.hedge_at);
    }
    if (answered_2xx() >= 0) break;
    if (!leg.have_response && leg.outstanding > 0 &&
        options_.enable_hedging && !run.hedged &&
        run.next_replica < run.replicas.size() && RemainingMs(deadline) > 0) {
      int backend = run.replicas[run.next_replica++];
      run.hedged = true;
      run.hedge_attempt = leg.launched;
      hedges_fired_.fetch_add(1, std::memory_order_relaxed);
      int64_t remaining = std::max<int64_t>(1, RemainingMs(deadline));
      lock.unlock();
      LaunchAttempt(call, slot, backend, run.hedge_attempt, method, path,
                    body, static_cast<int>(remaining + 50), remaining);
      lock.lock();
    }
  }

  // Pass 2 — completion: wait each leg out (keeping failover alive),
  // up to the request deadline, or (first_2xx) until a leg answers 2xx.
  // Abandoned attempts finish in the background against the shared
  // ScatterCall.
  std::vector<HttpResponse> out(cluster_size_);
  Status exhausted = Status::OK();
  for (size_t slot = 0; slot < cluster_size_; ++slot) {
    LegRun& run = runs[slot];
    LegCall& leg = call->legs[slot];
    for (;;) {
      if (int winner = answered_2xx(); winner >= 0) {
        std::vector<HttpResponse> first;
        first.push_back(take(static_cast<size_t>(winner)));
        return first;
      }
      if (leg.have_response) break;
      if (leg.outstanding == 0) {
        if (run.next_replica < run.replicas.size() &&
            RemainingMs(deadline) > 0) {
          fail_over(slot);
          continue;
        }
        // Exhausted every replica: the whole scatter fails — a top-k
        // missing one shard's documents would be silently wrong. With
        // `first_2xx`, another leg's 2xx may still settle it.
        if (!first_2xx) return leg.error;
        if (exhausted.ok()) exhausted = leg.error;
        break;
      }
      if (Clock::now() >= deadline) {
        return Status::DeadlineExceeded("shard " + std::to_string(slot) +
                                        " did not answer before the deadline");
      }
      call->cv.wait_until(lock, deadline);
    }
    if (leg.have_response) out[slot] = take(slot);
  }
  if (!exhausted.ok()) return exhausted;
  return out;
}

Result<server::HttpResponse> Router::BroadcastFirst(const std::string& path,
                                                    Clock::time_point deadline) {
  MLAKE_ASSIGN_OR_RETURN(
      std::vector<HttpResponse> legs,
      ScatterAll("GET", path, "", deadline, /*first_2xx=*/true));
  for (HttpResponse& leg : legs) {
    if (leg.status / 100 == 2) return std::move(leg);
  }
  // Nobody owns it. Prefer a "real" error over the owner-miss 404s.
  for (HttpResponse& leg : legs) {
    if (leg.status != 404) return std::move(leg);
  }
  return std::move(legs[0]);
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

HttpResponse Router::HandleHealthz() const {
  Json body = Json::MakeObject();
  bool draining = http_.draining();
  body.Set("status", draining ? "draining" : "ok");
  std::shared_ptr<const ShardMap> map = CurrentMap();
  body.Set("epoch", static_cast<int64_t>(map != nullptr ? map->epoch : 0));
  body.Set("cluster_size", static_cast<int64_t>(cluster_size_));
  return JsonResponse(std::move(body), draining ? 503 : 200);
}

Json Router::StatszJson() const {
  Json out = Json::MakeObject();
  out.Set("cluster_size", static_cast<int64_t>(cluster_size_));
  std::shared_ptr<const ShardMap> map = CurrentMap();
  out.Set("epoch", static_cast<int64_t>(map != nullptr ? map->epoch : 0));
  if (map != nullptr) out.Set("shard_map", map->ToJson());

  Json backends = Json::MakeArray();
  for (size_t i = 0; i < options_.backends.size(); ++i) {
    const BackendSpec& spec = options_.backends[i];
    const BackendState& s = *backends_[i];
    Json b = Json::MakeObject();
    b.Set("host", spec.host);
    b.Set("port", spec.port);
    b.Set("shard_id", spec.shard_id);
    b.Set("healthy", s.healthy.load(std::memory_order_relaxed));
    b.Set("draining", s.draining.load(std::memory_order_relaxed));
    b.Set("inflight", s.inflight.load(std::memory_order_relaxed));
    b.Set("search_p95_us", s.p95_us.load(std::memory_order_relaxed));
    b.Set("models", s.models.load(std::memory_order_relaxed));
    b.Set("index_generation",
          s.index_generation.load(std::memory_order_relaxed));
    b.Set("heartbeats_ok", s.heartbeats_ok.load(std::memory_order_relaxed));
    b.Set("consecutive_misses", s.misses.load(std::memory_order_relaxed));
    b.Set("role", s.is_replica.load(std::memory_order_relaxed)
                      ? "replica"
                      : "writer");
    b.Set("applied_seq",
          Json(s.applied_seq.load(std::memory_order_relaxed)));
    b.Set("replication_epoch",
          Json(s.replication_epoch.load(std::memory_order_relaxed)));
    backends.Append(std::move(b));
  }
  out.Set("backends", std::move(backends));

  Json hedging = Json::MakeObject();
  hedging.Set("enabled", options_.enable_hedging);
  hedging.Set("fired", hedges_fired_.load(std::memory_order_relaxed));
  hedging.Set("wins", hedge_wins_.load(std::memory_order_relaxed));
  hedging.Set("failovers", failovers_.load(std::memory_order_relaxed));
  out.Set("hedging", std::move(hedging));

  Json server_json = http_.StatsJson();
  server_json.Set("fanout_threads", options_.fanout_threads);
  out.Set("server", std::move(server_json));

  out.Set("endpoints", http_.metrics().ToJson());
  return out;
}

HttpResponse Router::HandleModelList(Clock::time_point deadline) {
  auto legs = ScatterAll("GET", "/v1/models", "", deadline);
  if (!legs.ok()) return ErrorResponse(legs.status());
  HttpResponse relay;
  if (!AllOk(legs.ValueUnsafe(), &relay)) return relay;

  // Concatenate and re-sort by id — each shard lists its own models in
  // id order, so the merged view matches a single lake's listing.
  std::vector<Json> entries;
  for (const HttpResponse& leg : legs.ValueUnsafe()) {
    auto body = ParseJsonBody(leg);
    if (!body.ok()) return ErrorResponse(body.status());
    const Json* models = body.ValueUnsafe().Find("models");
    if (models == nullptr || !models->is_array()) continue;
    for (const Json& entry : models->AsArray()) entries.push_back(entry);
  }
  std::sort(entries.begin(), entries.end(), [](const Json& a, const Json& b) {
    return a.GetString("id") < b.GetString("id");
  });
  Json arr = Json::MakeArray();
  for (Json& entry : entries) arr.Append(std::move(entry));
  Json body = Json::MakeObject();
  body.Set("count", entries.size());
  body.Set("models", std::move(arr));
  return JsonResponse(std::move(body));
}

HttpResponse Router::HandleBroadcastGet(const std::string& path,
                                        Clock::time_point deadline) {
  auto result = BroadcastFirst(path, deadline);
  if (!result.ok()) return ErrorResponse(result.status());
  return result.MoveValueUnsafe();
}

namespace {

/// The routed export: the buffered shard exports, indexed by one
/// validation pass, and the cursor of the streamer that merges them.
/// Every string_view points into a leg body (or `escaped_ids`), which
/// this object owns and never moves once indexed, so the merge copies
/// record bytes straight out of the shard responses.
struct ExportMerge {
  struct Model {
    std::string_view id;    // decoded
    std::string_view line;  // the record, without its '\n'
  };
  struct Leg {
    std::vector<Model> models;  // ids strictly increasing
    size_t next = 0;            // streamer cursor
  };
  std::vector<HttpResponse> responses;  // the shard answers, in slot order
  std::deque<std::string> escaped_ids;  // decoded ids that held escapes
  std::vector<Leg> legs;                // one per response
  std::vector<std::string_view> tail;   // edge lines, then dataset lines
  std::string header;                   // merged header record + '\n'
  std::string footer;                   // rebuilt footer record + '\n'
  // Streamer cursor beyond the legs'.
  enum class Stage { kHeader, kModels, kTail, kDone };
  Stage stage = Stage::kHeader;
  size_t next_tail = 0;
};

/// Streamer chunk size, as the shards' export streamer packs them.
constexpr size_t kExportChunkBytes = size_t{64} << 10;

Status MalformedExportRecord(std::string_view line) {
  return Status::Internal("malformed export record from a shard: " +
                          std::string(line.substr(0, 120)));
}

/// The kind an export record opens with (`{"kind":"<kind>"`, the
/// field order every shard writes), or empty when it has none.
std::string_view RecordKind(std::string_view line) {
  constexpr std::string_view kPrefix = "{\"kind\":\"";
  if (!StartsWith(line, kPrefix)) return {};
  size_t end = line.find('"', kPrefix.size());
  if (end == std::string_view::npos) return {};
  return line.substr(kPrefix.size(), end - kPrefix.size());
}

/// A model record's id, read from its `{"kind":"model","id":<string>`
/// prefix without parsing the rest. An id holding JSON escapes (rare)
/// is decoded into `escaped`, so ids compare as the lake sorts them.
Result<std::string_view> ModelRecordId(std::string_view line,
                                       std::deque<std::string>* escaped) {
  constexpr std::string_view kPrefix = "{\"kind\":\"model\",\"id\":\"";
  if (!StartsWith(line, kPrefix) || line.back() != '}') {
    return MalformedExportRecord(line);
  }
  size_t end = kPrefix.size();
  bool has_escape = false;
  for (; end < line.size() && line[end] != '"'; ++end) {
    if (line[end] == '\\') {
      has_escape = true;
      ++end;
    }
  }
  if (end >= line.size()) return MalformedExportRecord(line);
  if (!has_escape) return line.substr(kPrefix.size(), end - kPrefix.size());
  std::string_view literal =
      line.substr(kPrefix.size() - 1, end - kPrefix.size() + 2);
  auto decoded = Json::Parse(literal);
  if (!decoded.ok() || !decoded.ValueUnsafe().is_string()) {
    return MalformedExportRecord(line);
  }
  escaped->push_back(decoded.ValueUnsafe().AsString());
  return std::string_view(escaped->back());
}

/// The validation pass over the buffered legs: indexes every leg's
/// model records (ids strictly increasing within a leg), collects the
/// edge and dataset records deduplicated on their full line and in a
/// single lake's order (edges by EdgeKey, datasets by name), and builds
/// the merged header and footer. Any framing defect is an error, found
/// before the first byte is sent.
Status IndexExport(ExportMerge* merge) {
  std::vector<std::pair<std::string, std::string_view>> edges;     // key
  std::vector<std::pair<std::string, std::string_view>> datasets;  // name
  Json header;
  size_t num_models = 0;
  merge->legs.resize(merge->responses.size());
  for (size_t i = 0; i < merge->responses.size(); ++i) {
    std::vector<ExportMerge::Model>& models = merge->legs[i].models;
    std::string_view text = merge->responses[i].body;
    while (!text.empty()) {
      size_t eol = text.find('\n');
      std::string_view line = text.substr(0, eol);
      text.remove_prefix(eol == std::string_view::npos ? text.size()
                                                       : eol + 1);
      if (line.empty()) continue;
      std::string_view kind = RecordKind(line);
      if (kind == "model") {
        MLAKE_ASSIGN_OR_RETURN(std::string_view id,
                               ModelRecordId(line, &merge->escaped_ids));
        if (!models.empty() && !(models.back().id < id)) {
          return Status::Internal("shard export models out of id order at " +
                                  std::string(id));
        }
        models.push_back({id, line});
        continue;
      }
      if (kind == "footer") continue;  // rebuilt below
      if (kind != "edge" && kind != "dataset" && kind != "header") {
        return MalformedExportRecord(line);
      }
      // Edges, datasets and headers are few: a DOM parse is cheap.
      auto record = Json::Parse(line);
      if (!record.ok() || !record.ValueUnsafe().is_object()) {
        return MalformedExportRecord(line);
      }
      if (kind == "edge") {
        auto edge = versioning::EdgeFromJson(record.ValueUnsafe());
        if (!edge.ok()) return MalformedExportRecord(line);
        edges.emplace_back(versioning::EdgeKey(edge.ValueUnsafe()), line);
      } else if (kind == "dataset") {
        const Json* name = record.ValueUnsafe().Find("name");
        if (name == nullptr || !name->is_string()) {
          return MalformedExportRecord(line);
        }
        datasets.emplace_back(name->AsString(), line);
      } else if (header.is_null()) {
        header = record.MoveValueUnsafe();
      }
    }
    num_models += models.size();
  }
  if (header.is_null()) {
    return Status::Internal("no export header from any shard");
  }
  // A cross-shard lineage edge is recorded on both endpoints' shards,
  // and datasets are registered on every shard: equal lines collapse.
  for (auto* records : {&edges, &datasets}) {
    std::sort(records->begin(), records->end());
    records->erase(std::unique(records->begin(), records->end(),
                               [](const auto& a, const auto& b) {
                                 return a.second == b.second;
                               }),
                   records->end());
  }
  for (const auto& [key, line] : edges) merge->tail.push_back(line);
  for (const auto& [name, line] : datasets) merge->tail.push_back(line);

  Json counts = Json::MakeObject();
  counts.Set("models", num_models);
  counts.Set("edges", edges.size());
  counts.Set("datasets", datasets.size());
  header.Set("counts", std::move(counts));
  merge->header = header.Dump() + "\n";
  Json footer = Json::MakeObject();
  footer.Set("kind", std::string("footer"));
  footer.Set("records", num_models + merge->tail.size());
  merge->footer = footer.Dump() + "\n";
  return Status::OK();
}

/// Packs the next ~kExportChunkBytes of the merged export into
/// `*chunk`: the header, the legs' model records k-way merged by id
/// (ties go to the lower leg), the edge and dataset records, the
/// footer. False once everything was sent.
bool NextExportChunk(ExportMerge* merge, std::string* chunk) {
  using Stage = ExportMerge::Stage;
  chunk->clear();
  if (merge->stage == Stage::kHeader) {
    chunk->append(merge->header);
    merge->stage = Stage::kModels;
  }
  while (merge->stage == Stage::kModels && chunk->size() < kExportChunkBytes) {
    ExportMerge::Leg* best = nullptr;
    for (ExportMerge::Leg& leg : merge->legs) {
      if (leg.next == leg.models.size()) continue;
      if (best == nullptr ||
          leg.models[leg.next].id < best->models[best->next].id) {
        best = &leg;
      }
    }
    if (best == nullptr) {
      merge->stage = Stage::kTail;
      break;
    }
    chunk->append(best->models[best->next++].line);
    chunk->push_back('\n');
  }
  while (merge->stage == Stage::kTail && chunk->size() < kExportChunkBytes) {
    if (merge->next_tail == merge->tail.size()) {
      chunk->append(merge->footer);
      merge->stage = Stage::kDone;
      break;
    }
    chunk->append(merge->tail[merge->next_tail++]);
    chunk->push_back('\n');
  }
  return !chunk->empty();
}

}  // namespace

HttpResponse Router::HandleExport(Clock::time_point deadline) {
  auto legs = ScatterAll("GET", "/v1/export", "", deadline);
  if (!legs.ok()) return ErrorResponse(legs.status());
  HttpResponse relay;
  if (!AllOk(legs.ValueUnsafe(), &relay)) return relay;

  // Merge the per-shard NDJSON dumps into one lake-wide dump, equal to
  // the single lake's byte for byte. Records keep their shard-emitted
  // bytes verbatim (the determinism contract lives in the record bytes,
  // not the framing). The legs stay buffered: the merged header's edge
  // and dataset counts depend on every leg's tail, which follows all of
  // its models.
  auto merge = std::make_shared<ExportMerge>();
  merge->responses = legs.MoveValueUnsafe();
  if (Status indexed = IndexExport(merge.get()); !indexed.ok()) {
    return ErrorResponse(indexed);
  }
  HttpResponse out;
  out.content_type = "application/x-ndjson";
  out.streamer = [merge](std::string* chunk) {
    return NextExportChunk(merge.get(), chunk);
  };
  return out;
}

HttpResponse Router::HandleSearch(RequestContext& ctx) {
  Clock::time_point deadline = ctx.deadline;
  auto parsed = Json::Parse(ctx.request.body);
  if (!parsed.ok()) {
    return ErrorResponse(Status::InvalidArgument("malformed JSON body: " +
                                                 parsed.status().message()));
  }
  const Json& body = parsed.ValueUnsafe();
  if (!body.is_object()) {
    return ErrorResponse(Status::InvalidArgument("body must be an object"));
  }
  std::string type = body.GetString("type", "mlql");
  if (type == "mlql" || type == "ann" || type == "keyword" ||
      type == "hybrid" || type == "ann_vec") {
    ctx.label.append(":").append(type);
  }
  int64_t k_raw = body.GetInt64("k", 5);
  if (k_raw <= 0 || k_raw > kMaxServerK) {
    return ErrorResponse(Status::InvalidArgument("k must be in [1, 10000]"));
  }
  size_t k = static_cast<size_t>(k_raw);

  if (type == "mlql") {
    std::string query = body.GetString("query");
    if (query.empty()) {
      return ErrorResponse(
          Status::InvalidArgument("mlql search requires \"query\""));
    }
    return SearchMlql(query, deadline);
  } else if (type == "ann" || type == "ann_vec") {
    return SearchAnn(body, k, deadline);
  } else if (type == "keyword") {
    std::string query = body.GetString("query");
    if (query.empty()) {
      return ErrorResponse(
          Status::InvalidArgument("keyword search requires \"query\""));
    }
    return SearchKeyword(body, k, deadline);
  } else if (type == "hybrid") {
    std::string text = body.GetString("query");
    std::string query_id = body.GetString("id");
    if (text.empty() || query_id.empty()) {
      return ErrorResponse(Status::InvalidArgument(
          "hybrid search requires \"query\" and \"id\""));
    }
    // Lower to the exact MLQL HybridSearch lowers to (quote doubling
    // included) so the shard-side parts carry identical rank args.
    auto escape = [](const std::string& s) {
      std::string out;
      for (char c : s) {
        out.push_back(c);
        if (c == '\'') out.push_back('\'');
      }
      return out;
    };
    std::string parts_query =
        StrFormat("FIND MODELS RANK BY hybrid('%s', '%s') LIMIT %zu",
                  escape(text).c_str(), escape(query_id).c_str(), k);
    return SearchHybrid(text, query_id, k, "hybrid", parts_query, deadline);
  }
  return ErrorResponse(Status::InvalidArgument(
      "unknown search type \"" + type +
      "\" (the router serves mlql | ann | keyword | hybrid)"));
}

HttpResponse Router::SearchMlql(const std::string& query,
                                Clock::time_point deadline) {
  auto parsed = search::ParseQuery(query);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  const search::Query& q = parsed.ValueUnsafe();

  // Hybrid-ranked queries take the parts path: RRF needs the *global*
  // keyword and similarity rankings, which no single shard can see.
  if (q.has_rank && q.rank.function == "hybrid" && q.rank.args.size() == 2 &&
      q.rank.args[0].kind == search::Literal::Kind::kString &&
      q.rank.args[1].kind == search::Literal::Kind::kString) {
    return SearchHybrid(q.rank.args[0].string_value,
                        q.rank.args[1].string_value, q.limit, "mlql", query,
                        deadline);
  }

  Json leg_body = Json::MakeObject();
  leg_body.Set("type", "mlql");
  leg_body.Set("query", query);

  // Overlay: whatever cross-shard context a leg needs so its local
  // scores are bit-identical to a merged lake's.
  Json overlay = Json::MakeObject();
  bool has_overlay = false;
  if (q.has_rank &&
      (q.rank.function == "behavior_sim" || q.rank.function == "weight_sim") &&
      q.rank.args.size() == 1 &&
      q.rank.args[0].kind == search::Literal::Kind::kString) {
    // The rank-target model lives on one shard; every other shard gets
    // its embedding as a hint (consulted only after a local miss).
    const std::string& rank_id = q.rank.args[0].string_value;
    auto vec = ResolveEmbedding(rank_id, deadline);
    if (!vec.ok()) return ErrorResponse(vec.status());
    Json embeddings = Json::MakeObject();
    embeddings.Set(rank_id, FloatVecToJson(vec.ValueUnsafe()));
    overlay.Set("embeddings", std::move(embeddings));
    has_overlay = true;
  }
  if (q.has_rank && q.rank.function == "keyword" && q.rank.args.size() == 1 &&
      q.rank.args[0].kind == search::Literal::Kind::kString) {
    const std::string& text = q.rank.args[0].string_value;
    auto stats = GlobalKeywordStats(text, deadline);
    if (!stats.ok()) return ErrorResponse(stats.status());
    Json bm25 = Json::MakeObject();
    bm25.Set("text", text);
    bm25.Set("stats", stats.MoveValueUnsafe());
    overlay.Set("bm25", std::move(bm25));
    has_overlay = true;
  }
  if (has_overlay) leg_body.Set("overlay", std::move(overlay));

  auto legs = ScatterAll("POST", "/v1/search", leg_body.Dump(), deadline);
  if (!legs.ok()) return ErrorResponse(legs.status());
  HttpResponse relay;
  if (!AllOk(legs.ValueUnsafe(), &relay)) return relay;
  auto merged = MergeModels(legs.ValueUnsafe(), q.limit);
  if (!merged.ok()) return ErrorResponse(merged.status());

  Json out = Json::MakeObject();
  out.Set("type", "mlql");
  out.Set("plan",
          StrFormat("cluster scatter over %zu shards%s; merge top-%zu",
                    cluster_size_, has_overlay ? " (with overlay)" : "",
                    q.limit));
  out.Set("models", merged.MoveValueUnsafe());
  return JsonResponse(std::move(out));
}

HttpResponse Router::SearchKeyword(const Json& body, size_t k,
                                   Clock::time_point deadline) {
  std::string query = body.GetString("query");
  auto stats = GlobalKeywordStats(query, deadline);
  if (!stats.ok()) return ErrorResponse(stats.status());

  Json leg_body = Json::MakeObject();
  leg_body.Set("type", "keyword");
  leg_body.Set("query", query);
  leg_body.Set("k", static_cast<int64_t>(k));
  leg_body.Set("stats", stats.MoveValueUnsafe());
  auto legs = ScatterAll("POST", "/v1/search", leg_body.Dump(), deadline);
  if (!legs.ok()) return ErrorResponse(legs.status());
  HttpResponse relay;
  if (!AllOk(legs.ValueUnsafe(), &relay)) return relay;
  auto merged = MergeModels(legs.ValueUnsafe(), k);
  if (!merged.ok()) return ErrorResponse(merged.status());

  Json out = Json::MakeObject();
  out.Set("type", "keyword");
  out.Set("models", merged.MoveValueUnsafe());
  return JsonResponse(std::move(out));
}

HttpResponse Router::SearchAnn(const Json& body, size_t k,
                               Clock::time_point deadline) {
  std::string exclude_id;
  Json vec_json;
  if (const Json* vec = body.Find("vec"); vec != nullptr) {
    // ann_vec passthrough: the caller already has the query vector.
    vec_json = *vec;
    exclude_id = body.GetString("exclude_id");
  } else {
    std::string query_id = body.GetString("id");
    if (query_id.empty()) {
      return ErrorResponse(
          Status::InvalidArgument("ann search requires \"id\""));
    }
    auto resolved = ResolveEmbedding(query_id, deadline);
    if (!resolved.ok()) return ErrorResponse(resolved.status());
    vec_json = FloatVecToJson(resolved.ValueUnsafe());
    exclude_id = query_id;
  }

  Json leg_body = Json::MakeObject();
  leg_body.Set("type", "ann_vec");
  leg_body.Set("vec", std::move(vec_json));
  leg_body.Set("k", static_cast<int64_t>(k));
  if (!exclude_id.empty()) leg_body.Set("exclude_id", exclude_id);
  auto legs = ScatterAll("POST", "/v1/search", leg_body.Dump(), deadline);
  if (!legs.ok()) return ErrorResponse(legs.status());
  HttpResponse relay;
  if (!AllOk(legs.ValueUnsafe(), &relay)) return relay;
  auto merged = MergeModels(legs.ValueUnsafe(), k);
  if (!merged.ok()) return ErrorResponse(merged.status());

  Json out = Json::MakeObject();
  out.Set("type", "ann");
  out.Set("models", merged.MoveValueUnsafe());
  return JsonResponse(std::move(out));
}

HttpResponse Router::SearchHybrid(const std::string& text,
                                  const std::string& query_id, size_t k,
                                  const char* type_label,
                                  const std::string& parts_query,
                                  Clock::time_point deadline) {
  // RRF needs three global views: the query model's embedding, the
  // globally-ranked BM25 list, and every shard's WHERE-surviving
  // candidates with their dot products. Assemble all three, then fuse
  // with search::FuseRrf, the code RankCandidates' hybrid branch runs.
  auto query_vec = ResolveEmbedding(query_id, deadline);
  if (!query_vec.ok()) return ErrorResponse(query_vec.status());
  auto stats = GlobalKeywordStats(text, deadline);
  if (!stats.ok()) return ErrorResponse(stats.status());

  // Global keyword ranking (deepest list one scatter can carry — see
  // kMaxServerK; the executor uses its unbounded internal list, so
  // rank parity holds while every shard has <= 10000 scoring docs).
  Json kw_body = Json::MakeObject();
  kw_body.Set("type", "keyword");
  kw_body.Set("query", text);
  kw_body.Set("k", kMaxServerK);
  kw_body.Set("stats", stats.MoveValueUnsafe());
  auto kw_legs = ScatterAll("POST", "/v1/search", kw_body.Dump(), deadline);
  if (!kw_legs.ok()) return ErrorResponse(kw_legs.status());
  HttpResponse relay;
  if (!AllOk(kw_legs.ValueUnsafe(), &relay)) return relay;
  auto kw_hits = CollectHits(kw_legs.ValueUnsafe());
  if (!kw_hits.ok()) return ErrorResponse(kw_hits.status());
  std::sort(kw_hits.ValueUnsafe().begin(), kw_hits.ValueUnsafe().end(),
            search::ScoreDescIdAsc);
  std::vector<std::string> keyword_order;
  keyword_order.reserve(kw_hits.ValueUnsafe().size());
  for (search::RankedModel& hit : kw_hits.ValueUnsafe()) {
    keyword_order.push_back(std::move(hit.id));
  }

  // Per-shard candidates + dot products.
  Json parts_body = Json::MakeObject();
  parts_body.Set("type", "hybrid_parts");
  parts_body.Set("query", parts_query);
  parts_body.Set("vec", FloatVecToJson(query_vec.ValueUnsafe()));
  parts_body.Set("k", 1);  // unused by the handler; satisfies validation
  auto parts_legs =
      ScatterAll("POST", "/v1/search", parts_body.Dump(), deadline);
  if (!parts_legs.ok()) return ErrorResponse(parts_legs.status());
  if (!AllOk(parts_legs.ValueUnsafe(), &relay)) return relay;

  std::vector<search::HybridCandidate> candidates;
  for (const HttpResponse& leg : parts_legs.ValueUnsafe()) {
    auto leg_json = ParseJsonBody(leg);
    if (!leg_json.ok()) return ErrorResponse(leg_json.status());
    const Json* arr = leg_json.ValueUnsafe().Find("candidates");
    if (arr == nullptr || !arr->is_array()) {
      return ErrorResponse(
          Status::Internal("hybrid_parts response has no candidates"));
    }
    for (const Json& c : arr->AsArray()) {
      if (!c.is_object()) continue;
      search::HybridCandidate cand;
      cand.id = c.GetString("id");
      if (const Json* dot = c.Find("dot"); dot != nullptr && dot->is_number()) {
        cand.has_dot = true;
        cand.dot = dot->AsDouble();
      }
      candidates.push_back(std::move(cand));
    }
  }

  std::vector<search::RankedModel> fused =
      search::FuseRrf(std::move(keyword_order), std::move(candidates));
  Json out = Json::MakeObject();
  out.Set("type", type_label);
  if (std::string_view(type_label) == "mlql") {
    out.Set("plan", StrFormat("cluster scatter over %zu shards (hybrid RRF); "
                              "merge top-%zu",
                              cluster_size_, k));
  }
  out.Set("models", ModelsJson(fused, k));
  return JsonResponse(std::move(out));
}

Result<std::vector<float>> Router::ResolveEmbedding(
    const std::string& id, Clock::time_point deadline) {
  MLAKE_ASSIGN_OR_RETURN(HttpResponse response,
                         BroadcastFirst("/v1/embedding/" + id, deadline));
  if (response.status != 200) return StatusFromResponse(response);
  MLAKE_ASSIGN_OR_RETURN(Json body, ParseJsonBody(response));
  const Json* emb = body.Find("embedding");
  if (emb == nullptr || !emb->is_array()) {
    return Status::Internal("embedding response has no vector");
  }
  std::vector<float> vec;
  vec.reserve(emb->size());
  for (const Json& v : emb->AsArray()) {
    if (!v.is_number()) {
      return Status::Internal("embedding response holds a non-number");
    }
    vec.push_back(static_cast<float>(v.AsDouble()));
  }
  return vec;
}

Result<Json> Router::GlobalKeywordStats(const std::string& query,
                                        Clock::time_point deadline) {
  Json leg_body = Json::MakeObject();
  leg_body.Set("type", "keyword_stats");
  leg_body.Set("query", query);
  leg_body.Set("k", 1);  // unused by the handler; satisfies validation
  MLAKE_ASSIGN_OR_RETURN(
      std::vector<HttpResponse> legs,
      ScatterAll("POST", "/v1/search", leg_body.Dump(), deadline));
  HttpResponse relay;
  if (!AllOk(legs, &relay)) return StatusFromResponse(relay);

  // Integer sums — exact regardless of shard count or order.
  int64_t live_docs = 0;
  int64_t total_tokens = 0;
  std::map<std::string, int64_t> df;
  for (const HttpResponse& leg : legs) {
    MLAKE_ASSIGN_OR_RETURN(Json body, ParseJsonBody(leg));
    const Json* stats = body.Find("stats");
    if (stats == nullptr || !stats->is_object()) {
      return Status::Internal("keyword_stats response has no stats");
    }
    live_docs += stats->GetInt64("live_docs");
    total_tokens += stats->GetInt64("total_tokens");
    const Json* df_json = stats->Find("df");
    if (df_json != nullptr && df_json->is_object()) {
      for (const auto& [term, count] : df_json->AsObject()) {
        if (!count.is_number()) continue;
        df[term] += count.AsInt64();
      }
    }
  }
  Json out = Json::MakeObject();
  out.Set("live_docs", live_docs);
  out.Set("total_tokens", total_tokens);
  Json df_out = Json::MakeObject();
  for (const auto& [term, count] : df) df_out.Set(term, count);
  out.Set("df", std::move(df_out));
  return out;
}

HttpResponse Router::HandleIngest(const HttpRequest& request,
                                  Clock::time_point deadline) {
  auto parsed = Json::Parse(request.body);
  if (!parsed.ok()) {
    return ErrorResponse(Status::InvalidArgument("malformed JSON body: " +
                                                 parsed.status().message()));
  }
  if (!parsed.ValueUnsafe().is_object()) {
    return ErrorResponse(Status::InvalidArgument("body must be an object"));
  }
  std::string artifact_b64 = parsed.ValueUnsafe().GetString("artifact_b64");
  if (artifact_b64.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("ingest requires \"artifact_b64\""));
  }
  auto bytes = server::Base64Decode(artifact_b64);
  if (!bytes.ok()) {
    return ErrorResponse(Status::InvalidArgument("malformed artifact_b64: " +
                                                 bytes.status().message()));
  }
  // Placement is by content digest — any router instance computes the
  // same owner with no directory service.
  std::string digest = Sha256::HexDigest(bytes.ValueUnsafe());
  uint64_t owner =
      ShardSlotForDigest(digest, static_cast<uint64_t>(cluster_size_));

  std::shared_ptr<const ShardMap> map = CurrentMap();
  if (map == nullptr || owner >= map->cluster_size()) {
    return ErrorResponse(Status::Unavailable("no shard map published yet"));
  }
  if (map->replicas[owner].empty()) {
    return ErrorResponse(Status::Unavailable(
        "shard " + std::to_string(owner) + " has no backend"));
  }
  // Writes only go to backends whose heartbeat claims a writable role —
  // a read replica would just answer 409. An empty writer list means
  // the slot's leader is down and no replica has been promoted.
  const std::vector<int>& writers =
      owner < map->writers.size() ? map->writers[owner] : map->replicas[owner];
  if (writers.empty()) {
    return ErrorResponse(Status::FailedPrecondition(
        "shard " + std::to_string(owner) +
        " has no writable backend (leader down?): `mlake promote` a "
        "replica"));
  }

  // Sequential failover down the writer list. The POST is never
  // silently resent by the client (non-idempotent); instead each
  // attempt carries the artifact digest as an idempotency key, so a
  // shard that already applied a half-delivered attempt answers the
  // next one with the existing id instead of AlreadyExists.
  Status last_error = Status::Unavailable("no replica attempted");
  for (size_t attempt = 0; attempt < writers.size(); ++attempt) {
    int64_t remaining = RemainingMs(deadline);
    if (remaining <= 0) {
      return ErrorResponse(
          Status::DeadlineExceeded("deadline expired during ingest routing"));
    }
    const BackendSpec& spec =
        options_.backends[static_cast<size_t>(writers[attempt])];
    auto lease = pool_.Acquire(spec.host, spec.port);
    auto result = lease->Post(
        "/v1/ingest", request.body,
        {{"X-Mlake-Deadline-Ms", std::to_string(remaining)},
         {"X-Mlake-Idempotency-Key", digest}},
        static_cast<int>(remaining + 50));
    if (result.ok()) {
      if (attempt > 0) failovers_.fetch_add(1, std::memory_order_relaxed);
      return result.MoveValueUnsafe();
    }
    lease.Discard();
    last_error = result.status();
  }
  return ErrorResponse(last_error);
}

}  // namespace mlake::cluster
