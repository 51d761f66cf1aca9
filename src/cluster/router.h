#ifndef MLAKE_CLUSTER_ROUTER_H_
#define MLAKE_CLUSTER_ROUTER_H_

// The cluster frontend: a scatter-gather router speaking the same JSON
// API as a single mlaked backend, over N digest-sharded backends.
//
//   search   fans out to every shard in parallel (one leg per slot,
//            best replica first), merges partial top-k with the same
//            (score desc, id asc) comparator the executor's final sort
//            uses, and — because each shard scores its own documents
//            with globally-exact statistics (see SearchOverlay /
//            SearchWithStats) — returns the byte-identical "models"
//            list a single merged lake would.
//   ingest   routes to the artifact digest's owning shard.
//   reads    (/v1/models/{id}, /v1/lineage/{id}, /v1/embedding/{id})
//            broadcast; the owner answers, everyone else 404s, and
//            the router returns on the owner's answer.
//
// Tail latency: each leg gets a deadline derived from the request's
// remaining budget. A leg that has not answered within a hedge delay
// derived from its backend's heartbeat-reported search p95 fires a
// second attempt at the next replica; first success wins. A leg whose
// attempt fails outright (connection refused, 5xx) fails over to the
// next replica immediately. Heartbeats also feed the epoch ticker,
// which publishes a rebalanced, versioned ShardMap; in-flight requests
// drain against the map they started with.
//
// Transport — threading model, admission, deadlines, bounded reads and
// writes, graceful drain — is server::HttpServer (server/http_server.h);
// the router is a handler set registered on it, so it inherits mlaked's
// drain and deadline contracts. Every request carries a deadline
// (default_deadline_ms > 0) that its scatter legs inherit.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/shard_map.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "search/ast.h"
#include "server/client.h"
#include "server/http.h"
#include "server/http_server.h"
#include "server/metrics.h"

namespace mlake::cluster {

struct RouterOptions {
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (see Router::port()).
  int port = 0;
  /// Worker pool size (thread-per-connection, like mlaked).
  int threads = 8;
  /// Backend servers. Each spec's shard_id assigns it to a slot;
  /// backends sharing a slot are replicas.
  std::vector<BackendSpec> backends;
  /// Number of shard slots; 0 = max backend shard_id + 1.
  int cluster_size = 0;

  /// Heartbeat poll cadence and per-poll timeout.
  int heartbeat_interval_ms = 500;
  int heartbeat_timeout_ms = 250;
  /// Consecutive missed heartbeats before a backend is marked down.
  int heartbeat_misses_down = 2;

  /// Deadline applied when a request carries no X-Mlake-Deadline-Ms
  /// header; every scatter leg inherits the remaining budget. Must be
  /// > 0 (Start() rejects anything else).
  int default_deadline_ms = 30000;

  /// Hedged retries: a leg unanswered after
  /// max(hedge_min_delay_ms, p95_ms * hedge_p95_multiplier) fires a
  /// second attempt at the next replica (when one exists). The delay
  /// is always capped by the leg's remaining deadline.
  bool enable_hedging = true;
  double hedge_p95_multiplier = 3.0;
  int hedge_min_delay_ms = 20;

  /// Threads running backend attempts (scatter legs + hedges).
  /// 0 = max(8, 2 * backends).
  int fanout_threads = 0;
  /// Idle keep-alive connections pooled per backend.
  size_t max_idle_per_endpoint = 8;

  /// Transport limits, as in server::HttpServerOptions.
  int max_requests_per_connection = 1000;
  int keep_alive_timeout_ms = 30000;
  int drain_deadline_ms = 5000;
  size_t max_body_bytes = 64u << 20;
};

/// A running router. Start() launches the transport, the fanout pool
/// and the heartbeat/epoch thread.
class Router {
 public:
  explicit Router(RouterOptions options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  Status Start();
  Status Stop();

  int port() const { return http_.port(); }
  bool draining() const { return http_.draining(); }

  const RouterOptions& options() const { return options_; }

  /// The current (latest-epoch) shard map.
  std::shared_ptr<const ShardMap> CurrentMap() const;

  /// Forces one heartbeat poll + epoch tick now (tests; the background
  /// thread does the same on its cadence).
  void TickNow();

  /// Hedging/failover counters (also in /statsz).
  uint64_t hedges_fired() const { return hedges_fired_.load(); }
  uint64_t hedge_wins() const { return hedge_wins_.load(); }
  uint64_t failovers() const { return failovers_.load(); }

  const server::MetricsRegistry& metrics() const { return http_.metrics(); }

  /// The router's /statsz document.
  Json StatszJson() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// Heartbeat-fed mutable state of one backend.
  struct BackendState {
    std::atomic<bool> healthy{false};
    std::atomic<bool> draining{false};
    std::atomic<int> misses{0};
    std::atomic<int64_t> p95_us{0};
    std::atomic<int64_t> inflight{0};
    std::atomic<int64_t> models{0};
    std::atomic<int64_t> index_generation{0};
    std::atomic<uint64_t> heartbeats_ok{0};
    /// Replication role/watermark (heartbeat "role", "applied_seq",
    /// "replication_epoch"; standalone backends report is_replica
    /// false and zeros).
    std::atomic<bool> is_replica{false};
    std::atomic<uint64_t> applied_seq{0};
    std::atomic<uint64_t> replication_epoch{0};
  };

  /// One leg's backend round trip: its outcome and attempt counts.
  struct LegCall {
    int outstanding = 0;
    int launched = 0;
    /// A definitive backend answer arrived (any HTTP status except the
    /// retryable 503) — a 4xx is an answer, not a transport failure.
    bool have_response = false;
    server::HttpResponse response;
    Status error = Status::Unavailable("no replica attempted");
    int winner = -1;  // attempt index of the answering attempt
  };

  /// Every leg of one scatter, shared between the caller and the
  /// attempt tasks (primaries, hedges, failovers). Attempts may outlive
  /// the caller (an abandoned slow primary, or the legs an early exit
  /// left behind); shared_ptr keeps this alive until the last attempt
  /// finishes. One lock and condvar for all legs, so the caller can
  /// wake on whichever leg answers first.
  struct ScatterCall {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<LegCall> legs;  // one per slot, guarded by mu
  };

  /// Registers every endpoint on http_, in match order.
  void RegisterRoutes();

  // ---- heartbeat / epoch ----
  void HeartbeatLoop();
  void PollBackendsOnce();
  void PublishMapLocked();  // caller holds map_mu_

  // ---- scatter-gather ----
  /// Launches attempt `attempt_index` of slot `slot`'s leg against
  /// backend `backend` on the fanout pool.
  void LaunchAttempt(const std::shared_ptr<ScatterCall>& call, size_t slot,
                     int backend, int attempt_index, const std::string& method,
                     const std::string& path, const std::string& body,
                     int timeout_ms, int64_t deadline_ms);
  /// Runs one leg per slot carrying (method, path, body) and waits for
  /// all of them: launches primaries, monitors hedge deadlines, fails
  /// over on errors. Returns one response per slot or the first fatal
  /// status. With `first_2xx`, it returns as soon as one leg answers
  /// 2xx — that response alone, in a vector of one — and the other
  /// legs finish in the background; a leg that exhausted its replicas
  /// is then fatal only if no leg answers 2xx.
  Result<std::vector<server::HttpResponse>> ScatterAll(
      const std::string& method, const std::string& path,
      const std::string& body, Clock::time_point deadline,
      bool first_2xx = false);
  /// Broadcast a GET and return the first 2xx (owner-answers pattern)
  /// as soon as it arrives; with no 2xx, waits for every leg and
  /// prefers a real error over the owner-miss 404s — a leg that could
  /// not answer at all makes the lookup fail, since its shard might
  /// own the id.
  Result<server::HttpResponse> BroadcastFirst(const std::string& path,
                                              Clock::time_point deadline);

  // ---- handlers ----
  server::HttpResponse HandleHealthz() const;
  server::HttpResponse HandleModelList(Clock::time_point deadline);
  server::HttpResponse HandleBroadcastGet(const std::string& path,
                                          Clock::time_point deadline);
  /// Merged /v1/export: scatters the per-shard NDJSON dumps, validates
  /// them in one pass without a JSON parse of the model records, and
  /// streams one lake-wide dump equal to a single lake's: model records
  /// k-way merged by id, edges and datasets deduplicated in the lake's
  /// order, header counts and footer rebuilt. The legs stay buffered at
  /// the router — the O(1)-memory path is the per-shard endpoint
  /// (DESIGN.md §15).
  server::HttpResponse HandleExport(Clock::time_point deadline);
  server::HttpResponse HandleSearch(server::RequestContext& ctx);
  server::HttpResponse HandleIngest(const server::HttpRequest& request,
                                    Clock::time_point deadline);

  // search kinds (each returns the full response body)
  server::HttpResponse SearchAnn(const Json& body, size_t k,
                                 Clock::time_point deadline);
  server::HttpResponse SearchKeyword(const Json& body, size_t k,
                                     Clock::time_point deadline);
  server::HttpResponse SearchHybrid(const std::string& text,
                                    const std::string& query_id, size_t k,
                                    const char* type_label,
                                    const std::string& parts_query,
                                    Clock::time_point deadline);
  server::HttpResponse SearchMlql(const std::string& query,
                                  Clock::time_point deadline);

  /// Resolves one model's embedding by broadcast (owner answers).
  Result<std::vector<float>> ResolveEmbedding(const std::string& id,
                                              Clock::time_point deadline);
  /// Phase 1 of distributed BM25: scatters keyword_stats and sums the
  /// per-shard integer statistics (exact — no floating point crosses
  /// the wire). Returns the wire-form stats object shards accept.
  Result<Json> GlobalKeywordStats(const std::string& query,
                                  Clock::time_point deadline);

  RouterOptions options_;
  size_t cluster_size_ = 0;
  server::HttpClientPool pool_;
  std::vector<std::unique_ptr<BackendState>> backends_;

  // Versioned map (see shard_map.h). map_mu_ guards the pointer swap
  // and the epoch counter; readers snapshot the shared_ptr and drain
  // against it.
  mutable std::mutex map_mu_;
  std::shared_ptr<const ShardMap> map_;
  uint64_t epoch_ = 0;

  std::atomic<uint64_t> hedges_fired_{0};
  std::atomic<uint64_t> hedge_wins_{0};
  std::atomic<uint64_t> failovers_{0};

  std::mutex hb_mu_;  // wakes the heartbeat loop early on Stop
  std::condition_variable hb_cv_;
  bool hb_stop_ = false;  // guarded by hb_mu_

  // Last: these threads use every member above (the transport's
  // workers run the handlers).
  std::unique_ptr<ThreadPool> fanout_pool_;
  std::thread heartbeat_thread_;
  server::HttpServer http_;
};

}  // namespace mlake::cluster

#endif  // MLAKE_CLUSTER_ROUTER_H_
