#ifndef MLAKE_SERVER_SERVER_H_
#define MLAKE_SERVER_SERVER_H_

// mlaked — the lake's serving layer: a thread-pool HTTP/1.1 server
// (portable POSIX sockets, no external dependencies) exposing a
// ModelLake as a JSON API.
//
//   GET  /healthz            liveness (503 while draining)
//   GET  /v1/heartbeat       cluster heartbeat (shard identity, load,
//                            search p95) — admission-exempt
//   GET  /statsz             request metrics, admission counters, cache
//                            stats, recovery report, degraded models
//   GET  /v1/models          model listing (id, task, degraded)
//   GET  /v1/models/{id}     card + lineage
//   GET  /v1/lineage/{id}    version-graph neighborhood of one model
//
// Governance endpoints (DESIGN.md §15; on a replica these answer 503 +
// Retry-After until the watermark catches up to the leader):
//   GET  /v1/models/{id}/citation   citation document (?format=json|
//                                   text|bibtex)
//   GET  /v1/models/{id}/doc        generated model card + lineage +
//                                   audit evidence
//   GET  /v1/audit/{id}             audit questionnaire over HTTP
//   GET  /v1/export                 streaming NDJSON metadata dump of
//                                   the whole lake (chunked transfer,
//                                   O(1) memory; ETag/If-None-Match
//                                   keyed by (mutation_epoch,
//                                   index_generation) -> 304)
//   GET  /v1/embedding/{id}  raw embedding vector (cluster-internal)
//   POST /v1/search          {"type": "mlql"|"ann"|"keyword"|"hybrid", ...}
//                            plus the cluster-internal scatter types
//                            "ann_vec" | "keyword_stats" | "hybrid_parts"
//   POST /v1/ingest          {"card": {...}, "artifact_b64": "..."}
//                            (rejected with 409 on a read replica; an
//                            X-Mlake-Idempotency-Key header carrying the
//                            artifact digest makes a routed retry dedup)
//
// Replication endpoints (active when the lake keeps a replication log
// and/or ServerOptions.replication is set — see src/replication/):
//   GET  /v1/replication/log?from=N&max=M    committed log entries
//   GET  /v1/replication/blob/{digest}       artifact bytes (b64)
//   GET  /v1/replication/fingerprint         logical-state fingerprint
//   GET  /v1/replication/seed                re-seed snapshot container
//   POST /v1/replication/ship                leader-pushed log batch
//   POST /v1/replication/promote             replica -> leader
//
// Transport — threading model, admission control (429), deadlines
// (X-Mlake-Deadline-Ms, 504), bounded reads and writes, graceful drain —
// is server::HttpServer (server/http_server.h); LakeServer is the
// handler set above, registered on it.

#include <atomic>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/model_lake.h"
#include "governance/governance.h"
#include "server/batcher.h"
#include "server/http.h"
#include "server/http_server.h"
#include "server/metrics.h"

namespace mlake::server {

/// Seam between the server and the replication subsystem. The
/// replication library links against the server (it follows a leader
/// over HttpClient), so the server can only see it through this
/// interface. All methods must be thread-safe; the implementation must
/// outlive the server.
class ReplicationControl {
 public:
  virtual ~ReplicationControl() = default;
  /// True while this node is a read replica (direct ingest rejected).
  virtual bool IsReplica() const = 0;
  /// Last log seq durably applied on this node (the watermark).
  virtual uint64_t AppliedSeq() const = 0;
  /// The /statsz "replication" block: role, watermark, lag, epoch.
  virtual Json StatszJson() const = 0;
  /// Applies a leader-pushed log batch (ReplicationLogJson shape);
  /// epoch-fenced — a stale leader's ship answers FailedPrecondition.
  /// Returns {"applied_seq": N}.
  virtual Result<Json> Ship(const Json& batch) = 0;
  /// Manual promotion: stop following, durably bump the epoch, start
  /// accepting writes.
  virtual Status Promote() = 0;

  // Watermark-staleness surface (governance reads; defaults describe a
  // node that never lags, so pre-existing implementations stay valid).

  /// Entries this node still trails the leader's last known log seq by
  /// (0 when caught up — but see CaughtUp: before the first completed
  /// sync the lag is unknown and also reads 0).
  virtual uint64_t LagEntries() const { return 0; }
  /// True once this node has completed at least one sync against the
  /// leader and applied everything the leader had. Governance reads on
  /// a replica that is not caught up answer 503 instead of silently
  /// serving stale data.
  virtual bool CaughtUp() const { return true; }
  /// Client back-off to advertise with that 503, in whole seconds —
  /// implementations derive it from the watermark lag and their pull
  /// cadence (governance::RetryAfterSeconds).
  virtual int StaleRetryAfterSeconds() const { return 1; }
};

/// Transport fields (bind address, port, threads, admission limits,
/// keep-alive, deadlines, drain, body cap) come from HttpServerOptions.
struct ServerOptions : HttpServerOptions {
  /// Enables GET /debug/sleep?ms=N (deterministic slow handler used by
  /// the shutdown/admission/deadline tests and nothing else).
  bool enable_debug_endpoints = false;
  /// Coalesces compatible concurrent ann/keyword /v1/search probes
  /// into one batched index probe (see server/batcher.h). Results are
  /// bit-identical to solo execution; only scheduling changes. The env
  /// var MLAKE_TEST_BATCH_WINDOW_US (set by the TSan CI job) overrides
  /// the window and forces batching on.
  bool enable_batching = true;
  /// Upper bound on a batch leader's wait for followers. The leader
  /// waits only if another search of its kind arrived within the last
  /// window; a lone request probes at once. A single closed-loop
  /// client faster than the window still waits on every other request.
  int64_t batch_window_us = 250;
  int max_batch = 16;
  /// Cluster identity. shard_id >= 0 marks this backend as shard
  /// `shard_id` of a `cluster_size`-way digest-sharded lake:
  /// /v1/ingest rejects artifacts whose digest routes to another shard
  /// (a misdirected write would silently fork the lake), and
  /// /v1/heartbeat reports the identity to the router. shard_id < 0 =
  /// standalone server, no guard.
  int shard_id = -1;
  int cluster_size = 0;
  /// Replication seam (see ReplicationControl above). Null on a
  /// standalone server or a pure leader; set on replicas so ingest is
  /// fenced and ship/promote have somewhere to land.
  ReplicationControl* replication = nullptr;
  /// Test/bench seam: extra per-request delay (µs of idle wait, not
  /// CPU) injected at the top of every /v1/search handler. Shared and
  /// atomic so tests and the cluster bench can retune a *running*
  /// server — e.g. slow one shard down so the router's hedged retry
  /// fires deterministically, or model per-shard service time in the
  /// sim_node scaling experiment. Null or <= 0 = no delay.
  std::shared_ptr<std::atomic<int64_t>> test_search_delay_us;
};

/// A running lake server. The lake must outlive the server; the server
/// only ever calls the lake's public (self-locking) API.
class LakeServer {
 public:
  LakeServer(core::ModelLake* lake, ServerOptions options);
  ~LakeServer();

  LakeServer(const LakeServer&) = delete;
  LakeServer& operator=(const LakeServer&) = delete;

  /// Binds, listens and starts serving (see HttpServer::Start).
  Status Start();

  /// Graceful shutdown: stops accepting, lets in-flight requests finish
  /// (bounded by drain_deadline_ms, then force-closes), joins all
  /// threads. Idempotent; also run by the destructor.
  Status Stop();

  /// The bound port (the actual one when options.port was 0). Valid
  /// after Start().
  int port() const { return http_.port(); }

  bool draining() const { return http_.draining(); }

  const ServerOptions& options() const { return options_; }
  const MetricsRegistry& metrics() const { return http_.metrics(); }

  /// The /statsz document (also printed by `mlake serve` on shutdown).
  Json StatszJson() const;

 private:
  /// Registers every endpoint above on http_, in match order.
  void RegisterRoutes();

  HttpResponse HandleHealthz() const;
  /// Cluster heartbeat: shard identity, model count, index generation,
  /// inflight/draining, and the search-family p95 the router's hedging
  /// policy keys off. Admission- and deadline-exempt like /healthz.
  HttpResponse HandleHeartbeat() const;
  /// Raw embedding vector for one model (router-side ann resolve: the
  /// owning shard answers, every other shard 404s).
  HttpResponse HandleEmbedding(const std::string& id) const;
  HttpResponse HandleModelList() const;
  HttpResponse HandleModelGet(const std::string& id) const;
  HttpResponse HandleLineage(const std::string& id) const;
  // Governance handlers (DESIGN.md §15). Each begins with the replica
  // staleness guard below.
  HttpResponse HandleCitation(const HttpRequest& request,
                              const std::string& id) const;
  HttpResponse HandleModelDoc(const std::string& id) const;
  HttpResponse HandleAudit(const std::string& id) const;
  HttpResponse HandleExport(const HttpRequest& request) const;
  /// Governance reads must not silently serve stale data: on a replica
  /// whose watermark trails the leader, fills `*response` with 503 +
  /// Retry-After (derived from the lag) and returns true.
  bool RejectStaleGovernanceRead(HttpResponse* response) const;
  /// Appends ":<kind>" to the metrics label for known search kinds so
  /// /statsz reports a per-kind latency split under "endpoints".
  HttpResponse HandleSearch(RequestContext& ctx) const;
  HttpResponse HandleIngest(const HttpRequest& request) const;
  HttpResponse HandleReplicationLog(const HttpRequest& request) const;
  HttpResponse HandleReplicationBlob(const std::string& digest) const;
  HttpResponse HandleReplicationFingerprint() const;
  HttpResponse HandleReplicationSeed() const;
  HttpResponse HandleReplicationShip(const HttpRequest& request) const;
  HttpResponse HandleReplicationPromote() const;
  HttpResponse HandleDebugSleep(const RequestContext& ctx) const;

  core::ModelLake* lake_;
  ServerOptions options_;
  /// Governance counters (/statsz "governance"); mutable because const
  /// read handlers bump them.
  mutable governance::GovernanceStats governance_stats_;
  /// Search coalescing (null when options_.enable_batching is false).
  std::unique_ptr<SearchBatcher> batcher_;
  HttpServer http_;
};

}  // namespace mlake::server

#endif  // MLAKE_SERVER_SERVER_H_
