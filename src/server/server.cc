#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "common/hash.h"
#include "common/sharding.h"
#include "common/string_util.h"
#include "index/snapshot.h"
#include "storage/model_artifact.h"
#include "versioning/model_graph.h"

namespace mlake::server {

namespace {

Json RankedModelsJson(const std::vector<search::RankedModel>& models) {
  Json arr = Json::MakeArray();
  for (const auto& m : models) {
    Json j = Json::MakeObject();
    j.Set("id", m.id);
    j.Set("score", m.score);
    arr.Append(std::move(j));
  }
  return arr;
}

template <typename Score>
Json ScoredPairsJson(const std::vector<std::pair<std::string, Score>>& hits) {
  Json arr = Json::MakeArray();
  for (const auto& [id, score] : hits) {
    Json j = Json::MakeObject();
    j.Set("id", id);
    j.Set("score", static_cast<double>(score));
    arr.Append(std::move(j));
  }
  return arr;
}

/// Body parse failures are the client's fault: remap the codec's
/// Corruption to InvalidArgument so they surface as 400, not 500.
Status BodyError(const Status& status, const char* what) {
  return Status::InvalidArgument(std::string(what) + ": " + status.message());
}

/// Parses a JSON float array ([0.25, -1.5, ...]) into a vector<float>.
/// Exact round trip: Json::Dump prints doubles with %.17g, and every
/// float widens to a double and narrows back without loss.
Result<std::vector<float>> FloatVecFromJson(const Json& arr,
                                            const char* what) {
  if (!arr.is_array()) {
    return Status::InvalidArgument(std::string(what) +
                                   " must be a float array");
  }
  std::vector<float> vec;
  vec.reserve(arr.size());
  for (const Json& v : arr.AsArray()) {
    if (!v.is_number()) {
      return Status::InvalidArgument(std::string(what) +
                                     " must hold numbers only");
    }
    vec.push_back(static_cast<float>(v.AsDouble()));
  }
  return vec;
}

/// A wire count: a non-negative integer exactly representable in a
/// double (JSON numbers are parsed as doubles).
Result<uint64_t> CountFromJson(const Json& v, const std::string& what) {
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  double d = v.is_number() ? v.AsDouble() : -1.0;
  if (!(d >= 0.0) || d > kMaxExact || std::floor(d) != d) {
    return Status::InvalidArgument(what + " must be a non-negative integer");
  }
  return static_cast<uint64_t>(d);
}

/// Parses the wire form of Bm25Stats ({"live_docs": n, "total_tokens":
/// n, "df": {"term": n, ...}}). Integer-valued throughout, so summed
/// router-side stats arrive bit-exact. Every count must be a
/// non-negative integer and no df may exceed live_docs (a df above it
/// drives idf to log(0)); sums of per-shard live counts always pass.
Result<index::Bm25Stats> Bm25StatsFromJson(const Json& j) {
  if (!j.is_object()) {
    return Status::InvalidArgument("stats must be an object");
  }
  index::Bm25Stats stats;
  if (const Json* v = j.Find("live_docs")) {
    MLAKE_ASSIGN_OR_RETURN(stats.live_docs,
                           CountFromJson(*v, "stats.live_docs"));
  }
  if (const Json* v = j.Find("total_tokens")) {
    MLAKE_ASSIGN_OR_RETURN(stats.total_tokens,
                           CountFromJson(*v, "stats.total_tokens"));
  }
  if (const Json* df = j.Find("df")) {
    if (!df->is_object()) {
      return Status::InvalidArgument("stats.df must be an object");
    }
    for (const auto& [term, count] : df->AsObject()) {
      MLAKE_ASSIGN_OR_RETURN(uint64_t n,
                             CountFromJson(count, "stats.df[" + term + "]"));
      if (n > stats.live_docs) {
        return Status::InvalidArgument("stats.df[" + term +
                                       "] exceeds stats.live_docs");
      }
      stats.df[term] = n;
    }
  }
  return stats;
}

Json Bm25StatsToJson(const index::Bm25Stats& stats) {
  Json out = Json::MakeObject();
  out.Set("live_docs", static_cast<int64_t>(stats.live_docs));
  out.Set("total_tokens", static_cast<int64_t>(stats.total_tokens));
  Json df = Json::MakeObject();
  for (const auto& [term, count] : stats.df) {
    df.Set(term, static_cast<int64_t>(count));
  }
  out.Set("df", std::move(df));
  return out;
}

}  // namespace

LakeServer::LakeServer(core::ModelLake* lake, ServerOptions options)
    : lake_(lake), options_(std::move(options)), http_(options_) {
  // Report the transport's normalized limits (threads, admission).
  static_cast<HttpServerOptions&>(options_) = http_.options();
  // CI hook: force a batch window so the TSan job exercises the
  // coalescing path deterministically.
  if (const char* forced = std::getenv("MLAKE_TEST_BATCH_WINDOW_US")) {
    char* end = nullptr;
    long v = std::strtol(forced, &end, 10);
    if (end != nullptr && *end == '\0' && v > 0) options_.batch_window_us = v;
  }
  if (options_.batch_window_us < 0) options_.batch_window_us = 0;
  if (options_.max_batch <= 0) options_.max_batch = 1;
  BatcherOptions bopts;
  bopts.batch_window_us = options_.batch_window_us;
  bopts.max_batch = static_cast<size_t>(options_.max_batch);
  batcher_ = std::make_unique<SearchBatcher>(lake_, bopts);
  RegisterRoutes();
}

LakeServer::~LakeServer() { (void)Stop(); }

Status LakeServer::Start() { return http_.Start(); }

Status LakeServer::Stop() { return http_.Stop(); }

void LakeServer::RegisterRoutes() {
  // Match order matters: suffix routes (/citation, /doc) precede the
  // bare /v1/models/{id} they would otherwise fall into.
  using Ctx = RequestContext;
  http_.Route("GET", "/healthz", [this](Ctx&) { return HandleHealthz(); },
              /*admission_exempt=*/true);
  http_.Route("GET", "/v1/heartbeat",
              [this](Ctx&) { return HandleHeartbeat(); },
              /*admission_exempt=*/true);
  http_.Route("GET", "/v1/embedding/{id}",
              [this](Ctx& c) { return HandleEmbedding(c.id); });
  http_.Route("GET", "/statsz",
              [this](Ctx&) { return JsonResponse(StatszJson()); });
  http_.Route("GET", "/v1/models", [this](Ctx&) { return HandleModelList(); });
  http_.Route("GET", "/v1/models/{id}/citation",
              [this](Ctx& c) { return HandleCitation(c.request, c.id); });
  http_.Route("GET", "/v1/models/{id}/doc",
              [this](Ctx& c) { return HandleModelDoc(c.id); });
  http_.Route("GET", "/v1/models/{id}",
              [this](Ctx& c) { return HandleModelGet(c.id); });
  http_.Route("GET", "/v1/audit/{id}",
              [this](Ctx& c) { return HandleAudit(c.id); });
  http_.Route("GET", "/v1/export",
              [this](Ctx& c) { return HandleExport(c.request); });
  http_.Route("GET", "/v1/lineage/{id}",
              [this](Ctx& c) { return HandleLineage(c.id); });
  http_.Route("POST", "/v1/search", [this](Ctx& c) { return HandleSearch(c); });
  http_.Route("POST", "/v1/ingest",
              [this](Ctx& c) { return HandleIngest(c.request); });
  http_.Route("GET", "/v1/replication/log",
              [this](Ctx& c) { return HandleReplicationLog(c.request); });
  http_.Route("GET", "/v1/replication/blob/{digest}",
              [this](Ctx& c) { return HandleReplicationBlob(c.id); });
  http_.Route("GET", "/v1/replication/fingerprint",
              [this](Ctx&) { return HandleReplicationFingerprint(); });
  http_.Route("GET", "/v1/replication/seed",
              [this](Ctx&) { return HandleReplicationSeed(); });
  http_.Route("POST", "/v1/replication/ship",
              [this](Ctx& c) { return HandleReplicationShip(c.request); });
  http_.Route("POST", "/v1/replication/promote",
              [this](Ctx&) { return HandleReplicationPromote(); });
  if (options_.enable_debug_endpoints) {
    http_.Route("GET", "/debug/sleep",
                [this](Ctx& c) { return HandleDebugSleep(c); });
  }
}

HttpResponse LakeServer::HandleHealthz() const {
  Json body = Json::MakeObject();
  bool draining = http_.draining();
  body.Set("status", draining ? "draining" : "ok");
  return JsonResponse(std::move(body), draining ? 503 : 200);
}

HttpResponse LakeServer::HandleHeartbeat() const {
  Json body = Json::MakeObject();
  body.Set("shard_id", options_.shard_id);
  body.Set("cluster_size", options_.cluster_size);
  body.Set("models", lake_->NumModels());
  body.Set("index_generation",
           static_cast<int64_t>(lake_->IndexGeneration()));
  body.Set("draining", http_.draining());
  body.Set("inflight", http_.inflight());
  // Replication role, for the router's read routing and failover: a
  // "replica" serves reads (with a watermark), a "leader" also takes
  // writes, a "standalone" node predates replication and does both.
  bool is_replica =
      options_.replication != nullptr && options_.replication->IsReplica();
  body.Set("role", is_replica ? "replica"
                              : (lake_->ReplicationLogEnabled()
                                     ? "leader"
                                     : "standalone"));
  if (lake_->ReplicationLogEnabled()) {
    body.Set("replication_epoch", lake_->ReplicationEpoch());
    body.Set("applied_seq", is_replica
                                ? options_.replication->AppliedSeq()
                                : lake_->ReplicationLastSeq());
  }
  // The search-family p95 (all "POST /v1/search:*" kinds merged) is
  // what the router's hedging policy keys its per-shard delay off.
  EndpointStats search =
      http_.metrics().AggregateSnapshot("POST /v1/search");
  body.Set("search_requests", search.requests);
  body.Set("search_p95_us", search.latency.PercentileUs(95));
  return JsonResponse(std::move(body));
}

HttpResponse LakeServer::HandleEmbedding(const std::string& id) const {
  auto vec = lake_->EmbeddingFor(id);
  if (!vec.ok()) return ErrorResponse(vec.status());
  Json arr = Json::MakeArray();
  for (float f : vec.ValueUnsafe()) {
    arr.Append(Json(static_cast<double>(f)));
  }
  Json body = Json::MakeObject();
  body.Set("id", id);
  body.Set("embedding", std::move(arr));
  return JsonResponse(std::move(body));
}

Json LakeServer::StatszJson() const {
  Json out = Json::MakeObject();
  out.Set("models", lake_->NumModels());

  // Quarantine visibility (PR 4): degraded ids and the last recovery.
  std::vector<std::string> degraded = lake_->DegradedModels();
  Json degraded_json = Json::MakeArray();
  for (const std::string& d : degraded) degraded_json.Append(Json(d));
  out.Set("degraded_models", degraded.size());
  out.Set("degraded_model_ids", std::move(degraded_json));
  out.Set("recovery", lake_->recovery().ToJson());

  out.Set("caches", lake_->CacheStatsJson());
  out.Set("index", lake_->IndexStatsJson());
  out.Set("planner", lake_->PlannerStatsJson());

  out.Set("batching", batcher_->StatsJson());

  out.Set("server", http_.StatsJson());

  if (options_.replication != nullptr) {
    out.Set("replication", options_.replication->StatszJson());
  } else if (lake_->ReplicationLogEnabled()) {
    Json repl = Json::MakeObject();
    repl.Set("role", "leader");
    repl.Set("epoch", lake_->ReplicationEpoch());
    repl.Set("last_seq", lake_->ReplicationLastSeq());
    out.Set("replication", std::move(repl));
  }

  out.Set("governance", governance_stats_.ToJson());

  out.Set("endpoints", http_.metrics().ToJson());
  return out;
}

HttpResponse LakeServer::HandleModelList() const {
  std::vector<std::string> ids = lake_->ListModels();
  Json arr = Json::MakeArray();
  for (const std::string& model_id : ids) {
    Json entry = Json::MakeObject();
    entry.Set("id", model_id);
    auto card = lake_->CardFor(model_id);
    entry.Set("task", card.ok() ? card.ValueUnsafe().task : "");
    entry.Set("degraded", lake_->IsDegraded(model_id));
    arr.Append(std::move(entry));
  }
  Json body = Json::MakeObject();
  body.Set("count", ids.size());
  body.Set("models", std::move(arr));
  return JsonResponse(std::move(body));
}

HttpResponse LakeServer::HandleModelGet(const std::string& id) const {
  auto card = lake_->CardFor(id);
  if (!card.ok()) return ErrorResponse(card.status());
  Json body = Json::MakeObject();
  body.Set("id", id);
  body.Set("card", card.ValueUnsafe().ToJson());
  body.Set("degraded", lake_->IsDegraded(id));
  auto lineage = lake_->Lineage(id);
  body.Set("lineage", lineage.ok() ? lineage.MoveValueUnsafe() : Json());
  return JsonResponse(std::move(body));
}

HttpResponse LakeServer::HandleLineage(const std::string& id) const {
  auto lineage = lake_->Lineage(id);
  if (!lineage.ok()) return ErrorResponse(lineage.status());
  return JsonResponse(lineage.MoveValueUnsafe());
}

bool LakeServer::RejectStaleGovernanceRead(HttpResponse* response) const {
  if (options_.replication == nullptr) return false;
  if (!options_.replication->IsReplica()) return false;
  if (options_.replication->CaughtUp()) return false;
  governance_stats_.stale_rejected.fetch_add(1, std::memory_order_relaxed);
  uint64_t lag = options_.replication->LagEntries();
  *response = ErrorResponse(Status::Unavailable(
      "replica not caught up (lag " + std::to_string(lag) +
      " entries); retry against this node shortly or read the leader"));
  response->headers.emplace_back(
      "Retry-After",
      std::to_string(options_.replication->StaleRetryAfterSeconds()));
  return true;
}

HttpResponse LakeServer::HandleCitation(const HttpRequest& request,
                                        const std::string& id) const {
  HttpResponse stale;
  if (RejectStaleGovernanceRead(&stale)) return stale;
  auto doc = governance::CitationDoc(*lake_, id);
  if (!doc.ok()) return ErrorResponse(doc.status());
  governance_stats_.citations.fetch_add(1, std::memory_order_relaxed);
  std::string format = request.QueryParam("format", "json");
  if (format == "text" || format == "bibtex") {
    HttpResponse response;
    response.content_type = "text/plain; charset=utf-8";
    response.body = doc.ValueUnsafe().GetString(format);
    response.body.push_back('\n');
    return response;
  }
  if (format != "json") {
    return ErrorResponse(Status::InvalidArgument(
        "format must be one of json, text, bibtex; got \"" + format + "\""));
  }
  return JsonResponse(doc.MoveValueUnsafe());
}

HttpResponse LakeServer::HandleModelDoc(const std::string& id) const {
  HttpResponse stale;
  if (RejectStaleGovernanceRead(&stale)) return stale;
  auto doc = governance::GeneratedDoc(*lake_, id);
  if (!doc.ok()) return ErrorResponse(doc.status());
  governance_stats_.docs.fetch_add(1, std::memory_order_relaxed);
  return JsonResponse(doc.MoveValueUnsafe());
}

HttpResponse LakeServer::HandleAudit(const std::string& id) const {
  HttpResponse stale;
  if (RejectStaleGovernanceRead(&stale)) return stale;
  auto doc = governance::AuditDoc(*lake_, id);
  if (!doc.ok()) return ErrorResponse(doc.status());
  governance_stats_.audits.fetch_add(1, std::memory_order_relaxed);
  return JsonResponse(doc.MoveValueUnsafe());
}

HttpResponse LakeServer::HandleExport(const HttpRequest& request) const {
  HttpResponse stale;
  if (RejectStaleGovernanceRead(&stale)) return stale;

  // Conditional fast path: the change key is (mutation_epoch,
  // index_generation) — cheap to read without opening a snapshot. If
  // the client's tag still matches, nothing observable changed since
  // its last pull.
  std::string current_etag =
      governance::ExportEtag(lake_->MutationEpoch(), lake_->IndexGeneration());
  std::string_view if_none_match = request.Header("if-none-match");
  if (!if_none_match.empty() && if_none_match == current_etag) {
    governance_stats_.export_not_modified.fetch_add(
        1, std::memory_order_relaxed);
    HttpResponse response;
    response.status = 304;
    response.content_type.clear();
    response.headers.emplace_back("ETag", current_etag);
    return response;
  }

  // The iterator pins a consistent snapshot (shared lock) and carries
  // the change key it observed at acquisition, so the tag we send
  // always describes the body we stream — even if a writer slips in
  // between the cheap read above and here.
  auto iterator = std::shared_ptr<core::ModelLake::ExportIterator>(
      lake_->OpenExport());
  governance_stats_.exports.fetch_add(1, std::memory_order_relaxed);

  HttpResponse response;
  response.content_type = "application/x-ndjson";
  response.headers.emplace_back(
      "ETag", governance::ExportEtag(iterator->mutation_epoch(),
                                     iterator->index_generation()));
  response.streamer =
      governance::MakeExportStreamer(std::move(iterator), &governance_stats_);
  return response;
}

HttpResponse LakeServer::HandleSearch(RequestContext& ctx) const {
  // Test/bench seam: idle (non-CPU) delay modeling per-shard service
  // time, or slowing one shard so the router's hedge fires.
  if (options_.test_search_delay_us != nullptr) {
    int64_t delay =
        options_.test_search_delay_us->load(std::memory_order_relaxed);
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
    }
  }
  auto parsed = Json::Parse(ctx.request.body);
  if (!parsed.ok()) {
    return ErrorResponse(BodyError(parsed.status(), "malformed JSON body"));
  }
  const Json& body = parsed.ValueUnsafe();
  if (!body.is_object()) {
    return ErrorResponse(Status::InvalidArgument("body must be an object"));
  }
  std::string type = body.GetString("type", "mlql");
  if (type == "mlql" || type == "ann" || type == "keyword" ||
      type == "hybrid" || type == "ann_vec" || type == "keyword_stats" ||
      type == "hybrid_parts") {
    // Per-kind latency split in /statsz ("POST /v1/search:ann", ...);
    // unknown types stay under the bare route to bound cardinality.
    ctx.label.append(":").append(type);
  }
  size_t k = static_cast<size_t>(body.GetInt64("k", 5));
  if (k == 0 || k > 10000) {
    return ErrorResponse(Status::InvalidArgument("k must be in [1, 10000]"));
  }

  Json out = Json::MakeObject();
  out.Set("type", type);
  if (type == "mlql") {
    std::string query = body.GetString("query");
    if (query.empty()) {
      return ErrorResponse(
          Status::InvalidArgument("mlql search requires \"query\""));
    }
    // Cluster-internal: a scatter leg may carry an overlay — hint
    // embeddings for off-shard query models plus global BM25 stats —
    // so this shard scores its documents exactly as a merged lake
    // would.
    const Json* overlay_json = body.Find("overlay");
    search::SearchOverlay overlay;
    if (overlay_json != nullptr) {
      if (!overlay_json->is_object()) {
        return ErrorResponse(
            Status::InvalidArgument("overlay must be an object"));
      }
      if (const Json* embs = overlay_json->Find("embeddings");
          embs != nullptr && embs->is_object()) {
        for (const auto& [emb_id, arr] : embs->AsObject()) {
          auto vec = FloatVecFromJson(arr, "overlay embedding");
          if (!vec.ok()) return ErrorResponse(vec.status());
          overlay.embeddings[emb_id] = vec.MoveValueUnsafe();
        }
      }
      if (const Json* bm25 = overlay_json->Find("bm25");
          bm25 != nullptr && bm25->is_object()) {
        const Json* stats_json = bm25->Find("stats");
        if (stats_json == nullptr) {
          return ErrorResponse(
              Status::InvalidArgument("overlay bm25 requires \"stats\""));
        }
        auto stats = Bm25StatsFromJson(*stats_json);
        if (!stats.ok()) return ErrorResponse(stats.status());
        overlay.has_bm25 = true;
        overlay.bm25_text = bm25->GetString("text");
        overlay.bm25_stats = stats.MoveValueUnsafe();
      }
    }
    auto result = lake_->Query(query, overlay);
    if (!result.ok()) return ErrorResponse(result.status());
    out.Set("plan", result.ValueUnsafe().plan);
    out.Set("models", RankedModelsJson(result.ValueUnsafe().models));
  } else if (type == "ann") {
    std::string query_id = body.GetString("id");
    if (query_id.empty()) {
      return ErrorResponse(
          Status::InvalidArgument("ann search requires \"id\""));
    }
    auto result = batcher_->RelatedModels(query_id, k);
    if (!result.ok()) return ErrorResponse(result.status());
    out.Set("models", RankedModelsJson(result.ValueUnsafe()));
  } else if (type == "keyword") {
    std::string query = body.GetString("query");
    if (query.empty()) {
      return ErrorResponse(
          Status::InvalidArgument("keyword search requires \"query\""));
    }
    // Cluster-internal: with global "stats" attached, this shard's
    // documents score exactly as they would in the merged corpus
    // (bypasses the batcher — stats-carrying probes don't coalesce).
    if (const Json* stats_json = body.Find("stats"); stats_json != nullptr) {
      auto stats = Bm25StatsFromJson(*stats_json);
      if (!stats.ok()) return ErrorResponse(stats.status());
      auto result =
          lake_->KeywordScoresWithStats(query, k, stats.ValueUnsafe());
      if (!result.ok()) return ErrorResponse(result.status());
      out.Set("models", ScoredPairsJson(result.ValueUnsafe()));
      return JsonResponse(std::move(out));
    }
    auto result = batcher_->KeywordScores(query, k);
    if (!result.ok()) return ErrorResponse(result.status());
    out.Set("models", ScoredPairsJson(result.ValueUnsafe()));
  } else if (type == "keyword_stats") {
    // Cluster-internal phase 1 of distributed BM25: this shard's
    // integer contribution to the query's corpus statistics.
    std::string query = body.GetString("query");
    if (query.empty()) {
      return ErrorResponse(
          Status::InvalidArgument("keyword_stats requires \"query\""));
    }
    out.Set("stats", Bm25StatsToJson(lake_->CollectBm25Stats(query)));
  } else if (type == "ann_vec") {
    // Cluster-internal: ann search by raw vector (the router resolves
    // the query model's embedding on its owning shard first).
    const Json* vec_json = body.Find("vec");
    if (vec_json == nullptr) {
      return ErrorResponse(
          Status::InvalidArgument("ann_vec search requires \"vec\""));
    }
    auto vec = FloatVecFromJson(*vec_json, "vec");
    if (!vec.ok()) return ErrorResponse(vec.status());
    auto result = lake_->RelatedModelsByVector(
        vec.ValueUnsafe(), k, body.GetString("exclude_id"));
    if (!result.ok()) return ErrorResponse(result.status());
    out.Set("models", RankedModelsJson(result.ValueUnsafe()));
  } else if (type == "hybrid_parts") {
    // Cluster-internal: this shard's WHERE-filtered candidates with
    // their dot products against the query vector — the raw material
    // the router fuses with the global keyword ranking (RRF).
    std::string query = body.GetString("query");
    const Json* vec_json = body.Find("vec");
    if (query.empty() || vec_json == nullptr) {
      return ErrorResponse(Status::InvalidArgument(
          "hybrid_parts requires \"query\" and \"vec\""));
    }
    auto vec = FloatVecFromJson(*vec_json, "vec");
    if (!vec.ok()) return ErrorResponse(vec.status());
    auto parts = lake_->HybridParts(query, vec.ValueUnsafe());
    if (!parts.ok()) return ErrorResponse(parts.status());
    Json arr = Json::MakeArray();
    for (const search::HybridCandidate& c : parts.ValueUnsafe()) {
      Json j = Json::MakeObject();
      j.Set("id", c.id);
      if (c.has_dot) j.Set("dot", c.dot);
      arr.Append(std::move(j));
    }
    out.Set("candidates", std::move(arr));
  } else if (type == "hybrid") {
    std::string query = body.GetString("query");
    std::string query_id = body.GetString("id");
    if (query.empty() || query_id.empty()) {
      return ErrorResponse(Status::InvalidArgument(
          "hybrid search requires \"query\" and \"id\""));
    }
    auto result = lake_->HybridSearch(query, query_id, k);
    if (!result.ok()) return ErrorResponse(result.status());
    out.Set("models", RankedModelsJson(result.ValueUnsafe()));
  } else {
    return ErrorResponse(Status::InvalidArgument(
        "unknown search type \"" + type +
        "\" (want mlql | ann | keyword | hybrid | ann_vec | "
        "keyword_stats | hybrid_parts)"));
  }
  return JsonResponse(std::move(out));
}

HttpResponse LakeServer::HandleIngest(const HttpRequest& request) const {
  // A read replica's state is exactly the leader's log; a direct write
  // here would fork it. Promote the node first.
  if (options_.replication != nullptr && options_.replication->IsReplica()) {
    return ErrorResponse(Status::FailedPrecondition(
        "read replica: ingest via the leader, or promote this node"));
  }
  auto parsed = Json::Parse(request.body);
  if (!parsed.ok()) {
    return ErrorResponse(BodyError(parsed.status(), "malformed JSON body"));
  }
  const Json& body = parsed.ValueUnsafe();
  if (!body.is_object()) {
    return ErrorResponse(Status::InvalidArgument("body must be an object"));
  }
  const Json* card_json = body.Find("card");
  if (card_json == nullptr) {
    return ErrorResponse(Status::InvalidArgument("ingest requires \"card\""));
  }
  auto card = metadata::ModelCard::FromJson(*card_json);
  if (!card.ok()) {
    return ErrorResponse(BodyError(card.status(), "malformed card"));
  }
  std::string artifact_b64 = body.GetString("artifact_b64");
  if (artifact_b64.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("ingest requires \"artifact_b64\""));
  }
  auto bytes = Base64Decode(artifact_b64);
  if (!bytes.ok()) {
    return ErrorResponse(BodyError(bytes.status(), "malformed artifact_b64"));
  }
  std::string digest = Sha256::HexDigest(bytes.ValueUnsafe());
  // Idempotency: a router (or any client) that could not tell whether a
  // half-delivered ingest applied retries with the artifact digest as
  // X-Mlake-Idempotency-Key. If the model already exists with exactly
  // these bytes, answer success instead of AlreadyExists — the retry
  // and the original are the same logical request.
  if (std::string_view key = request.Header("x-mlake-idempotency-key");
      !key.empty() && key == digest) {
    auto existing = lake_->ArtifactDigest(card.ValueUnsafe().model_id);
    if (existing.ok() && existing.ValueUnsafe() == digest) {
      Json out = Json::MakeObject();
      out.Set("id", card.ValueUnsafe().model_id);
      out.Set("deduped", true);
      return JsonResponse(std::move(out));
    }
  }
  // Shard guard: in a cluster a model lives on the shard its content
  // digest routes to. A misdirected write would fork the lake (the
  // router could never find the model again), so reject it here — the
  // router retries against the owner.
  if (options_.shard_id >= 0 && options_.cluster_size > 1) {
    uint64_t owner = ShardSlotForDigest(
        digest, static_cast<uint64_t>(options_.cluster_size));
    if (owner != static_cast<uint64_t>(options_.shard_id)) {
      return ErrorResponse(Status::FailedPrecondition(
          "artifact digest routes to shard " + std::to_string(owner) +
          ", not this shard (" + std::to_string(options_.shard_id) + ")"));
    }
  }
  auto artifact = storage::ParseArtifact(bytes.ValueUnsafe());
  if (!artifact.ok()) {
    return ErrorResponse(BodyError(artifact.status(), "malformed artifact"));
  }
  auto model = storage::ModelFromArtifact(artifact.ValueUnsafe());
  if (!model.ok()) {
    return ErrorResponse(BodyError(model.status(), "artifact has no model"));
  }
  auto ingested = lake_->IngestModel(*model.ValueUnsafe(), card.ValueUnsafe());
  if (!ingested.ok()) return ErrorResponse(ingested.status());

  Json out = Json::MakeObject();
  out.Set("id", ingested.ValueUnsafe());

  // Optional one-edge lineage claim: {"parent": ..., "edge_type": ...}.
  // The model is already durably ingested at this point, so an edge
  // failure is reported in-band instead of failing the request.
  std::string parent = body.GetString("parent");
  if (!parent.empty()) {
    auto type =
        versioning::EdgeTypeFromString(body.GetString("edge_type", "finetune"));
    Status edge_status =
        type.ok()
            ? lake_->RecordEdge({parent, ingested.ValueUnsafe(),
                                 type.ValueUnsafe(), Json(), 1.0})
            : type.status();
    out.Set("edge_recorded", edge_status.ok());
    if (!edge_status.ok()) out.Set("edge_error", edge_status.ToString());
  }
  return JsonResponse(std::move(out));
}

HttpResponse LakeServer::HandleReplicationLog(
    const HttpRequest& request) const {
  char* end = nullptr;
  uint64_t from = std::strtoull(request.QueryParam("from", "1").c_str(),
                                &end, 10);
  if (from == 0) from = 1;
  uint64_t max = std::strtoull(request.QueryParam("max", "64").c_str(),
                               &end, 10);
  if (max == 0 || max > 4096) max = 64;
  auto out = lake_->ReplicationLogJson(from, static_cast<size_t>(max));
  if (!out.ok()) return ErrorResponse(out.status());
  return JsonResponse(out.MoveValueUnsafe());
}

HttpResponse LakeServer::HandleReplicationBlob(
    const std::string& digest) const {
  auto bytes = lake_->ReadBlob(digest);
  if (!bytes.ok()) return ErrorResponse(bytes.status());
  Json out = Json::MakeObject();
  out.Set("digest", digest);
  out.Set("bytes_b64", Base64Encode(bytes.ValueUnsafe()));
  return JsonResponse(std::move(out));
}

HttpResponse LakeServer::HandleReplicationFingerprint() const {
  if (!lake_->ReplicationLogEnabled()) {
    return ErrorResponse(Status::FailedPrecondition(
        "replication log disabled on this lake"));
  }
  // last_seq rides along so a replica only compares fingerprints when
  // its watermark has caught up to the state the fingerprint describes.
  Json out = Json::MakeObject();
  out.Set("fingerprint", lake_->ReplicationFingerprint());
  out.Set("epoch", lake_->ReplicationEpoch());
  out.Set("last_seq", lake_->ReplicationLastSeq());
  return JsonResponse(std::move(out));
}

HttpResponse LakeServer::HandleReplicationSeed() const {
  auto manifest = lake_->ReplicationSeedJson();
  if (!manifest.ok()) return ErrorResponse(manifest.status());
  // Framed in the PR-6 snapshot container (magic, CRC'd TOC), so the
  // replica validates integrity before trusting a multi-megabyte seed.
  uint64_t upto = static_cast<uint64_t>(
      manifest.ValueUnsafe().GetInt64("upto_seq", 0));
  index::SnapshotWriter writer(index::SnapshotKind::kReplicationSeed, upto);
  std::string dump = manifest.ValueUnsafe().Dump();
  writer.AddSection("manifest", dump.data(), dump.size());
  auto container = writer.Serialize();
  if (!container.ok()) return ErrorResponse(container.status());
  Json out = Json::MakeObject();
  out.Set("upto_seq", Json(upto));
  out.Set("container_b64", Base64Encode(container.ValueUnsafe()));
  return JsonResponse(std::move(out));
}

HttpResponse LakeServer::HandleReplicationShip(
    const HttpRequest& request) const {
  if (options_.replication == nullptr) {
    return ErrorResponse(Status::FailedPrecondition(
        "not a replica: nothing accepts shipped log entries here"));
  }
  auto parsed = Json::Parse(request.body);
  if (!parsed.ok()) {
    return ErrorResponse(BodyError(parsed.status(), "malformed JSON body"));
  }
  auto out = options_.replication->Ship(parsed.ValueUnsafe());
  if (!out.ok()) return ErrorResponse(out.status());
  return JsonResponse(out.MoveValueUnsafe());
}

HttpResponse LakeServer::HandleReplicationPromote() const {
  if (options_.replication == nullptr) {
    return ErrorResponse(Status::FailedPrecondition(
        "not a replica: already " +
        std::string(lake_->ReplicationLogEnabled() ? "a leader"
                                                   : "standalone")));
  }
  Status promoted = options_.replication->Promote();
  if (!promoted.ok()) return ErrorResponse(promoted);
  Json out = Json::MakeObject();
  out.Set("role", "leader");
  out.Set("epoch", lake_->ReplicationEpoch());
  out.Set("applied_seq", options_.replication->AppliedSeq());
  return JsonResponse(std::move(out));
}

HttpResponse LakeServer::HandleDebugSleep(const RequestContext& ctx) const {
  using Clock = std::chrono::steady_clock;
  long ms =
      std::strtol(ctx.request.QueryParam("ms", "100").c_str(), nullptr, 10);
  if (ms < 0) ms = 0;
  if (ms > 10000) ms = 10000;
  auto wake = Clock::now() + std::chrono::milliseconds(ms);
  // Sliced sleep so an expired deadline — or a severed connection (the
  // drain deadline's force-close) — is noticed promptly mid-nap.
  while (Clock::now() < wake) {
    if (ctx.has_deadline && Clock::now() >= ctx.deadline) {
      return ErrorResponse(
          Status::DeadlineExceeded("deadline expired while sleeping"));
    }
    if (ctx.ConnectionLost()) {
      return ErrorResponse(Status::Unavailable("connection severed"));
    }
    auto next = std::min(wake, Clock::now() + std::chrono::milliseconds(5));
    std::this_thread::sleep_until(next);
  }
  Json body = Json::MakeObject();
  body.Set("slept_ms", static_cast<int64_t>(ms));
  return JsonResponse(std::move(body));
}

}  // namespace mlake::server
