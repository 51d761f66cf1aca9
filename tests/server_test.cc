#include "server/server.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "nn/trainer.h"
#include "server/client.h"
#include "server/http.h"
#include "storage/model_artifact.h"

namespace mlake::server {
namespace {

constexpr int64_t kDim = 16;
constexpr int64_t kClasses = 4;

/// One live server over a small lake (3 models, one finetune edge),
/// shared across the endpoint tests — training models is the slow part.
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = MakeTempDir("mlake-server").ValueOrDie();
    core::LakeOptions options;
    options.root = dir_;
    options.input_dim = kDim;
    options.num_classes = kClasses;
    options.probe_count = 12;
    lake_ = core::ModelLake::Open(options).MoveValueUnsafe().release();

    auto model_a = Train("sum", "legal", 1);
    auto model_b = Train("sum", "legal", 2);
    auto model_c = Train("mean", "news", 3);
    ASSERT_TRUE(
        lake_->IngestModel(*model_a, Card("base-legal", "sum")).ok());
    ASSERT_TRUE(
        lake_->IngestModel(*model_b, Card("ft-legal", "sum")).ok());
    ASSERT_TRUE(lake_->IngestModel(*model_c, Card("news-mean", "mean")).ok());
    versioning::VersionEdge edge;
    edge.parent = "base-legal";
    edge.child = "ft-legal";
    edge.type = versioning::EdgeType::kFinetune;
    ASSERT_TRUE(lake_->RecordEdge(edge).ok());

    ServerOptions server_options;
    server_options.threads = 4;
    server_options.enable_debug_endpoints = true;
    server_ = new LakeServer(lake_, server_options);
    ASSERT_TRUE(server_->Start().ok());
  }

  static void TearDownTestSuite() {
    delete server_;
    server_ = nullptr;
    delete lake_;
    lake_ = nullptr;
    ASSERT_TRUE(RemoveAll(dir_).ok());
  }

  // Public: the DegradedReadsTest fixture below builds its lake from
  // the same trained-model helpers.
 public:
  static std::unique_ptr<nn::Model> Train(const std::string& family,
                                          const std::string& domain,
                                          uint64_t seed) {
    nn::TaskSpec spec;
    spec.family_id = family;
    spec.domain_id = domain;
    spec.dim = kDim;
    spec.num_classes = kClasses;
    Rng rng(seed);
    nn::Dataset data = nn::SyntheticTask::Make(spec).Sample(96, &rng);
    auto model = nn::BuildModel(nn::MlpSpec(kDim, {16}, kClasses), &rng)
                     .MoveValueUnsafe();
    nn::TrainConfig config;
    config.epochs = 5;
    MLAKE_CHECK(nn::Train(model.get(), data, config).ok());
    return model;
  }

  static metadata::ModelCard Card(const std::string& id,
                                  const std::string& task) {
    metadata::ModelCard card;
    card.model_id = id;
    card.name = id;
    card.task = task;
    card.training_datasets = {task + "/synthetic"};
    card.creator = "server-test";
    return card;
  }

 protected:
  /// A valid ingest body (fresh model) as the HTTP API wants it.
  static std::string IngestBody(const std::string& id, uint64_t seed,
                                const std::string& extra_fields = "") {
    auto model = Train("sum", "legal", seed);
    storage::ModelArtifact artifact =
        storage::ArtifactFromModel(*model, Json::MakeObject());
    std::string bytes = storage::SerializeArtifact(artifact);
    Json body = Json::MakeObject();
    body.Set("card", Card(id, "sum").ToJson());
    body.Set("artifact_b64", Base64Encode(bytes));
    std::string dump = body.Dump();
    if (!extra_fields.empty()) {
      dump.back() = ',';  // splice extra members into the object
      dump += extra_fields + "}";
    }
    return dump;
  }

  HttpClient Client() { return HttpClient("127.0.0.1", server_->port()); }

  static std::string dir_;
  static core::ModelLake* lake_;
  static LakeServer* server_;
};

std::string ServerTest::dir_;
core::ModelLake* ServerTest::lake_ = nullptr;
LakeServer* ServerTest::server_ = nullptr;

TEST_F(ServerTest, Healthz) {
  auto client = Client();
  auto response = client.Get("/healthz");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.ValueUnsafe().status, 200);
  auto body = Json::Parse(response.ValueUnsafe().body).ValueOrDie();
  EXPECT_EQ(body.GetString("status"), "ok");
}

TEST_F(ServerTest, ModelList) {
  auto client = Client();
  auto response = client.Get("/v1/models");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.ValueUnsafe().status, 200);
  auto body = Json::Parse(response.ValueUnsafe().body).ValueOrDie();
  EXPECT_GE(body.GetInt64("count"), 3);
  bool saw_base = false;
  for (const Json& entry : body.Find("models")->AsArray()) {
    if (entry.GetString("id") == "base-legal") {
      saw_base = true;
      EXPECT_EQ(entry.GetString("task"), "sum");
      EXPECT_FALSE(entry.GetBool("degraded", true));
    }
  }
  EXPECT_TRUE(saw_base);
}

TEST_F(ServerTest, ModelGetWithLineage) {
  auto client = Client();
  auto response = client.Get("/v1/models/ft-legal");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.ValueUnsafe().status, 200);
  auto body = Json::Parse(response.ValueUnsafe().body).ValueOrDie();
  EXPECT_EQ(body.GetString("id"), "ft-legal");
  const Json* card = body.Find("card");
  ASSERT_NE(card, nullptr);
  EXPECT_EQ(card->GetString("task"), "sum");
  const Json* lineage = body.Find("lineage");
  ASSERT_NE(lineage, nullptr);
  ASSERT_TRUE(lineage->is_object());
  const Json* parents = lineage->Find("parents");
  ASSERT_NE(parents, nullptr);
  ASSERT_EQ(parents->size(), 1u);
  EXPECT_EQ(parents->AsArray()[0].AsString(), "base-legal");
}

TEST_F(ServerTest, LineageEndpoint) {
  auto client = Client();
  auto response = client.Get("/v1/lineage/base-legal");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.ValueUnsafe().status, 200);
  auto body = Json::Parse(response.ValueUnsafe().body).ValueOrDie();
  EXPECT_EQ(body.GetString("id"), "base-legal");
  const Json* children = body.Find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->size(), 1u);
  EXPECT_EQ(children->AsArray()[0].AsString(), "ft-legal");
  const Json* edges = body.Find("edges");
  ASSERT_NE(edges, nullptr);
  ASSERT_GE(edges->size(), 1u);
  EXPECT_EQ(edges->AsArray()[0].GetString("type"), "finetune");
}

TEST_F(ServerTest, NotFoundAnswers) {
  auto client = Client();
  // Unknown model: NotFound from the lake.
  auto missing = client.Get("/v1/models/no-such-model");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.ValueUnsafe().status, 404);
  auto body = Json::Parse(missing.ValueUnsafe().body).ValueOrDie();
  EXPECT_EQ(body.Find("error")->GetString("code"), "NotFound");

  // Unknown route: NotFound from the router.
  auto unrouted = client.Get("/v2/nope");
  ASSERT_TRUE(unrouted.ok());
  EXPECT_EQ(unrouted.ValueUnsafe().status, 404);

  // Wrong method on a known path is also unrouted.
  auto wrong_method = client.Post("/v1/models", "{}");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method.ValueUnsafe().status, 404);
}

TEST_F(ServerTest, SearchMlql) {
  auto client = Client();
  auto response = client.Post(
      "/v1/search",
      R"({"type": "mlql", "query": "FIND MODELS WHERE task = 'sum' LIMIT 10"})");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.ValueUnsafe().status, 200)
      << response.ValueUnsafe().body;
  auto body = Json::Parse(response.ValueUnsafe().body).ValueOrDie();
  EXPECT_EQ(body.GetString("type"), "mlql");
  const Json* models = body.Find("models");
  ASSERT_NE(models, nullptr);
  EXPECT_EQ(models->size(), 2u);  // base-legal + ft-legal, not news-mean
}

TEST_F(ServerTest, SearchAnnKeywordHybrid) {
  auto client = Client();
  auto ann = client.Post("/v1/search",
                         R"({"type": "ann", "id": "base-legal", "k": 2})");
  ASSERT_TRUE(ann.ok());
  ASSERT_EQ(ann.ValueUnsafe().status, 200) << ann.ValueUnsafe().body;
  auto ann_body = Json::Parse(ann.ValueUnsafe().body).ValueOrDie();
  ASSERT_GE(ann_body.Find("models")->size(), 1u);
  // Every hit carries an id and a numeric score.
  for (const Json& hit : ann_body.Find("models")->AsArray()) {
    EXPECT_FALSE(hit.GetString("id").empty());
    EXPECT_TRUE(hit.Find("score")->is_number());
  }

  auto keyword = client.Post(
      "/v1/search", R"({"type": "keyword", "query": "sum", "k": 5})");
  ASSERT_TRUE(keyword.ok());
  EXPECT_EQ(keyword.ValueUnsafe().status, 200) << keyword.ValueUnsafe().body;

  auto hybrid = client.Post(
      "/v1/search",
      R"({"type": "hybrid", "query": "sum", "id": "base-legal", "k": 3})");
  ASSERT_TRUE(hybrid.ok());
  EXPECT_EQ(hybrid.ValueUnsafe().status, 200) << hybrid.ValueUnsafe().body;
}

TEST_F(ServerTest, SearchRejectsBadBodies) {
  auto client = Client();
  // Malformed JSON is the client's fault: 400, not a 500 from the codec.
  auto bad_json = client.Post("/v1/search", "{not json");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_EQ(bad_json.ValueUnsafe().status, 400);
  auto body = Json::Parse(bad_json.ValueUnsafe().body).ValueOrDie();
  EXPECT_EQ(body.Find("error")->GetString("code"), "InvalidArgument");

  auto bad_type = client.Post("/v1/search", R"({"type": "psychic"})");
  ASSERT_TRUE(bad_type.ok());
  EXPECT_EQ(bad_type.ValueUnsafe().status, 400);

  auto bad_k = client.Post("/v1/search",
                           R"({"type": "keyword", "query": "x", "k": 0})");
  ASSERT_TRUE(bad_k.ok());
  EXPECT_EQ(bad_k.ValueUnsafe().status, 400);

  auto missing_id = client.Post("/v1/search", R"({"type": "ann"})");
  ASSERT_TRUE(missing_id.ok());
  EXPECT_EQ(missing_id.ValueUnsafe().status, 400);

  auto unknown_ann_id = client.Post(
      "/v1/search", R"({"type": "ann", "id": "no-such-model"})");
  ASSERT_TRUE(unknown_ann_id.ok());
  EXPECT_EQ(unknown_ann_id.ValueUnsafe().status, 404);
}

TEST_F(ServerTest, SearchRejectsBadBm25Stats) {
  auto client = Client();
  auto status_of = [&](const std::string& body) {
    auto response = client.Post("/v1/search", body);
    EXPECT_TRUE(response.ok());
    return response.ok() ? response.ValueUnsafe().status : -1;
  };
  auto keyword = [](const std::string& stats) {
    return R"({"type": "keyword", "query": "sum", "k": 5, "stats": )" +
           stats + "}";
  };
  // Well-formed stats, as a router would sum them, are served.
  EXPECT_EQ(status_of(keyword(
                R"({"live_docs": 3, "total_tokens": 30, "df": {"sum": 2}})")),
            200);
  // df above live_docs would drive idf to log(0): every score -inf.
  EXPECT_EQ(status_of(keyword(
                R"({"live_docs": 1, "total_tokens": 9, "df": {"sum": 1e18}})")),
            400);
  EXPECT_EQ(status_of(keyword(R"({"live_docs": -3, "total_tokens": 30})")),
            400);
  EXPECT_EQ(status_of(keyword(
                R"({"live_docs": 3, "total_tokens": 30.5, "df": {}})")),
            400);
  EXPECT_EQ(status_of(keyword(
                R"({"live_docs": 3, "total_tokens": 30, "df": {"sum": 1.5}})")),
            400);
  EXPECT_EQ(status_of(keyword(
                R"({"live_docs": 3, "total_tokens": 30, "df": {"sum": "2"}})")),
            400);
  EXPECT_EQ(status_of(keyword(R"({"live_docs": 3, "df": [2]})")), 400);
  // The MLQL overlay's stats go through the same check.
  EXPECT_EQ(
      status_of(
          R"j({"type": "mlql", "query": "FIND MODELS RANK BY keyword('sum')",)j"
          R"j( "overlay": {"bm25": {"text": "sum", "stats": {"live_docs": 1,)j"
          R"j( "total_tokens": 9, "df": {"sum": 7}}}}})j"),
      400);
}

TEST_F(ServerTest, IngestRoundTrip) {
  auto client = Client();
  auto response = client.Post("/v1/ingest", IngestBody("http-m1", 42));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.ValueUnsafe().status, 200)
      << response.ValueUnsafe().body;
  auto body = Json::Parse(response.ValueUnsafe().body).ValueOrDie();
  EXPECT_EQ(body.GetString("id"), "http-m1");

  // Visible through the read API and the lake itself.
  auto get = client.Get("/v1/models/http-m1");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get.ValueUnsafe().status, 200);
  EXPECT_TRUE(lake_->LoadModel("http-m1").ok());

  // Same id again: AlreadyExists -> 409.
  auto duplicate = client.Post("/v1/ingest", IngestBody("http-m1", 43));
  ASSERT_TRUE(duplicate.ok());
  EXPECT_EQ(duplicate.ValueUnsafe().status, 409);
  auto dup_body = Json::Parse(duplicate.ValueUnsafe().body).ValueOrDie();
  EXPECT_EQ(dup_body.Find("error")->GetString("code"), "AlreadyExists");
}

TEST_F(ServerTest, IngestWithLineageClaim) {
  auto client = Client();
  auto response = client.Post(
      "/v1/ingest",
      IngestBody("http-child", 44,
                 R"("parent": "base-legal", "edge_type": "finetune")"));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.ValueUnsafe().status, 200)
      << response.ValueUnsafe().body;
  auto body = Json::Parse(response.ValueUnsafe().body).ValueOrDie();
  EXPECT_TRUE(body.GetBool("edge_recorded"));

  auto lineage = client.Get("/v1/lineage/http-child");
  ASSERT_TRUE(lineage.ok());
  auto lineage_body = Json::Parse(lineage.ValueUnsafe().body).ValueOrDie();
  const Json* parents = lineage_body.Find("parents");
  ASSERT_NE(parents, nullptr);
  ASSERT_EQ(parents->size(), 1u);
  EXPECT_EQ(parents->AsArray()[0].AsString(), "base-legal");
}

TEST_F(ServerTest, IngestRejectsBadBodies) {
  auto client = Client();
  auto no_card = client.Post("/v1/ingest", R"({"artifact_b64": "QUJD"})");
  ASSERT_TRUE(no_card.ok());
  EXPECT_EQ(no_card.ValueUnsafe().status, 400);

  Json with_card = Json::MakeObject();
  with_card.Set("card", Card("bad-bytes", "sum").ToJson());
  with_card.Set("artifact_b64", "!!!not-base64!!!");
  auto bad_b64 = client.Post("/v1/ingest", with_card.Dump());
  ASSERT_TRUE(bad_b64.ok());
  EXPECT_EQ(bad_b64.ValueUnsafe().status, 400);

  // Valid base64, but not an artifact.
  with_card.Set("artifact_b64", Base64Encode("hello world"));
  auto bad_artifact = client.Post("/v1/ingest", with_card.Dump());
  ASSERT_TRUE(bad_artifact.ok());
  EXPECT_EQ(bad_artifact.ValueUnsafe().status, 400);
}

TEST_F(ServerTest, StatszShape) {
  auto client = Client();
  // Generate at least one observed request first.
  ASSERT_TRUE(client.Get("/v1/models").ok());
  auto response = client.Get("/statsz");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.ValueUnsafe().status, 200);
  auto body = Json::Parse(response.ValueUnsafe().body).ValueOrDie();

  EXPECT_GE(body.GetInt64("models"), 3);
  // PR 4 wiring: recovery report + quarantine state are surfaced.
  EXPECT_TRUE(body.Contains("recovery"));
  EXPECT_TRUE(body.Contains("degraded_models"));
  EXPECT_TRUE(body.Find("degraded_model_ids")->is_array());
  EXPECT_TRUE(body.Contains("caches"));

  const Json* server = body.Find("server");
  ASSERT_NE(server, nullptr);
  EXPECT_FALSE(server->GetBool("draining", true));
  EXPECT_GE(server->GetInt64("connections_accepted"), 1);
  EXPECT_EQ(server->GetInt64("max_inflight"), 64);

  const Json* endpoints = body.Find("endpoints");
  ASSERT_NE(endpoints, nullptr);
  const Json* list_stats = endpoints->Find("GET /v1/models");
  ASSERT_NE(list_stats, nullptr);
  EXPECT_GE(list_stats->GetInt64("requests"), 1);
  EXPECT_GE(list_stats->Find("latency")->GetInt64("count"), 1);
  ASSERT_NE(endpoints->Find("_total"), nullptr);
}

TEST_F(ServerTest, DeadlineEnforced) {
  auto client = Client();
  // The handler sleeps past the deadline: 504.
  auto late = client.Get("/debug/sleep?ms=300",
                         {{"X-Mlake-Deadline-Ms", "30"}});
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late.ValueUnsafe().status, 504);
  auto body = Json::Parse(late.ValueUnsafe().body).ValueOrDie();
  EXPECT_EQ(body.Find("error")->GetString("code"), "DeadlineExceeded");

  // Plenty of budget: 200.
  auto on_time = client.Get("/debug/sleep?ms=10",
                            {{"X-Mlake-Deadline-Ms", "5000"}});
  ASSERT_TRUE(on_time.ok());
  EXPECT_EQ(on_time.ValueUnsafe().status, 200);

  // Malformed header: the request is rejected, not silently undeadlined.
  auto bad_header = client.Get("/v1/models",
                               {{"X-Mlake-Deadline-Ms", "soon"}});
  ASSERT_TRUE(bad_header.ok());
  EXPECT_EQ(bad_header.ValueUnsafe().status, 400);
}

TEST(ServerAdmissionTest, InflightBoundAnswers429) {
  // A dedicated tiny server: one admitted request at a time.
  auto dir = MakeTempDir("mlake-server-adm").ValueOrDie();
  core::LakeOptions lake_options;
  lake_options.root = dir;
  lake_options.input_dim = kDim;
  lake_options.num_classes = kClasses;
  auto lake = core::ModelLake::Open(lake_options).MoveValueUnsafe();

  ServerOptions options;
  options.threads = 4;
  options.max_inflight = 1;
  options.enable_debug_endpoints = true;
  LakeServer server(lake.get(), options);
  ASSERT_TRUE(server.Start().ok());

  // Occupy the single slot with a slow request, then probe.
  std::thread occupant([&server] {
    HttpClient client("127.0.0.1", server.port());
    auto response = client.Get("/debug/sleep?ms=1500");
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.ValueUnsafe().status, 200);
  });

  // Wait until the occupant holds the slot. The heartbeat is exempt
  // from admission, so polling it cannot take the slot itself (a
  // counted probe could, and the occupant would then get the 429).
  HttpClient prober("127.0.0.1", server.port());
  for (int i = 0; i < 400; ++i) {
    auto heartbeat = prober.Get("/v1/heartbeat");
    ASSERT_TRUE(heartbeat.ok()) << heartbeat.status().ToString();
    auto body = Json::Parse(heartbeat.ValueUnsafe().body).ValueOrDie();
    if (body.GetInt64("inflight") >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  bool saw_reject = false;
  for (int i = 0; i < 200 && !saw_reject; ++i) {
    auto response = prober.Get("/v1/models");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response.ValueUnsafe().status == 429) {
      saw_reject = true;
      EXPECT_EQ(response.ValueUnsafe().Header("retry-after"), "1");
      auto body = Json::Parse(response.ValueUnsafe().body).ValueOrDie();
      EXPECT_EQ(body.Find("error")->GetString("code"), "ResourceExhausted");
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(saw_reject);

  // Health stays exempt from admission even at full occupancy.
  auto health = prober.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.ValueUnsafe().status, 200);

  occupant.join();

  // The slot frees up: the same probe succeeds now.
  auto after = prober.Get("/v1/models");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.ValueUnsafe().status, 200);

  ASSERT_TRUE(server.Stop().ok());
  ASSERT_TRUE(RemoveAll(dir).ok());
}

/// Dedicated server whose lake holds a quarantined model — degraded
/// and nonexistent behavior of the per-model read endpoints
/// (/v1/models/{id} and /v1/lineage/{id}), kept out of the shared
/// fixture so the quarantine cannot perturb other tests.
class DegradedReadsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = MakeTempDir("mlake-server-degraded").ValueOrDie();
    core::LakeOptions options;
    options.root = dir_;
    options.input_dim = kDim;
    options.num_classes = kClasses;
    options.probe_count = 12;
    lake_ = core::ModelLake::Open(options).MoveValueUnsafe().release();

    auto parent = ServerTest::Train("sum", "legal", 21);
    auto child = ServerTest::Train("sum", "legal", 22);
    ASSERT_TRUE(
        lake_->IngestModel(*parent, ServerTest::Card("parent", "sum")).ok());
    ASSERT_TRUE(
        lake_->IngestModel(*child, ServerTest::Card("child", "sum")).ok());
    versioning::VersionEdge edge;
    edge.parent = "parent";
    edge.child = "child";
    edge.type = versioning::EdgeType::kFinetune;
    ASSERT_TRUE(lake_->RecordEdge(edge).ok());
    ASSERT_TRUE(lake_->QuarantineModel("child").ok());

    ServerOptions server_options;
    server_options.threads = 2;
    server_ = new LakeServer(lake_, server_options);
    ASSERT_TRUE(server_->Start().ok());
  }

  static void TearDownTestSuite() {
    delete server_;
    server_ = nullptr;
    delete lake_;
    lake_ = nullptr;
    ASSERT_TRUE(RemoveAll(dir_).ok());
  }

  HttpClient Client() { return HttpClient("127.0.0.1", server_->port()); }

  static std::string dir_;
  static core::ModelLake* lake_;
  static LakeServer* server_;
};

std::string DegradedReadsTest::dir_;
core::ModelLake* DegradedReadsTest::lake_ = nullptr;
LakeServer* DegradedReadsTest::server_ = nullptr;

TEST_F(DegradedReadsTest, ModelGetOnQuarantinedModel) {
  auto client = Client();
  // A quarantined model still answers its metadata read — flagged, not
  // hidden: governance needs to see what is degraded.
  auto response = client.Get("/v1/models/child");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response.ValueUnsafe().status, 200);
  auto body = Json::Parse(response.ValueUnsafe().body).ValueOrDie();
  EXPECT_EQ(body.GetString("id"), "child");
  EXPECT_TRUE(body.GetBool("degraded"));
  ASSERT_NE(body.Find("card"), nullptr);

  // The healthy sibling is unflagged.
  auto healthy = client.Get("/v1/models/parent");
  ASSERT_TRUE(healthy.ok());
  ASSERT_EQ(healthy.ValueUnsafe().status, 200);
  EXPECT_FALSE(Json::Parse(healthy.ValueUnsafe().body)
                   .ValueOrDie()
                   .GetBool("degraded", true));
}

TEST_F(DegradedReadsTest, LineageOnQuarantinedModel) {
  auto client = Client();
  // Lineage is pure graph metadata — quarantine must not sever it.
  auto response = client.Get("/v1/lineage/child");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.ValueUnsafe().status, 200);
  auto body = Json::Parse(response.ValueUnsafe().body).ValueOrDie();
  const Json* parents = body.Find("parents");
  ASSERT_NE(parents, nullptr);
  ASSERT_EQ(parents->size(), 1u);
  EXPECT_EQ(parents->AsArray()[0].AsString(), "parent");
}

TEST_F(DegradedReadsTest, NonexistentModelAnswers404OnBothReads) {
  auto client = Client();
  for (const char* path : {"/v1/models/ghost", "/v1/lineage/ghost"}) {
    auto response = client.Get(path);
    ASSERT_TRUE(response.ok()) << path;
    EXPECT_EQ(response.ValueUnsafe().status, 404) << path;
    auto body = Json::Parse(response.ValueUnsafe().body).ValueOrDie();
    EXPECT_EQ(body.Find("error")->GetString("code"), "NotFound") << path;
  }
}

TEST_F(DegradedReadsTest, GovernanceReadsOnQuarantinedModel) {
  auto client = Client();
  // Citation still works, flagged (paper §6: degraded content must
  // remain attributable).
  auto citation = client.Get("/v1/models/child/citation");
  ASSERT_TRUE(citation.ok());
  ASSERT_EQ(citation.ValueUnsafe().status, 200);
  auto cite = Json::Parse(citation.ValueUnsafe().body).ValueOrDie();
  EXPECT_TRUE(cite.GetBool("degraded"));

  // The audit questionnaire reports the quarantine.
  auto audit = client.Get("/v1/audit/child");
  ASSERT_TRUE(audit.ok());
  ASSERT_EQ(audit.ValueUnsafe().status, 200);
  auto report = Json::Parse(audit.ValueUnsafe().body).ValueOrDie();
  EXPECT_TRUE(report.GetBool("quarantined"));

  // And the export marks the record degraded.
  auto exported = client.Get("/v1/export");
  ASSERT_TRUE(exported.ok());
  ASSERT_EQ(exported.ValueUnsafe().status, 200);
  EXPECT_NE(exported.ValueUnsafe().body.find(
                "\"id\":\"child\",\"model\":"),
            std::string::npos);
  EXPECT_NE(exported.ValueUnsafe().body.find("\"degraded\":true"),
            std::string::npos);
}

TEST(ServerLifecycleTest, StopIsIdempotentAndRestartable) {
  auto dir = MakeTempDir("mlake-server-life").ValueOrDie();
  core::LakeOptions lake_options;
  lake_options.root = dir;
  lake_options.input_dim = kDim;
  lake_options.num_classes = kClasses;
  auto lake = core::ModelLake::Open(lake_options).MoveValueUnsafe();

  LakeServer server(lake.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  EXPECT_TRUE(server.Start().IsFailedPrecondition());
  ASSERT_TRUE(server.Stop().ok());
  ASSERT_TRUE(server.Stop().ok());  // idempotent

  // A second server instance can bind a fresh ephemeral port at once.
  LakeServer second(lake.get(), ServerOptions{});
  ASSERT_TRUE(second.Start().ok());
  HttpClient client("127.0.0.1", second.port());
  auto response = client.Get("/healthz");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.ValueUnsafe().status, 200);
  ASSERT_TRUE(second.Stop().ok());
  ASSERT_TRUE(RemoveAll(dir).ok());
}

}  // namespace
}  // namespace mlake::server
