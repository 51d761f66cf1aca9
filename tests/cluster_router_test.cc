// Concurrency shakeout for the cluster router, aimed at the TSan CI
// job: mixed search/read traffic races the heartbeat poller, manual
// epoch ticks, and live retuning of the backends' delay seams (which
// shifts hedge behavior mid-flight). Correctness of answers is covered
// by cluster_test; here every request must merely complete sanely
// (2xx, or 5xx only when hedging/timeout races legitimately lose) with
// no data race underneath.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/file_util.h"
#include "nn/trainer.h"
#include "server/client.h"
#include "server/http_server.h"
#include "storage/model_artifact.h"
#include "versioning/model_graph.h"

namespace mlake::cluster {
namespace {

constexpr int64_t kDim = 16;
constexpr int64_t kClasses = 4;

TEST(ClusterRouterConcurrencyTest, MixedTrafficRacesTicksAndDelays) {
  std::string dir = MakeTempDir("mlake-cluster-race").ValueOrDie();

  InProcessClusterOptions options;
  options.shards = 2;
  options.replicas_per_shard = 2;
  options.lake_options.input_dim = kDim;
  options.lake_options.num_classes = kClasses;
  options.lake_options.probe_count = 8;
  // Backends are thread-per-connection and every pooled router
  // connection pins one worker for its keep-alive lifetime, so the
  // worker count must cover the router's whole connection fan-in
  // (fanout pool + heartbeat + any direct clients).
  options.server_options.threads = 16;
  // Fast heartbeat so the background poller genuinely races TickNow
  // and the request path during the test window.
  options.router_options.heartbeat_interval_ms = 20;
  options.router_options.hedge_min_delay_ms = 5;
  auto cluster =
      InProcessCluster::Create(dir, std::move(options)).MoveValueUnsafe();

  std::vector<std::string> ids;
  for (uint64_t i = 0; i < 4; ++i) {
    nn::TaskSpec spec;
    spec.family_id = i % 2 == 0 ? "sum" : "mean";
    spec.domain_id = i % 2 == 0 ? "legal" : "news";
    spec.dim = kDim;
    spec.num_classes = kClasses;
    Rng rng(7 + i);
    nn::Dataset data = nn::SyntheticTask::Make(spec).Sample(64, &rng);
    auto model = nn::BuildModel(nn::MlpSpec(kDim, {16}, kClasses), &rng)
                     .MoveValueUnsafe();
    nn::TrainConfig config;
    config.epochs = 3;
    ASSERT_TRUE(nn::Train(model.get(), data, config).ok());
    std::string bytes = storage::SerializeArtifact(
        storage::ArtifactFromModel(*model, Json::MakeObject()));
    metadata::ModelCard card;
    card.model_id = "race-" + std::to_string(i);
    card.name = card.model_id;
    card.task = spec.family_id;
    auto ingested = cluster->IngestArtifact(bytes, card);
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
    ids.push_back(ingested.ValueUnsafe());
  }

  constexpr int kSearchThreads = 4;
  constexpr int kIterations = 25;
  std::atomic<int> bad_status{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kSearchThreads; ++t) {
    threads.emplace_back([&, t] {
      server::HttpClient client("127.0.0.1", cluster->router_port());
      const std::string bodies[] = {
          R"({"type": "keyword", "query": "legal summarization", "k": 3})",
          R"({"type": "ann", "id": ")" + ids[t % ids.size()] +
              R"(", "k": 3})",
          R"({"type": "mlql", "query": "FIND MODELS RANK BY completeness() LIMIT 3"})",
      };
      for (int i = 0; i < kIterations; ++i) {
        auto response = client.Post("/v1/search", bodies[i % 3]);
        if (!response.ok()) {
          ++bad_status;
        } else if (response.ValueUnsafe().status != 200 &&
                   response.ValueUnsafe().status < 500) {
          ++bad_status;  // 4xx would mean a malformed scatter, not a race
        }
      }
    });
  }
  threads.emplace_back([&] {
    while (!done.load()) {
      cluster->router()->TickNow();
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });
  threads.emplace_back([&] {
    int64_t flip = 0;
    while (!done.load()) {
      cluster->search_delay_us(0, 0)->store(flip % 2 == 0 ? 4000 : 0);
      cluster->search_delay_us(1, 1)->store(flip % 2 == 0 ? 0 : 4000);
      ++flip;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  threads.emplace_back([&] {
    server::HttpClient client("127.0.0.1", cluster->router_port());
    while (!done.load()) {
      (void)client.Get("/statsz");
      (void)client.Get("/v1/models");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (int t = 0; t < kSearchThreads; ++t) threads[t].join();
  done.store(true);
  for (size_t t = kSearchThreads; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(bad_status.load(), 0);
  ASSERT_TRUE(cluster->Stop().ok());
  cluster.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// ---------------------------------------------------------------------------
// Drain contract: the router runs on the same transport as mlaked, so it
// must pass the cases server_shutdown_test pins for a backend.
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

int64_t MsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start)
      .count();
}

/// A routed search that the backend's delay seam holds for as long as
/// the test sets it to (the lakes are empty; drain needs no models).
constexpr char kSlowSearch[] =
    R"({"type": "mlql", "query": "FIND MODELS LIMIT 1"})";

class RouterShutdownTest : public ::testing::Test {
 protected:
  void StartCluster(int router_threads) {
    dir_ = MakeTempDir("mlake-router-drain").ValueOrDie();
    InProcessClusterOptions options;
    options.shards = 1;
    options.lake_options.input_dim = kDim;
    options.lake_options.num_classes = kClasses;
    options.server_options.threads = 16;
    options.router_options.threads = router_threads;
    options.router_options.drain_deadline_ms = 5000;
    options.router_options.heartbeat_interval_ms = 60000;
    cluster_ = InProcessCluster::Create(dir_, std::move(options))
                   .MoveValueUnsafe();
  }
  void TearDown() override {
    ASSERT_TRUE(cluster_->Stop().ok());
    cluster_.reset();
    ASSERT_TRUE(RemoveAll(dir_).ok());
  }

  std::string dir_;
  std::unique_ptr<InProcessCluster> cluster_;
};

TEST_F(RouterShutdownTest, InFlightRoutedRequestFinishesDuringStop) {
  StartCluster(/*router_threads=*/4);
  cluster_->search_delay_us(0)->store(600000);
  int port = cluster_->router_port();

  std::atomic<int> slow_status{0};
  std::thread slow([&] {
    server::HttpClient client("127.0.0.1", port);
    client.set_timeout_ms(8000);
    auto response = client.Post("/v1/search", kSlowSearch);
    if (response.ok()) slow_status.store(response.ValueUnsafe().status);
  });
  // Give the request time to reach the backend.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  auto stop_begun = Clock::now();
  ASSERT_TRUE(cluster_->router()->Stop().ok());
  int64_t stop_ms = MsSince(stop_begun);
  slow.join();

  EXPECT_EQ(slow_status.load(), 200);
  EXPECT_GE(stop_ms, 300);   // waited for the in-flight scatter
  EXPECT_LT(stop_ms, 5000);  // and did not burn the whole drain budget
  EXPECT_TRUE(cluster_->router()->draining());
}

TEST_F(RouterShutdownTest, RequestBytesInKernelBufferAreServed) {
  // Both router workers are busy with slow searches when eight more
  // clients connect and send; their bytes wait in kernel buffers while
  // Stop() begins. Each must get a well-formed answer (200, or a clean
  // 503 refusal), never a severed connection.
  StartCluster(/*router_threads=*/2);
  cluster_->search_delay_us(0)->store(400000);
  int port = cluster_->router_port();

  std::atomic<int> slow_ok{0};
  std::vector<std::thread> slow;
  for (int i = 0; i < 2; ++i) {
    slow.emplace_back([&] {
      server::HttpClient client("127.0.0.1", port);
      client.set_timeout_ms(8000);
      auto response = client.Post("/v1/search", kSlowSearch);
      if (response.ok() && response.ValueUnsafe().status == 200) ++slow_ok;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::atomic<int> answered{0};
  std::atomic<int> refused{0};
  std::atomic<int> dropped{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      server::HttpClient client("127.0.0.1", port);
      client.set_timeout_ms(8000);
      auto response = client.Get("/v1/models");
      if (!response.ok()) {
        dropped.fetch_add(1);
      } else if (response.ValueUnsafe().status == 200) {
        answered.fetch_add(1);
      } else {
        refused.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(cluster_->router()->Stop().ok());
  for (auto& t : slow) t.join();
  for (auto& t : clients) t.join();

  EXPECT_EQ(slow_ok.load(), 2);
  EXPECT_EQ(answered.load() + refused.load(), kClients);
  EXPECT_EQ(dropped.load(), 0);
}

TEST_F(RouterShutdownTest, NewConnectionsRefusedWhileDraining) {
  StartCluster(/*router_threads=*/2);
  cluster_->search_delay_us(0)->store(800000);
  int port = cluster_->router_port();

  // Hold the drain open with a slow search so we can probe mid-drain.
  std::thread sleeper([&] {
    server::HttpClient client("127.0.0.1", port);
    client.set_timeout_ms(8000);
    (void)client.Post("/v1/search", kSlowSearch);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  std::thread stopper([&] { ASSERT_TRUE(cluster_->router()->Stop().ok()); });
  while (!cluster_->router()->draining()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  server::HttpClient late("127.0.0.1", port);
  late.set_timeout_ms(2000);
  auto response = late.Get("/healthz");
  // Either the listener is already gone (connect refused -> error) or,
  // if a race admitted us, the answer is a clean 503 — never a hang.
  if (response.ok()) {
    EXPECT_EQ(response.ValueUnsafe().status, 503);
  }

  stopper.join();
  sleeper.join();
}

// ---------------------------------------------------------------------------
// Point lookups: the owner's 2xx answers the request, whatever the other
// legs do; with no 2xx, a leg that could not answer makes the lookup an
// error, because its shard might own the id.
// ---------------------------------------------------------------------------

TEST(RouterPointLookupTest, OwnerAnswersWhileANonOwnerShardIsDown) {
  std::string dir = MakeTempDir("mlake-router-lookup").ValueOrDie();
  InProcessClusterOptions options;
  options.shards = 3;
  options.lake_options.input_dim = kDim;
  options.lake_options.num_classes = kClasses;
  options.server_options.threads = 16;
  options.router_options.heartbeat_interval_ms = 60000;
  auto cluster =
      InProcessCluster::Create(dir, std::move(options)).MoveValueUnsafe();

  Rng rng(11);
  auto model = nn::BuildModel(nn::MlpSpec(kDim, {16}, kClasses), &rng)
                   .MoveValueUnsafe();
  std::string bytes = storage::SerializeArtifact(
      storage::ArtifactFromModel(*model, Json::MakeObject()));
  metadata::ModelCard card;
  card.model_id = "lookup-0";
  card.name = card.model_id;
  card.task = "sum";
  auto ingested = cluster->IngestArtifact(bytes, card);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  const std::string id = ingested.ValueUnsafe();

  // Stop one shard that does not own the model; it has no replica.
  size_t owner = cluster->OwnerShard(bytes);
  size_t down = (owner + 1) % cluster->shards();
  ASSERT_TRUE(cluster->server(down)->Stop().ok());

  server::HttpClient client("127.0.0.1", cluster->router_port());
  client.set_timeout_ms(10000);
  auto found = client.Get("/v1/models/" + id);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(found.ValueUnsafe().status, 200) << found.ValueUnsafe().body;
  EXPECT_NE(found.ValueUnsafe().body.find(id), std::string::npos);

  auto missing = client.Get("/v1/models/no-such-model");
  ASSERT_TRUE(missing.ok()) << missing.status().ToString();
  EXPECT_GE(missing.ValueUnsafe().status, 500) << missing.ValueUnsafe().body;

  ASSERT_TRUE(cluster->Stop().ok());
  cluster.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// ---------------------------------------------------------------------------
// Routed export: the merged dump equals a single lake's dump of the same
// content byte for byte, and a shard dump with a framing defect is a 500
// answered before any byte of the body.
// ---------------------------------------------------------------------------

std::string UntrainedArtifact(uint64_t seed) {
  Rng rng(seed);
  auto model = nn::BuildModel(nn::MlpSpec(kDim, {16}, kClasses), &rng)
                   .MoveValueUnsafe();
  return storage::SerializeArtifact(
      storage::ArtifactFromModel(*model, Json::MakeObject()));
}

std::string DrainLakeExport(const core::ModelLake& lake) {
  std::string out;
  std::string line;
  auto it = lake.OpenExport();
  while (it->Next(&line)) out += line;
  return out;
}

TEST(RouterExportTest, RoutedExportEqualsSingleLakeExport) {
  std::string dir = MakeTempDir("mlake-router-export").ValueOrDie();
  std::string oracle_dir = MakeTempDir("mlake-router-export-oracle")
                               .ValueOrDie();
  InProcessClusterOptions options;
  options.shards = 4;
  options.lake_options.input_dim = kDim;
  options.lake_options.num_classes = kClasses;
  options.lake_options.probe_count = 8;
  options.server_options.threads = 16;
  options.router_options.heartbeat_interval_ms = 60000;
  core::LakeOptions oracle_options = options.lake_options;
  oracle_options.root = oracle_dir;
  auto oracle = core::ModelLake::Open(oracle_options).MoveValueUnsafe();
  auto cluster =
      InProcessCluster::Create(dir, std::move(options)).MoveValueUnsafe();

  // "m1" sorts before "m10" as an id, but its edge line sorts after:
  // `"m1"` vs `"m10` compares '"' with '0', while the EdgeKeys compare
  // "m1|" with "m10" ('|' > '0').
  const std::vector<std::string> ids = {"m1", "m10", "m2", "m3", "m4", "m5",
                                        "m6", "m7", "m8", "m9", "m11", "m12"};
  std::map<std::string, size_t> owner;
  for (size_t i = 0; i < ids.size(); ++i) {
    std::string bytes = UntrainedArtifact(300 + i);
    metadata::ModelCard card;
    card.model_id = ids[i];
    card.name = ids[i];
    card.task = i % 2 == 0 ? "sum" : "mean";
    card.training_datasets = {i % 3 == 0 ? "corpus/a" : "corpus/b"};
    auto model = storage::ModelFromArtifact(
                     storage::ParseArtifact(bytes).MoveValueUnsafe())
                     .MoveValueUnsafe();
    ASSERT_TRUE(oracle->IngestModel(*model, card).ok());
    ASSERT_TRUE(cluster->IngestArtifact(bytes, card).ok());
    owner[ids[i]] = cluster->OwnerShard(bytes);
  }
  std::set<size_t> used;
  for (const auto& [id, shard] : owner) used.insert(shard);
  ASSERT_GE(used.size(), 2u);

  // Datasets are registered on every shard, as a routed register would.
  for (const char* name : {"corpus/b", "corpus/a"}) {
    ASSERT_TRUE(oracle->RegisterDataset(name, {"s1", "s2"}).ok());
    for (size_t s = 0; s < cluster->shards(); ++s) {
      ASSERT_TRUE(cluster->lake(s)->RegisterDataset(name, {"s1", "s2"}).ok());
    }
  }
  // Lineage edges live on the shards of both endpoints. One edge pair
  // spans two shards by construction.
  std::vector<versioning::VersionEdge> edges;
  auto edge = [](std::string parent, std::string child,
                 versioning::EdgeType type) {
    versioning::VersionEdge e;
    e.parent = std::move(parent);
    e.child = std::move(child);
    e.type = type;
    return e;
  };
  edges.push_back(edge("m1", "m2", versioning::EdgeType::kFinetune));
  edges.push_back(edge("m10", "m3", versioning::EdgeType::kLora));
  edges.push_back(edge("m1", "m4", versioning::EdgeType::kDistill));
  std::string cross_child;
  for (const std::string& id : ids) {
    if (owner[id] != owner["m6"]) cross_child = id;
  }
  ASSERT_FALSE(cross_child.empty());
  edges.push_back(edge("m6", cross_child, versioning::EdgeType::kPrune));
  size_t recorded_twice = 0;
  for (const versioning::VersionEdge& e : edges) {
    ASSERT_TRUE(oracle->RecordEdge(e).ok());
    std::set<size_t> shards = {owner[e.parent], owner[e.child]};
    recorded_twice += shards.size() == 2 ? 1 : 0;
    for (size_t s : shards) ASSERT_TRUE(cluster->lake(s)->RecordEdge(e).ok());
  }
  ASSERT_GE(recorded_twice, 1u);
  ASSERT_TRUE(oracle->QuarantineModel("m5").ok());
  ASSERT_TRUE(cluster->lake(owner["m5"])->QuarantineModel("m5").ok());

  std::string expected = DrainLakeExport(*oracle);
  ASSERT_NE(expected.find("\"degraded\":true"), std::string::npos);
  ASSERT_LT(expected.find("{\"kind\":\"edge\",\"parent\":\"m10\""),
            expected.find("{\"kind\":\"edge\",\"parent\":\"m1\""));

  cluster->router()->TickNow();
  server::HttpClient client("127.0.0.1", cluster->router_port());
  client.set_timeout_ms(10000);
  auto routed = client.Get("/v1/export");
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  ASSERT_EQ(routed.ValueUnsafe().status, 200) << routed.ValueUnsafe().body;
  EXPECT_EQ(routed.ValueUnsafe().Header("transfer-encoding"), "chunked");
  EXPECT_EQ(routed.ValueUnsafe().content_type, "application/x-ndjson");
  EXPECT_EQ(routed.ValueUnsafe().body, expected);

  ASSERT_TRUE(cluster->Stop().ok());
  cluster.reset();
  oracle.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
  ASSERT_TRUE(RemoveAll(oracle_dir).ok());
}

/// A stand-in shard: answers heartbeats and serves a fixed export body.
class FakeExportShard {
 public:
  FakeExportShard() : http_(server::HttpServerOptions()) {
    http_.Route("GET", "/v1/heartbeat", [](server::RequestContext&) {
      return server::JsonResponse(Json::MakeObject());
    });
    http_.Route("GET", "/v1/export", [this](server::RequestContext&) {
      server::HttpResponse response;
      response.content_type = "application/x-ndjson";
      std::lock_guard<std::mutex> lock(mu_);
      response.body = body_;
      return response;
    });
    MLAKE_CHECK(http_.Start().ok());
  }
  ~FakeExportShard() { MLAKE_CHECK(http_.Stop().ok()); }

  void set_body(std::string body) {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = std::move(body);
  }
  int port() const { return http_.port(); }

 private:
  server::HttpServer http_;
  std::mutex mu_;
  std::string body_;
};

std::string ExportHeader(int models) {
  return "{\"kind\":\"header\",\"schema\":\"mlake.export\","
         "\"schema_version\":1,\"counts\":{\"models\":" +
         std::to_string(models) + ",\"edges\":0,\"datasets\":0}}\n";
}

std::string ModelLine(const std::string& json_id) {
  return "{\"kind\":\"model\",\"id\":" + json_id +
         ",\"model\":{},\"degraded\":false}\n";
}

TEST(RouterExportTest, FramingDefectsAnswer500BeforeAnyByte) {
  FakeExportShard good;
  FakeExportShard bad;
  RouterOptions options;
  options.backends = {BackendSpec{"127.0.0.1", good.port(), 0},
                      BackendSpec{"127.0.0.1", bad.port(), 1}};
  options.cluster_size = 2;
  options.heartbeat_interval_ms = 60000;
  options.threads = 2;
  Router router(options);
  ASSERT_TRUE(router.Start().ok());
  router.TickNow();
  server::HttpClient client("127.0.0.1", router.port());
  client.set_timeout_ms(10000);

  // Ids merge in decoded order: "a\"" (0x22) sorts before "a#" (0x23),
  // although its escaped bytes (a\") would sort after.
  good.set_body(ExportHeader(2) + ModelLine("\"a\\\"\"") + ModelLine("\"c\"") +
                "{\"kind\":\"footer\",\"records\":2}\n");
  bad.set_body(ExportHeader(2) + ModelLine("\"a#\"") + ModelLine("\"b\"") +
               "{\"kind\":\"footer\",\"records\":2}\n");
  auto merged = client.Get("/v1/export");
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged.ValueUnsafe().status, 200) << merged.ValueUnsafe().body;
  EXPECT_EQ(merged.ValueUnsafe().body,
            ExportHeader(4) + ModelLine("\"a\\\"\"") + ModelLine("\"a#\"") +
                ModelLine("\"b\"") + ModelLine("\"c\"") +
                "{\"kind\":\"footer\",\"records\":4}\n");

  const std::string defects[] = {
      // Model ids out of order within one leg.
      ExportHeader(2) + ModelLine("\"d\"") + ModelLine("\"b\""),
      // A repeated id within one leg is out of order too.
      ExportHeader(2) + ModelLine("\"b\"") + ModelLine("\"b\""),
      // A record with no kind.
      ExportHeader(1) + "{\"id\":\"b\",\"model\":{}}\n",
      // A model record whose id is not a string.
      ExportHeader(1) + "{\"kind\":\"model\",\"id\":7,\"degraded\":false}\n",
      // A model record cut short.
      ExportHeader(1) + "{\"kind\":\"model\",\"id\":\"b\",\"model\":{\n",
      // An edge record that is not JSON.
      ExportHeader(0) + "{\"kind\":\"edge\",\"parent\":\n",
  };
  for (const std::string& body : defects) {
    bad.set_body(body);
    auto response = client.Get("/v1/export");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const server::HttpResponse& r = response.ValueUnsafe();
    EXPECT_EQ(r.status, 500) << body;
    EXPECT_TRUE(r.Header("transfer-encoding").empty()) << body;
    auto parsed = Json::Parse(r.body);
    ASSERT_TRUE(parsed.ok()) << r.body;
    ASSERT_NE(parsed.ValueUnsafe().Find("error"), nullptr) << r.body;
    EXPECT_EQ(parsed.ValueUnsafe().Find("error")->GetString("code"),
              "Internal");
  }
  ASSERT_TRUE(router.Stop().ok());
}

TEST(RouterOptionsTest, NonPositiveDefaultDeadlineRejected) {
  // Scatter legs inherit the request's remaining budget, so a router
  // with no default deadline would answer 504 to every search.
  for (int deadline_ms : {0, -5}) {
    RouterOptions options;
    options.backends.push_back(BackendSpec{"127.0.0.1", 1, 0});
    options.default_deadline_ms = deadline_ms;
    Router router(options);
    Status started = router.Start();
    EXPECT_TRUE(started.IsInvalidArgument())
        << deadline_ms << ": " << started.ToString();
    ASSERT_TRUE(router.Stop().ok());
  }
}

}  // namespace
}  // namespace mlake::cluster
