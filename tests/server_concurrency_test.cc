// Mixed search/ingest/lineage traffic from N client threads against a
// live server, checked against a serial oracle afterwards:
//
//   - no 5xx answer is ever produced (every error is a mapped 4xx),
//   - the set of ingested ids equals {pre-seeded} + {successful POST
//     /v1/ingest answers}, and NumModels agrees,
//   - a model's card bytes are identical no matter which thread reads
//     them, and identical to what the lake returns directly,
//   - lineage answers never contain a model the graph does not know.
//
// The test runs under TSan in CI (the `tsan` job), so it also serves as
// the race detector for the whole server stack: admission counters,
// metrics stripes, the lake's shared_mutex contract, and drain logic.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "nn/trainer.h"
#include "server/client.h"
#include "server/http.h"
#include "server/server.h"
#include "storage/model_artifact.h"

namespace mlake::server {
namespace {

constexpr int64_t kDim = 16;
constexpr int64_t kClasses = 4;
constexpr int kClientThreads = 8;
constexpr int kRequestsPerThread = 30;

std::unique_ptr<nn::Model> TrainSmall(uint64_t seed) {
  nn::TaskSpec spec;
  spec.family_id = "sum";
  spec.domain_id = "legal";
  spec.dim = kDim;
  spec.num_classes = kClasses;
  Rng rng(seed);
  nn::Dataset data = nn::SyntheticTask::Make(spec).Sample(64, &rng);
  auto model =
      nn::BuildModel(nn::MlpSpec(kDim, {16}, kClasses), &rng).MoveValueUnsafe();
  nn::TrainConfig config;
  config.epochs = 3;
  MLAKE_CHECK(nn::Train(model.get(), data, config).ok());
  return model;
}

metadata::ModelCard CardFor(const std::string& id) {
  metadata::ModelCard card;
  card.model_id = id;
  card.name = id;
  card.task = "sum";
  card.training_datasets = {"sum/legal"};
  card.creator = "concurrency-test";
  return card;
}

std::string IngestBodyFor(const std::string& id, const std::string& bytes,
                          const std::string& parent) {
  Json body = Json::MakeObject();
  body.Set("card", CardFor(id).ToJson());
  body.Set("artifact_b64", Base64Encode(bytes));
  if (!parent.empty()) {
    body.Set("parent", parent);
    body.Set("edge_type", "finetune");
  }
  return body.Dump();
}

TEST(ServerConcurrencyTest, MixedTrafficMatchesSerialOracle) {
  auto dir = MakeTempDir("mlake-server-conc").ValueOrDie();
  core::LakeOptions lake_options;
  lake_options.root = dir;
  lake_options.input_dim = kDim;
  lake_options.num_classes = kClasses;
  lake_options.probe_count = 12;
  auto lake = core::ModelLake::Open(lake_options).MoveValueUnsafe();

  // Pre-seed two models so reads always have something to chew on.
  auto seed_a = TrainSmall(1);
  auto seed_b = TrainSmall(2);
  ASSERT_TRUE(lake->IngestModel(*seed_a, CardFor("seed-a")).ok());
  ASSERT_TRUE(lake->IngestModel(*seed_b, CardFor("seed-b")).ok());

  // One artifact per thread, serialized up front (training is slow and
  // not what this test measures). Each thread ingests fresh ids derived
  // from its index, so ingests conflict only through the lake itself.
  std::vector<std::string> artifact_bytes;
  for (int t = 0; t < kClientThreads; ++t) {
    artifact_bytes.push_back(storage::SerializeArtifact(
        storage::ArtifactFromModel(*TrainSmall(100 + t), Json::MakeObject())));
  }

  ServerOptions options;
  options.threads = 6;
  // Small enough that admission sometimes triggers under this load (the
  // 429 path is then exercised and must stay a clean 4xx, not a race).
  options.max_inflight = 4;
  LakeServer server(lake.get(), options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> server_errors{0};      // any 5xx
  std::atomic<int> transport_errors{0};   // broken round trips
  std::mutex results_mu;
  std::set<std::string> acked_ingests;    // ids the server answered 200 for
  std::vector<std::string> card_bytes_seen;  // serialized card of seed-a

  std::vector<std::thread> threads;
  threads.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    threads.emplace_back([&, t] {
      HttpClient client("127.0.0.1", server.port());
      client.set_timeout_ms(20000);
      int ingested = 0;
      for (int i = 0; i < kRequestsPerThread; ++i) {
        Result<HttpResponse> response = HttpResponse{};
        enum { kIngest, kSearch, kLineage, kModelGet, kList } kind;
        switch (i % 5) {
          case 0: {
            kind = kIngest;
            std::string id =
                "t" + std::to_string(t) + "-m" + std::to_string(ingested);
            response = client.Post(
                "/v1/ingest",
                IngestBodyFor(id, artifact_bytes[t],
                              (ingested % 2 == 0) ? "seed-a" : ""));
            if (response.ok() && response.ValueUnsafe().status == 200) {
              ++ingested;
              std::lock_guard<std::mutex> lock(results_mu);
              acked_ingests.insert(
                  Json::Parse(response.ValueUnsafe().body)
                      .ValueOrDie()
                      .GetString("id"));
            }
            break;
          }
          case 1:
            kind = kSearch;
            response = client.Post(
                "/v1/search",
                R"({"type": "keyword", "query": "sum legal", "k": 10})");
            break;
          case 2:
            kind = kLineage;
            response = client.Get("/v1/lineage/seed-a");
            break;
          case 3: {
            kind = kModelGet;
            response = client.Get("/v1/models/seed-a");
            if (response.ok() && response.ValueUnsafe().status == 200) {
              auto body =
                  Json::Parse(response.ValueUnsafe().body).ValueOrDie();
              std::lock_guard<std::mutex> lock(results_mu);
              card_bytes_seen.push_back(body.Find("card")->Dump());
            }
            break;
          }
          default:
            kind = kList;
            response = client.Get("/v1/models");
            break;
        }
        (void)kind;
        if (!response.ok()) {
          transport_errors.fetch_add(1);
          continue;
        }
        int status = response.ValueUnsafe().status;
        if (status >= 500) server_errors.fetch_add(1);
        if (status == 429) {
          // Overload is a legal answer; back off briefly like a real
          // client honoring Retry-After would.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          --i;  // retry the same request
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(server_errors.load(), 0);
  EXPECT_EQ(transport_errors.load(), 0);

  // ---- serial oracle --------------------------------------------------
  // The lake after the storm must equal: seeds + exactly the acked
  // ingests, no more, no fewer.
  std::set<std::string> expected = {"seed-a", "seed-b"};
  expected.insert(acked_ingests.begin(), acked_ingests.end());
  std::vector<std::string> listed = lake->ListModels();
  std::set<std::string> actual(listed.begin(), listed.end());
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(lake->NumModels(), expected.size());

  // Every acked ingest is individually loadable (durable, not just
  // listed), and its card round-trips.
  for (const std::string& id : acked_ingests) {
    EXPECT_TRUE(lake->LoadModel(id).ok()) << id;
    EXPECT_TRUE(lake->CardFor(id).ok()) << id;
  }

  // Concurrent readers all saw one stable serialization of seed-a's
  // card, and it is the lake's own.
  ASSERT_FALSE(card_bytes_seen.empty());
  std::string oracle_card = lake->CardFor("seed-a").ValueOrDie().ToJson().Dump();
  for (const std::string& seen : card_bytes_seen) {
    EXPECT_EQ(seen, oracle_card);
  }

  // Lineage closed-world check: the graph may only reference real ids.
  HttpClient verifier("127.0.0.1", server.port());
  auto lineage = verifier.Get("/v1/lineage/seed-a");
  ASSERT_TRUE(lineage.ok());
  ASSERT_EQ(lineage.ValueUnsafe().status, 200);
  auto lineage_body = Json::Parse(lineage.ValueUnsafe().body).ValueOrDie();
  for (const Json& child : lineage_body.Find("children")->AsArray()) {
    EXPECT_TRUE(actual.count(child.AsString())) << child.AsString();
  }

  // The server observed exactly the traffic we sent (metrics sanity;
  // retries after 429 mean ">=", responses are never double-counted).
  auto snapshot = server.metrics().Snapshot();
  uint64_t recorded = 0;
  for (const auto& [endpoint, stats] : snapshot) recorded += stats.requests;
  EXPECT_GE(recorded, uint64_t(kClientThreads) * kRequestsPerThread);

  ASSERT_TRUE(server.Stop().ok());
  lake.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// Search batching must be invisible to clients: a response produced
// inside a coalesced batch is byte-identical to the response the same
// request gets alone (a batch of one). Sequential requests first build
// the solo oracle, then a concurrent storm over the same request set
// checks every answer against it. Runs under TSan in CI with
// MLAKE_TEST_BATCH_WINDOW_US forcing the coalescing path, and uses a
// wide window here so batches of size > 1 actually form.
TEST(ServerConcurrencyTest, BatchedSearchMatchesSoloOracle) {
  auto dir = MakeTempDir("mlake-server-batch").ValueOrDie();
  core::LakeOptions lake_options;
  lake_options.root = dir;
  lake_options.input_dim = kDim;
  lake_options.num_classes = kClasses;
  lake_options.probe_count = 12;
  auto lake = core::ModelLake::Open(lake_options).MoveValueUnsafe();

  constexpr int kModels = 6;
  for (int i = 0; i < kModels; ++i) {
    auto model = TrainSmall(200 + static_cast<uint64_t>(i));
    ASSERT_TRUE(
        lake->IngestModel(*model, CardFor("bm" + std::to_string(i))).ok());
  }

  ServerOptions options;
  options.threads = 10;
  options.max_inflight = 64;
  options.enable_batching = true;
  options.batch_window_us = 10000;
  options.max_batch = 8;
  LakeServer server(lake.get(), options);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::string> bodies;
  for (int i = 0; i < kModels; ++i) {
    bodies.push_back(R"({"type": "ann", "id": "bm)" + std::to_string(i) +
                     R"(", "k": 3})");
  }
  bodies.push_back(R"({"type": "keyword", "query": "sum legal", "k": 5})");
  bodies.push_back(R"({"type": "keyword", "query": "legal", "k": 3})");

  // ---- solo oracle: sequential requests run as batches of one.
  std::map<std::string, std::string> oracle;
  {
    HttpClient client("127.0.0.1", server.port());
    for (const std::string& body : bodies) {
      auto response = client.Post("/v1/search", body);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response.ValueUnsafe().status, 200)
          << response.ValueUnsafe().body;
      oracle[body] = response.ValueUnsafe().body;
    }
  }

  // ---- concurrent storm over the same request set.
  constexpr int kThreads = 8;
  constexpr int kRounds = 10;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      HttpClient client("127.0.0.1", server.port());
      client.set_timeout_ms(20000);
      for (int r = 0; r < kRounds; ++r) {
        const std::string& body =
            bodies[static_cast<size_t>(t + r) % bodies.size()];
        auto response = client.Post("/v1/search", body);
        if (!response.ok() || response.ValueUnsafe().status != 200) {
          failures.fetch_add(1);
          continue;
        }
        if (response.ValueUnsafe().body != oracle.at(body)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  // The storm actually coalesced (more requests than probes), and
  // /statsz surfaces the occupancy histogram.
  HttpClient verifier("127.0.0.1", server.port());
  auto statsz = verifier.Get("/statsz");
  ASSERT_TRUE(statsz.ok());
  auto parsed = Json::Parse(statsz.ValueUnsafe().body).ValueOrDie();
  const Json* batching = parsed.Find("batching");
  ASSERT_NE(batching, nullptr);
  int64_t batches = batching->GetInt64("batches", 0);
  int64_t batched_requests = batching->GetInt64("batched_requests", 0);
  EXPECT_GE(batched_requests,
            static_cast<int64_t>(bodies.size()) + kThreads * kRounds);
  EXPECT_GT(batched_requests, batches);
  ASSERT_NE(batching->Find("occupancy"), nullptr);
  EXPECT_EQ(batching->Find("occupancy")->GetInt64("count", -1), batches);

  ASSERT_TRUE(server.Stop().ok());
  lake.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// The batcher's leader waits for followers only when another search of
// its kind arrived within the last window. On an idle server a lone ann
// search and a lone keyword search each probe at once, even with a
// two-second window, and /statsz counts both groups as closed at once.
TEST(ServerConcurrencyTest, LoneSearchSkipsBatchWindow) {
  auto dir = MakeTempDir("mlake-server-lone").ValueOrDie();
  core::LakeOptions lake_options;
  lake_options.root = dir;
  lake_options.input_dim = kDim;
  lake_options.num_classes = kClasses;
  auto lake = core::ModelLake::Open(lake_options).MoveValueUnsafe();
  for (int i = 0; i < 2; ++i) {
    auto model = TrainSmall(300 + static_cast<uint64_t>(i));
    ASSERT_TRUE(
        lake->IngestModel(*model, CardFor("lone" + std::to_string(i))).ok());
  }

  ServerOptions options;
  options.threads = 4;
  options.enable_batching = true;
  options.batch_window_us = 2000000;
  LakeServer server(lake.get(), options);
  ASSERT_TRUE(server.Start().ok());

  HttpClient client("127.0.0.1", server.port());
  client.set_timeout_ms(20000);
  for (const char* body : {R"({"type": "ann", "id": "lone0", "k": 2})",
                           R"({"type": "keyword", "query": "sum legal", "k": 2})"}) {
    auto start = std::chrono::steady_clock::now();
    auto response = client.Post("/v1/search", body);
    auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.ValueUnsafe().status, 200) << response.ValueUnsafe().body;
    EXPECT_LT(elapsed, std::chrono::seconds(1)) << body;
  }

  auto statsz = client.Get("/statsz");
  ASSERT_TRUE(statsz.ok());
  auto parsed = Json::Parse(statsz.ValueUnsafe().body).ValueOrDie();
  const Json* batching = parsed.Find("batching");
  ASSERT_NE(batching, nullptr);
  EXPECT_GE(batching->GetInt64("closed_at_once", 0), 2);

  ASSERT_TRUE(server.Stop().ok());
  lake.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

}  // namespace
}  // namespace mlake::server
