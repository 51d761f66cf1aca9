// Journal-streaming replication (DESIGN.md §14): the op-log journal,
// the non-idempotent-POST client guard, replica catch-up with
// byte-identical search, epoch fencing, truncation/divergence re-seed,
// and leader-loss failover through the cluster router.

#include "replication/replicator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "common/file_util.h"
#include "common/json.h"
#include "core/model_lake.h"
#include "nn/trainer.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/intent_journal.h"

namespace mlake::replication {
namespace {

constexpr int64_t kDim = 16;
constexpr int64_t kClasses = 4;

core::LakeOptions LakeOpts(const std::string& root) {
  core::LakeOptions options;
  options.root = root;
  options.input_dim = kDim;
  options.num_classes = kClasses;
  options.probe_count = 8;
  options.replication_log = true;
  return options;
}

std::unique_ptr<nn::Model> MakeModel(uint64_t seed) {
  Rng rng(seed);
  return nn::BuildModel(nn::MlpSpec(kDim, {8}, kClasses), &rng)
      .MoveValueUnsafe();
}

metadata::ModelCard Card(const std::string& id, const std::string& task) {
  metadata::ModelCard card;
  card.model_id = id;
  card.name = id;
  card.task = task;
  card.training_datasets = {task + "/synthetic"};
  card.creator = "replication-test";
  return card;
}

// ---------------------------------------------------------------------------
// Op-log journal semantics (storage layer)
// ---------------------------------------------------------------------------

TEST(OpLogJournalTest, CommitRetainsAbortDoesNot) {
  std::string dir = MakeTempDir("mlake-oplog").ValueOrDie();
  {
    auto journal = storage::IntentJournal::Open(dir, nullptr, true)
                       .MoveValueUnsafe();
    storage::Intent a;
    a.op = "ingest";
    a.ids = {"m1"};
    uint64_t seq_a = journal.Begin(a).ValueOrDie();
    storage::Intent b;
    b.op = "ingest";
    b.ids = {"m2"};
    uint64_t seq_b = journal.Begin(b).ValueOrDie();
    ASSERT_TRUE(journal.Commit(seq_a).ok());
    // Aborted (rolled-back) intents never enter the replayable log.
    ASSERT_TRUE(journal.Abort(seq_b).ok());

    auto committed = journal.Committed(1).ValueOrDie();
    ASSERT_EQ(committed.size(), 1u);
    EXPECT_EQ(committed[0].seq, seq_a);
    EXPECT_EQ(committed[0].ids, std::vector<std::string>{"m1"});
    EXPECT_EQ(journal.last_committed_seq(), seq_a);
  }
  // The log and the seq space survive reopen.
  auto reopened = storage::IntentJournal::Open(dir, nullptr, true)
                      .MoveValueUnsafe();
  EXPECT_EQ(reopened.Committed(1).ValueOrDie().size(), 1u);
  EXPECT_EQ(reopened.last_committed_seq(), 1u);
  storage::Intent c;
  c.op = "ingest";
  // The aborted seq 2 is NOT reused pending-vs-committed-safe? It may
  // be reused (nothing on disk holds it) — what matters is strictly
  // increasing beyond everything committed.
  EXPECT_GT(reopened.Begin(c).ValueOrDie(), 1u);
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST(OpLogJournalTest, BeginAtPreservesLeaderSeqAndEpoch) {
  std::string dir = MakeTempDir("mlake-oplog-at").ValueOrDie();
  auto journal =
      storage::IntentJournal::Open(dir, nullptr, true).MoveValueUnsafe();
  storage::Intent entry;
  entry.op = "ingest";
  entry.ids = {"m7"};
  entry.epoch = 42;  // the leader's epoch, not this journal's (0)
  ASSERT_EQ(journal.BeginAt(7, entry).ValueOrDie(), 7u);
  ASSERT_TRUE(journal.Commit(7).ok());
  auto committed = journal.Committed(1).ValueOrDie();
  ASSERT_EQ(committed.size(), 1u);
  EXPECT_EQ(committed[0].seq, 7u);
  EXPECT_EQ(committed[0].epoch, 42u);
  // Duplicate positions are refused; fresh Begins move past the gap.
  EXPECT_FALSE(journal.BeginAt(7, entry).ok());
  storage::Intent next;
  next.op = "ingest";
  EXPECT_GT(journal.Begin(next).ValueOrDie(), 7u);
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST(OpLogJournalTest, TruncateIsDurableAcrossReopen) {
  std::string dir = MakeTempDir("mlake-oplog-trunc").ValueOrDie();
  {
    auto journal =
        storage::IntentJournal::Open(dir, nullptr, true).MoveValueUnsafe();
    for (int i = 0; i < 3; ++i) {
      storage::Intent entry;
      entry.op = "ingest";
      entry.ids = {"m" + std::to_string(i)};
      uint64_t seq = journal.Begin(entry).ValueOrDie();
      ASSERT_TRUE(journal.Commit(seq).ok());
    }
    ASSERT_TRUE(journal.Truncate(2).ok());
    EXPECT_EQ(journal.truncated_upto(), 2u);
    auto committed = journal.Committed(1).ValueOrDie();
    ASSERT_EQ(committed.size(), 1u);
    EXPECT_EQ(committed[0].seq, 3u);
  }
  // Reopen: the floor holds, GC'd entries stay gone, the seq space
  // does not reuse truncated positions.
  auto reopened =
      storage::IntentJournal::Open(dir, nullptr, true).MoveValueUnsafe();
  EXPECT_EQ(reopened.truncated_upto(), 2u);
  EXPECT_EQ(reopened.last_committed_seq(), 3u);
  EXPECT_EQ(reopened.Committed(1).ValueOrDie().size(), 1u);
  storage::Intent entry;
  entry.op = "ingest";
  EXPECT_EQ(reopened.Begin(entry).ValueOrDie(), 4u);
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST(OpLogJournalTest, EpochIsDurableAndMonotonic) {
  std::string dir = MakeTempDir("mlake-oplog-epoch").ValueOrDie();
  {
    auto journal =
        storage::IntentJournal::Open(dir, nullptr, true).MoveValueUnsafe();
    EXPECT_EQ(journal.epoch(), 0u);
    ASSERT_TRUE(journal.SetEpoch(5).ok());
    EXPECT_FALSE(journal.SetEpoch(3).ok());  // fencing is monotonic
    EXPECT_EQ(journal.epoch(), 5u);
    // New entries are stamped with the current epoch.
    storage::Intent entry;
    entry.op = "ingest";
    uint64_t seq = journal.Begin(entry).ValueOrDie();
    ASSERT_TRUE(journal.Commit(seq).ok());
    EXPECT_EQ(journal.Committed(1).ValueOrDie()[0].epoch, 5u);
  }
  auto reopened =
      storage::IntentJournal::Open(dir, nullptr, true).MoveValueUnsafe();
  EXPECT_EQ(reopened.epoch(), 5u);
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// ---------------------------------------------------------------------------
// HttpClient: non-idempotent POSTs must not ride the keep-alive retry
// ---------------------------------------------------------------------------

TEST(ClientIdempotencyTest, NonIdempotentPostIsNotSilentlyResent) {
  std::string dir = MakeTempDir("mlake-noretry").ValueOrDie();
  core::LakeOptions options;
  options.root = dir;
  options.input_dim = kDim;
  options.num_classes = kClasses;
  auto lake = core::ModelLake::Open(options).MoveValueUnsafe();

  server::ServerOptions server_options;
  server_options.threads = 2;
  // Time idle connections out quickly so the second request of each
  // pair below hits the keep-alive race (server closed, client's fd
  // still open).
  server_options.keep_alive_timeout_ms = 50;
  server::LakeServer server(lake.get(), server_options);
  ASSERT_TRUE(server.Start().ok());
  server::HttpClient client("127.0.0.1", server.port());

  const std::string body =
      R"({"type": "mlql", "query": "FIND MODELS LIMIT 1"})";
  // Prime a keep-alive connection, let the server close it.
  auto first = client.Post("/v1/search", body);
  ASSERT_TRUE(first.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  // Non-idempotent (the default): the client must surface the dead
  // connection instead of silently resending — the server may have
  // applied a half-delivered mutation before the connection died.
  auto second = client.Post("/v1/search", body);
  EXPECT_FALSE(second.ok());

  // Opting in re-enables the transparent retry for read-only POSTs.
  auto third = client.Post("/v1/search", body);  // fresh connection, ok
  ASSERT_TRUE(third.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  auto retried = client.Post("/v1/search", body, {}, /*timeout_ms=*/0,
                             /*idempotent=*/true);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried.ValueUnsafe().status, 200);

  ASSERT_TRUE(server.Stop().ok());
  lake.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// ---------------------------------------------------------------------------
// Replica catch-up, fencing, divergence repair
// ---------------------------------------------------------------------------

/// One leader lake + server with a few models, an edge and a dataset,
/// rebuilt per test (mutation tests would otherwise interfere).
class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = MakeTempDir("mlake-replication").ValueOrDie();
    leader_dir_ = JoinPath(root_, "leader");
    replica_dir_ = JoinPath(root_, "replica");
    leader_lake_ =
        core::ModelLake::Open(LakeOpts(leader_dir_)).MoveValueUnsafe();

    auto m1 = MakeModel(1);
    auto m2 = MakeModel(2);
    auto m3 = MakeModel(3);
    ASSERT_TRUE(leader_lake_->IngestModel(*m1, Card("base-sum", "sum")).ok());
    ASSERT_TRUE(leader_lake_->IngestModel(*m2, Card("ft-sum", "sum")).ok());
    ASSERT_TRUE(leader_lake_->IngestModel(*m3, Card("mean-1", "mean")).ok());
    versioning::VersionEdge edge;
    edge.parent = "base-sum";
    edge.child = "ft-sum";
    edge.type = versioning::EdgeType::kFinetune;
    ASSERT_TRUE(leader_lake_->RecordEdge(edge).ok());
    ASSERT_TRUE(
        leader_lake_->RegisterDataset("corpus/sum", {"s1", "s2"}).ok());

    server::ServerOptions server_options;
    server_options.threads = 4;
    leader_server_ = std::make_unique<server::LakeServer>(leader_lake_.get(),
                                                          server_options);
    ASSERT_TRUE(leader_server_->Start().ok());
  }

  void TearDown() override {
    replicator_.reset();
    if (replica_server_ != nullptr) {
      EXPECT_TRUE(replica_server_->Stop().ok());
    }
    replica_server_.reset();
    replica_lake_.reset();
    if (leader_server_ != nullptr) {
      EXPECT_TRUE(leader_server_->Stop().ok());
    }
    leader_server_.reset();
    leader_lake_.reset();
    ASSERT_TRUE(RemoveAll(root_).ok());
  }

  /// Opens the replica lake + Replicator against the leader server.
  void OpenReplica() {
    replica_lake_ =
        core::ModelLake::Open(LakeOpts(replica_dir_)).MoveValueUnsafe();
    ReplicaOptions options;
    options.leader_port = leader_server_->port();
    replicator_ =
        Replicator::Open(replica_lake_.get(), options).MoveValueUnsafe();
  }

  /// Starts an mlaked over the replica lake with the replication seam.
  void StartReplicaServer() {
    server::ServerOptions options;
    options.threads = 4;
    options.replication = replicator_.get();
    replica_server_ = std::make_unique<server::LakeServer>(
        replica_lake_.get(), options);
    ASSERT_TRUE(replica_server_->Start().ok());
  }

  std::string root_, leader_dir_, replica_dir_;
  std::unique_ptr<core::ModelLake> leader_lake_;
  std::unique_ptr<server::LakeServer> leader_server_;
  std::unique_ptr<core::ModelLake> replica_lake_;
  std::unique_ptr<Replicator> replicator_;
  std::unique_ptr<server::LakeServer> replica_server_;
};

TEST_F(ReplicationTest, CatchUpIsByteIdenticalAcrossSearchKinds) {
  OpenReplica();
  auto applied = replicator_->SyncOnce();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_GE(applied.ValueUnsafe(), 4u);  // 3 ingests + edge + dataset
  EXPECT_EQ(replicator_->AppliedSeq(), leader_lake_->ReplicationLastSeq());

  // The logical state converged exactly.
  EXPECT_EQ(replica_lake_->ReplicationFingerprint(),
            leader_lake_->ReplicationFingerprint());
  EXPECT_EQ(replica_lake_->ListModels(), leader_lake_->ListModels());
  EXPECT_TRUE(replica_lake_->HasEdge("base-sum", "ft-sum"));
  EXPECT_EQ(replica_lake_->DatasetShards("corpus/sum").ValueOrDie(),
            leader_lake_->DatasetShards("corpus/sum").ValueOrDie());

  // Every search family answers byte-identically through HTTP.
  StartReplicaServer();
  server::HttpClient leader_client("127.0.0.1", leader_server_->port());
  server::HttpClient replica_client("127.0.0.1", replica_server_->port());
  const std::vector<std::string> bodies = {
      R"({"type": "ann", "id": "base-sum", "k": 3})",
      R"({"type": "keyword", "query": "sum", "k": 5})",
      R"({"type": "mlql", "query": "FIND MODELS WHERE task = 'sum' LIMIT 5"})",
      R"({"type": "hybrid", "query": "sum", "id": "base-sum", "k": 3})",
  };
  for (const std::string& body : bodies) {
    auto from_leader = leader_client.Post("/v1/search", body);
    auto from_replica = replica_client.Post("/v1/search", body);
    ASSERT_TRUE(from_leader.ok()) << body;
    ASSERT_TRUE(from_replica.ok()) << body;
    ASSERT_EQ(from_leader.ValueUnsafe().status, 200)
        << from_leader.ValueUnsafe().body;
    EXPECT_EQ(from_replica.ValueUnsafe().body, from_leader.ValueUnsafe().body)
        << body;
  }

  // The watermark is visible in /statsz and the replica fences ingest.
  auto statsz = replica_client.Get("/statsz");
  ASSERT_TRUE(statsz.ok());
  auto parsed = Json::Parse(statsz.ValueUnsafe().body).ValueOrDie();
  const Json* replication = parsed.Find("replication");
  ASSERT_NE(replication, nullptr);
  EXPECT_EQ(replication->GetString("role"), "replica");
  EXPECT_EQ(static_cast<uint64_t>(replication->GetInt64("applied_seq")),
            leader_lake_->ReplicationLastSeq());
  EXPECT_TRUE(replication->GetBool("caught_up"));
  auto fenced = replica_client.Post("/v1/ingest", "{}");
  ASSERT_TRUE(fenced.ok());
  EXPECT_EQ(fenced.ValueUnsafe().status, 409);
}

TEST_F(ReplicationTest, GovernanceExportIsByteIdenticalOnCaughtUpReplica) {
  OpenReplica();
  StartReplicaServer();
  server::HttpClient leader_client("127.0.0.1", leader_server_->port());
  server::HttpClient replica_client("127.0.0.1", replica_server_->port());

  // Before the first successful sync the replica cannot vouch for its
  // watermark, so governance reads answer 503 with a Retry-After hint
  // while plain reads keep serving.
  auto stale = replica_client.Get("/v1/export");
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale.ValueUnsafe().status, 503);
  EXPECT_FALSE(stale.ValueUnsafe().Header("retry-after").empty());
  // (404, not 503: the model simply has not arrived yet — plain reads
  // are answered from whatever state the replica has.)
  auto plain = replica_client.Get("/v1/models/base-sum");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.ValueUnsafe().status, 404);

  ASSERT_TRUE(replicator_->SyncOnce().ok());
  ASSERT_EQ(replicator_->AppliedSeq(), leader_lake_->ReplicationLastSeq());

  // The export excludes revision/epoch counters by design, so a
  // caught-up replica drains byte-identically to its leader.
  auto drain = [](core::ModelLake* lake) {
    auto iterator = lake->OpenExport();
    std::string out, line;
    while (iterator->Next(&line)) out += line;
    return out;
  };
  const std::string from_leader = drain(leader_lake_.get());
  ASSERT_FALSE(from_leader.empty());
  EXPECT_EQ(drain(replica_lake_.get()), from_leader);

  // The same bytes come back through the chunked HTTP endpoint, and
  // the caught-up replica now serves them itself.
  auto leader_http = leader_client.Get("/v1/export");
  auto replica_http = replica_client.Get("/v1/export");
  ASSERT_TRUE(leader_http.ok());
  ASSERT_TRUE(replica_http.ok());
  ASSERT_EQ(leader_http.ValueUnsafe().status, 200);
  ASSERT_EQ(replica_http.ValueUnsafe().status, 200);
  EXPECT_EQ(leader_http.ValueUnsafe().body, from_leader);
  EXPECT_EQ(replica_http.ValueUnsafe().body, from_leader);

  // Citation documents agree too: replaying the leader's op log drives
  // the replica's graph through the same mutation sequence, so the
  // revision the citation pins converges along with the content.
  auto leader_cite = leader_client.Get("/v1/models/ft-sum/citation");
  auto replica_cite = replica_client.Get("/v1/models/ft-sum/citation");
  ASSERT_TRUE(leader_cite.ok());
  ASSERT_TRUE(replica_cite.ok());
  ASSERT_EQ(leader_cite.ValueUnsafe().status, 200);
  EXPECT_EQ(replica_cite.ValueUnsafe().body, leader_cite.ValueUnsafe().body);
}

TEST_F(ReplicationTest, IncrementalCatchUpFollowsNewWrites) {
  OpenReplica();
  ASSERT_TRUE(replicator_->SyncOnce().ok());
  uint64_t watermark = replicator_->AppliedSeq();

  auto m4 = MakeModel(4);
  ASSERT_TRUE(leader_lake_->IngestModel(*m4, Card("late-1", "mean")).ok());
  versioning::VersionEdge edge;
  edge.parent = "mean-1";
  edge.child = "late-1";
  edge.type = versioning::EdgeType::kFinetune;
  ASSERT_TRUE(leader_lake_->RecordEdge(edge).ok());

  auto applied = replicator_->SyncOnce();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.ValueUnsafe(), 2u);
  EXPECT_GT(replicator_->AppliedSeq(), watermark);
  EXPECT_EQ(replica_lake_->ReplicationFingerprint(),
            leader_lake_->ReplicationFingerprint());
  EXPECT_TRUE(replica_lake_->ArtifactDigest("late-1").ok());
}

TEST_F(ReplicationTest, CardEditReplaysWithoutReseed) {
  OpenReplica();
  ASSERT_TRUE(replicator_->SyncOnce().ok());

  // A card edit (what `mlake doc --apply` writes) is journaled as an
  // update_card op, so the replica replays it from the log instead of
  // learning of it through a fingerprint mismatch and a full re-seed.
  metadata::ModelCard edited = leader_lake_->CardFor("ft-sum").ValueOrDie();
  edited.description = "fine-tuned summarizer, audited";
  edited.tags = {"audited"};
  ASSERT_TRUE(leader_lake_->UpdateCard(edited).ok());

  auto applied = replicator_->SyncOnce();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.ValueUnsafe(), 1u);
  EXPECT_EQ(replicator_->reseeds(), 0u);
  auto card = replica_lake_->CardFor("ft-sum");
  ASSERT_TRUE(card.ok()) << card.status().ToString();
  EXPECT_EQ(card.ValueUnsafe().description, "fine-tuned summarizer, audited");
  EXPECT_EQ(card.ValueUnsafe().tags, std::vector<std::string>{"audited"});
  EXPECT_EQ(replica_lake_->ReplicationFingerprint(),
            leader_lake_->ReplicationFingerprint());
  // The replica's keyword index follows the edit too.
  auto hits = replica_lake_->KeywordScores("audited", 5);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits.ValueUnsafe().empty());
  EXPECT_EQ(hits.ValueUnsafe().front().first, "ft-sum");

  // Redelivery of the edit is recognised as applied.
  Json log = leader_lake_->ReplicationLogJson(1, 100).ValueOrDie();
  const Json& last = log.Find("entries")->AsArray().back();
  storage::Intent entry = storage::Intent::FromJson(last).ValueOrDie();
  EXPECT_EQ(entry.op, "update_card");
  EXPECT_TRUE(replica_lake_->HasApplied(entry).ValueOrDie());
}

TEST_F(ReplicationTest, RedeliveryAfterLostWatermarkIsIdempotent) {
  OpenReplica();
  ASSERT_TRUE(replicator_->SyncOnce().ok());
  std::string fingerprint = replica_lake_->ReplicationFingerprint();

  // Simulate a lost watermark: delete the state file and reopen the
  // replicator. LoadState reconciles against the replica lake's own
  // journal, and any redelivered entries are detected and skipped.
  replicator_.reset();
  ASSERT_TRUE(RemoveAll(JoinPath(replica_dir_, "replica_state.json")).ok());
  ReplicaOptions options;
  options.leader_port = leader_server_->port();
  replicator_ =
      Replicator::Open(replica_lake_.get(), options).MoveValueUnsafe();
  EXPECT_EQ(replicator_->AppliedSeq(), leader_lake_->ReplicationLastSeq());
  auto applied = replicator_->SyncOnce();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.ValueUnsafe(), 0u);
  EXPECT_EQ(replica_lake_->ReplicationFingerprint(), fingerprint);
}

TEST_F(ReplicationTest, StaleEpochShipIsFenced) {
  // The leader moves to epoch 3; the replica adopts it during catch-up.
  ASSERT_TRUE(leader_lake_->SetReplicationEpoch(3).ok());
  auto m4 = MakeModel(9);
  ASSERT_TRUE(leader_lake_->IngestModel(*m4, Card("epoch3", "sum")).ok());
  OpenReplica();
  ASSERT_TRUE(replicator_->SyncOnce().ok());
  EXPECT_EQ(replicator_->epoch(), 3u);
  EXPECT_EQ(replica_lake_->ReplicationEpoch(), 3u);

  // A partitioned old leader (epoch 2) pushing a batch is rejected.
  Json stale = Json::MakeObject();
  stale.Set("epoch", static_cast<int64_t>(2));
  stale.Set("last_seq", static_cast<int64_t>(99));
  stale.Set("entries", Json::MakeArray());
  auto shipped = replicator_->Ship(stale);
  ASSERT_FALSE(shipped.ok());
  EXPECT_TRUE(shipped.status().IsFailedPrecondition());

  // The current leader's (empty) batch at epoch 3 is fine.
  Json fresh = Json::MakeObject();
  fresh.Set("epoch", static_cast<int64_t>(3));
  fresh.Set("last_seq",
            Json(static_cast<int64_t>(leader_lake_->ReplicationLastSeq())));
  fresh.Set("entries", Json::MakeArray());
  fresh.Set("exhausted", true);
  EXPECT_TRUE(replicator_->Ship(fresh).ok());
}

TEST_F(ReplicationTest, LogTruncationForcesSnapshotReseed) {
  // The leader GC's its whole log before the replica ever connects —
  // the replica's from_seq=1 pull answers 409 and re-seeds wholesale.
  ASSERT_TRUE(leader_lake_->TruncateReplicationLog(
                  leader_lake_->ReplicationLastSeq())
                  .ok());
  OpenReplica();
  auto applied = replicator_->SyncOnce();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(replicator_->reseeds(), 1u);
  EXPECT_EQ(replicator_->AppliedSeq(), leader_lake_->ReplicationLastSeq());
  EXPECT_EQ(replica_lake_->ReplicationFingerprint(),
            leader_lake_->ReplicationFingerprint());
  EXPECT_EQ(replica_lake_->ListModels(), leader_lake_->ListModels());
  EXPECT_TRUE(replica_lake_->HasEdge("base-sum", "ft-sum"));
}

// A card ingest's embedding reaches the replica as JSON text, in the op
// log and in the seed manifest, and that text spells -0.0 as "0". The
// lake stores a zero component as +0.0, so leader and replica hold the
// same vec bytes after log apply and after a re-seed, and a later
// fingerprint check finds nothing to repair.
TEST_F(ReplicationTest, SignedZeroEmbeddingFingerprintsAlikeOnReplica) {
  core::CardIngest ingest;
  ingest.card = Card("card-zero", "sum");
  ingest.embedding.assign(
      static_cast<size_t>(leader_lake_->EmbeddingDim()), 0.25f);
  ingest.embedding[0] = -0.0f;
  ASSERT_TRUE(leader_lake_->IngestCards({ingest}).ok());
  OpenReplica();
  auto applied = replicator_->SyncOnce();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(replicator_->reseeds(), 0u);
  EXPECT_EQ(replica_lake_->ReplicationFingerprint(),
            leader_lake_->ReplicationFingerprint());
  ASSERT_TRUE(replicator_->CheckDivergence().ok());
  EXPECT_EQ(replicator_->reseeds(), 0u);

  // Force a re-seed with an out-of-band replica write; the re-seeded
  // replica then matches, and stays matched.
  core::CardIngest rogue = ingest;
  rogue.card = Card("rogue-card", "sum");
  ASSERT_TRUE(replica_lake_->IngestCards({rogue}).ok());
  ASSERT_TRUE(replicator_->CheckDivergence().ok());
  EXPECT_EQ(replicator_->reseeds(), 1u);
  EXPECT_EQ(replica_lake_->ReplicationFingerprint(),
            leader_lake_->ReplicationFingerprint());
  ASSERT_TRUE(replicator_->CheckDivergence().ok());
  EXPECT_EQ(replicator_->reseeds(), 1u);
  std::vector<float> vec = replica_lake_->EmbeddingFor("card-zero").ValueOrDie();
  EXPECT_EQ(vec, ingest.embedding);
}

TEST_F(ReplicationTest, DivergenceIsDetectedAndRepaired) {
  OpenReplica();
  ASSERT_TRUE(replicator_->SyncOnce().ok());

  // Corrupt the replica out-of-band: a model the leader never saw.
  auto rogue = MakeModel(77);
  ASSERT_TRUE(
      replica_lake_->IngestModel(*rogue, Card("rogue", "sum")).ok());
  ASSERT_NE(replica_lake_->ReplicationFingerprint(),
            leader_lake_->ReplicationFingerprint());

  // The periodic fingerprint exchange catches it and re-seeds.
  ASSERT_TRUE(replicator_->CheckDivergence().ok());
  EXPECT_EQ(replicator_->reseeds(), 1u);
  EXPECT_EQ(replica_lake_->ReplicationFingerprint(),
            leader_lake_->ReplicationFingerprint());
  EXPECT_EQ(replica_lake_->ListModels(), leader_lake_->ListModels());
  EXPECT_FALSE(replica_lake_->ArtifactDigest("rogue").ok());
}

TEST_F(ReplicationTest, PromoteBumpsEpochAndAcceptsWrites) {
  OpenReplica();
  ASSERT_TRUE(replicator_->SyncOnce().ok());
  StartReplicaServer();
  server::HttpClient client("127.0.0.1", replica_server_->port());

  // mlake promote = POST /v1/replication/promote.
  auto promoted = client.Post("/v1/replication/promote", "{}", {});
  ASSERT_TRUE(promoted.ok());
  ASSERT_EQ(promoted.ValueUnsafe().status, 200)
      << promoted.ValueUnsafe().body;
  auto body = Json::Parse(promoted.ValueUnsafe().body).ValueOrDie();
  EXPECT_EQ(body.GetString("role"), "leader");
  EXPECT_FALSE(replicator_->IsReplica());
  EXPECT_GT(replicator_->epoch(), 0u);
  EXPECT_EQ(replica_lake_->ReplicationEpoch(), replicator_->epoch());

  // Ingest is no longer fenced; the write lands in the promoted lake's
  // own op log under the new epoch.
  uint64_t before = replica_lake_->ReplicationLastSeq();
  auto m5 = MakeModel(5);
  ASSERT_TRUE(replica_lake_->IngestModel(*m5, Card("post-promote", "sum"))
                  .ok());
  EXPECT_GT(replica_lake_->ReplicationLastSeq(), before);
  auto log = replica_lake_->ReplicationLogJson(before + 1, 16).ValueOrDie();
  const Json* entries = log.Find("entries");
  ASSERT_NE(entries, nullptr);
  ASSERT_GE(entries->size(), 1u);
  EXPECT_EQ(static_cast<uint64_t>(
                entries->AsArray().back().GetInt64("epoch")),
            replicator_->epoch());

  // A second promote is a no-op, not an error.
  auto again = client.Post("/v1/replication/promote", "{}", {});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.ValueUnsafe().status, 200);
}

// ---------------------------------------------------------------------------
// Leader loss through the router: reads keep flowing, promote restores
// writes
// ---------------------------------------------------------------------------

TEST_F(ReplicationTest, RouterFailsReadsOverToReplicaOnLeaderLoss) {
  OpenReplica();
  ASSERT_TRUE(replicator_->SyncOnce().ok());
  StartReplicaServer();

  cluster::RouterOptions options;
  options.cluster_size = 1;
  options.backends = {
      {"127.0.0.1", leader_server_->port(), 0},
      {"127.0.0.1", replica_server_->port(), 0},
  };
  options.heartbeat_misses_down = 1;
  options.enable_hedging = false;
  cluster::Router router(options);
  ASSERT_TRUE(router.Start().ok());
  router.TickNow();

  // Role-aware map: both backends serve reads (replica preferred), only
  // the leader takes writes.
  auto map = router.CurrentMap();
  ASSERT_NE(map, nullptr);
  ASSERT_EQ(map->replicas[0].size(), 2u);
  EXPECT_EQ(map->replicas[0][0], 1) << "reads should prefer the replica";
  ASSERT_EQ(map->writers[0].size(), 1u);
  EXPECT_EQ(map->writers[0][0], 0);

  server::HttpClient client("127.0.0.1", router.port());
  const std::string search_body =
      R"({"type": "keyword", "query": "sum", "k": 3})";
  auto before_loss = client.Post("/v1/search", search_body);
  ASSERT_TRUE(before_loss.ok());
  ASSERT_EQ(before_loss.ValueUnsafe().status, 200)
      << before_loss.ValueUnsafe().body;

  // Kill the leader. Reads must keep answering via the replica.
  ASSERT_TRUE(leader_server_->Stop().ok());
  router.TickNow();
  auto after_loss = client.Post("/v1/search", search_body);
  ASSERT_TRUE(after_loss.ok()) << after_loss.status().ToString();
  ASSERT_EQ(after_loss.ValueUnsafe().status, 200)
      << after_loss.ValueUnsafe().body;
  EXPECT_EQ(after_loss.ValueUnsafe().body, before_loss.ValueUnsafe().body);
  auto read = client.Get("/v1/models/base-sum");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.ValueUnsafe().status, 200);

  // Promote the replica; the router learns the new role from the next
  // heartbeat and the slot becomes writable again.
  server::HttpClient replica_client("127.0.0.1", replica_server_->port());
  auto promoted = replica_client.Post("/v1/replication/promote", "{}", {});
  ASSERT_TRUE(promoted.ok());
  ASSERT_EQ(promoted.ValueUnsafe().status, 200);
  router.TickNow();
  map = router.CurrentMap();
  // The dead leader is still listed (failover would walk past it), but
  // the healthy promoted replica ranks first and takes the writes.
  ASSERT_GE(map->writers[0].size(), 1u);
  EXPECT_EQ(map->writers[0][0], 1) << "promoted replica takes writes";

  ASSERT_TRUE(router.Stop().ok());
}

}  // namespace
}  // namespace mlake::replication
