// Crash-consistency and graceful-degradation tests for the lake: aborted
// ingests roll back (in place or on the next Open), quarantined blobs
// leave the rest of the lake searchable, and Open() sweeps up the debris
// an earlier crash left behind (pending intents, orphan blobs, *.tmp).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/fault_fs.h"
#include "common/file_util.h"
#include "common/random.h"
#include "core/model_lake.h"
#include "nn/trainer.h"
#include "storage/blob_store.h"

namespace mlake::core {
namespace {

constexpr int64_t kDim = 16;
constexpr int64_t kClasses = 4;

class LakeRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("mlake-recovery");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.ValueUnsafe();
  }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  LakeOptions Options(const std::string& root, Fs* fs = nullptr) {
    LakeOptions options;
    options.root = root;
    options.input_dim = kDim;
    options.num_classes = kClasses;
    options.probe_count = 8;
    options.fs = fs;
    options.retry = RetryPolicy::None();  // faults abort, not retry
    return options;
  }

  std::unique_ptr<nn::Model> MakeModel(uint64_t seed) {
    Rng rng(seed);
    return nn::BuildModel(nn::MlpSpec(kDim, {8}, kClasses), &rng)
        .MoveValueUnsafe();
  }

  metadata::ModelCard Card(const std::string& id) {
    metadata::ModelCard card;
    card.model_id = id;
    card.name = id;
    card.task = "classify";
    card.training_datasets = {"synthetic/" + id};
    card.creator = "recovery-test";
    return card;
  }

  /// Counts the mutating fs ops of a fresh open and of one ingest on top
  /// of it; the trial lakes replay the identical deterministic sequence.
  void ProbeOpCounts(uint64_t model_seed, uint64_t* open_ops,
                     uint64_t* total_ops) {
    auto probe_dir = MakeTempDir("mlake-recovery-probe").MoveValueUnsafe();
    FaultPlan plan;  // no faults: pure op counting
    FaultInjectingFs fs(RealFs(), plan);
    {
      auto lake = ModelLake::Open(Options(probe_dir, &fs)).MoveValueUnsafe();
      *open_ops = fs.mutating_ops();
      auto model = MakeModel(model_seed);
      ASSERT_TRUE(lake->IngestModel(*model, Card("m1")).ok());
      *total_ops = fs.mutating_ops();
    }
    ASSERT_TRUE(RemoveAll(probe_dir).ok());
    ASSERT_GT(*total_ops, *open_ops);
  }

  std::string dir_;
};

// An injected I/O error anywhere inside an ingest aborts the whole batch
// and the lake rolls back in place: no model, no half-written state, and
// the same lake object accepts the retry.
TEST_F(LakeRecoveryTest, AbortedIngestRollsBackInPlace) {
  uint64_t open_ops = 0, total_ops = 0;
  ProbeOpCounts(7, &open_ops, &total_ops);
  // Three representative fault points: the first mutating op of the
  // ingest (intent begin), the middle (blob/catalog writes), and near
  // the end (catalog sync / intent commit).
  uint64_t ingest_ops = total_ops - open_ops;
  for (uint64_t k :
       {uint64_t{1}, ingest_ops / 2, ingest_ops - 1}) {
    auto trial_dir = MakeTempDir("mlake-recovery-trial").MoveValueUnsafe();
    FaultPlan plan;
    plan.fail_ops = {open_ops + k};
    FaultInjectingFs fs(RealFs(), plan);
    auto lake = ModelLake::Open(Options(trial_dir, &fs)).MoveValueUnsafe();
    auto model = MakeModel(7);

    Status st = lake->IngestModel(*model, Card("m1")).status();
    EXPECT_FALSE(st.ok()) << "fault at ingest op " << k;
    EXPECT_EQ(fs.injected_errors(), 1u) << "fault at ingest op " << k;

    // All-or-nothing: the failed ingest left nothing behind.
    EXPECT_EQ(lake->NumModels(), 0u) << "fault at ingest op " << k;
    EXPECT_TRUE(lake->ListModels().empty());
    EXPECT_TRUE(lake->LoadModel("m1").status().IsNotFound());

    // The fault was one-shot; the same lake accepts the retry.
    auto retried = lake->IngestModel(*model, Card("m1"));
    ASSERT_TRUE(retried.ok())
        << "fault at ingest op " << k << ": " << retried.status().ToString();
    EXPECT_EQ(lake->NumModels(), 1u);
    EXPECT_TRUE(lake->LoadModel("m1").ok());

    lake.reset();
    ASSERT_TRUE(RemoveAll(trial_dir).ok());
  }
}

// If the process dies mid-ingest (here: the fs goes dead, so even the
// in-place rollback fails), the durable intent stays pending and the
// next Open() finishes the rollback.
// Abort, not Commit: on a replication-log lake, an IngestModels batch
// and an IngestCards batch that fail mid-apply roll back without ever
// entering the op log a leader ships, and the next successful write is
// the log's only entry.
TEST_F(LakeRecoveryTest, AbortedWritesNeverEnterTheOpLog) {
  auto replicated = [this](const std::string& root, Fs* fs) {
    LakeOptions options = Options(root, fs);
    options.replication_log = true;
    return options;
  };
  auto m1 = MakeModel(11);
  auto m2 = MakeModel(12);
  std::vector<IngestRequest> models(2);
  models[0].model = m1.get();
  models[0].card = Card("model-a");
  models[1].model = m2.get();
  models[1].card = Card("model-b");
  std::vector<CardIngest> cards(2);
  for (size_t i = 0; i < cards.size(); ++i) {
    cards[i].card = Card("card-" + std::to_string(i));
  }

  // Opens a fresh lake under `plan`, runs the model batch then the card
  // batch, and reports the op count after the open and after each
  // batch. Serial exec makes the sequence reproducible.
  struct Run {
    std::string dir;
    std::unique_ptr<FaultInjectingFs> fs;
    std::unique_ptr<ModelLake> lake;
    uint64_t marks[3] = {0, 0, 0};
    Status models_status, cards_status;
  };
  auto run = [&](FaultPlan plan) {
    Run r;
    r.dir = MakeTempDir("mlake-recovery-oplog").MoveValueUnsafe();
    r.fs = std::make_unique<FaultInjectingFs>(RealFs(), plan);
    r.lake = ModelLake::Open(replicated(r.dir, r.fs.get())).MoveValueUnsafe();
    r.marks[0] = r.fs->mutating_ops();
    r.models_status = r.lake->IngestModels(models).status();
    r.marks[1] = r.fs->mutating_ops();
    for (CardIngest& c : cards) {
      c.embedding.assign(r.lake->EmbeddingDim(), 0.25f);
    }
    r.cards_status = r.lake->IngestCards(cards).status();
    r.marks[2] = r.fs->mutating_ops();
    return r;
  };
  auto cleanup = [](Run* r) {
    r->lake.reset();
    ASSERT_TRUE(RemoveAll(r->dir).ok());
  };

  // Probe 1: no faults. The model batch's middle op lands after its
  // intent begin, among the blob and catalog writes.
  Run clean = run(FaultPlan{});
  ASSERT_TRUE(clean.models_status.ok());
  ASSERT_TRUE(clean.cards_status.ok());
  FaultPlan first;
  first.fail_ops = {clean.marks[0] + (clean.marks[1] - clean.marks[0]) / 2};
  cleanup(&clean);

  // Probe 2: only the model batch fails; its rollback shifts the op
  // indices of the card batch that follows.
  Run half = run(first);
  ASSERT_FALSE(half.models_status.ok());
  ASSERT_TRUE(half.cards_status.ok());
  FaultPlan both = first;
  both.fail_ops.push_back(half.marks[1] +
                          (half.marks[2] - half.marks[1]) / 2);
  cleanup(&half);

  Run trial = run(both);
  EXPECT_FALSE(trial.models_status.ok());
  EXPECT_FALSE(trial.cards_status.ok());
  EXPECT_EQ(trial.fs->injected_errors(), 2u);
  EXPECT_EQ(trial.lake->NumModels(), 0u);
  Json log = trial.lake->ReplicationLogJson(1, 100).ValueOrDie();
  EXPECT_TRUE(log.Find("entries")->AsArray().empty()) << log.Dump();
  EXPECT_EQ(trial.lake->ReplicationLastSeq(), 0u);

  // The faults were one-shot: the retried card batch commits and ships
  // as the only entry.
  ASSERT_TRUE(trial.lake->IngestCards(cards).ok());
  log = trial.lake->ReplicationLogJson(1, 100).ValueOrDie();
  const Json::Array& entries = log.Find("entries")->AsArray();
  ASSERT_EQ(entries.size(), 1u) << log.Dump();
  storage::Intent entry = storage::Intent::FromJson(entries[0]).ValueOrDie();
  EXPECT_EQ(entry.op, "ingest");
  EXPECT_EQ(entry.ids, (std::vector<std::string>{"card-0", "card-1"}));
  EXPECT_TRUE(entry.digests.empty());
  cleanup(&trial);
}

// An empty batch is a no-op: nothing is journaled, so a leader never
// ships an entry a replica cannot replay.
TEST_F(LakeRecoveryTest, EmptyIngestBatchWritesNothing) {
  FaultInjectingFs fs(RealFs(), FaultPlan{});
  LakeOptions options = Options(dir_, &fs);
  options.replication_log = true;
  auto lake = ModelLake::Open(options).MoveValueUnsafe();
  const uint64_t opened = fs.mutating_ops();
  auto ingested = lake->IngestModels({});
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  EXPECT_TRUE(ingested.ValueUnsafe().empty());
  ASSERT_TRUE(lake->IngestCards({}).ok());
  EXPECT_EQ(fs.mutating_ops(), opened);
  EXPECT_EQ(lake->ReplicationLastSeq(), 0u);
}

TEST_F(LakeRecoveryTest, PendingIntentRolledBackOnReopen) {
  uint64_t open_ops = 0, total_ops = 0;
  ProbeOpCounts(9, &open_ops, &total_ops);
  {
    FaultPlan plan;
    plan.crash_at_op = total_ops - 2;  // well after the intent is durable
    FaultInjectingFs fs(RealFs(), plan);
    auto lake = ModelLake::Open(Options(dir_, &fs)).MoveValueUnsafe();
    auto model = MakeModel(9);
    EXPECT_FALSE(lake->IngestModel(*model, Card("m1")).ok());
    EXPECT_TRUE(fs.crashed());
  }
  // Reopen on the real filesystem: recovery rolls the intent back.
  auto lake = ModelLake::Open(Options(dir_)).MoveValueUnsafe();
  EXPECT_EQ(lake->recovery().rolled_back_intents, 1u);
  ASSERT_EQ(lake->recovery().rolled_back_ids.size(), 1u);
  EXPECT_EQ(lake->recovery().rolled_back_ids[0], "m1");
  EXPECT_EQ(lake->NumModels(), 0u);
  // No residue: every surviving blob is referenced and verifies.
  EXPECT_TRUE(lake->FsckArtifacts().ValueOrDie().empty());
  // The lake is fully usable; the aborted batch can be re-ingested.
  auto model = MakeModel(9);
  ASSERT_TRUE(lake->IngestModel(*model, Card("m1")).ok());
  EXPECT_TRUE(lake->LoadModel("m1").ok());
  // A second open is clean: recovery already completed.
  lake.reset();
  lake = ModelLake::Open(Options(dir_)).MoveValueUnsafe();
  EXPECT_EQ(lake->recovery().rolled_back_intents, 0u);
  EXPECT_EQ(lake->NumModels(), 1u);
}

// Acceptance criterion: quarantining one model's blob leaves every other
// model fully searchable, and the degraded model is fenced off from all
// serving paths while keeping its catalog entry for forensics.
TEST_F(LakeRecoveryTest, QuarantineLeavesOtherModelsSearchable) {
  auto lake = ModelLake::Open(Options(dir_)).MoveValueUnsafe();
  for (uint64_t seed : {1, 2, 3}) {
    auto model = MakeModel(seed);
    ASSERT_TRUE(
        lake->IngestModel(*model, Card("m" + std::to_string(seed))).ok());
  }

  ASSERT_TRUE(lake->QuarantineModel("m2").ok());
  EXPECT_TRUE(lake->IsDegraded("m2"));
  EXPECT_EQ(lake->DegradedModels(), std::vector<std::string>{"m2"});
  // Admin view keeps the record; search view hides it.
  EXPECT_EQ(lake->ListModels().size(), 3u);
  EXPECT_EQ(lake->AllModelIds(),
            (std::vector<std::string>{"m1", "m3"}));
  // Serving paths refuse the degraded model but nothing else.
  EXPECT_TRUE(lake->LoadModel("m2").status().IsFailedPrecondition());
  EXPECT_TRUE(lake->LoadModel("m1").ok());
  EXPECT_TRUE(lake->LoadModel("m3").ok());
  auto related = lake->RelatedModels("m1", 5).ValueOrDie();
  for (const auto& r : related) EXPECT_NE(r.id, "m2");
  // The audit answers instead of erroring, and says why.
  Json audit = lake->AuditModel("m2").ValueOrDie();
  EXPECT_TRUE(audit.GetBool("quarantined", false));
  // Degradation survives a reopen (persisted in the catalog).
  EXPECT_TRUE(lake->QuarantineModel("nope").IsNotFound());
  lake.reset();
  lake = ModelLake::Open(Options(dir_)).MoveValueUnsafe();
  EXPECT_TRUE(lake->IsDegraded("m2"));
  EXPECT_EQ(lake->AllModelIds(),
            (std::vector<std::string>{"m1", "m3"}));
}

// fsck --repair end to end: a corrupt blob is detected, quarantined, and
// the lake degrades gracefully instead of failing queries.
TEST_F(LakeRecoveryTest, FsckRepairQuarantinesCorruptBlob) {
  auto lake = ModelLake::Open(Options(dir_)).MoveValueUnsafe();
  auto m1 = MakeModel(21);
  ASSERT_TRUE(lake->IngestModel(*m1, Card("m1")).ok());
  std::string blob_root = JoinPath(dir_, "blobs");
  auto blobs = storage::BlobStore::Open(blob_root, {}).MoveValueUnsafe();
  auto before = blobs.List().ValueOrDie();
  ASSERT_EQ(before.size(), 1u);
  auto m2 = MakeModel(22);
  ASSERT_TRUE(lake->IngestModel(*m2, Card("m2")).ok());
  auto after = blobs.List().ValueOrDie();
  ASSERT_EQ(after.size(), 2u);
  std::string m2_digest = after[0] == before[0] ? after[1] : after[0];

  // Rot m2's artifact on disk behind the lake's back.
  std::string blob_path = JoinPath(
      JoinPath(JoinPath(blob_root, "objects"), m2_digest.substr(0, 2)),
      m2_digest);
  ASSERT_TRUE(RealFs()->WriteFile(blob_path, "rotten bytes").ok());

  EXPECT_EQ(lake->FsckArtifacts().ValueOrDie(),
            std::vector<std::string>{"m2"});
  FsckReport report = lake->FsckRepair().ValueOrDie();
  EXPECT_EQ(report.corrupted, std::vector<std::string>{"m2"});
  EXPECT_EQ(report.quarantined, std::vector<std::string>{m2_digest});

  // The bad blob moved out of serving into quarantine/.
  EXPECT_TRUE(blobs.List().ValueOrDie() ==
              std::vector<std::string>{before[0]});
  EXPECT_EQ(blobs.ListQuarantined().ValueOrDie(),
            std::vector<std::string>{m2_digest});
  // Post-repair the lake is healthy: fsck is clean, m1 serves, m2 fenced.
  EXPECT_TRUE(lake->FsckArtifacts().ValueOrDie().empty());
  EXPECT_TRUE(lake->IsDegraded("m2"));
  EXPECT_TRUE(lake->LoadModel("m1").ok());
  EXPECT_TRUE(lake->LoadModel("m2").status().IsFailedPrecondition());
  EXPECT_EQ(lake->AllModelIds(), std::vector<std::string>{"m1"});
}

// Open() sweeps debris: stray atomic-write temp files and blobs no model
// references (both are what an ill-timed crash leaves behind).
TEST_F(LakeRecoveryTest, OpenSweepsStrayTmpAndOrphanBlobs) {
  {
    auto lake = ModelLake::Open(Options(dir_)).MoveValueUnsafe();
    auto model = MakeModel(31);
    ASSERT_TRUE(lake->IngestModel(*model, Card("m1")).ok());
    EXPECT_EQ(lake->recovery().tmp_files_removed, 0u);
    EXPECT_EQ(lake->recovery().orphan_blobs_removed, 0u);
  }
  // Plant a stray temp file and an unreferenced (orphan) blob.
  std::string stray = JoinPath(dir_, "graph.json.tmp.3");
  ASSERT_TRUE(RealFs()->WriteFile(stray, "half-written").ok());
  std::string orphan(64, 'a');
  std::string orphan_dir =
      JoinPath(JoinPath(JoinPath(dir_, "blobs"), "objects"), "aa");
  ASSERT_TRUE(RealFs()->CreateDirs(orphan_dir).ok());
  ASSERT_TRUE(
      RealFs()->WriteFile(JoinPath(orphan_dir, orphan), "orphan").ok());

  auto lake = ModelLake::Open(Options(dir_)).MoveValueUnsafe();
  EXPECT_GE(lake->recovery().tmp_files_removed, 1u);
  EXPECT_EQ(lake->recovery().orphan_blobs_removed, 1u);
  EXPECT_FALSE(RealFs()->FileExists(stray));
  EXPECT_FALSE(RealFs()->FileExists(JoinPath(orphan_dir, orphan)));
  // The referenced model was not collateral damage.
  EXPECT_TRUE(lake->LoadModel("m1").ok());
  EXPECT_TRUE(lake->FsckArtifacts().ValueOrDie().empty());
}

}  // namespace
}  // namespace mlake::core
