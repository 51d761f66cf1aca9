// Lake-level tests for the incremental index lifecycle: metadata-only
// card ingest, compaction + snapshot reopen equivalence, stale-snapshot
// reconciliation, O(batch) rollback under injected faults, the stats
// surface, and the decoded column store MLQL and hybrid scan (equal to
// the catalog on every maintenance path; its sidecar sections treated
// as untrusted input).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_fs.h"
#include "common/file_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/model_lake.h"
#include "index/snapshot.h"
#include "lakegen/lakegen.h"
#include "nn/model.h"

namespace mlake::core {
namespace {

class LakeScaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("mlake-scale");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.ValueUnsafe();
  }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  LakeOptions Options(const std::string& name, Fs* fs = nullptr) {
    LakeOptions options;
    options.root = JoinPath(dir_, name);
    options.probe_count = 4;  // small embedding dim, fast tests
    options.background_compaction = false;
    options.fs = fs;
    if (fs != nullptr) options.retry = RetryPolicy::None();
    return options;
  }

  static std::vector<CardIngest> MakeBatch(int64_t dim, size_t n,
                                           uint64_t seed,
                                           const std::string& prefix) {
    Rng rng(seed);
    std::vector<CardIngest> batch(n);
    for (size_t i = 0; i < n; ++i) {
      metadata::ModelCard card;
      card.model_id = StrFormat("%s-%03zu", prefix.c_str(), i);
      card.name = card.model_id;
      card.task = i % 2 == 0 ? "summarization" : "retrieval";
      card.tags = {"scale"};
      card.training_datasets = {"synthetic/news"};
      card.creator = "scale-test";
      std::vector<float> vec(static_cast<size_t>(dim));
      double norm_sq = 0.0;
      for (float& x : vec) {
        x = static_cast<float>(rng.Normal());
        norm_sq += static_cast<double>(x) * x;
      }
      for (float& x : vec) x /= static_cast<float>(std::sqrt(norm_sq));
      batch[i].card = std::move(card);
      batch[i].embedding = std::move(vec);
    }
    return batch;
  }

  /// ANN + keyword results over a fixed probe set.
  static std::string Fingerprint(ModelLake* lake, int64_t dim) {
    std::string fp;
    Rng rng(99);
    for (int q = 0; q < 8; ++q) {
      std::vector<float> query(static_cast<size_t>(dim));
      for (float& x : query) x = static_cast<float>(rng.Normal());
      auto hits = lake->NearestModels(query, 5).MoveValueUnsafe();
      for (const auto& [id, dist] : hits) {
        fp += id + StrFormat("@%.6f;", dist);
      }
      fp += "|";
    }
    for (const char* text : {"summarization", "retrieval scale"}) {
      auto hits = lake->KeywordScores(text, 5).MoveValueUnsafe();
      for (const auto& [id, score] : hits) {
        fp += id + StrFormat("@%.6f;", score);
      }
      fp += "|";
    }
    return fp;
  }

  /// MakeBatch with every column varied: mixed-case dictionary values,
  /// empty fields, num_params, names that are not the id, descriptions,
  /// several tags, two training datasets and metrics.
  static std::vector<CardIngest> VariedBatch(int64_t dim, size_t n,
                                             uint64_t seed,
                                             const std::string& prefix) {
    const char* creators[] = {"Ada-Labs", "ada-labs", "DeltaML", "everglade"};
    const char* licenses[] = {"MIT", "apache-2.0", "mit", ""};
    const char* archs[] = {"mlp-32x16", "MLP-64", "", "res-mlp"};
    std::vector<CardIngest> batch = MakeBatch(dim, n, seed, prefix);
    for (size_t i = 0; i < n; ++i) {
      metadata::ModelCard& card = batch[i].card;
      card.creator = creators[i % 4];
      card.license = licenses[(i / 2) % 4];
      card.architecture = archs[(i / 3) % 4];
      card.num_params = static_cast<int64_t>((i % 5) * 9000);
      if (i % 4 == 0) card.name = StrFormat("Name-%zu", i);
      card.description = StrFormat("Model %zu for %s text", i,
                                   i % 3 == 0 ? "Legal" : "news");
      card.tags = {"scale", i % 2 == 0 ? "Legal" : "news"};
      card.training_datasets = {i % 2 == 0 ? "synthetic/legal"
                                           : "synthetic/news"};
      if (i % 3 == 0) {
        card.metrics.push_back({"bench-a", "accuracy", 0.5 + 0.01 * i});
      }
      if (i % 5 == 0) card.metrics.push_back({"bench-a", "f1", 0.25 * i});
    }
    return batch;
  }

  /// MLQL over every column and rank, plus hybrid search, TrainedOn and
  /// the planner statistics, with exact (%a) scores. Limits exceed the
  /// lake so every similarity query takes the exact scan plan.
  static std::string ColumnAnswers(ModelLake* lake) {
    static const char* kQueries[] = {
        "FIND MODELS LIMIT 200",
        "FIND MODELS WHERE task = 'SUMMARIZATION' LIMIT 200",
        "FIND MODELS WHERE task != 'summarization' LIMIT 200",
        "FIND MODELS WHERE task CONTAINS 'RETR' LIMIT 200",
        "FIND MODELS WHERE creator = 'ada-labs' LIMIT 200",
        "FIND MODELS WHERE creator != 'ADA-LABS' LIMIT 200",
        "FIND MODELS WHERE creator CONTAINS 'ml' LIMIT 200",
        "FIND MODELS WHERE license = 'mit' LIMIT 200",
        "FIND MODELS WHERE license != 'MIT' LIMIT 200",
        "FIND MODELS WHERE license CONTAINS '2.0' LIMIT 200",
        "FIND MODELS WHERE architecture = 'MLP-64' LIMIT 200",
        "FIND MODELS WHERE architecture != 'mlp-64' LIMIT 200",
        "FIND MODELS WHERE architecture CONTAINS 'mlp' LIMIT 200",
        "FIND MODELS WHERE name = 'NAME-4' LIMIT 200",
        "FIND MODELS WHERE name != 'c-001' LIMIT 200",
        "FIND MODELS WHERE name CONTAINS 'AME' LIMIT 200",
        "FIND MODELS WHERE description = 'model 3 for legal text' LIMIT 200",
        "FIND MODELS WHERE description != 'model 3 for legal text' "
        "LIMIT 200",
        "FIND MODELS WHERE description CONTAINS 'LEGAL' LIMIT 200",
        "FIND MODELS WHERE model_id = 'C-007' LIMIT 200",
        "FIND MODELS WHERE id != 'c-007' LIMIT 200",
        "FIND MODELS WHERE id CONTAINS 'LATE' LIMIT 200",
        "FIND MODELS WHERE num_params >= 9000 AND num_params < 27000 "
        "LIMIT 200",
        "FIND MODELS WHERE num_params = 0 OR num_params > 30000 LIMIT 200",
        "FIND MODELS WHERE completeness > 0.4 LIMIT 200",
        "FIND MODELS WHERE tag('LEGAL') LIMIT 200",
        "FIND MODELS WHERE NOT tag('legal') AND tag('scale') LIMIT 200",
        "FIND MODELS WHERE derived_from('r0') LIMIT 200",
        "FIND MODELS WHERE trained_on('synthetic/legal') LIMIT 200",
        "FIND MODELS WHERE trained_on('synthetic/legal', 0.2) LIMIT 200",
        "FIND MODELS WHERE keyword('legal') LIMIT 200",
        "FIND MODELS RANK BY metric('bench-a') LIMIT 200",
        "FIND MODELS RANK BY metric('bench-a', 'f1') LIMIT 200",
        "FIND MODELS WHERE creator = 'deltaml' RANK BY completeness() "
        "LIMIT 200",
        "FIND MODELS RANK BY keyword('legal news text') LIMIT 200",
        "FIND MODELS WHERE tag('news') RANK BY behavior_sim('c-002') "
        "LIMIT 200",
        "FIND MODELS RANK BY hybrid('legal text', 'c-003') LIMIT 200",
        "FIND MODELS WHERE license = 'mit' RANK BY hybrid('news', 'r0') "
        "LIMIT 200",
    };
    std::string out;
    auto ranked = [&out](const std::vector<search::RankedModel>& models) {
      for (const search::RankedModel& m : models) {
        out += StrFormat(" %s:%a", m.id.c_str(), m.score);
      }
      out += "\n";
    };
    for (const char* mlql : kQueries) {
      auto result = lake->Query(mlql);
      out += std::string(mlql) + " -> ";
      if (!result.ok()) {
        out += result.status().ToString() + "\n";
        continue;
      }
      out += result.ValueUnsafe().plan + ";";
      ranked(result.ValueUnsafe().models);
    }
    auto hybrid = lake->HybridSearch("news model", "c-004", 200);
    EXPECT_TRUE(hybrid.ok()) << hybrid.status().ToString();
    if (hybrid.ok()) ranked(hybrid.ValueUnsafe());
    auto trained = lake->TrainedOn("synthetic/news", 0.2);
    EXPECT_TRUE(trained.ok());
    if (trained.ok()) {
      for (const auto& [id, overlap] : trained.ValueUnsafe()) {
        out += StrFormat(" %s:%a", id.c_str(), overlap);
      }
    }
    search::SearchContext::CatalogStats stats = lake->Stats();
    out += StrFormat("\nstats %d %zu %zu %zu\n", stats.valid,
                     stats.num_models, stats.ann_live, stats.bm25_live);
    for (const auto& [field, counts] : stats.field_counts) {
      for (const auto& [value, n] : counts) {
        out += StrFormat(" %s=%s:%zu", field.c_str(), value.c_str(), n);
      }
    }
    return out;
  }

  /// The planner statistics equal a card-by-card recount of the
  /// searchable models.
  static void ExpectStatsMatchRecount(ModelLake* lake,
                                      const std::string& label) {
    std::map<std::string, std::map<std::string, size_t>> counts;
    std::vector<std::string> ids = lake->AllModelIds();
    for (const std::string& id : ids) {
      metadata::ModelCard card = lake->CardFor(id).MoveValueUnsafe();
      if (!card.task.empty()) ++counts["task"][card.task];
      if (!card.creator.empty()) ++counts["creator"][card.creator];
      if (!card.license.empty()) ++counts["license"][card.license];
      if (!card.architecture.empty()) {
        ++counts["architecture"][card.architecture];
      }
    }
    search::SearchContext::CatalogStats stats = lake->Stats();
    EXPECT_TRUE(stats.valid) << label;
    EXPECT_EQ(stats.num_models, ids.size()) << label;
    EXPECT_EQ(stats.field_counts, counts) << label;
  }

  /// The live lake, a snapshot reopen of a copy of it and a catalog
  /// rebuild of that copy answer every column query identically, and
  /// each one's statistics match a recount.
  void ExpectViewsAgree(ModelLake* lake, const std::string& label) {
    const std::string live = ColumnAnswers(lake);
    ExpectStatsMatchRecount(lake, label + " live");
    const std::string copy = label + "-copy";
    std::filesystem::copy(lake->options().root, JoinPath(dir_, copy),
                          std::filesystem::copy_options::recursive);
    for (bool snapshots : {true, false}) {
      LakeOptions options = Options(copy);
      options.load_index_snapshots = snapshots;
      auto reopened = ModelLake::Open(options);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      const std::string view = label + (snapshots ? " reopen" : " rebuild");
      EXPECT_EQ(ColumnAnswers(reopened.ValueUnsafe().get()), live) << view;
      ExpectStatsMatchRecount(reopened.ValueUnsafe().get(), view);
    }
    ASSERT_TRUE(RemoveAll(JoinPath(dir_, copy)).ok());
  }

  void Clone(const std::string& from, const std::string& to) {
    std::filesystem::copy(JoinPath(dir_, from), JoinPath(dir_, to),
                          std::filesystem::copy_options::recursive);
  }

  std::string dir_;
};

TEST_F(LakeScaleTest, IngestCardsBasics) {
  auto lake = ModelLake::Open(Options("basic")).MoveValueUnsafe();
  const int64_t dim = lake->EmbeddingDim();
  auto batch = MakeBatch(dim, 10, 1, "m");
  auto ids = lake->IngestCards(batch);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ(ids.ValueUnsafe().size(), 10u);
  EXPECT_EQ(lake->NumModels(), 10u);

  // Cards round-trip and the models are searchable.
  auto card = lake->CardFor("m-000");
  ASSERT_TRUE(card.ok());
  EXPECT_EQ(card.ValueUnsafe().task, "summarization");
  auto hits = lake->NearestModels(batch[3].embedding, 1).MoveValueUnsafe();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].first, "m-003");

  // Metadata-only models have no artifact to load — a clean
  // FailedPrecondition, not a crash or NotFound.
  EXPECT_TRUE(lake->LoadModel("m-000").status().IsFailedPrecondition());
  // And the lake-wide artifact sweep skips them.
  auto fsck = lake->FsckArtifacts();
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck.ValueUnsafe().empty());
}

TEST_F(LakeScaleTest, IngestCardsValidates) {
  auto lake = ModelLake::Open(Options("validate")).MoveValueUnsafe();
  const int64_t dim = lake->EmbeddingDim();

  auto batch = MakeBatch(dim, 2, 2, "v");
  ASSERT_TRUE(lake->IngestCards(batch).ok());
  // Duplicate against the lake.
  EXPECT_TRUE(lake->IngestCards(batch).status().IsAlreadyExists());
  // Duplicate within one batch.
  auto dup = MakeBatch(dim, 1, 3, "w");
  dup.push_back(dup[0]);
  EXPECT_TRUE(lake->IngestCards(dup).status().IsAlreadyExists());
  // Wrong embedding dim.
  auto bad = MakeBatch(dim, 1, 4, "x");
  bad[0].embedding.pop_back();
  EXPECT_TRUE(lake->IngestCards(bad).status().IsInvalidArgument());
  // A rejected batch leaves the lake untouched.
  EXPECT_EQ(lake->NumModels(), 2u);
}

TEST_F(LakeScaleTest, CompactedSnapshotReopenEqualsRebuild) {
  LakeOptions options = Options("equiv");
  std::string fp_before;
  int64_t dim = 0;
  {
    auto lake = ModelLake::Open(options).MoveValueUnsafe();
    dim = lake->EmbeddingDim();
    ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 40, 5, "a")).ok());
    ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 40, 6, "b")).ok());
    ASSERT_TRUE(lake->CompactIndices().ok());
    fp_before = Fingerprint(lake.get(), dim);
  }

  // Snapshot-backed reopen: at a fully compacted generation the loaded
  // indexes are the saved ones, so search is identical to both the
  // pre-close lake and a from-scratch rebuild.
  {
    auto lake = ModelLake::Open(options).MoveValueUnsafe();
    Json stats = lake->IndexStatsJson();
    EXPECT_EQ(stats.GetInt64("generation"), 1);
    EXPECT_EQ(Fingerprint(lake.get(), dim), fp_before);
  }
  {
    LakeOptions rebuild = options;
    rebuild.load_index_snapshots = false;
    auto lake = ModelLake::Open(rebuild).MoveValueUnsafe();
    EXPECT_EQ(Fingerprint(lake.get(), dim), fp_before);
  }
}

TEST_F(LakeScaleTest, StaleSnapshotReconcilesMembership) {
  LakeOptions options = Options("stale");
  int64_t dim = 0;
  {
    auto lake = ModelLake::Open(options).MoveValueUnsafe();
    dim = lake->EmbeddingDim();
    ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 30, 7, "base")).ok());
    ASSERT_TRUE(lake->CompactIndices().ok());
    // Mutate past the snapshot: the manifest still names generation 1,
    // but the catalog now holds 10 extra models.
    ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 10, 8, "extra")).ok());
  }

  auto lake = ModelLake::Open(options).MoveValueUnsafe();
  EXPECT_EQ(lake->NumModels(), 40u);
  Json stats = lake->IndexStatsJson();
  EXPECT_EQ(stats.GetInt64("generation"), 1);

  // Every model — snapshot-covered and reconciled alike — is found by
  // exact-merging search (BM25) and by the ANN index.
  auto keyword = lake->KeywordScores("scale", 64).MoveValueUnsafe();
  EXPECT_EQ(keyword.size(), 40u);
  auto batch = MakeBatch(dim, 10, 8, "extra");
  auto hits = lake->NearestModels(batch[4].embedding, 1).MoveValueUnsafe();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].first, "extra-004");
}

TEST_F(LakeScaleTest, UpdateCardInvalidatesSnapshots) {
  LakeOptions options = Options("invalidate");
  int64_t dim = 0;
  {
    auto lake = ModelLake::Open(options).MoveValueUnsafe();
    dim = lake->EmbeddingDim();
    ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 12, 9, "m")).ok());
    ASSERT_TRUE(lake->CompactIndices().ok());
    metadata::ModelCard card = lake->CardFor("m-001").MoveValueUnsafe();
    card.description = "edited after compaction";
    ASSERT_TRUE(lake->UpdateCard(card).ok());
  }
  // The card edit durably dropped the manifest: the reopen rebuilds
  // from the catalog (generation 0) and serves the edited card's text.
  auto lake = ModelLake::Open(options).MoveValueUnsafe();
  Json stats = lake->IndexStatsJson();
  EXPECT_EQ(stats.GetInt64("generation"), 0);
  auto hits = lake->KeywordScores("edited after compaction", 5)
                  .MoveValueUnsafe();
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].first, "m-001");
}

TEST_F(LakeScaleTest, FailedCardIngestRollsBackIncrementally) {
  // Template lake: 20 healthy metadata-only models.
  int64_t dim = 0;
  std::string fp_before;
  {
    auto lake =
        ModelLake::Open(Options("rollback-template")).MoveValueUnsafe();
    dim = lake->EmbeddingDim();
    ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 20, 10, "keep")).ok());
    fp_before = Fingerprint(lake.get(), dim);
  }
  auto clone = [&](const std::string& name) {
    std::filesystem::copy(JoinPath(dir_, "rollback-template"),
                          JoinPath(dir_, name),
                          std::filesystem::copy_options::recursive);
  };

  // Probe the mutating-op count of (open, ingest the doomed batch) on
  // an identical clone — serial exec makes the sequence reproducible.
  uint64_t open_ops = 0, total_ops = 0;
  {
    clone("rollback-probe");
    FaultInjectingFs fs(RealFs(), FaultPlan{});
    auto lake =
        ModelLake::Open(Options("rollback-probe", &fs)).MoveValueUnsafe();
    open_ops = fs.mutating_ops();
    ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 20, 11, "doomed")).ok());
    total_ops = fs.mutating_ops();
    ASSERT_GT(total_ops, open_ops + 4);
  }

  // Fail the batch mid-apply: catalog docs and index entries for a
  // prefix of the batch exist by then and must all roll back.
  clone("rollback-trial");
  FaultPlan failing;
  failing.fail_ops = {open_ops + (total_ops - open_ops) / 2};
  FaultInjectingFs fail_fs(RealFs(), failing);
  auto lake =
      ModelLake::Open(Options("rollback-trial", &fail_fs)).MoveValueUnsafe();
  auto failed = lake->IngestCards(MakeBatch(dim, 20, 11, "doomed"));
  ASSERT_FALSE(failed.ok());
  EXPECT_GT(fail_fs.injected_errors(), 0u);

  // All-or-nothing: no doomed model survives anywhere — catalog,
  // keyword index, or ANN.
  EXPECT_EQ(lake->NumModels(), 20u);
  for (const std::string& id : lake->ListModels()) {
    EXPECT_EQ(id.rfind("keep", 0), 0u) << id;
  }
  EXPECT_TRUE(lake->KeywordScores("doomed", 40).MoveValueUnsafe().empty());
  EXPECT_EQ(Fingerprint(lake.get(), dim), fp_before);

  // And the lake remains ingestable after the rollback.
  ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 5, 12, "after")).ok());
  EXPECT_EQ(lake->NumModels(), 25u);
}

TEST_F(LakeScaleTest, IndexStatsJsonShape) {
  auto lake = ModelLake::Open(Options("stats")).MoveValueUnsafe();
  const int64_t dim = lake->EmbeddingDim();
  ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 15, 13, "s")).ok());

  Json stats = lake->IndexStatsJson();
  EXPECT_EQ(stats.GetInt64("generation"), 0);
  const Json* ann = stats.Find("ann");
  ASSERT_NE(ann, nullptr);
  EXPECT_EQ(ann->GetInt64("base"), 0);
  EXPECT_EQ(ann->GetInt64("delta"), 15);
  EXPECT_EQ(ann->GetInt64("live"), 15);
  const Json* bm25 = stats.Find("bm25");
  ASSERT_NE(bm25, nullptr);
  EXPECT_EQ(bm25->GetInt64("live"), 15);

  ASSERT_TRUE(lake->CompactIndices().ok());
  stats = lake->IndexStatsJson();
  EXPECT_EQ(stats.GetInt64("generation"), 1);
  ann = stats.Find("ann");
  ASSERT_NE(ann, nullptr);
  EXPECT_EQ(ann->GetInt64("base"), 15);
  EXPECT_EQ(ann->GetInt64("delta"), 0);
  EXPECT_EQ(ann->GetInt64("snapshot_generation"), 1);
  EXPECT_GE(stats.GetDouble("last_compaction_ms"), 0.0);
}

TEST_F(LakeScaleTest, BackgroundCompactionTriggersAndConverges) {
  LakeOptions options = Options("background");
  options.background_compaction = true;
  options.compact_min_delta = 32;  // tiny threshold for the test
  options.compact_growth = 0.0;
  auto lake = ModelLake::Open(options).MoveValueUnsafe();
  const int64_t dim = lake->EmbeddingDim();
  ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 40, 14, "bg")).ok());

  // The trigger fired at ingest time; wait (bounded) for the pass.
  for (int i = 0; i < 200; ++i) {
    if (lake->IndexStatsJson().GetInt64("generation") >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  Json stats = lake->IndexStatsJson();
  EXPECT_GE(stats.GetInt64("generation"), 1);
  const Json* ann = stats.Find("ann");
  ASSERT_NE(ann, nullptr);
  EXPECT_EQ(ann->GetInt64("live"), 40);
  // Search still serves every model after the swap.
  EXPECT_EQ(lake->KeywordScores("scale", 64).MoveValueUnsafe().size(), 40u);
}

TEST_F(LakeScaleTest, StreamingGeneratorFeedsTheLake) {
  auto lake = ModelLake::Open(Options("stream")).MoveValueUnsafe();
  lakegen::StreamGenConfig config;
  config.num_models = 200;
  config.batch_size = 64;
  config.num_families = 4;
  auto gen = lakegen::GenerateStreamingLake(lake.get(), config);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_EQ(lake->NumModels(), 200u);
  EXPECT_EQ(gen.ValueUnsafe().datasets.size(),
            lake->ListDatasets().size());

  // Nearest-neighbor structure recovers family clustering: a model's
  // neighbors are dominated by its own family.
  auto ids = lake->ListModels();
  auto card = lake->CardFor(ids[0]).MoveValueUnsafe();
  auto related = lake->RelatedModels(ids[0], 10);
  ASSERT_TRUE(related.ok());
  size_t same_family = 0;
  for (const auto& m : related.ValueUnsafe()) {
    if (lake->CardFor(m.id).MoveValueUnsafe().task == card.task) {
      ++same_family;
    }
  }
  EXPECT_GT(same_family, 5u);
}

// The column store mirrors the catalog on every path that maintains it:
// ingest (cards and artifacts), a stale-snapshot reconcile on open, an
// injected-fault aborted batch, a card edit that moves dictionary
// counts, quarantine, and compaction. After each, MLQL over every
// column answers the same on the live lake, a snapshot reopen and a
// catalog rebuild.
TEST_F(LakeScaleTest, ColumnsMatchCatalogOnEveryPath) {
  int64_t dim = 0;
  {
    auto lake = ModelLake::Open(Options("columns-template")).MoveValueUnsafe();
    dim = lake->EmbeddingDim();
    ASSERT_TRUE(lake->RegisterDataset("synthetic/news",
                                      {"n1", "n2", "n3", "n4", "n5"})
                    .ok());
    ASSERT_TRUE(lake->RegisterDataset("synthetic/legal",
                                      {"n1", "n2", "l3", "l4", "l5"})
                    .ok());
    ASSERT_TRUE(lake->IngestCards(VariedBatch(dim, 40, 21, "c")).ok());
    Rng rng(5);
    std::vector<std::unique_ptr<nn::Model>> models;
    std::vector<IngestRequest> batch(3);
    for (int i = 0; i < 3; ++i) {
      models.push_back(
          nn::BuildModel(nn::MlpSpec(32, {8}, 8), &rng).MoveValueUnsafe());
      batch[i].model = models.back().get();
      batch[i].card.model_id = StrFormat("r%d", i);
      batch[i].card.name = StrFormat("Real %d", i);
      batch[i].card.task = "Summarization";
      batch[i].card.tags = {"legal"};
      batch[i].card.creator = "DeltaML";
      batch[i].card.license = "mit";
      batch[i].card.training_datasets = {"synthetic/legal"};
    }
    ASSERT_TRUE(lake->IngestModels(batch).ok());
    for (int i = 1; i < 3; ++i) {
      versioning::VersionEdge edge;
      edge.parent = StrFormat("r%d", i - 1);
      edge.child = StrFormat("r%d", i);
      edge.type = versioning::EdgeType::kFinetune;
      ASSERT_TRUE(lake->RecordEdge(edge).ok());
    }
    ASSERT_TRUE(lake->CompactIndices().ok());
    // Rows past the snapshot: opening a copy reconciles them.
    ASSERT_TRUE(lake->IngestCards(VariedBatch(dim, 12, 22, "late")).ok());
  }

  // Mutating-op count of (open, one doomed batch), probed on a clone.
  uint64_t open_ops = 0, total_ops = 0;
  {
    Clone("columns-template", "columns-probe");
    FaultInjectingFs fs(RealFs(), FaultPlan{});
    auto lake =
        ModelLake::Open(Options("columns-probe", &fs)).MoveValueUnsafe();
    open_ops = fs.mutating_ops();
    ASSERT_TRUE(lake->IngestCards(VariedBatch(dim, 16, 23, "doomed")).ok());
    total_ops = fs.mutating_ops();
  }

  Clone("columns-template", "columns");
  FaultPlan plan;
  plan.fail_ops = {open_ops + (total_ops - open_ops) / 2};
  FaultInjectingFs fs(RealFs(), plan);
  auto lake = ModelLake::Open(Options("columns", &fs)).MoveValueUnsafe();
  ExpectViewsAgree(lake.get(), "reconciled");

  ASSERT_FALSE(lake->IngestCards(VariedBatch(dim, 16, 23, "doomed")).ok());
  EXPECT_EQ(fs.injected_errors(), 1u);
  ExpectViewsAgree(lake.get(), "aborted");

  // A task no other card holds: one dictionary count moves to a new
  // value.
  metadata::ModelCard edited = lake->CardFor("c-001").MoveValueUnsafe();
  edited.task = "Entity-Tagging";
  edited.name = "Edited Name";
  edited.metrics.push_back({"bench-a", "accuracy", 0.125});
  ASSERT_TRUE(lake->UpdateCard(edited).ok());
  ExpectViewsAgree(lake.get(), "updated");

  ASSERT_TRUE(lake->QuarantineModel("r1").ok());
  ExpectViewsAgree(lake.get(), "quarantined");

  ASSERT_TRUE(lake->IngestCards(VariedBatch(dim, 10, 24, "after")).ok());
  ExpectViewsAgree(lake.get(), "ingested");

  ASSERT_TRUE(lake->CompactIndices().ok());
  ExpectViewsAgree(lake.get(), "compacted");
}

// The column sections of the ids sidecar are untrusted input like every
// other snapshot byte: a section cut short, a dictionary code out of
// range, a short embedding matrix, or a pre-column sidecar with none of
// them opens through the rebuild fallback, answering like a clean open.
TEST_F(LakeScaleTest, MalformedColumnSidecarFallsBackToRebuild) {
  {
    auto lake = ModelLake::Open(Options("sidecar-template")).MoveValueUnsafe();
    const int64_t dim = lake->EmbeddingDim();
    ASSERT_TRUE(lake->IngestCards(VariedBatch(dim, 30, 31, "c")).ok());
    ASSERT_TRUE(lake->CompactIndices().ok());
  }
  std::string clean;
  {
    Clone("sidecar-template", "sidecar-clean");
    auto lake = ModelLake::Open(Options("sidecar-clean")).MoveValueUnsafe();
    EXPECT_EQ(lake->IndexStatsJson().GetInt64("generation"), 1);
    clean = ColumnAnswers(lake.get());
  }

  static const char* kSections[] = {
      "meta",         "id_off",       "id_bytes",     "dig_off",
      "dig_bytes",    "ds_off",       "ds_bytes",     "col_meta",
      "col_dict_n",   "col_dict_off", "col_dict_str", "col_codes",
      "col_params",   "col_complete", "col_name_off", "col_name",
      "col_desc_off", "col_desc",     "col_tag_off",  "col_tags",
      "col_trn_off",  "col_trn",      "col_met_off",  "col_met_codes",
      "col_met_vals", "col_matrix"};
  using Sections = std::map<std::string, std::string>;
  struct Case {
    const char* name;
    void (*edit)(Sections*);
    int64_t generation;  // 1 = the sidecar loads, 0 = rebuilt
  };
  const Case cases[] = {
      {"unchanged", [](Sections*) {}, 1},
      {"truncated",
       [](Sections* s) { (*s)["col_name"].resize((*s)["col_name"].size() - 3); },
       0},
      {"code",
       [](Sections* s) {
         const uint32_t bad = 0xfffffff0u;
         (*s)["col_codes"].replace(0, sizeof(bad),
                                   reinterpret_cast<const char*>(&bad),
                                   sizeof(bad));
       },
       0},
      {"matrix",
       [](Sections* s) {
         (*s)["col_matrix"].resize((*s)["col_matrix"].size() - 4);
       },
       0},
      {"old-format",
       [](Sections* s) {
         for (auto it = s->begin(); it != s->end();) {
           it = it->first.rfind("col_", 0) == 0 ? s->erase(it) : std::next(it);
         }
       },
       0},
  };
  for (const Case& c : cases) {
    const std::string name = std::string("sidecar-") + c.name;
    Clone("sidecar-template", name);
    const std::string index_dir = JoinPath(JoinPath(dir_, name), "index");
    Json manifest =
        Json::Parse(ReadFile(JoinPath(index_dir, "MANIFEST.json"))
                        .MoveValueUnsafe())
            .MoveValueUnsafe();
    const std::string path = JoinPath(index_dir, manifest.GetString("ids"));
    Sections sections;
    uint64_t generation = 0;
    {
      auto snap = index::SnapshotReader::Open(RealFs(), path,
                                              index::SnapshotKind::kLakeIds)
                      .MoveValueUnsafe();
      generation = snap.generation();
      for (const char* section : kSections) {
        ASSERT_TRUE(snap.HasSection(section)) << section;
        sections[section] = std::string(snap.Section(section).ValueOrDie());
      }
    }
    c.edit(&sections);
    index::SnapshotWriter writer(index::SnapshotKind::kLakeIds, generation);
    for (const char* section : kSections) {
      if (sections.count(section) > 0) {
        writer.AddSection(section, std::move(sections[section]));
      }
    }
    ASSERT_TRUE(writer.WriteTo(RealFs(), path).ok());

    auto lake = ModelLake::Open(Options(name));
    ASSERT_TRUE(lake.ok()) << c.name << ": " << lake.status().ToString();
    EXPECT_EQ(lake.ValueUnsafe()->IndexStatsJson().GetInt64("generation"),
              c.generation)
        << c.name;
    EXPECT_EQ(ColumnAnswers(lake.ValueUnsafe().get()), clean) << c.name;
  }
}

}  // namespace
}  // namespace mlake::core
