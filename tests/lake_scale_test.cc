// Lake-level tests for the incremental index lifecycle: metadata-only
// card ingest, compaction + snapshot reopen equivalence, stale-snapshot
// reconciliation, O(batch) rollback under injected faults, the stats
// surface, and the decoded column store MLQL and hybrid scan (equal to
// the catalog on every maintenance path; its sidecar sections treated
// as untrusted input), and the binary embedding records (every float
// bit kept; JSON embedding docs of older lakes converted at open).

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
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
#include "storage/catalog.h"

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

/// Every model's embedding with its bits, and the ANN answers to each
/// embedding as a query, in hex floats.
std::string VectorAnswers(ModelLake* lake) {
  std::string out;
  for (const std::string& id : lake->AllModelIds()) {
    std::vector<float> vec = lake->EmbeddingFor(id).MoveValueUnsafe();
    out += id + ":";
    for (float x : vec) {
      uint32_t bits;
      std::memcpy(&bits, &x, sizeof(bits));
      out += StrFormat("%08x,", bits);
    }
    for (const auto& [hit, dist] :
         lake->NearestModels(vec, 4).MoveValueUnsafe()) {
      out += StrFormat(" %s@%a", hit.c_str(), dist);
    }
    out += "\n";
  }
  return out;
}

// A vec record keeps every bit of a finite float, denormals and 1-ulp
// neighbours included: a catalog rebuild answers with the same bits and
// the same neighbours as the lake that ingested them. A zero is stored
// as +0.0 (the JSON text replication ships spells -0.0 as "0"), and a
// non-finite component, which JSON cannot carry, is refused.
TEST_F(LakeScaleTest, VecRecordsKeepEveryFloatBitThroughARebuild) {
  LakeOptions options = Options("bits");
  std::string live;
  {
    auto lake = ModelLake::Open(options).MoveValueUnsafe();
    const int64_t dim = lake->EmbeddingDim();
    ASSERT_GE(dim, 3);
    std::vector<CardIngest> batch = MakeBatch(dim, 8, 41, "f");
    const float one_up = std::nextafter(1.0f, 2.0f);
    batch[0].embedding[0] = -0.0f;
    batch[0].embedding[1] = std::numeric_limits<float>::denorm_min();
    batch[1].embedding[0] = FLT_MAX;
    batch[1].embedding[1] = -0.0f;
    batch[2].embedding[0] = 1.0f;
    batch[3].embedding = batch[2].embedding;
    batch[3].embedding[0] = one_up;
    batch[4].embedding[2] = 3.0e-39f;  // another denormal
    for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                      -std::numeric_limits<float>::infinity()}) {
      std::vector<CardIngest> refused = batch;
      refused[5].embedding[1] = bad;
      EXPECT_TRUE(lake->IngestCards(refused).status().IsInvalidArgument());
      EXPECT_TRUE(lake->ListModels().empty());
    }
    ASSERT_TRUE(lake->IngestCards(batch).ok());
    std::vector<float> v0 = lake->EmbeddingFor("f-000").MoveValueUnsafe();
    EXPECT_EQ(v0[0], 0.0f);
    EXPECT_FALSE(std::signbit(v0[0]));
    EXPECT_EQ(v0[1], std::numeric_limits<float>::denorm_min());
    live = VectorAnswers(lake.get());
  }
  options.load_index_snapshots = false;  // BuildIndexSetFromCatalog runs
  auto lake = ModelLake::Open(options).MoveValueUnsafe();
  EXPECT_EQ(VectorAnswers(lake.get()), live);
  std::vector<float> v3 = lake->EmbeddingFor("f-003").MoveValueUnsafe();
  EXPECT_EQ(v3[0], std::nextafter(1.0f, 2.0f));
  std::vector<float> v1 = lake->EmbeddingFor("f-001").MoveValueUnsafe();
  EXPECT_EQ(v1[0], FLT_MAX);
  EXPECT_FALSE(std::signbit(v1[1]));
  EXPECT_EQ(lake->EmbeddingFor("f-004").MoveValueUnsafe()[2], 3.0e-39f);
}

// A vec record whose length is not 4 x dim is corrupt: the rebuild
// refuses it instead of serving a short or padded row.
TEST_F(LakeScaleTest, VecRecordOfWrongLengthIsCorruption) {
  LakeOptions options = Options("short-vec");
  {
    auto lake = ModelLake::Open(options).MoveValueUnsafe();
    ASSERT_TRUE(
        lake->IngestCards(MakeBatch(lake->EmbeddingDim(), 3, 42, "s")).ok());
  }
  {
    auto catalog =
        storage::Catalog::Open(JoinPath(options.root, "catalog.log"))
            .MoveValueUnsafe();
    std::string bytes = catalog->GetRaw("vec", "s-001").MoveValueUnsafe();
    bytes.pop_back();
    storage::Catalog::Batch batch;
    batch.PutRaw("vec", "s-001", bytes);
    ASSERT_TRUE(catalog->Write(std::move(batch)).ok());
  }
  options.load_index_snapshots = false;
  auto reopened = ModelLake::Open(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status().ToString();
}

// A lake whose catalog still holds JSON embedding docs (the format
// before vec records) opens and serves the same vectors; the open
// converts every doc, including a lake a crash left half converted,
// and a second open rewrites nothing.
TEST_F(LakeScaleTest, JsonEmbeddingDocsConvertOnceAtOpen) {
  std::string live;
  {
    auto lake = ModelLake::Open(Options("json-template")).MoveValueUnsafe();
    ASSERT_TRUE(
        lake->IngestCards(VariedBatch(lake->EmbeddingDim(), 24, 43, "j")).ok());
    live = VectorAnswers(lake.get());
  }
  // Rewrite the template's vec records as JSON float arrays through the
  // catalog, as an older lake stored them. `keep_vec` leaves the first
  // ids' vec records in place too: what a torn conversion leaves.
  auto downgrade = [&](const std::string& name, size_t keep_vec) {
    Clone("json-template", name);
    auto catalog =
        storage::Catalog::Open(JoinPath(dir_, name + "/catalog.log"))
            .MoveValueUnsafe();
    std::vector<std::string> ids = catalog->ListIds("vec");
    ASSERT_EQ(ids.size(), 24u);
    for (size_t i = 0; i < ids.size(); ++i) {
      std::string bytes = catalog->GetRaw("vec", ids[i]).MoveValueUnsafe();
      std::vector<float> vec(bytes.size() / sizeof(float));
      std::memcpy(vec.data(), bytes.data(), bytes.size());
      Json arr = Json::MakeArray();
      for (float x : vec) arr.Append(Json(static_cast<double>(x)));
      ASSERT_TRUE(catalog->PutDoc("embedding", ids[i], arr).ok());
      if (i >= keep_vec) {
        ASSERT_TRUE(catalog->DeleteDoc("vec", ids[i]).ok());
      }
    }
    ASSERT_EQ(catalog->ListIds("embedding").size(), 24u);
  };
  for (size_t keep_vec : {size_t{0}, size_t{10}}) {
    SCOPED_TRACE(StrFormat("%zu vec records kept", keep_vec));
    const std::string name = StrFormat("json-%zu", keep_vec);
    downgrade(name, keep_vec);
    const std::string log_path = JoinPath(dir_, name + "/catalog.log");
    for (bool first_open : {true, false}) {
      const std::string before = ReadFile(log_path).MoveValueUnsafe();
      {
        auto lake = ModelLake::Open(Options(name));
        ASSERT_TRUE(lake.ok()) << lake.status().ToString();
        EXPECT_EQ(VectorAnswers(lake.ValueUnsafe().get()), live);
      }
      const std::string after = ReadFile(log_path).MoveValueUnsafe();
      // The first open converts; the second finds nothing to rewrite.
      EXPECT_EQ(after == before, !first_open);
      auto catalog = storage::Catalog::Open(log_path).MoveValueUnsafe();
      EXPECT_TRUE(catalog->ListIds("embedding").empty());
      EXPECT_EQ(catalog->ListIds("vec").size(), 24u);
    }
  }
}

}  // namespace
}  // namespace mlake::core
