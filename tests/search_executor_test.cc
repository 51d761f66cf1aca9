#include "search/executor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "search/parser.h"

namespace mlake::search {
namespace {

/// An in-memory fake lake with hand-authored cards, embeddings, keyword
/// scores, dataset membership and a tiny descendant relation.
class FakeLake : public SearchContext {
 public:
  void AddCard(metadata::ModelCard card, std::vector<float> embedding = {}) {
    if (embedding.empty()) embedding = {1.0f, 0.0f};
    EXPECT_TRUE(columns_.Append(card, embedding, "").ok());
    embeddings_[card.model_id] = std::move(embedding);
    cards_[card.model_id] = std::move(card);
  }

  const ModelColumns& Columns() const override { return columns_; }

  Result<metadata::ModelCard> CardFor(const std::string& id) const {
    auto it = cards_.find(id);
    if (it == cards_.end()) return Status::NotFound(id);
    return it->second;
  }

  Result<std::vector<float>> EmbeddingFor(
      const std::string& id) const override {
    auto it = embeddings_.find(id);
    if (it == embeddings_.end()) return Status::NotFound(id);
    return it->second;
  }

  Result<std::vector<std::pair<std::string, float>>> NearestModels(
      const std::vector<float>& query, size_t k) const override {
    ++ann_calls_;
    std::vector<std::pair<std::string, float>> all;
    for (const auto& [id, vec] : embeddings_) {
      double dot = 0.0, nq = 0.0, nv = 0.0;
      for (size_t i = 0; i < vec.size(); ++i) {
        dot += static_cast<double>(query[i]) * vec[i];
        nq += static_cast<double>(query[i]) * query[i];
        nv += static_cast<double>(vec[i]) * vec[i];
      }
      float d = 1.0f - static_cast<float>(
                           dot / (std::sqrt(nq) * std::sqrt(nv) + 1e-12));
      all.emplace_back(id, d);
    }
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      return a.second < b.second;
    });
    if (all.size() > k) all.resize(k);
    return all;
  }

  Result<std::vector<std::pair<std::string, double>>> KeywordScores(
      const std::string& text, size_t) const override {
    std::vector<std::pair<std::string, double>> out;
    for (const auto& [id, card] : cards_) {
      std::string hay = card.SearchText();
      double score = 0.0;
      size_t pos = 0;
      while ((pos = hay.find(text, pos)) != std::string::npos) {
        score += 1.0;
        pos += text.size();
      }
      if (score > 0) out.emplace_back(id, score);
    }
    return out;
  }

  Result<std::vector<std::pair<std::string, double>>> TrainedOn(
      const std::string& dataset, double) const override {
    std::vector<std::pair<std::string, double>> out;
    for (const auto& [id, card] : cards_) {
      for (const std::string& d : card.training_datasets) {
        if (d == dataset) out.emplace_back(id, 1.0);
      }
    }
    return out;
  }

  std::vector<std::string> Descendants(
      const std::string& ancestor) const override {
    auto it = descendants_.find(ancestor);
    if (it == descendants_.end()) return {};
    return {it->second.begin(), it->second.end()};
  }

  void AddDescendant(const std::string& ancestor, const std::string& id) {
    descendants_[ancestor].insert(id);
  }

  int ann_calls() const { return ann_calls_; }

 private:
  ModelColumns columns_{2};
  std::map<std::string, metadata::ModelCard> cards_;
  std::map<std::string, std::vector<float>> embeddings_;
  std::map<std::string, std::set<std::string>> descendants_;
  mutable int ann_calls_ = 0;
};

FakeLake MakeLake() {
  FakeLake lake;
  metadata::ModelCard m1;
  m1.model_id = "legal-sum";
  m1.name = "legal summarizer";
  m1.task = "summarization";
  m1.tags = {"legal"};
  m1.creator = "ada-labs";
  m1.num_params = 1000;
  m1.training_datasets = {"corpus/legal"};
  m1.metrics = {{"bench-a", "accuracy", 0.9}};
  lake.AddCard(m1, {1.0f, 0.0f});

  metadata::ModelCard m2;
  m2.model_id = "medical-sum";
  m2.name = "medical summarizer";
  m2.task = "summarization";
  m2.tags = {"medical"};
  m2.creator = "deltaml";
  m2.num_params = 2000;
  m2.training_datasets = {"corpus/medical"};
  m2.metrics = {{"bench-a", "accuracy", 0.8}};
  lake.AddCard(m2, {0.9f, 0.4f});

  metadata::ModelCard m3;
  m3.model_id = "legal-ner";
  m3.name = "legal tagger";
  m3.task = "entity-tagging";
  m3.tags = {"legal"};
  m3.creator = "ada-labs";
  m3.num_params = 500;
  m3.training_datasets = {"corpus/legal"};
  lake.AddCard(m3, {0.0f, 1.0f});

  lake.AddDescendant("legal-sum", "legal-ner");
  return lake;
}

std::vector<std::string> Ids(const QueryResult& result) {
  std::vector<std::string> ids;
  for (const RankedModel& m : result.models) ids.push_back(m.id);
  return ids;
}

TEST(ExecutorTest, MatchAllDefaultsToCompletenessRanking) {
  FakeLake lake = MakeLake();
  auto result = ExecuteQuery(lake, "FIND MODELS").ValueOrDie();
  EXPECT_EQ(result.models.size(), 3u);
  // legal-ner has fewer filled fields -> ranked last.
  EXPECT_EQ(result.models.back().id, "legal-ner");
  EXPECT_NE(result.plan.find("scan 3 cards"), std::string::npos);
}

TEST(ExecutorTest, FieldEqualityFilter) {
  FakeLake lake = MakeLake();
  auto result =
      ExecuteQuery(lake, "FIND MODELS WHERE task = 'summarization'")
          .ValueOrDie();
  EXPECT_EQ(Ids(result).size(), 2u);
  auto single =
      ExecuteQuery(lake, "FIND MODELS WHERE creator = 'deltaml'")
          .ValueOrDie();
  EXPECT_EQ(Ids(single), std::vector<std::string>{"medical-sum"});
}

TEST(ExecutorTest, NumericComparisons) {
  FakeLake lake = MakeLake();
  auto result =
      ExecuteQuery(lake, "FIND MODELS WHERE num_params >= 1000").ValueOrDie();
  EXPECT_EQ(result.models.size(), 2u);
  auto strict =
      ExecuteQuery(lake, "FIND MODELS WHERE num_params > 1500").ValueOrDie();
  EXPECT_EQ(Ids(strict), std::vector<std::string>{"medical-sum"});
}

TEST(ExecutorTest, ContainsAndBooleanConnectives) {
  FakeLake lake = MakeLake();
  auto result = ExecuteQuery(lake,
                             "FIND MODELS WHERE name CONTAINS 'summarizer' "
                             "AND NOT tag('medical')")
                    .ValueOrDie();
  EXPECT_EQ(Ids(result), std::vector<std::string>{"legal-sum"});

  auto either = ExecuteQuery(
                    lake,
                    "FIND MODELS WHERE creator = 'deltaml' OR tag('legal')")
                    .ValueOrDie();
  EXPECT_EQ(either.models.size(), 3u);
}

TEST(ExecutorTest, TrainedOnFilter) {
  FakeLake lake = MakeLake();
  auto result =
      ExecuteQuery(lake, "FIND MODELS WHERE trained_on('corpus/legal')")
          .ValueOrDie();
  EXPECT_EQ(result.models.size(), 2u);
  for (const auto& m : result.models) {
    EXPECT_NE(m.id, "medical-sum");
  }
}

TEST(ExecutorTest, DerivedFromFilter) {
  FakeLake lake = MakeLake();
  auto result =
      ExecuteQuery(lake, "FIND MODELS WHERE derived_from('legal-sum')")
          .ValueOrDie();
  EXPECT_EQ(Ids(result), std::vector<std::string>{"legal-ner"});
}

TEST(ExecutorTest, MetricRankingExcludesModelsWithoutTheMetric) {
  FakeLake lake = MakeLake();
  auto result =
      ExecuteQuery(lake, "FIND MODELS RANK BY metric('bench-a')")
          .ValueOrDie();
  ASSERT_EQ(result.models.size(), 2u);  // legal-ner has no bench-a entry
  EXPECT_EQ(result.models[0].id, "legal-sum");
  EXPECT_DOUBLE_EQ(result.models[0].score, 0.9);
  EXPECT_EQ(result.models[1].id, "medical-sum");
}

TEST(ExecutorTest, MetricRankingComposesWithOutperformQuery) {
  // "Find models that outperform X on benchmark Y" — paper §6 example,
  // expressed as a metric filter plus ranking.
  FakeLake lake = MakeLake();
  auto result = ExecuteQuery(lake,
                             "FIND MODELS WHERE NOT model_id = 'medical-sum' "
                             "RANK BY metric('bench-a') LIMIT 1")
                    .ValueOrDie();
  ASSERT_EQ(result.models.size(), 1u);
  EXPECT_EQ(result.models[0].id, "legal-sum");
}

TEST(ExecutorTest, KeywordRanking) {
  FakeLake lake = MakeLake();
  auto result =
      ExecuteQuery(lake, "FIND MODELS RANK BY keyword('legal')").ValueOrDie();
  ASSERT_EQ(result.models.size(), 3u);
  EXPECT_GT(result.models[0].score, 0.0);
  EXPECT_EQ(result.models[2].score, 0.0);  // medical-sum matches nothing
}

TEST(ExecutorTest, BehaviorSimScanPathExcludesQueryModel) {
  FakeLake lake = MakeLake();
  auto result = ExecuteQuery(lake,
                             "FIND MODELS WHERE task = 'summarization' "
                             "RANK BY behavior_sim('legal-sum')")
                    .ValueOrDie();
  ASSERT_EQ(result.models.size(), 1u);  // itself excluded, legal-ner filtered
  EXPECT_EQ(result.models[0].id, "medical-sum");
}

TEST(ExecutorTest, PureSimilarityQueryUsesAnnFastPath) {
  FakeLake lake = MakeLake();
  auto result =
      ExecuteQuery(lake, "FIND MODELS RANK BY behavior_sim('legal-sum')")
          .ValueOrDie();
  EXPECT_GT(lake.ann_calls(), 0) << "planner should delegate to ANN";
  ASSERT_EQ(result.models.size(), 2u);
  EXPECT_EQ(result.models[0].id, "medical-sum");  // closest embedding
  EXPECT_NE(result.plan.find("ANN"), std::string::npos);
}

TEST(ExecutorTest, HybridRankingFusesKeywordAndEmbedding) {
  FakeLake lake = MakeLake();
  // Query: keyword 'summarizer' matches legal-sum & medical-sum; the
  // embedding of legal-sum is closest to medical-sum. The fusion should
  // put medical-sum (strong on both) first and legal-ner (neither) last.
  auto result = ExecuteQuery(
                    lake, "FIND MODELS RANK BY hybrid('summarizer', "
                          "'legal-sum')")
                    .ValueOrDie();
  ASSERT_EQ(result.models.size(), 2u);  // query model excluded
  EXPECT_EQ(result.models[0].id, "medical-sum");
  EXPECT_EQ(result.models[1].id, "legal-ner");
  EXPECT_GT(result.models[0].score, result.models[1].score);

  // Arg validation.
  EXPECT_TRUE(ExecuteQuery(lake, "FIND MODELS RANK BY hybrid('x')")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ExecuteQuery(lake, "FIND MODELS RANK BY hybrid('x', 3)")
                  .status()
                  .IsInvalidArgument());
}

TEST(ExecutorTest, LimitTruncates) {
  FakeLake lake = MakeLake();
  auto result = ExecuteQuery(lake, "FIND MODELS LIMIT 1").ValueOrDie();
  EXPECT_EQ(result.models.size(), 1u);
}

TEST(ExecutorTest, SemanticErrors) {
  FakeLake lake = MakeLake();
  EXPECT_TRUE(ExecuteQuery(lake, "FIND MODELS WHERE flavor = 'sweet'")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ExecuteQuery(lake, "FIND MODELS WHERE task < 'a'")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ExecuteQuery(lake, "FIND MODELS WHERE num_params = 'many'")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ExecuteQuery(lake, "FIND MODELS WHERE conjure('x')")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ExecuteQuery(lake, "FIND MODELS RANK BY sorcery()")
                  .status()
                  .IsInvalidArgument());
  // Unknown model in similarity ranking.
  EXPECT_TRUE(ExecuteQuery(lake, "FIND MODELS RANK BY behavior_sim('ghost')")
                  .status()
                  .IsNotFound());
}

TEST(EvaluatePredicateTest, DirectEvaluation) {
  FakeLake lake = MakeLake();
  metadata::ModelCard card = lake.CardFor("legal-sum").ValueOrDie();
  auto expr = ParsePredicate("tag('legal') AND num_params <= 1000")
                  .MoveValueUnsafe();
  EXPECT_TRUE(EvaluatePredicate(lake, *expr, card).ValueOrDie());
  auto expr2 = ParsePredicate("tag('medical')").MoveValueUnsafe();
  EXPECT_FALSE(EvaluatePredicate(lake, *expr2, card).ValueOrDie());
}

// ---- cost-based planner ------------------------------------------------

/// FakeLake that reports catalog statistics, enabling the cost-based
/// predicate-vs-ANN choice (the base fake reports none, which pins the
/// classic predicate-first plans the tests above rely on).
class StatsLake : public FakeLake {
 public:
  void SetStats(CatalogStats stats) { stats_ = std::move(stats); }
  CatalogStats Stats() const override { return stats_; }

 private:
  CatalogStats stats_;
};

/// Synthetic big-lake statistics over the 3-model fake: the planner
/// only reads Stats(), so inflating them steers the plan choice
/// without building 10k models.
StatsLake MakeStatsLake(size_t task_summarization_count) {
  StatsLake lake;
  static_cast<FakeLake&>(lake) = MakeLake();
  SearchContext::CatalogStats stats;
  stats.valid = true;
  stats.num_models = 10000;
  stats.ann_live = 10000;
  stats.bm25_live = 10000;
  stats.field_counts["task"]["summarization"] = task_summarization_count;
  stats.field_counts["task"]["entity-tagging"] =
      10000 - task_summarization_count;
  lake.SetStats(stats);
  return lake;
}

TEST(PlannerTest, AnnFirstOnLowSelectivityPredicate) {
  // Half the lake passes task = 'summarization': over-fetching ~2x the
  // limit through the ANN index beats scanning 10k cards.
  StatsLake lake = MakeStatsLake(5000);
  auto result = ExecuteQuery(lake,
                             "FIND MODELS WHERE task = 'summarization' "
                             "RANK BY behavior_sim('legal-sum')")
                    .ValueOrDie();
  EXPECT_GT(lake.ann_calls(), 0);
  EXPECT_NE(result.plan.find("ann-first"), std::string::npos) << result.plan;
  // Same answer as the scan plan: itself excluded, legal-ner filtered.
  ASSERT_EQ(result.models.size(), 1u);
  EXPECT_EQ(result.models[0].id, "medical-sum");
}

TEST(PlannerTest, PredicateFirstOnHighSelectivityPredicate) {
  // Only 20 of 10000 models pass: the ANN over-fetch needed to surface
  // 10 survivors would wade through most of the index, so the planner
  // keeps the exact predicate-first scan and never probes the ANN.
  StatsLake lake = MakeStatsLake(20);
  auto result = ExecuteQuery(lake,
                             "FIND MODELS WHERE task = 'summarization' "
                             "RANK BY behavior_sim('legal-sum')")
                    .ValueOrDie();
  EXPECT_EQ(lake.ann_calls(), 0);
  EXPECT_NE(result.plan.find("predicate-first"), std::string::npos)
      << result.plan;
  ASSERT_EQ(result.models.size(), 1u);
  EXPECT_EQ(result.models[0].id, "medical-sum");
}

TEST(PlannerTest, NoStatisticsKeepsClassicPlan) {
  FakeLake lake = MakeLake();
  auto result = ExecuteQuery(lake,
                             "FIND MODELS WHERE task = 'summarization' "
                             "RANK BY behavior_sim('legal-sum')")
                    .ValueOrDie();
  // Without statistics the executor must not annotate (or change) the
  // plan — fakes and stats-less contexts keep pre-planner behavior.
  EXPECT_EQ(result.plan.find("predicate-first"), std::string::npos);
  EXPECT_EQ(result.plan.find("ann-first"), std::string::npos);
  EXPECT_NE(result.plan.find("scan 3 cards"), std::string::npos);
}

TEST(PlannerTest, EstimateSelectivityGroundsEqualityInHistogram) {
  SearchContext::CatalogStats stats;
  stats.valid = true;
  stats.num_models = 1000;
  stats.field_counts["task"]["summarization"] = 250;
  stats.field_counts["task"]["tagging"] = 750;

  auto sel = [&](const char* pred) {
    return EstimateSelectivity(*ParsePredicate(pred).MoveValueUnsafe(),
                               stats);
  };
  EXPECT_DOUBLE_EQ(sel("task = 'summarization'"), 0.25);
  EXPECT_DOUBLE_EQ(sel("task != 'summarization'"), 0.75);
  EXPECT_DOUBLE_EQ(sel("task = 'absent-value'"), 0.0);
  // Histogram matching is case-insensitive, like the evaluator.
  EXPECT_DOUBLE_EQ(sel("task = 'SUMMARIZATION'"), 0.25);
  // AND multiplies, OR adds (capped at 1), NOT complements.
  EXPECT_DOUBLE_EQ(sel("task = 'summarization' AND task = 'tagging'"),
                   0.25 * 0.75);
  EXPECT_DOUBLE_EQ(sel("task = 'summarization' OR task = 'tagging'"), 1.0);
  EXPECT_DOUBLE_EQ(sel("NOT task = 'summarization'"), 0.75);
  // Un-histogrammed comparisons and calls use fixed priors.
  EXPECT_DOUBLE_EQ(sel("num_params > 100"), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(sel("trained_on('corpus/legal')"), 0.1);
}

}  // namespace
}  // namespace mlake::search
