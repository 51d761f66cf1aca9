#include "search/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <string_view>
#include <unordered_map>

#include "common/string_util.h"
#include "search/parser.h"

namespace mlake::search {

namespace {

constexpr size_t kAllResults = 1'000'000;  // "no limit" for sub-searches

/// Pre-resolves lake-backed calls (trained_on, keyword, derived_from)
/// once per query so predicate evaluation is a pure per-card check.
class PredicateEvaluator {
 public:
  PredicateEvaluator(const SearchContext& lake) : lake_(lake) {}

  Status Prepare(const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kAnd:
      case Expr::Kind::kOr:
      case Expr::Kind::kNot:
        for (const ExprPtr& child : expr.children) {
          MLAKE_RETURN_NOT_OK(Prepare(*child));
        }
        return Status::OK();
      case Expr::Kind::kCompare:
        return Status::OK();
      case Expr::Kind::kCall:
        return PrepareCall(expr);
    }
    return Status::OK();
  }

  Result<bool> Evaluate(const Expr& expr,
                        const metadata::ModelCard& card) const {
    switch (expr.kind) {
      case Expr::Kind::kAnd: {
        MLAKE_ASSIGN_OR_RETURN(bool left, Evaluate(*expr.children[0], card));
        if (!left) return false;
        return Evaluate(*expr.children[1], card);
      }
      case Expr::Kind::kOr: {
        MLAKE_ASSIGN_OR_RETURN(bool left, Evaluate(*expr.children[0], card));
        if (left) return true;
        return Evaluate(*expr.children[1], card);
      }
      case Expr::Kind::kNot: {
        MLAKE_ASSIGN_OR_RETURN(bool inner, Evaluate(*expr.children[0], card));
        return !inner;
      }
      case Expr::Kind::kCompare:
        return EvaluateCompare(expr, card);
      case Expr::Kind::kCall:
        return EvaluateCall(expr, card);
    }
    return Status::Internal("unreachable");
  }

 private:
  static std::string CallKey(const Expr& expr) {
    std::string key = expr.function;
    for (const Literal& arg : expr.args) {
      key += "|";
      key += arg.kind == Literal::Kind::kString
                 ? arg.string_value
                 : StrFormat("%g", arg.number_value);
    }
    return key;
  }

  Status PrepareCall(const Expr& expr) {
    const std::string& fn = expr.function;
    if (fn == "trained_on") {
      if (expr.args.empty() ||
          expr.args[0].kind != Literal::Kind::kString) {
        return Status::InvalidArgument(
            "trained_on expects a dataset name string");
      }
      double min_overlap = 0.5;
      if (expr.args.size() >= 2 &&
          expr.args[1].kind == Literal::Kind::kNumber) {
        min_overlap = expr.args[1].number_value;
      }
      auto hits = lake_.TrainedOn(expr.args[0].string_value, min_overlap);
      MLAKE_RETURN_NOT_OK(hits.status());
      std::set<std::string>& ids = call_sets_[CallKey(expr)];
      for (const auto& [id, overlap] : hits.ValueUnsafe()) ids.insert(id);
      return Status::OK();
    }
    if (fn == "keyword") {
      if (expr.args.size() != 1 ||
          expr.args[0].kind != Literal::Kind::kString) {
        return Status::InvalidArgument("keyword expects one string");
      }
      auto hits = lake_.KeywordScores(expr.args[0].string_value, kAllResults);
      MLAKE_RETURN_NOT_OK(hits.status());
      std::set<std::string>& ids = call_sets_[CallKey(expr)];
      for (const auto& [id, score] : hits.ValueUnsafe()) {
        if (score > 0.0) ids.insert(id);
      }
      return Status::OK();
    }
    if (fn == "tag" || fn == "derived_from") {
      if (expr.args.size() != 1 ||
          expr.args[0].kind != Literal::Kind::kString) {
        return Status::InvalidArgument(fn + " expects one string");
      }
      return Status::OK();  // evaluated per card
    }
    return Status::InvalidArgument("unknown predicate function: " + fn);
  }

  Result<bool> EvaluateCall(const Expr& expr,
                            const metadata::ModelCard& card) const {
    const std::string& fn = expr.function;
    if (fn == "trained_on" || fn == "keyword") {
      auto it = call_sets_.find(CallKey(expr));
      if (it == call_sets_.end()) {
        return Status::Internal("call not prepared: " + fn);
      }
      return it->second.count(card.model_id) > 0;
    }
    if (fn == "tag") {
      for (const std::string& tag : card.tags) {
        if (EqualsIgnoreCase(tag, expr.args[0].string_value)) return true;
      }
      return false;
    }
    if (fn == "derived_from") {
      return lake_.IsDescendantOf(card.model_id, expr.args[0].string_value);
    }
    return Status::InvalidArgument("unknown predicate function: " + fn);
  }

  Result<bool> EvaluateCompare(const Expr& expr,
                               const metadata::ModelCard& card) const {
    // Numeric fields.
    if (expr.field == "num_params" || expr.field == "completeness") {
      if (expr.value.kind != Literal::Kind::kNumber) {
        return Status::InvalidArgument("field " + expr.field +
                                       " expects a number");
      }
      double lhs = expr.field == "num_params"
                       ? static_cast<double>(card.num_params)
                       : metadata::CompletenessScore(card);
      double rhs = expr.value.number_value;
      switch (expr.op) {
        case CompareOp::kEq:
          return lhs == rhs;
        case CompareOp::kNe:
          return lhs != rhs;
        case CompareOp::kLt:
          return lhs < rhs;
        case CompareOp::kLe:
          return lhs <= rhs;
        case CompareOp::kGt:
          return lhs > rhs;
        case CompareOp::kGe:
          return lhs >= rhs;
        case CompareOp::kContains:
          return Status::InvalidArgument("CONTAINS on numeric field");
      }
      return Status::Internal("unreachable");
    }
    // String fields.
    const std::string* lhs = nullptr;
    if (expr.field == "task") {
      lhs = &card.task;
    } else if (expr.field == "name") {
      lhs = &card.name;
    } else if (expr.field == "model_id" || expr.field == "id") {
      lhs = &card.model_id;
    } else if (expr.field == "creator") {
      lhs = &card.creator;
    } else if (expr.field == "license") {
      lhs = &card.license;
    } else if (expr.field == "architecture") {
      lhs = &card.architecture;
    } else if (expr.field == "description") {
      lhs = &card.description;
    } else {
      return Status::InvalidArgument("unknown field: " + expr.field);
    }
    if (expr.value.kind != Literal::Kind::kString) {
      return Status::InvalidArgument("field " + expr.field +
                                     " expects a string");
    }
    const std::string& rhs = expr.value.string_value;
    switch (expr.op) {
      case CompareOp::kEq:
        return EqualsIgnoreCase(*lhs, rhs);
      case CompareOp::kNe:
        return !EqualsIgnoreCase(*lhs, rhs);
      case CompareOp::kContains:
        return ToLower(*lhs).find(ToLower(rhs)) != std::string::npos;
      default:
        return Status::InvalidArgument("ordering comparison on string field " +
                                       expr.field);
    }
  }

  const SearchContext& lake_;
  std::unordered_map<std::string, std::set<std::string>> call_sets_;
};

/// Keeps the candidates whose card passes `where`, in order.
Result<std::vector<std::string>> FilterCandidates(
    const SearchContext& lake, const Expr& where,
    std::vector<std::string> candidates) {
  PredicateEvaluator evaluator(lake);
  MLAKE_RETURN_NOT_OK(evaluator.Prepare(where));
  std::vector<std::string> kept;
  for (std::string& id : candidates) {
    MLAKE_ASSIGN_OR_RETURN(metadata::ModelCard card, lake.CardFor(id));
    MLAKE_ASSIGN_OR_RETURN(bool keep, evaluator.Evaluate(where, card));
    if (keep) kept.push_back(std::move(id));
  }
  return kept;
}

/// Every candidate but the query model, with its embedding dot product
/// against `query_vec` (`has_dot == false` on a dimension mismatch).
Result<std::vector<HybridCandidate>> DotCandidates(
    const SearchContext& lake, std::vector<std::string> candidates,
    const std::string& query_id, const std::vector<float>& query_vec) {
  std::vector<HybridCandidate> out;
  out.reserve(candidates.size());
  for (std::string& id : candidates) {
    if (id == query_id) continue;  // a model is not its own answer
    MLAKE_ASSIGN_OR_RETURN(std::vector<float> vec, lake.EmbeddingFor(id));
    HybridCandidate c;
    c.id = std::move(id);
    if (vec.size() == query_vec.size()) {
      double dot = 0.0;
      for (size_t i = 0; i < vec.size(); ++i) {
        dot += static_cast<double>(vec[i]) * query_vec[i];
      }
      c.has_dot = true;
      c.dot = dot;
    }
    out.push_back(std::move(c));
  }
  return out;
}

/// Computes ranking scores (higher = better) for the given candidates.
Result<std::vector<RankedModel>> RankCandidates(
    const SearchContext& lake, const Query& query,
    std::vector<std::string> candidates, std::string* plan) {
  std::vector<RankedModel> out;
  auto score_all_by_card = [&](auto scorer) -> Status {
    for (const std::string& id : candidates) {
      MLAKE_ASSIGN_OR_RETURN(metadata::ModelCard card, lake.CardFor(id));
      auto maybe = scorer(card);
      if (maybe.has_value()) out.push_back(RankedModel{id, *maybe});
    }
    return Status::OK();
  };

  if (!query.has_rank) {
    *plan += "; rank by completeness (default)";
    MLAKE_RETURN_NOT_OK(score_all_by_card(
        [](const metadata::ModelCard& card) -> std::optional<double> {
          return metadata::CompletenessScore(card);
        }));
  } else if (query.rank.function == "completeness") {
    *plan += "; rank by completeness";
    MLAKE_RETURN_NOT_OK(score_all_by_card(
        [](const metadata::ModelCard& card) -> std::optional<double> {
          return metadata::CompletenessScore(card);
        }));
  } else if (query.rank.function == "keyword") {
    if (query.rank.args.size() != 1 ||
        query.rank.args[0].kind != Literal::Kind::kString) {
      return Status::InvalidArgument("keyword ranking expects one string");
    }
    *plan += "; rank by BM25 keyword score";
    MLAKE_ASSIGN_OR_RETURN(
        auto hits,
        lake.KeywordScores(query.rank.args[0].string_value, kAllResults));
    std::unordered_map<std::string, double> score_by_id(hits.begin(),
                                                        hits.end());
    for (const std::string& id : candidates) {
      auto it = score_by_id.find(id);
      out.push_back(RankedModel{id, it == score_by_id.end() ? 0.0
                                                            : it->second});
    }
  } else if (query.rank.function == "behavior_sim" ||
             query.rank.function == "weight_sim") {
    if (query.rank.args.size() != 1 ||
        query.rank.args[0].kind != Literal::Kind::kString) {
      return Status::InvalidArgument(query.rank.function +
                                     " expects a model id string");
    }
    const std::string& query_id = query.rank.args[0].string_value;
    MLAKE_ASSIGN_OR_RETURN(std::vector<float> query_vec,
                           lake.EmbeddingFor(query_id));
    *plan += "; rank by " + query.rank.function +
             " (cosine over lake embeddings)";
    MLAKE_ASSIGN_OR_RETURN(
        std::vector<HybridCandidate> dots,
        DotCandidates(lake, std::move(candidates), query_id, query_vec));
    for (HybridCandidate& c : dots) {
      if (c.has_dot) out.push_back(RankedModel{std::move(c.id), c.dot});
    }
  } else if (query.rank.function == "hybrid") {
    // Reciprocal-rank fusion of BM25 keyword rank and embedding
    // similarity to a query model — the "hybrid approach, that indexes
    // both metadata and model embeddings" of the paper's §5 indexer
    // roadmap. Args: (keyword text, query model id).
    if (query.rank.args.size() != 2 ||
        query.rank.args[0].kind != Literal::Kind::kString ||
        query.rank.args[1].kind != Literal::Kind::kString) {
      return Status::InvalidArgument(
          "hybrid ranking expects (keyword text, model id)");
    }
    const std::string& text = query.rank.args[0].string_value;
    const std::string& query_id = query.rank.args[1].string_value;
    *plan += "; rank by hybrid RRF (BM25 + embedding similarity)";

    MLAKE_ASSIGN_OR_RETURN(auto keyword_hits,
                           lake.KeywordScores(text, kAllResults));
    std::vector<std::string> keyword_order;
    keyword_order.reserve(keyword_hits.size());
    for (auto& hit : keyword_hits) {
      keyword_order.push_back(std::move(hit.first));
    }
    MLAKE_ASSIGN_OR_RETURN(std::vector<float> query_vec,
                           lake.EmbeddingFor(query_id));
    MLAKE_ASSIGN_OR_RETURN(
        std::vector<HybridCandidate> parts,
        DotCandidates(lake, std::move(candidates), query_id, query_vec));
    out = FuseRrf(std::move(keyword_order), std::move(parts));
  } else if (query.rank.function == "metric") {
    if (query.rank.args.empty() ||
        query.rank.args[0].kind != Literal::Kind::kString) {
      return Status::InvalidArgument("metric ranking expects benchmark name");
    }
    std::string benchmark = query.rank.args[0].string_value;
    std::string metric = "accuracy";
    if (query.rank.args.size() >= 2 &&
        query.rank.args[1].kind == Literal::Kind::kString) {
      metric = query.rank.args[1].string_value;
    }
    *plan += "; rank by reported metric '" + metric + "' on '" + benchmark +
             "' (models without the metric excluded)";
    MLAKE_RETURN_NOT_OK(score_all_by_card(
        [&](const metadata::ModelCard& card) -> std::optional<double> {
          for (const metadata::MetricEntry& m : card.metrics) {
            if (m.benchmark == benchmark && m.metric == metric) {
              return m.value;
            }
          }
          return std::nullopt;
        }));
  } else {
    return Status::InvalidArgument("unknown ranking function: " +
                                   query.rank.function);
  }

  std::sort(out.begin(), out.end(), ScoreDescIdAsc);
  if (out.size() > query.limit) out.resize(query.limit);
  return out;
}

/// ANN→filter execution: probe the ANN index for a similarity-ordered
/// over-fetch, keep the neighbors that pass the predicate, and escalate
/// the fetch once (x4) if too few survive. Returns nullopt when even
/// the escalated fetch cannot fill the limit while more of the index
/// remains — the caller then falls back to the exact scan plan.
Result<std::optional<QueryResult>> TryAnnFirst(const SearchContext& lake,
                                               const Query& query,
                                               double selectivity,
                                               size_t fetch,
                                               size_t ann_live) {
  const std::string& query_id = query.rank.args[0].string_value;
  MLAKE_ASSIGN_OR_RETURN(std::vector<float> query_vec,
                         lake.EmbeddingFor(query_id));
  PredicateEvaluator evaluator(lake);
  MLAKE_RETURN_NOT_OK(evaluator.Prepare(*query.where));
  size_t cap = ann_live + 1;  // +1: the query model matches itself
  bool escalated = false;
  for (int attempt = 0; attempt < 2; ++attempt) {
    size_t ask = std::min(fetch, cap);
    MLAKE_ASSIGN_OR_RETURN(auto neighbors, lake.NearestModels(query_vec, ask));
    QueryResult result;
    for (const auto& [id, distance] : neighbors) {
      if (id == query_id) continue;  // a model is not its own answer
      MLAKE_ASSIGN_OR_RETURN(metadata::ModelCard card, lake.CardFor(id));
      MLAKE_ASSIGN_OR_RETURN(bool keep,
                             evaluator.Evaluate(*query.where, card));
      if (!keep) continue;
      result.models.push_back(RankedModel{id, 1.0 - distance});
      if (result.models.size() >= query.limit) break;
    }
    // Accept when the limit is filled or the index is exhausted;
    // otherwise escalate once, then hand back to the scan plan.
    if (result.models.size() >= query.limit || ask >= cap ||
        neighbors.size() < ask) {
      result.plan = StrFormat(
          "ann-first (est. selectivity %.3f): ANN over-fetch %zu%s; "
          "filter -> %zu; rank by %s",
          selectivity, ask, escalated ? " (escalated)" : "",
          result.models.size(), query.rank.function.c_str());
      return std::optional<QueryResult>(std::move(result));
    }
    fetch = std::min(cap, fetch * 4);
    escalated = true;
  }
  return std::optional<QueryResult>();
}

}  // namespace

Result<bool> EvaluatePredicate(const SearchContext& lake, const Expr& expr,
                               const metadata::ModelCard& card) {
  PredicateEvaluator evaluator(lake);
  MLAKE_RETURN_NOT_OK(evaluator.Prepare(expr));
  return evaluator.Evaluate(expr, card);
}

std::vector<RankedModel> FuseRrf(std::vector<std::string> keyword_order,
                                 std::vector<HybridCandidate> candidates) {
  std::unordered_map<std::string_view, size_t> keyword_rank;
  keyword_rank.reserve(keyword_order.size());
  for (size_t i = 0; i < keyword_order.size(); ++i) {
    keyword_rank[keyword_order[i]] = i;
  }
  // Similarity ranks in (-dot, id) ascending order — best first.
  std::vector<size_t> by_similarity;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].has_dot) by_similarity.push_back(i);
  }
  std::sort(by_similarity.begin(), by_similarity.end(),
            [&candidates](size_t a, size_t b) {
              const double ka = -candidates[a].dot;
              const double kb = -candidates[b].dot;
              return ka < kb ||
                     (!(kb < ka) && candidates[a].id < candidates[b].id);
            });
  constexpr size_t kNoRank = static_cast<size_t>(-1);
  std::vector<size_t> similarity_rank(candidates.size(), kNoRank);
  for (size_t r = 0; r < by_similarity.size(); ++r) {
    similarity_rank[by_similarity[r]] = r;
  }

  std::vector<RankedModel> out;
  out.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    double score = 0.0;
    if (auto it = keyword_rank.find(candidates[i].id);
        it != keyword_rank.end()) {
      score += 1.0 / (kRrfOffset + static_cast<double>(it->second));
    }
    if (similarity_rank[i] != kNoRank) {
      score += 1.0 / (kRrfOffset + static_cast<double>(similarity_rank[i]));
    }
    out.push_back(RankedModel{std::move(candidates[i].id), score});
  }
  std::sort(out.begin(), out.end(), ScoreDescIdAsc);
  return out;
}

Result<std::vector<HybridCandidate>> CollectHybridParts(
    const SearchContext& lake, const Query& query,
    const std::vector<float>& query_vec) {
  if (!query.has_rank || query.rank.function != "hybrid" ||
      query.rank.args.size() != 2 ||
      query.rank.args[0].kind != Literal::Kind::kString ||
      query.rank.args[1].kind != Literal::Kind::kString) {
    return Status::InvalidArgument(
        "hybrid parts require a hybrid(keyword text, model id) ranking");
  }
  std::vector<std::string> candidates = lake.AllModelIds();
  if (query.where != nullptr) {
    MLAKE_ASSIGN_OR_RETURN(
        candidates,
        FilterCandidates(lake, *query.where, std::move(candidates)));
  }
  return DotCandidates(lake, std::move(candidates),
                       query.rank.args[1].string_value, query_vec);
}

double EstimateSelectivity(const Expr& expr,
                           const SearchContext::CatalogStats& stats) {
  switch (expr.kind) {
    case Expr::Kind::kAnd:
      return EstimateSelectivity(*expr.children[0], stats) *
             EstimateSelectivity(*expr.children[1], stats);
    case Expr::Kind::kOr:
      return std::min(1.0, EstimateSelectivity(*expr.children[0], stats) +
                               EstimateSelectivity(*expr.children[1], stats));
    case Expr::Kind::kNot:
      return std::max(0.0,
                      1.0 - EstimateSelectivity(*expr.children[0], stats));
    case Expr::Kind::kCompare: {
      if (stats.num_models == 0) return 1.0 / 3.0;
      auto fit = stats.field_counts.find(expr.field);
      if (fit != stats.field_counts.end() &&
          expr.value.kind == Literal::Kind::kString &&
          (expr.op == CompareOp::kEq || expr.op == CompareOp::kNe)) {
        // Match the histogram the way the evaluator matches cards:
        // case-insensitively.
        size_t matching = 0;
        for (const auto& [value, count] : fit->second) {
          if (EqualsIgnoreCase(value, expr.value.string_value)) {
            matching += count;
          }
        }
        double frac = static_cast<double>(matching) /
                      static_cast<double>(stats.num_models);
        return expr.op == CompareOp::kEq ? frac : 1.0 - frac;
      }
      if (expr.op == CompareOp::kContains) return 0.3;
      return 1.0 / 3.0;  // range / un-histogrammed field prior
    }
    case Expr::Kind::kCall: {
      const std::string& fn = expr.function;
      if (fn == "keyword" || fn == "tag") return 0.2;
      if (fn == "trained_on") return 0.1;
      if (fn == "derived_from") return 0.05;
      return 0.5;
    }
  }
  return 1.0;
}

Result<QueryResult> ExecuteQuery(const SearchContext& lake,
                                 const Query& query) {
  QueryResult result;

  bool sim_rank = query.has_rank &&
                  (query.rank.function == "behavior_sim" ||
                   query.rank.function == "weight_sim") &&
                  query.rank.args.size() == 1 &&
                  query.rank.args[0].kind == Literal::Kind::kString;

  // Fast path: pure similarity ranking with no predicate delegates top-k
  // to the ANN index (sublinear in lake size).
  if (query.where == nullptr && sim_rank) {
    const std::string& query_id = query.rank.args[0].string_value;
    MLAKE_ASSIGN_OR_RETURN(std::vector<float> query_vec,
                           lake.EmbeddingFor(query_id));
    MLAKE_ASSIGN_OR_RETURN(auto neighbors,
                           lake.NearestModels(query_vec, query.limit + 1));
    result.plan = "ANN index top-k (no predicate)";
    for (const auto& [id, distance] : neighbors) {
      if (id == query_id) continue;
      if (result.models.size() >= query.limit) break;
      result.models.push_back(RankedModel{id, 1.0 - distance});
    }
    return result;
  }

  // Cost-based choice for predicate + similarity rank: with catalog
  // statistics available, a low-selectivity predicate (most models
  // pass) is cheaper as ANN→filter — the over-fetch is a small multiple
  // of the limit — while a high-selectivity one stays predicate-first
  // so the ANN never wades through mostly-filtered neighbors.
  std::string plan_prefix;
  if (query.where != nullptr && sim_rank) {
    SearchContext::CatalogStats stats = lake.Stats();
    if (stats.valid && stats.num_models > 0 && stats.ann_live > 0) {
      double sel = EstimateSelectivity(*query.where, stats);
      // Expected over-fetch to surface `limit` survivors: limit/sel.
      // ANN-first only pays off while that stays a small fraction of
      // the lake; otherwise the ANN walk visits most of it anyway and
      // the scan is both exact and no slower.
      double raw_fetch = sel > 0.0
                             ? static_cast<double>(query.limit) / sel
                             : std::numeric_limits<double>::infinity();
      size_t fetch =
          std::max(static_cast<size_t>(std::min(
                       raw_fetch + 1.0,
                       static_cast<double>(stats.num_models))),
                   query.limit + 1);
      if (sel > 0.0 &&
          raw_fetch * 4.0 <= static_cast<double>(stats.num_models)) {
        MLAKE_ASSIGN_OR_RETURN(
            std::optional<QueryResult> ann_result,
            TryAnnFirst(lake, query, sel, fetch, stats.ann_live));
        if (ann_result.has_value()) return *std::move(ann_result);
        plan_prefix = StrFormat(
            "predicate-first (ann-first abandoned, est. selectivity %.3f): ",
            sel);
      } else {
        plan_prefix =
            StrFormat("predicate-first (est. selectivity %.3f): ", sel);
      }
    }
  }

  std::vector<std::string> candidates = lake.AllModelIds();
  result.plan =
      plan_prefix + StrFormat("scan %zu cards", candidates.size());

  if (query.where != nullptr) {
    MLAKE_ASSIGN_OR_RETURN(
        candidates,
        FilterCandidates(lake, *query.where, std::move(candidates)));
    result.plan += StrFormat("; filter -> %zu", candidates.size());
  }

  MLAKE_ASSIGN_OR_RETURN(result.models,
                         RankCandidates(lake, query, std::move(candidates),
                                        &result.plan));
  return result;
}

Result<QueryResult> ExecuteQuery(const SearchContext& lake,
                                 std::string_view mlql) {
  MLAKE_ASSIGN_OR_RETURN(Query query, ParseQuery(mlql));
  return ExecuteQuery(lake, query);
}

}  // namespace mlake::search
