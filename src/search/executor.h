#ifndef MLAKE_SEARCH_EXECUTOR_H_
#define MLAKE_SEARCH_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "search/ast.h"
#include "search/context.h"

namespace mlake::search {

/// One ranked answer.
struct RankedModel {
  std::string id;
  double score = 0.0;
};

/// The one result order: score descending, ties by id ascending. The
/// cluster router sorts merged shard answers with it, so a sharded
/// ranking reproduces the single-lake order bit for bit.
inline bool ScoreDescIdAsc(const RankedModel& a, const RankedModel& b) {
  return a.score > b.score || (a.score == b.score && a.id < b.id);
}

/// Reciprocal-rank-fusion offset of the hybrid ranking. Shared with
/// the cluster router, which reproduces the fusion from per-shard
/// parts — both sides must add 1/(offset + rank) with the same offset
/// for the distributed result to be bit-identical.
inline constexpr double kRrfOffset = 10.0;

/// One shard's contribution to a distributed hybrid ranking: a
/// WHERE-surviving candidate with its embedding dot product against
/// the query vector (`has_dot == false` when the dimensions mismatch —
/// the candidate still participates with no similarity contribution,
/// exactly as in the local executor).
struct HybridCandidate {
  std::string id;
  bool has_dot = false;
  double dot = 0.0;
};

/// Reciprocal-rank fusion of the hybrid ranking, shared by the local
/// executor and the cluster router: each candidate scores
/// 1/(kRrfOffset + keyword rank) when `keyword_order` (best first)
/// holds it, plus 1/(kRrfOffset + similarity rank) when it has a dot
/// product (ranked dot descending, id ascending). Keyword term first:
/// the addition order keeps the doubles bit-identical. Returns every
/// candidate, sorted ScoreDescIdAsc.
std::vector<RankedModel> FuseRrf(std::vector<std::string> keyword_order,
                                 std::vector<HybridCandidate> candidates);

/// The result of executing an MLQL query, including the plan the
/// executor chose (the lake's EXPLAIN).
struct QueryResult {
  std::vector<RankedModel> models;
  /// e.g. "scan 160 cards; filter; rank by behavior_sim via ANN index".
  std::string plan;
};

/// Parses and executes MLQL text against a lake.
///
/// Planning: when the query is rank-only over behavior/weight
/// similarity, the executor delegates to the ANN index (sublinear);
/// keyword-only queries use the BM25 inverted index; everything else
/// runs a card scan with per-row predicate evaluation.
Result<QueryResult> ExecuteQuery(const SearchContext& lake,
                                 std::string_view mlql);

/// Executes an already-parsed query.
Result<QueryResult> ExecuteQuery(const SearchContext& lake,
                                 const Query& query);

/// Evaluates a predicate against one card (exposed for tests).
Result<bool> EvaluatePredicate(const SearchContext& lake, const Expr& expr,
                               const metadata::ModelCard& card);

/// The shard-local half of a distributed hybrid ranking: evaluates
/// `query.where` over this lake's models and returns every survivor
/// (minus the query model itself) with its dot product against
/// `query_vec`. The router merges all shards' candidates, fuses them
/// with the globally-ranked keyword list (RRF, kRrfOffset) and sorts
/// (score desc, id asc) — bit-identical to RankCandidates' hybrid
/// branch on one merged lake. `query.rank` must be hybrid(text, id).
Result<std::vector<HybridCandidate>> CollectHybridParts(
    const SearchContext& lake, const Query& query,
    const std::vector<float>& query_vec);

/// Estimated fraction of the lake's models a predicate keeps — the
/// cost-based planner's selectivity model (exposed for tests).
/// Equality on a histogrammed card field is grounded in the catalog
/// statistics; calls and non-equality comparisons use fixed priors;
/// AND multiplies, OR adds (capped), NOT complements.
double EstimateSelectivity(const Expr& expr,
                           const SearchContext::CatalogStats& stats);

}  // namespace mlake::search

#endif  // MLAKE_SEARCH_EXECUTOR_H_
