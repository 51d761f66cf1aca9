#ifndef MLAKE_SEARCH_CONTEXT_H_
#define MLAKE_SEARCH_CONTEXT_H_

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "index/inverted_index.h"
#include "index/vector_index.h"
#include "search/columns.h"

namespace mlake::search {

/// Cross-shard context a scatter-gather router attaches to one MLQL
/// query so a single shard scores its documents exactly as a merged
/// lake would:
///   - `embeddings`: hint vectors for model ids the shard does not own
///     (consulted only after the local lookup misses — e.g. the query
///     model of a behavior_sim rank living on another shard).
///   - global BM25 corpus statistics for `bm25_text`: KeywordScores on
///     that exact text is answered via
///     InvertedIndex::SearchWithStats(bm25_stats), which makes every
///     local document's score bit-identical to the merged corpus.
/// Default-constructed overlay = no hints, identical to a plain query.
struct SearchOverlay {
  std::map<std::string, std::vector<float>> embeddings;
  bool has_bm25 = false;
  std::string bm25_text;
  index::Bm25Stats bm25_stats;
};

/// The lake services the MLQL executor needs; implemented by
/// `core::ModelLake`'s private SearchView (unlocked reads under the
/// caller's shared lock, plus a SearchOverlay). The executor scans the
/// decoded column store (`Columns()`): predicates, ranks and similarity
/// dots read its rows, never catalog JSON. The calls below resolve what
/// the columns do not hold — index probes, the version graph, dataset
/// overlap and query-model embeddings — and the executor maps their
/// model ids back to rows. Abstracting the surface keeps the query
/// engine testable against a fake lake and free of a dependency cycle.
class SearchContext {
 public:
  /// Catalog statistics backing the executor's cost-based planner.
  /// `valid == false` means the context maintains no statistics; the
  /// executor then keeps the classic predicate-first plan.
  struct CatalogStats {
    bool valid = false;
    /// Searchable (non-degraded) models.
    size_t num_models = 0;
    /// Live element counts of the search indexes.
    size_t ann_live = 0;
    size_t bm25_live = 0;
    /// Value histogram per low-cardinality card field ("task",
    /// "creator", "license", "architecture"): raw value -> model count.
    /// Selectivity of an equality predicate is matching count / total.
    std::map<std::string, std::map<std::string, size_t>> field_counts;
  };

  virtual ~SearchContext() = default;

  /// Statistics for cost-based planning. The default reports none
  /// (`valid == false`), which disables ANN-first planning.
  virtual CatalogStats Stats() const { return {}; }

  /// The decoded card columns and embeddings, one row per model; the
  /// live rows are the searchable models.
  virtual const ModelColumns& Columns() const = 0;

  /// The lake embedding of a model — the query vector of a similarity
  /// ranking, which may name a model another shard owns.
  virtual Result<std::vector<float>> EmbeddingFor(
      const std::string& id) const = 0;

  /// ANN search over model embeddings: (model id, distance), ascending.
  virtual Result<std::vector<std::pair<std::string, float>>>
  NearestModels(const std::vector<float>& query, size_t k) const = 0;

  /// BM25 keyword scores over cards: (model id, score), descending.
  virtual Result<std::vector<std::pair<std::string, double>>> KeywordScores(
      const std::string& text, size_t k) const = 0;

  /// Models trained on `dataset` (exact name, or shard overlap >=
  /// min_overlap when the lake tracks shards): (model id, overlap).
  virtual Result<std::vector<std::pair<std::string, double>>> TrainedOn(
      const std::string& dataset, double min_overlap) const = 0;

  /// The (transitive) descendants of `ancestor` in the version graph;
  /// empty when the graph does not hold it.
  virtual std::vector<std::string> Descendants(
      const std::string& ancestor) const = 0;
};

}  // namespace mlake::search

#endif  // MLAKE_SEARCH_CONTEXT_H_
