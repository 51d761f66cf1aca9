#include "search/executor.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "common/string_util.h"
#include "search/parser.h"

namespace mlake::search {

namespace {

constexpr size_t kAllResults = 1'000'000;  // "no limit" for sub-searches

/// ToLower(hay).find(needle) != npos for an already-lowercased needle,
/// without building the lowered copy.
bool ContainsLowered(std::string_view hay, std::string_view needle) {
  for (size_t p = 0; p + needle.size() <= hay.size(); ++p) {
    size_t i = 0;
    while (i < needle.size() &&
           std::tolower(static_cast<unsigned char>(hay[p + i])) ==
               static_cast<unsigned char>(needle[i])) {
      ++i;
    }
    if (i == needle.size()) return true;
  }
  return false;
}

constexpr size_t kNoRank = static_cast<size_t>(-1);

/// One candidate of a hybrid fusion: its keyword rank (kNoRank when the
/// keyword list lacks it) and its embedding dot product, if any.
struct RrfInput {
  size_t keyword_rank = kNoRank;
  bool has_dot = false;
  double dot = 0.0;
};

/// The one reciprocal-rank fusion, behind FuseRrf (the router's
/// id-string candidates) and the local hybrid rank (column rows). Candidate i scores 1/(kRrfOffset + keyword rank) when
/// it has one, plus 1/(kRrfOffset + similarity rank) when it has a dot
/// product; similarity ranks in (-dot, id) ascending order, ids
/// compared by `id_less(i, j)`. Keyword term first: the addition order
/// keeps the doubles bit-identical.
template <typename IdLess>
std::vector<double> RrfScores(const std::vector<RrfInput>& in,
                              IdLess id_less) {
  std::vector<size_t> by_similarity;
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i].has_dot) by_similarity.push_back(i);
  }
  std::sort(by_similarity.begin(), by_similarity.end(),
            [&](size_t a, size_t b) {
              const double ka = -in[a].dot;
              const double kb = -in[b].dot;
              return ka < kb || (!(kb < ka) && id_less(a, b));
            });
  std::vector<size_t> similarity_rank(in.size(), kNoRank);
  for (size_t r = 0; r < by_similarity.size(); ++r) {
    similarity_rank[by_similarity[r]] = r;
  }
  std::vector<double> scores(in.size(), 0.0);
  for (size_t i = 0; i < in.size(); ++i) {
    double score = 0.0;
    if (in[i].keyword_rank != kNoRank) {
      score += 1.0 / (kRrfOffset + static_cast<double>(in[i].keyword_rank));
    }
    if (similarity_rank[i] != kNoRank) {
      score += 1.0 / (kRrfOffset + static_cast<double>(similarity_rank[i]));
    }
    scores[i] = score;
  }
  return scores;
}

/// The rows of the models named by `items` — `id_of(item)` returns the
/// id, or nullptr to skip the item; ids the store lacks are skipped.
template <typename Items, typename IdOf>
RowSet RowsOf(const ModelColumns& cols, const Items& items, IdOf id_of) {
  RowSet rows(cols.rows());
  for (const auto& item : items) {
    const std::string* id = id_of(item);
    if (id == nullptr) continue;
    const uint32_t row = cols.Find(*id);
    if (row != ModelColumns::kNoRow) rows.Set(row);
  }
  return rows;
}

/// An MLQL predicate compiled once per query against one column store.
/// String literals become dictionary-code sets, matched with the same
/// EqualsIgnoreCase / lowercase find the card fields were matched with;
/// the lake-backed calls (trained_on, keyword, derived_from) become row
/// sets. Evaluate maps a set of rows to the subset that passes. A
/// node only sees the rows that reach it (AND's right side sees what
/// its left kept, OR's right side what its left rejected), so a
/// malformed comparison fails the query exactly when a row-at-a-time
/// short-circuit evaluation would reach it.
class Predicate {
 public:
  static Result<Predicate> Compile(const SearchContext& lake,
                                   const ModelColumns& cols,
                                   const Expr& expr) {
    Predicate p(cols);
    MLAKE_ASSIGN_OR_RETURN(p.root_, p.CompileNode(lake, expr));
    return p;
  }

  Result<RowSet> Evaluate(const RowSet& rows) const {
    return Eval(root_, rows);
  }

 private:
  enum class Test {
    kError,
    kCodes,
    kTags,
    kName,
    kDescription,
    kId,
    kNumParams,
    kCompleteness,
    kRows
  };

  struct Node {
    Expr::Kind kind = Expr::Kind::kCompare;
    std::vector<Node> children;
    Test test = Test::kError;
    Status error;                                    // kError
    ModelColumns::Dict field = ModelColumns::kTask;  // kCodes
    std::vector<uint8_t> match;  // kCodes, kTags: per dictionary code
    CompareOp op = CompareOp::kEq;
    double number = 0.0;  // kNumParams, kCompleteness
    std::string literal;  // kName, kDescription (lowered), kId
    RowSet rows;          // kRows
  };

  explicit Predicate(const ModelColumns& cols) : cols_(&cols) {}

  Result<Node> CompileNode(const SearchContext& lake, const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kAnd:
      case Expr::Kind::kOr:
      case Expr::Kind::kNot: {
        Node node;
        node.kind = expr.kind;
        for (const ExprPtr& child : expr.children) {
          MLAKE_ASSIGN_OR_RETURN(Node compiled, CompileNode(lake, *child));
          node.children.push_back(std::move(compiled));
        }
        return node;
      }
      case Expr::Kind::kCompare:
        return CompileCompare(expr);
      case Expr::Kind::kCall:
        return CompileCall(lake, expr);
    }
    return Status::Internal("unreachable");
  }

  Result<Node> CompileCall(const SearchContext& lake, const Expr& expr) {
    const std::string& fn = expr.function;
    Node node;
    node.kind = Expr::Kind::kCall;
    node.test = Test::kRows;
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
      MLAKE_ASSIGN_OR_RETURN(
          auto hits, lake.TrainedOn(expr.args[0].string_value, min_overlap));
      node.rows = RowsOf(*cols_, hits,
                         [](const auto& hit) { return &hit.first; });
      return node;
    }
    if (fn == "keyword") {
      if (expr.args.size() != 1 ||
          expr.args[0].kind != Literal::Kind::kString) {
        return Status::InvalidArgument("keyword expects one string");
      }
      MLAKE_ASSIGN_OR_RETURN(
          auto hits,
          lake.KeywordScores(expr.args[0].string_value, kAllResults));
      node.rows = RowsOf(*cols_, hits, [](const auto& hit) {
        return hit.second > 0.0 ? &hit.first : nullptr;
      });
      return node;
    }
    if (fn == "tag" || fn == "derived_from") {
      if (expr.args.size() != 1 ||
          expr.args[0].kind != Literal::Kind::kString) {
        return Status::InvalidArgument(fn + " expects one string");
      }
      const std::string& arg = expr.args[0].string_value;
      if (fn == "tag") {
        const ModelColumns::Dictionary& tags =
            cols_->dict(ModelColumns::kTag);
        node.test = Test::kTags;
        node.match.resize(tags.size());
        for (uint32_t code = 0; code < tags.size(); ++code) {
          node.match[code] = EqualsIgnoreCase(tags.value(code), arg);
        }
        return node;
      }
      node.rows = RowsOf(*cols_, lake.Descendants(arg),
                         [](const std::string& id) { return &id; });
      return node;
    }
    return Status::InvalidArgument("unknown predicate function: " + fn);
  }

  /// Never fails: a malformed comparison compiles to an error leaf,
  /// which fails the evaluation only if a row reaches it.
  Node CompileCompare(const Expr& expr) const {
    Node node;
    node.op = expr.op;
    auto fail = [&node](Status status) {
      node.test = Test::kError;
      node.error = std::move(status);
      return node;
    };
    if (expr.field == "num_params" || expr.field == "completeness") {
      if (expr.value.kind != Literal::Kind::kNumber) {
        return fail(Status::InvalidArgument("field " + expr.field +
                                            " expects a number"));
      }
      if (expr.op == CompareOp::kContains) {
        return fail(Status::InvalidArgument("CONTAINS on numeric field"));
      }
      node.test = expr.field == "num_params" ? Test::kNumParams
                                             : Test::kCompleteness;
      node.number = expr.value.number_value;
      return node;
    }
    if (expr.field == "task" || expr.field == "creator" ||
        expr.field == "license" || expr.field == "architecture") {
      node.test = Test::kCodes;
      node.field = expr.field == "task"      ? ModelColumns::kTask
                   : expr.field == "creator" ? ModelColumns::kCreator
                   : expr.field == "license" ? ModelColumns::kLicense
                                             : ModelColumns::kArchitecture;
    } else if (expr.field == "name") {
      node.test = Test::kName;
    } else if (expr.field == "description") {
      node.test = Test::kDescription;
    } else if (expr.field == "model_id" || expr.field == "id") {
      node.test = Test::kId;
    } else {
      return fail(Status::InvalidArgument("unknown field: " + expr.field));
    }
    if (expr.value.kind != Literal::Kind::kString) {
      return fail(Status::InvalidArgument("field " + expr.field +
                                          " expects a string"));
    }
    if (expr.op != CompareOp::kEq && expr.op != CompareOp::kNe &&
        expr.op != CompareOp::kContains) {
      return fail(Status::InvalidArgument(
          "ordering comparison on string field " + expr.field));
    }
    const std::string& rhs = expr.value.string_value;
    if (node.test == Test::kCodes) {
      const ModelColumns::Dictionary& dict = cols_->dict(node.field);
      const std::string needle = ToLower(rhs);
      node.match.resize(dict.size());
      for (uint32_t code = 0; code < dict.size(); ++code) {
        node.match[code] =
            expr.op == CompareOp::kContains
                ? ToLower(dict.value(code)).find(needle) != std::string::npos
                : EqualsIgnoreCase(dict.value(code), rhs);
      }
    } else {
      // Lowercased for the stored lowercase name/description, and for a
      // case-insensitive id CONTAINS; id equality compares raw.
      node.literal = node.test == Test::kId && expr.op != CompareOp::kContains
                         ? rhs
                         : ToLower(rhs);
    }
    return node;
  }

  Result<RowSet> Eval(const Node& node, const RowSet& rows) const {
    switch (node.kind) {
      case Expr::Kind::kAnd: {
        MLAKE_ASSIGN_OR_RETURN(RowSet left, Eval(node.children[0], rows));
        if (left.Empty()) return left;
        return Eval(node.children[1], left);
      }
      case Expr::Kind::kOr: {
        MLAKE_ASSIGN_OR_RETURN(RowSet left, Eval(node.children[0], rows));
        RowSet rest = rows;
        rest.AndNot(left);
        if (rest.Empty()) return left;
        MLAKE_ASSIGN_OR_RETURN(RowSet right, Eval(node.children[1], rest));
        left.Or(right);
        return left;
      }
      case Expr::Kind::kNot: {
        MLAKE_ASSIGN_OR_RETURN(RowSet inner, Eval(node.children[0], rows));
        RowSet out = rows;
        out.AndNot(inner);
        return out;
      }
      case Expr::Kind::kCompare:
      case Expr::Kind::kCall:
        break;
    }
    RowSet out(rows.size());
    if (rows.Empty()) return out;
    if (node.test == Test::kError) return node.error;
    rows.ForEach([&](uint32_t row) {
      if (Passes(node, row)) out.Set(row);
    });
    return out;
  }

  bool Passes(const Node& node, uint32_t row) const {
    const ModelColumns& cols = *cols_;
    auto text = [&node](std::string_view lhs, bool ci_equal) {
      switch (node.op) {
        case CompareOp::kEq:
          return ci_equal;
        case CompareOp::kNe:
          return !ci_equal;
        default:  // kContains
          return lhs.find(node.literal) != std::string_view::npos;
      }
    };
    switch (node.test) {
      case Test::kCodes: {
        const bool match = node.match[cols.Code(node.field, row)];
        return node.op == CompareOp::kNe ? !match : match;
      }
      case Test::kTags:
        for (uint32_t code : cols.Tags(row)) {
          if (node.match[code]) return true;
        }
        return false;
      case Test::kName:
        return text(cols.LowerName(row), cols.LowerName(row) == node.literal);
      case Test::kDescription:
        return text(cols.LowerDescription(row),
                    cols.LowerDescription(row) == node.literal);
      case Test::kId:
        if (node.op == CompareOp::kContains) {
          return ContainsLowered(cols.Id(row), node.literal);
        }
        return text(cols.Id(row), EqualsIgnoreCase(cols.Id(row),
                                                   node.literal));
      case Test::kNumParams:
      case Test::kCompleteness: {
        const double lhs =
            node.test == Test::kNumParams
                ? static_cast<double>(cols.NumParams(row))
                : cols.Completeness(row);
        const double rhs = node.number;
        switch (node.op) {
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
            return false;  // compiled to an error leaf
        }
        return false;
      }
      case Test::kRows:
        return node.rows.Test(row);
      case Test::kError:
        return false;
    }
    return false;
  }

  const ModelColumns* cols_;
  Node root_;
};

/// The rows of `candidates` that pass `where`.
Result<RowSet> FilterRows(const SearchContext& lake, const ModelColumns& cols,
                          const Expr& where, const RowSet& candidates) {
  MLAKE_ASSIGN_OR_RETURN(Predicate predicate,
                         Predicate::Compile(lake, cols, where));
  return predicate.Evaluate(candidates);
}

/// A matrix row's dot product with the query vector, accumulated in
/// double in index order.
double Dot(const float* row, const std::vector<float>& query) {
  double dot = 0.0;
  for (size_t i = 0; i < query.size(); ++i) {
    dot += static_cast<double>(row[i]) * query[i];
  }
  return dot;
}

/// Every row but the query model's, in `rows` order, with its matrix
/// dot product against `query_vec` (`has_dot == false` on a dimension
/// mismatch).
std::vector<HybridCandidate> DotCandidates(const ModelColumns& cols,
                                           const std::vector<uint32_t>& rows,
                                           const std::string& query_id,
                                           const std::vector<float>& query_vec) {
  const bool same_dim = cols.dim() == query_vec.size();
  std::vector<HybridCandidate> out;
  out.reserve(rows.size());
  for (uint32_t row : rows) {
    const std::string_view id = cols.Id(row);
    if (id == query_id) continue;  // a model is not its own answer
    HybridCandidate c;
    c.id = id;
    if (same_dim) {
      c.has_dot = true;
      c.dot = Dot(cols.Embedding(row), query_vec);
    }
    out.push_back(std::move(c));
  }
  return out;
}

/// The `limit` best (row, score) pairs as answers, ordered like
/// ScoreDescIdAsc; id strings are built for those rows only.
std::vector<RankedModel> TopRows(const ModelColumns& cols,
                                 std::vector<std::pair<uint32_t, double>> scored,
                                 size_t limit) {
  const size_t k = std::min(limit, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                    [&cols](const auto& a, const auto& b) {
                      return a.second > b.second ||
                             (a.second == b.second &&
                              cols.Id(a.first) < cols.Id(b.first));
                    });
  std::vector<RankedModel> out;
  out.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    out.push_back(
        RankedModel{std::string(cols.Id(scored[i].first)), scored[i].second});
  }
  return out;
}

/// Computes ranking scores (higher = better) for the candidate rows and
/// returns the top `query.limit`.
Result<std::vector<RankedModel>> RankCandidates(const SearchContext& lake,
                                                const ModelColumns& cols,
                                                const Query& query,
                                                const RowSet& candidates,
                                                std::string* plan) {
  std::vector<std::pair<uint32_t, double>> scored;
  auto score_rows = [&](auto scorer) {
    candidates.ForEach([&](uint32_t row) {
      std::optional<double> score = scorer(row);
      if (score.has_value()) scored.emplace_back(row, *score);
    });
  };
  auto completeness = [&cols](uint32_t row) -> std::optional<double> {
    return cols.Completeness(row);
  };

  if (!query.has_rank) {
    *plan += "; rank by completeness (default)";
    score_rows(completeness);
  } else if (query.rank.function == "completeness") {
    *plan += "; rank by completeness";
    score_rows(completeness);
  } else if (query.rank.function == "keyword") {
    if (query.rank.args.size() != 1 ||
        query.rank.args[0].kind != Literal::Kind::kString) {
      return Status::InvalidArgument("keyword ranking expects one string");
    }
    *plan += "; rank by BM25 keyword score";
    MLAKE_ASSIGN_OR_RETURN(
        auto hits,
        lake.KeywordScores(query.rank.args[0].string_value, kAllResults));
    std::vector<double> score(cols.rows(), 0.0);
    for (const auto& [id, s] : hits) {
      const uint32_t row = cols.Find(id);
      if (row != ModelColumns::kNoRow) score[row] = s;
    }
    score_rows([&score](uint32_t row) -> std::optional<double> {
      return score[row];
    });
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
    if (cols.dim() == query_vec.size()) {
      score_rows([&](uint32_t row) -> std::optional<double> {
        if (cols.Id(row) == query_id) return std::nullopt;
        return Dot(cols.Embedding(row), query_vec);
      });
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

    // FuseRrf's fusion over column rows: keyword ranks are mapped to
    // rows, so no candidate id string is built.
    std::vector<size_t> keyword_rank(cols.rows(), kNoRank);
    {
      MLAKE_ASSIGN_OR_RETURN(auto keyword_hits,
                             lake.KeywordScores(text, kAllResults));
      for (size_t i = 0; i < keyword_hits.size(); ++i) {
        const uint32_t row = cols.Find(keyword_hits[i].first);
        if (row != ModelColumns::kNoRow) keyword_rank[row] = i;
      }
    }
    MLAKE_ASSIGN_OR_RETURN(std::vector<float> query_vec,
                           lake.EmbeddingFor(query_id));
    const bool same_dim = cols.dim() == query_vec.size();
    std::vector<uint32_t> rows;
    std::vector<RrfInput> in;
    candidates.ForEach([&](uint32_t row) {
      if (cols.Id(row) == query_id) return;  // not its own answer
      RrfInput c;
      c.keyword_rank = keyword_rank[row];
      if (same_dim) {
        c.has_dot = true;
        c.dot = Dot(cols.Embedding(row), query_vec);
      }
      rows.push_back(row);
      in.push_back(c);
    });
    std::vector<double> fused = RrfScores(in, [&](size_t a, size_t b) {
      return cols.Id(rows[a]) < cols.Id(rows[b]);
    });
    scored.reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      scored.emplace_back(rows[i], fused[i]);
    }
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
    const uint32_t bench_code =
        cols.dict(ModelColumns::kBenchmark).Find(benchmark);
    const uint32_t metric_code =
        cols.dict(ModelColumns::kMetricName).Find(metric);
    if (bench_code != ModelColumns::kNoCode &&
        metric_code != ModelColumns::kNoCode) {
      score_rows([&](uint32_t row) -> std::optional<double> {
        for (const ModelColumns::Metric& m : cols.Metrics(row)) {
          if (m.benchmark == bench_code && m.metric == metric_code) {
            return m.value;
          }
        }
        return std::nullopt;
      });
    }
  } else {
    return Status::InvalidArgument("unknown ranking function: " +
                                   query.rank.function);
  }
  return TopRows(cols, std::move(scored), query.limit);
}

/// ANN→filter execution: probe the ANN index for a similarity-ordered
/// over-fetch, keep the neighbors whose rows pass the predicate, and
/// escalate the fetch once (x4) if too few survive. Returns nullopt
/// when even the escalated fetch cannot fill the limit while more of
/// the index remains — the caller then falls back to the exact scan
/// plan.
Result<std::optional<QueryResult>> TryAnnFirst(const SearchContext& lake,
                                               const ModelColumns& cols,
                                               const Query& query,
                                               double selectivity,
                                               size_t fetch,
                                               size_t ann_live) {
  const std::string& query_id = query.rank.args[0].string_value;
  MLAKE_ASSIGN_OR_RETURN(std::vector<float> query_vec,
                         lake.EmbeddingFor(query_id));
  MLAKE_ASSIGN_OR_RETURN(Predicate where,
                         Predicate::Compile(lake, cols, *query.where));
  size_t cap = ann_live + 1;  // +1: the query model matches itself
  bool escalated = false;
  for (int attempt = 0; attempt < 2; ++attempt) {
    size_t ask = std::min(fetch, cap);
    MLAKE_ASSIGN_OR_RETURN(auto neighbors, lake.NearestModels(query_vec, ask));
    RowSet probed(cols.rows());
    std::vector<uint32_t> rows(neighbors.size(), ModelColumns::kNoRow);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      const std::string& id = neighbors[i].first;
      if (id == query_id) continue;  // a model is not its own answer
      rows[i] = cols.Find(id);
      if (rows[i] == ModelColumns::kNoRow) {
        return Status::NotFound("model not in the column store: " + id);
      }
      probed.Set(rows[i]);
    }
    MLAKE_ASSIGN_OR_RETURN(RowSet passed, where.Evaluate(probed));
    QueryResult result;
    for (size_t i = 0; i < neighbors.size(); ++i) {
      if (rows[i] == ModelColumns::kNoRow || !passed.Test(rows[i])) continue;
      result.models.push_back(
          RankedModel{neighbors[i].first, 1.0 - neighbors[i].second});
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
  ModelColumns one;
  MLAKE_RETURN_NOT_OK(one.Append(card, {}, ""));
  RowSet row(1);
  row.Set(0);
  MLAKE_ASSIGN_OR_RETURN(RowSet passed, FilterRows(lake, one, expr, row));
  return passed.Test(0);
}

std::vector<RankedModel> FuseRrf(std::vector<std::string> keyword_order,
                                 std::vector<HybridCandidate> candidates) {
  std::unordered_map<std::string_view, size_t> keyword_rank;
  keyword_rank.reserve(keyword_order.size());
  for (size_t i = 0; i < keyword_order.size(); ++i) {
    keyword_rank[keyword_order[i]] = i;
  }
  std::vector<RrfInput> in(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (auto it = keyword_rank.find(candidates[i].id);
        it != keyword_rank.end()) {
      in[i].keyword_rank = it->second;
    }
    in[i].has_dot = candidates[i].has_dot;
    in[i].dot = candidates[i].dot;
  }
  std::vector<double> scores =
      RrfScores(in, [&candidates](size_t a, size_t b) {
        return candidates[a].id < candidates[b].id;
      });
  std::vector<RankedModel> out;
  out.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    out.push_back(RankedModel{std::move(candidates[i].id), scores[i]});
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
  const ModelColumns& cols = lake.Columns();
  RowSet candidates = cols.LiveRows();
  if (query.where != nullptr) {
    MLAKE_ASSIGN_OR_RETURN(candidates,
                           FilterRows(lake, cols, *query.where, candidates));
  }
  // Id order: the order a shard's answer lists its candidates in.
  std::vector<uint32_t> rows;
  candidates.ForEach([&rows](uint32_t row) { rows.push_back(row); });
  std::sort(rows.begin(), rows.end(), [&cols](uint32_t a, uint32_t b) {
    return cols.Id(a) < cols.Id(b);
  });
  return DotCandidates(cols, rows, query.rank.args[1].string_value, query_vec);
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
  const ModelColumns& cols = lake.Columns();
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
            TryAnnFirst(lake, cols, query, sel, fetch, stats.ann_live));
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

  RowSet candidates = cols.LiveRows();
  result.plan =
      plan_prefix + StrFormat("scan %zu cards", candidates.Count());

  if (query.where != nullptr) {
    MLAKE_ASSIGN_OR_RETURN(candidates,
                           FilterRows(lake, cols, *query.where, candidates));
    result.plan += StrFormat("; filter -> %zu", candidates.Count());
  }

  MLAKE_ASSIGN_OR_RETURN(
      result.models,
      RankCandidates(lake, cols, query, candidates, &result.plan));
  return result;
}

Result<QueryResult> ExecuteQuery(const SearchContext& lake,
                                 std::string_view mlql) {
  MLAKE_ASSIGN_OR_RETURN(Query query, ParseQuery(mlql));
  return ExecuteQuery(lake, query);
}

}  // namespace mlake::search
