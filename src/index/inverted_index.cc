#include "index/inverted_index.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/string_util.h"

namespace mlake::index {

namespace {

/// Binary search of `needle` in a CSR string table; -1 when absent.
int64_t TableIndex(const uint64_t* off, const char* bytes, size_t count,
                   std::string_view needle) {
  int64_t lo = 0, hi = static_cast<int64_t>(count) - 1;
  while (lo <= hi) {
    int64_t mid = lo + (hi - lo) / 2;
    std::string_view entry(bytes + off[mid],
                           static_cast<size_t>(off[mid + 1] - off[mid]));
    int cmp = entry.compare(needle);
    if (cmp == 0) return mid;
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return -1;
}


}  // namespace

int64_t InvertedIndex::BaseDocIndex(std::string_view doc_id) const {
  if (base_docs_ == 0) return -1;
  return TableIndex(bdoc_off_, bdoc_bytes_, base_docs_, doc_id);
}

int64_t InvertedIndex::BaseTermIndex(std::string_view term) const {
  if (base_terms_ == 0) return -1;
  return TableIndex(bterm_off_, bterm_bytes_, base_terms_, term);
}

std::string_view InvertedIndex::BaseDocId(size_t i) const {
  return std::string_view(bdoc_bytes_ + bdoc_off_[i],
                          static_cast<size_t>(bdoc_off_[i + 1] -
                                              bdoc_off_[i]));
}

void InvertedIndex::Add(const std::string& doc_id, std::string_view text) {
  auto it = doc_index_.find(doc_id);
  if (it != doc_index_.end()) {
    Remove(doc_id);
  } else {
    // A live base copy is shadowed: tombstone it so only the new delta
    // copy scores.
    int64_t bi = BaseDocIndex(doc_id);
    if (bi >= 0 && !BaseDocDead(static_cast<size_t>(bi))) {
      Remove(doc_id);
    }
  }
  std::vector<std::string> tokens = TokenizeWords(text);

  uint32_t doc;
  it = doc_index_.find(doc_id);
  if (it != doc_index_.end()) {
    doc = it->second;  // resurrect removed slot
  } else {
    doc = static_cast<uint32_t>(doc_ids_.size());
    doc_ids_.push_back(doc_id);
    doc_lengths_.push_back(0);
    doc_index_[doc_id] = doc;
  }

  std::unordered_map<std::string, uint32_t> counts;
  for (const std::string& t : tokens) ++counts[t];
  for (const auto& [term, tf] : counts) {
    postings_[term].push_back(Posting{doc, tf});
  }
  doc_lengths_[doc] = static_cast<uint32_t>(tokens.size());
  total_tokens_ += tokens.size();
  ++live_docs_;
}

void InvertedIndex::Remove(const std::string& doc_id) {
  auto it = doc_index_.find(doc_id);
  if (it != doc_index_.end()) {
    uint32_t doc = it->second;
    if (doc_lengths_[doc] == 0) return;  // already removed
    total_tokens_ -= doc_lengths_[doc];
    doc_lengths_[doc] = 0;
    --live_docs_;
    // Delta postings are purged eagerly, so a posting list's length is
    // that term's live delta document frequency.
    for (auto& [term, list] : postings_) {
      list.erase(
          std::remove_if(list.begin(), list.end(),
                         [doc](const Posting& p) { return p.doc == doc; }),
          list.end());
    }
    return;
  }
  int64_t bi = BaseDocIndex(doc_id);
  if (bi < 0) return;
  size_t i = static_cast<size_t>(bi);
  if (BaseDocDead(i)) return;
  if (base_dead_.empty()) base_dead_.assign(base_docs_, 0);
  base_dead_[i] = 1;
  ++base_dead_count_;
  base_tokens_ -= bdoc_len_[i];
  --base_live_;
}

std::vector<TextHit> InvertedIndex::Search(std::string_view query,
                                           size_t k) const {
  return std::move(Score({std::string(query)}, k, nullptr)[0]);
}

std::vector<std::vector<TextHit>> InvertedIndex::SearchBatch(
    const std::vector<std::string>& queries, size_t k) const {
  return Score(queries, k, nullptr);
}

std::vector<TextHit> InvertedIndex::SearchWithStats(
    std::string_view query, size_t k, const Bm25Stats& stats) const {
  return std::move(Score({std::string(query)}, k, &stats)[0]);
}

void Bm25Stats::Merge(const Bm25Stats& other) {
  live_docs += other.live_docs;
  total_tokens += other.total_tokens;
  for (const auto& [term, n] : other.df) df[term] += n;
}

Bm25Stats InvertedIndex::CollectStats(std::string_view query) const {
  Bm25Stats stats;
  stats.live_docs = live_docs_ + base_live_;
  stats.total_tokens = total_tokens_ + base_tokens_;
  for (const std::string& term : TokenizeWords(query)) {
    auto [it, fresh] = stats.df.try_emplace(term, uint64_t{0});
    if (fresh) it->second = GatherLive(term).df();
  }
  return stats;
}

InvertedIndex::LivePostings InvertedIndex::GatherLive(
    const std::string& term) const {
  LivePostings live;
  if (base_terms_ > 0) {
    int64_t t = BaseTermIndex(term);
    if (t >= 0) {
      for (uint64_t p = bpost_off_[t]; p < bpost_off_[t + 1]; ++p) {
        uint32_t doc = bpost_[2 * p];
        if (doc >= base_docs_) continue;  // corrupt posting: skip
        if (BaseDocDead(doc)) continue;
        live.base.emplace_back(doc, bpost_[2 * p + 1]);
      }
    }
  }
  auto it = postings_.find(term);
  if (it != postings_.end()) live.delta = &it->second;
  return live;
}

std::vector<std::vector<TextHit>> InvertedIndex::Score(
    const std::vector<std::string>& queries, size_t k,
    const Bm25Stats* stats) const {
  std::vector<std::vector<TextHit>> results(queries.size());
  // Corpus constants come from `stats` when given, else from this
  // segment pair. Both are double-of-integer, so an index's own
  // CollectStats reproduces the stats-free arithmetic exactly.
  uint64_t n_live = stats ? stats->live_docs : live_docs_ + base_live_;
  uint64_t tokens = stats ? stats->total_tokens : total_tokens_ + base_tokens_;
  if (queries.empty() || n_live == 0) return results;
  double avg_len = static_cast<double>(tokens) / static_cast<double>(n_live);
  if (avg_len <= 0.0) avg_len = 1.0;
  double n_docs = static_cast<double>(n_live);

  // Per-call term cache: the base-table binary search, live-posting
  // gather, document frequency and idf of each distinct term are
  // computed once and shared by every query that mentions it.
  struct TermScore {
    bool live = false;  // false: matches no live document, skip
    double idf = 0.0;
    LivePostings posts;
  };
  std::unordered_map<std::string, TermScore> cache;
  // Identical query strings share one scored result.
  std::unordered_map<std::string_view, size_t> dedup;
  dedup.reserve(queries.size());
  // Merged doc handle: base doc i -> i, delta doc d -> base_docs_ + d.
  auto id_of = [this](uint64_t handle) -> std::string_view {
    if (handle < base_docs_) return BaseDocId(handle);
    return doc_ids_[handle - base_docs_];
  };

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto [first, inserted] = dedup.emplace(queries[qi], qi);
    if (!inserted) {
      results[qi] = results[first->second];
      continue;
    }
    std::vector<std::string> terms = TokenizeWords(queries[qi]);
    if (terms.empty()) continue;

    // Per-document contributions accumulate in query-term order — the
    // same summation order a rebuilt index (and a solo search) uses,
    // which is what makes scores bit-identical.
    std::unordered_map<uint64_t, double> scores;
    for (const std::string& term : terms) {
      auto [cit, fresh] = cache.try_emplace(term);
      TermScore& ts = cit->second;
      if (fresh) {
        ts.posts = GatherLive(term);
        double df = static_cast<double>(ts.posts.df());
        if (stats != nullptr) {
          auto dit = stats->df.find(term);
          df = dit == stats->df.end() ? 0.0
                                      : static_cast<double>(dit->second);
        }
        if (df > 0.0) {
          ts.live = true;
          ts.idf = std::log(1.0 + (n_docs - df + 0.5) / (df + 0.5));
        }
      }
      if (!ts.live) continue;
      auto add = [&](uint64_t handle, uint32_t tf_raw, uint32_t len) {
        double tf = static_cast<double>(tf_raw);
        double len_norm =
            1.0 - b_ + b_ * static_cast<double>(len) / avg_len;
        scores[handle] += ts.idf * (tf * (k1_ + 1.0)) / (tf + k1_ * len_norm);
      };
      for (const auto& [doc, tf] : ts.posts.base) add(doc, tf, bdoc_len_[doc]);
      if (ts.posts.delta != nullptr) {
        for (const Posting& p : *ts.posts.delta) {
          if (doc_lengths_[p.doc] == 0) continue;  // removed
          add(base_docs_ + p.doc, p.term_frequency, doc_lengths_[p.doc]);
        }
      }
    }

    // (score desc, id asc) top-k; id strings are built for survivors
    // only.
    std::vector<std::pair<uint64_t, double>> ranked(scores.begin(),
                                                    scores.end());
    size_t keep = std::min(k, ranked.size());
    std::partial_sort(ranked.begin(), ranked.begin() + keep, ranked.end(),
                      [&](const auto& a, const auto& b) {
                        return a.second > b.second ||
                               (a.second == b.second &&
                                id_of(a.first) < id_of(b.first));
                      });
    std::vector<TextHit>& hits = results[qi];
    hits.reserve(keep);
    for (size_t i = 0; i < keep; ++i) {
      hits.push_back(TextHit{std::string(id_of(ranked[i].first)),
                             ranked[i].second});
    }
  }
  return results;
}

Status InvertedIndex::SaveSnapshot(Fs* fs, const std::string& path,
                                   uint64_t generation) const {
  if (base_docs_ > 0 && !doc_ids_.empty()) {
    return Status::FailedPrecondition(
        "InvertedIndex: cannot snapshot a two-segment index; compact first");
  }

  // Gather live documents sorted by id, renumbering via `remap`.
  std::vector<std::pair<std::string, uint32_t>> live;  // (id, old index)
  if (base_docs_ > 0) {
    for (size_t i = 0; i < base_docs_; ++i) {
      if (BaseDocDead(i)) continue;
      live.emplace_back(std::string(BaseDocId(i)), static_cast<uint32_t>(i));
    }
    // Base table is already sorted; the filter preserves order.
  } else {
    for (size_t i = 0; i < doc_ids_.size(); ++i) {
      if (doc_lengths_[i] == 0) continue;
      live.emplace_back(doc_ids_[i], static_cast<uint32_t>(i));
    }
    std::sort(live.begin(), live.end());
  }
  size_t n = live.size();
  std::vector<uint32_t> remap(base_docs_ > 0 ? base_docs_ : doc_ids_.size(),
                              UINT32_MAX);
  std::vector<uint64_t> doc_off(n + 1, 0);
  std::string doc_bytes;
  std::vector<uint32_t> doc_len(n, 0);
  uint64_t tokens = 0;
  for (size_t i = 0; i < n; ++i) {
    remap[live[i].second] = static_cast<uint32_t>(i);
    doc_bytes += live[i].first;
    doc_off[i + 1] = doc_bytes.size();
    doc_len[i] = base_docs_ > 0 ? bdoc_len_[live[i].second]
                                : doc_lengths_[live[i].second];
    tokens += doc_len[i];
  }

  // Terms sorted; postings per term sorted by new doc index.
  std::map<std::string, std::vector<std::pair<uint32_t, uint32_t>>> terms;
  if (base_docs_ > 0) {
    for (size_t t = 0; t < base_terms_; ++t) {
      std::string term(bterm_bytes_ + bterm_off_[t],
                       static_cast<size_t>(bterm_off_[t + 1] -
                                           bterm_off_[t]));
      std::vector<std::pair<uint32_t, uint32_t>> list;
      for (uint64_t p = bpost_off_[t]; p < bpost_off_[t + 1]; ++p) {
        uint32_t doc = bpost_[2 * p];
        if (doc >= base_docs_ || remap[doc] == UINT32_MAX) continue;
        list.emplace_back(remap[doc], bpost_[2 * p + 1]);
      }
      if (!list.empty()) terms[std::move(term)] = std::move(list);
    }
  } else {
    for (const auto& [term, list] : postings_) {
      std::vector<std::pair<uint32_t, uint32_t>> out;
      for (const Posting& p : list) {
        if (remap[p.doc] == UINT32_MAX) continue;
        out.emplace_back(remap[p.doc], p.term_frequency);
      }
      if (!out.empty()) terms[term] = std::move(out);
    }
  }

  std::vector<uint64_t> term_off(terms.size() + 1, 0);
  std::string term_bytes;
  std::vector<uint64_t> post_off(terms.size() + 1, 0);
  std::vector<uint32_t> post;
  size_t t = 0;
  for (auto& [term, list] : terms) {
    term_bytes += term;
    term_off[t + 1] = term_bytes.size();
    std::sort(list.begin(), list.end());
    for (const auto& [doc, tf] : list) {
      post.push_back(doc);
      post.push_back(tf);
    }
    post_off[t + 1] = post.size() / 2;
    ++t;
  }

  std::vector<uint64_t> meta = {n, terms.size(), post.size() / 2, tokens};
  SnapshotWriter writer(SnapshotKind::kInverted, generation);
  writer.AddArray("meta", meta);
  writer.AddArray("doc_off", doc_off);
  writer.AddSection("doc_bytes", doc_bytes.data(), doc_bytes.size());
  writer.AddArray("doc_len", doc_len);
  writer.AddArray("term_off", term_off);
  writer.AddSection("term_bytes", term_bytes.data(), term_bytes.size());
  writer.AddArray("post_off", post_off);
  writer.AddArray("post", post);
  return writer.WriteTo(fs, path);
}

Status InvertedIndex::LoadSnapshot(Fs* fs, const std::string& path) {
  if (base_docs_ > 0 || !doc_ids_.empty()) {
    return Status::FailedPrecondition(
        "InvertedIndex: LoadSnapshot requires an empty index");
  }
  MLAKE_ASSIGN_OR_RETURN(
      SnapshotReader snap,
      SnapshotReader::Open(fs, path, SnapshotKind::kInverted));
  MLAKE_ASSIGN_OR_RETURN(auto meta, snap.Array<uint64_t>("meta"));
  if (meta.second != 4) {
    return Status::Corruption("inverted snapshot meta malformed: " + path);
  }
  uint64_t n = meta.first[0];
  uint64_t n_terms = meta.first[1];
  uint64_t n_posts = meta.first[2];
  uint64_t tokens = meta.first[3];

  MLAKE_ASSIGN_OR_RETURN(auto doc_off, snap.Array<uint64_t>("doc_off"));
  MLAKE_ASSIGN_OR_RETURN(auto doc_bytes, snap.Section("doc_bytes"));
  MLAKE_ASSIGN_OR_RETURN(auto doc_len, snap.Array<uint32_t>("doc_len"));
  MLAKE_ASSIGN_OR_RETURN(auto term_off, snap.Array<uint64_t>("term_off"));
  MLAKE_ASSIGN_OR_RETURN(auto term_bytes, snap.Section("term_bytes"));
  MLAKE_ASSIGN_OR_RETURN(auto post_off, snap.Array<uint64_t>("post_off"));
  MLAKE_ASSIGN_OR_RETURN(auto post, snap.Array<uint32_t>("post"));
  if (doc_off.second != n + 1 || doc_len.second != n ||
      term_off.second != n_terms + 1 || post_off.second != n_terms + 1 ||
      post.second != 2 * n_posts) {
    return Status::Corruption("inverted snapshot sections malformed: " +
                              path);
  }
  if (!OffsetsWellFormed(doc_off.first, n + 1, doc_bytes.size()) ||
      !OffsetsWellFormed(term_off.first, n_terms + 1, term_bytes.size()) ||
      !OffsetsWellFormed(post_off.first, n_terms + 1, n_posts)) {
    return Status::Corruption("inverted snapshot offsets malformed: " + path);
  }

  base_snap_ = std::move(snap);
  base_generation_ = base_snap_.generation();
  base_docs_ = static_cast<size_t>(n);
  base_terms_ = static_cast<size_t>(n_terms);
  bdoc_off_ = doc_off.first;
  bdoc_bytes_ = doc_bytes.data();
  bdoc_len_ = doc_len.first;
  bterm_off_ = term_off.first;
  bterm_bytes_ = term_bytes.data();
  bpost_off_ = post_off.first;
  bpost_ = post.first;
  base_dead_.clear();
  base_dead_count_ = 0;
  base_tokens_ = tokens;
  base_live_ = base_docs_;
  return Status::OK();
}

}  // namespace mlake::index
