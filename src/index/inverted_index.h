#ifndef MLAKE_INDEX_INVERTED_INDEX_H_
#define MLAKE_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fs.h"
#include "common/result.h"
#include "index/snapshot.h"

namespace mlake::index {

/// A keyword-search hit.
struct TextHit {
  std::string doc_id;
  double score = 0.0;
};

/// Integer corpus statistics for one query's terms — exactly the
/// inputs BM25 derives from the corpus (live document count, total
/// live tokens, per-term document frequency). Deliberately integers:
/// per-shard contributions sum exactly, so a router can add N shards'
/// stats and hand the global totals back to `SearchWithStats`, which
/// then scores bit-identically to one merged index holding all shards'
/// documents.
struct Bm25Stats {
  uint64_t live_docs = 0;
  uint64_t total_tokens = 0;
  std::unordered_map<std::string, uint64_t> df;  // term -> live doc freq

  void Merge(const Bm25Stats& other);
};

/// Inverted index with BM25 ranking over model-card text — the
/// metadata-search baseline the paper says today's model hubs rely on
/// (name/documentation keyword relevance, "not a semantic notion based
/// on the model itself").
///
/// Two-segment layout: a frozen *base* segment served zero-copy from an
/// mmap-backed snapshot (string tables + CSR postings, binary-searched)
/// plus the in-memory *delta* holding documents added since. Removing a
/// base document tombstones it; scoring computes document frequencies
/// over live documents only, so merged scores are bit-identical to a
/// from-scratch rebuild over the same live set.
class InvertedIndex {
 public:
  /// BM25 parameters (standard defaults).
  explicit InvertedIndex(double k1 = 1.2, double b = 0.75)
      : k1_(k1), b_(b) {}

  InvertedIndex(InvertedIndex&&) = default;
  InvertedIndex& operator=(InvertedIndex&&) = default;

  /// Indexes a document; text is tokenized to lowercase alphanumerics.
  /// Re-adding an id replaces the previous document (a base copy is
  /// tombstoned and shadowed by the new delta copy).
  void Add(const std::string& doc_id, std::string_view text);

  /// Removes a document from either segment (no-op if absent).
  void Remove(const std::string& doc_id);

  /// BM25 top-k for a free-text query. Documents matching zero terms
  /// are not returned.
  std::vector<TextHit> Search(std::string_view query, size_t k) const;

  /// Batched BM25: results[i] is bit-identical to `Search(queries[i],
  /// k)` — both run the one private scorer, a solo search as a batch
  /// of one. Work shared across the batch: each distinct term's
  /// base-table binary search, live-posting gather, document frequency
  /// and idf are computed once; identical query strings are scored
  /// once. Per-document accumulation stays in query-term order, which
  /// is what keeps each result bit-identical to a solo search.
  std::vector<std::vector<TextHit>> SearchBatch(
      const std::vector<std::string>& queries, size_t k) const;

  /// This index's contribution to `query`'s corpus statistics: df per
  /// distinct query term plus the live-doc/token counters.
  Bm25Stats CollectStats(std::string_view query) const;

  /// BM25 top-k with externally supplied (global) corpus statistics.
  /// With `stats == CollectStats(query)` the result is bit-identical
  /// to `Search(query, k)`; with summed cross-shard stats each local
  /// document scores exactly as it would in the merged corpus.
  std::vector<TextHit> SearchWithStats(std::string_view query, size_t k,
                                       const Bm25Stats& stats) const;

  /// Live documents across both segments.
  size_t NumDocs() const { return live_docs_ + base_live_; }
  /// Distinct terms (delta terms plus base terms; a term present in
  /// both is counted twice — stats only).
  size_t NumTerms() const { return postings_.size() + base_terms_; }

  /// Raw per-segment counts (stats surface).
  size_t BaseSize() const { return base_docs_; }
  size_t DeltaSize() const { return doc_ids_.size(); }
  size_t Tombstones() const {
    return base_dead_count_ + (doc_ids_.size() - live_docs_);
  }
  uint64_t snapshot_generation() const { return base_generation_; }

  /// Writes a generation-`generation` snapshot via WriteFileAtomic.
  /// Only a single-segment index can be saved (all delta or all base);
  /// tombstoned documents are dropped, so a loaded snapshot never
  /// carries tombstones.
  Status SaveSnapshot(Fs* fs, const std::string& path,
                      uint64_t generation) const;

  /// Points the base segment at a snapshot: mmap + header validation,
  /// no postings deserialization. The index must be empty.
  Status LoadSnapshot(Fs* fs, const std::string& path);

 private:
  struct Posting {
    uint32_t doc;  // internal doc index
    uint32_t term_frequency;
  };

  /// Index of `doc_id` in the base segment's sorted doc table, or -1.
  int64_t BaseDocIndex(std::string_view doc_id) const;
  /// Index of `term` in the base segment's sorted term table, or -1.
  int64_t BaseTermIndex(std::string_view term) const;
  std::string_view BaseDocId(size_t i) const;
  bool BaseDocDead(size_t i) const {
    return !base_dead_.empty() && base_dead_[i] != 0;
  }

  /// One term's live postings across both segments: what the scorer
  /// walks and what CollectStats counts.
  struct LivePostings {
    std::vector<std::pair<uint32_t, uint32_t>> base;  // (doc, tf)
    /// Remove purges delta postings eagerly, so the list's length is
    /// the term's live delta document frequency.
    const std::vector<Posting>* delta = nullptr;
    uint64_t df() const { return base.size() + (delta ? delta->size() : 0); }
  };
  LivePostings GatherLive(const std::string& term) const;

  /// The BM25 scorer behind Search, SearchBatch and SearchWithStats.
  /// Corpus constants and document frequencies come from `stats` when
  /// given, else from this index's own live counts.
  std::vector<std::vector<TextHit>> Score(
      const std::vector<std::string>& queries, size_t k,
      const Bm25Stats* stats) const;

  double k1_;
  double b_;

  // ---- delta segment (in-memory, mutable) ----
  std::vector<std::string> doc_ids_;           // internal -> external
  std::unordered_map<std::string, uint32_t> doc_index_;  // external -> internal
  std::vector<uint32_t> doc_lengths_;          // tokens per live doc (0 = removed)
  std::unordered_map<std::string, std::vector<Posting>> postings_;
  uint64_t total_tokens_ = 0;
  size_t live_docs_ = 0;

  // ---- base segment (frozen, mmap-backed) ----
  SnapshotReader base_snap_;
  uint64_t base_generation_ = 0;
  size_t base_docs_ = 0;
  size_t base_terms_ = 0;
  const uint64_t* bdoc_off_ = nullptr;   // base_docs_+1 into bdoc_bytes_
  const char* bdoc_bytes_ = nullptr;
  const uint32_t* bdoc_len_ = nullptr;   // tokens per base doc
  const uint64_t* bterm_off_ = nullptr;  // base_terms_+1 into bterm_bytes_
  const char* bterm_bytes_ = nullptr;
  const uint64_t* bpost_off_ = nullptr;  // base_terms_+1 posting extents
  const uint32_t* bpost_ = nullptr;      // (doc, tf) pairs, interleaved
  std::vector<uint8_t> base_dead_;       // base tombstones (runtime)
  size_t base_dead_count_ = 0;
  uint64_t base_tokens_ = 0;             // live base tokens
  size_t base_live_ = 0;                 // live base docs
};

}  // namespace mlake::index

#endif  // MLAKE_INDEX_INVERTED_INDEX_H_
