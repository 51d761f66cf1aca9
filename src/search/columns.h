#ifndef MLAKE_SEARCH_COLUMNS_H_
#define MLAKE_SEARCH_COLUMNS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "index/snapshot.h"
#include "metadata/model_card.h"

namespace mlake::search {

/// A set of column-store rows: one bit per row handle.
class RowSet {
 public:
  RowSet() = default;
  explicit RowSet(size_t size) : size_(size), words_((size + 63) / 64, 0) {}

  size_t size() const { return size_; }
  bool Test(uint32_t row) const {
    return (words_[row >> 6] >> (row & 63)) & 1;
  }
  void Set(uint32_t row) { words_[row >> 6] |= uint64_t{1} << (row & 63); }
  size_t Count() const;
  bool Empty() const;

  /// In-place set algebra over two sets of the same size.
  void Or(const RowSet& other);
  void AndNot(const RowSet& other);

  /// Calls f(row) for every member, ascending.
  template <typename F>
  void ForEach(F&& f) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        f(static_cast<uint32_t>(w * 64 + __builtin_ctzll(bits)));
      }
    }
  }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

/// The lake's decoded, denormalized mirror of its cards and embeddings,
/// keyed by the dense row handle the ANN index uses (row i is HNSW
/// element i). MLQL predicates, ranks and similarity dots read these
/// fixed-width columns instead of decoding catalog JSON per model.
///
/// Per row: the model id and artifact digest (the lake's handle table),
/// dictionary codes for task, creator, license and architecture,
/// num_params, completeness, lowercased name and description, tag and
/// training-dataset codes, (benchmark, metric, value) metric cells, the
/// catalog's raw embedding, and a state byte.
/// Values are exactly what the catalog's card and embedding docs decode
/// to, so every score computed from the columns is bit-identical to one
/// computed from the catalog.
///
/// Rows live in fixed-size blocks: an append never moves existing rows
/// or the embedding matrix. Rows are never deleted in place — a model
/// removed from the catalog or quarantined stops being live; only
/// `Truncate` (rollback of an aborted ingest) drops rows. The store is
/// movable but not copyable; a moved-from store is empty.
///
/// Not internally synchronized: the lake mutates it under its exclusive
/// lock and reads it under the shared one.
class ModelColumns {
 public:
  /// The dictionaries. The first four are per-row code columns.
  enum Dict : int {
    kTask,
    kCreator,
    kLicense,
    kArchitecture,
    kTag,
    kDataset,
    kBenchmark,
    kMetricName,
    kNumDicts
  };
  static constexpr int kNumCodeFields = 4;
  static constexpr uint32_t kNoRow = ~uint32_t{0};
  static constexpr uint32_t kNoCode = ~uint32_t{0};

  /// Distinct raw values of one field, each with the number of times a
  /// live row holds it. Codes are stable for the store's lifetime.
  class Dictionary {
   public:
    size_t size() const { return values_.size(); }
    const std::string& value(uint32_t code) const { return values_[code]; }
    size_t live(uint32_t code) const { return live_[code]; }
    /// The code of exactly `value`, or kNoCode.
    uint32_t Find(std::string_view value) const {
      auto it = codes_.find(value);
      return it == codes_.end() ? kNoCode : it->second;
    }

   private:
    friend class ModelColumns;
    /// Lets codes_ be probed with a string_view, no key copy.
    struct ViewHash {
      using is_transparent = void;
      size_t operator()(std::string_view s) const {
        return std::hash<std::string_view>{}(s);
      }
    };

    uint32_t Intern(std::string_view value);

    std::vector<std::string> values_;
    std::vector<size_t> live_;
    std::unordered_map<std::string, uint32_t, ViewHash, std::equal_to<>>
        codes_;
  };

  /// One reported metric of a row.
  struct Metric {
    uint32_t benchmark = 0;  ///< kBenchmark code
    uint32_t metric = 0;     ///< kMetricName code
    double value = 0.0;
  };

  /// `dim` is the width of every embedding row (0 = no embeddings).
  explicit ModelColumns(size_t dim = 0);
  ModelColumns(ModelColumns&&) noexcept;
  ModelColumns& operator=(ModelColumns&&) noexcept;
  ~ModelColumns();

  size_t dim() const { return dim_; }
  /// Every row ever appended (live or not) — the handle space.
  size_t rows() const { return rows_; }
  size_t live_rows() const { return live_rows_; }

  // ------------------------------------------------------ maintenance

  /// Appends a live row for `card`; `embedding` must hold dim() floats
  /// and `digest` is the artifact's content digest ("" for a
  /// metadata-only model).
  Status Append(const metadata::ModelCard& card,
                const std::vector<float>& embedding, std::string_view digest);
  /// Drops every row at or past `rows` (an aborted ingest's tail).
  void Truncate(size_t rows);
  /// Rewrites a row's card columns (a card edit; the id is unchanged).
  void Update(uint32_t row, const metadata::ModelCard& card);
  /// The row's artifact is quarantined: not live, embedding still read.
  void MarkDegraded(uint32_t row);
  /// The row's model left the catalog: not live, not present.
  void MarkRemoved(uint32_t row);

  // ------------------------------------------------------------ reads

  /// The newest row holding `id` (older rows of a re-ingested id are
  /// removed), or kNoRow.
  uint32_t Find(std::string_view id) const;
  std::string_view Id(uint32_t row) const;
  /// The artifact digest the model's catalog doc names ("" = none).
  std::string_view Digest(uint32_t row) const;
  /// Searchable: in the catalog and not degraded.
  bool Live(uint32_t row) const { return State(row) == kLive; }
  /// In the catalog (live or degraded).
  bool Present(uint32_t row) const { return State(row) != kRemoved; }
  RowSet LiveRows() const;

  const Dictionary& dict(Dict d) const { return dicts_[d]; }
  uint32_t Code(Dict field, uint32_t row) const;
  int64_t NumParams(uint32_t row) const;
  double Completeness(uint32_t row) const;
  std::string_view LowerName(uint32_t row) const;
  std::string_view LowerDescription(uint32_t row) const;
  std::span<const uint32_t> Tags(uint32_t row) const;
  std::span<const uint32_t> Datasets(uint32_t row) const;
  std::span<const Metric> Metrics(uint32_t row) const;
  /// dim() floats.
  const float* Embedding(uint32_t row) const;

  /// Live-row value counts of the four code fields, keyed by field name
  /// ("task", ...), empty values and zero counts left out — the
  /// planner's catalog histograms.
  std::map<std::string, std::map<std::string, size_t>> FieldCounts() const;

  // ------------------------------------------------------ persistence

  /// Adds the column sections ("col_*") to a lake ids sidecar. Row
  /// states are not written: a sidecar is cut from a catalog rebuild,
  /// where every row is live.
  void AddSections(index::SnapshotWriter* writer) const;
  /// Reads the column sections of a sidecar whose id and digest tables
  /// are `ids` and `digests`. The bytes are untrusted: a missing
  /// section, a malformed offset table, a code past its dictionary or a
  /// matrix that is not ids.size() x dim floats is Corruption, never UB.
  static Result<ModelColumns> FromSections(
      const index::SnapshotReader& snap,
      const std::vector<std::string_view>& ids,
      const std::vector<std::string_view>& digests, size_t dim);

 private:
  enum RowState : uint8_t { kLive, kDegraded, kRemoved };
  struct Extent {
    uint32_t begin = 0;
    uint32_t size = 0;
  };
  struct Block;

  RowState State(uint32_t row) const;
  /// Starts a live row (id, state, embedding copy), opening a block
  /// when the last one is full; the caller writes its card columns,
  /// then FinishRow counts and indexes it.
  uint32_t NewRow(std::string_view id, std::string_view digest,
                  const float* embedding);
  void FinishRow(uint32_t row);
  /// Writes a row's card columns into its block, appending the
  /// variable-length values to the block arenas; `lower` lowercases
  /// the name and description on the way in.
  void WriteRow(uint32_t row, const uint32_t codes[kNumCodeFields],
                int64_t num_params, double completeness, std::string_view name,
                std::string_view desc, bool lower,
                std::span<const uint32_t> tags,
                std::span<const uint32_t> datasets,
                std::span<const Metric> metrics);
  /// WriteRow from a card, interning its strings.
  void WriteCard(uint32_t row, const metadata::ModelCard& card);
  /// Adds `delta` to the live count of every code `row` holds.
  void CountRow(uint32_t row, int delta);
  void IndexId(uint32_t row);
  void RebuildIdIndex();

  size_t dim_ = 0;
  size_t rows_ = 0;
  std::vector<std::unique_ptr<Block>> blocks_;
  Dictionary dicts_[kNumDicts];
  size_t live_rows_ = 0;
  /// Open-addressing id -> newest row table (linear probing; kNoRow =
  /// empty slot), sized a power of two at least twice the distinct ids.
  std::vector<uint32_t> slots_;
  size_t distinct_ids_ = 0;
  /// WriteCard's reusable buffers for a card's codes and metric cells.
  std::vector<uint32_t> scratch_codes_;
  std::vector<Metric> scratch_metrics_;
};

}  // namespace mlake::search

#endif  // MLAKE_SEARCH_COLUMNS_H_
