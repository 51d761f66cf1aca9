#include "search/columns.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <functional>
#include <utility>

#include "common/json.h"
#include "common/string_util.h"

namespace mlake::search {

namespace {

/// Rows per block: 256 rows of a dim-64 lake hold a 64 KiB matrix slab,
/// and a partly filled last block (a shard's tail) wastes little.
constexpr size_t kBlockRows = 256;

/// Version of the "col_*" sidecar sections.
constexpr uint64_t kColumnsVersion = 1;

constexpr const char* kCodeFieldNames[ModelColumns::kNumCodeFields] = {
    "task", "creator", "license", "architecture"};

/// What a card's num_params decodes to from its catalog doc (JSON
/// numbers are doubles).
int64_t CatalogInt64(int64_t v) { return Json(v).AsInt64(); }

/// What a metric value decodes to from its catalog doc: JSON has no
/// NaN or infinity, so the doc holds null and the decoder falls back
/// to 0.
double CatalogDouble(double v) { return std::isfinite(v) ? v : 0.0; }

Status Malformed(const std::string& what) {
  return Status::Corruption("ids snapshot columns malformed: " + what);
}

/// A typed sidecar section; a missing or ragged one is Malformed,
/// whatever status the reader reports for it.
template <typename T>
Result<std::span<const T>> ArraySection(const index::SnapshotReader& snap,
                                        const char* name) {
  auto got = snap.Array<T>(name);
  if (!got.ok()) return Malformed(got.status().ToString());
  return std::span<const T>(got.ValueUnsafe().first,
                            got.ValueUnsafe().second);
}

Result<std::string_view> BytesSection(const index::SnapshotReader& snap,
                                      const char* name) {
  auto got = snap.Section(name);
  if (!got.ok()) return Malformed(got.status().ToString());
  return got.MoveValueUnsafe();
}

/// A CSR offset table over `rows` rows into `limit` elements.
bool CsrWellFormed(std::span<const uint64_t> off, size_t rows, size_t limit) {
  return off.size() == rows + 1 &&
         index::OffsetsWellFormed(off.data(), off.size(), limit);
}

/// Every stride-th code from `offset` is below `limit`.
bool CodesBelow(std::span<const uint32_t> codes, size_t stride, size_t offset,
                size_t limit) {
  for (size_t i = offset; i < codes.size(); i += stride) {
    if (codes[i] >= limit) return false;
  }
  return true;
}

}  // namespace

// -------------------------------------------------------------- RowSet

size_t RowSet::Count() const {
  size_t n = 0;
  for (uint64_t w : words_) n += static_cast<size_t>(__builtin_popcountll(w));
  return n;
}

bool RowSet::Empty() const {
  for (uint64_t w : words_) {
    if (w != 0) return false;
  }
  return true;
}

void RowSet::Or(const RowSet& other) {
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

void RowSet::AndNot(const RowSet& other) {
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
}

// -------------------------------------------------------- ModelColumns

struct ModelColumns::Block {
  uint32_t codes[kBlockRows][kNumCodeFields];
  int64_t num_params[kBlockRows];
  double completeness[kBlockRows];
  uint8_t state[kBlockRows];
  Extent id[kBlockRows];
  Extent digest[kBlockRows];
  Extent name[kBlockRows];
  Extent description[kBlockRows];
  Extent tags[kBlockRows];
  Extent datasets[kBlockRows];
  Extent metrics[kBlockRows];
  /// Arenas the extents point into: `text` holds ids, digests and the
  /// lowercased names and descriptions. A card edit appends its new
  /// values and leaves the old bytes behind; a rebuild drops them.
  std::string text;
  std::vector<uint32_t> list_codes;
  std::vector<Metric> metric_cells;
  /// kBlockRows x dim floats, allocated once with the block.
  std::unique_ptr<float[]> matrix;
};

uint32_t ModelColumns::Dictionary::Intern(std::string_view value) {
  if (auto it = codes_.find(value); it != codes_.end()) return it->second;
  const uint32_t code = static_cast<uint32_t>(size());
  codes_.emplace(std::string(value), code);
  values_.emplace_back(value);
  live_.push_back(0);
  return code;
}

ModelColumns::ModelColumns(size_t dim) : dim_(dim) {}
ModelColumns::ModelColumns(ModelColumns&& other) noexcept {
  *this = std::move(other);
}

ModelColumns& ModelColumns::operator=(ModelColumns&& other) noexcept {
  // The moved-from store is left empty, not merely unspecified.
  dim_ = other.dim_;
  rows_ = std::exchange(other.rows_, 0);
  blocks_ = std::move(other.blocks_);
  other.blocks_.clear();
  for (int d = 0; d < kNumDicts; ++d) {
    dicts_[d] = std::exchange(other.dicts_[d], Dictionary());
  }
  live_rows_ = std::exchange(other.live_rows_, 0);
  slots_ = std::exchange(other.slots_, {});
  distinct_ids_ = std::exchange(other.distinct_ids_, 0);
  return *this;
}
ModelColumns::~ModelColumns() = default;

ModelColumns::RowState ModelColumns::State(uint32_t row) const {
  return static_cast<RowState>(
      blocks_[row / kBlockRows]->state[row % kBlockRows]);
}

uint32_t ModelColumns::Code(Dict field, uint32_t row) const {
  return blocks_[row / kBlockRows]->codes[row % kBlockRows][field];
}

int64_t ModelColumns::NumParams(uint32_t row) const {
  return blocks_[row / kBlockRows]->num_params[row % kBlockRows];
}

double ModelColumns::Completeness(uint32_t row) const {
  return blocks_[row / kBlockRows]->completeness[row % kBlockRows];
}

std::string_view ModelColumns::Id(uint32_t row) const {
  const Block& b = *blocks_[row / kBlockRows];
  const Extent& e = b.id[row % kBlockRows];
  return std::string_view(b.text).substr(e.begin, e.size);
}

std::string_view ModelColumns::Digest(uint32_t row) const {
  const Block& b = *blocks_[row / kBlockRows];
  const Extent& e = b.digest[row % kBlockRows];
  return std::string_view(b.text).substr(e.begin, e.size);
}

std::string_view ModelColumns::LowerName(uint32_t row) const {
  const Block& b = *blocks_[row / kBlockRows];
  const Extent& e = b.name[row % kBlockRows];
  return std::string_view(b.text).substr(e.begin, e.size);
}

std::string_view ModelColumns::LowerDescription(uint32_t row) const {
  const Block& b = *blocks_[row / kBlockRows];
  const Extent& e = b.description[row % kBlockRows];
  return std::string_view(b.text).substr(e.begin, e.size);
}

std::span<const uint32_t> ModelColumns::Tags(uint32_t row) const {
  const Block& b = *blocks_[row / kBlockRows];
  const Extent& e = b.tags[row % kBlockRows];
  return std::span<const uint32_t>(b.list_codes).subspan(e.begin, e.size);
}

std::span<const uint32_t> ModelColumns::Datasets(uint32_t row) const {
  const Block& b = *blocks_[row / kBlockRows];
  const Extent& e = b.datasets[row % kBlockRows];
  return std::span<const uint32_t>(b.list_codes).subspan(e.begin, e.size);
}

std::span<const ModelColumns::Metric> ModelColumns::Metrics(
    uint32_t row) const {
  const Block& b = *blocks_[row / kBlockRows];
  const Extent& e = b.metrics[row % kBlockRows];
  return std::span<const Metric>(b.metric_cells).subspan(e.begin, e.size);
}

const float* ModelColumns::Embedding(uint32_t row) const {
  return blocks_[row / kBlockRows]->matrix.get() + (row % kBlockRows) * dim_;
}

RowSet ModelColumns::LiveRows() const {
  RowSet live(rows());
  for (uint32_t row = 0; row < rows(); ++row) {
    if (Live(row)) live.Set(row);
  }
  return live;
}

std::map<std::string, std::map<std::string, size_t>>
ModelColumns::FieldCounts() const {
  std::map<std::string, std::map<std::string, size_t>> counts;
  for (int f = 0; f < kNumCodeFields; ++f) {
    const Dictionary& d = dicts_[f];
    for (uint32_t code = 0; code < d.size(); ++code) {
      if (d.value(code).empty() || d.live(code) == 0) continue;
      counts[kCodeFieldNames[f]][d.value(code)] += d.live(code);
    }
  }
  return counts;
}

void ModelColumns::WriteRow(uint32_t row,
                            const uint32_t codes[kNumCodeFields],
                            int64_t num_params, double completeness,
                            std::string_view name, std::string_view desc,
                            bool lower, std::span<const uint32_t> tags,
                            std::span<const uint32_t> datasets,
                            std::span<const Metric> metrics) {
  Block& b = *blocks_[row / kBlockRows];
  const size_t i = row % kBlockRows;
  std::copy(codes, codes + kNumCodeFields, b.codes[i]);
  b.num_params[i] = num_params;
  b.completeness[i] = completeness;
  auto lowered = [lower](char c) {
    return lower ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
                 : c;
  };
  auto text = [&](std::string_view s) {
    Extent e{static_cast<uint32_t>(b.text.size()),
             static_cast<uint32_t>(s.size())};
    for (char c : s) b.text.push_back(lowered(c));
    return e;
  };
  // Names are often the (lowercase) id itself: share its bytes.
  const std::string_view id = Id(row);
  const bool name_is_id =
      name.size() == id.size() &&
      std::equal(name.begin(), name.end(), id.begin(),
                 [&](char n, char d) { return lowered(n) == d; });
  b.name[i] = name_is_id ? b.id[i] : text(name);
  b.description[i] = text(desc);
  auto list = [&b](std::span<const uint32_t> codes_in) {
    Extent e{static_cast<uint32_t>(b.list_codes.size()),
             static_cast<uint32_t>(codes_in.size())};
    b.list_codes.insert(b.list_codes.end(), codes_in.begin(), codes_in.end());
    return e;
  };
  b.tags[i] = list(tags);
  b.datasets[i] = list(datasets);
  b.metrics[i] = Extent{static_cast<uint32_t>(b.metric_cells.size()),
                        static_cast<uint32_t>(metrics.size())};
  b.metric_cells.insert(b.metric_cells.end(), metrics.begin(), metrics.end());
}

void ModelColumns::WriteCard(uint32_t row, const metadata::ModelCard& card) {
  const uint32_t codes[kNumCodeFields] = {
      dicts_[kTask].Intern(card.task), dicts_[kCreator].Intern(card.creator),
      dicts_[kLicense].Intern(card.license),
      dicts_[kArchitecture].Intern(card.architecture)};
  // Reused scratch: an ingest allocates no per-row temporaries.
  scratch_codes_.clear();
  for (const std::string& t : card.tags) {
    scratch_codes_.push_back(dicts_[kTag].Intern(t));
  }
  for (const std::string& d : card.training_datasets) {
    scratch_codes_.push_back(dicts_[kDataset].Intern(d));
  }
  scratch_metrics_.clear();
  for (const metadata::MetricEntry& m : card.metrics) {
    scratch_metrics_.push_back(Metric{dicts_[kBenchmark].Intern(m.benchmark),
                                      dicts_[kMetricName].Intern(m.metric),
                                      CatalogDouble(m.value)});
  }
  const std::span<const uint32_t> lists(scratch_codes_);
  WriteRow(row, codes, CatalogInt64(card.num_params),
           metadata::CompletenessScore(card), card.name, card.description,
           /*lower=*/true, lists.first(card.tags.size()),
           lists.subspan(card.tags.size()), scratch_metrics_);
}

void ModelColumns::CountRow(uint32_t row, int delta) {
  for (int f = 0; f < kNumCodeFields; ++f) {
    dicts_[f].live_[Code(static_cast<Dict>(f), row)] += delta;
  }
  for (uint32_t code : Tags(row)) dicts_[kTag].live_[code] += delta;
  for (uint32_t code : Datasets(row)) dicts_[kDataset].live_[code] += delta;
  for (const Metric& m : Metrics(row)) {
    dicts_[kBenchmark].live_[m.benchmark] += delta;
    dicts_[kMetricName].live_[m.metric] += delta;
  }
}

uint32_t ModelColumns::NewRow(std::string_view id, std::string_view digest,
                              const float* embedding) {
  const uint32_t row = static_cast<uint32_t>(rows_++);
  if (row % kBlockRows == 0) {
    blocks_.push_back(std::make_unique<Block>());
    if (dim_ > 0) blocks_.back()->matrix.reset(new float[kBlockRows * dim_]);
  }
  Block& b = *blocks_.back();
  b.state[row % kBlockRows] = kLive;
  b.id[row % kBlockRows] = Extent{static_cast<uint32_t>(b.text.size()),
                                  static_cast<uint32_t>(id.size())};
  b.text.append(id);
  b.digest[row % kBlockRows] = Extent{static_cast<uint32_t>(b.text.size()),
                                      static_cast<uint32_t>(digest.size())};
  b.text.append(digest);
  if (dim_ > 0) {
    std::memcpy(b.matrix.get() + (row % kBlockRows) * dim_, embedding,
                dim_ * sizeof(float));
  }
  return row;
}

void ModelColumns::FinishRow(uint32_t row) {
  CountRow(row, +1);
  ++live_rows_;
  IndexId(row);
  if (row % kBlockRows == kBlockRows - 1) {
    // A full block only grows again on a card edit: drop the arenas'
    // doubling slack.
    Block& b = *blocks_[row / kBlockRows];
    b.text.shrink_to_fit();
    b.list_codes.shrink_to_fit();
    b.metric_cells.shrink_to_fit();
  }
}

Status ModelColumns::Append(const metadata::ModelCard& card,
                            const std::vector<float>& embedding,
                            std::string_view digest) {
  if (embedding.size() != dim_) {
    return Status::InvalidArgument(StrFormat(
        "column store row %s: embedding has %zu floats, want %zu",
        card.model_id.c_str(), embedding.size(), dim_));
  }
  const uint32_t row = NewRow(card.model_id, digest, embedding.data());
  WriteCard(row, card);
  FinishRow(row);
  return Status::OK();
}

void ModelColumns::Truncate(size_t rows) {
  if (rows >= rows_) return;
  for (uint32_t row = static_cast<uint32_t>(rows); row < rows_; ++row) {
    if (Live(row)) {
      CountRow(row, -1);
      --live_rows_;
    }
  }
  rows_ = rows;
  blocks_.resize((rows + kBlockRows - 1) / kBlockRows);
  RebuildIdIndex();
}

void ModelColumns::Update(uint32_t row, const metadata::ModelCard& card) {
  const bool live = Live(row);
  if (live) CountRow(row, -1);
  WriteCard(row, card);
  if (live) CountRow(row, +1);
}

void ModelColumns::MarkDegraded(uint32_t row) {
  if (Live(row)) {
    CountRow(row, -1);
    --live_rows_;
  }
  if (Present(row)) {
    blocks_[row / kBlockRows]->state[row % kBlockRows] = kDegraded;
  }
}

void ModelColumns::MarkRemoved(uint32_t row) {
  if (Live(row)) {
    CountRow(row, -1);
    --live_rows_;
  }
  blocks_[row / kBlockRows]->state[row % kBlockRows] = kRemoved;
}

void ModelColumns::IndexId(uint32_t row) {
  if ((distinct_ids_ + 1) * 2 > slots_.size()) {
    RebuildIdIndex();  // sized for every row, this one included
    return;
  }
  const size_t mask = slots_.size() - 1;
  const std::string_view id = Id(row);
  for (size_t i = std::hash<std::string_view>{}(id) & mask;;
       i = (i + 1) & mask) {
    if (slots_[i] == kNoRow) {
      slots_[i] = row;
      ++distinct_ids_;
      return;
    }
    if (Id(slots_[i]) == id) {
      slots_[i] = row;  // the newest row of an id wins
      return;
    }
  }
}

void ModelColumns::RebuildIdIndex() {
  size_t capacity = 16;
  while (capacity < 2 * (rows_ + 1)) capacity *= 2;
  slots_.assign(capacity, kNoRow);
  distinct_ids_ = 0;
  for (uint32_t row = 0; row < rows_; ++row) IndexId(row);
}

uint32_t ModelColumns::Find(std::string_view id) const {
  if (slots_.empty()) return kNoRow;
  const size_t mask = slots_.size() - 1;
  for (size_t i = std::hash<std::string_view>{}(id) & mask;;
       i = (i + 1) & mask) {
    if (slots_[i] == kNoRow || Id(slots_[i]) == id) return slots_[i];
  }
}

// ---------------------------------------------------------- persistence

void ModelColumns::AddSections(index::SnapshotWriter* writer) const {
  const size_t n = rows();
  std::vector<uint64_t> dict_n(kNumDicts);
  std::vector<std::string> values;
  for (int d = 0; d < kNumDicts; ++d) {
    dict_n[d] = dicts_[d].size();
    values.insert(values.end(), dicts_[d].values_.begin(),
                  dicts_[d].values_.end());
  }
  std::vector<uint64_t> dict_off;
  std::string dict_str;
  index::BuildStringTable(values, &dict_off, &dict_str);
  writer->AddArray("col_meta",
                   std::vector<uint64_t>{kColumnsVersion, dim_, n});
  writer->AddArray("col_dict_n", dict_n);
  writer->AddArray("col_dict_off", dict_off);
  writer->AddSection("col_dict_str", std::move(dict_str));

  // Row sections are built as section bytes directly and moved into the
  // writer, so the flattened store exists once.
  auto put = [](std::string* out, const auto& v) {
    out->append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  std::string codes, params, complete, name_off, names, desc_off, descs,
      tag_off, tags, trn_off, trn, met_off, met_codes, met_vals, matrix;
  codes.reserve(n * kNumCodeFields * sizeof(uint32_t));
  params.reserve(n * sizeof(int64_t));
  complete.reserve(n * sizeof(double));
  matrix.reserve(n * dim_ * sizeof(float));
  uint64_t tag_end = 0, trn_end = 0, met_end = 0;
  put(&name_off, uint64_t{0});
  put(&desc_off, uint64_t{0});
  put(&tag_off, uint64_t{0});
  put(&trn_off, uint64_t{0});
  put(&met_off, uint64_t{0});
  for (uint32_t row = 0; row < n; ++row) {
    for (int f = 0; f < kNumCodeFields; ++f) {
      put(&codes, Code(static_cast<Dict>(f), row));
    }
    put(&params, NumParams(row));
    put(&complete, Completeness(row));
    names.append(LowerName(row));
    put(&name_off, static_cast<uint64_t>(names.size()));
    descs.append(LowerDescription(row));
    put(&desc_off, static_cast<uint64_t>(descs.size()));
    for (uint32_t code : Tags(row)) put(&tags, code);
    tag_end += Tags(row).size();
    put(&tag_off, tag_end);
    for (uint32_t code : Datasets(row)) put(&trn, code);
    trn_end += Datasets(row).size();
    put(&trn_off, trn_end);
    for (const Metric& m : Metrics(row)) {
      put(&met_codes, m.benchmark);
      put(&met_codes, m.metric);
      put(&met_vals, m.value);
    }
    met_end += Metrics(row).size();
    put(&met_off, met_end);
    if (dim_ > 0) {
      matrix.append(reinterpret_cast<const char*>(Embedding(row)),
                    dim_ * sizeof(float));
    }
  }
  writer->AddSection("col_codes", std::move(codes));
  writer->AddSection("col_params", std::move(params));
  writer->AddSection("col_complete", std::move(complete));
  writer->AddSection("col_name_off", std::move(name_off));
  writer->AddSection("col_name", std::move(names));
  writer->AddSection("col_desc_off", std::move(desc_off));
  writer->AddSection("col_desc", std::move(descs));
  writer->AddSection("col_tag_off", std::move(tag_off));
  writer->AddSection("col_tags", std::move(tags));
  writer->AddSection("col_trn_off", std::move(trn_off));
  writer->AddSection("col_trn", std::move(trn));
  writer->AddSection("col_met_off", std::move(met_off));
  writer->AddSection("col_met_codes", std::move(met_codes));
  writer->AddSection("col_met_vals", std::move(met_vals));
  writer->AddSection("col_matrix", std::move(matrix));
}

Result<ModelColumns> ModelColumns::FromSections(
    const index::SnapshotReader& snap,
    const std::vector<std::string_view>& ids,
    const std::vector<std::string_view>& digests, size_t dim) {
  if (!snap.HasSection("col_meta")) {
    return Status::Corruption("ids snapshot has no column sections");
  }
  const size_t n = ids.size();
  if (digests.size() != n) return Malformed("digest table size");
  MLAKE_ASSIGN_OR_RETURN(auto meta, ArraySection<uint64_t>(snap, "col_meta"));
  if (meta.size() != 3 || meta[0] != kColumnsVersion || meta[1] != dim ||
      meta[2] != n) {
    return Malformed("header does not match the id table or lake dim");
  }

  ModelColumns out(dim);
  MLAKE_ASSIGN_OR_RETURN(auto dict_n, ArraySection<uint64_t>(snap, "col_dict_n"));
  MLAKE_ASSIGN_OR_RETURN(auto dict_off,
                         ArraySection<uint64_t>(snap, "col_dict_off"));
  MLAKE_ASSIGN_OR_RETURN(std::string_view dict_str, BytesSection(snap, "col_dict_str"));
  if (dict_n.size() != kNumDicts ||
      !index::OffsetsWellFormed(dict_off.data(), dict_off.size(),
                                dict_str.size())) {
    return Malformed("dictionary table");
  }
  size_t value = 0;
  for (int d = 0; d < kNumDicts; ++d) {
    if (dict_n[d] > dict_off.size() - 1 - value) {
      return Malformed("dictionary sizes");
    }
    for (uint64_t k = 0; k < dict_n[d]; ++k, ++value) {
      std::string_view v = dict_str.substr(
          dict_off[value], dict_off[value + 1] - dict_off[value]);
      if (out.dicts_[d].Intern(v) != k) return Malformed("duplicate value");
    }
  }
  if (value != dict_off.size() - 1) return Malformed("dictionary sizes");

  MLAKE_ASSIGN_OR_RETURN(auto codes, ArraySection<uint32_t>(snap, "col_codes"));
  MLAKE_ASSIGN_OR_RETURN(auto params, ArraySection<int64_t>(snap, "col_params"));
  MLAKE_ASSIGN_OR_RETURN(auto complete,
                         ArraySection<double>(snap, "col_complete"));
  MLAKE_ASSIGN_OR_RETURN(auto name_off,
                         ArraySection<uint64_t>(snap, "col_name_off"));
  MLAKE_ASSIGN_OR_RETURN(std::string_view names, BytesSection(snap, "col_name"));
  MLAKE_ASSIGN_OR_RETURN(auto desc_off,
                         ArraySection<uint64_t>(snap, "col_desc_off"));
  MLAKE_ASSIGN_OR_RETURN(std::string_view descs, BytesSection(snap, "col_desc"));
  MLAKE_ASSIGN_OR_RETURN(auto tag_off,
                         ArraySection<uint64_t>(snap, "col_tag_off"));
  MLAKE_ASSIGN_OR_RETURN(auto tags, ArraySection<uint32_t>(snap, "col_tags"));
  MLAKE_ASSIGN_OR_RETURN(auto trn_off,
                         ArraySection<uint64_t>(snap, "col_trn_off"));
  MLAKE_ASSIGN_OR_RETURN(auto trn, ArraySection<uint32_t>(snap, "col_trn"));
  MLAKE_ASSIGN_OR_RETURN(auto met_off,
                         ArraySection<uint64_t>(snap, "col_met_off"));
  MLAKE_ASSIGN_OR_RETURN(auto met_codes,
                         ArraySection<uint32_t>(snap, "col_met_codes"));
  MLAKE_ASSIGN_OR_RETURN(auto met_vals,
                         ArraySection<double>(snap, "col_met_vals"));
  MLAKE_ASSIGN_OR_RETURN(auto matrix, ArraySection<float>(snap, "col_matrix"));
  if (codes.size() != n * kNumCodeFields || params.size() != n ||
      complete.size() != n || !CsrWellFormed(name_off, n, names.size()) ||
      !CsrWellFormed(desc_off, n, descs.size()) ||
      !CsrWellFormed(tag_off, n, tags.size()) || !CsrWellFormed(trn_off, n, trn.size()) ||
      !CsrWellFormed(met_off, n, met_vals.size()) ||
      met_codes.size() != 2 * met_vals.size() ||
      matrix.size() != n * dim) {
    return Malformed("column sizes or offsets");
  }
  for (int f = 0; f < kNumCodeFields; ++f) {
    if (!CodesBelow(codes, kNumCodeFields, f, out.dicts_[f].size())) {
      return Malformed("code past its dictionary");
    }
  }
  if (!CodesBelow(tags, 1, 0, out.dicts_[kTag].size()) ||
      !CodesBelow(trn, 1, 0, out.dicts_[kDataset].size()) ||
      !CodesBelow(met_codes, 2, 0, out.dicts_[kBenchmark].size()) ||
      !CodesBelow(met_codes, 2, 1, out.dicts_[kMetricName].size())) {
    return Malformed("code past its dictionary");
  }

  std::vector<Metric> metrics;
  for (uint32_t row = 0; row < n; ++row) {
    metrics.clear();
    for (uint64_t c = met_off[row]; c < met_off[row + 1]; ++c) {
      metrics.push_back(
          Metric{met_codes[2 * c], met_codes[2 * c + 1], met_vals[c]});
    }
    const uint32_t at =
        out.NewRow(ids[row], digests[row], matrix.data() + row * dim);
    out.WriteRow(
        at, &codes[row * kNumCodeFields], params[row], complete[row],
        names.substr(name_off[row], name_off[row + 1] - name_off[row]),
        descs.substr(desc_off[row], desc_off[row + 1] - desc_off[row]),
        /*lower=*/false,
        tags.subspan(tag_off[row], tag_off[row + 1] - tag_off[row]),
        trn.subspan(trn_off[row], trn_off[row + 1] - trn_off[row]), metrics);
    out.FinishRow(at);
  }
  return out;
}

}  // namespace mlake::search
