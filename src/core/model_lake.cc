#include "core/model_lake.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "index/snapshot.h"
#include "nn/loss.h"
#include "search/parser.h"
#include "nn/trainer.h"
#include "tensor/ops.h"

namespace mlake::core {

namespace {

/// Entry cap of the parse-once MLQL plan cache (a parsed AST is tiny;
/// the cap only bounds pathological many-distinct-query workloads).
constexpr size_t kPlanCacheCap = 512;

Json FloatsToJson(const std::vector<float>& v) {
  Json arr = Json::MakeArray();
  for (float x : v) arr.Append(Json(static_cast<double>(x)));
  return arr;
}

Result<std::vector<float>> FloatsFromJson(const Json& j) {
  if (!j.is_array()) return Status::Corruption("expected float array");
  std::vector<float> out;
  out.reserve(j.size());
  for (const Json& x : j.AsArray()) {
    if (!x.is_number()) return Status::Corruption("expected number");
    out.push_back(static_cast<float>(x.AsDouble()));
  }
  return out;
}

// A model's embedding lives in the catalog as a "vec" record: its
// 4 x dim float32 bytes, little-endian (floats already are on every
// supported target, as in the tensor codec), so a rebuild copies each
// row with one memcpy. Its own kind keeps the format unambiguous —
// raw bytes may begin with '[' — and lakes written before it hold
// "embedding" JSON float arrays instead, converted once at Open
// (ConvertJsonEmbeddings).
constexpr char kVecKind[] = "vec";
constexpr char kJsonEmbeddingKind[] = "embedding";

static_assert(std::endian::native == std::endian::little,
              "vec records are the host's float bytes");

std::string EmbeddingToBytes(const std::vector<float>& v) {
  return std::string(reinterpret_cast<const char*>(v.data()),
                     v.size() * sizeof(float));
}

// The vec record for an embedding shipped as a JSON float array (an
// older lake's "embedding" doc, a seed manifest entry). `%.17g` text
// round-trips every finite float but -0.0, which ingest stores as +0.0,
// so these are the bytes the writer stored.
Result<std::string> VecRecordFromJson(const std::string& id,
                                      const Json& floats, int64_t dim) {
  MLAKE_ASSIGN_OR_RETURN(std::vector<float> vec, FloatsFromJson(floats));
  if (static_cast<int64_t>(vec.size()) != dim) {
    return Status::Corruption(
        StrFormat("embedding for %s has dim %zu, lake expects %lld",
                  id.c_str(), vec.size(), static_cast<long long>(dim)));
  }
  return EmbeddingToBytes(vec);
}

Result<std::vector<float>> EmbeddingFromBytes(std::string_view bytes,
                                              int64_t dim) {
  if (bytes.size() != static_cast<size_t>(dim) * sizeof(float)) {
    return Status::Corruption(
        StrFormat("vec record has %zu bytes, lake expects %lld", bytes.size(),
                  static_cast<long long>(dim) * 4));
  }
  std::vector<float> out(static_cast<size_t>(dim));
  std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

// Journal op names. "ingest" and "compact" are write-ahead: journaled
// before the mutation starts, rolled back and aborted if it never
// commits. The rest are apply-then-log: journaled only once the
// mutation is durable, so a pending one is completed, never undone.
constexpr char kIngestOp[] = "ingest";
constexpr char kCompactOp[] = "compact";
constexpr char kRecordEdgeOp[] = "record_edge";
constexpr char kRegisterDatasetOp[] = "register_dataset";
constexpr char kUpdateCardOp[] = "update_card";

bool IsApplyThenLog(const std::string& op) {
  return op == kRecordEdgeOp || op == kRegisterDatasetOp ||
         op == kUpdateCardOp;
}

/// The dataset-shards codec: a dataset doc and a register_dataset
/// payload both carry the shard list as "shards".
Json ShardsToJson(const std::vector<std::string>& shards) {
  Json arr = Json::MakeArray();
  for (const std::string& s : shards) arr.Append(Json(s));
  return arr;
}

std::vector<std::string> ShardsFromJson(const Json& holder) {
  std::vector<std::string> shards;
  if (const Json* arr = holder.Find("shards");
      arr != nullptr && arr->is_array()) {
    for (const Json& s : arr->AsArray()) {
      if (s.is_string()) shards.push_back(s.AsString());
    }
  }
  return shards;
}

/// Snapshot file name of one index at one generation.
std::string SnapName(const char* prefix, uint64_t generation) {
  return StrFormat("%s.%llu.snap", prefix,
                   static_cast<unsigned long long>(generation));
}

const char kIndexManifestName[] = "MANIFEST.json";

}  // namespace

Result<std::unique_ptr<ModelLake>> ModelLake::Open(LakeOptions options) {
  if (options.root.empty()) {
    return Status::InvalidArgument("LakeOptions.root must be set");
  }
  std::unique_ptr<ModelLake> lake(new ModelLake(std::move(options)));
  MLAKE_RETURN_NOT_OK(lake->Initialize());
  return lake;
}

Status ModelLake::Initialize() {
  fs_ = options_.fs != nullptr ? options_.fs : RealFs();
  MLAKE_RETURN_NOT_OK(fs_->CreateDirs(options_.root));
  storage::BlobStoreOptions blob_options;
  blob_options.verify = options_.blob_verify;
  blob_options.use_mmap = options_.blob_mmap;
  blob_options.fs = fs_;
  blob_options.retry = options_.retry;
  MLAKE_ASSIGN_OR_RETURN(storage::BlobStore blobs,
                         storage::BlobStore::Open(
                             JoinPath(options_.root, "blobs"), blob_options));
  blobs_ = std::make_unique<storage::BlobStore>(std::move(blobs));
  MLAKE_ASSIGN_OR_RETURN(
      catalog_,
      storage::Catalog::Open(JoinPath(options_.root, "catalog.log"), fs_));
  MLAKE_ASSIGN_OR_RETURN(
      storage::IntentJournal journal,
      storage::IntentJournal::Open(JoinPath(options_.root, "journal"), fs_,
                                   options_.replication_log));
  journal_ = std::make_unique<storage::IntentJournal>(std::move(journal));

  artifact_cache_ = std::make_unique<
      storage::ShardedLruCache<std::string, storage::ModelArtifact>>(
      options_.artifact_cache_bytes, options_.cache_shards);

  probes_ = nn::MakeProbeSet(options_.input_dim, options_.probe_count,
                             options_.probe_seed);
  MLAKE_ASSIGN_OR_RETURN(
      embedder_,
      embed::MakeEmbedder(options_.embedder, probes_, options_.num_classes));

  ann_ = std::make_unique<index::HnswIndex>(embedder_->Dim(), options_.hnsw);
  dataset_lsh_ = std::make_unique<index::MinHashLsh>(options_.minhash_bands,
                                                     options_.minhash_rows);

  if (catalog_->Contains("graph", "main")) {
    MLAKE_ASSIGN_OR_RETURN(Json graph_doc, catalog_->GetDoc("graph", "main"));
    MLAKE_ASSIGN_OR_RETURN(graph_, versioning::ModelGraph::FromJson(
                                       graph_doc));
  }

  // Crash recovery must run before the indices are built: it edits the
  // catalog (intent rollback), and the indices must reflect the
  // recovered state, not the crashed one. The embedding-format upgrade
  // runs after it, so a rolled-back batch's JSON docs are never
  // converted.
  MLAKE_RETURN_NOT_OK(Recover());
  MLAKE_RETURN_NOT_OK(ConvertJsonEmbeddings());

  for (const std::string& id : catalog_->ListIds("degraded")) {
    degraded_.insert(id);
  }
  return LoadOrRebuildIndices();
}

ModelLake::~ModelLake() {
  {
    std::lock_guard<std::mutex> g(compact_mu_);
    compact_stop_ = true;
  }
  compact_cv_.notify_all();
  if (compactor_.joinable()) compactor_.join();
}

Status ModelLake::Recover() {
  recovery_ = RecoveryReport();

  // 1. Roll back mutations that began but never committed. Oldest
  // first; each rollback is idempotent, so a crash mid-recovery just
  // replays on the next open.
  MLAKE_ASSIGN_OR_RETURN(std::vector<storage::Intent> pending,
                         journal_->Pending());
  for (const storage::Intent& intent : pending) {
    // An apply-then-log intent is journaled only *after* its mutation
    // is durable, so a pending one means the mutation already applied —
    // completing the Commit just finishes the interrupted log append.
    // Everything else is a write-ahead intent: roll the mutation back
    // and Abort so the entry never enters the replayable log.
    if (IsApplyThenLog(intent.op)) {
      MLAKE_RETURN_NOT_OK(journal_->Commit(intent.seq));
      continue;
    }
    MLAKE_LOG_WARNING << "lake " << options_.root
                      << ": rolling back incomplete " << intent.op
                      << " intent #" << intent.seq << " (" << intent.ids.size()
                      << " model(s))";
    MLAKE_RETURN_NOT_OK(RollbackIntent(intent));
    MLAKE_RETURN_NOT_OK(journal_->Abort(intent.seq));
    ++recovery_.rolled_back_intents;
    recovery_.rolled_back_ids.insert(recovery_.rolled_back_ids.end(),
                                     intent.ids.begin(), intent.ids.end());
  }

  // 2. Sweep stray temp files (atomic writes that crashed between
  // temp-write and rename): lake root (catalog.log tmp), journal dir,
  // blob buckets.
  MLAKE_RETURN_NOT_OK(RemoveStrayTmpFiles(fs_, options_.root,
                                          &recovery_.tmp_files_removed));
  MLAKE_RETURN_NOT_OK(RemoveStrayTmpFiles(fs_, IndexDir(),
                                          &recovery_.tmp_files_removed));
  MLAKE_RETURN_NOT_OK(journal_->RemoveStrayTmp(&recovery_.tmp_files_removed));
  MLAKE_RETURN_NOT_OK(blobs_->RemoveStrayTmp(&recovery_.tmp_files_removed));

  // 3. Orphan blobs: content written by a crashed mutation whose intent
  // already rolled back (or pre-journal debris). Unreferenced by any
  // model doc -> unreachable -> safe to delete.
  MLAKE_ASSIGN_OR_RETURN(recovery_.orphan_blobs_removed,
                         GcOrphanBlobsUnlocked());
  return Status::OK();
}

Status ModelLake::ConvertJsonEmbeddings() {
  // Put every vec record, then delete the JSON docs, then sync. A torn
  // append keeps a prefix of that order, so a crash leaves each model's
  // JSON doc (and maybe already its vec record) behind, and the next
  // Open converts the rest to the same bytes; once no JSON doc is left
  // this writes nothing.
  const std::vector<std::string> ids = catalog_->ListIds(kJsonEmbeddingKind);
  if (ids.empty()) return Status::OK();
  storage::Catalog::Batch batch;
  for (const std::string& id : ids) {
    MLAKE_ASSIGN_OR_RETURN(Json doc, catalog_->GetDoc(kJsonEmbeddingKind, id));
    MLAKE_ASSIGN_OR_RETURN(std::string bytes,
                           VecRecordFromJson(id, doc, embedder_->Dim()));
    batch.PutRaw(kVecKind, id, std::move(bytes));
  }
  for (const std::string& id : ids) batch.DeleteDoc(kJsonEmbeddingKind, id);
  MLAKE_RETURN_NOT_OK(catalog_->Write(std::move(batch)));
  return catalog_->Sync();
}

Status ModelLake::RollbackIntent(const storage::Intent& intent) {
  if (IsApplyThenLog(intent.op)) {
    // The intent is written only after the mutation is durable, so
    // there is nothing to undo (see Recover).
    return Status::OK();
  }
  if (intent.op == kCompactOp) {
    // A compaction intent names no models; the mutation is the set of
    // snapshot files plus the atomic manifest swap. Deleting every
    // index file the *current* manifest does not name lands on exactly
    // one generation — the old one if the crash hit before the rename,
    // the new one after — and is idempotent.
    return GcIndexFilesUnlocked();
  }
  storage::Catalog::Batch undo;
  for (const std::string& id : intent.ids) {
    // The JSON embedding kind too: Recover runs before the format
    // upgrade, so a crashed batch of an old lake still holds one.
    for (const char* kind :
         {"model", "card", kVecKind, kJsonEmbeddingKind, "degraded"}) {
      if (catalog_->Contains(kind, id)) undo.DeleteDoc(kind, id);
    }
    graph_.RemoveModel(id);
    degraded_.erase(id);
  }
  MLAKE_RETURN_NOT_OK(catalog_->Write(std::move(undo)));
  // Blobs are content-addressed and deduplicated: only delete an intent
  // digest when no surviving model still references it.
  std::set<std::string> referenced;
  for (const std::string& id : catalog_->ListIds("model")) {
    auto digest = DigestForUnlocked(id);
    if (digest.ok()) referenced.insert(digest.MoveValueUnsafe());
  }
  for (const std::string& digest : intent.digests) {
    if (referenced.count(digest) > 0) continue;
    if (blobs_->Contains(digest)) {
      MLAKE_RETURN_NOT_OK(blobs_->Delete(digest));
    }
  }
  MLAKE_RETURN_NOT_OK(PersistGraph());
  // Make the rollback durable before the intent is committed away.
  return catalog_->Sync();
}

Result<size_t> ModelLake::GcOrphanBlobsUnlocked() {
  std::set<std::string> referenced;
  for (const std::string& id : catalog_->ListIds("model")) {
    auto digest = DigestForUnlocked(id);
    if (digest.ok()) referenced.insert(digest.MoveValueUnsafe());
  }
  MLAKE_ASSIGN_OR_RETURN(std::vector<std::string> digests, blobs_->List());
  size_t removed = 0;
  for (const std::string& digest : digests) {
    if (referenced.count(digest) > 0) continue;
    MLAKE_RETURN_NOT_OK(blobs_->Delete(digest));
    ++removed;
  }
  return removed;
}

std::string ModelLake::IndexDir() const {
  return JoinPath(options_.root, "index");
}

std::string ModelLake::IndexManifestPath() const {
  return JoinPath(IndexDir(), kIndexManifestName);
}

Status ModelLake::BuildIndexSetFromCatalog(IndexSet* out) const {
  const ExecutionContext& exec = options_.exec;
  out->ann =
      std::make_unique<index::HnswIndex>(embedder_->Dim(), options_.hnsw);
  out->lsh = std::make_unique<index::MinHashLsh>(options_.minhash_bands,
                                                 options_.minhash_rows);

  // Embeddings, model docs and cards -> one bulk ANN build, the column
  // rows (with each model's artifact digest, the load path's id ->
  // digest hop) and BM25, all in vec-id order (row i = HNSW element i).
  // Catalog reads are const and safe concurrently; the JSON parse of
  // model docs and cards is the cost (a vec record is one memcpy), so
  // parse in parallel and feed the (single threaded) column store and
  // inverted index in catalog order. Cards are decoded a chunk at a
  // time so at most one chunk of decoded cards is ever resident.
  {
    constexpr size_t kCardChunk = 1024;
    std::vector<std::string> ids = catalog_->ListIds(kVecKind);
    std::vector<std::vector<float>> vecs(ids.size());
    std::vector<std::string> digests(ids.size());
    MLAKE_RETURN_NOT_OK(
        ParallelFor(exec, 0, ids.size(), [&](size_t i) -> Status {
          MLAKE_ASSIGN_OR_RETURN(std::string bytes,
                                 catalog_->GetRaw(kVecKind, ids[i]));
          MLAKE_ASSIGN_OR_RETURN(vecs[i],
                                 EmbeddingFromBytes(bytes, embedder_->Dim()));
          if (Result<Json> model_doc = catalog_->GetDoc("model", ids[i]);
              model_doc.ok()) {
            digests[i] = model_doc.ValueUnsafe().GetString("artifact_digest");
          }
          return Status::OK();
        }));
    out->columns = search::ModelColumns(embedder_->Dim());
    std::vector<metadata::ModelCard> cards;
    std::vector<std::string> texts;
    for (size_t at = 0; at < ids.size(); at += kCardChunk) {
      const size_t end = std::min(ids.size(), at + kCardChunk);
      cards.assign(end - at, metadata::ModelCard());
      texts.assign(end - at, std::string());
      MLAKE_RETURN_NOT_OK(
          ParallelFor(exec, at, end, [&](size_t i) -> Status {
            metadata::ModelCard& card = cards[i - at];
            Result<Json> doc = catalog_->GetDoc("card", ids[i]);
            if (!doc.ok()) {
              // No card doc: a bare row, kept out of BM25.
              card.model_id = ids[i];
              return Status::OK();
            }
            MLAKE_ASSIGN_OR_RETURN(
                card, metadata::ModelCard::FromJson(doc.ValueUnsafe()));
            texts[i - at] = card.SearchText();
            return Status::OK();
          }));
      for (size_t i = at; i < end; ++i) {
        if (!texts[i - at].empty()) out->bm25.Add(ids[i], texts[i - at]);
        MLAKE_RETURN_NOT_OK(
            out->columns.Append(cards[i - at], vecs[i], digests[i]));
      }
    }
    std::vector<int64_t> internal_ids(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      internal_ids[i] = static_cast<int64_t>(i);
    }
    MLAKE_RETURN_NOT_OK(out->ann->Build(internal_ids, vecs, exec));
  }

  // Datasets -> MinHash/LSH (signature hashing parallel, inserts
  // sequential).
  {
    std::vector<std::string> names = catalog_->ListIds("dataset");
    std::vector<index::MinHashSignature> sigs(names.size());
    MLAKE_RETURN_NOT_OK(
        ParallelFor(exec, 0, names.size(), [&](size_t i) -> Status {
          MLAKE_ASSIGN_OR_RETURN(std::vector<std::string> shards,
                                 DatasetShardsUnlocked(names[i]));
          sigs[i] = DatasetSignature(shards);
          return Status::OK();
        }));
    for (size_t i = 0; i < names.size(); ++i) {
      MLAKE_RETURN_NOT_OK(out->lsh->Add(names[i], sigs[i]));
      out->dataset_names.push_back(names[i]);
    }
  }
  return Status::OK();
}

void ModelLake::InstallIndexSet(IndexSet set) {
  ann_ = std::move(set.ann);
  columns_ = std::move(set.columns);
  bm25_ = std::move(set.bm25);
  dataset_lsh_ = std::move(set.lsh);
  // Quarantine is lake state, not index state: a set built from the
  // catalog or loaded from a sidecar has every row live.
  for (const std::string& id : degraded_) {
    const uint32_t row = columns_.Find(id);
    if (row != search::ModelColumns::kNoRow) columns_.MarkDegraded(row);
  }
}

Status ModelLake::RebuildIndices() {
  IndexSet fresh;
  MLAKE_RETURN_NOT_OK(BuildIndexSetFromCatalog(&fresh));
  InstallIndexSet(std::move(fresh));
  index_generation_ = 0;
  return Status::OK();
}

Status ModelLake::LoadOrRebuildIndices() {
  if (options_.load_index_snapshots) {
    Status loaded = LoadIndexSnapshots();
    if (loaded.ok()) return Status::OK();
    if (!loaded.IsNotFound()) {
      // Snapshots are a cache of the catalog; anything wrong with them
      // (corruption, truncation, config mismatch) degrades to a full
      // rebuild rather than failing the open.
      MLAKE_LOG_WARNING << "lake " << options_.root
                        << ": index snapshots unusable ("
                        << loaded.ToString() << "); rebuilding from catalog";
    }
  }
  return RebuildIndices();
}

Status ModelLake::WriteIdsSnapshot(const IndexSet& set,
                                   const std::string& path,
                                   uint64_t generation) const {
  // Sidecar for the three index snapshots: the internal-id -> model-id
  // table (HNSW rows), the parallel digest table, and the dataset names
  // behind the LSH entries, all CSR string tables; then the column
  // store's sections, so a reopen decodes no card or embedding JSON.
  const size_t rows = set.columns.rows();
  std::vector<std::string> ids(rows), digests(rows);
  for (uint32_t row = 0; row < rows; ++row) {
    ids[row] = set.columns.Id(row);
    digests[row] = set.columns.Digest(row);
  }
  std::vector<uint64_t> id_off, dig_off, ds_off;
  std::string id_bytes, dig_bytes, ds_bytes;
  index::BuildStringTable(ids, &id_off, &id_bytes);
  index::BuildStringTable(digests, &dig_off, &dig_bytes);
  index::BuildStringTable(set.dataset_names, &ds_off, &ds_bytes);

  std::vector<uint64_t> meta = {rows, set.dataset_names.size()};
  index::SnapshotWriter writer(index::SnapshotKind::kLakeIds, generation);
  writer.AddArray("meta", meta);
  writer.AddArray("id_off", id_off);
  writer.AddSection("id_bytes", id_bytes.data(), id_bytes.size());
  writer.AddArray("dig_off", dig_off);
  writer.AddSection("dig_bytes", dig_bytes.data(), dig_bytes.size());
  writer.AddArray("ds_off", ds_off);
  writer.AddSection("ds_bytes", ds_bytes.data(), ds_bytes.size());
  set.columns.AddSections(&writer);
  return writer.WriteTo(fs_, path);
}

Status ModelLake::LoadIndexSetFromFiles(const std::string& ann_path,
                                        const std::string& bm25_path,
                                        const std::string& lsh_path,
                                        const std::string& ids_path,
                                        IndexSet* out,
                                        search::ModelColumns* built) const {
  out->ann =
      std::make_unique<index::HnswIndex>(embedder_->Dim(), options_.hnsw);
  out->lsh = std::make_unique<index::MinHashLsh>(options_.minhash_bands,
                                                 options_.minhash_rows);
  MLAKE_RETURN_NOT_OK(out->ann->LoadSnapshot(fs_, ann_path));
  MLAKE_RETURN_NOT_OK(out->bm25.LoadSnapshot(fs_, bm25_path));
  MLAKE_RETURN_NOT_OK(out->lsh->LoadSnapshot(fs_, lsh_path));

  MLAKE_ASSIGN_OR_RETURN(index::SnapshotReader snap,
                         index::SnapshotReader::Open(
                             fs_, ids_path, index::SnapshotKind::kLakeIds));
  MLAKE_ASSIGN_OR_RETURN(auto meta, snap.Array<uint64_t>("meta"));
  if (meta.second != 2) {
    return Status::Corruption("ids snapshot meta malformed: " + ids_path);
  }
  const size_t n_models = static_cast<size_t>(meta.first[0]);
  const size_t n_datasets = static_cast<size_t>(meta.first[1]);
  MLAKE_ASSIGN_OR_RETURN(auto id_off, snap.Array<uint64_t>("id_off"));
  MLAKE_ASSIGN_OR_RETURN(auto id_bytes, snap.Section("id_bytes"));
  MLAKE_ASSIGN_OR_RETURN(auto dig_off, snap.Array<uint64_t>("dig_off"));
  MLAKE_ASSIGN_OR_RETURN(auto dig_bytes, snap.Section("dig_bytes"));
  MLAKE_ASSIGN_OR_RETURN(auto ds_off, snap.Array<uint64_t>("ds_off"));
  MLAKE_ASSIGN_OR_RETURN(auto ds_bytes, snap.Section("ds_bytes"));
  if (id_off.second != n_models + 1 || dig_off.second != n_models + 1 ||
      ds_off.second != n_datasets + 1 ||
      !index::OffsetsWellFormed(id_off.first, id_off.second,
                                id_bytes.size()) ||
      !index::OffsetsWellFormed(dig_off.first, dig_off.second,
                                dig_bytes.size()) ||
      !index::OffsetsWellFormed(ds_off.first, ds_off.second,
                                ds_bytes.size())) {
    return Status::Corruption("ids snapshot tables malformed: " + ids_path);
  }
  std::vector<std::string_view> ids, digests;
  ids.reserve(n_models);
  digests.reserve(n_models);
  for (size_t i = 0; i < n_models; ++i) {
    ids.push_back(id_bytes.substr(
        static_cast<size_t>(id_off.first[i]),
        static_cast<size_t>(id_off.first[i + 1] - id_off.first[i])));
    digests.push_back(dig_bytes.substr(
        static_cast<size_t>(dig_off.first[i]),
        static_cast<size_t>(dig_off.first[i + 1] - dig_off.first[i])));
  }
  out->dataset_names.reserve(n_datasets);
  for (size_t i = 0; i < n_datasets; ++i) {
    out->dataset_names.emplace_back(
        ds_bytes.substr(static_cast<size_t>(ds_off.first[i]),
                        static_cast<size_t>(ds_off.first[i + 1] -
                                            ds_off.first[i])));
  }
  if (built == nullptr) {
    MLAKE_ASSIGN_OR_RETURN(
        out->columns, search::ModelColumns::FromSections(
                          snap, ids, digests,
                          static_cast<size_t>(embedder_->Dim())));
  }
  // The four files must come from one compaction pass; a torn mix of
  // generations would desynchronize internal ids from model ids.
  if (out->ann->BaseSize() != n_models || out->bm25.BaseSize() != n_models ||
      (built != nullptr && built->rows() != n_models)) {
    return Status::Corruption("index snapshot generations mismatched");
  }
  if (built != nullptr) out->columns = std::move(*built);
  return Status::OK();
}

Status ModelLake::LoadIndexSnapshots() {
  if (!fs_->FileExists(IndexManifestPath())) {
    return Status::NotFound("no index manifest");
  }
  MLAKE_ASSIGN_OR_RETURN(std::string manifest_bytes,
                         fs_->ReadFile(IndexManifestPath()));
  MLAKE_ASSIGN_OR_RETURN(Json manifest, Json::Parse(manifest_bytes));
  const uint64_t gen =
      static_cast<uint64_t>(manifest.GetInt64("generation", 0));
  const std::string ann_name = manifest.GetString("ann");
  const std::string bm25_name = manifest.GetString("bm25");
  const std::string lsh_name = manifest.GetString("lsh");
  const std::string ids_name = manifest.GetString("ids");
  if (gen == 0 || ann_name.empty() || bm25_name.empty() || lsh_name.empty() ||
      ids_name.empty()) {
    return Status::Corruption("index manifest malformed");
  }
  IndexSet set;
  MLAKE_RETURN_NOT_OK(LoadIndexSetFromFiles(
      JoinPath(IndexDir(), ann_name), JoinPath(IndexDir(), bm25_name),
      JoinPath(IndexDir(), lsh_name), JoinPath(IndexDir(), ids_name), &set));

  // The snapshot is a point-in-time cache; the catalog is truth. Models
  // and datasets are immutable per id once written (card edits
  // invalidate the manifest before touching the catalog), so a
  // membership diff fully reconciles the two.
  {
    std::vector<std::string> cat_ids = catalog_->ListIds("model");
    std::set<std::string, std::less<>> cat(cat_ids.begin(), cat_ids.end());
    for (uint32_t row = 0; row < set.columns.rows(); ++row) {
      if (cat.count(set.columns.Id(row)) > 0) continue;
      Status removed = set.ann->Remove(static_cast<int64_t>(row));
      if (!removed.ok() && !removed.IsNotFound()) return removed;
      set.bm25.Remove(std::string(set.columns.Id(row)));
      set.columns.MarkRemoved(row);
    }
    std::vector<std::string> added;
    for (const std::string& id : cat_ids) {
      if (set.columns.Find(id) == search::ModelColumns::kNoRow) {
        added.push_back(id);
      }
    }
    if (!added.empty()) {
      std::vector<std::string> digests(added.size());
      std::vector<metadata::ModelCard> cards(added.size());
      std::vector<std::vector<float>> vecs(added.size());
      MLAKE_RETURN_NOT_OK(ParallelFor(
          options_.exec, 0, added.size(), [&](size_t i) -> Status {
            MLAKE_ASSIGN_OR_RETURN(Json model_doc,
                                   catalog_->GetDoc("model", added[i]));
            digests[i] = model_doc.GetString("artifact_digest");
            MLAKE_ASSIGN_OR_RETURN(Json card_doc,
                                   catalog_->GetDoc("card", added[i]));
            MLAKE_ASSIGN_OR_RETURN(cards[i],
                                   metadata::ModelCard::FromJson(card_doc));
            MLAKE_ASSIGN_OR_RETURN(std::string bytes,
                                   catalog_->GetRaw(kVecKind, added[i]));
            MLAKE_ASSIGN_OR_RETURN(
                vecs[i], EmbeddingFromBytes(bytes, embedder_->Dim()));
            return Status::OK();
          }));
      std::vector<int64_t> internal_ids(added.size());
      for (size_t i = 0; i < added.size(); ++i) {
        set.bm25.Add(added[i], cards[i].SearchText());
        internal_ids[i] = static_cast<int64_t>(set.columns.rows());
        MLAKE_RETURN_NOT_OK(
            set.columns.Append(cards[i], vecs[i], digests[i]));
      }
      MLAKE_RETURN_NOT_OK(set.ann->Build(internal_ids, vecs, options_.exec));
    }
  }
  {
    std::vector<std::string> cat_names = catalog_->ListIds("dataset");
    std::set<std::string> cat(cat_names.begin(), cat_names.end());
    std::set<std::string> snap(set.dataset_names.begin(),
                               set.dataset_names.end());
    for (const std::string& name : set.dataset_names) {
      if (cat.count(name) == 0) set.lsh->Remove(name);
    }
    for (const std::string& name : cat_names) {
      if (snap.count(name) > 0) continue;
      MLAKE_ASSIGN_OR_RETURN(std::vector<std::string> shards,
                             DatasetShardsUnlocked(name));
      MLAKE_RETURN_NOT_OK(set.lsh->Add(name, DatasetSignature(shards)));
    }
  }
  InstallIndexSet(std::move(set));
  index_generation_ = gen;
  return Status::OK();
}

Status ModelLake::GcIndexFilesUnlocked() {
  std::set<std::string> keep = {kIndexManifestName};
  if (fs_->FileExists(IndexManifestPath())) {
    auto bytes = fs_->ReadFile(IndexManifestPath());
    if (bytes.ok()) {
      auto manifest = Json::Parse(bytes.ValueUnsafe());
      if (manifest.ok()) {
        for (const char* key : {"ann", "bm25", "lsh", "ids"}) {
          std::string name = manifest.ValueUnsafe().GetString(key);
          if (!name.empty()) keep.insert(name);
        }
      }
    }
  }
  auto files = fs_->ListDir(IndexDir());
  if (!files.ok()) return Status::OK();  // no index dir yet
  for (const std::string& name : files.ValueUnsafe()) {
    if (keep.count(name) > 0) continue;
    MLAKE_RETURN_NOT_OK(fs_->RemoveFile(JoinPath(IndexDir(), name)));
  }
  return Status::OK();
}

Status ModelLake::InvalidateIndexSnapshotsUnlocked() {
  if (!fs_->FileExists(IndexManifestPath())) return Status::OK();
  MLAKE_RETURN_NOT_OK(fs_->RemoveFile(IndexManifestPath()));
  return fs_->SyncDir(IndexDir());
}

Status ModelLake::CompactIndices() {
  // One pass at a time; the pass itself holds the lake lock only for
  // short critical sections, so reads and ingests proceed while the
  // bulk build and the file writes run.
  std::lock_guard<std::mutex> run(compact_run_mu_);
  const auto t0 = std::chrono::steady_clock::now();

  // Phase 1 (shared lock): rebuild a fresh single-segment set from the
  // catalog. Deterministic given the catalog, so the result is
  // bit-identical to what a cold Open() would build.
  uint64_t epoch;
  IndexSet fresh;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    epoch = mutation_epoch_;
    MLAKE_RETURN_NOT_OK(BuildIndexSetFromCatalog(&fresh));
  }
  MLAKE_RETURN_NOT_OK(fs_->CreateDirs(IndexDir()));

  // Phase 2: journal the intent, then write the four snapshot files
  // (each via WriteFileAtomic) without the lake lock. A crash anywhere
  // in here leaves the intent pending; recovery deletes whatever files
  // the manifest does not name.
  storage::Intent intent;
  intent.op = kCompactOp;
  uint64_t gen;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    gen = index_generation_ + 1;
    MLAKE_ASSIGN_OR_RETURN(intent.seq, journal_->Begin(intent));
  }
  const std::string ann_name = SnapName("ann", gen);
  const std::string bm25_name = SnapName("bm25", gen);
  const std::string lsh_name = SnapName("lsh", gen);
  const std::string ids_name = SnapName("ids", gen);
  Status wrote =
      fresh.ann->SaveSnapshot(fs_, JoinPath(IndexDir(), ann_name), gen);
  if (wrote.ok()) {
    wrote = fresh.bm25.SaveSnapshot(fs_, JoinPath(IndexDir(), bm25_name), gen);
  }
  if (wrote.ok()) {
    wrote = fresh.lsh->SaveSnapshot(fs_, JoinPath(IndexDir(), lsh_name), gen);
  }
  if (wrote.ok()) {
    wrote = WriteIdsSnapshot(fresh, JoinPath(IndexDir(), ids_name), gen);
  }

  // Phase 3 (exclusive lock): publish. If the lake mutated since phase
  // 1 the fresh set is stale — abort the swap, GC the orphaned files,
  // and let the next scheduled pass pick up the newer state.
  Status outcome;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    outcome = wrote;
    if (outcome.ok() && epoch != mutation_epoch_) {
      outcome = Status::Unavailable(
          "lake mutated during compaction; pass aborted");
    }
    if (outcome.ok()) {
      Json manifest = Json::MakeObject();
      manifest.Set("generation", static_cast<int64_t>(gen));
      manifest.Set("ann", ann_name);
      manifest.Set("bm25", bm25_name);
      manifest.Set("lsh", lsh_name);
      manifest.Set("ids", ids_name);
      outcome = WriteFileAtomic(fs_, IndexManifestPath(), manifest.Dump(2));
    }
    if (outcome.ok()) {
      // Serve the base segment from the files just written (mmap) so a
      // long-lived lake sheds the heap copy; if the reload fails for
      // any reason the in-memory fresh set has identical contents. The
      // fresh column store is what the sidecar was written from, so it
      // is adopted rather than decoded back.
      IndexSet loaded;
      Status reloaded = LoadIndexSetFromFiles(
          JoinPath(IndexDir(), ann_name), JoinPath(IndexDir(), bm25_name),
          JoinPath(IndexDir(), lsh_name), JoinPath(IndexDir(), ids_name),
          &loaded, &fresh.columns);
      InstallIndexSet(reloaded.ok() ? std::move(loaded) : std::move(fresh));
      index_generation_ = gen;
    }
    // GC covers both exits: superseded old-generation files after a
    // swap, orphaned new-generation files after an abort or a failed
    // write. Runs before the intent commits so a crash re-runs it.
    Status gc = GcIndexFilesUnlocked();
    if (!gc.ok()) {
      MLAKE_LOG_WARNING << "lake " << options_.root
                        << ": index gc after compaction failed ("
                        << gc.ToString() << ")";
    }
    Status committed = journal_->Commit(intent.seq);
    if (outcome.ok()) outcome = committed;
    // Under mu_: IndexStatsJson reads it under the shared lock.
    last_compact_ms_ =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
  }
  return outcome;
}

void ModelLake::MaybeScheduleCompactionLocked() {
  if (!options_.background_compaction) return;
  const size_t delta = ann_->DeltaSize();
  const size_t growth = static_cast<size_t>(
      static_cast<double>(ann_->BaseSize()) * options_.compact_growth);
  if (delta < std::max(options_.compact_min_delta, growth)) return;
  std::lock_guard<std::mutex> g(compact_mu_);
  if (compact_stop_) return;
  // Lazy thread start: small lakes (tests, tools) never cross the
  // threshold and never pay for — or fork across — a live thread.
  if (!compactor_.joinable()) {
    compactor_ = std::thread([this] { CompactorLoop(); });
  }
  compact_requested_ = true;
  compact_cv_.notify_one();
}

void ModelLake::CompactorLoop() {
  std::unique_lock<std::mutex> lock(compact_mu_);
  while (true) {
    compact_cv_.wait(lock,
                     [this] { return compact_stop_ || compact_requested_; });
    if (compact_stop_) return;
    compact_requested_ = false;
    lock.unlock();
    Status compacted = CompactIndices();
    if (!compacted.ok() && !compacted.IsUnavailable()) {
      MLAKE_LOG_WARNING << "lake " << options_.root
                        << ": background compaction failed ("
                        << compacted.ToString() << ")";
    }
    lock.lock();
  }
}

Json ModelLake::IndexStatsJson() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto seg = [](size_t base, size_t delta, size_t tombstones, size_t live,
                uint64_t generation) {
    Json j = Json::MakeObject();
    j.Set("base", static_cast<int64_t>(base));
    j.Set("delta", static_cast<int64_t>(delta));
    j.Set("tombstones", static_cast<int64_t>(tombstones));
    j.Set("live", static_cast<int64_t>(live));
    j.Set("snapshot_generation", static_cast<int64_t>(generation));
    return j;
  };
  Json out = Json::MakeObject();
  out.Set("generation", static_cast<int64_t>(index_generation_));
  out.Set("last_compaction_ms", last_compact_ms_);
  out.Set("ann", seg(ann_->BaseSize(), ann_->DeltaSize(), ann_->Tombstones(),
                     ann_->Size(), ann_->snapshot_generation()));
  out.Set("bm25",
          seg(bm25_.BaseSize(), bm25_.DeltaSize(), bm25_.Tombstones(),
              bm25_.NumDocs(), bm25_.snapshot_generation()));
  out.Set("lsh",
          seg(dataset_lsh_->BaseSize(), dataset_lsh_->DeltaSize(),
              dataset_lsh_->Tombstones(), dataset_lsh_->Size(),
              dataset_lsh_->snapshot_generation()));
  return out;
}

index::MinHashSignature ModelLake::DatasetSignature(
    const std::vector<std::string>& shards) const {
  return index::ComputeMinHash(shards,
                               options_.minhash_bands * options_.minhash_rows);
}

Status ModelLake::PersistGraph() {
  return catalog_->PutDoc("graph", "main", graph_.ToJson());
}

Result<std::string> ModelLake::IngestModel(const nn::Model& model,
                                           const metadata::ModelCard& card) {
  std::vector<IngestRequest> batch(1);
  batch[0].model = &model;
  batch[0].card = card;
  MLAKE_ASSIGN_OR_RETURN(std::vector<std::string> ids, IngestModels(batch));
  return ids.front();
}

Result<std::vector<std::string>> ModelLake::IngestModels(
    const std::vector<IngestRequest>& batch) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  MLAKE_ASSIGN_OR_RETURN(std::vector<IngestRow> rows, ModelRows(batch));
  return IngestRowsLocked(std::move(rows));
}

Result<std::vector<std::string>> ModelLake::IngestCards(
    const std::vector<CardIngest>& batch) {
  std::vector<IngestRow> rows(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    rows[i].card = &batch[i].card;
    rows[i].embedding = batch[i].embedding;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  return IngestRowsLocked(std::move(rows));
}

Result<std::vector<ModelLake::IngestRow>> ModelLake::ModelRows(
    const std::vector<IngestRequest>& batch) const {
  for (const IngestRequest& request : batch) {
    if (request.model == nullptr) {
      return Status::InvalidArgument("IngestRequest.model is required");
    }
    // Lakes accept imperfect documentation (that is the paper's
    // reality) but reject structurally broken cards.
    for (const std::string& p : metadata::ValidateCard(request.card)) {
      if (p.find("model_id") != std::string::npos) {
        return Status::InvalidArgument("invalid card: " + p);
      }
    }
    if (request.model->spec().input_dim != options_.input_dim ||
        request.model->spec().num_classes != options_.num_classes) {
      return Status::InvalidArgument(
          "model io dims do not match this lake's shared input/output space");
    }
  }

  // Serialize and hash the artifacts, then embed the models — in
  // parallel on options_.exec, each task owning slot i so results land
  // in batch order. Nothing durable changes here.
  std::vector<IngestRow> rows(batch.size());
  MLAKE_RETURN_NOT_OK(
      ParallelFor(options_.exec, 0, batch.size(), [&](size_t i) {
        Json meta = Json::MakeObject();
        meta.Set("model_id", batch[i].card.model_id);
        rows[i].artifact_bytes = storage::SerializeArtifact(
            storage::ArtifactFromModel(*batch[i].model, meta));
        rows[i].digest = Sha256::HexDigest(rows[i].artifact_bytes);
      }));
  std::vector<nn::Model*> models(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    // Embed runs a forward pass (mutates per-model scratch); the batch
    // API takes const models, matching IngestModel's historic contract.
    models[i] = const_cast<nn::Model*>(batch[i].model);
  }
  MLAKE_ASSIGN_OR_RETURN(std::vector<std::vector<float>> embeddings,
                         embedder_->EmbedAll(models, options_.exec));
  for (size_t i = 0; i < batch.size(); ++i) {
    const nn::Model& model = *batch[i].model;
    rows[i].card = &batch[i].card;
    rows[i].embedding = std::move(embeddings[i]);
    rows[i].model_doc = Json::MakeObject();
    rows[i].model_doc.Set("artifact_digest", rows[i].digest);
    rows[i].model_doc.Set("arch", model.spec().ToJson());
    rows[i].model_doc.Set("num_params", model.spec().input_dim == 0
                                            ? Json(0)
                                            : Json(model.NumParams()));
  }
  return rows;
}

Result<std::vector<std::string>> ModelLake::IngestRowsLocked(
    std::vector<IngestRow> rows) {
  // Validate every id before writing anything — a rejected batch leaves
  // the lake untouched.
  std::vector<std::string> ids;
  ids.reserve(rows.size());
  std::unordered_set<std::string_view> seen;  // views of the cards' ids
  seen.reserve(rows.size());
  bool has_artifacts = false;
  for (IngestRow& row : rows) {
    const std::string& id = row.card->model_id;
    if (id.empty()) {
      return Status::InvalidArgument("card.model_id is required");
    }
    if (catalog_->Contains("model", id)) {
      return Status::AlreadyExists("model already in lake: " + id);
    }
    if (!seen.insert(id).second) {
      return Status::AlreadyExists("duplicate model id in ingest batch: " +
                                   id);
    }
    if (static_cast<int64_t>(row.embedding.size()) != embedder_->Dim()) {
      return Status::InvalidArgument(StrFormat(
          "embedding for %s has dim %zu, lake expects %lld", id.c_str(),
          row.embedding.size(), static_cast<long long>(embedder_->Dim())));
    }
    // The op log and the seed manifest carry an embedding as JSON text,
    // which spells -0.0 as "0" and has no NaN or infinity. Storing a
    // zero as +0.0 and refusing a non-finite component keeps the vec
    // bytes a replica re-encodes from that text equal to the leader's.
    for (float& x : row.embedding) {
      if (!std::isfinite(x)) {
        return Status::InvalidArgument("embedding for " + id +
                                       " has a non-finite component");
      }
      if (x == 0.0f) x = 0.0f;
    }
    ids.push_back(id);
    has_artifacts = has_artifacts || !row.digest.empty();
  }
  if (ids.empty()) return ids;

  // Durably journal the intent before touching any durable state. From
  // here the batch is all-or-nothing: a crash leaves the intent behind
  // and the next Open() rolls the batch back.
  storage::Intent intent;
  intent.op = kIngestOp;
  intent.ids = ids;
  for (const IngestRow& row : rows) {
    if (!row.digest.empty()) intent.digests.push_back(row.digest);
  }
  if (options_.replication_log) {
    // Replay payload: the cards. Artifact bytes ship by digest and an
    // embedding is recomputed deterministically from them; metadata-only
    // rows have no artifact, so their embeddings ride inline.
    Json cards = Json::MakeArray();
    Json embeddings = Json::MakeArray();
    for (const IngestRow& row : rows) {
      cards.Append(row.card->ToJson());
      if (!has_artifacts) embeddings.Append(FloatsToJson(row.embedding));
    }
    intent.payload = Json::MakeObject();
    intent.payload.Set("cards", std::move(cards));
    if (!has_artifacts) intent.payload.Set("embeddings", std::move(embeddings));
  }
  MLAKE_ASSIGN_OR_RETURN(intent.seq, BeginIntentLocked(intent));

  const size_t pre_rows = columns_.rows();
  const size_t pre_ann_delta = ann_->DeltaSize();
  Status applied = [&]() -> Status {
    // Blobs first (content-addressed, idempotent), then the batch's
    // model, card and vec records in one catalog append, then index
    // entries, all in batch order.
    for (const IngestRow& row : rows) {
      if (row.digest.empty()) continue;
      MLAKE_ASSIGN_OR_RETURN(std::string digest,
                             blobs_->Put(row.artifact_bytes));
      if (digest != row.digest) {
        return Status::Internal("artifact digest mismatch for " +
                                row.card->model_id);
      }
    }
    storage::Catalog::Batch docs;
    for (size_t i = 0; i < rows.size(); ++i) {
      IngestRow& row = rows[i];
      if (row.digest.empty()) {
        row.model_doc = Json::MakeObject();
        row.model_doc.Set("artifact_digest", std::string());
        row.model_doc.Set("metadata_only", true);
      }
      docs.PutDoc("model", ids[i], row.model_doc);
      docs.PutDoc("card", ids[i], row.card->ToJson());
      docs.PutRaw(kVecKind, ids[i], EmbeddingToBytes(row.embedding));
    }
    MLAKE_RETURN_NOT_OK(catalog_->Write(std::move(docs)));
    std::vector<int64_t> internal_ids(rows.size());
    std::vector<std::vector<float>> embeddings(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      IngestRow& row = rows[i];
      const std::string& id = ids[i];
      bm25_.Add(id, row.card->SearchText());
      internal_ids[i] = static_cast<int64_t>(columns_.rows());
      MLAKE_RETURN_NOT_OK(
          columns_.Append(*row.card, row.embedding, row.digest));
      // Metadata-only models carry no recorded lineage, so the graph
      // JSON stays proportional to the artifact-backed population.
      if (!row.digest.empty()) graph_.AddModel(id);
      embeddings[i] = std::move(row.embedding);
    }
    // One bulk ANN extension (parallel inside, deterministic at any
    // thread count), then persist the graph once for the batch.
    MLAKE_RETURN_NOT_OK(ann_->Build(internal_ids, embeddings, options_.exec));
    return has_artifacts ? PersistGraph() : Status::OK();
  }();
  if (applied.ok()) {
    // Batch durability point, then commit the intent away. A crash
    // between Sync and Commit replays a rollback of a fully-applied
    // batch on the next open — which is correct (the caller never saw
    // the ingest succeed) and consistent.
    applied = catalog_->Sync();
    if (applied.ok()) applied = journal_->Commit(intent.seq);
  }
  if (!applied.ok()) {
    // Best-effort immediate rollback. The indexes support incremental
    // removal, so undoing the batch is O(batch), not O(lake). If the
    // disk rollback itself fails (filesystem still erroring), the
    // intent stays pending and the next Open() finishes the job.
    // Abort, not Commit: a rolled-back batch must never enter the
    // replayable log a replica would ship.
    Status rolled_back = RollbackIntent(intent);
    if (rolled_back.ok()) rolled_back = journal_->Abort(intent.seq);
    if (!rolled_back.ok()) {
      MLAKE_LOG_WARNING << "lake " << options_.root
                        << ": ingest rollback incomplete ("
                        << rolled_back.ToString()
                        << "); will be replayed on next open";
    }
    RollbackBatchIndexesLocked(ids, pre_rows, pre_ann_delta);
  }
  ++mutation_epoch_;
  if (!applied.ok()) return applied;
  MaybeScheduleCompactionLocked();
  return ids;
}

Status ModelLake::LogAppliedLocked(const char* op, Json payload) {
  // Apply-then-log: make the mutation durable first — on every lake, so
  // an acknowledged edit survives a power loss — then, on a
  // replication-log lake, append and commit the log entry so replicas
  // replay it. A crash between Sync and Commit leaves a pending intent
  // whose mutation already applied; Recover completes the Commit (never
  // rolls it back). A crash before Begin loses only the log entry — the
  // periodic fingerprint exchange catches the divergence and a re-seed
  // repairs it.
  MLAKE_RETURN_NOT_OK(catalog_->Sync());
  if (!options_.replication_log) return Status::OK();
  storage::Intent intent;
  intent.op = op;
  intent.payload = std::move(payload);
  MLAKE_ASSIGN_OR_RETURN(intent.seq, BeginIntentLocked(intent));
  return journal_->Commit(intent.seq);
}

void ModelLake::RollbackBatchIndexesLocked(const std::vector<std::string>& ids,
                                           size_t pre_rows,
                                           size_t pre_ann_delta) {
  for (const std::string& id : ids) bm25_.Remove(id);
  // The batch's vectors were appended to the ANN delta tail; peel them
  // off. A partially applied batch may have appended fewer than
  // ids.size() rows, so measure rather than assume.
  const size_t appended = ann_->DeltaSize() - pre_ann_delta;
  if (appended > 0) {
    Status truncated = ann_->TruncateTail(appended);
    if (!truncated.ok()) {
      MLAKE_LOG_WARNING << "lake " << options_.root
                        << ": ANN tail truncate after aborted ingest failed ("
                        << truncated.ToString() << "); rebuilding";
      Status rebuilt = RebuildIndices();
      if (!rebuilt.ok()) {
        MLAKE_LOG_WARNING << "lake " << options_.root
                          << ": index rebuild after aborted ingest failed ("
                          << rebuilt.ToString() << "); reopen the lake";
      }
      return;  // the rebuild installed fresh columns
    }
  }
  columns_.Truncate(pre_rows);
}

int64_t ModelLake::EmbeddingDim() const { return embedder_->Dim(); }

Result<std::unique_ptr<nn::Model>> ModelLake::LoadModel(
    const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return LoadModelUnlocked(id);
}

Result<std::shared_ptr<const storage::ModelArtifact>> ModelLake::LoadArtifact(
    const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (degraded_.count(id) > 0) {
    return Status::FailedPrecondition(
        "model is degraded (artifact quarantined): " + id);
  }
  MLAKE_ASSIGN_OR_RETURN(std::string digest, DigestForUnlocked(id));
  return LoadArtifactUnlocked(digest);
}

Result<std::string> ModelLake::DigestForUnlocked(const std::string& id) const {
  MLAKE_ASSIGN_OR_RETURN(std::string digest, ArtifactDigestUnlocked(id));
  if (digest.empty()) {
    // Metadata-only models (IngestCards) are cataloged and searchable
    // but have no checkpoint behind them.
    return Status::FailedPrecondition(
        "model has no stored artifact (metadata-only): " + id);
  }
  return digest;
}

Result<std::shared_ptr<const storage::ModelArtifact>>
ModelLake::LoadArtifactUnlocked(const std::string& digest) const {
  if (digest.empty()) return Status::Corruption("model doc missing digest");
  if (auto cached = artifact_cache_->Get(digest)) return cached;
  // Miss path: borrow the blob bytes (mmap view, digest verified per
  // policy) and decode in place — no whole-file copy.
  MLAKE_ASSIGN_OR_RETURN(storage::BlobView view, blobs_->GetView(digest));
  MLAKE_ASSIGN_OR_RETURN(storage::ModelArtifact artifact,
                         storage::ParseArtifact(view.bytes()));
  auto shared =
      std::make_shared<const storage::ModelArtifact>(std::move(artifact));
  artifact_cache_->Put(digest, shared, storage::ArtifactMemoryBytes(*shared));
  return shared;
}

Result<std::unique_ptr<nn::Model>> ModelLake::LoadModelUnlocked(
    const std::string& id) const {
  if (degraded_.count(id) > 0) {
    return Status::FailedPrecondition(
        "model is degraded (artifact quarantined): " + id);
  }
  MLAKE_ASSIGN_OR_RETURN(std::string digest, DigestForUnlocked(id));
  MLAKE_ASSIGN_OR_RETURN(std::shared_ptr<const storage::ModelArtifact> artifact,
                         LoadArtifactUnlocked(digest));
  return storage::ModelFromArtifact(*artifact);
}

Status ModelLake::UpdateCard(const metadata::ModelCard& card) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return UpdateCardLocked(card);
}

Status ModelLake::UpdateCardLocked(const metadata::ModelCard& card) {
  if (!catalog_->Contains("model", card.model_id)) {
    return Status::NotFound("model not in lake: " + card.model_id);
  }
  // A card edit changes index content without changing membership, so
  // it is invisible to the snapshot-vs-catalog diff on the next open.
  // Durably drop the manifest first: crash after this point and the
  // next open rebuilds from the catalog (which has the new card).
  MLAKE_RETURN_NOT_OK(InvalidateIndexSnapshotsUnlocked());
  Json doc = card.ToJson();
  MLAKE_RETURN_NOT_OK(catalog_->PutDoc("card", card.model_id, doc));
  bm25_.Add(card.model_id, card.SearchText());  // replaces
  if (const uint32_t row = columns_.Find(card.model_id);
      row != search::ModelColumns::kNoRow) {
    columns_.Update(row, card);
  }
  ++mutation_epoch_;
  Json payload = Json::MakeObject();
  payload.Set("card", std::move(doc));
  return LogAppliedLocked(kUpdateCardOp, std::move(payload));
}

std::vector<std::string> ModelLake::ListModelsUnlocked() const {
  return catalog_->ListIds("model");
}

std::vector<std::string> ModelLake::SearchableModelIdsUnlocked() const {
  std::vector<std::string> ids = ListModelsUnlocked();
  if (degraded_.empty()) return ids;
  ids.erase(std::remove_if(ids.begin(), ids.end(),
                           [this](const std::string& id) {
                             return degraded_.count(id) > 0;
                           }),
            ids.end());
  return ids;
}

std::vector<std::string> ModelLake::ListModels() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return ListModelsUnlocked();
}

size_t ModelLake::NumModels() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return ListModelsUnlocked().size();
}

Result<std::vector<std::string>> ModelLake::FsckArtifacts() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  // Quarantined models are known-bad and no longer served; fsck checks
  // the serving set.
  std::vector<std::string> ids = SearchableModelIdsUnlocked();
  std::vector<uint8_t> bad(ids.size(), 0);
  MLAKE_RETURN_NOT_OK(
      ParallelFor(options_.exec, 0, ids.size(), [&](size_t i) -> Status {
        auto digest = DigestForUnlocked(ids[i]);
        if (!digest.ok()) {
          // Metadata-only models have no artifact to verify.
          if (!digest.status().IsFailedPrecondition()) bad[i] = 1;
          return Status::OK();
        }
        // Forced digest re-hash over an mmap view plus a decode-free
        // CRC walk: fsck never materializes a checkpoint on the heap.
        auto view = blobs_->GetView(digest.ValueUnsafe(),
                                    storage::VerifyMode::kAlways);
        if (!view.ok() ||
            !storage::VerifyArtifact(view.ValueUnsafe().bytes()).ok()) {
          bad[i] = 1;
        }
        return Status::OK();
      }));
  std::vector<std::string> corrupted;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (bad[i]) corrupted.push_back(ids[i]);
  }
  return corrupted;
}

Status ModelLake::QuarantineModelLocked(const std::string& id,
                                        const std::string& reason) {
  MLAKE_ASSIGN_OR_RETURN(std::string digest, DigestForUnlocked(id));
  Status moved = blobs_->Quarantine(digest);
  // NotFound = the blob is already gone (deleted or quarantined by an
  // earlier pass); the models still need their degraded mark.
  if (!moved.ok() && !moved.IsNotFound()) return moved;
  // Content addressing deduplicates identical checkpoints, so one bad
  // blob can back several ids — degrade all of them, in id order.
  std::vector<std::pair<std::string, uint32_t>> sharing;  // (id, row)
  for (uint32_t row = 0; row < columns_.rows(); ++row) {
    if (columns_.Present(row) && columns_.Digest(row) == digest) {
      sharing.emplace_back(columns_.Id(row), row);
    }
  }
  std::sort(sharing.begin(), sharing.end());
  for (const auto& [other_id, row] : sharing) {
    Json doc = Json::MakeObject();
    doc.Set("digest", digest);
    doc.Set("reason", reason);
    MLAKE_RETURN_NOT_OK(catalog_->PutDoc("degraded", other_id, doc));
    degraded_.insert(other_id);
    columns_.MarkDegraded(row);
  }
  return catalog_->Sync();
}

Status ModelLake::QuarantineModel(const std::string& id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!catalog_->Contains("model", id)) {
    return Status::NotFound("model not in lake: " + id);
  }
  return QuarantineModelLocked(id, "manual quarantine");
}

std::vector<std::string> ModelLake::DegradedModels() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return {degraded_.begin(), degraded_.end()};
}

bool ModelLake::IsDegraded(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return degraded_.count(id) > 0;
}

Json RecoveryReport::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("rolled_back_intents", rolled_back_intents);
  Json ids = Json::MakeArray();
  for (const std::string& id : rolled_back_ids) ids.Append(Json(id));
  j.Set("rolled_back_ids", std::move(ids));
  j.Set("orphan_blobs_removed", orphan_blobs_removed);
  j.Set("tmp_files_removed", tmp_files_removed);
  return j;
}

Json FsckReport::ToJson() const {
  Json j = Json::MakeObject();
  Json bad = Json::MakeArray();
  for (const std::string& id : corrupted) bad.Append(Json(id));
  j.Set("corrupted_models", std::move(bad));
  Json q = Json::MakeArray();
  for (const std::string& d : quarantined) q.Append(Json(d));
  j.Set("quarantined_blobs", std::move(q));
  j.Set("orphan_blobs_removed", orphan_blobs_removed);
  j.Set("tmp_files_removed", tmp_files_removed);
  return j;
}

Result<FsckReport> ModelLake::FsckRepair() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  FsckReport report;

  // 1. Verify the serving set (parallel digest re-hash + CRC walk, the
  // same check as FsckArtifacts).
  std::vector<std::string> ids = SearchableModelIdsUnlocked();
  std::vector<uint8_t> bad(ids.size(), 0);
  MLAKE_RETURN_NOT_OK(
      ParallelFor(options_.exec, 0, ids.size(), [&](size_t i) -> Status {
        auto digest = DigestForUnlocked(ids[i]);
        if (!digest.ok()) {
          // Metadata-only models have no artifact to verify.
          if (!digest.status().IsFailedPrecondition()) bad[i] = 1;
          return Status::OK();
        }
        auto view = blobs_->GetView(digest.ValueUnsafe(),
                                    storage::VerifyMode::kAlways);
        if (!view.ok() ||
            !storage::VerifyArtifact(view.ValueUnsafe().bytes()).ok()) {
          bad[i] = 1;
        }
        return Status::OK();
      }));

  // 2. Quarantine the corrupt ones (sequential: catalog writes).
  std::set<std::string> quarantined_digests;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!bad[i]) continue;
    report.corrupted.push_back(ids[i]);
    auto digest = DigestForUnlocked(ids[i]);
    MLAKE_RETURN_NOT_OK(
        QuarantineModelLocked(ids[i], "fsck: artifact verification failed"));
    if (digest.ok()) quarantined_digests.insert(digest.MoveValueUnsafe());
  }
  report.quarantined.assign(quarantined_digests.begin(),
                            quarantined_digests.end());

  // 3. Housekeeping: stray temp files + orphan blobs.
  MLAKE_RETURN_NOT_OK(
      RemoveStrayTmpFiles(fs_, options_.root, &report.tmp_files_removed));
  MLAKE_RETURN_NOT_OK(journal_->RemoveStrayTmp(&report.tmp_files_removed));
  MLAKE_RETURN_NOT_OK(blobs_->RemoveStrayTmp(&report.tmp_files_removed));
  MLAKE_ASSIGN_OR_RETURN(report.orphan_blobs_removed, GcOrphanBlobsUnlocked());
  return report;
}

// -------------------------------------------------------------- datasets

Status ModelLake::RegisterDataset(const std::string& name,
                                  const std::vector<std::string>& shards) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return RegisterDatasetLocked(name, shards);
}

Status ModelLake::RegisterDatasetLocked(
    const std::string& name, const std::vector<std::string>& shards) {
  if (name.empty() || shards.empty()) {
    return Status::InvalidArgument("dataset needs a name and shards");
  }
  if (catalog_->Contains("dataset", name)) {
    return Status::AlreadyExists("dataset already registered: " + name);
  }
  Json doc = Json::MakeObject();
  doc.Set("shards", ShardsToJson(shards));
  MLAKE_RETURN_NOT_OK(catalog_->PutDoc("dataset", name, doc));
  ++mutation_epoch_;
  MLAKE_RETURN_NOT_OK(dataset_lsh_->Add(name, DatasetSignature(shards)));
  Json payload = Json::MakeObject();
  payload.Set("name", name);
  payload.Set("shards", ShardsToJson(shards));
  return LogAppliedLocked(kRegisterDatasetOp, std::move(payload));
}

Result<std::vector<std::string>> ModelLake::DatasetShardsUnlocked(
    const std::string& name) const {
  MLAKE_ASSIGN_OR_RETURN(Json doc, catalog_->GetDoc("dataset", name));
  return ShardsFromJson(doc);
}

Result<std::vector<std::string>> ModelLake::DatasetShards(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return DatasetShardsUnlocked(name);
}

std::vector<std::string> ModelLake::ListDatasets() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return catalog_->ListIds("dataset");
}

// --------------------------------------------------------------- lineage

Status ModelLake::RecordEdge(const versioning::VersionEdge& edge) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return RecordEdgeLocked(edge);
}

Status ModelLake::RecordEdgeLocked(const versioning::VersionEdge& edge) {
  MLAKE_RETURN_NOT_OK(graph_.AddEdge(edge));
  MLAKE_RETURN_NOT_OK(PersistGraph());
  // Edges are governance-export content, so recording one must move the
  // (mutation_epoch, index_generation) change key or /v1/export pollers
  // would keep getting 304 against a stale ETag. The other consumers of
  // the epoch only get more conservative: a mid-pass compaction aborts
  // its swap and retries, and the stats/plan caches rebuild lazily.
  ++mutation_epoch_;
  return LogAppliedLocked(kRecordEdgeOp, versioning::EdgeToJson(edge));
}

// ----------------------------------------------------------- replication

Result<uint64_t> ModelLake::BeginIntentLocked(const storage::Intent& intent) {
  if (forced_seq_ == 0) return journal_->Begin(intent);
  storage::Intent stamped = intent;
  stamped.epoch = forced_epoch_;
  return journal_->BeginAt(forced_seq_, stamped);
}

Result<Json> ModelLake::ReplicationLogJson(uint64_t from_seq,
                                           size_t max) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!options_.replication_log) {
    return Status::FailedPrecondition("replication log disabled on this lake");
  }
  if (journal_->truncated_upto() != 0 &&
      from_seq <= journal_->truncated_upto()) {
    return Status::FailedPrecondition(StrFormat(
        "log truncated through seq %llu; re-seed from a snapshot",
        static_cast<unsigned long long>(journal_->truncated_upto())));
  }
  MLAKE_ASSIGN_OR_RETURN(std::vector<storage::Intent> entries,
                         journal_->Committed(from_seq, max));
  // Exhaustion is judged before filtering local-only ops: when this scan
  // drained the log, the replica may fast-forward its watermark to
  // last_seq even though some seqs below it were never shipped.
  const bool exhausted = entries.size() < max;
  Json arr = Json::MakeArray();
  for (const storage::Intent& entry : entries) {
    if (entry.op == kCompactOp) continue;  // local housekeeping, not state
    arr.Append(entry.ToJson());
  }
  Json out = Json::MakeObject();
  out.Set("epoch", Json(journal_->epoch()));
  out.Set("last_seq", Json(journal_->last_committed_seq()));
  out.Set("exhausted", Json(exhausted));
  out.Set("entries", std::move(arr));
  return out;
}

Result<std::string> ModelLake::ReadBlob(const std::string& digest) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return blobs_->Get(digest);
}

std::string ModelLake::ReplicationFingerprintUnlocked() const {
  std::string acc;
  auto mix = [&acc](const std::string& piece) {
    acc = Sha256::HexDigest(acc + piece);
  };
  // Stored bytes, unparsed: a JSON doc's are its compact Dump, a vec
  // record's its float bits.
  for (const char* kind : {"model", "card", kVecKind, "dataset"}) {
    for (const std::string& id : catalog_->ListIds(kind)) {  // sorted
      Result<std::string> raw = catalog_->GetRaw(kind, id);
      mix(std::string(kind) + "|" + id + "|" +
          (raw.ok() ? raw.ValueUnsafe() : std::string("<unreadable>")));
    }
  }
  std::vector<std::string> edges;
  edges.reserve(graph_.NumEdges());
  for (const versioning::VersionEdge& e : graph_.Edges()) {
    edges.push_back("edge|" + versioning::EdgeKey(e));
  }
  std::sort(edges.begin(), edges.end());
  for (const std::string& e : edges) mix(e);
  return acc;
}

std::string ModelLake::ReplicationFingerprint() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return ReplicationFingerprintUnlocked();
}

Result<Json> ModelLake::ReplicationSeedJson() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!options_.replication_log) {
    return Status::FailedPrecondition("replication log disabled on this lake");
  }
  // Docs ship verbatim: the replica re-puts these exact bytes, so a
  // re-seeded catalog fingerprints identically to the leader's by
  // construction. The vec record ships as an "embedding" float array,
  // re-encoded to the same bytes (see VecRecordFromJson).
  Json models = Json::MakeArray();
  for (const std::string& id : catalog_->ListIds("model")) {  // sorted
    Json entry = Json::MakeObject();
    entry.Set("id", id);
    for (const char* kind : {"model", "card"}) {
      if (Result<Json> doc = catalog_->GetDoc(kind, id); doc.ok()) {
        entry.Set(kind, doc.MoveValueUnsafe());
      }
    }
    if (Result<std::string> bytes = catalog_->GetRaw(kVecKind, id);
        bytes.ok()) {
      MLAKE_ASSIGN_OR_RETURN(
          std::vector<float> vec,
          EmbeddingFromBytes(bytes.ValueUnsafe(), embedder_->Dim()));
      entry.Set("embedding", FloatsToJson(vec));
    }
    models.Append(std::move(entry));
  }
  Json datasets = Json::MakeArray();
  for (const std::string& name : catalog_->ListIds("dataset")) {
    Json entry = Json::MakeObject();
    entry.Set("name", name);
    if (Result<Json> doc = catalog_->GetDoc("dataset", name); doc.ok()) {
      entry.Set("doc", doc.MoveValueUnsafe());
    }
    datasets.Append(std::move(entry));
  }
  Json edges = Json::MakeArray();
  for (const versioning::VersionEdge& e : graph_.Edges()) {
    edges.Append(versioning::EdgeToJson(e));
  }
  Json out = Json::MakeObject();
  out.Set("epoch", Json(journal_->epoch()));
  out.Set("upto_seq", Json(journal_->last_committed_seq()));
  out.Set("models", std::move(models));
  out.Set("edges", std::move(edges));
  out.Set("datasets", std::move(datasets));
  return out;
}

Status ModelLake::ApplyReplicated(
    const storage::Intent& entry,
    const std::map<std::string, std::string>& blob_bytes) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!options_.replication_log) {
    return Status::FailedPrecondition("replication log disabled on this lake");
  }
  if (entry.seq == 0) {
    return Status::InvalidArgument("replicated entry needs a seq");
  }
  forced_seq_ = entry.seq;
  forced_epoch_ = entry.epoch;
  Status applied = [&]() -> Status {
    if (entry.op == kIngestOp) {
      const Json* cards = entry.payload.Find("cards");
      if (cards == nullptr || !cards->is_array() ||
          cards->AsArray().size() != entry.ids.size()) {
        return Status::Corruption("replicated ingest: bad cards payload");
      }
      std::vector<metadata::ModelCard> decoded(entry.ids.size());
      for (size_t i = 0; i < decoded.size(); ++i) {
        MLAKE_ASSIGN_OR_RETURN(decoded[i], metadata::ModelCard::FromJson(
                                               cards->AsArray()[i]));
        if (decoded[i].model_id != entry.ids[i]) {
          return Status::Corruption(
              "replicated ingest: card/id mismatch for " + entry.ids[i]);
        }
      }
      std::vector<IngestRow> rows;
      if (!entry.digests.empty()) {
        if (entry.digests.size() != entry.ids.size()) {
          return Status::Corruption("replicated ingest: ids/digests mismatch");
        }
        // Decode every artifact and verify its bytes against the shipped
        // digest before anything durable changes.
        std::vector<std::unique_ptr<nn::Model>> models;
        std::vector<IngestRequest> batch(entry.ids.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          auto it = blob_bytes.find(entry.digests[i]);
          if (it == blob_bytes.end()) {
            return Status::InvalidArgument("missing blob bytes for digest " +
                                           entry.digests[i]);
          }
          if (Sha256::HexDigest(it->second) != entry.digests[i]) {
            return Status::Corruption("blob bytes do not match digest " +
                                      entry.digests[i]);
          }
          MLAKE_ASSIGN_OR_RETURN(storage::ModelArtifact artifact,
                                 storage::ParseArtifact(it->second));
          MLAKE_ASSIGN_OR_RETURN(std::unique_ptr<nn::Model> model,
                                 storage::ModelFromArtifact(artifact));
          batch[i].model = model.get();
          models.push_back(std::move(model));
          batch[i].card = std::move(decoded[i]);
        }
        MLAKE_ASSIGN_OR_RETURN(rows, ModelRows(batch));
        // Determinism check: re-serializing the decoded artifacts must
        // land on the leader's digests, or this replica would diverge.
        for (size_t i = 0; i < rows.size(); ++i) {
          if (rows[i].digest != entry.digests[i]) {
            return Status::Corruption(
                "replicated ingest: digest diverged for " + entry.ids[i]);
          }
        }
        return IngestRowsLocked(std::move(rows)).status();
      }
      // Metadata-only batch: the embeddings ride in the payload.
      const Json* embeddings = entry.payload.Find("embeddings");
      if (embeddings == nullptr || !embeddings->is_array() ||
          embeddings->AsArray().size() != decoded.size()) {
        return Status::Corruption("replicated card ingest: bad payload");
      }
      rows.resize(decoded.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        rows[i].card = &decoded[i];
        MLAKE_ASSIGN_OR_RETURN(rows[i].embedding,
                               FloatsFromJson(embeddings->AsArray()[i]));
      }
      return IngestRowsLocked(std::move(rows)).status();
    }
    if (entry.op == kRecordEdgeOp) {
      MLAKE_ASSIGN_OR_RETURN(versioning::VersionEdge edge,
                             versioning::EdgeFromJson(entry.payload));
      return RecordEdgeLocked(edge);
    }
    if (entry.op == kRegisterDatasetOp) {
      return RegisterDatasetLocked(entry.payload.GetString("name"),
                                   ShardsFromJson(entry.payload));
    }
    if (entry.op == kUpdateCardOp) {
      const Json* card_json = entry.payload.Find("card");
      if (card_json == nullptr) {
        return Status::Corruption("replicated update_card: no card");
      }
      MLAKE_ASSIGN_OR_RETURN(metadata::ModelCard card,
                             metadata::ModelCard::FromJson(*card_json));
      if (!catalog_->Contains("model", card.model_id)) {
        return Status::Corruption(
            "replicated update_card: model not in lake: " + card.model_id);
      }
      return UpdateCardLocked(card);
    }
    return Status::InvalidArgument("unknown replicated op: " + entry.op);
  }();
  forced_seq_ = 0;
  forced_epoch_ = 0;
  return applied;
}

Status ModelLake::ReseedFromManifest(
    const Json& manifest,
    const std::function<Result<std::string>(const std::string&)>& fetch_blob) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!options_.replication_log) {
    return Status::FailedPrecondition("replication log disabled on this lake");
  }
  const Json* models = manifest.Find("models");
  if (models == nullptr || !models->is_array()) {
    return Status::Corruption("seed manifest: missing models array");
  }
  std::map<std::string, const Json*> seed;  // id -> manifest entry
  for (const Json& entry : models->AsArray()) {
    std::string id = entry.GetString("id");
    if (id.empty()) {
      return Status::Corruption("seed manifest: model without id");
    }
    seed[id] = &entry;
  }

  // 1. Blobs: fetch (and verify) every artifact the seed references that
  // this lake does not already hold. Content addressing makes re-running
  // this after a crash idempotent; orphaned local blobs are left for GC.
  for (const auto& [id, entry] : seed) {
    const Json* model_doc = entry->Find("model");
    std::string digest =
        model_doc == nullptr ? "" : model_doc->GetString("artifact_digest");
    if (digest.empty() || blobs_->Contains(digest)) continue;
    MLAKE_ASSIGN_OR_RETURN(std::string bytes, fetch_blob(digest));
    if (Sha256::HexDigest(bytes) != digest) {
      return Status::Corruption("re-seed blob does not match digest " +
                                digest);
    }
    MLAKE_ASSIGN_OR_RETURN(std::string stored, blobs_->Put(bytes));
    (void)stored;
  }

  // 2. Catalog: force every model/card/vec/dataset record to the
  // seed's exact bytes — extra ids are deleted, divergent records
  // overwritten, datasets replaced wholesale — in one append.
  std::map<std::string, std::map<std::string, std::string>> want;
  for (const auto& [id, entry] : seed) {
    for (const char* kind : {"model", "card"}) {
      if (const Json* doc = entry->Find(kind)) want[kind][id] = doc->Dump();
    }
    if (const Json* floats = entry->Find("embedding")) {
      MLAKE_ASSIGN_OR_RETURN(want[kVecKind][id],
                             VecRecordFromJson(id, *floats, embedder_->Dim()));
    }
  }
  if (const Json* datasets = manifest.Find("datasets");
      datasets != nullptr && datasets->is_array()) {
    for (const Json& d : datasets->AsArray()) {
      std::string name = d.GetString("name");
      const Json* doc = d.Find("doc");
      if (name.empty() || doc == nullptr) {
        return Status::Corruption("seed manifest: bad dataset entry");
      }
      want["dataset"][name] = doc->Dump();
    }
  }
  storage::Catalog::Batch repair;
  for (const char* kind : {"model", "card", kVecKind, "dataset"}) {
    std::map<std::string, std::string>& records = want[kind];
    for (const std::string& id : catalog_->ListIds(kind)) {
      if (records.count(id) == 0) repair.DeleteDoc(kind, id);
    }
    for (auto& [id, bytes] : records) {
      Result<std::string> existing = catalog_->GetRaw(kind, id);
      if (!existing.ok() || existing.ValueUnsafe() != bytes) {
        repair.PutRaw(kind, id, std::move(bytes));
      }
    }
  }
  MLAKE_RETURN_NOT_OK(catalog_->Write(std::move(repair)));

  // 3. Lineage, wholesale: nodes for artifact-backed models, then the
  // seed's edges (AddEdge auto-registers any endpoint it is missing).
  versioning::ModelGraph fresh;
  for (const auto& [id, entry] : seed) {
    const Json* model_doc = entry->Find("model");
    if (model_doc != nullptr &&
        !model_doc->GetString("artifact_digest").empty()) {
      fresh.AddModel(id);
    }
  }
  if (const Json* edges = manifest.Find("edges");
      edges != nullptr && edges->is_array()) {
    for (const Json& ej : edges->AsArray()) {
      MLAKE_ASSIGN_OR_RETURN(versioning::VersionEdge edge,
                             versioning::EdgeFromJson(ej));
      MLAKE_RETURN_NOT_OK(fresh.AddEdge(std::move(edge)));
    }
  }
  graph_ = std::move(fresh);
  MLAKE_RETURN_NOT_OK(PersistGraph());
  MLAKE_RETURN_NOT_OK(catalog_->Sync());

  // 4. Every seeded artifact was digest-verified above, so quarantine
  // state is reset.
  degraded_.clear();

  // 5. The local log below upto_seq no longer describes what is applied;
  // truncate it and adopt the leader's epoch so a later promote resumes
  // from a clean floor.
  const uint64_t upto =
      static_cast<uint64_t>(manifest.GetInt64("upto_seq", 0));
  if (upto > 0) MLAKE_RETURN_NOT_OK(journal_->Truncate(upto));
  const uint64_t seed_epoch =
      static_cast<uint64_t>(manifest.GetInt64("epoch", 0));
  if (seed_epoch > journal_->epoch()) {
    MLAKE_RETURN_NOT_OK(journal_->SetEpoch(seed_epoch));
  }

  // 6. Rebuild every index from the repaired catalog.
  MLAKE_RETURN_NOT_OK(InvalidateIndexSnapshotsUnlocked());
  MLAKE_RETURN_NOT_OK(RebuildIndices());
  ++mutation_epoch_;
  return Status::OK();
}

uint64_t ModelLake::ReplicationEpoch() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return journal_->epoch();
}

uint64_t ModelLake::ReplicationLastSeq() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return journal_->last_committed_seq();
}

Status ModelLake::SetReplicationEpoch(uint64_t epoch) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return journal_->SetEpoch(epoch);
}

Result<uint64_t> ModelLake::BumpReplicationEpoch() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  uint64_t next = journal_->epoch() + 1;
  MLAKE_RETURN_NOT_OK(journal_->SetEpoch(next));
  return next;
}

Status ModelLake::TruncateReplicationLog(uint64_t upto_seq) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return journal_->Truncate(upto_seq);
}

Result<std::string> ModelLake::ArtifactDigest(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return ArtifactDigestUnlocked(id);
}

Result<std::string> ModelLake::ArtifactDigestUnlocked(
    const std::string& id) const {
  // The column rows carry every cataloged model's digest, so the load
  // path skips a model-doc parse; the catalog answers for the rest.
  if (const uint32_t row = columns_.Find(id);
      row != search::ModelColumns::kNoRow && columns_.Present(row)) {
    return std::string(columns_.Digest(row));
  }
  MLAKE_ASSIGN_OR_RETURN(Json model_doc, catalog_->GetDoc("model", id));
  return model_doc.GetString("artifact_digest");
}

Result<bool> ModelLake::HasApplied(const storage::Intent& entry) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (entry.op == kIngestOp) {
    if (entry.ids.empty()) return false;
    for (size_t i = 0; i < entry.ids.size(); ++i) {
      auto digest = ArtifactDigestUnlocked(entry.ids[i]);
      if (!digest.ok()) {
        if (digest.status().IsNotFound()) return false;
        return digest.status();
      }
      std::string want =
          i < entry.digests.size() ? entry.digests[i] : std::string();
      if (digest.ValueUnsafe() != want) {
        return Status::Corruption(
            "replica diverged on " + entry.ids[i] + ": local digest \"" +
            digest.ValueUnsafe() + "\" vs log \"" + want + "\"");
      }
    }
    return true;
  }
  if (entry.op == kRecordEdgeOp) {
    return graph_.HasEdge(entry.payload.GetString("parent"),
                          entry.payload.GetString("child"));
  }
  if (entry.op == kRegisterDatasetOp) {
    return DatasetShardsUnlocked(entry.payload.GetString("name")).ok();
  }
  if (entry.op == kUpdateCardOp) {
    const Json* card = entry.payload.Find("card");
    if (card == nullptr) return false;
    Result<Json> doc = catalog_->GetDoc("card", card->GetString("model_id"));
    return doc.ok() && doc.ValueUnsafe() == *card;
  }
  return false;
}

bool ModelLake::HasEdge(const std::string& parent,
                        const std::string& child) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return graph_.HasEdge(parent, child);
}

Result<Json> ModelLake::Lineage(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!catalog_->Contains("model", id)) {
    return Status::NotFound("model not in lake: " + id);
  }
  auto string_array = [](const std::vector<std::string>& ids) {
    Json a = Json::MakeArray();
    for (const std::string& s : ids) a.Append(Json(s));
    return a;
  };
  Json out = Json::MakeObject();
  out.Set("id", id);
  out.Set("parents", string_array(graph_.Parents(id)));
  out.Set("children", string_array(graph_.Children(id)));
  out.Set("ancestors", string_array(graph_.Ancestors(id)));
  out.Set("descendants", string_array(graph_.Descendants(id)));
  Json edges = Json::MakeArray();
  for (const versioning::VersionEdge& e : graph_.Edges()) {
    if (e.parent != id && e.child != id) continue;
    Json ej = Json::MakeObject();
    ej.Set("parent", e.parent);
    ej.Set("child", e.child);
    ej.Set("type", std::string(versioning::EdgeTypeToString(e.type)));
    ej.Set("confidence", e.confidence);
    edges.Append(std::move(ej));
  }
  out.Set("edges", std::move(edges));
  out.Set("graph_revision", graph_.revision());
  return out;
}

Result<versioning::HeritageResult> ModelLake::RecoverHeritage(
    const versioning::HeritageConfig& config) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  // Degraded models have no readable weights; heritage runs over the
  // healthy remainder rather than failing the whole analysis.
  std::vector<std::string> ids = SearchableModelIdsUnlocked();
  if (!degraded_.empty()) {
    MLAKE_LOG_WARNING << "heritage recovery skipping " << degraded_.size()
                      << " degraded model(s)";
  }
  // Metadata-only models (IngestCards) have no weights to compare;
  // heritage runs over the artifact-backed population.
  ids.erase(std::remove_if(ids.begin(), ids.end(),
                           [this](const std::string& id) {
                             return !DigestForUnlocked(id).ok();
                           }),
            ids.end());
  std::vector<versioning::WeightSummary> summaries(ids.size());
  // Artifact load + flatten per model is pure and slot-owned: safe and
  // deterministic to parallelize. Works on the decoded artifact (via
  // the artifact cache) instead of rebuilding a live model: the
  // artifact stores weights in NamedParams order, so concatenating its
  // tensors is exactly Model::FlattenParams without the weight-init +
  // LoadStateDict round trip.
  MLAKE_RETURN_NOT_OK(
      ParallelFor(options_.exec, 0, ids.size(), [&](size_t i) -> Status {
        MLAKE_ASSIGN_OR_RETURN(std::string digest,
                               DigestForUnlocked(ids[i]));
        MLAKE_ASSIGN_OR_RETURN(
            std::shared_ptr<const storage::ModelArtifact> artifact,
            LoadArtifactUnlocked(digest));
        summaries[i].id = ids[i];
        summaries[i].arch_signature = artifact->spec.Signature();
        int64_t total = 0;
        for (const auto& [name, tensor] : artifact->weights) {
          total += tensor.NumElements();
        }
        Tensor flat({total});
        int64_t offset = 0;
        for (const auto& [name, tensor] : artifact->weights) {
          std::copy(tensor.data(), tensor.data() + tensor.NumElements(),
                    flat.data() + offset);
          offset += tensor.NumElements();
        }
        summaries[i].flat_weights = std::move(flat);
        return Status::OK();
      }));
  versioning::HeritageConfig effective = config;
  if (effective.exec.pool == nullptr) effective.exec = options_.exec;
  return versioning::RecoverHeritage(summaries, effective);
}

// ------------------------------------------------------------ search view

class ModelLake::SearchView : public search::SearchContext {
 public:
  SearchView(const ModelLake& lake, const search::SearchOverlay& overlay)
      : lake_(lake), overlay_(overlay) {}

  CatalogStats Stats() const override { return lake_.StatsUnlocked(); }
  const search::ModelColumns& Columns() const override {
    return lake_.columns_;
  }
  Result<std::vector<float>> EmbeddingFor(
      const std::string& id) const override {
    // Local first: a model the shard owns always resolves locally, so
    // an overlay can never shadow (or corrupt) owned state. The hint
    // only fills lookups that would otherwise fail — off-shard query
    // models.
    auto local = lake_.EmbeddingForUnlocked(id);
    if (local.ok()) return local;
    auto it = overlay_.embeddings.find(id);
    if (it != overlay_.embeddings.end()) return it->second;
    return local;
  }
  Result<std::vector<std::pair<std::string, float>>> NearestModels(
      const std::vector<float>& query, size_t k) const override {
    return lake_.NearestModelsUnlocked(query, k);
  }
  /// The overlay's exact text is scored with its global BM25 stats.
  Result<std::vector<std::pair<std::string, double>>> KeywordScores(
      const std::string& text, size_t k) const override {
    bool global = overlay_.has_bm25 && text == overlay_.bm25_text;
    return lake_.KeywordScoresUnlocked(
        text, k, global ? &overlay_.bm25_stats : nullptr);
  }
  Result<std::vector<std::pair<std::string, double>>> TrainedOn(
      const std::string& dataset, double min_overlap) const override {
    return lake_.TrainedOnUnlocked(dataset, min_overlap);
  }
  std::vector<std::string> Descendants(
      const std::string& ancestor) const override {
    if (!lake_.graph_.HasModel(ancestor)) return {};
    return lake_.graph_.Descendants(ancestor);
  }

 private:
  const ModelLake& lake_;
  const search::SearchOverlay& overlay_;
};

// ---------------------------------------------------------------- search

Result<search::QueryResult> ModelLake::Query(
    std::string_view mlql, const search::SearchOverlay& overlay) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  MLAKE_ASSIGN_OR_RETURN(std::shared_ptr<const search::Query> plan,
                         CachedPlanUnlocked(mlql));
  SearchView view(*this, overlay);
  MLAKE_ASSIGN_OR_RETURN(search::QueryResult result,
                         search::ExecuteQuery(view, *plan));
  {
    std::lock_guard<std::mutex> plan_lock(plan_mu_);
    last_plan_ = result.plan;
  }
  return result;
}

index::Bm25Stats ModelLake::CollectBm25Stats(const std::string& text) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return bm25_.CollectStats(text);
}

Result<std::vector<std::pair<std::string, double>>>
ModelLake::KeywordScoresWithStats(const std::string& text, size_t k,
                                  const index::Bm25Stats& stats) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return KeywordScoresUnlocked(text, k, &stats);
}

Result<std::vector<search::RankedModel>> ModelLake::RelatedModelsByVector(
    const std::vector<float>& query, size_t k,
    const std::string& exclude_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  // Same over-fetch as RelatedModelsUnlocked: +1 because the excluded
  // model (if local) matches itself.
  MLAKE_ASSIGN_OR_RETURN(auto neighbors, NearestModelsUnlocked(query, k + 1));
  return RelatedFromNeighbors(exclude_id, neighbors, k);
}

Result<std::vector<search::HybridCandidate>> ModelLake::HybridParts(
    std::string_view mlql, const std::vector<float>& query_vec) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  MLAKE_ASSIGN_OR_RETURN(std::shared_ptr<const search::Query> plan,
                         CachedPlanUnlocked(mlql));
  search::SearchOverlay none;
  return search::CollectHybridParts(SearchView(*this, none), *plan, query_vec);
}

uint64_t ModelLake::IndexGeneration() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return index_generation_;
}

uint64_t ModelLake::MutationEpoch() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return mutation_epoch_;
}

Result<std::shared_ptr<const search::Query>> ModelLake::CachedPlanUnlocked(
    std::string_view mlql) const {
  std::string key(mlql);
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    if (plan_epoch_ != mutation_epoch_ ||
        plan_generation_ != index_generation_) {
      plan_cache_.clear();
      plan_epoch_ = mutation_epoch_;
      plan_generation_ = index_generation_;
    }
    auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) {
      ++plan_hits_;
      return it->second;
    }
    ++plan_misses_;
  }
  // Parse outside plan_mu_ so a slow parse never blocks cache hits on
  // other readers.
  MLAKE_ASSIGN_OR_RETURN(search::Query parsed, search::ParseQuery(mlql));
  auto plan = std::make_shared<const search::Query>(std::move(parsed));
  std::string normalized = search::ToString(*plan);
  std::lock_guard<std::mutex> lock(plan_mu_);
  if (plan_cache_.size() + 2 > kPlanCacheCap) plan_cache_.clear();
  // Alias the canonical rendering to the same parse so formatting
  // variants of one query (spacing, keyword case) share a cache entry.
  plan_cache_.emplace(std::move(key), plan);
  plan_cache_.emplace(std::move(normalized), plan);
  return plan;
}

ModelLake::PlanCacheCounters ModelLake::PlanCacheStats() const {
  std::lock_guard<std::mutex> lock(plan_mu_);
  return PlanCacheCounters{plan_hits_, plan_misses_, plan_cache_.size()};
}

Json ModelLake::PlannerStatsJson() const {
  std::lock_guard<std::mutex> lock(plan_mu_);
  Json cache = Json::MakeObject();
  cache.Set("hits", static_cast<int64_t>(plan_hits_));
  cache.Set("misses", static_cast<int64_t>(plan_misses_));
  cache.Set("entries", static_cast<int64_t>(plan_cache_.size()));
  Json out = Json::MakeObject();
  out.Set("plan_cache", cache);
  out.Set("last_plan", last_plan_);
  return out;
}

search::SearchContext::CatalogStats ModelLake::StatsUnlocked() const {
  search::SearchContext::CatalogStats stats;
  stats.valid = true;
  stats.num_models = columns_.live_rows();
  stats.ann_live = ann_->Size();
  stats.bm25_live = bm25_.NumDocs();
  stats.field_counts = columns_.FieldCounts();
  return stats;
}

search::SearchContext::CatalogStats ModelLake::Stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return StatsUnlocked();
}

std::vector<search::RankedModel> ModelLake::RelatedFromNeighbors(
    const std::string& id,
    const std::vector<std::pair<std::string, float>>& neighbors, size_t k) {
  std::vector<search::RankedModel> out;
  for (const auto& [other, distance] : neighbors) {
    if (other == id) continue;
    if (out.size() >= k) break;
    out.push_back(search::RankedModel{other, 1.0 - distance});
  }
  return out;
}

Result<std::vector<search::RankedModel>> ModelLake::RelatedModelsUnlocked(
    const std::string& id, size_t k) const {
  MLAKE_ASSIGN_OR_RETURN(std::vector<float> query, EmbeddingForUnlocked(id));
  MLAKE_ASSIGN_OR_RETURN(auto neighbors, NearestModelsUnlocked(query, k + 1));
  return RelatedFromNeighbors(id, neighbors, k);
}

Result<std::vector<search::RankedModel>> ModelLake::RelatedModels(
    const std::string& id, size_t k) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return RelatedModelsUnlocked(id, k);
}

std::vector<Result<std::vector<search::RankedModel>>>
ModelLake::RelatedModelsBatch(const std::vector<std::string>& ids,
                              size_t k) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<Result<std::vector<search::RankedModel>>> results;
  results.reserve(ids.size());
  // Resolve embeddings first; an unknown id fails only its own slot.
  // Successful slots get a placeholder overwritten after the probe.
  std::vector<std::vector<float>> queries;
  std::vector<size_t> probe_slot;  // queries index -> results index
  for (const std::string& id : ids) {
    auto embedding = EmbeddingForUnlocked(id);
    if (embedding.ok()) {
      probe_slot.push_back(results.size());
      queries.push_back(std::move(embedding.ValueUnsafe()));
      results.emplace_back(std::vector<search::RankedModel>{});
    } else {
      results.emplace_back(embedding.status());
    }
  }
  if (queries.empty()) return results;
  // Same effective ef as the solo path: RelatedModelsUnlocked asks
  // NearestModelsUnlocked for k+1, which over-fetches by degraded_.
  auto batch = ann_->SearchBatch(queries, k + 1 + degraded_.size());
  for (size_t q = 0; q < probe_slot.size(); ++q) {
    if (!batch.ok()) {
      results[probe_slot[q]] = batch.status();
    } else {
      results[probe_slot[q]] = RelatedFromNeighbors(
          ids[probe_slot[q]],
          MapNeighborsUnlocked(batch.ValueUnsafe()[q], k + 1), k);
    }
  }
  return results;
}

std::vector<Result<std::vector<std::pair<std::string, double>>>>
ModelLake::KeywordScoresBatch(const std::vector<std::string>& texts,
                              size_t k) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::vector<index::TextHit>> batch =
      bm25_.SearchBatch(texts, k + degraded_.size());
  std::vector<Result<std::vector<std::pair<std::string, double>>>> results;
  results.reserve(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    results.emplace_back(MapTextHitsUnlocked(std::move(batch[i]), k));
  }
  return results;
}

Result<std::vector<search::RankedModel>> ModelLake::HybridSearch(
    const std::string& text, const std::string& query_model_id,
    size_t k) const {
  // Escape single quotes for MLQL string literals. Query() takes the
  // shared lock itself.
  auto escape = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      out.push_back(c);
      if (c == '\'') out.push_back('\'');
    }
    return out;
  };
  MLAKE_ASSIGN_OR_RETURN(
      search::QueryResult result,
      Query(StrFormat("FIND MODELS RANK BY hybrid('%s', '%s') LIMIT %zu",
                      escape(text).c_str(), escape(query_model_id).c_str(),
                      k)));
  return result.models;
}

std::vector<std::string> ModelLake::AllModelIds() const {
  // Search surface, not admin surface: degraded models are filtered so
  // queries never rank a model whose artifact is quarantined.
  std::shared_lock<std::shared_mutex> lock(mu_);
  return SearchableModelIdsUnlocked();
}

Result<metadata::ModelCard> ModelLake::CardForUnlocked(
    const std::string& id) const {
  MLAKE_ASSIGN_OR_RETURN(Json doc, catalog_->GetDoc("card", id));
  return metadata::ModelCard::FromJson(doc);
}

Result<metadata::ModelCard> ModelLake::CardFor(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return CardForUnlocked(id);
}

Result<std::vector<float>> ModelLake::EmbeddingForUnlocked(
    const std::string& id) const {
  // The matrix holds the catalog's embedding of every model, degraded
  // ones included; a model that left the catalog has none.
  const uint32_t row = columns_.Find(id);
  if (row == search::ModelColumns::kNoRow || !columns_.Present(row)) {
    return Status::NotFound("key not found: embedding/" + id);
  }
  const float* vec = columns_.Embedding(row);
  return std::vector<float>(vec, vec + columns_.dim());
}

Result<std::vector<float>> ModelLake::EmbeddingFor(
    const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return EmbeddingForUnlocked(id);
}

std::vector<std::pair<std::string, float>> ModelLake::MapNeighborsUnlocked(
    const std::vector<index::Neighbor>& hits, size_t k) const {
  std::vector<std::pair<std::string, float>> out;
  out.reserve(std::min(hits.size(), k));
  for (const index::Neighbor& n : hits) {
    if (out.size() >= k) break;
    const uint32_t row = static_cast<uint32_t>(n.id);
    if (!columns_.Live(row)) continue;  // degraded
    out.emplace_back(columns_.Id(row), n.distance);
  }
  return out;
}

Result<std::vector<std::pair<std::string, float>>>
ModelLake::NearestModelsUnlocked(const std::vector<float>& query,
                                 size_t k) const {
  // Degraded models stay in the ANN graph (HNSW has no remove) but are
  // filtered out of results; over-fetch so k healthy hits survive.
  MLAKE_ASSIGN_OR_RETURN(std::vector<index::Neighbor> hits,
                         ann_->Search(query, k + degraded_.size()));
  return MapNeighborsUnlocked(hits, k);
}

Result<std::vector<std::pair<std::string, float>>> ModelLake::NearestModels(
    const std::vector<float>& query, size_t k) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return NearestModelsUnlocked(query, k);
}

std::vector<std::pair<std::string, double>> ModelLake::MapTextHitsUnlocked(
    std::vector<index::TextHit> hits, size_t k) const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(std::min(hits.size(), k));
  for (index::TextHit& hit : hits) {
    if (out.size() >= k) break;
    if (degraded_.count(hit.doc_id) > 0) continue;
    out.emplace_back(std::move(hit.doc_id), hit.score);
  }
  return out;
}

Result<std::vector<std::pair<std::string, double>>>
ModelLake::KeywordScoresUnlocked(const std::string& text, size_t k,
                                 const index::Bm25Stats* stats) const {
  size_t fetch = k + degraded_.size();
  return MapTextHitsUnlocked(stats ? bm25_.SearchWithStats(text, fetch, *stats)
                                   : bm25_.Search(text, fetch),
                             k);
}

Result<std::vector<std::pair<std::string, double>>> ModelLake::KeywordScores(
    const std::string& text, size_t k) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return KeywordScoresUnlocked(text, k);
}

Result<std::vector<std::pair<std::string, double>>>
ModelLake::TrainedOnUnlocked(const std::string& dataset,
                             double min_overlap) const {
  // Resolve the query dataset to the set of datasets overlapping it.
  std::map<std::string, double> related_datasets;
  related_datasets[dataset] = 1.0;
  if (catalog_->Contains("dataset", dataset)) {
    MLAKE_ASSIGN_OR_RETURN(std::vector<std::string> shards,
                           DatasetShardsUnlocked(dataset));
    for (const auto& hit :
         dataset_lsh_->Query(DatasetSignature(shards), min_overlap)) {
      auto it = related_datasets.find(hit.id);
      if (it == related_datasets.end() || it->second < hit.jaccard) {
        related_datasets[hit.id] = hit.jaccard;
      }
    }
  }
  // Models whose cards claim training on any related dataset: the
  // overlap per dataset code, then the best over each live row's codes.
  const search::ModelColumns::Dictionary& names =
      columns_.dict(search::ModelColumns::kDataset);
  std::vector<double> overlap(names.size(), 0.0);
  for (uint32_t code = 0; code < names.size(); ++code) {
    auto it = related_datasets.find(names.value(code));
    if (it != related_datasets.end()) overlap[code] = it->second;
  }
  std::vector<std::pair<std::string, double>> out;
  for (uint32_t row = 0; row < columns_.rows(); ++row) {
    if (!columns_.Live(row)) continue;
    double best = 0.0;
    for (uint32_t code : columns_.Datasets(row)) {
      best = std::max(best, overlap[code]);
    }
    if (best >= min_overlap || best == 1.0) {
      if (best > 0.0) out.emplace_back(columns_.Id(row), best);
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second || (a.second == b.second && a.first < b.first);
  });
  return out;
}

Result<std::vector<std::pair<std::string, double>>> ModelLake::TrainedOn(
    const std::string& dataset, double min_overlap) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return TrainedOnUnlocked(dataset, min_overlap);
}

// ----------------------------------------------------------- benchmarking

Status ModelLake::RegisterBenchmark(const std::string& name,
                                    nn::Dataset data) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (name.empty()) return Status::InvalidArgument("benchmark needs a name");
  if (data.size() == 0) return Status::InvalidArgument("empty benchmark");
  if (benchmarks_.count(name) > 0) {
    return Status::AlreadyExists("benchmark exists: " + name);
  }
  benchmarks_[name] = std::move(data);
  return Status::OK();
}

std::vector<std::string> ModelLake::ListBenchmarks() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, data] : benchmarks_) names.push_back(name);
  return names;
}

Result<double> ModelLake::EvaluateModelUnlocked(
    const std::string& id, const std::string& benchmark) const {
  auto it = benchmarks_.find(benchmark);
  if (it == benchmarks_.end()) {
    return Status::NotFound("benchmark not registered: " + benchmark);
  }
  MLAKE_ASSIGN_OR_RETURN(std::unique_ptr<nn::Model> model,
                         LoadModelUnlocked(id));
  return nn::EvaluateAccuracy(model.get(), it->second);
}

Result<double> ModelLake::EvaluateModel(const std::string& id,
                                        const std::string& benchmark) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return EvaluateModelUnlocked(id, benchmark);
}

// ----------------------------------------------------------- applications

Result<metadata::ModelCard> ModelLake::GenerateCard(
    const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  MLAKE_ASSIGN_OR_RETURN(metadata::ModelCard card, CardForUnlocked(id));
  MLAKE_ASSIGN_OR_RETURN(Json model_doc, catalog_->GetDoc("model", id));

  // Intrinsics: always recoverable from the artifact.
  if (const Json* arch = model_doc.Find("arch"); arch != nullptr) {
    auto spec = nn::ArchSpec::FromJson(*arch);
    if (spec.ok()) card.architecture = spec.ValueUnsafe().Signature();
  }
  card.num_params = model_doc.GetInt64("num_params", card.num_params);

  // Lineage: the recorded version graph is authoritative when present.
  std::vector<std::string> parents = graph_.Parents(id);
  if (!parents.empty()) {
    for (const versioning::VersionEdge& e : graph_.Edges()) {
      if (e.child == id) {
        card.lineage.base_model_id = e.parent;
        card.lineage.method = std::string(
            versioning::EdgeTypeToString(e.type));
        break;
      }
    }
  }

  // Task and training data: if missing, infer by majority vote over the
  // behaviorally nearest documented models (content-based annotation).
  // Inferred fields are flagged so reviewers can tell drafted values
  // from creator-provided ones.
  if (card.task.empty() || card.training_datasets.empty()) {
    auto related = RelatedModelsUnlocked(id, 5);
    if (related.ok()) {
      std::map<std::string, int> task_votes;
      std::map<std::string, int> dataset_votes;
      for (const search::RankedModel& r : related.ValueUnsafe()) {
        auto other = CardForUnlocked(r.id);
        if (!other.ok()) continue;
        if (!other.ValueUnsafe().task.empty()) {
          ++task_votes[other.ValueUnsafe().task];
        }
        for (const std::string& d : other.ValueUnsafe().training_datasets) {
          ++dataset_votes[d];
        }
      }
      auto winner = [](const std::map<std::string, int>& votes,
                       int min_votes) {
        std::string best;
        int best_votes = 0;
        for (const auto& [key, n] : votes) {
          if (n > best_votes) {
            best = key;
            best_votes = n;
          }
        }
        return best_votes >= min_votes ? best : std::string();
      };
      if (card.task.empty()) {
        std::string task = winner(task_votes, 2);
        if (!task.empty()) {
          card.task = task;
          card.tags.push_back("task-inferred-from-lake");
        }
      }
      if (card.training_datasets.empty()) {
        std::string dataset = winner(dataset_votes, 2);
        if (!dataset.empty()) {
          card.training_datasets.push_back(dataset);
          card.tags.push_back("training-data-inferred-from-lake");
          card.risk_notes.push_back(
              "training data inferred from related models, not verified");
        }
      }
    }
  }

  // Metrics: evaluate on every registered benchmark.
  for (const auto& [name, data] : benchmarks_) {
    bool already = false;
    for (const metadata::MetricEntry& m : card.metrics) {
      if (m.benchmark == name && m.metric == "accuracy") already = true;
    }
    if (already) continue;
    auto acc = EvaluateModelUnlocked(id, name);
    if (acc.ok()) {
      card.metrics.push_back(
          metadata::MetricEntry{name, "accuracy", acc.ValueUnsafe()});
    }
  }

  // Intended use / risks from what the lake now knows.
  if (card.intended_use.empty() && !card.task.empty()) {
    card.intended_use.push_back("classification for task family '" +
                                card.task + "'");
  }
  for (const metadata::MetricEntry& m : card.metrics) {
    if (m.metric == "accuracy" && m.value < 0.5) {
      card.risk_notes.push_back("low accuracy (" +
                                StrFormat("%.2f", m.value) + ") on " +
                                m.benchmark);
    }
  }
  std::vector<std::string> children = graph_.Children(id);
  if (!children.empty()) {
    card.risk_notes.push_back(StrFormat(
        "%zu downstream model(s) derive from this model; defects propagate",
        children.size()));
  }
  if (card.description.empty()) {
    card.description = StrFormat(
        "Auto-generated: %s model with %lld parameters%s.",
        card.architecture.c_str(),
        static_cast<long long>(card.num_params),
        card.task.empty() ? ""
                          : (" for task '" + card.task + "'").c_str());
  }
  return card;
}

Result<Json> ModelLake::AuditModel(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  MLAKE_ASSIGN_OR_RETURN(metadata::ModelCard card, CardForUnlocked(id));
  Json report = Json::MakeObject();
  report.Set("model_id", id);
  report.Set("card_completeness", metadata::CompletenessScore(card));
  Json problems = Json::MakeArray();
  for (const std::string& p : metadata::ValidateCard(card)) {
    problems.Append(Json(p));
  }
  report.Set("card_problems", std::move(problems));
  report.Set("documents_training_data", !card.training_datasets.empty());
  report.Set("documents_metrics", !card.metrics.empty());
  report.Set("documents_risks", !card.risk_notes.empty());

  // Lineage consistency: does the card's claim match the recorded graph?
  std::vector<std::string> parents = graph_.Parents(id);
  bool recorded = !parents.empty();
  report.Set("lineage_recorded", recorded);
  bool consistent = true;
  if (!card.lineage.base_model_id.empty()) {
    consistent = std::find(parents.begin(), parents.end(),
                           card.lineage.base_model_id) != parents.end();
  }
  report.Set("lineage_claim_consistent", consistent);

  // Artifact integrity: forced digest check over a view — the audit
  // never materializes the checkpoint. A quarantined model reports
  // intact=false with the quarantined flag set; a metadata-only model
  // reports has_artifact=false; the audit itself never errors on
  // degradation.
  auto digest = DigestForUnlocked(id);
  if (!digest.ok() && !digest.status().IsFailedPrecondition()) {
    return digest.status();
  }
  bool has_artifact = digest.ok();
  bool quarantined = degraded_.count(id) > 0;
  bool intact =
      has_artifact && !quarantined &&
      blobs_->GetView(digest.ValueUnsafe(), storage::VerifyMode::kAlways)
          .ok();
  report.Set("has_artifact", has_artifact);
  report.Set("artifact_intact", intact);
  report.Set("quarantined", quarantined);

  // Benchmark coverage.
  report.Set("benchmarks_reported", card.metrics.size());

  // Overall: a model "passes" audit when its artifact (if it has one)
  // is intact, its lineage claim (if any) is consistent, and it
  // documents training data.
  report.Set("passes", (!has_artifact || intact) && consistent &&
                           !card.training_datasets.empty());
  return report;
}

ModelLake::LakeCacheStats ModelLake::CacheStats() const {
  LakeCacheStats stats;
  stats.artifacts = artifact_cache_->Stats();
  return stats;
}

Json ModelLake::CacheStatsJson() const {
  LakeCacheStats stats = CacheStats();
  Json out = Json::MakeObject();
  out.Set("artifact_cache", storage::CacheStatsToJson(stats.artifacts));
  return out;
}

Result<Json> ModelLake::Cite(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!catalog_->Contains("model", id)) {
    return Status::NotFound("model not in lake: " + id);
  }
  Json citation = Json::MakeObject();
  citation.Set("model_id", id);
  citation.Set("graph_revision", graph_.revision());

  // Lineage path from the deepest root.
  std::vector<std::string> path;
  std::string current = id;
  while (true) {
    path.push_back(current);
    std::vector<std::string> parents = graph_.Parents(current);
    if (parents.empty()) break;
    current = parents.front();  // deterministic: lexicographically first
  }
  std::reverse(path.begin(), path.end());
  Json path_json = Json::MakeArray();
  for (const std::string& p : path) path_json.Append(Json(p));
  citation.Set("lineage_path", std::move(path_json));

  auto card = CardForUnlocked(id);
  std::string creator =
      card.ok() ? card.ValueUnsafe().creator : std::string();
  citation.Set(
      "text",
      StrFormat("%s%s. Model Lake catalog, version-graph revision %llu. "
                "Lineage: %s.",
                creator.empty() ? "" : (creator + ". ").c_str(), id.c_str(),
                static_cast<unsigned long long>(graph_.revision()),
                Join(path, " -> ").c_str()));
  return citation;
}

// ------------------------------------------------------------- governance

Result<Json> ModelLake::CitationDoc(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!catalog_->Contains("model", id)) {
    return Status::NotFound("model not in lake: " + id);
  }

  // Lineage path from the deepest root — the same deterministic walk
  // Cite() takes (lexicographically-first parent at every hop).
  std::vector<std::string> path;
  std::string current = id;
  while (true) {
    path.push_back(current);
    std::vector<std::string> parents = graph_.Parents(current);
    if (parents.empty()) break;
    current = parents.front();
  }
  std::reverse(path.begin(), path.end());

  auto card = CardForUnlocked(id);
  std::string creator =
      card.ok() ? card.ValueUnsafe().creator : std::string();
  std::string license =
      card.ok() ? card.ValueUnsafe().license : std::string();
  std::string created_at =
      card.ok() ? card.ValueUnsafe().created_at : std::string();
  std::string title = card.ok() && !card.ValueUnsafe().name.empty()
                          ? card.ValueUnsafe().name
                          : id;

  std::string digest;
  if (auto d = DigestForUnlocked(id); d.ok()) digest = d.MoveValueUnsafe();

  Json doc = Json::MakeObject();
  doc.Set("schema", std::string("mlake.citation"));
  doc.Set("schema_version", int64_t{1});
  doc.Set("model_id", id);
  doc.Set("title", title);
  doc.Set("creator", creator);
  doc.Set("license", license);
  doc.Set("created_at", created_at);
  doc.Set("artifact_digest", digest);
  doc.Set("metadata_only", digest.empty());
  doc.Set("degraded", degraded_.count(id) > 0);
  doc.Set("graph_revision", graph_.revision());

  Json path_json = Json::MakeArray();
  for (const std::string& p : path) path_json.Append(Json(p));
  doc.Set("lineage_path", std::move(path_json));

  // Heritage chain: one record per hop of the path, carrying the edge
  // that justifies it. Multiple recorded edges between the same pair
  // pick the EdgeKey-smallest — deterministic like everything
  // else in this document.
  Json heritage = Json::MakeArray();
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const versioning::VersionEdge* best = nullptr;
    std::string best_key;
    for (const versioning::VersionEdge& e : graph_.Edges()) {
      if (e.parent != path[i] || e.child != path[i + 1]) continue;
      std::string key = versioning::EdgeKey(e);
      if (best == nullptr || key < best_key) {
        best = &e;
        best_key = std::move(key);
      }
    }
    Json hop = Json::MakeObject();
    hop.Set("parent", path[i]);
    hop.Set("child", path[i + 1]);
    if (best != nullptr) {
      hop.Set("type",
              std::string(versioning::EdgeTypeToString(best->type)));
      hop.Set("confidence", best->confidence);
    }
    heritage.Append(std::move(hop));
  }
  doc.Set("heritage", std::move(heritage));

  std::string text = StrFormat(
      "%s%s. Model Lake catalog, version-graph revision %llu. Lineage: %s.",
      creator.empty() ? "" : (creator + ". ").c_str(), id.c_str(),
      static_cast<unsigned long long>(graph_.revision()),
      Join(path, " -> ").c_str());
  doc.Set("text", text);

  std::string bibtex = StrFormat(
      "@misc{%s,\n"
      "  title = {%s},\n"
      "  author = {%s},\n"
      "  howpublished = {Model Lake catalog},\n"
      "  note = {version-graph revision %llu%s%s; lineage %s}\n"
      "}",
      id.c_str(), title.c_str(),
      creator.empty() ? "unknown" : creator.c_str(),
      static_cast<unsigned long long>(graph_.revision()),
      digest.empty() ? "" : "; artifact sha256:",
      digest.c_str(), Join(path, " -> ").c_str());
  doc.Set("bibtex", bibtex);
  return doc;
}

ModelLake::ExportIterator::ExportIterator(const ModelLake* lake)
    : lake_(lake), lock_(lake->mu_) {
  mutation_epoch_ = lake_->mutation_epoch_;
  index_generation_ = lake_->index_generation_;
  model_ids_ = lake_->catalog_->ListIds("model");        // sorted
  dataset_names_ = lake_->catalog_->ListIds("dataset");  // sorted
  for (const versioning::VersionEdge& e : lake_->graph_.Edges()) {
    edges_.push_back(e);
  }
  std::sort(edges_.begin(), edges_.end(),
            [](const versioning::VersionEdge& a,
               const versioning::VersionEdge& b) {
              return versioning::EdgeKey(a) < versioning::EdgeKey(b);
            });
}

bool ModelLake::ExportIterator::Next(std::string* line) {
  line->clear();
  // Skip past exhausted list stages (including empty ones).
  auto exhausted = [this] {
    return (stage_ == Stage::kModels && cursor_ >= model_ids_.size()) ||
           (stage_ == Stage::kEdges && cursor_ >= edges_.size()) ||
           (stage_ == Stage::kDatasets && cursor_ >= dataset_names_.size());
  };
  while (exhausted()) {
    stage_ = static_cast<Stage>(static_cast<int>(stage_) + 1);
    cursor_ = 0;
  }
  if (stage_ == Stage::kDone) return false;

  Json record = Json::MakeObject();
  switch (stage_) {
    case Stage::kHeader: {
      record.Set("kind", std::string("header"));
      record.Set("schema", std::string("mlake.export"));
      record.Set("schema_version", int64_t{1});
      Json counts = Json::MakeObject();
      counts.Set("models", Json(static_cast<uint64_t>(model_ids_.size())));
      counts.Set("edges", Json(static_cast<uint64_t>(edges_.size())));
      counts.Set("datasets",
                 Json(static_cast<uint64_t>(dataset_names_.size())));
      record.Set("counts", std::move(counts));
      stage_ = Stage::kModels;
      cursor_ = 0;
      break;
    }
    case Stage::kModels: {
      // Catalog docs ship verbatim — the byte-identity anchor (the
      // replica re-put these exact bytes at apply time). Their stored
      // bytes are the compact Dump a parse-and-dump would produce, so
      // they are spliced in unparsed, in the record's field order.
      const std::string& id = model_ids_[cursor_++];
      line->append("{\"kind\":\"model\",\"id\":");
      line->append(Json(id).Dump());
      for (const char* kind : {"model", "card"}) {
        if (auto raw = lake_->catalog_->GetRaw(kind, id); raw.ok()) {
          line->append(",\"").append(kind).append("\":");
          line->append(raw.ValueUnsafe());
        }
      }
      line->append(lake_->degraded_.count(id) > 0 ? ",\"degraded\":true}\n"
                                                  : ",\"degraded\":false}\n");
      ++records_emitted_;
      return true;
    }
    case Stage::kEdges: {
      const versioning::VersionEdge& e = edges_[cursor_++];
      record.Set("kind", std::string("edge"));
      record = versioning::EdgeToJson(e, std::move(record));
      break;
    }
    case Stage::kDatasets: {
      const std::string& name = dataset_names_[cursor_++];
      record.Set("kind", std::string("dataset"));
      record.Set("name", name);
      if (auto doc = lake_->catalog_->GetDoc("dataset", name); doc.ok()) {
        record.Set("doc", doc.MoveValueUnsafe());
      }
      break;
    }
    case Stage::kFooter: {
      record.Set("kind", std::string("footer"));
      record.Set("records",
                 Json(static_cast<uint64_t>(model_ids_.size() +
                                            edges_.size() +
                                            dataset_names_.size())));
      stage_ = Stage::kDone;
      break;
    }
    case Stage::kDone:
      return false;
  }
  *line = record.Dump();
  line->push_back('\n');
  ++records_emitted_;
  return true;
}

std::unique_ptr<ModelLake::ExportIterator> ModelLake::OpenExport() const {
  return std::unique_ptr<ExportIterator>(new ExportIterator(this));
}

}  // namespace mlake::core
