#ifndef MLAKE_CORE_MODEL_LAKE_H_
#define MLAKE_CORE_MODEL_LAKE_H_

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/fs.h"
#include "common/json.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "embed/embedder.h"
#include "index/hnsw_index.h"
#include "index/inverted_index.h"
#include "index/minhash_lsh.h"
#include "metadata/model_card.h"
#include "nn/dataset.h"
#include "nn/model.h"
#include "search/context.h"
#include "search/executor.h"
#include "storage/blob_store.h"
#include "storage/cache.h"
#include "storage/catalog.h"
#include "storage/intent_journal.h"
#include "storage/model_artifact.h"
#include "versioning/heritage.h"
#include "versioning/model_graph.h"

namespace mlake::core {

/// Configuration of a lake instance.
///
/// All models in one lake share an input space (input_dim) and output
/// arity (num_classes) so that the extrinsic probe set is meaningful
/// across the lake — the benchmark-lake simplification documented in
/// DESIGN.md.
struct LakeOptions {
  std::string root;

  int64_t input_dim = 32;
  int64_t num_classes = 8;

  /// Shared extrinsic probe set.
  size_t probe_count = 24;
  uint64_t probe_seed = 20250325;

  /// Model embedder used for the ANN index: "behavioral",
  /// "weight_stats" or "fisher".
  std::string embedder = "behavioral";

  index::HnswConfig hnsw;

  /// MinHash/LSH sizing for dataset-overlap search. 32 bands x 2 rows
  /// keeps recall high down to Jaccard ~0.3 (sibling-domain overlap).
  size_t minhash_bands = 32;
  size_t minhash_rows = 2;

  /// Execution context for every parallel path inside the lake:
  /// batch-ingest embedding, index rebuild on Open, heritage recovery,
  /// fsck. Default is serial; pass ExecutionContext::WithThreads(n) to
  /// parallelize. All parallel paths are deterministic-by-construction
  /// (statically partitioned, reduced in index order), so lake
  /// contents and query results are identical at any thread count.
  ExecutionContext exec;

  // ----------------------------------------------------- storage layer
  // (PR 3: zero-copy reads + caching. Caches sit on the read path only,
  // so lake contents are byte-identical with caches on or off.)

  /// Blob digest verification policy (see storage::VerifyMode).
  /// Default verifies each checkpoint's SHA-256 once per process
  /// instead of on every read.
  storage::VerifyMode blob_verify = storage::VerifyMode::kOnFirstRead;

  /// Serve checkpoint reads through mmap views (zero-copy); falls back
  /// to copying reads automatically where mmap is unavailable.
  bool blob_mmap = true;

  /// Byte budget of the decoded-artifact cache (keyed by content
  /// digest). 0 disables it.
  size_t artifact_cache_bytes = size_t{256} << 20;

  /// Shards per cache (per-shard mutexes bound reader contention).
  size_t cache_shards = 8;

  // ------------------------------------------------- robustness layer
  // (PR 4: crash-consistent mutations + graceful degradation.)

  /// Filesystem seam (common/fs.h) threaded through every durable lake
  /// component — blobs, catalog, intent journal. nullptr = the real
  /// filesystem; tests pass a FaultInjectingFs to rehearse crashes.
  Fs* fs = nullptr;

  /// Transient-I/O retry policy for blob reads/writes
  /// (Status::IsTransient errors only). RetryPolicy::None() disables.
  RetryPolicy retry;

  // ---------------------------------------------- index lifecycle
  // (PR 6: incremental disk-backed indexes + background compaction.)

  /// Serve the search indexes from the mmap-backed snapshot generation
  /// in <root>/index when a valid manifest exists (load = mmap + header
  /// validation, no per-model catalog parse), reconciling models and
  /// datasets added or removed since the snapshot incrementally.
  /// Snapshots are a pure cache: any mismatch or validation failure
  /// falls back to a full catalog rebuild, so results can never be
  /// wrong, only slower to reach.
  bool load_index_snapshots = true;

  /// Background compaction: once the ANN delta segment holds at least
  /// max(compact_min_delta, base_size * compact_growth) elements after
  /// an ingest, a background pass folds the delta into a new snapshot
  /// generation (CompactIndices). The geometric growth term keeps the
  /// amortized per-ingest index cost O(1). The default min keeps small
  /// (test-sized) lakes from ever compacting implicitly.
  bool background_compaction = true;
  size_t compact_min_delta = 4096;
  double compact_growth = 0.5;

  // ---------------------------------------------- replication layer
  // (PR 9: journal-streaming replication.)

  /// Promote the intent journal into a replayable op log: committed
  /// entries are retained as `<seq>.op` files (strictly increasing
  /// seqs, epoch-stamped) and ingest/lineage/dataset/card-edit
  /// mutations record a replay payload, so a leader can stream the log
  /// to read replicas.
  /// Off by default — a standalone lake keeps the delete-on-commit
  /// journal and pays nothing.
  bool replication_log = false;
};

/// What Open() had to clean up from an earlier crash (all zeros on a
/// clean open).
struct RecoveryReport {
  /// Incomplete ingest intents rolled back (journal replay).
  size_t rolled_back_intents = 0;
  /// Model ids removed by those rollbacks.
  std::vector<std::string> rolled_back_ids;
  /// Blobs deleted because no model doc references them.
  size_t orphan_blobs_removed = 0;
  /// Stray `*.tmp.*` files removed (lake root, journal, blob buckets).
  size_t tmp_files_removed = 0;

  /// What `/statsz` exposes so operators can see recovery state without
  /// shelling into the box.
  Json ToJson() const;
};

/// Outcome of a repairing fsck pass (FsckRepair / `mlake fsck --repair`).
struct FsckReport {
  /// Model ids whose artifact failed verification this pass.
  std::vector<std::string> corrupted;
  /// Blob digests moved to quarantine (deduplicated: one digest may
  /// back several corrupted ids).
  std::vector<std::string> quarantined;
  size_t orphan_blobs_removed = 0;
  size_t tmp_files_removed = 0;

  Json ToJson() const;
};

/// One (model, card) pair of a batch ingest.
struct IngestRequest {
  const nn::Model* model = nullptr;
  metadata::ModelCard card;
};

/// One metadata-only (card, embedding) pair for IngestCards — the
/// streaming lake-generation path, which populates the catalog and
/// every index without materializing a checkpoint artifact.
struct CardIngest {
  metadata::ModelCard card;
  /// Must be EmbeddingDim() finite floats; a zero is stored as +0.0.
  std::vector<float> embedding;
};

/// The model lake (paper Figure 2): content-addressed model storage, a
/// JSON metadata catalog, model embeddings with an ANN index, keyword
/// search over cards, dataset-overlap search, a version graph, and the
/// application layer (MLQL queries, related-model search, documentation
/// generation, auditing, citation, benchmarking).
///
/// Thread-safety contract (the lake's first explicit one): a
/// `std::shared_mutex` guards all in-memory and on-disk state.
///   - Read APIs (`Query`, `RelatedModels`, `ListModels`, `NumModels`,
///     `LoadModel`, `CardFor`, `RecoverHeritage`, audits, ...) take the
///     lock shared: any number of threads may call them concurrently.
///   - Mutating APIs (`IngestModel`, `IngestModels`, `UpdateCard`,
///     `RecordEdge`, `RegisterDataset`, `RegisterBenchmark`) take it
///     exclusive: they serialize against each other and against all
///     readers, so a reader never observes a half-ingested batch
///     (no torn index/catalog states).
///   - Exceptions: `graph()`, `catalog()` and `probes()` hand out
///     direct references and are only safe while no ingest runs
///     concurrently; they exist for tools and tests.
class ModelLake {
 public:
  /// Opens (or creates) a lake at options.root, rebuilding in-memory
  /// indices from the catalog (parallelized over options.exec).
  static Result<std::unique_ptr<ModelLake>> Open(LakeOptions options);

  ModelLake(const ModelLake&) = delete;
  ModelLake& operator=(const ModelLake&) = delete;

  /// Stops the background compactor (waiting for an in-flight pass).
  ~ModelLake();

  // ------------------------------------------------------------ ingest

  /// Stores the model artifact (content-addressed), the card, the
  /// embedding, and updates every index. The card's model_id names the
  /// model and must be unique in the lake.
  Result<std::string> IngestModel(const nn::Model& model,
                                  const metadata::ModelCard& card);

  /// Batch ingest: validates the whole batch up front (duplicate ids —
  /// in the lake or within the batch — reject the batch atomically
  /// before anything is written), then pipelines it: artifact
  /// serialization and embedding run in parallel on `options().exec`,
  /// catalog writes and index updates apply sequentially in batch
  /// order, and the ANN index is extended with one bulk `Build`.
  /// Holds the exclusive lock for the duration; readers block but
  /// never observe a partial batch. Returns the ingested ids in batch
  /// order.
  Result<std::vector<std::string>> IngestModels(
      const std::vector<IngestRequest>& batch);

  /// Metadata-only batch ingest: stores cards and embeddings (no
  /// artifact — LoadModel/LoadArtifact on such ids fail with
  /// FailedPrecondition) and updates every index incrementally.
  /// Journaled and all-or-nothing on the same write path as
  /// IngestModels (a failed batch is rolled back and never enters the
  /// replayable log), but O(batch) memory and time regardless of lake
  /// size: no artifact serialization, no forward passes, no index
  /// rebuild. This is the streaming lake-generation path. Returns the
  /// ingested ids in batch order.
  Result<std::vector<std::string>> IngestCards(
      const std::vector<CardIngest>& batch);

  /// Embedding dimensionality of this lake's embedder — what
  /// CardIngest.embedding must supply.
  int64_t EmbeddingDim() const;

  /// Reconstructs the live model from its stored artifact (served from
  /// the decoded-artifact cache when resident).
  Result<std::unique_ptr<nn::Model>> LoadModel(const std::string& id) const;

  /// The decoded artifact itself — the cheap path for read-heavy lake
  /// tasks (weight comparison, CKA, heritage) that never need a live
  /// model. Shared with the artifact cache: the pointer stays valid
  /// after eviction.
  Result<std::shared_ptr<const storage::ModelArtifact>> LoadArtifact(
      const std::string& id) const;

  /// Replaces a model's card. Apply-then-log like RecordEdge: on a
  /// replication_log lake the edit is made durable, then journaled as
  /// an update_card op that replicas replay.
  Status UpdateCard(const metadata::ModelCard& card);

  /// ListModels and NumModels share one catalog scan path under the
  /// shared lock, so they agree with each other (and with the indices)
  /// even while another thread's ingest batch is pending.
  std::vector<std::string> ListModels() const;
  size_t NumModels() const;

  /// Verifies every stored artifact against its digest (parallel over
  /// options.exec); returns the ids of corrupted models (empty =
  /// healthy). Models already quarantined are skipped — they are known
  /// bad and no longer served.
  Result<std::vector<std::string>> FsckArtifacts() const;

  /// Repair mode (`mlake fsck --repair`): verifies every artifact,
  /// quarantines corrupt blobs (marking their models degraded so the
  /// rest of the lake stays searchable), garbage-collects orphan blobs
  /// and removes stray temp files. Exclusive lock; safe to run on a
  /// live lake.
  Result<FsckReport> FsckRepair();

  /// Moves `id`'s blob to quarantine and marks every model sharing that
  /// content digest degraded. Degraded models stop being served by
  /// LoadModel/search/heritage but keep their catalog entries for
  /// forensics; re-ingesting repaired bytes under a new id restores the
  /// content.
  Status QuarantineModel(const std::string& id);

  /// Ids currently degraded (quarantined artifact), sorted.
  std::vector<std::string> DegradedModels() const;

  bool IsDegraded(const std::string& id) const;

  /// What the last Open() recovered (rolled-back intents, GC'd blobs).
  const RecoveryReport& recovery() const { return recovery_; }

  // ---------------------------------------------------------- datasets

  /// Registers a dataset (its shard ids) for overlap search.
  Status RegisterDataset(const std::string& name,
                         const std::vector<std::string>& shards);
  Result<std::vector<std::string>> DatasetShards(
      const std::string& name) const;
  std::vector<std::string> ListDatasets() const;

  // ----------------------------------------------------------- lineage

  /// Records a ground-truth derivation edge and persists the graph.
  Status RecordEdge(const versioning::VersionEdge& edge);

  /// Direct reference — see the thread-safety contract above.
  const versioning::ModelGraph& graph() const { return graph_; }

  /// Lineage of one model as JSON — parents, children, transitive
  /// ancestors/descendants, the recorded edges touching `id`, and the
  /// graph revision — computed in one shared-lock critical section so
  /// concurrent callers (the HTTP lineage endpoint) get a consistent
  /// snapshot without ever touching `graph()` unlocked. NotFound when
  /// `id` is not in the lake.
  Result<Json> Lineage(const std::string& id) const;

  /// Reconstructs lineage from stored weights alone (no history).
  /// Model loading and the O(n²) distance matrix run on options.exec
  /// unless config.exec carries its own pool.
  Result<versioning::HeritageResult> RecoverHeritage(
      const versioning::HeritageConfig& config = {}) const;

  // ------------------------------------------------------------ search

  /// Executes an MLQL query. The shared lock is held once for the
  /// whole plan, so the result is a consistent snapshot. `overlay`
  /// carries cross-shard context (search::SearchOverlay): hint
  /// embeddings for off-shard model ids and global BM25 statistics;
  /// the default overlay carries none. The cluster scatter path — each
  /// shard answers with scores bit-identical to the merged lake's, so
  /// the router's (score desc, id asc) merge of per-shard top-k is the
  /// merged lake's top-k.
  Result<search::QueryResult> Query(
      std::string_view mlql, const search::SearchOverlay& overlay = {}) const;

  /// This shard's integer contribution to `text`'s BM25 corpus
  /// statistics (phase 1 of distributed keyword search; contributions
  /// sum exactly at the router).
  index::Bm25Stats CollectBm25Stats(const std::string& text) const;

  /// KeywordScores with externally supplied (global) corpus
  /// statistics — phase 2 of distributed keyword search. With
  /// `stats == CollectBm25Stats(text)` this is bit-identical to
  /// KeywordScores(text, k).
  Result<std::vector<std::pair<std::string, double>>> KeywordScoresWithStats(
      const std::string& text, size_t k, const index::Bm25Stats& stats) const;

  /// Related-model search by raw embedding vector, skipping
  /// `exclude_id` (the query model, which may live on another shard).
  /// Score = 1 - cosine distance, like RelatedModels. The cluster
  /// ann scatter probe: the router resolves the query model's
  /// embedding on its owner, then fans the vector out to every shard.
  Result<std::vector<search::RankedModel>> RelatedModelsByVector(
      const std::vector<float>& query, size_t k,
      const std::string& exclude_id) const;

  /// The shard-local half of a distributed hybrid ranking (see
  /// search::CollectHybridParts): parses `mlql` (plan cache shared
  /// with Query), evaluates its WHERE over this shard's models and
  /// returns the survivors with their dot products against
  /// `query_vec`. One shared-lock critical section.
  Result<std::vector<search::HybridCandidate>> HybridParts(
      std::string_view mlql, const std::vector<float>& query_vec) const;

  /// Model-as-query related-model search via the ANN index.
  Result<std::vector<search::RankedModel>> RelatedModels(
      const std::string& id, size_t k) const;

  /// Batched related-model search: one shared-lock acquisition and one
  /// HnswIndex::SearchBatch probe for the whole batch. results[i] is
  /// bit-identical to RelatedModels(ids[i], k); failures are per-slot
  /// (an unknown id fails its own entry, never the batch). This is the
  /// probe the server's SearchBatcher coalesces /v1/search requests
  /// into, and the probe API a distributed router would reuse.
  std::vector<Result<std::vector<search::RankedModel>>> RelatedModelsBatch(
      const std::vector<std::string>& ids, size_t k) const;

  /// Batched keyword search: results[i] is bit-identical to
  /// KeywordScores(texts[i], k), computed under one shared lock with
  /// one InvertedIndex::SearchBatch probe.
  std::vector<Result<std::vector<std::pair<std::string, double>>>>
  KeywordScoresBatch(const std::vector<std::string>& texts, size_t k) const;

  /// Hybrid search (§5 roadmap): reciprocal-rank fusion of BM25 keyword
  /// relevance and embedding similarity to `query_model_id`. Robust to
  /// card rot on one side and embedding blind spots on the other.
  Result<std::vector<search::RankedModel>> HybridSearch(
      const std::string& text, const std::string& query_model_id,
      size_t k) const;

  // Single-call search reads. Each takes the shared lock itself;
  // `Query` instead holds the lock once and executes against the
  // internal unlocked SearchView (shared_mutex is not reentrant, so
  // nesting would deadlock against a waiting writer).
  std::vector<std::string> AllModelIds() const;
  /// Catalog statistics for the MLQL cost-based planner: model count,
  /// index live sizes, and per-field value histograms — the column
  /// store's live rows and dictionary counts, no card scan.
  search::SearchContext::CatalogStats Stats() const;
  Result<metadata::ModelCard> CardFor(const std::string& id) const;
  Result<std::vector<float>> EmbeddingFor(const std::string& id) const;
  Result<std::vector<std::pair<std::string, float>>> NearestModels(
      const std::vector<float>& query, size_t k) const;
  Result<std::vector<std::pair<std::string, double>>> KeywordScores(
      const std::string& text, size_t k) const;
  Result<std::vector<std::pair<std::string, double>>> TrainedOn(
      const std::string& dataset, double min_overlap) const;

  // ------------------------------------------------------ replication
  // (Meaningful when options().replication_log is set; see
  // DESIGN.md §14. All take the lake lock themselves.)

  /// True when the journal is retained as a replayable op log.
  bool ReplicationLogEnabled() const { return options_.replication_log; }

  /// Shippable batch of committed log entries with seq >= `from_seq`:
  /// {"epoch", "last_seq", "exhausted", "entries": [intent json...]}.
  /// Local-only ops ("compact") are filtered out of `entries` but still
  /// advance `last_seq`; `exhausted` tells the replica it may fast-
  /// forward its watermark to `last_seq` across such gaps.
  Result<Json> ReplicationLogJson(uint64_t from_seq, size_t max) const;

  /// Raw blob bytes by content digest (the replication blob fetch).
  Result<std::string> ReadBlob(const std::string& digest) const;

  /// SHA-256 over the lake's replicated logical state: sorted
  /// model/card/embedding/dataset docs plus sorted lineage edges. Index
  /// internals and the graph revision counter are deliberately excluded
  /// (compaction timing and rolled-back ingests may differ between
  /// leader and replica without any logical divergence). Equal
  /// fingerprints ⇒ the replica has converged.
  std::string ReplicationFingerprint() const;

  /// Full logical state as a re-seed manifest: {"epoch", "upto_seq",
  /// "models": [{id, card, digest|embedding, metadata_only}...],
  /// "edges": [...], "datasets": [...]}. Artifact bytes ship separately
  /// by digest.
  Result<Json> ReplicationSeedJson() const;

  /// Applies one shipped log entry at its original seq + epoch through
  /// the lake's one write path (all-or-nothing ingest, apply-then-log
  /// edge/dataset/card edit), so the replica's catalog, indexes and log
  /// stay byte-compatible with the leader's. `blob_bytes` maps each
  /// digest the entry references to its artifact bytes (fetched from
  /// the leader); bytes are digest-verified before anything is applied.
  Status ApplyReplicated(const storage::Intent& entry,
                         const std::map<std::string, std::string>& blob_bytes);

  /// True when shipped log `entry` is already reflected in this lake
  /// (redelivery after a lost replica watermark); Corruption when the
  /// lake holds a *different* artifact for one of the entry's ids. A
  /// replica checks this before fetching blobs for ApplyReplicated.
  Result<bool> HasApplied(const storage::Intent& entry) const;

  /// Divergence repair: diffs this lake against a leader seed manifest
  /// (ReplicationSeedJson), deletes divergent/extra models, re-ingests
  /// missing ones (artifact bytes via `fetch_blob`), replaces lineage
  /// and datasets wholesale, rebuilds the indexes from the repaired
  /// catalog and truncates the local log to the seed's upto_seq.
  Status ReseedFromManifest(
      const Json& manifest,
      const std::function<Result<std::string>(const std::string&)>&
          fetch_blob);

  /// Replication epoch (fencing term) and log high-water mark.
  uint64_t ReplicationEpoch() const;
  uint64_t ReplicationLastSeq() const;
  /// Durably raises the epoch (monotonic; lowering is refused).
  Status SetReplicationEpoch(uint64_t epoch);
  /// Epoch+1, durably — leader promotion.
  Result<uint64_t> BumpReplicationEpoch();
  /// Log GC / reseed floor: durably removes committed entries <= upto.
  Status TruncateReplicationLog(uint64_t upto_seq);

  /// id -> artifact content digest ("" for metadata-only models).
  Result<std::string> ArtifactDigest(const std::string& id) const;

  /// Whether a recorded lineage edge exists (shared-lock safe, unlike
  /// graph()).
  bool HasEdge(const std::string& parent, const std::string& child) const;

  // ------------------------------------------------------ benchmarking

  /// Registers an evaluation dataset under a benchmark name (in-memory;
  /// benchmark suites are regenerable from task specs).
  Status RegisterBenchmark(const std::string& name, nn::Dataset data);
  std::vector<std::string> ListBenchmarks() const;

  /// Accuracy of a stored model on a registered benchmark.
  Result<double> EvaluateModel(const std::string& id,
                               const std::string& benchmark) const;

  // ------------------------------------------------------ applications

  /// Documentation generation (paper §6): drafts a card for `id` from
  /// lake analyses — architecture/size from the artifact, metrics from
  /// registered benchmarks, lineage from the version graph, task/tags
  /// inferred by majority vote over behaviorally-nearest documented
  /// models.
  Result<metadata::ModelCard> GenerateCard(const std::string& id) const;

  /// Auditing (paper §6): evidence-backed questionnaire answers about
  /// documentation completeness, lineage consistency, artifact
  /// integrity and benchmark coverage.
  Result<Json> AuditModel(const std::string& id) const;

  /// Citation (paper §6): a citation pinned to the current version-graph
  /// revision; changes exactly when the graph changes.
  Result<Json> Cite(const std::string& id) const;

  // ------------------------------------------------------- governance
  // (PR 10: online governance services; see DESIGN.md §15. The lake
  // contributes the shared-lock primitives, src/governance/ the HTTP
  // shaping.)

  /// Citation document (governance layer): the §6 citation plus the
  /// card's attribution fields, the full heritage chain with per-hop
  /// edge types, the artifact digest, quarantine state, and a
  /// BibTeX-ish text block. One shared-lock critical section, so every
  /// field describes the same snapshot. NotFound when `id` is not in
  /// the lake; degraded models still cite (flagged).
  Result<Json> CitationDoc(const std::string& id) const;

  /// Streaming point-in-time export of the lake's logical metadata as
  /// NDJSON records (schema mlake.export, see DESIGN.md §15): header,
  /// sorted model records (catalog model/card docs verbatim), sorted
  /// lineage edges, sorted datasets, footer. The iterator holds the
  /// lake's shared lock for its lifetime — writers queue behind an
  /// in-flight export, readers proceed — and emits one record per
  /// Next() call, so resident memory stays O(ids), never O(payload).
  /// Docs ship verbatim and ordering is content-determined, so two
  /// caught-up replicas produce byte-identical exports (the same
  /// property ReplicationFingerprint checks; revision/epoch counters
  /// are excluded for the same reason).
  class ExportIterator {
   public:
    ExportIterator(ExportIterator&&) = default;
    ExportIterator& operator=(ExportIterator&&) = default;

    /// Appends the next NDJSON line (record JSON + '\n') to `*line`
    /// (cleared first). Returns false when the export is complete.
    bool Next(std::string* line);

    /// Records emitted so far (header and footer included).
    size_t records_emitted() const { return records_emitted_; }

    /// Counts fixed at open time (what the header declares).
    size_t num_models() const { return model_ids_.size(); }

    /// The change key of the snapshot this export describes, captured
    /// under the same lock acquisition as the record lists — what the
    /// /v1/export ETag is derived from, so tag and body always agree.
    uint64_t mutation_epoch() const { return mutation_epoch_; }
    uint64_t index_generation() const { return index_generation_; }

   private:
    friend class ModelLake;
    explicit ExportIterator(const ModelLake* lake);

    enum class Stage { kHeader, kModels, kEdges, kDatasets, kFooter, kDone };

    const ModelLake* lake_;
    std::shared_lock<std::shared_mutex> lock_;
    std::vector<std::string> model_ids_;
    std::vector<std::string> dataset_names_;
    std::vector<versioning::VersionEdge> edges_;  // export-sorted
    uint64_t mutation_epoch_ = 0;
    uint64_t index_generation_ = 0;
    Stage stage_ = Stage::kHeader;
    size_t cursor_ = 0;
    size_t records_emitted_ = 0;
  };

  /// Opens a streaming export at the current snapshot. The returned
  /// iterator pins the snapshot (shared lock) until destroyed.
  std::unique_ptr<ExportIterator> OpenExport() const;

  /// Monotone counter bumped by every content mutation (ingest, card
  /// update, dataset registration, lineage edge, reseed). Paired with
  /// IndexGeneration() it is the change-detection key the governance
  /// export ETag uses.
  uint64_t MutationEpoch() const;

  // ------------------------------------------------------------- misc

  /// Counters of the lake's storage cache (embeddings are read from the
  /// column store's matrix, uncached).
  struct LakeCacheStats {
    storage::CacheStats artifacts;
  };
  LakeCacheStats CacheStats() const;

  /// CacheStats as JSON ({"artifact_cache": {...}}); what `mlake stats`
  /// and the benches print.
  Json CacheStatsJson() const;

  /// Rebuilds the indexes from the catalog, writes them as a new
  /// mmap-backed snapshot generation under <root>/index (journaled: a
  /// crash at any point recovers to either the old or the new
  /// generation), and swaps the lake onto the snapshot-backed result.
  /// Because the fold is a deterministic rebuild in catalog order, the
  /// compacted index answers queries identically to a from-scratch
  /// rebuild. Safe on a live lake; returns Unavailable (and changes
  /// nothing) when a mutation lands mid-pass — the caller or the next
  /// background trigger retries.
  Status CompactIndices();

  /// Per-index base/delta/tombstone counts, the loaded snapshot
  /// generation and the last compaction duration — the index surface of
  /// `/statsz` and `mlake stats`.
  Json IndexStatsJson() const;

  /// The loaded index snapshot generation (0 = built from the catalog)
  /// — what a cluster backend reports on its heartbeat.
  uint64_t IndexGeneration() const;

  /// Counters of the parse-once MLQL plan cache behind Query().
  struct PlanCacheCounters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    size_t entries = 0;
  };
  PlanCacheCounters PlanCacheStats() const;

  /// Planner surface of `/statsz`: plan-cache counters and the plan the
  /// executor chose for the most recent MLQL query.
  Json PlannerStatsJson() const;

  const Tensor& probes() const { return probes_; }
  const LakeOptions& options() const { return options_; }
  storage::Catalog* catalog() { return catalog_.get(); }
  const storage::Catalog* catalog() const { return catalog_.get(); }

 private:
  /// The lake's one search::SearchContext: unlocked reads plus a
  /// SearchOverlay — what `Query` and `HybridParts` (composite reads
  /// that already hold the shared lock) execute against. Defined in
  /// model_lake.cc.
  class SearchView;

  explicit ModelLake(LakeOptions options) : options_(std::move(options)) {}

  /// One model of an ingest batch as the write path stores it, built by
  /// a front end (IngestModels, IngestCards, ApplyReplicated) and moved
  /// in. A row without an artifact is metadata-only.
  struct IngestRow {
    /// Owned by the front end's batch, which outlives the write.
    const metadata::ModelCard* card = nullptr;
    /// Catalog "model" doc; filled in for metadata-only rows.
    Json model_doc;
    /// Must be EmbeddingDim() floats.
    std::vector<float> embedding;
    std::string artifact_bytes;
    std::string digest;  ///< SHA-256 of artifact_bytes; empty = none
  };

  /// The lake's derived index state as one unit: built fresh from the
  /// catalog (rebuild, compaction) or loaded from a snapshot
  /// generation, then installed under the exclusive lock in one swap so
  /// readers never observe a half-replaced index set.
  struct IndexSet {
    std::unique_ptr<index::HnswIndex> ann;
    /// Row i holds the model of HNSW element i: the handle table (ids)
    /// plus the decoded card columns and embeddings.
    search::ModelColumns columns;
    index::InvertedIndex bm25;
    std::unique_ptr<index::MinHashLsh> lsh;
    /// Dataset names the LSH holds (for the ids snapshot + reconcile).
    std::vector<std::string> dataset_names;
  };

  Status Initialize();
  Status RebuildIndices();
  /// Builds a fresh IndexSet from the catalog (parallel over
  /// options.exec, deterministic in catalog order).
  Status BuildIndexSetFromCatalog(IndexSet* out) const;
  /// Swaps `set` in and marks the degraded models' rows not live.
  void InstallIndexSet(IndexSet set);
  /// Open()-time index bring-up: snapshot load + reconcile when enabled
  /// and present, full catalog rebuild otherwise.
  Status LoadOrRebuildIndices();
  /// Loads the snapshot generation named by <root>/index/MANIFEST.json,
  /// reconciles it against the catalog (models/datasets ingested or
  /// rolled back since the snapshot), and installs it. NotFound when no
  /// manifest exists.
  Status LoadIndexSnapshots();
  /// Loads the four snapshot files of one generation into `out`
  /// (mmap-backed base segments, empty deltas). The column store is
  /// decoded from the ids sidecar, unless `built` — the store that
  /// sidecar was just written from — is given: it is then moved in on
  /// success and left alone on failure.
  Status LoadIndexSetFromFiles(const std::string& ann_path,
                               const std::string& bm25_path,
                               const std::string& lsh_path,
                               const std::string& ids_path, IndexSet* out,
                               search::ModelColumns* built = nullptr) const;
  /// Writes the id table / digest table / dataset-name table / column
  /// store companion snapshot (SnapshotKind::kLakeIds).
  Status WriteIdsSnapshot(const IndexSet& set, const std::string& path,
                          uint64_t generation) const;
  /// Deletes index-dir files not referenced by the current manifest —
  /// crashed-compaction debris and superseded generations. Idempotent;
  /// also the rollback action of a "compact" intent.
  Status GcIndexFilesUnlocked();
  /// Removes MANIFEST.json (durably) so the next open rebuilds from the
  /// catalog — required before any mutation the snapshot/catalog diff
  /// cannot represent (card text updates).
  Status InvalidateIndexSnapshotsUnlocked();
  /// Wakes (lazily starting) the background compactor when the delta
  /// has outgrown the compaction threshold. Caller holds mu_ exclusive.
  void MaybeScheduleCompactionLocked();
  void CompactorLoop();
  std::string IndexDir() const;
  std::string IndexManifestPath() const;
  /// Open()-time crash recovery: rolls back pending intents, removes
  /// stray temp files, garbage-collects orphan blobs. Fills recovery_.
  Status Recover();
  /// Open()-time format upgrade: rewrites a lake's "embedding" JSON
  /// docs (the format before binary "vec" records) as vec records and
  /// deletes them, then syncs. Crash-safe and idempotent; writes
  /// nothing once no JSON doc is left.
  Status ConvertJsonEmbeddings();
  /// Undoes everything a (possibly partial) mutation described by
  /// `intent` may have applied on disk: catalog docs, graph nodes, and
  /// blobs no surviving model references. Idempotent — a crash during
  /// rollback just replays it on the next open.
  Status RollbackIntent(const storage::Intent& intent);
  /// Deletes blobs no model doc references; returns how many.
  Result<size_t> GcOrphanBlobsUnlocked();
  /// Quarantine under the exclusive lock (FsckRepair's per-id step).
  Status QuarantineModelLocked(const std::string& id,
                               const std::string& reason);
  Status PersistGraph();
  index::MinHashSignature DatasetSignature(
      const std::vector<std::string>& shards) const;

  // Unlocked implementations; callers hold the appropriate lock.

  /// The IngestModels front end: validates each request's model and
  /// card, then serializes, hashes and embeds (parallel over
  /// options.exec, results in batch order). Changes nothing.
  Result<std::vector<IngestRow>> ModelRows(
      const std::vector<IngestRequest>& batch) const;
  /// The lake's one ingest write path (write-ahead): validates ids,
  /// journals the intent, writes blobs, catalog docs and indexes, then
  /// syncs and commits — or rolls the batch back and aborts the intent.
  Result<std::vector<std::string>> IngestRowsLocked(
      std::vector<IngestRow> rows);
  /// The apply-then-log tail of record_edge, register_dataset and
  /// update_card: syncs the applied mutation, then, on a
  /// replication_log lake, journals `op` with `payload` (Begin +
  /// Commit).
  Status LogAppliedLocked(const char* op, Json payload);
  /// Journals `intent` — at forced_seq_ (replica apply, preserving the
  /// leader's seq + epoch stamp) when set, else with a fresh local seq.
  Result<uint64_t> BeginIntentLocked(const storage::Intent& intent);
  Status RecordEdgeLocked(const versioning::VersionEdge& edge);
  Status RegisterDatasetLocked(const std::string& name,
                               const std::vector<std::string>& shards);
  Status UpdateCardLocked(const metadata::ModelCard& card);
  Result<std::string> ArtifactDigestUnlocked(const std::string& id) const;
  std::string ReplicationFingerprintUnlocked() const;
  /// Incremental index rollback of a failed ingest batch: removes the
  /// batch's BM25 docs and digest entries and truncates the ANN delta
  /// tail and the column rows — O(batch), not O(lake). Caller holds
  /// mu_ exclusive.
  void RollbackBatchIndexesLocked(const std::vector<std::string>& ids,
                                  size_t pre_rows, size_t pre_ann_delta);
  std::vector<std::string> ListModelsUnlocked() const;
  /// ListModelsUnlocked minus degraded ids — what search/query paths
  /// iterate so a quarantined model never surfaces in results.
  std::vector<std::string> SearchableModelIdsUnlocked() const;
  Result<std::unique_ptr<nn::Model>> LoadModelUnlocked(
      const std::string& id) const;
  /// id -> artifact digest via the column rows (catalog fallback);
  /// FailedPrecondition for a metadata-only model.
  Result<std::string> DigestForUnlocked(const std::string& id) const;
  /// Digest -> decoded artifact through the artifact cache; the cache
  /// miss path is GetView (zero-copy) + ParseArtifact.
  Result<std::shared_ptr<const storage::ModelArtifact>> LoadArtifactUnlocked(
      const std::string& digest) const;
  Result<metadata::ModelCard> CardForUnlocked(const std::string& id) const;
  Result<std::vector<float>> EmbeddingForUnlocked(
      const std::string& id) const;
  Result<std::vector<std::pair<std::string, float>>> NearestModelsUnlocked(
      const std::vector<float>& query, size_t k) const;
  /// Maps raw ANN hits to ids through the column rows, drops degraded
  /// ones, caps at k
  /// — the shared tail of NearestModelsUnlocked and the batch probe.
  std::vector<std::pair<std::string, float>> MapNeighborsUnlocked(
      const std::vector<index::Neighbor>& hits, size_t k) const;
  /// Drops degraded ids from BM25 hits and caps at k — the shared tail
  /// of KeywordScoresUnlocked and the batch probe.
  std::vector<std::pair<std::string, double>> MapTextHitsUnlocked(
      std::vector<index::TextHit> hits, size_t k) const;
  /// BM25 top-k scored with `stats` as the corpus statistics when
  /// given, else with this lake's own.
  Result<std::vector<std::pair<std::string, double>>> KeywordScoresUnlocked(
      const std::string& text, size_t k,
      const index::Bm25Stats* stats = nullptr) const;
  /// The planner's catalog statistics, read off the column store.
  /// Caller holds mu_ (shared suffices).
  search::SearchContext::CatalogStats StatsUnlocked() const;
  /// Parse-once plan-cache lookup for Query(). Caller holds mu_
  /// (shared suffices: plan_mu_ guards the map).
  Result<std::shared_ptr<const search::Query>> CachedPlanUnlocked(
      std::string_view mlql) const;
  Result<std::vector<std::pair<std::string, double>>> TrainedOnUnlocked(
      const std::string& dataset, double min_overlap) const;
  Result<std::vector<std::string>> DatasetShardsUnlocked(
      const std::string& name) const;
  Result<std::vector<search::RankedModel>> RelatedModelsUnlocked(
      const std::string& id, size_t k) const;
  /// Turns a model's mapped neighbors into RankedModels, skipping the
  /// model itself — the shared tail of RelatedModelsUnlocked and the
  /// batch probe (score = 1 - cosine distance).
  static std::vector<search::RankedModel> RelatedFromNeighbors(
      const std::string& id,
      const std::vector<std::pair<std::string, float>>& neighbors, size_t k);
  Result<double> EvaluateModelUnlocked(const std::string& id,
                                       const std::string& benchmark) const;

  LakeOptions options_;
  Fs* fs_ = nullptr;  ///< resolved from options_.fs; never null after Open
  std::unique_ptr<storage::BlobStore> blobs_;
  std::unique_ptr<storage::Catalog> catalog_;
  std::unique_ptr<storage::IntentJournal> journal_;
  /// Ids whose artifact is quarantined. Maintained under the writer
  /// lock; loaded from catalog kind "degraded" on Open.
  std::set<std::string> degraded_;
  RecoveryReport recovery_;
  std::unique_ptr<embed::ModelEmbedder> embedder_;
  Tensor probes_;

  /// Read-path artifact cache. Internally synchronized (per-shard
  /// mutexes), so shared-lock readers may populate it concurrently;
  /// mutable for exactly that reason. Keys are content digests, which
  /// makes stale entries impossible: the same digest always decodes to
  /// the same artifact, and deleting/re-ingesting a model id changes
  /// the digest the catalog points at, never the digest's meaning.
  mutable std::unique_ptr<
      storage::ShardedLruCache<std::string, storage::ModelArtifact>>
      artifact_cache_;
  /// Readers/writer lock over all lake state (see class comment).
  mutable std::shared_mutex mu_;

  std::unique_ptr<index::HnswIndex> ann_;
  /// The decoded column store, row i = ANN element i (DESIGN.md §16):
  /// what MLQL, hybrid, the planner statistics and EmbeddingFor read.
  /// Maintained on every path that touches the indexes, under mu_.
  search::ModelColumns columns_;
  index::InvertedIndex bm25_;
  std::unique_ptr<index::MinHashLsh> dataset_lsh_;

  versioning::ModelGraph graph_;
  std::map<std::string, nn::Dataset> benchmarks_;

  /// When non-zero, BeginIntentLocked journals at this seq with this
  /// epoch instead of assigning fresh ones — the replica apply path
  /// replaying a leader entry at its original log position. Only ever
  /// set under the exclusive lock for the duration of one apply.
  uint64_t forced_seq_ = 0;
  uint64_t forced_epoch_ = 0;

  /// Generation of the snapshot the current base segments came from
  /// (0 = built from the catalog, no snapshot loaded).
  uint64_t index_generation_ = 0;
  /// Bumped under the exclusive lock by every index-affecting mutation;
  /// a compaction pass aborts its swap when the epoch moved under it.
  uint64_t mutation_epoch_ = 0;
  double last_compact_ms_ = 0.0;

  /// Background compactor, started lazily on the first trigger so
  /// small lakes never spawn a thread.
  std::thread compactor_;
  std::mutex compact_mu_;  // guards the request/stop flags below
  std::condition_variable compact_cv_;
  bool compact_requested_ = false;
  bool compact_stop_ = false;
  /// Serializes compaction passes (explicit calls vs the background
  /// thread).
  std::mutex compact_run_mu_;

  // ---- cost-based planner state (PR 7) ----

  /// Parse-once MLQL plan cache: query text -> parsed AST, with the
  /// normalized AST rendering aliased to the same entry so formatting
  /// variants of one query share a plan. Entries are pure parses and
  /// can never be semantically stale; the cache is still cleared when
  /// the mutation epoch or snapshot generation moves (conservative
  /// hygiene, and it bounds growth alongside the entry cap).
  mutable std::mutex plan_mu_;
  mutable std::unordered_map<std::string,
                             std::shared_ptr<const search::Query>>
      plan_cache_;
  mutable uint64_t plan_epoch_ = 0;
  mutable uint64_t plan_generation_ = 0;
  mutable uint64_t plan_hits_ = 0;
  mutable uint64_t plan_misses_ = 0;
  /// The plan the executor chose for the most recent Query() (under
  /// plan_mu_; surfaced by PlannerStatsJson for /statsz).
  mutable std::string last_plan_;
};

}  // namespace mlake::core

#endif  // MLAKE_CORE_MODEL_LAKE_H_
