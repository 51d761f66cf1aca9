#include "replication/replicator.h"

#include <algorithm>
#include <chrono>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/logging.h"
#include "governance/governance.h"
#include "index/snapshot.h"
#include "server/http.h"

namespace mlake::replication {

namespace {

/// Name of the durable watermark file under the replica lake's root.
constexpr char kStateFile[] = "replica_state.json";
/// Scratch file the re-seed container is validated through (the PR-6
/// snapshot reader wants a path on the Fs seam).
constexpr char kReseedFile[] = "reseed.snap";

/// Reconstructs a Status from a leader error response (same mapping the
/// router uses) so fencing/truncation signals keep their code family
/// across the HTTP hop.
Status StatusFromResponse(const server::HttpResponse& response) {
  std::string message =
      "leader answered HTTP " + std::to_string(response.status);
  std::string code;
  if (auto parsed = Json::Parse(response.body);
      parsed.ok() && parsed.ValueUnsafe().is_object()) {
    const Json* err = parsed.ValueUnsafe().Find("error");
    if (err != nullptr && err->is_object()) {
      code = err->GetString("code");
      message = err->GetString("message", message);
    }
  }
  if (code == "NotFound") return Status::NotFound(message);
  if (code == "InvalidArgument") return Status::InvalidArgument(message);
  if (code == "AlreadyExists") return Status::AlreadyExists(message);
  if (code == "FailedPrecondition") return Status::FailedPrecondition(message);
  if (code == "ResourceExhausted") return Status::ResourceExhausted(message);
  if (code == "DeadlineExceeded") return Status::DeadlineExceeded(message);
  if (code == "Unavailable") return Status::Unavailable(message);
  if (code == "Corruption") return Status::Corruption(message);
  return Status::Internal(message);
}

}  // namespace

Replicator::Replicator(core::ModelLake* lake, ReplicaOptions options)
    : lake_(lake),
      options_(std::move(options)),
      fs_(options_.fs != nullptr ? options_.fs : RealFs()),
      state_path_(JoinPath(lake->options().root, kStateFile)),
      client_(std::make_unique<server::HttpClient>(options_.leader_host,
                                                   options_.leader_port)) {
  client_->set_timeout_ms(options_.timeout_ms);
}

Result<std::unique_ptr<Replicator>> Replicator::Open(core::ModelLake* lake,
                                                     ReplicaOptions options) {
  if (lake == nullptr) {
    return Status::InvalidArgument("Replicator needs a lake");
  }
  if (!lake->ReplicationLogEnabled()) {
    return Status::FailedPrecondition(
        "replica lake must be opened with LakeOptions.replication_log");
  }
  std::unique_ptr<Replicator> replicator(
      new Replicator(lake, std::move(options)));
  MLAKE_RETURN_NOT_OK(replicator->LoadState());
  return replicator;
}

Replicator::~Replicator() { (void)Stop(); }

Status Replicator::LoadState() {
  uint64_t state_seq = 0;
  uint64_t state_epoch = 0;
  if (fs_->FileExists(state_path_)) {
    MLAKE_ASSIGN_OR_RETURN(std::string raw, fs_->ReadFile(state_path_));
    MLAKE_ASSIGN_OR_RETURN(Json j, Json::Parse(raw));
    if (!j.is_object()) {
      return Status::Corruption("replica state file: not an object");
    }
    state_seq = static_cast<uint64_t>(j.GetInt64("applied_seq", 0));
    state_epoch = static_cast<uint64_t>(j.GetInt64("epoch", 0));
  }
  // The lake's own journal is equally authoritative: a crash after an
  // entry committed but before the watermark write leaves the state
  // file one behind; a crash after PersistState but before the lake
  // commit leaves it one ahead of a rolled-back apply. Taking the max
  // is safe either way because applies are idempotent (redelivery of an
  // applied entry is detected and skipped, and the watermark is only
  // ever advanced past entries that are durably in the lake).
  applied_seq_ = std::max(state_seq, lake_->ReplicationLastSeq());
  epoch_ = std::max(state_epoch, lake_->ReplicationEpoch());
  return Status::OK();
}

Status Replicator::PersistState() {
  Json j = Json::MakeObject();
  j.Set("applied_seq", Json(applied_seq_.load()));
  j.Set("epoch", Json(epoch_.load()));
  return WriteFileAtomic(fs_, state_path_, j.Dump());
}

Status Replicator::Start() {
  if (running_.exchange(true)) return Status::OK();
  puller_ = std::thread([this] { PullLoop(); });
  return Status::OK();
}

Status Replicator::Stop() {
  running_ = false;
  if (puller_.joinable()) puller_.join();
  return Status::OK();
}

Result<size_t> Replicator::SyncOnce() {
  std::lock_guard<std::mutex> lock(apply_mu_);
  size_t applied = 0;
  // Bounded so a leader that keeps answering "more" (or a reseed loop)
  // cannot wedge the caller forever.
  for (int rounds = 0; rounds < 10000; ++rounds) {
    std::string path =
        "/v1/replication/log?from=" + std::to_string(applied_seq_ + 1) +
        "&max=" + std::to_string(options_.batch_max);
    auto response = client_->Get(path, {}, options_.timeout_ms);
    if (!response.ok()) return response.status();
    if (response.ValueUnsafe().status == 409) {
      // FailedPrecondition: the leader truncated its log past our
      // watermark (or we are fenced) — only a re-seed can catch us up.
      MLAKE_RETURN_NOT_OK(ReseedFromLeaderLocked());
      continue;
    }
    if (response.ValueUnsafe().status != 200) {
      return StatusFromResponse(response.ValueUnsafe());
    }
    MLAKE_ASSIGN_OR_RETURN(Json batch,
                           Json::Parse(response.ValueUnsafe().body));
    Status batch_status = ApplyBatchLocked(batch, &applied);
    if (batch_status.IsCorruption()) {
      // The lake holds a different answer than the log claims — repair
      // wholesale rather than fail forever on the same entry.
      MLAKE_LOG_WARNING << "replica: divergence during apply ("
                        << batch_status.ToString() << "); re-seeding";
      MLAKE_RETURN_NOT_OK(ReseedFromLeaderLocked());
      continue;
    }
    MLAKE_RETURN_NOT_OK(batch_status);
    if (batch.GetBool("exhausted", false)) break;
  }
  // Only now is leader_last_seq_ a trustworthy watermark — governance
  // reads stay fenced (503) until one full sync has landed.
  synced_.store(true, std::memory_order_relaxed);
  return applied;
}

Status Replicator::ApplyBatchLocked(const Json& batch, size_t* applied) {
  if (!batch.is_object()) {
    return Status::InvalidArgument("log batch must be an object");
  }
  uint64_t batch_epoch = static_cast<uint64_t>(batch.GetInt64("epoch", 0));
  // Epoch fencing: a batch from a stale leader (lower term than we have
  // durably seen) is rejected outright — a partitioned old leader must
  // not be able to roll this replica back or fork its log.
  if (batch_epoch < epoch_.load()) {
    rejected_stale_epoch_.fetch_add(1, std::memory_order_relaxed);
    return Status::FailedPrecondition(
        "stale leader epoch " + std::to_string(batch_epoch) +
        " < replica epoch " + std::to_string(epoch_.load()));
  }
  if (batch_epoch > epoch_.load()) {
    // New term: adopt it durably before applying anything under it.
    MLAKE_RETURN_NOT_OK(lake_->SetReplicationEpoch(batch_epoch));
    epoch_ = batch_epoch;
    MLAKE_RETURN_NOT_OK(PersistState());
  }
  uint64_t last_seq = static_cast<uint64_t>(batch.GetInt64("last_seq", 0));
  if (last_seq > 0) leader_last_seq_ = last_seq;
  const Json* inline_blobs = batch.Find("blobs");
  if (const Json* entries = batch.Find("entries");
      entries != nullptr && entries->is_array()) {
    for (const Json& ej : entries->AsArray()) {
      MLAKE_ASSIGN_OR_RETURN(storage::Intent entry,
                             storage::Intent::FromJson(ej));
      MLAKE_RETURN_NOT_OK(ApplyEntryLocked(entry, inline_blobs, applied));
    }
  }
  // Local-only leader ops (index compaction) occupy seqs that are never
  // shipped; when the scan was exhausted the watermark may fast-forward
  // across those gaps to the leader's high-water mark.
  if (batch.GetBool("exhausted", false) && last_seq > applied_seq_.load()) {
    applied_seq_ = last_seq;
    MLAKE_RETURN_NOT_OK(PersistState());
  }
  return Status::OK();
}

Status Replicator::ApplyEntryLocked(const storage::Intent& entry,
                                    const Json* inline_blobs,
                                    size_t* applied) {
  if (entry.seq <= applied_seq_.load()) return Status::OK();
  MLAKE_ASSIGN_OR_RETURN(bool done, lake_->HasApplied(entry));
  if (!done) {
    std::map<std::string, std::string> blobs;
    for (const std::string& digest : entry.digests) {
      std::string bytes;
      const Json* inlined = inline_blobs != nullptr && inline_blobs->is_object()
                                ? inline_blobs->Find(digest)
                                : nullptr;
      if (inlined != nullptr && inlined->is_string()) {
        MLAKE_ASSIGN_OR_RETURN(bytes,
                               server::Base64Decode(inlined->AsString()));
      } else {
        MLAKE_ASSIGN_OR_RETURN(bytes, FetchBlob(digest));
      }
      blobs[digest] = std::move(bytes);
    }
    MLAKE_RETURN_NOT_OK(lake_->ApplyReplicated(entry, blobs));
    entries_applied_.fetch_add(1, std::memory_order_relaxed);
    if (applied != nullptr) ++*applied;
  }
  // The entry is durably in the lake (just now, or from before a lost
  // watermark); only now may the watermark pass it.
  applied_seq_ = entry.seq;
  return PersistState();
}

Result<std::string> Replicator::FetchBlob(const std::string& digest) {
  auto response = client_->Get("/v1/replication/blob/" + digest, {},
                               options_.timeout_ms);
  if (!response.ok()) return response.status();
  if (response.ValueUnsafe().status != 200) {
    return StatusFromResponse(response.ValueUnsafe());
  }
  MLAKE_ASSIGN_OR_RETURN(Json j, Json::Parse(response.ValueUnsafe().body));
  MLAKE_ASSIGN_OR_RETURN(std::string bytes,
                         server::Base64Decode(j.GetString("bytes_b64")));
  if (Sha256::HexDigest(bytes) != digest) {
    return Status::Corruption("leader blob does not match digest " + digest);
  }
  return bytes;
}

Status Replicator::ReseedFromLeaderLocked() {
  auto response =
      client_->Get("/v1/replication/seed", {}, options_.timeout_ms);
  if (!response.ok()) return response.status();
  if (response.ValueUnsafe().status != 200) {
    return StatusFromResponse(response.ValueUnsafe());
  }
  MLAKE_ASSIGN_OR_RETURN(Json j, Json::Parse(response.ValueUnsafe().body));
  MLAKE_ASSIGN_OR_RETURN(std::string container,
                         server::Base64Decode(j.GetString("container_b64")));
  // Validate through the snapshot container (magic + CRC'd TOC) before
  // trusting the manifest; the reader wants a path on the Fs seam.
  std::string scratch = JoinPath(lake_->options().root, kReseedFile);
  MLAKE_RETURN_NOT_OK(WriteFileAtomic(fs_, scratch, container));
  MLAKE_ASSIGN_OR_RETURN(
      index::SnapshotReader reader,
      index::SnapshotReader::Open(fs_, scratch,
                                  index::SnapshotKind::kReplicationSeed));
  MLAKE_ASSIGN_OR_RETURN(std::string_view manifest_bytes,
                         reader.Section("manifest"));
  MLAKE_ASSIGN_OR_RETURN(Json manifest, Json::Parse(manifest_bytes));
  MLAKE_RETURN_NOT_OK(lake_->ReseedFromManifest(
      manifest, [this](const std::string& digest) -> Result<std::string> {
        return FetchBlob(digest);
      }));
  uint64_t upto = static_cast<uint64_t>(manifest.GetInt64("upto_seq", 0));
  uint64_t seed_epoch = static_cast<uint64_t>(manifest.GetInt64("epoch", 0));
  if (upto > applied_seq_.load()) applied_seq_ = upto;
  if (seed_epoch > epoch_.load()) epoch_ = seed_epoch;
  MLAKE_RETURN_NOT_OK(PersistState());
  (void)fs_->RemoveFile(scratch);
  reseeds_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Replicator::CheckDivergence() {
  std::lock_guard<std::mutex> lock(apply_mu_);
  return CheckDivergenceLocked();
}

Status Replicator::CheckDivergenceLocked() {
  auto response =
      client_->Get("/v1/replication/fingerprint", {}, options_.timeout_ms);
  if (!response.ok()) return response.status();
  if (response.ValueUnsafe().status != 200) {
    return StatusFromResponse(response.ValueUnsafe());
  }
  MLAKE_ASSIGN_OR_RETURN(Json j, Json::Parse(response.ValueUnsafe().body));
  uint64_t leader_seq = static_cast<uint64_t>(j.GetInt64("last_seq", 0));
  if (leader_seq != applied_seq_.load()) {
    // Not caught up (or ahead after a promote elsewhere): fingerprints
    // describe different prefixes, so a mismatch proves nothing.
    return Status::OK();
  }
  if (j.GetString("fingerprint") == lake_->ReplicationFingerprint()) {
    return Status::OK();
  }
  MLAKE_LOG_WARNING << "replica: fingerprint mismatch at seq "
                    << leader_seq << "; re-seeding from leader";
  return ReseedFromLeaderLocked();
}

Json Replicator::StatszJson() const {
  uint64_t applied = applied_seq_.load();
  uint64_t leader_seq = leader_last_seq_.load();
  Json out = Json::MakeObject();
  out.Set("role", is_replica_.load() ? "replica" : "leader");
  out.Set("leader", options_.leader_host + ":" +
                        std::to_string(options_.leader_port));
  out.Set("applied_seq", Json(applied));
  out.Set("leader_last_seq", Json(leader_seq));
  out.Set("lag", Json(leader_seq > applied ? leader_seq - applied
                                           : uint64_t{0}));
  out.Set("caught_up", leader_seq <= applied);
  out.Set("epoch", Json(epoch_.load()));
  out.Set("entries_applied", Json(entries_applied_.load()));
  out.Set("polls", Json(polls_.load()));
  out.Set("reseeds", Json(reseeds_.load()));
  out.Set("rejected_stale_epoch", Json(rejected_stale_epoch_.load()));
  out.Set("pull_errors", Json(pull_errors_.load()));
  out.Set("synced", synced_.load());
  out.Set("stale_retry_after_s", StaleRetryAfterSeconds());
  return out;
}

uint64_t Replicator::LagEntries() const {
  uint64_t applied = applied_seq_.load();
  uint64_t leader_seq = leader_last_seq_.load();
  return leader_seq > applied ? leader_seq - applied : uint64_t{0};
}

bool Replicator::CaughtUp() const {
  return synced_.load() && LagEntries() == 0;
}

int Replicator::StaleRetryAfterSeconds() const {
  return governance::RetryAfterSeconds(LagEntries(), options_.batch_max,
                                       options_.poll_interval_ms);
}

Result<Json> Replicator::Ship(const Json& batch) {
  if (!is_replica_.load()) {
    return Status::FailedPrecondition("promoted: no longer accepts ships");
  }
  std::lock_guard<std::mutex> lock(apply_mu_);
  size_t applied = 0;
  MLAKE_RETURN_NOT_OK(ApplyBatchLocked(batch, &applied));
  // A pushed batch carries the leader's frontier just like a pull does,
  // so a ship-fed replica is equally eligible for governance reads.
  synced_.store(true, std::memory_order_relaxed);
  Json out = Json::MakeObject();
  out.Set("applied", Json(static_cast<uint64_t>(applied)));
  out.Set("applied_seq", Json(applied_seq_.load()));
  out.Set("epoch", Json(epoch_.load()));
  return out;
}

Status Replicator::Promote() {
  // Stop following first so no pull races the epoch bump.
  running_ = false;
  if (puller_.joinable()) puller_.join();
  std::lock_guard<std::mutex> lock(apply_mu_);
  if (!is_replica_.load()) return Status::OK();
  // The new term must exceed every epoch this node has seen; the lake's
  // journal epoch tracks that (every adopted epoch was written through
  // SetReplicationEpoch).
  MLAKE_ASSIGN_OR_RETURN(uint64_t next, lake_->BumpReplicationEpoch());
  epoch_ = next;
  is_replica_ = false;
  MLAKE_RETURN_NOT_OK(PersistState());
  MLAKE_LOG_INFO << "replica promoted to leader at epoch " << next
                 << ", applied_seq " << applied_seq_.load();
  return Status::OK();
}

void Replicator::PullLoop() {
  int caught_up_polls = 0;
  while (running_.load()) {
    auto pulled = SyncOnce();
    polls_.fetch_add(1, std::memory_order_relaxed);
    if (!pulled.ok()) {
      pull_errors_.fetch_add(1, std::memory_order_relaxed);
    } else if (options_.fingerprint_interval_polls > 0 &&
               ++caught_up_polls >= options_.fingerprint_interval_polls) {
      caught_up_polls = 0;
      Status checked = CheckDivergence();
      if (!checked.ok()) {
        pull_errors_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Sliced sleep so Stop()/Promote() are honored promptly.
    auto wake = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(options_.poll_interval_ms);
    while (running_.load() && std::chrono::steady_clock::now() < wake) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

}  // namespace mlake::replication
