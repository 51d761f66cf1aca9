#include "storage/kv_store.h"

#include <algorithm>
#include <filesystem>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/logging.h"
#include "tensor/serialize.h"

namespace mlake::storage {

namespace {
constexpr uint8_t kTypePut = 1;
constexpr uint8_t kTypeDelete = 2;
}  // namespace

Result<std::unique_ptr<KvStore>> KvStore::Open(
    const std::string& path, const KvCompactionPolicy& policy, Fs* fs) {
  if (fs == nullptr) fs = RealFs();
  std::unique_ptr<KvStore> store(new KvStore(path, policy, fs));
  MLAKE_RETURN_NOT_OK(store->Replay());
  MLAKE_RETURN_NOT_OK(store->MaybeAutoCompact());
  return store;
}

uint64_t KvStore::RecordSize(const std::string& key, std::string_view value) {
  // crc (4) + type (1) + two length prefixes (4 each) + payloads.
  return 13 + key.size() + value.size();
}

Status KvStore::MaybeAutoCompact() {
  if (!policy_.automatic) return Status::OK();
  if (log_bytes_ <= policy_.min_log_bytes) return Status::OK();
  if (static_cast<double>(log_bytes_) <=
      policy_.max_garbage_ratio *
          static_cast<double>(live_bytes_ > 0 ? live_bytes_ : 1)) {
    return Status::OK();
  }
  MLAKE_RETURN_NOT_OK(Compact());
  ++compaction_count_;
  return Status::OK();
}

void KvStore::EncodeRecord(uint8_t type, const std::string& key,
                           std::string_view value, std::string* out) {
  // u32 crc over [type..value-end], written once the body is in place.
  const size_t start = out->size();
  PutU32(out, 0);
  out->push_back(static_cast<char>(type));
  PutLengthPrefixed(out, key);
  PutLengthPrefixed(out, value);
  const uint32_t crc = Crc32(std::string_view(*out).substr(start + 4));
  for (size_t b = 0; b < 4; ++b) {
    (*out)[start + b] = static_cast<char>((crc >> (8 * b)) & 0xff);
  }
}

Status KvStore::Replay() {
  index_.clear();
  log_bytes_ = 0;
  live_bytes_ = 0;
  if (!fs_->FileExists(path_)) return Status::OK();
  MLAKE_ASSIGN_OR_RETURN(std::string log, fs_->ReadFile(path_));
  ByteReader reader(log);
  size_t valid_end = 0;
  while (!reader.Done()) {
    uint32_t crc;
    size_t record_start = reader.position();
    if (!reader.GetU32(&crc)) break;
    std::string_view type_byte;
    if (!reader.GetBytes(1, &type_byte)) break;
    std::string_view key, value;
    if (!reader.GetLengthPrefixed(&key)) break;
    if (!reader.GetLengthPrefixed(&value)) break;
    // CRC covers [type..value-end].
    std::string_view body(log.data() + record_start + 4,
                          reader.position() - record_start - 4);
    if (Crc32(body) != crc) break;
    uint8_t type = static_cast<uint8_t>(type_byte[0]);
    if (type == kTypePut) {
      std::string key_str(key);
      auto it = index_.find(key_str);
      if (it != index_.end()) {
        live_bytes_ -= RecordSize(key_str, it->second);
      }
      live_bytes_ += RecordSize(key_str, value);
      index_[std::move(key_str)] = std::string(value);
    } else if (type == kTypeDelete) {
      std::string key_str(key);
      auto it = index_.find(key_str);
      if (it != index_.end()) {
        live_bytes_ -= RecordSize(key_str, it->second);
        index_.erase(it);
      }
    } else {
      break;  // unknown record: treat as corrupt tail
    }
    valid_end = reader.position();
  }
  if (valid_end < log.size()) {
    MLAKE_LOG_WARNING << "kv store " << path_ << ": truncating "
                      << (log.size() - valid_end)
                      << " corrupt tail bytes (torn write recovery)";
    MLAKE_RETURN_NOT_OK(fs_->Truncate(path_, valid_end));
    // The repair must itself be durable: without the file+dir sync a
    // second crash could resurrect the torn tail (or lose the inode
    // size change) and re-poison the next replay.
    if (FsyncEnabled()) {
      MLAKE_RETURN_NOT_OK(fs_->SyncFile(path_));
      MLAKE_RETURN_NOT_OK(
          fs_->SyncDir(std::filesystem::path(path_).parent_path().string()));
    }
  }
  log_bytes_ = valid_end;
  return Status::OK();
}

Status KvStore::Write(std::vector<KvWrite>&& batch) {
  uint64_t batch_bytes = 0;
  for (const KvWrite& w : batch) {
    if (w.key.empty()) return Status::InvalidArgument("empty key");
    batch_bytes += RecordSize(w.key, w.value);
  }
  std::string records;
  records.reserve(batch_bytes);
  for (auto w = batch.begin(); w != batch.end(); ++w) {
    // A delete of an absent key is a no-op: no tombstone, and the index
    // loop below leaves it alone too.
    if (w->erase && !index_.contains(w->key) &&
        std::none_of(batch.begin(), w, [&](const KvWrite& earlier) {
          return !earlier.erase && earlier.key == w->key;
        })) {
      continue;
    }
    EncodeRecord(w->erase ? kTypeDelete : kTypePut, w->key,
                 w->erase ? std::string_view() : std::string_view(w->value),
                 &records);
  }
  if (records.empty()) return Status::OK();
  Status st = fs_->AppendFile(path_, records);
  if (!st.ok()) {
    // The append may have landed partially (short write). Cut the log
    // back to the pre-batch length so later appends do not write behind
    // a torn record — CRC replay would stop at the tear and silently
    // drop everything after it.
    if (fs_->FileExists(path_)) {
      Status trunc = fs_->Truncate(path_, log_bytes_);
      if (!trunc.ok()) {
        MLAKE_LOG_WARNING << "kv store " << path_
                          << ": cannot truncate after failed append ("
                          << trunc.ToString()
                          << "); store is read-consistent but the log "
                             "tail is dirty until next reopen";
      }
    }
    return st;
  }
  log_bytes_ += records.size();
  // The index follows the log only once the whole batch is in it.
  for (KvWrite& w : batch) {
    auto it = index_.find(w.key);
    if (it != index_.end()) {
      live_bytes_ -= RecordSize(w.key, it->second);
      if (w.erase) {
        index_.erase(it);
      } else {
        live_bytes_ += RecordSize(w.key, w.value);
        it->second = std::move(w.value);
      }
    } else if (!w.erase) {
      live_bytes_ += RecordSize(w.key, w.value);
      index_.emplace(std::move(w.key), std::move(w.value));
    }
  }
  return MaybeAutoCompact();
}

Status KvStore::Put(const std::string& key, std::string_view value) {
  std::vector<KvWrite> batch;
  batch.push_back({key, std::string(value)});
  return Write(std::move(batch));
}

Result<std::string> KvStore::Get(const std::string& key) const {
  auto it = index_.find(key);
  if (it == index_.end()) {
    return Status::NotFound("key not found: " + key);
  }
  return it->second;
}

bool KvStore::Contains(const std::string& key) const {
  return index_.count(key) > 0;
}

Status KvStore::Delete(const std::string& key) {
  // The tombstone lands in the log before the index forgets the key
  // (see Write): a failed append is then a clean no-op, instead of an
  // in-memory delete that a reopen silently resurrects.
  std::vector<KvWrite> batch;
  batch.push_back({key, std::string(), /*erase=*/true});
  return Write(std::move(batch));
}

std::vector<std::string> KvStore::ScanPrefix(const std::string& prefix) const {
  std::vector<std::string> keys;
  for (auto it = index_.lower_bound(prefix); it != index_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    keys.push_back(it->first);
  }
  return keys;
}

Status KvStore::Compact() {
  std::string compacted;
  compacted.reserve(live_bytes_);
  for (const auto& [key, value] : index_) {
    EncodeRecord(kTypePut, key, value, &compacted);
  }
  MLAKE_RETURN_NOT_OK(WriteFileAtomic(fs_, path_, compacted));
  log_bytes_ = compacted.size();
  return Status::OK();
}

Status KvStore::Sync() {
  if (!FsyncEnabled()) return Status::OK();
  if (!fs_->FileExists(path_)) return Status::OK();
  return fs_->SyncFile(path_);
}

}  // namespace mlake::storage
