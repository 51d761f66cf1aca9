#include "index/snapshot.h"

#include <cstring>

#include "common/hash.h"

namespace mlake::index {

namespace {

constexpr char kMagic[8] = {'M', 'L', 'S', 'N', 'A', 'P', '0', '1'};
constexpr size_t kHeaderBytes = 48;
constexpr size_t kNameBytes = 16;
constexpr size_t kTocEntryBytes = kNameBytes + 8 + 8;

size_t AlignUp8(size_t n) { return (n + 7) & ~size_t{7}; }

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), 8);
}
uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t GetU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace

void SnapshotWriter::AddSection(std::string_view name, const void* data,
                                size_t bytes) {
  sections_.emplace_back(
      std::string(name),
      std::string(static_cast<const char*>(data), bytes));
}

void SnapshotWriter::AddSection(std::string_view name, std::string bytes) {
  sections_.emplace_back(std::string(name), std::move(bytes));
}

Result<std::string> SnapshotWriter::Serialize() const {
  for (size_t i = 0; i < sections_.size(); ++i) {
    if (sections_[i].first.empty() ||
        sections_[i].first.size() >= kNameBytes) {
      return Status::InvalidArgument("snapshot section name length");
    }
    for (size_t j = i + 1; j < sections_.size(); ++j) {
      if (sections_[i].first == sections_[j].first) {
        return Status::InvalidArgument("duplicate snapshot section: " +
                                       sections_[i].first);
      }
    }
  }

  size_t toc_bytes = sections_.size() * kTocEntryBytes;
  size_t payload_start = AlignUp8(kHeaderBytes + toc_bytes);

  // Lay out sections first so the TOC can record final offsets.
  std::string toc;
  toc.reserve(toc_bytes);
  size_t cursor = payload_start;
  for (const auto& [name, data] : sections_) {
    char name_buf[kNameBytes] = {0};
    std::memcpy(name_buf, name.data(), name.size());
    toc.append(name_buf, kNameBytes);
    PutU64(&toc, cursor);
    PutU64(&toc, data.size());
    cursor = AlignUp8(cursor + data.size());
  }
  uint64_t total = cursor;

  std::string out;
  out.reserve(total);
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, kSnapshotFormatVersion);
  PutU32(&out, static_cast<uint32_t>(kind_));
  PutU64(&out, generation_);
  PutU64(&out, total);
  PutU64(&out, sections_.size());
  PutU32(&out, Crc32(toc));
  PutU32(&out, 0);  // reserved
  out.append(toc);
  out.resize(payload_start, '\0');
  for (const auto& [name, data] : sections_) {
    out.append(data);
    out.resize(AlignUp8(out.size()), '\0');
  }
  if (out.size() != total) {
    return Status::Internal("snapshot serialize size mismatch");
  }
  return out;
}

Status SnapshotWriter::WriteTo(Fs* fs, const std::string& path) const {
  MLAKE_ASSIGN_OR_RETURN(std::string bytes, Serialize());
  return WriteFileAtomic(fs, path, bytes);
}

Status SnapshotReader::Validate(SnapshotKind expected_kind,
                                const std::string& path) {
  const char* p = bytes_.data();
  if (bytes_.size() < kHeaderBytes) {
    return Status::Corruption("snapshot too small: " + path);
  }
  if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("snapshot bad magic: " + path);
  }
  uint32_t version = GetU32(p + 8);
  if (version != kSnapshotFormatVersion) {
    return Status::Corruption("snapshot unsupported version " +
                              std::to_string(version) + ": " + path);
  }
  uint32_t kind = GetU32(p + 12);
  if (kind != static_cast<uint32_t>(expected_kind)) {
    return Status::Corruption("snapshot kind mismatch: " + path);
  }
  generation_ = GetU64(p + 16);
  uint64_t total = GetU64(p + 24);
  uint64_t count = GetU64(p + 32);
  uint32_t toc_crc = GetU32(p + 40);
  if (total != bytes_.size()) {
    return Status::Corruption("snapshot truncated or padded: " + path);
  }
  if (count > (bytes_.size() - kHeaderBytes) / kTocEntryBytes) {
    return Status::Corruption("snapshot TOC count out of bounds: " + path);
  }
  const char* toc = p + kHeaderBytes;
  size_t toc_bytes = static_cast<size_t>(count) * kTocEntryBytes;
  if (Crc32(toc, toc_bytes) != toc_crc) {
    return Status::Corruption("snapshot TOC checksum mismatch: " + path);
  }
  entries_.clear();
  entries_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const char* e = toc + i * kTocEntryBytes;
    size_t name_len = strnlen(e, kNameBytes);
    Entry entry;
    entry.name.assign(e, name_len);
    entry.offset = GetU64(e + kNameBytes);
    entry.size = GetU64(e + kNameBytes + 8);
    if (entry.offset % 8 != 0 || entry.offset > bytes_.size() ||
        entry.size > bytes_.size() - entry.offset) {
      return Status::Corruption("snapshot section out of bounds: " + path);
    }
    entries_.push_back(std::move(entry));
  }
  return Status::OK();
}

Result<SnapshotReader> SnapshotReader::Open(Fs* fs, const std::string& path,
                                            SnapshotKind expected_kind) {
  if (fs == nullptr) fs = RealFs();
  SnapshotReader reader;
  auto mapped = fs->Mmap(path);
  if (mapped.ok()) {
    reader.map_ = mapped.MoveValueUnsafe();
    reader.bytes_ = reader.map_.bytes();
  } else {
    // Fault-injecting and exotic filesystems refuse mmap; fall back to
    // a copying read into an 8-byte-aligned buffer.
    MLAKE_ASSIGN_OR_RETURN(std::string data, fs->ReadFile(path));
    reader.owned_.resize((data.size() + 7) / 8);
    std::memcpy(reader.owned_.data(), data.data(), data.size());
    reader.bytes_ = std::string_view(
        reinterpret_cast<const char*>(reader.owned_.data()), data.size());
  }
  MLAKE_RETURN_NOT_OK(reader.Validate(expected_kind, path));
  return reader;
}

bool SnapshotReader::HasSection(std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

Result<std::string_view> SnapshotReader::Section(
    std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) {
      return std::string_view(bytes_.data() + e.offset, e.size);
    }
  }
  return Status::NotFound("snapshot section not found: " + std::string(name));
}

void BuildStringTable(const std::vector<std::string>& items,
                      std::vector<uint64_t>* offsets, std::string* bytes) {
  offsets->assign(items.size() + 1, 0);
  bytes->clear();
  for (size_t i = 0; i < items.size(); ++i) {
    *bytes += items[i];
    (*offsets)[i + 1] = bytes->size();
  }
}

bool OffsetsWellFormed(const uint64_t* off, size_t count, uint64_t limit) {
  if (count == 0 || off[0] != 0 || off[count - 1] != limit) return false;
  for (size_t i = 1; i < count; ++i) {
    if (off[i] < off[i - 1]) return false;
  }
  return true;
}

}  // namespace mlake::index
