#ifndef MLAKE_INDEX_SNAPSHOT_H_
#define MLAKE_INDEX_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/fs.h"
#include "common/mmap_file.h"
#include "common/result.h"

namespace mlake::index {

/// Versioned on-disk container for index snapshots.
///
/// Layout (little-endian, all sections 8-byte aligned):
///
///   [ 0..8)   magic "MLSNAP01"
///   [ 8..12)  u32 format version (kFormatVersion)
///   [12..16)  u32 kind (which index wrote it — SnapshotKind)
///   [16..24)  u64 generation (the lake's compaction counter)
///   [24..32)  u64 total file size (truncation check)
///   [32..40)  u64 section count
///   [40..44)  u32 CRC-32 of the TOC block
///   [44..48)  u32 reserved (0)
///   then TOC: count * { char name[16]; u64 offset; u64 size; }
///   then payload sections, 8-byte aligned, zero padded between.
///
/// Load is mmap + header/TOC validation only — payload bytes are served
/// straight from the mapping and never copied or checksummed up front
/// (the mapping is page-cache backed; a snapshot is a pure cache of the
/// catalog, so a corrupt payload can at worst degrade search until the
/// next compaction, never lose data). When the Fs seam refuses mmap
/// (fault injection does), the reader falls back to a copying read into
/// an aligned owned buffer so injected faults stay observable.
enum class SnapshotKind : uint32_t {
  kHnsw = 1,
  kInverted = 2,
  kMinHashLsh = 3,
  kLakeIds = 4,
  /// Replication re-seed manifest (one "manifest" JSON section) shipped
  /// leader → replica for divergence repair; generation = the leader's
  /// log seq the seed was cut at.
  kReplicationSeed = 5,
};

inline constexpr uint32_t kSnapshotFormatVersion = 1;

/// Accumulates named byte sections and writes the container atomically.
class SnapshotWriter {
 public:
  SnapshotWriter(SnapshotKind kind, uint64_t generation)
      : kind_(kind), generation_(generation) {}

  /// Adds a section. Names are at most 15 bytes and must be unique;
  /// violations fail at WriteTo/Serialize time.
  void AddSection(std::string_view name, const void* data, size_t bytes);

  template <typename T>
  void AddArray(std::string_view name, const std::vector<T>& v) {
    AddSection(name, v.data(), v.size() * sizeof(T));
  }

  /// Adds a section whose bytes the caller already owns (no copy).
  void AddSection(std::string_view name, std::string bytes);

  /// Serializes header + TOC + payload into one buffer.
  Result<std::string> Serialize() const;

  /// Serializes and writes via WriteFileAtomic (temp + fsync + rename).
  Status WriteTo(Fs* fs, const std::string& path) const;

 private:
  SnapshotKind kind_;
  uint64_t generation_;
  std::vector<std::pair<std::string, std::string>> sections_;
};

/// Validated view over a snapshot file. Movable; owns the mapping (or
/// the fallback buffer), so sections stay valid for its lifetime.
class SnapshotReader {
 public:
  /// Opens and validates `path`. Tries fs->Mmap first, falls back to
  /// ReadFile. Bad magic, version/kind mismatch, truncation, a TOC CRC
  /// mismatch or out-of-bounds section extents all yield a clean
  /// Corruption/InvalidArgument error — never UB.
  static Result<SnapshotReader> Open(Fs* fs, const std::string& path,
                                     SnapshotKind expected_kind);

  SnapshotReader() = default;
  SnapshotReader(SnapshotReader&&) = default;
  SnapshotReader& operator=(SnapshotReader&&) = default;

  uint64_t generation() const { return generation_; }
  /// True when the payload is served zero-copy from an mmap.
  bool mapped() const { return map_.valid(); }

  bool HasSection(std::string_view name) const;

  /// Raw bytes of a named section.
  Result<std::string_view> Section(std::string_view name) const;

  /// Typed array view of a section; the size must divide evenly.
  template <typename T>
  Result<std::pair<const T*, size_t>> Array(std::string_view name) const {
    MLAKE_ASSIGN_OR_RETURN(std::string_view bytes, Section(name));
    if (bytes.size() % sizeof(T) != 0) {
      return Status::Corruption("snapshot section '" + std::string(name) +
                                "' size not a multiple of element size");
    }
    return std::make_pair(reinterpret_cast<const T*>(bytes.data()),
                          bytes.size() / sizeof(T));
  }

 private:
  struct Entry {
    std::string name;
    uint64_t offset;
    uint64_t size;
  };

  Status Validate(SnapshotKind expected_kind, const std::string& path);

  MmapFile map_;
  // Fallback buffer (u64-aligned so typed section views are aligned).
  std::vector<uint64_t> owned_;
  std::string_view bytes_;
  uint64_t generation_ = 0;
  std::vector<Entry> entries_;
};

/// Flattens `items` into a CSR string table: `offsets` (items + 1
/// entries, from 0) into the concatenated `bytes`.
void BuildStringTable(const std::vector<std::string>& items,
                      std::vector<uint64_t>* offsets, std::string* bytes);

/// Whether a CSR offset array read from a snapshot runs non-decreasing
/// from 0 to `limit` — the check every table must pass before its
/// extents index anything.
bool OffsetsWellFormed(const uint64_t* off, size_t count, uint64_t limit);

}  // namespace mlake::index

#endif  // MLAKE_INDEX_SNAPSHOT_H_
