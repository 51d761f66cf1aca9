#include "index/minhash_lsh.h"

#include <algorithm>
#include <limits>

#include "common/hash.h"
#include "common/logging.h"

namespace mlake::index {

namespace {
/// Cheap 64-bit mixer (splitmix64 finalizer) to derive independent hash
/// functions from one base hash.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

MinHashSignature ComputeMinHash(const std::vector<std::string>& items,
                                size_t num_hashes, uint64_t seed) {
  MinHashSignature sig(num_hashes, std::numeric_limits<uint64_t>::max());
  for (const std::string& item : items) {
    uint64_t base = Fnv1a64(item);
    for (size_t h = 0; h < num_hashes; ++h) {
      uint64_t v = Mix(base ^ Mix(seed + h));
      if (v < sig[h]) sig[h] = v;
    }
  }
  return sig;
}

double EstimateJaccard(const MinHashSignature& a, const MinHashSignature& b) {
  MLAKE_CHECK(a.size() == b.size()) << "signature length mismatch";
  if (a.empty()) return 0.0;
  size_t agree = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) ++agree;
  }
  return static_cast<double>(agree) / static_cast<double>(a.size());
}

MinHashLsh::MinHashLsh(size_t bands, size_t rows)
    : bands_(bands), rows_(rows), buckets_(bands) {
  MLAKE_CHECK(bands > 0 && rows > 0) << "MinHashLsh: bad banding";
}

int64_t MinHashLsh::BaseIndex(std::string_view id) const {
  int64_t lo = 0, hi = static_cast<int64_t>(base_n_) - 1;
  while (lo <= hi) {
    int64_t mid = lo + (hi - lo) / 2;
    std::string_view entry = BaseId(static_cast<size_t>(mid));
    int cmp = entry.compare(id);
    if (cmp == 0) return mid;
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return -1;
}

std::string_view MinHashLsh::BaseId(size_t i) const {
  return std::string_view(bid_bytes_ + bid_off_[i],
                          static_cast<size_t>(bid_off_[i + 1] - bid_off_[i]));
}

uint64_t MinHashLsh::BandBucket(const MinHashSignature& signature,
                                size_t band) const {
  return Fnv1a64(
      reinterpret_cast<const char*>(signature.data() + band * rows_),
      rows_ * sizeof(uint64_t));
}

Status MinHashLsh::Add(const std::string& id,
                       const MinHashSignature& signature) {
  if (signature.size() != bands_ * rows_) {
    return Status::InvalidArgument("MinHashLsh: signature length mismatch");
  }
  if (signatures_.count(id) > 0) {
    return Status::AlreadyExists("MinHashLsh: id already present: " + id);
  }
  int64_t bi = base_n_ > 0 ? BaseIndex(id) : -1;
  if (bi >= 0 && !BaseDead(static_cast<size_t>(bi))) {
    return Status::AlreadyExists("MinHashLsh: id already present: " + id);
  }
  signatures_[id] = signature;
  for (size_t b = 0; b < bands_; ++b) {
    buckets_[b][BandBucket(signature, b)].push_back(id);
  }
  return Status::OK();
}

void MinHashLsh::Remove(const std::string& id) {
  auto it = signatures_.find(id);
  if (it != signatures_.end()) {
    for (size_t b = 0; b < bands_; ++b) {
      uint64_t bucket = BandBucket(it->second, b);
      auto bucket_it = buckets_[b].find(bucket);
      if (bucket_it == buckets_[b].end()) continue;
      auto& ids = bucket_it->second;
      ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
      if (ids.empty()) buckets_[b].erase(bucket_it);
    }
    signatures_.erase(it);
    return;
  }
  int64_t bi = base_n_ > 0 ? BaseIndex(id) : -1;
  if (bi < 0 || BaseDead(static_cast<size_t>(bi))) return;
  if (base_dead_.empty()) base_dead_.assign(base_n_, 0);
  base_dead_[static_cast<size_t>(bi)] = 1;
  ++base_dead_count_;
}

std::vector<std::string> MinHashLsh::QueryCandidates(
    const MinHashSignature& signature) const {
  std::vector<std::string> out;
  if (signature.size() != bands_ * rows_) return out;
  for (size_t b = 0; b < bands_; ++b) {
    uint64_t bucket = BandBucket(signature, b);
    if (base_n_ > 0) {
      // Band b's keys occupy [b*n, (b+1)*n), sorted: binary search the
      // run of equal bucket hashes.
      const uint64_t* begin = bband_key_ + b * base_n_;
      const uint64_t* end = begin + base_n_;
      for (const uint64_t* p = std::lower_bound(begin, end, bucket);
           p != end && *p == bucket; ++p) {
        uint32_t idx = bband_idx_[p - bband_key_];
        if (idx >= base_n_ || BaseDead(idx)) continue;
        out.emplace_back(BaseId(idx));
      }
    }
    auto it = buckets_[b].find(bucket);
    if (it == buckets_[b].end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<MinHashLsh::OverlapHit> MinHashLsh::Query(
    const MinHashSignature& signature, double threshold) const {
  std::vector<OverlapHit> hits;
  for (const std::string& id : QueryCandidates(signature)) {
    double j = 0.0;
    auto it = signatures_.find(id);
    if (it != signatures_.end()) {
      j = EstimateJaccard(signature, it->second);
    } else {
      int64_t bi = BaseIndex(id);
      if (bi < 0) continue;
      const uint64_t* sig = bsigs_ + static_cast<size_t>(bi) * bands_ * rows_;
      size_t agree = 0;
      for (size_t i = 0; i < signature.size(); ++i) {
        if (signature[i] == sig[i]) ++agree;
      }
      j = static_cast<double>(agree) / static_cast<double>(signature.size());
    }
    if (j >= threshold) hits.push_back(OverlapHit{id, j});
  }
  std::sort(hits.begin(), hits.end(),
            [](const OverlapHit& a, const OverlapHit& b) {
              return a.jaccard > b.jaccard ||
                     (a.jaccard == b.jaccard && a.id < b.id);
            });
  return hits;
}

Status MinHashLsh::SaveSnapshot(Fs* fs, const std::string& path,
                                uint64_t generation) const {
  if (base_n_ > 0 && !signatures_.empty()) {
    return Status::FailedPrecondition(
        "MinHashLsh: cannot snapshot a two-segment index; compact first");
  }

  // Live entries sorted by id.
  std::vector<std::pair<std::string, const uint64_t*>> live;
  if (base_n_ > 0) {
    for (size_t i = 0; i < base_n_; ++i) {
      if (BaseDead(i)) continue;
      live.emplace_back(std::string(BaseId(i)),
                        bsigs_ + i * bands_ * rows_);
    }
  } else {
    live.reserve(signatures_.size());
    for (const auto& [id, sig] : signatures_) {
      live.emplace_back(id, sig.data());
    }
    std::sort(live.begin(), live.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  size_t n = live.size();

  std::vector<uint64_t> id_off(n + 1, 0);
  std::string id_bytes;
  std::vector<uint64_t> sigs;
  sigs.reserve(n * bands_ * rows_);
  for (size_t i = 0; i < n; ++i) {
    id_bytes += live[i].first;
    id_off[i + 1] = id_bytes.size();
    sigs.insert(sigs.end(), live[i].second,
                live[i].second + bands_ * rows_);
  }

  // Per band: (bucket hash, entry index) pairs sorted by hash then
  // index, flattened band-major.
  std::vector<uint64_t> band_key(bands_ * n, 0);
  std::vector<uint32_t> band_idx(bands_ * n, 0);
  std::vector<std::pair<uint64_t, uint32_t>> pairs(n);
  for (size_t b = 0; b < bands_; ++b) {
    for (size_t i = 0; i < n; ++i) {
      pairs[i] = {Fnv1a64(reinterpret_cast<const char*>(
                              sigs.data() + i * bands_ * rows_ + b * rows_),
                          rows_ * sizeof(uint64_t)),
                  static_cast<uint32_t>(i)};
    }
    std::sort(pairs.begin(), pairs.end());
    for (size_t i = 0; i < n; ++i) {
      band_key[b * n + i] = pairs[i].first;
      band_idx[b * n + i] = pairs[i].second;
    }
  }

  std::vector<uint64_t> meta = {n, bands_, rows_, 0};
  SnapshotWriter writer(SnapshotKind::kMinHashLsh, generation);
  writer.AddArray("meta", meta);
  writer.AddArray("id_off", id_off);
  writer.AddSection("id_bytes", id_bytes.data(), id_bytes.size());
  writer.AddArray("sigs", sigs);
  writer.AddArray("band_key", band_key);
  writer.AddArray("band_idx", band_idx);
  return writer.WriteTo(fs, path);
}

Status MinHashLsh::LoadSnapshot(Fs* fs, const std::string& path) {
  if (base_n_ > 0 || !signatures_.empty()) {
    return Status::FailedPrecondition(
        "MinHashLsh: LoadSnapshot requires an empty index");
  }
  MLAKE_ASSIGN_OR_RETURN(
      SnapshotReader snap,
      SnapshotReader::Open(fs, path, SnapshotKind::kMinHashLsh));
  MLAKE_ASSIGN_OR_RETURN(auto meta, snap.Array<uint64_t>("meta"));
  if (meta.second != 4) {
    return Status::Corruption("lsh snapshot meta malformed: " + path);
  }
  uint64_t n = meta.first[0];
  if (meta.first[1] != bands_ || meta.first[2] != rows_) {
    return Status::FailedPrecondition("lsh snapshot banding mismatch: " +
                                      path);
  }
  MLAKE_ASSIGN_OR_RETURN(auto id_off, snap.Array<uint64_t>("id_off"));
  MLAKE_ASSIGN_OR_RETURN(auto id_bytes, snap.Section("id_bytes"));
  MLAKE_ASSIGN_OR_RETURN(auto sigs, snap.Array<uint64_t>("sigs"));
  MLAKE_ASSIGN_OR_RETURN(auto band_key, snap.Array<uint64_t>("band_key"));
  MLAKE_ASSIGN_OR_RETURN(auto band_idx, snap.Array<uint32_t>("band_idx"));
  if (id_off.second != n + 1 || sigs.second != n * bands_ * rows_ ||
      band_key.second != bands_ * n || band_idx.second != bands_ * n) {
    return Status::Corruption("lsh snapshot sections malformed: " + path);
  }
  if (!OffsetsWellFormed(id_off.first, n + 1, id_bytes.size())) {
    return Status::Corruption("lsh snapshot offsets malformed: " + path);
  }

  base_snap_ = std::move(snap);
  base_generation_ = base_snap_.generation();
  base_n_ = static_cast<size_t>(n);
  bid_off_ = id_off.first;
  bid_bytes_ = id_bytes.data();
  bsigs_ = sigs.first;
  bband_key_ = band_key.first;
  bband_idx_ = band_idx.first;
  base_dead_.clear();
  base_dead_count_ = 0;
  return Status::OK();
}

}  // namespace mlake::index
