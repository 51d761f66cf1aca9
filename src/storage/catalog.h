#ifndef MLAKE_STORAGE_CATALOG_H_
#define MLAKE_STORAGE_CATALOG_H_

#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "storage/kv_store.h"

namespace mlake::storage {

/// Namespaced document catalog on top of the KV store.
///
/// Keys are "<kind>/<id>" where kind is one of the lake's entity kinds
/// ("model", "card", "edge", "benchmark", ...). All lake metadata that
/// is not raw weights lives here. Most kinds hold compact JSON docs;
/// a kind may instead hold raw bytes of its own format (the lake's
/// "vec" kind: little-endian float32 embeddings).
class Catalog {
 public:
  /// Catalog writes collected for one `Write`: one log append, applied
  /// all or nothing (see KvStore::Write).
  class Batch {
   public:
    void PutDoc(const std::string& kind, const std::string& id,
                const Json& doc) {
      PutRaw(kind, id, doc.Dump());
    }
    void PutRaw(const std::string& kind, const std::string& id,
                std::string bytes);
    void DeleteDoc(const std::string& kind, const std::string& id);

   private:
    friend class Catalog;
    void Add(const std::string& kind, const std::string& id,
             std::string bytes, bool erase);

    std::vector<KvWrite> writes_;
    Status status_;  // first invalid kind/id; fails the whole Write
  };

  /// `fs` is the storage seam (nullptr = real filesystem).
  static Result<std::unique_ptr<Catalog>> Open(const std::string& path,
                                               Fs* fs = nullptr);

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  Status PutDoc(const std::string& kind, const std::string& id,
                const Json& doc);

  /// Applies every write of `batch`, in order, with one log append.
  Status Write(Batch batch);

  Result<Json> GetDoc(const std::string& kind, const std::string& id) const;

  /// The stored bytes of a doc (its compact `Dump()` for a JSON doc),
  /// unparsed.
  Result<std::string> GetRaw(const std::string& kind,
                             const std::string& id) const;

  bool Contains(const std::string& kind, const std::string& id) const;

  Status DeleteDoc(const std::string& kind, const std::string& id);

  /// All ids of a kind, sorted.
  std::vector<std::string> ListIds(const std::string& kind) const;

  size_t CountKind(const std::string& kind) const {
    return ListIds(kind).size();
  }

  /// Compacts the underlying log.
  Status Compact() { return kv_->Compact(); }

  /// Durability point: fsyncs the underlying log (see KvStore::Sync).
  Status Sync() { return kv_->Sync(); }

  KvStore* kv() { return kv_.get(); }

 private:
  explicit Catalog(std::unique_ptr<KvStore> kv) : kv_(std::move(kv)) {}

  static std::string KeyFor(const std::string& kind, const std::string& id) {
    return kind + "/" + id;
  }

  std::unique_ptr<KvStore> kv_;
};

}  // namespace mlake::storage

#endif  // MLAKE_STORAGE_CATALOG_H_
