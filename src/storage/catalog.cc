#include "storage/catalog.h"

namespace mlake::storage {

Result<std::unique_ptr<Catalog>> Catalog::Open(const std::string& path,
                                               Fs* fs) {
  MLAKE_ASSIGN_OR_RETURN(std::unique_ptr<KvStore> kv,
                         KvStore::Open(path, {}, fs));
  return std::unique_ptr<Catalog>(new Catalog(std::move(kv)));
}

void Catalog::Batch::Add(const std::string& kind, const std::string& id,
                         std::string bytes, bool erase) {
  if (!status_.ok()) return;  // the Write fails anyway
  if (kind.empty() || id.empty()) {
    status_ = Status::InvalidArgument("catalog: empty kind or id");
    return;
  }
  if (kind.find('/') != std::string::npos) {
    status_ = Status::InvalidArgument("catalog: kind must not contain '/'");
    return;
  }
  writes_.push_back({KeyFor(kind, id), std::move(bytes), erase});
}

void Catalog::Batch::PutRaw(const std::string& kind, const std::string& id,
                            std::string bytes) {
  Add(kind, id, std::move(bytes), /*erase=*/false);
}

void Catalog::Batch::DeleteDoc(const std::string& kind,
                               const std::string& id) {
  Add(kind, id, std::string(), /*erase=*/true);
}

Status Catalog::Write(Batch batch) {
  MLAKE_RETURN_NOT_OK(batch.status_);
  return kv_->Write(std::move(batch.writes_));
}

Status Catalog::PutDoc(const std::string& kind, const std::string& id,
                       const Json& doc) {
  Batch batch;
  batch.PutDoc(kind, id, doc);
  return Write(std::move(batch));
}

Result<Json> Catalog::GetDoc(const std::string& kind,
                             const std::string& id) const {
  MLAKE_ASSIGN_OR_RETURN(std::string raw, GetRaw(kind, id));
  return Json::Parse(raw);
}

Result<std::string> Catalog::GetRaw(const std::string& kind,
                                    const std::string& id) const {
  return kv_->Get(KeyFor(kind, id));
}

bool Catalog::Contains(const std::string& kind, const std::string& id) const {
  return kv_->Contains(KeyFor(kind, id));
}

Status Catalog::DeleteDoc(const std::string& kind, const std::string& id) {
  return kv_->Delete(KeyFor(kind, id));
}

std::vector<std::string> Catalog::ListIds(const std::string& kind) const {
  std::string prefix = kind + "/";
  std::vector<std::string> ids;
  for (const std::string& key : kv_->ScanPrefix(prefix)) {
    ids.push_back(key.substr(prefix.size()));
  }
  return ids;
}

}  // namespace mlake::storage
