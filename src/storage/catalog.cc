#include "storage/catalog.h"

namespace mlake::storage {

Result<std::unique_ptr<Catalog>> Catalog::Open(const std::string& path,
                                               Fs* fs) {
  MLAKE_ASSIGN_OR_RETURN(std::unique_ptr<KvStore> kv,
                         KvStore::Open(path, {}, fs));
  return std::unique_ptr<Catalog>(new Catalog(std::move(kv)));
}

Status Catalog::PutDoc(const std::string& kind, const std::string& id,
                       const Json& doc) {
  if (kind.empty() || id.empty()) {
    return Status::InvalidArgument("catalog: empty kind or id");
  }
  if (kind.find('/') != std::string::npos) {
    return Status::InvalidArgument("catalog: kind must not contain '/'");
  }
  return kv_->Put(KeyFor(kind, id), doc.Dump());
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
