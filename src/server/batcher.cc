#include "server/batcher.h"

namespace mlake::server {

Result<std::vector<search::RankedModel>> SearchBatcher::RelatedModels(
    const std::string& id, size_t k) {
  return RunBatched(&ann_, id, k,
                    [this](const std::vector<std::string>& ids, size_t kk) {
                      return lake_->RelatedModelsBatch(ids, kk);
                    });
}

Result<std::vector<std::pair<std::string, double>>>
SearchBatcher::KeywordScores(const std::string& text, size_t k) {
  return RunBatched(&keyword_, text, k,
                    [this](const std::vector<std::string>& texts, size_t kk) {
                      return lake_->KeywordScoresBatch(texts, kk);
                    });
}

Json SearchBatcher::StatsJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json out = Json::MakeObject();
  out.Set("window_us", static_cast<int64_t>(options_.batch_window_us));
  out.Set("max_batch", static_cast<int64_t>(options_.max_batch));
  out.Set("batches", batches_);
  out.Set("batched_requests", batched_requests_);
  out.Set("closed_at_once", closed_at_once_);
  out.Set("occupancy", occupancy_.ToJson());
  return out;
}

}  // namespace mlake::server
