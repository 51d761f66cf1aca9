#ifndef MLAKE_SERVER_BATCHER_H_
#define MLAKE_SERVER_BATCHER_H_

// SearchBatcher — coalesces compatible concurrent /v1/search probes
// into one batched index probe, trading a bounded queueing delay for
// index-level batch efficiency (shared adjacency walks, one GEMM over
// the whole query block, shared BM25 posting decodes).
//
// State machine (per batch group, keyed by (search kind, k) so every
// member runs with the identical effective ef / over-fetch and results
// stay bit-identical to solo execution):
//
//   FORMING  first arrival creates the group and becomes its leader.
//            The leader waits only when followers are plausible:
//            another search of its kind (ann or keyword, any k)
//            arrived less than batch_window_us before it. Then it
//            publishes the group, later arrivals append their query
//            and wait, and the leader sleeps up to batch_window_us,
//            woken early when the group reaches max_batch. Otherwise
//            (a lone request) it closes the group at once and probes.
//            Each arrival, leader or follower, records its time as
//            its kind's last arrival. Known limit: one closed-loop
//            client whose requests come faster than the window still
//            waits on every other request (nobody can join it), which
//            is no worse than waiting on every request.
//   CLOSED   the leader detaches the group from the forming map (new
//            arrivals start a fresh group) and executes one
//            ModelLake::*Batch probe outside the batcher lock.
//   DONE     per-slot results are published; every member (leader
//            included) picks up exactly its own slot.
//
// A member's result is bit-identical to the solo lake call because the
// lake's solo search paths delegate to the same SearchBatch code with a
// batch of one — batching changes scheduling, never scoring.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "core/model_lake.h"
#include "server/metrics.h"

namespace mlake::server {

struct BatcherOptions {
  /// Upper bound on how long a batch leader waits for followers. A
  /// leader with no search of its kind in the last window does not
  /// wait at all (see FORMING above).
  int64_t batch_window_us = 250;
  /// A full group probes immediately without waiting out the window.
  size_t max_batch = 16;
};

class SearchBatcher {
 public:
  SearchBatcher(core::ModelLake* lake, BatcherOptions options)
      : lake_(lake), options_(options) {}

  SearchBatcher(const SearchBatcher&) = delete;
  SearchBatcher& operator=(const SearchBatcher&) = delete;

  /// Batched equivalent of lake->RelatedModels(id, k) (bit-identical).
  Result<std::vector<search::RankedModel>> RelatedModels(
      const std::string& id, size_t k);

  /// Batched equivalent of lake->KeywordScores(text, k) (bit-identical).
  Result<std::vector<std::pair<std::string, double>>> KeywordScores(
      const std::string& text, size_t k);

  /// {"window_us", "max_batch", "batches", "batched_requests",
  ///  "closed_at_once", "occupancy": SizeHistogram json} — the /statsz
  /// batching block. "closed_at_once" counts groups whose leader found
  /// no recent company and probed without waiting.
  Json StatsJson() const;

 private:
  /// One in-flight batch (see the state machine above). `closed` bars
  /// new members; `done` publishes `results` (slot i answers keys[i]).
  template <typename R>
  struct Group {
    std::vector<std::string> keys;
    std::vector<Result<R>> results;
    bool closed = false;
    bool done = false;
    std::condition_variable cv;
  };

  /// One search kind's forming groups (keyed by k) and the arrival
  /// time of its latest search, which gates the leader's wait.
  template <typename R>
  struct Kind {
    std::map<size_t, std::shared_ptr<Group<R>>> forming;
    std::chrono::steady_clock::time_point last_arrival =
        std::chrono::steady_clock::time_point::min();
  };

  /// The leader/follower protocol, shared by both search kinds.
  /// `probe(keys, k)` is the lake's batch call; it runs outside mu_.
  template <typename R, typename Probe>
  Result<R> RunBatched(Kind<R>* kind, const std::string& key, size_t k,
                       Probe&& probe) {
    std::unique_lock<std::mutex> lock(mu_);
    const auto window = std::chrono::microseconds(options_.batch_window_us);
    const auto arrival = std::chrono::steady_clock::now();
    // Written as last + window so the min() sentinel cannot overflow.
    const bool company = arrival < kind->last_arrival + window;
    kind->last_arrival = arrival;
    auto& forming = kind->forming;
    auto it = forming.find(k);
    if (it != forming.end() && !it->second->closed &&
        it->second->keys.size() < options_.max_batch) {
      // ---- follower: join, maybe complete the batch, await results.
      std::shared_ptr<Group<R>> group = it->second;
      size_t slot = group->keys.size();
      group->keys.push_back(key);
      if (group->keys.size() >= options_.max_batch) {
        group->closed = true;
        forming.erase(k);
        group->cv.notify_all();  // wake the leader early
      }
      group->cv.wait(lock, [&] { return group->done; });
      return std::move(group->results[slot]);
    }
    // ---- leader: open a group; wait out the window only if another
    // search of this kind came recently, else probe at once; publish.
    auto group = std::make_shared<Group<R>>();
    group->keys.push_back(key);
    if (company) {
      forming[k] = group;
      group->cv.wait_for(lock, window, [&] { return group->closed; });
      if (!group->closed) {
        group->closed = true;
        auto self = forming.find(k);
        if (self != forming.end() && self->second == group) {
          forming.erase(self);
        }
      }
    } else {
      ++closed_at_once_;  // never published, so nobody can join it
    }
    std::vector<std::string> keys = group->keys;
    lock.unlock();
    std::vector<Result<R>> results = probe(keys, k);
    lock.lock();
    ++batches_;
    batched_requests_ += keys.size();
    occupancy_.Record(keys.size());
    group->results = std::move(results);
    group->done = true;
    group->cv.notify_all();
    return std::move(group->results[0]);
  }

  core::ModelLake* lake_;
  BatcherOptions options_;

  /// One lock for group formation and stats; the probe itself runs
  /// unlocked, so a slow index call never blocks other groups forming.
  mutable std::mutex mu_;
  Kind<std::vector<search::RankedModel>> ann_;
  Kind<std::vector<std::pair<std::string, double>>> keyword_;
  uint64_t batches_ = 0;
  uint64_t batched_requests_ = 0;
  uint64_t closed_at_once_ = 0;
  SizeHistogram occupancy_;
};

}  // namespace mlake::server

#endif  // MLAKE_SERVER_BATCHER_H_
