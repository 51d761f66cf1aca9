#include "index/hnsw_index.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <string_view>
#include <unordered_set>

#include "common/kernels.h"
#include "common/string_util.h"
#include "index/metric.h"

namespace mlake::index {

namespace {

/// Min-heap by distance.
struct Closer {
  bool operator()(const std::pair<float, uint32_t>& a,
                  const std::pair<float, uint32_t>& b) const {
    return a.first > b.first;
  }
};

/// Max-heap by distance.
struct Farther {
  bool operator()(const std::pair<float, uint32_t>& a,
                  const std::pair<float, uint32_t>& b) const {
    return a.first < b.first;
  }
};


}  // namespace

HnswIndex::HnswIndex(int64_t dim, HnswConfig config)
    : dim_(dim),
      config_(config),
      rng_(config.seed),
      level_lambda_(1.0 / std::log(std::max(2, config.m))) {}

void HnswIndex::SegRef::neighbors(uint32_t node, int level,
                                  const uint32_t** out, size_t* len) const {
  if (!base) {
    const std::vector<uint32_t>& list =
        idx->links_[node][static_cast<size_t>(level)];
    *out = list.data();
    *len = list.size();
    return;
  }
  if (level > idx->base_levels_[node]) {
    *out = nullptr;
    *len = 0;
    return;
  }
  uint64_t slot = idx->base_slot_off_[node] + static_cast<uint64_t>(level);
  uint64_t begin = idx->base_link_off_[slot];
  uint64_t end = idx->base_link_off_[slot + 1];
  *out = idx->base_links_ + begin;
  *len = static_cast<size_t>(end - begin);
}

float HnswIndex::DistanceTo(const SegRef& seg, const float* query,
                            uint32_t node) const {
  const float* v = seg.row(node);
  if (config_.metric == Metric::kCosine) {
    // Stored vectors (and the query, normalized at Search entry) are
    // unit-length, so cosine distance collapses to 1 - dot.
    return 1.0f - kernels::Dot(query, v, dim_);
  }
  return kernels::L2Sq(query, v, dim_);
}

void HnswIndex::DistanceToBatch(const SegRef& seg, const float* query,
                                const uint32_t* nodes, size_t count,
                                float* out) const {
  // Prefetch every candidate vector before touching the first one; the
  // adjacency list is a random walk through the vector rows, so the
  // loads are the latency bottleneck, not the arithmetic.
  for (size_t i = 0; i < count; ++i) {
    const float* v = seg.row(nodes[i]);
    __builtin_prefetch(v);
    __builtin_prefetch(v + 16);
  }
  for (size_t i = 0; i < count; ++i) {
    out[i] = DistanceTo(seg, query, nodes[i]);
  }
}

void HnswIndex::NormalizeRow(float* row) const {
  float norm = std::sqrt(kernels::Dot(row, row, dim_));
  if (norm > 0.0f) kernels::ScaleInPlace(row, 1.0f / norm, dim_);
}

int HnswIndex::RandomLevel() {
  double u = rng_.NextDouble();
  if (u < 1e-12) u = 1e-12;
  return static_cast<int>(-std::log(u) * level_lambda_);
}

uint32_t HnswIndex::GreedyClosest(const SegRef& seg, const float* query,
                                  uint32_t entry, int level) const {
  uint32_t current = entry;
  uint32_t n = static_cast<uint32_t>(seg.n());
  float best = DistanceTo(seg, query, current);
  std::vector<uint32_t> fresh;
  std::vector<float> dists;
  bool improved = true;
  while (improved) {
    improved = false;
    const uint32_t* neighbors = nullptr;
    size_t count = 0;
    seg.neighbors(current, level, &neighbors, &count);
    fresh.clear();
    for (size_t i = 0; i < count; ++i) {
      if (neighbors[i] < n) fresh.push_back(neighbors[i]);
    }
    dists.resize(fresh.size());
    DistanceToBatch(seg, query, fresh.data(), fresh.size(), dists.data());
    for (size_t i = 0; i < fresh.size(); ++i) {
      if (dists[i] < best) {
        best = dists[i];
        current = fresh[i];
        improved = true;
      }
    }
  }
  return current;
}

std::vector<HnswIndex::Candidate> HnswIndex::SearchLayer(
    const SegRef& seg, const float* query, uint32_t entry, int ef, int level,
    VisitedScratch* visited) const {
  uint32_t n = static_cast<uint32_t>(seg.n());
  visited->NextEpoch(n);

  std::priority_queue<std::pair<float, uint32_t>,
                      std::vector<std::pair<float, uint32_t>>, Closer>
      frontier;
  std::priority_queue<std::pair<float, uint32_t>,
                      std::vector<std::pair<float, uint32_t>>, Farther>
      best;

  float d0 = DistanceTo(seg, query, entry);
  frontier.emplace(d0, entry);
  best.emplace(d0, entry);
  visited->Visit(entry);

  // Scratch for the batched adjacency-list expansion, reused across
  // frontier pops (bounded by the layer's max degree).
  std::vector<uint32_t> fresh;
  std::vector<float> dists;

  while (!frontier.empty()) {
    auto [dist, node] = frontier.top();
    if (dist > best.top().first && best.size() >= static_cast<size_t>(ef)) {
      break;
    }
    frontier.pop();
    fresh.clear();
    const uint32_t* neighbors = nullptr;
    size_t count = 0;
    seg.neighbors(node, level, &neighbors, &count);
    for (size_t i = 0; i < count; ++i) {
      uint32_t neighbor = neighbors[i];
      if (neighbor >= n) continue;  // corrupt link: skip, never UB
      if (visited->Visit(neighbor)) fresh.push_back(neighbor);
    }
    dists.resize(fresh.size());
    DistanceToBatch(seg, query, fresh.data(), fresh.size(), dists.data());
    for (size_t i = 0; i < fresh.size(); ++i) {
      float d = dists[i];
      if (best.size() < static_cast<size_t>(ef) || d < best.top().first) {
        frontier.emplace(d, fresh[i]);
        best.emplace(d, fresh[i]);
        if (best.size() > static_cast<size_t>(ef)) best.pop();
      }
    }
  }

  std::vector<Candidate> out;
  out.reserve(best.size());
  while (!best.empty()) {
    out.push_back(Candidate{best.top().first, best.top().second});
    best.pop();
  }
  return out;
}

void HnswIndex::ShrinkNeighbors(uint32_t node, int level, int max_degree) {
  std::vector<uint32_t>& neighbors = links_[node][static_cast<size_t>(level)];
  if (neighbors.size() <= static_cast<size_t>(max_degree)) return;
  SegRef seg{this, false};
  const float* base = seg.row(node);
  std::vector<std::pair<float, uint32_t>> scored;
  scored.reserve(neighbors.size());
  for (uint32_t n : neighbors) {
    scored.emplace_back(DistanceTo(seg, base, n), n);
  }
  std::partial_sort(scored.begin(), scored.begin() + max_degree,
                    scored.end());
  neighbors.clear();
  for (int i = 0; i < max_degree; ++i) neighbors.push_back(scored[i].second);
}

uint32_t HnswIndex::AppendNode(int64_t id, const std::vector<float>& vec) {
  uint32_t node = static_cast<uint32_t>(external_ids_.size());
  external_ids_.push_back(id);
  data_.insert(data_.end(), vec.begin(), vec.end());
  if (config_.metric == Metric::kCosine) {
    // Normalize-at-Add: unit-length storage turns every cosine distance
    // during construction and search into a bare dot product. A zero
    // vector stays zero (distance 1.0 to everything, as before).
    NormalizeRow(data_.data() + static_cast<int64_t>(node) * dim_);
  }
  int level = RandomLevel();
  levels_.push_back(level);
  links_.emplace_back(static_cast<size_t>(level) + 1);
  dead_.push_back(0);
  if (id_map_valid_) id_map_[id] = base_n_ + node;
  return node;
}

HnswIndex::PlannedLinks HnswIndex::FindCandidates(
    uint32_t node, VisitedScratch* visited) const {
  PlannedLinks plan;
  SegRef seg{this, false};
  int level = levels_[node];
  plan.candidates.resize(static_cast<size_t>(level) + 1);
  const float* query = seg.row(node);

  uint32_t current = entry_point_;
  // Greedy descent through layers above the new node's level.
  for (int l = max_level_; l > level; --l) {
    current = GreedyClosest(seg, query, current, l);
  }
  int top = std::min(level, max_level_);
  for (int l = top; l >= 0; --l) {
    std::vector<Candidate> candidates =
        SearchLayer(seg, query, current, config_.ef_construction, l, visited);
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.distance < b.distance ||
                       (a.distance == b.distance && a.node < b.node);
              });
    if (!candidates.empty()) current = candidates.front().node;
    plan.candidates[static_cast<size_t>(l)] = std::move(candidates);
  }
  return plan;
}

void HnswIndex::ApplyLinks(uint32_t node, const PlannedLinks& plan) {
  int level = levels_[node];
  int top = std::min(level, max_level_);
  for (int l = top; l >= 0; --l) {
    const std::vector<Candidate>& candidates =
        plan.candidates[static_cast<size_t>(l)];
    int max_degree = (l == 0) ? 2 * config_.m : config_.m;
    size_t take =
        std::min(candidates.size(), static_cast<size_t>(config_.m));
    for (size_t i = 0; i < take; ++i) {
      uint32_t neighbor = candidates[i].node;
      links_[node][static_cast<size_t>(l)].push_back(neighbor);
      links_[neighbor][static_cast<size_t>(l)].push_back(node);
      ShrinkNeighbors(neighbor, l, max_degree);
    }
  }
  if (level > max_level_) {
    max_level_ = level;
    entry_point_ = node;
  }
}

void HnswIndex::EnsureIdMap() const {
  if (id_map_valid_) return;
  id_map_.clear();
  id_map_.reserve(base_n_ + external_ids_.size());
  for (size_t i = 0; i < base_n_; ++i) {
    id_map_[base_ids_[i]] = i;
  }
  // Delta entries override base ones: a re-added id resolves to its
  // live delta node, the tombstoned base copy stays shadowed.
  for (size_t j = 0; j < external_ids_.size(); ++j) {
    id_map_[external_ids_[j]] = base_n_ + j;
  }
  id_map_valid_ = true;
}

Status HnswIndex::Add(int64_t id, const std::vector<float>& vec) {
  if (static_cast<int64_t>(vec.size()) != dim_) {
    return Status::InvalidArgument("HnswIndex: vector dim mismatch");
  }
  EnsureIdMap();
  auto it = id_map_.find(id);
  if (it != id_map_.end()) {
    uint64_t h = it->second;
    bool live = h < base_n_
                    ? (base_dead_.empty() || !base_dead_[h])
                    : !dead_[h - base_n_];
    if (live) {
      return Status::AlreadyExists(
          StrFormat("id %lld already indexed", static_cast<long long>(id)));
    }
    // Tombstoned: re-add as a fresh delta node shadowing the old one.
  }

  uint32_t node = AppendNode(id, vec);
  if (node == 0) {
    max_level_ = levels_[0];
    entry_point_ = 0;
    return Status::OK();
  }
  VisitedScratch visited;
  ApplyLinks(node, FindCandidates(node, &visited));
  return Status::OK();
}

Status HnswIndex::Remove(int64_t id) {
  EnsureIdMap();
  auto it = id_map_.find(id);
  if (it == id_map_.end()) {
    return Status::NotFound(
        StrFormat("id %lld not indexed", static_cast<long long>(id)));
  }
  uint64_t h = it->second;
  if (h < base_n_) {
    if (base_dead_.empty()) base_dead_.assign(base_n_, 0);
    if (!base_dead_[h]) {
      base_dead_[h] = 1;
      ++base_dead_count_;
    }
  } else {
    size_t j = static_cast<size_t>(h - base_n_);
    if (!dead_[j]) {
      dead_[j] = 1;
      ++delta_dead_count_;
    }
  }
  return Status::OK();
}

Status HnswIndex::TruncateTail(size_t count) {
  if (count == 0) return Status::OK();
  if (count > external_ids_.size()) {
    return Status::InvalidArgument("HnswIndex: TruncateTail beyond delta");
  }
  size_t new_n = external_ids_.size() - count;
  // Handles shift semantics are subtle under shadowing, so rebuild the
  // map lazily instead of patching it.
  id_map_valid_ = false;
  id_map_.clear();
  for (size_t j = new_n; j < dead_.size(); ++j) {
    if (dead_[j]) --delta_dead_count_;
  }
  external_ids_.resize(new_n);
  levels_.resize(new_n);
  links_.resize(new_n);
  dead_.resize(new_n);
  data_.resize(new_n * static_cast<size_t>(dim_));
  uint32_t cutoff = static_cast<uint32_t>(new_n);
  for (auto& per_node : links_) {
    for (auto& level_links : per_node) {
      level_links.erase(std::remove_if(level_links.begin(), level_links.end(),
                                       [cutoff](uint32_t v) {
                                         return v >= cutoff;
                                       }),
                        level_links.end());
    }
  }
  // Recompute the delta entry point: the first surviving node at the
  // highest level, which is exactly what incremental insertion would
  // have left in place.
  max_level_ = -1;
  entry_point_ = 0;
  for (uint32_t i = 0; i < cutoff; ++i) {
    if (levels_[i] > max_level_) {
      max_level_ = levels_[i];
      entry_point_ = i;
    }
  }
  return Status::OK();
}

Status HnswIndex::Build(const std::vector<int64_t>& ids,
                        const std::vector<std::vector<float>>& vecs,
                        const ExecutionContext& exec) {
  if (ids.size() != vecs.size()) {
    return Status::InvalidArgument("HnswIndex::Build: ids/vecs size mismatch");
  }
  EnsureIdMap();
  std::unordered_set<int64_t> batch_seen;
  batch_seen.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    if (static_cast<int64_t>(vecs[i].size()) != dim_) {
      return Status::InvalidArgument("HnswIndex::Build: vector dim mismatch");
    }
    bool duplicate = !batch_seen.insert(ids[i]).second;
    if (!duplicate) {
      auto it = id_map_.find(ids[i]);
      if (it != id_map_.end()) {
        uint64_t h = it->second;
        duplicate = h < base_n_
                        ? (base_dead_.empty() || !base_dead_[h])
                        : !dead_[h - base_n_];
      }
    }
    if (duplicate) {
      return Status::AlreadyExists(
          StrFormat("id %lld already indexed",
                    static_cast<long long>(ids[i])));
    }
  }

  // Append storage and draw levels up front, in input order — the same
  // rng consumption as sequential Adds.
  uint32_t first = static_cast<uint32_t>(external_ids_.size());
  for (size_t i = 0; i < ids.size(); ++i) AppendNode(ids[i], vecs[i]);
  uint32_t total = static_cast<uint32_t>(external_ids_.size());

  uint32_t next = first;
  if (next == 0 && next < total) {
    // Seed the graph: the first element has nothing to link against.
    max_level_ = levels_[0];
    entry_point_ = 0;
    ++next;
  }

  // Size-doubling waves: wave w inserts min(remaining, linked-so-far)
  // nodes (at least 1). Candidates are searched against the graph as
  // of the wave start, so the search phase is read-only and
  // embarrassingly parallel; links are then applied in index order.
  // The schedule depends only on node counts — not on `exec` — which
  // is what makes Build output thread-count-invariant.
  while (next < total) {
    uint32_t wave = std::max(1u, next);  // = nodes already linked
    wave = std::min(wave, total - next);
    std::vector<PlannedLinks> plans(wave);
    MLAKE_RETURN_NOT_OK(ParallelFor(exec, 0, wave, [&](size_t i) {
      VisitedScratch visited;
      plans[i] = FindCandidates(next + static_cast<uint32_t>(i), &visited);
    }));
    for (uint32_t i = 0; i < wave; ++i) {
      ApplyLinks(next + i, plans[i]);
    }
    next += wave;
  }
  return Status::OK();
}

void HnswIndex::CollectFrom(const SegRef& seg, const float* query, size_t k,
                            VisitedScratch* visited,
                            std::vector<Neighbor>* out) const {
  size_t n = seg.n();
  size_t dead_count = seg.base ? base_dead_count_ : delta_dead_count_;
  if (n == 0 || dead_count >= n) return;

  uint32_t current = seg.entry();
  for (int l = seg.top_level(); l > 0; --l) {
    current = GreedyClosest(seg, query, current, l);
  }
  // Over-fetch by the tombstone count so k live hits survive the
  // filter below.
  size_t ef = std::max(static_cast<size_t>(std::max(config_.ef_search, 1)),
                       k) +
              dead_count;
  std::vector<Candidate> candidates =
      SearchLayer(seg, query, current, static_cast<int>(ef), 0, visited);
  const std::vector<uint8_t>& dead = seg.base ? base_dead_ : dead_;
  for (const Candidate& c : candidates) {
    if (!dead.empty() && dead[c.node]) continue;
    int64_t id = seg.base ? base_ids_[c.node]
                          : external_ids_[c.node];
    out->push_back(Neighbor{id, c.distance});
  }
}

void HnswIndex::CollectDense(const SegRef& seg, const float* queries,
                             size_t m,
                             std::vector<std::vector<Neighbor>>* outs) const {
  size_t n = seg.n();
  // Pack the segment's rows column-major once — a dim x n B operand
  // shared by every query in the batch.
  std::vector<float> packed(static_cast<size_t>(dim_) * n);
  for (uint32_t node = 0; node < n; ++node) {
    const float* row = seg.row(node);
    for (int64_t d = 0; d < dim_; ++d) {
      packed[static_cast<size_t>(d) * n + node] = row[d];
    }
  }
  std::vector<float> dots(m * n);
  kernels::Gemm(m, n, static_cast<size_t>(dim_), queries, packed.data(),
                dots.data());
  const std::vector<uint8_t>& dead = seg.base ? base_dead_ : dead_;
  for (size_t i = 0; i < m; ++i) {
    const float* dot_row = dots.data() + i * n;
    std::vector<Neighbor>& out = (*outs)[i];
    out.reserve(out.size() + n);
    for (uint32_t node = 0; node < n; ++node) {
      if (!dead.empty() && dead[node]) continue;
      int64_t id = seg.base ? base_ids_[node] : external_ids_[node];
      out.push_back(Neighbor{id, 1.0f - dot_row[node]});
    }
  }
}

Result<std::vector<Neighbor>> HnswIndex::Search(
    const std::vector<float>& query, size_t k) const {
  MLAKE_ASSIGN_OR_RETURN(std::vector<std::vector<Neighbor>> batch,
                         SearchBatch({query}, k));
  return std::move(batch[0]);
}

Result<std::vector<std::vector<Neighbor>>> HnswIndex::SearchBatch(
    const std::vector<std::vector<float>>& queries, size_t k) const {
  for (const std::vector<float>& query : queries) {
    if (static_cast<int64_t>(query.size()) != dim_) {
      return Status::InvalidArgument("HnswIndex: query dim mismatch");
    }
  }
  std::vector<std::vector<Neighbor>> results(queries.size());
  if (queries.empty() || Size() == 0) return results;

  // Prepare every query once into one contiguous block (normalized
  // under cosine so 1 - dot is the cosine distance), then collapse
  // duplicates: identical prepared vectors share one probe.
  size_t m = queries.size();
  size_t row_bytes = sizeof(float) * static_cast<size_t>(dim_);
  std::vector<float> prepared(m * static_cast<size_t>(dim_));
  for (size_t i = 0; i < m; ++i) {
    float* row = prepared.data() + i * static_cast<size_t>(dim_);
    std::copy(queries[i].begin(), queries[i].end(), row);
    if (config_.metric == Metric::kCosine) NormalizeRow(row);
  }
  std::vector<uint32_t> slot_of(m);  // query index -> probe slot
  std::vector<uint32_t> first_of;    // probe slot -> first query index
  {
    std::unordered_map<std::string_view, uint32_t> seen;
    seen.reserve(m);
    for (size_t i = 0; i < m; ++i) {
      std::string_view bytes(
          reinterpret_cast<const char*>(prepared.data() +
                                        i * static_cast<size_t>(dim_)),
          row_bytes);
      auto [it, inserted] =
          seen.emplace(bytes, static_cast<uint32_t>(first_of.size()));
      if (inserted) first_of.push_back(static_cast<uint32_t>(i));
      slot_of[i] = it->second;
    }
  }
  size_t u = first_of.size();
  std::vector<float> probes(u * static_cast<size_t>(dim_));
  for (size_t s = 0; s < u; ++s) {
    const float* src =
        prepared.data() + first_of[s] * static_cast<size_t>(dim_);
    std::copy(src, src + dim_, probes.data() + s * static_cast<size_t>(dim_));
  }

  // Segment-major probe: each segment is visited once for the whole
  // batch — the dense path amortizes its row packing across queries,
  // the beam path at least reuses the visited-set allocation.
  std::vector<std::vector<Neighbor>> merged(u);
  VisitedScratch visited;
  const bool segments[] = {true, false};
  for (bool is_base : segments) {
    SegRef seg{this, is_base};
    size_t n = seg.n();
    size_t dead_count = is_base ? base_dead_count_ : delta_dead_count_;
    if (n == 0 || dead_count >= n) continue;
    if (config_.metric == Metric::kCosine && n <= kDenseSegmentMax) {
      CollectDense(seg, probes.data(), u, &merged);
    } else {
      for (size_t s = 0; s < u; ++s) {
        CollectFrom(seg, probes.data() + s * static_cast<size_t>(dim_), k,
                    &visited, &merged[s]);
      }
    }
  }
  for (size_t s = 0; s < u; ++s) {
    std::sort(merged[s].begin(), merged[s].end());  // (distance, id)
    if (merged[s].size() > k) merged[s].resize(k);
  }
  for (size_t i = 0; i < m; ++i) results[i] = merged[slot_of[i]];
  return results;
}

Status HnswIndex::SaveSnapshot(Fs* fs, const std::string& path,
                               uint64_t generation) const {
  if (base_n_ > 0 && !external_ids_.empty()) {
    return Status::FailedPrecondition(
        "HnswIndex: cannot snapshot a two-segment index; compact first");
  }
  const bool from_base = base_n_ > 0;
  SegRef seg{this, from_base};
  size_t raw_n = seg.n();
  const std::vector<uint8_t>& seg_dead = from_base ? base_dead_ : dead_;

  // Gather live nodes in node order, renumbering via `remap` so the
  // written graph carries no tombstones.
  std::vector<uint32_t> remap(raw_n, UINT32_MAX);
  std::vector<int64_t> ids;
  std::vector<float> data;
  std::vector<int32_t> levels;
  for (uint32_t node = 0; node < raw_n; ++node) {
    if (!seg_dead.empty() && seg_dead[node]) continue;
    remap[node] = static_cast<uint32_t>(ids.size());
    ids.push_back(from_base ? base_ids_[node] : external_ids_[node]);
    const float* row = seg.row(node);
    data.insert(data.end(), row, row + dim_);
    levels.push_back(from_base ? base_levels_[node]
                               : static_cast<int32_t>(levels_[node]));
  }
  size_t n = ids.size();

  std::vector<uint64_t> slot_off(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    slot_off[i + 1] = slot_off[i] + static_cast<uint64_t>(levels[i]) + 1;
  }
  std::vector<uint64_t> link_off;
  link_off.reserve(slot_off[n] + 1);
  link_off.push_back(0);
  std::vector<uint32_t> flat;
  for (uint32_t node = 0; node < raw_n; ++node) {
    if (remap[node] == UINT32_MAX) continue;
    int level = from_base ? base_levels_[node] : levels_[node];
    for (int l = 0; l <= level; ++l) {
      const uint32_t* neighbors = nullptr;
      size_t count = 0;
      seg.neighbors(node, l, &neighbors, &count);
      for (size_t i = 0; i < count; ++i) {
        if (neighbors[i] < raw_n && remap[neighbors[i]] != UINT32_MAX) {
          flat.push_back(remap[neighbors[i]]);
        }
      }
      link_off.push_back(flat.size());
    }
  }

  // Entry point: first live node at the highest level — what
  // incremental insertion over the live set would have produced.
  int32_t max_level = -1;
  uint32_t entry = 0;
  for (size_t i = 0; i < n; ++i) {
    if (levels[i] > max_level) {
      max_level = levels[i];
      entry = static_cast<uint32_t>(i);
    }
  }

  std::vector<uint64_t> meta = {
      static_cast<uint64_t>(dim_),
      static_cast<uint64_t>(config_.metric),
      static_cast<uint64_t>(config_.m),
      static_cast<uint64_t>(n),
      static_cast<uint64_t>(entry),
      static_cast<uint64_t>(max_level + 1),
      slot_off[n],
      static_cast<uint64_t>(flat.size()),
  };
  SnapshotWriter writer(SnapshotKind::kHnsw, generation);
  writer.AddArray("meta", meta);
  writer.AddArray("ids", ids);
  writer.AddArray("data", data);
  writer.AddArray("levels", levels);
  writer.AddArray("slot_off", slot_off);
  writer.AddArray("link_off", link_off);
  writer.AddArray("links", flat);
  return writer.WriteTo(fs, path);
}

Status HnswIndex::LoadSnapshot(Fs* fs, const std::string& path) {
  if (base_n_ > 0 || !external_ids_.empty()) {
    return Status::FailedPrecondition(
        "HnswIndex: LoadSnapshot requires an empty index");
  }
  MLAKE_ASSIGN_OR_RETURN(
      SnapshotReader snap,
      SnapshotReader::Open(fs, path, SnapshotKind::kHnsw));
  MLAKE_ASSIGN_OR_RETURN(auto meta, snap.Array<uint64_t>("meta"));
  if (meta.second != 8) {
    return Status::Corruption("hnsw snapshot meta malformed: " + path);
  }
  const uint64_t* m = meta.first;
  if (m[0] != static_cast<uint64_t>(dim_) ||
      m[1] != static_cast<uint64_t>(config_.metric) ||
      m[2] != static_cast<uint64_t>(config_.m)) {
    return Status::FailedPrecondition(
        "hnsw snapshot config mismatch (dim/metric/M): " + path);
  }
  uint64_t n = m[3];
  uint64_t entry = m[4];
  uint64_t max_level_plus1 = m[5];
  uint64_t slots = m[6];
  uint64_t total_links = m[7];

  MLAKE_ASSIGN_OR_RETURN(auto ids, snap.Array<int64_t>("ids"));
  MLAKE_ASSIGN_OR_RETURN(auto data, snap.Array<float>("data"));
  MLAKE_ASSIGN_OR_RETURN(auto levels, snap.Array<int32_t>("levels"));
  MLAKE_ASSIGN_OR_RETURN(auto slot_off, snap.Array<uint64_t>("slot_off"));
  MLAKE_ASSIGN_OR_RETURN(auto link_off, snap.Array<uint64_t>("link_off"));
  MLAKE_ASSIGN_OR_RETURN(auto links, snap.Array<uint32_t>("links"));
  if (ids.second != n || data.second != n * static_cast<uint64_t>(dim_) ||
      levels.second != n || slot_off.second != n + 1 ||
      link_off.second != slots + 1 || links.second != total_links ||
      (n > 0 && (entry >= n || max_level_plus1 == 0))) {
    return Status::Corruption("hnsw snapshot sections malformed: " + path);
  }
  // Offset arrays are fully validated up front (O(n), touches only the
  // small offset sections); link targets are bounds-checked lazily at
  // search time so the big arrays stay untouched until queried.
  if (!OffsetsWellFormed(slot_off.first, n + 1, slots) ||
      !OffsetsWellFormed(link_off.first, slots + 1, total_links)) {
    return Status::Corruption("hnsw snapshot offsets malformed: " + path);
  }

  base_snap_ = std::move(snap);
  base_generation_ = base_snap_.generation();
  base_n_ = static_cast<size_t>(n);
  base_ids_ = ids.first;
  base_data_ = data.first;
  base_levels_ = levels.first;
  base_slot_off_ = slot_off.first;
  base_link_off_ = link_off.first;
  base_links_ = links.first;
  base_entry_ = static_cast<uint32_t>(entry);
  base_max_level_ = static_cast<int>(max_level_plus1) - 1;
  base_dead_.clear();
  base_dead_count_ = 0;
  id_map_valid_ = false;
  id_map_.clear();
  return Status::OK();
}

}  // namespace mlake::index
