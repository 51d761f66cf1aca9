#include "versioning/model_graph.h"

#include <algorithm>
#include <deque>
#include <functional>

#include "common/string_util.h"

namespace mlake::versioning {

std::string_view EdgeTypeToString(EdgeType type) {
  switch (type) {
    case EdgeType::kFinetune:
      return "finetune";
    case EdgeType::kLora:
      return "lora";
    case EdgeType::kEdit:
      return "edit";
    case EdgeType::kStitch:
      return "stitch";
    case EdgeType::kPrune:
      return "prune";
    case EdgeType::kDistill:
      return "distill";
    case EdgeType::kNoise:
      return "noise";
    case EdgeType::kUnknown:
      return "unknown";
  }
  return "unknown";
}

Result<EdgeType> EdgeTypeFromString(std::string_view s) {
  static constexpr EdgeType kAll[] = {
      EdgeType::kFinetune, EdgeType::kLora,    EdgeType::kEdit,
      EdgeType::kStitch,   EdgeType::kPrune,   EdgeType::kDistill,
      EdgeType::kNoise,    EdgeType::kUnknown,
  };
  for (EdgeType t : kAll) {
    if (EdgeTypeToString(t) == s) return t;
  }
  return Status::InvalidArgument("unknown edge type: " + std::string(s));
}

Json EdgeToJson(const VersionEdge& edge, Json out) {
  out.Set("parent", edge.parent);
  out.Set("child", edge.child);
  out.Set("type", std::string(EdgeTypeToString(edge.type)));
  out.Set("confidence", edge.confidence);
  if (!edge.params.is_null()) out.Set("params", edge.params);
  return out;
}

Result<VersionEdge> EdgeFromJson(const Json& j) {
  if (!j.is_object()) return Status::Corruption("edge: not an object");
  VersionEdge edge;
  edge.parent = j.GetString("parent");
  edge.child = j.GetString("child");
  MLAKE_ASSIGN_OR_RETURN(edge.type, EdgeTypeFromString(j.GetString("type")));
  if (const Json* params = j.Find("params")) edge.params = *params;
  edge.confidence = j.GetDouble("confidence", 1.0);
  return edge;
}

std::string EdgeKey(const VersionEdge& edge) {
  return StrFormat("%s|%s|%s|%.17g|%s", edge.parent.c_str(),
                   edge.child.c_str(),
                   std::string(EdgeTypeToString(edge.type)).c_str(),
                   edge.confidence,
                   edge.params.is_null() ? "" : edge.params.Dump().c_str());
}

void ModelGraph::AddModel(const std::string& id) {
  if (nodes_.insert(id).second) ++revision_;
}

bool ModelGraph::RemoveModel(const std::string& id) {
  if (nodes_.erase(id) == 0) return false;
  std::vector<VersionEdge> kept;
  kept.reserve(edges_.size());
  for (VersionEdge& edge : edges_) {
    if (edge.parent != id && edge.child != id) {
      kept.push_back(std::move(edge));
    }
  }
  edges_ = std::move(kept);
  // Edge indices shifted; rebuild both adjacency maps from scratch.
  out_edges_.clear();
  in_edges_.clear();
  for (size_t idx = 0; idx < edges_.size(); ++idx) {
    out_edges_[edges_[idx].parent].push_back(idx);
    in_edges_[edges_[idx].child].push_back(idx);
  }
  ++revision_;
  return true;
}

bool ModelGraph::HasEdge(const std::string& parent,
                         const std::string& child) const {
  auto it = out_edges_.find(parent);
  if (it == out_edges_.end()) return false;
  for (size_t idx : it->second) {
    if (edges_[idx].child == child) return true;
  }
  return false;
}

bool ModelGraph::WouldCreateCycle(const std::string& parent,
                                  const std::string& child) const {
  // Cycle iff parent is reachable from child.
  std::deque<std::string> queue{child};
  std::set<std::string> seen{child};
  while (!queue.empty()) {
    std::string current = queue.front();
    queue.pop_front();
    if (current == parent) return true;
    auto it = out_edges_.find(current);
    if (it == out_edges_.end()) continue;
    for (size_t idx : it->second) {
      const std::string& next = edges_[idx].child;
      if (seen.insert(next).second) queue.push_back(next);
    }
  }
  return false;
}

Status ModelGraph::AddEdge(VersionEdge edge) {
  if (edge.parent.empty() || edge.child.empty()) {
    return Status::InvalidArgument("edge endpoints must be non-empty");
  }
  if (edge.parent == edge.child) {
    return Status::InvalidArgument("self-loop edge: " + edge.parent);
  }
  if (HasEdge(edge.parent, edge.child)) {
    return Status::AlreadyExists("edge exists: " + edge.parent + " -> " +
                                 edge.child);
  }
  if (WouldCreateCycle(edge.parent, edge.child)) {
    return Status::FailedPrecondition("edge would create a cycle: " +
                                      edge.parent + " -> " + edge.child);
  }
  nodes_.insert(edge.parent);
  nodes_.insert(edge.child);
  size_t idx = edges_.size();
  out_edges_[edge.parent].push_back(idx);
  in_edges_[edge.child].push_back(idx);
  edges_.push_back(std::move(edge));
  ++revision_;
  return Status::OK();
}

std::vector<std::string> ModelGraph::Models() const {
  return {nodes_.begin(), nodes_.end()};
}

std::vector<std::string> ModelGraph::Parents(const std::string& id) const {
  std::vector<std::string> out;
  auto it = in_edges_.find(id);
  if (it == in_edges_.end()) return out;
  for (size_t idx : it->second) out.push_back(edges_[idx].parent);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> ModelGraph::Children(const std::string& id) const {
  std::vector<std::string> out;
  auto it = out_edges_.find(id);
  if (it == out_edges_.end()) return out;
  for (size_t idx : it->second) out.push_back(edges_[idx].child);
  std::sort(out.begin(), out.end());
  return out;
}

namespace {
std::vector<std::string> Closure(
    const std::string& start,
    const std::function<std::vector<std::string>(const std::string&)>& step) {
  std::set<std::string> seen;
  std::deque<std::string> queue{start};
  while (!queue.empty()) {
    std::string current = queue.front();
    queue.pop_front();
    for (const std::string& next : step(current)) {
      if (next != start && seen.insert(next).second) queue.push_back(next);
    }
  }
  return {seen.begin(), seen.end()};
}
}  // namespace

std::vector<std::string> ModelGraph::Ancestors(const std::string& id) const {
  return Closure(id, [this](const std::string& n) { return Parents(n); });
}

std::vector<std::string> ModelGraph::Descendants(const std::string& id) const {
  return Closure(id, [this](const std::string& n) { return Children(n); });
}

std::vector<std::string> ModelGraph::Roots() const {
  std::vector<std::string> out;
  for (const std::string& id : nodes_) {
    auto it = in_edges_.find(id);
    if (it == in_edges_.end() || it->second.empty()) out.push_back(id);
  }
  return out;
}

std::vector<std::string> ModelGraph::TopoSort() const {
  std::map<std::string, size_t> in_degree;
  for (const std::string& id : nodes_) in_degree[id] = 0;
  for (const VersionEdge& e : edges_) ++in_degree[e.child];
  std::deque<std::string> ready;
  for (const auto& [id, deg] : in_degree) {
    if (deg == 0) ready.push_back(id);
  }
  std::vector<std::string> order;
  while (!ready.empty()) {
    std::string current = ready.front();
    ready.pop_front();
    order.push_back(current);
    for (const std::string& child : Children(current)) {
      if (--in_degree[child] == 0) ready.push_back(child);
    }
  }
  return order;  // DAG invariant guarantees all nodes appear
}

Result<int> ModelGraph::Depth(const std::string& id) const {
  if (!HasModel(id)) return Status::NotFound("model not in graph: " + id);
  std::vector<std::string> parents = Parents(id);
  if (parents.empty()) return 0;
  int best = 0;
  for (const std::string& p : parents) {
    MLAKE_ASSIGN_OR_RETURN(int d, Depth(p));
    best = std::max(best, d + 1);
  }
  return best;
}

Json ModelGraph::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("revision", revision_);
  Json models = Json::MakeArray();
  for (const std::string& id : nodes_) models.Append(Json(id));
  j.Set("models", std::move(models));
  Json edges = Json::MakeArray();
  for (const VersionEdge& e : edges_) {
    Json edge = Json::MakeObject();
    edge.Set("parent", e.parent);
    edge.Set("child", e.child);
    edge.Set("type", std::string(EdgeTypeToString(e.type)));
    edge.Set("params", e.params);
    edge.Set("confidence", e.confidence);
    edges.Append(std::move(edge));
  }
  j.Set("edges", std::move(edges));
  return j;
}

Result<ModelGraph> ModelGraph::FromJson(const Json& j) {
  if (!j.is_object()) return Status::Corruption("ModelGraph: not an object");
  ModelGraph graph;
  if (const Json* models = j.Find("models");
      models != nullptr && models->is_array()) {
    for (const Json& m : models->AsArray()) {
      if (!m.is_string()) return Status::Corruption("ModelGraph: bad model");
      graph.AddModel(m.AsString());
    }
  }
  if (const Json* edges = j.Find("edges");
      edges != nullptr && edges->is_array()) {
    for (const Json& e : edges->AsArray()) {
      MLAKE_ASSIGN_OR_RETURN(VersionEdge edge, EdgeFromJson(e));
      MLAKE_RETURN_NOT_OK(graph.AddEdge(std::move(edge)));
    }
  }
  // The deserialized graph reflects the persisted revision.
  graph.revision_ = static_cast<uint64_t>(j.GetInt64("revision", 0));
  return graph;
}

double GraphComparison::DirectedPrecision() const {
  return recovered_edges == 0
             ? 0.0
             : static_cast<double>(correct_directed) /
                   static_cast<double>(recovered_edges);
}

double GraphComparison::DirectedRecall() const {
  return truth_edges == 0 ? 0.0
                          : static_cast<double>(correct_directed) /
                                static_cast<double>(truth_edges);
}

double GraphComparison::UndirectedPrecision() const {
  return recovered_edges == 0
             ? 0.0
             : static_cast<double>(correct_undirected) /
                   static_cast<double>(recovered_edges);
}

double GraphComparison::UndirectedRecall() const {
  return truth_edges == 0 ? 0.0
                          : static_cast<double>(correct_undirected) /
                                static_cast<double>(truth_edges);
}

double GraphComparison::DirectedF1() const {
  double p = DirectedPrecision();
  double r = DirectedRecall();
  return (p + r) == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

GraphComparison CompareGraphs(const ModelGraph& truth,
                              const ModelGraph& recovered) {
  GraphComparison cmp;
  cmp.truth_edges = truth.NumEdges();
  cmp.recovered_edges = recovered.NumEdges();
  for (const VersionEdge& e : recovered.Edges()) {
    if (truth.HasEdge(e.parent, e.child)) {
      ++cmp.correct_directed;
      ++cmp.correct_undirected;
    } else if (truth.HasEdge(e.child, e.parent)) {
      ++cmp.correct_undirected;
    }
  }
  return cmp;
}

}  // namespace mlake::versioning
