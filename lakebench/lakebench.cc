// lakebench: one end-to-end benchmark of the model lake.
//
//   lakebench --workload NAME --seed N --seconds S --trace 0|1
//             [--workdir DIR] [--commit SHA] [--source-digest HEX]
//
// Builds the workload's topology in process (mlaked LakeServer, the
// sharded InProcessCluster behind a Router, or a leader with Replicator
// read replicas), all on loopback, from a 10k-model streaming lake, and
// drives it open-loop: Poisson arrivals from the seed at a fixed offered
// rate, at most 4 client threads with one keep-alive connection each,
// every request timed from the moment it was due. README.md in this
// directory says why each workload exists and which end-to-end metric
// each per-layer metric should move.
//
// --trace 0 measures the end-to-end metrics (set-up repeated three
// times, median reported). --trace 1 is the separate traced run: one
// set-up, one phase in which every other arrival is traced (the p50
// difference between the two sets is the tracing overhead), then timed
// calls into each layer's public functions, with every span written to
// DIR/traces/ when it finishes.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. Any mismatch against an oracle sets correct to
// false and the exit code to 1.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/file_util.h"
#include "common/fs.h"
#include "common/hash.h"
#include "common/kernels.h"
#include "common/random.h"
#include "common/sharding.h"
#include "common/string_util.h"
#include "core/model_lake.h"
#include "embed/embedder.h"
#include "index/hnsw_index.h"
#include "index/inverted_index.h"
#include "lakegen/lakegen.h"
#include "load.h"
#include "nn/model.h"
#include "replication/replicator.h"
#include "search/parser.h"
#include "server/client.h"
#include "server/http.h"
#include "server/server.h"
#include "storage/blob_store.h"
#include "storage/model_artifact.h"

namespace lakebench {
namespace {

using Clock = std::chrono::steady_clock;
using mlake::Json;
using mlake::Status;
namespace core = mlake::core;
namespace server = mlake::server;

constexpr size_t kNumModels = 10000;
constexpr int kClientThreads = 4;
constexpr int kSetupRepeats = 3;
constexpr int kExportDrains = 15;
/// A failed, refused or mismatched request enters the latency samples
/// at this value, so it misses every latency limit.
constexpr double kFailedLatencyMs = 60000.0;
// How long before each due time a client thread stops sleeping and spins.
constexpr std::chrono::microseconds kSpinBeforeDue{200};
/// Models the traced run ingests, embeds and stores through the direct
/// layer probes.
constexpr size_t kProbeModels = 16;
constexpr int64_t kInputDim = 32;
constexpr int64_t kNumClasses = 8;

// ------------------------------------------------------------- helpers

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "lakebench: fatal: %s\n", what.c_str());
  std::fflush(stdout);
  std::fflush(stderr);
  // Servers and pools still run threads; end the process without
  // running their destructors.
  std::_Exit(2);
}

void Must(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

template <typename T>
T Must(mlake::Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return r.MoveValueUnsafe();
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

int64_t Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

double MedianOf(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double RssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t DirBytes(const std::string& root) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(root, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

// --------------------------------------------------------------- spans

/// In-memory span recorder of the traced run: name, start, end, parent
/// and request id per span, written out once when the run finishes.
class Spans {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request_id = 0;
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  explicit Spans(Clock::time_point epoch) : epoch_(epoch) {}

  uint64_t Record(const std::string& name, uint64_t parent,
                  uint64_t request_id, Clock::time_point start,
                  Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.request_id = request_id;
    s.name = name;
    s.start_ns = Ns(start);
    s.end_ns = Ns(end);
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  /// Opens a span whose end is filled in by Close (for parents whose
  /// children are recorded while they run).
  uint64_t Open(const std::string& name, uint64_t parent) {
    std::printf("  tracing %s\n", name.c_str());
    auto now = Clock::now();
    return Record(name, parent, 0, now, now);
  }
  void Close(uint64_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = Ns(Clock::now());
  }

  /// Times `fn` as a child span of `parent`; returns its duration in µs.
  template <typename Fn>
  double Time(const std::string& name, uint64_t parent, Fn&& fn) {
    auto start = Clock::now();
    fn();
    auto end = Clock::now();
    Record(name, parent, 0, start, end);
    return std::chrono::duration<double, std::micro>(end - start).count();
  }

  /// Self time per span name: duration minus the part of its interval
  /// covered by its children (union of child intervals).
  std::map<std::string, double> SelfMsByName() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
    for (const Span& s : spans_) {
      if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
    }
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      int64_t covered = 0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        auto iv = it->second;
        std::sort(iv.begin(), iv.end());
        int64_t cur_start = 0;
        int64_t cur_end = -1;
        for (auto [a, b] : iv) {
          a = std::max(a, s.start_ns);
          b = std::min(b, s.end_ns);
          if (b <= a) continue;
          if (a > cur_end) {
            if (cur_end > cur_start) covered += cur_end - cur_start;
            cur_start = a;
            cur_end = b;
          } else {
            cur_end = std::max(cur_end, b);
          }
        }
        if (cur_end > cur_start) covered += cur_end - cur_start;
      }
      out[s.name] += double(s.end_ns - s.start_ns - covered) / 1e6;
    }
    return out;
  }

  Status WriteJsonl(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string text;
    for (const Span& s : spans_) {
      text += mlake::StrFormat(
          "{\"id\":%llu,\"parent\":%llu,\"request_id\":%llu,\"name\":\"%s\","
          "\"start_ns\":%lld,\"end_ns\":%lld}\n",
          static_cast<unsigned long long>(s.id),
          static_cast<unsigned long long>(s.parent),
          static_cast<unsigned long long>(s.request_id), s.name.c_str(),
          static_cast<long long>(s.start_ns),
          static_cast<long long>(s.end_ns));
    }
    return mlake::WriteFile(path, text);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------ workloads

struct WorkloadSpec {
  std::string name;
  /// Offered rate of the open-loop phase, requests per second.
  double rate = 0.0;
  /// p99 limit of the capacity ladder (and of "meets the limit").
  double latency_limit_ms = 0.0;
  std::vector<MixEntry> mix;
  /// Capacity ladder, ascending offered rates; empty = not measured.
  std::vector<double> ladder;
  /// Period of the concurrent export drain inside the phase; 0 = none.
  double export_period_s = 0.0;
  /// Client lanes: which routes share a keep-alive connection pool of
  /// how many threads (4 in total). Routes of a lane go to one server.
  std::vector<std::pair<std::vector<Route>, int>> lanes;
};

// Pool sizes: ids for ann/hybrid/get/citation, keyword texts, and a
// Zipf-skewed MLQL pool (s = 1.1 over the 32 texts of each template, so
// about half of a phase's MLQL requests repeat an earlier text and can
// hit the plan cache; `mlql_repeat_share` in the meta line).
constexpr uint32_t kIdPool = 256;
constexpr uint32_t kKeywordPool = 48;
constexpr uint32_t kMlqlPool = 96;
constexpr uint32_t kHybridPool = 6;
constexpr double kMlqlZipf = 1.1;

// Keyword (and hybrid) texts and MLQL texts each come in 3 shapes of
// very different cost (pool index % kShapes, see MakePools), and the
// schedule sends each shape its even share. An odd count puts a
// route's median inside the middle shape's costs rather than on the
// gap between two shapes, where it would jump with every run.
constexpr uint32_t kShapes = 3;

std::vector<MixEntry> SearchMix(bool hybrid) {
  std::vector<MixEntry> mix = {
      {Route::kKeyword, 140, kKeywordPool, 0.0, kShapes},
      {Route::kAnn, 120, kIdPool, 0.0},
      {Route::kMlql, 15, kMlqlPool, kMlqlZipf, kShapes},
      {Route::kGet, 30, kIdPool, 0.0},
      {Route::kCitation, 10, kIdPool, 0.0}};
  if (hybrid) mix.push_back({Route::kHybrid, 10, kHybridPool, 0.0, kShapes});
  return mix;
}

// Each route keeps connections of its own by cost, so a latency
// measures the server, not a head-of-line wait inside the 4-connection
// client: sub-millisecond reads never queue behind a 4 ms keyword, nor
// anything light behind a 300 ms hybrid.
std::vector<std::pair<std::vector<Route>, int>> SearchLanes() {
  return {{{Route::kKeyword}, 1},
          {{Route::kAnn, Route::kGet, Route::kCitation}, 1},
          {{Route::kMlql, Route::kHybrid}, kClientThreads - 2}};
}

bool MakeSpec(const std::string& name, WorkloadSpec* spec) {
  spec->name = name;
  if (name == "lake_search") {
    spec->rate = 65;
    spec->latency_limit_ms = 1000;
    spec->mix = SearchMix(true);
    spec->lanes = SearchLanes();
    spec->ladder = {65, 100, 130};
    return true;
  }
  if (name == "cluster_search") {
    // No hybrid: a routed hybrid keeps all four cores busy (one shard
    // each) for about 200 ms, and every routed request that overlapped
    // one waited for it, so MLQL, ann and read medians moved with how
    // many hybrids a run happened to overlap.
    spec->rate = 65;
    spec->latency_limit_ms = 1000;
    spec->mix = SearchMix(false);
    spec->lanes = SearchLanes();
    spec->ladder = {65, 100, 130};
    return true;
  }
  if (name == "ingest_replicate") {
    spec->rate = 30;
    spec->latency_limit_ms = 1000;
    spec->mix = {{Route::kIngest, 20, 1, 0.0},
                 {Route::kAnn, 100, kIdPool, 0.0},
                 {Route::kKeyword, 40, kKeywordPool, 0.0, kShapes},
                 {Route::kHybrid, 10, kHybridPool, 0.0, kShapes},
                 {Route::kGet, 60, kIdPool, 0.0},
                 {Route::kCitation, 10, kIdPool, 0.0},
                 {Route::kMlql, 15, kMlqlPool, kMlqlZipf, kShapes}};
    // Leader: writes, MLQL, citations and the export; replica: reads,
    // light and heavy apart.
    spec->lanes = {
        {{Route::kIngest, Route::kMlql, Route::kCitation, Route::kExport}, 2},
        {{Route::kAnn, Route::kKeyword, Route::kGet}, 1},
        {{Route::kHybrid}, 1}};
    spec->export_period_s = 2.5;
    return true;
  }
  return false;
}

/// Request bodies. The pools are the same for every seed (the lake is
/// too): a seed draws the arrival times and which entries are sent,
/// never the entries themselves, so runs of different seeds send the
/// same population of request shapes and their figures compare.
struct Pools {
  std::vector<std::string> ids;
  std::vector<std::string> keyword;
  std::vector<std::string> mlql;
};

Pools MakePools(std::vector<std::string> lake_ids) {
  Pools pools;
  std::sort(lake_ids.begin(), lake_ids.end());
  mlake::Rng rng(20250325);
  for (uint32_t i = 0; i < kIdPool; ++i) {
    pools.ids.push_back(lake_ids[rng.NextBelow(lake_ids.size())]);
  }
  const auto& families = mlake::lakegen::TaskFamilyPool();
  const auto& domains = mlake::lakegen::DomainPool();
  const char* creators[] = {"ada-labs", "bellwether-ai", "cortexworks",
                            "deltaml", "everglade"};
  const char* licenses[] = {"apache-2.0", "mit", "cc-by-4.0", "openrail"};
  auto family = [&] { return families[rng.NextBelow(8)]; };
  auto domain = [&] { return domains[rng.NextBelow(2)]; };
  for (uint32_t i = 0; i < kKeywordPool; ++i) {
    switch (i % kShapes) {
      case 0:  // two narrow terms
        pools.keyword.push_back(family() + " " + domain());
        break;
      case 1:  // a task term and a creator term
        pools.keyword.push_back(family() + " " + creators[rng.NextBelow(5)]);
        break;
      default:  // terms every card holds: every document scores
        pools.keyword.push_back("synthetic " + family() + " model");
    }
  }
  for (uint32_t i = 0; i < kMlqlPool; ++i) {
    const std::string& id = pools.ids[rng.NextBelow(kIdPool)];
    switch (i % kShapes) {
      case 0:  // selective predicate: the planner goes ANN-first
        pools.mlql.push_back(mlake::StrFormat(
            "FIND MODELS WHERE task = '%s' AND creator = '%s' RANK BY "
            "behavior_sim('%s') LIMIT 10",
            family().c_str(), creators[rng.NextBelow(5)], id.c_str()));
        break;
      case 1:  // tag scan ranked by BM25
        pools.mlql.push_back(mlake::StrFormat(
            "FIND MODELS WHERE tag('%s') RANK BY keyword('%s %s') LIMIT 10",
            domain().c_str(), family().c_str(), domain().c_str()));
        break;
      default:  // predicate scan, default ranking
        pools.mlql.push_back(mlake::StrFormat(
            "FIND MODELS WHERE license = '%s' AND task = '%s' LIMIT 10",
            licenses[rng.NextBelow(4)], family().c_str()));
    }
  }
  return pools;
}

/// One pre-built ingest: the POST body and the model id it creates.
struct IngestItem {
  std::string id;
  std::string body;
  std::string artifact;  // serialized artifact bytes
};

IngestItem MakeIngest(uint64_t seed, uint32_t n, const Pools& pools,
                      const std::string& tag) {
  mlake::Rng rng(seed * 1000003ULL + n);
  auto model = Must(mlake::nn::BuildModel(
                        mlake::nn::MlpSpec(kInputDim, {16}, kNumClasses), &rng),
                    "BuildModel");
  const auto& families = mlake::lakegen::TaskFamilyPool();
  const auto& domains = mlake::lakegen::DomainPool();
  const std::string& family = families[n % 8];
  const std::string& domain = domains[(n / 8) % 2];
  mlake::metadata::ModelCard card;
  card.model_id = mlake::StrFormat("bench/%s-%llu-%06u", tag.c_str(),
                                   static_cast<unsigned long long>(seed), n);
  card.name = card.model_id;
  card.task = family;
  card.tags = {domain};
  card.description =
      mlake::StrFormat("Benchmark-ingested %s model for %s text.",
                       family.c_str(), domain.c_str());
  card.training_datasets = {family + "/" + domain};
  card.creator = "lakebench";
  card.license = "mit";
  IngestItem item;
  item.id = card.model_id;
  item.artifact = mlake::storage::SerializeArtifact(
      mlake::storage::ArtifactFromModel(*model, Json::MakeObject()));
  Json body = Json::MakeObject();
  body.Set("card", card.ToJson());
  body.Set("artifact_b64", server::Base64Encode(item.artifact));
  if (n % 4 == 3) {
    body.Set("parent", pools.ids[n % kIdPool]);
    body.Set("edge_type", "finetune");
  }
  item.body = body.Dump();
  return item;
}

/// An HTTP request the open loop sends: method, path and body.
struct Request {
  bool post = false;
  std::string path;
  std::string body;
};

Request MakeRequest(const Arrival& a, const Pools& pools,
                    const std::vector<IngestItem>& ingests) {
  Request r;
  Json body = Json::MakeObject();
  switch (a.route) {
    case Route::kKeyword:
      body.Set("type", "keyword");
      body.Set("query", pools.keyword.at(a.pick));
      body.Set("k", 10);
      break;
    case Route::kAnn:
      body.Set("type", "ann");
      body.Set("id", pools.ids.at(a.pick));
      body.Set("k", 10);
      break;
    case Route::kMlql:
      body.Set("type", "mlql");
      body.Set("query", pools.mlql.at(a.pick));
      break;
    case Route::kHybrid:
      body.Set("type", "hybrid");
      body.Set("query", pools.keyword.at(a.pick % kKeywordPool));
      body.Set("id", pools.ids.at(a.pick));
      body.Set("k", 10);
      break;
    case Route::kGet:
      r.path = "/v1/models/" + pools.ids.at(a.pick);
      return r;
    case Route::kCitation:
      r.path = "/v1/models/" + pools.ids.at(a.pick) + "/citation";
      return r;
    case Route::kIngest:
      r.post = true;
      r.path = "/v1/ingest";
      r.body = ingests.at(a.pick).body;
      return r;
    case Route::kExport:
      r.path = "/v1/export";
      return r;
    case Route::kCount:
      break;
  }
  r.post = true;
  r.path = "/v1/search";
  r.body = body.Dump();
  return r;
}

// ------------------------------------------------------------ topology

core::LakeOptions LakeOpts(const std::string& root, bool replication_log) {
  core::LakeOptions options;
  options.root = root;
  options.probe_count = 8;
  options.input_dim = kInputDim;
  options.num_classes = kNumClasses;
  options.exec = mlake::ExecutionContext::WithThreads(kClientThreads);
  // The index generation must stay fixed through a run: a background
  // fold mid-phase would move latencies and invalidate plan caches at a
  // time no seed controls.
  options.background_compaction = false;
  options.replication_log = replication_log;
  return options;
}

server::ServerOptions ServerOpts() {
  server::ServerOptions options;
  options.threads = 16;
  options.max_inflight = 64;
  return options;
}

/// Everything one workload runs against. Members unused by a workload
/// stay null.
struct Rig {
  std::string dir;
  /// lake_search: the lake. cluster_search: the single-lake oracle.
  /// ingest_replicate: the leader.
  std::unique_ptr<core::ModelLake> lake;
  std::unique_ptr<server::LakeServer> server;
  std::unique_ptr<mlake::cluster::InProcessCluster> cluster;
  std::unique_ptr<core::ModelLake> replica_lake;
  std::unique_ptr<mlake::replication::Replicator> replicator;
  std::unique_ptr<server::LakeServer> replica_server;
  /// Frozen at set-up; catches up over the whole phase afterwards.
  std::unique_ptr<core::ModelLake> frozen_lake;
  std::unique_ptr<mlake::replication::Replicator> frozen;
  std::vector<IngestItem> ingests;
  Pools pools;

  ~Rig() { Shutdown(); }

  void Shutdown() {
    if (replica_server) (void)replica_server->Stop();
    if (replicator) (void)replicator->Stop();
    if (frozen) (void)frozen->Stop();
    if (cluster) (void)cluster->Stop();
    if (server) (void)server->Stop();
    replica_server.reset();
    replicator.reset();
    frozen.reset();
    cluster.reset();
    server.reset();
    replica_lake.reset();
    frozen_lake.reset();
    lake.reset();
    if (!dir.empty()) (void)mlake::RemoveAll(dir);
    dir.clear();
  }

  /// The port a route's requests go to.
  int PortFor(Route route) const {
    if (cluster) return cluster->router_port();
    if (replica_server &&
        (route == Route::kAnn || route == Route::kKeyword ||
         route == Route::kHybrid || route == Route::kGet)) {
      return replica_server->port();
    }
    return server->port();
  }
};

std::unique_ptr<core::ModelLake> StreamedLake(const std::string& root,
                                              bool replication_log) {
  auto lake = Must(core::ModelLake::Open(LakeOpts(root, replication_log)),
                   "ModelLake::Open " + root);
  mlake::lakegen::StreamGenConfig gen;
  gen.num_models = kNumModels;
  gen.batch_size = 1024;
  Must(mlake::lakegen::GenerateStreamingLake(lake.get(), gen).status(),
       "GenerateStreamingLake");
  Must(lake->CompactIndices(), "CompactIndices");
  return lake;
}

/// Splits the oracle's cards over the cluster's shards by
/// ShardSlotForId, in the oracle's id order, and compacts each shard.
void LoadShards(core::ModelLake* oracle,
                mlake::cluster::InProcessCluster* cluster) {
  const size_t shards = cluster->shards();
  std::vector<std::vector<core::CardIngest>> batches(shards);
  for (const std::string& id : oracle->ListModels()) {
    core::CardIngest ci;
    ci.card = Must(oracle->CardFor(id), "CardFor");
    ci.embedding = Must(oracle->EmbeddingFor(id), "EmbeddingFor");
    batches[mlake::ShardSlotForId(id, shards)].push_back(std::move(ci));
  }
  for (size_t s = 0; s < shards; ++s) {
    core::ModelLake* shard = cluster->lake(s);
    for (const std::string& name : oracle->ListDatasets()) {
      Must(shard->RegisterDataset(
               name, Must(oracle->DatasetShards(name), "DatasetShards")),
           "RegisterDataset");
    }
    std::vector<core::CardIngest>& all = batches[s];
    for (size_t at = 0; at < all.size(); at += 1024) {
      const size_t end = std::min(all.size(), at + 1024);
      std::vector<core::CardIngest> chunk(
          std::make_move_iterator(all.begin() + at),
          std::make_move_iterator(all.begin() + end));
      Must(shard->IngestCards(chunk).status(), "IngestCards (shard)");
    }
    Must(shard->CompactIndices(), "CompactIndices (shard)");
  }
  cluster->router()->TickNow();
}

/// Appends "name seconds" per set-up stage, for the set-up breakdown.
class StageClock {
 public:
  void Mark(const char* name) {
    auto now = Clock::now();
    text_ += mlake::StrFormat("%s%s %.2f", text_.empty() ? "" : ", ", name,
                              Seconds(now - last_));
    last_ = now;
  }
  const std::string& text() const { return text_; }

 private:
  Clock::time_point last_ = Clock::now();
  std::string text_;
};

/// Builds the workload's topology under `dir`. `ingest_count` is the
/// number of ingest bodies the schedule will send.
std::unique_ptr<Rig> SetUp(const WorkloadSpec& spec, const std::string& dir,
                           uint64_t seed, size_t ingest_count,
                           StageClock* stages) {
  auto rig = std::make_unique<Rig>();
  rig->dir = dir;
  (void)mlake::RemoveAll(dir);
  Must(mlake::CreateDirs(dir), "CreateDirs");
  const bool replicated = spec.name == "ingest_replicate";
  rig->lake = StreamedLake(mlake::JoinPath(dir, "lake"), replicated);
  stages->Mark("lake");
  rig->server = std::make_unique<server::LakeServer>(rig->lake.get(),
                                                     ServerOpts());
  Must(rig->server->Start(), "LakeServer::Start");
  rig->pools = MakePools(rig->lake->ListModels());
  stages->Mark("server");

  if (spec.name == "cluster_search") {
    mlake::cluster::InProcessClusterOptions options;
    options.shards = 4;
    options.replicas_per_shard = 1;
    options.lake_options = LakeOpts("", false);
    options.server_options = ServerOpts();
    options.router_options.threads = 16;
    options.router_options.fanout_threads = 32;
    options.router_options.max_idle_per_endpoint = 8;
    // One heartbeat at Start (and one TickNow after loading) fixes the
    // map; no ticks run during the phase.
    options.router_options.heartbeat_interval_ms = 600000;
    rig->cluster = Must(mlake::cluster::InProcessCluster::Create(
                            mlake::JoinPath(dir, "cluster"), options),
                        "InProcessCluster::Create");
    stages->Mark("cluster");
    LoadShards(rig->lake.get(), rig->cluster.get());
    stages->Mark("shards");
  }

  if (replicated) {
    // Both replicas start level with the leader as byte copies of its
    // quiescent, compacted directory: same catalog, same op log, same
    // index snapshot. Replayed entries then extend identical indexes, so
    // caught-up answers (ANN included) must equal the leader's.
    mlake::replication::ReplicaOptions options;
    options.leader_port = rig->server->port();
    options.poll_interval_ms = 100;
    auto open_copy = [&](const std::string& name) {
      const std::string root = mlake::JoinPath(dir, name);
      std::filesystem::copy(mlake::JoinPath(dir, "lake"), root,
                            std::filesystem::copy_options::recursive);
      return Must(core::ModelLake::Open(LakeOpts(root, true)),
                  "ModelLake::Open " + name);
    };
    rig->replica_lake = open_copy("replica");
    stages->Mark("replica");
    rig->replicator = Must(mlake::replication::Replicator::Open(
                               rig->replica_lake.get(), options),
                           "Replicator::Open");
    rig->frozen_lake = open_copy("frozen");
    stages->Mark("frozen");
    rig->frozen = Must(mlake::replication::Replicator::Open(
                           rig->frozen_lake.get(), options),
                       "Replicator::Open (frozen)");
    server::ServerOptions replica_options = ServerOpts();
    replica_options.replication = rig->replicator.get();
    rig->replica_server = std::make_unique<server::LakeServer>(
        rig->replica_lake.get(), replica_options);
    Must(rig->replica_server->Start(), "replica LakeServer::Start");
    Must(rig->replicator->Start(), "Replicator::Start");
    for (size_t n = 0; n < ingest_count; ++n) {
      rig->ingests.push_back(
          MakeIngest(seed, static_cast<uint32_t>(n), rig->pools, "ingest"));
    }
    stages->Mark("artifacts");
  }
  return rig;
}

// ----------------------------------------------------------- open loop

struct Record {
  Route route = Route::kKeyword;
  int64_t due_us = 0;
  int64_t start_us = 0;
  int64_t end_us = 0;
  int status = 0;
  bool ok = false;        // 2xx and, where checked, matching the oracle
  bool mismatch = false;  // 2xx but differing from the oracle
  bool traced = false;    // sent with a span and an X-Request-Id
  std::string body;       // MLQL answers, checked after the phase
};

/// Per-request check: returns false when a 2xx body is wrong.
using Checker =
    std::function<bool(const Arrival&, const server::HttpResponse&)>;

struct PhaseResult {
  std::vector<Record> records;
  double wall_s = 0.0;
};

/// Sends `schedule` open-loop over the workload's lanes: each lane's
/// threads hold one keep-alive connection each to the lane's server,
/// and a free thread takes the lane's next due arrival. Every request
/// is timed from its due time. With `spans` set, every other arrival
/// also records a client span and carries its request id in
/// X-Request-Id, so traced and untraced requests share one phase.
PhaseResult RunOpenLoop(const Rig& rig, const WorkloadSpec& spec,
                        const std::vector<Arrival>& schedule,
                        const Pools& pools, const Checker& check,
                        Spans* spans) {
  struct Group {
    int port = 0;
    int threads = 0;
    std::vector<size_t> arrivals;
    std::atomic<size_t> next{0};
  };
  std::vector<std::unique_ptr<Group>> groups;
  for (const auto& [routes, threads] : spec.lanes) {
    auto g = std::make_unique<Group>();
    g->port = rig.PortFor(routes.front());
    g->threads = threads;
    for (size_t i = 0; i < schedule.size(); ++i) {
      if (std::find(routes.begin(), routes.end(), schedule[i].route) !=
          routes.end()) {
        g->arrivals.push_back(i);
      }
    }
    groups.push_back(std::move(g));
  }

  PhaseResult result;
  result.records.resize(schedule.size());
  // Pre-render every body so the send loop does no JSON work.
  std::vector<Request> requests;
  requests.reserve(schedule.size());
  for (const Arrival& a : schedule) {
    requests.push_back(MakeRequest(a, pools, rig.ingests));
  }

  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (auto& group : groups) {
    for (int t = 0; t < group->threads; ++t) {
      Group* g = group.get();
      threads.emplace_back([&, g] {
        server::HttpClient client("127.0.0.1", g->port);
        client.set_timeout_ms(static_cast<int>(kFailedLatencyMs));
        while (true) {
          size_t at = g->next.fetch_add(1);
          if (at >= g->arrivals.size()) break;
          size_t i = g->arrivals[at];
          const Arrival& a = schedule[i];
          const Request& req = requests[i];
          auto due = t0 + std::chrono::microseconds(a.due_us);
          const bool traced = spans != nullptr && i % 2 == 1;
          // Sleep to just short of the due time, then spin: a timer
          // wake-up on a loaded host can run late by tens of
          // microseconds, which would count as latency of a sub-ms read.
          std::this_thread::sleep_until(due - kSpinBeforeDue);
          while (Clock::now() < due) {
          }
          auto start = Clock::now();
          std::vector<std::pair<std::string, std::string>> headers;
          if (traced) {
            headers.push_back({"X-Request-Id", std::to_string(i + 1)});
          }
          auto response = req.post ? client.Post(req.path, req.body, headers)
                                   : client.Get(req.path, headers);
          auto end = Clock::now();
          Record& rec = result.records[i];
          rec.route = a.route;
          rec.due_us = a.due_us;
          rec.start_us = Micros(t0, start);
          rec.end_us = Micros(t0, end);
          rec.traced = traced;
          if (response.ok()) {
            const server::HttpResponse& r = response.ValueUnsafe();
            rec.status = r.status;
            bool good = r.status >= 200 && r.status < 300;
            if (good && check && !check(a, r)) {
              rec.mismatch = true;
              good = false;
            }
            rec.ok = good;
            if (good && a.route == Route::kMlql) rec.body = r.body;
          }
          if (traced) {
            spans->Record(std::string("client.") + RouteName(a.route), 0,
                          i + 1, start, end);
          }
        }
      });
    }
  }
  for (auto& t : threads) t.join();
  result.wall_s = Seconds(Clock::now() - t0);
  return result;
}

/// Latency samples of the given routes, in ms from due time; failed
/// requests enter at kFailedLatencyMs.
std::vector<double> LatenciesMs(const PhaseResult& phase,
                                std::initializer_list<Route> routes,
                                bool from_start = false) {
  std::vector<double> out;
  for (const Record& r : phase.records) {
    if (std::find(routes.begin(), routes.end(), r.route) == routes.end()) {
      continue;
    }
    if (!r.ok) {
      out.push_back(kFailedLatencyMs);
      continue;
    }
    out.push_back(double(r.end_us - (from_start ? r.start_us : r.due_us)) /
                  1000.0);
  }
  return out;
}

// ------------------------------------------------------------- oracles

std::string ModelsField(const std::string& body) {
  auto parsed = Json::Parse(body);
  if (!parsed.ok()) return "<unparseable>";
  const Json* models = parsed.ValueUnsafe().Find("models");
  return models == nullptr ? "<no models>" : models->Dump();
}

/// Every distinct (route, pick) in `schedule` of the MLQL route (`mlql`
/// true) or of the other read routes (`mlql` false).
std::vector<Arrival> DistinctReads(const std::vector<Arrival>& schedule,
                                   bool mlql) {
  std::set<std::pair<int, uint32_t>> seen;
  std::vector<Arrival> out;
  for (const Arrival& a : schedule) {
    if (a.route == Route::kIngest || a.route == Route::kExport ||
        (a.route == Route::kMlql) != mlql) {
      continue;
    }
    if (seen.insert({static_cast<int>(a.route), a.pick}).second) {
      Arrival d = a;
      d.due_us = 0;
      out.push_back(d);
    }
  }
  return out;
}

using Answers = std::map<std::pair<int, uint32_t>, std::string>;

/// Sends each arrival once, serially, and keeps the 2xx bodies. Returns
/// the number of non-2xx answers.
size_t RecordAnswers(int port, const std::vector<Arrival>& arrivals,
                     const Pools& pools, Answers* out) {
  server::HttpClient client("127.0.0.1", port);
  size_t bad = 0;
  for (const Arrival& a : arrivals) {
    Request req = MakeRequest(a, pools, {});
    auto response =
        req.post ? client.Post(req.path, req.body) : client.Get(req.path);
    if (!response.ok() || response.ValueUnsafe().status != 200) {
      ++bad;
      continue;
    }
    (*out)[{static_cast<int>(a.route), a.pick}] = response.ValueUnsafe().body;
  }
  return bad;
}

struct ExportDrain {
  double seconds = 0.0;
  bool ok = false;
  std::string etag;
  std::string digest;
  size_t bytes = 0;
};

ExportDrain DrainExport(int port) {
  server::HttpClient client("127.0.0.1", port);
  client.set_timeout_ms(static_cast<int>(kFailedLatencyMs));
  ExportDrain d;
  auto start = Clock::now();
  auto response = client.Get("/v1/export");
  d.seconds = Seconds(Clock::now() - start);
  if (!response.ok() || response.ValueUnsafe().status != 200) return d;
  const server::HttpResponse& r = response.ValueUnsafe();
  d.ok = true;
  d.etag = std::string(r.Header("ETag"));
  d.digest = mlake::Sha256::HexDigest(r.body);
  d.bytes = r.body.size();
  return d;
}

// -------------------------------------------------------------- report

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  size_t count = 0;  // samples behind a percentile (0 = not a percentile)
};

class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value,
           size_t count = 0) {
    metrics_.push_back({name, unit, value, count});
  }
  /// A per-layer metric this workload has no layer for: reported as 0,
  /// with the reason printed.
  void Absent(const std::string& name, const std::string& unit,
              const std::string& why) {
    metrics_.push_back({name, unit, 0.0, 0});
    absent_.push_back(name + ": " + why);
  }

  void Print(const char* heading) const {
    std::printf("\n%s\n", heading);
    for (const Metric& m : metrics_) {
      if (m.count > 0) {
        std::printf("  %-40s %14.6f %-6s (n=%zu)\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.count);
      } else {
        std::printf("  %-40s %14.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
    for (const std::string& a : absent_) {
      std::printf("  absent (reported as 0): %s\n", a.c_str());
    }
  }

  std::string MetricsJson() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += mlake::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                              i == 0 ? "" : ", ", m.name.c_str(), m.value,
                              m.unit.c_str());
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> absent_;
};

// ----------------------------------------------------------- the run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/run";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;

  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void Count(const PhaseResult& phase) {
    for (const Record& r : phase.records) {
      ++attempted;
      if (!r.ok) ++failed;
      if (r.mismatch) correct = false;
    }
  }
};

/// Read-only workloads: records the MLQL oracle after the phase (sending
/// the texts before it would fill the plan cache, and the phase would
/// never parse), adds it to `expected` for later phases, and marks each
/// phase MLQL answer that differs from it as a mismatch.
void CheckMlqlAfterPhase(int port, const std::vector<Arrival>& schedule,
                         const Pools& pools, PhaseResult* phase,
                         Answers* expected, Outcome* outcome) {
  if (RecordAnswers(port, DistinctReads(schedule, true), pools, expected) !=
      0) {
    outcome->Fail("MLQL oracle pass: non-2xx answers");
  }
  for (size_t i = 0; i < phase->records.size(); ++i) {
    Record& rec = phase->records[i];
    if (rec.route != Route::kMlql || !rec.ok) continue;
    auto it = expected->find({static_cast<int>(Route::kMlql),
                              schedule[i].pick});
    if (it == expected->end() || it->second != rec.body) {
      rec.mismatch = true;
      rec.ok = false;
    }
  }
}

void PrintMeta(const Args& args, const WorkloadSpec& spec,
               const std::vector<Arrival>& schedule,
               const PhaseResult& phase) {
  Json meta = Json::MakeObject();
  meta.Set("workload", spec.name);
  meta.Set("seed", args.seed);
  meta.Set("seconds", args.seconds);
  meta.Set("trace", args.trace);
  meta.Set("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
  meta.Set("compiler", LAKEBENCH_COMPILER);
  meta.Set("build_type", LAKEBENCH_BUILD_TYPE);
  meta.Set("git_commit", args.commit);
  meta.Set("source_digest", args.source_digest);
  meta.Set("kernel_backend", mlake::kernels::Active().name);
  meta.Set("fsync", mlake::FsyncEnabled() ? "on (default)" : "off");
  meta.Set("models", static_cast<uint64_t>(kNumModels));
  meta.Set("client_threads", static_cast<int64_t>(kClientThreads));
  meta.Set("offered_rate_per_s", spec.rate);
  meta.Set("latency_limit_ms", spec.latency_limit_ms);
  Json ladder = Json::MakeArray();
  for (double r : spec.ladder) ladder.Append(r);
  meta.Set("capacity_ladder_per_s", std::move(ladder));
  meta.Set("scheduled_requests", static_cast<uint64_t>(schedule.size()));
  meta.Set("mlql_repeat_share", RepeatShare(schedule, Route::kMlql));
  std::vector<double> lag_ms;
  uint64_t late = 0;
  for (const Record& r : phase.records) {
    double lag = double(r.start_us - r.due_us) / 1000.0;
    lag_ms.push_back(lag);
    if (lag > 1.0) ++late;
  }
  meta.Set("generator_lag_p99_ms", Percentile(lag_ms, 99));
  meta.Set("generator_late_sends", late);
  meta.Set("generator_late_threshold_ms", 1.0);
  std::printf("meta %s\n", meta.Dump().c_str());
}

/// Offered-rate ladder on a read-only topology: the highest rate whose
/// p99 over every request meets the limit with no growing backlog (the
/// last quarter of sends is no later than the limit at p99).
double CapacityQps(const Rig& rig, const WorkloadSpec& spec, uint64_t seed,
                   const Pools& pools, const Checker& check,
                   Outcome* outcome) {
  double capacity = 0.0;
  for (size_t step = 0; step < spec.ladder.size(); ++step) {
    double rate = spec.ladder[step];
    auto schedule = MakeSchedule(seed + 101 + step, rate, 1.0, spec.mix);
    PhaseResult phase = RunOpenLoop(rig, spec, schedule, pools, check, nullptr);
    uint64_t failed = 0;
    std::vector<double> all;
    std::vector<double> tail_lag;
    for (size_t i = 0; i < phase.records.size(); ++i) {
      const Record& r = phase.records[i];
      if (!r.ok) ++failed;
      all.push_back(r.ok ? double(r.end_us - r.due_us) / 1000.0
                         : kFailedLatencyMs);
      if (i >= phase.records.size() * 3 / 4) {
        tail_lag.push_back(double(r.start_us - r.due_us) / 1000.0);
      }
    }
    for (const Record& r : phase.records) {
      if (r.mismatch) outcome->Fail("capacity step answer mismatch");
    }
    double p99 = Percentile(all, 99);
    double lag = Percentile(tail_lag, 99);
    bool meets = failed == 0 && p99 <= spec.latency_limit_ms &&
                 lag <= spec.latency_limit_ms;
    std::printf("  capacity step %7.0f/s: p99 %8.3f ms, tail lag p99 %8.3f ms,"
                " n=%zu, failed=%llu -> %s\n",
                rate, p99, lag, all.size(),
                static_cast<unsigned long long>(failed),
                meets ? "meets" : "misses");
    if (!meets) break;
    capacity = rate;
  }
  return capacity;
}

/// The fixed identity query set. MLQL picks of template 0 rank by
/// behavior_sim (an ANN probe); the rest of the set is exact.
std::vector<Arrival> IdentityProbes() {
  std::vector<Arrival> out;
  for (uint32_t i = 0; i < 8; ++i) {
    out.push_back({0, Route::kKeyword, i * 5});
    out.push_back({0, Route::kAnn, i * 31});
    out.push_back({0, Route::kMlql, i * kShapes + 1 + (i % 2)});
    out.push_back({0, Route::kGet, i * 17});
  }
  for (uint32_t i = 0; i < 4; ++i) {
    out.push_back({0, Route::kMlql, i * 7 * kShapes});
  }
  out.push_back({0, Route::kHybrid, 0});
  out.push_back({0, Route::kHybrid, 5});
  return out;
}

bool IsAnnProbe(const Arrival& a) {
  return a.route == Route::kAnn ||
         (a.route == Route::kMlql && a.pick % kShapes == 0);
}

/// Compares the answers two servers give for the identity set: the
/// "models" list (the whole body for model gets) must match byte for
/// byte. With `exact_ann` false, answers that rest on an ANN probe are
/// instead reported as the share of ids both lists hold: each shard's
/// HNSW graph is approximate on its own, so a sharded top-k need not
/// equal the single graph's.
void CompareServers(int port_a, int port_b, const Pools& pools,
                    const std::string& what, bool exact_ann,
                    Outcome* outcome) {
  Answers a;
  Answers b;
  auto probes = IdentityProbes();
  size_t bad = RecordAnswers(port_a, probes, pools, &a) +
               RecordAnswers(port_b, probes, pools, &b);
  if (bad != 0) outcome->Fail(what + ": non-2xx identity answer");
  size_t exact = 0;
  size_t mismatches = 0;
  double overlap_sum = 0.0;
  size_t overlap_n = 0;
  for (const Arrival& p : probes) {
    auto key = std::make_pair(static_cast<int>(p.route), p.pick);
    auto ia = a.find(key);
    auto ib = b.find(key);
    if (ia == a.end() || ib == b.end()) continue;
    if (p.route == Route::kGet) {
      ++exact;
      if (ia->second != ib->second) ++mismatches;
      continue;
    }
    std::string ma = ModelsField(ia->second);
    std::string mb = ModelsField(ib->second);
    if (exact_ann || !IsAnnProbe(p)) {
      ++exact;
      if (ma != mb) {
        ++mismatches;
        std::fprintf(stderr, "  %s mismatch: route %s pick %u\n",
                     what.c_str(), RouteName(p.route), p.pick);
      }
      continue;
    }
    auto ids = [](const std::string& body) {
      std::set<std::string> out;
      auto parsed = Json::Parse(body);
      if (!parsed.ok()) return out;
      const Json* models = parsed.ValueUnsafe().Find("models");
      if (models == nullptr || !models->is_array()) return out;
      for (const Json& m : models->AsArray()) out.insert(m.GetString("id"));
      return out;
    };
    std::set<std::string> sa = ids(ia->second);
    std::set<std::string> sb = ids(ib->second);
    size_t common = 0;
    for (const std::string& id : sa) common += sb.count(id);
    overlap_sum +=
        Ratio(double(common), double(std::max(sa.size(), sb.size())));
    ++overlap_n;
  }
  std::printf("  identity %-28s %zu/%zu exact answers match", what.c_str(),
              exact - mismatches, exact);
  if (overlap_n > 0) {
    std::printf("; ANN-ranked answers share %.3f of their ids (n=%zu)",
                overlap_sum / double(overlap_n), overlap_n);
  }
  std::printf("\n");
  if (mismatches != 0) outcome->Fail(what + ": answers differ");
}

/// server.handler_us.<route> inputs: Δ(sum, count) of the front
/// server's endpoint histograms over a phase.
struct HandlerTotals {
  double sum_us[kNumRoutes] = {};
  double count[kNumRoutes] = {};
  uint64_t rejected = 0;
};

Route RouteOfLabel(const std::string& label, bool* known) {
  *known = true;
  if (label == "POST /v1/search:keyword") return Route::kKeyword;
  if (label == "POST /v1/search:ann") return Route::kAnn;
  if (label == "POST /v1/search:mlql") return Route::kMlql;
  if (label == "POST /v1/search:hybrid") return Route::kHybrid;
  if (label == "GET /v1/models/{id}") return Route::kGet;
  if (label == "GET /v1/models/{id}/citation") return Route::kCitation;
  if (label == "POST /v1/ingest") return Route::kIngest;
  if (label == "GET /v1/export") return Route::kExport;
  *known = false;
  return Route::kCount;
}

HandlerTotals FrontTotals(const Rig& rig) {
  HandlerTotals t;
  std::vector<const server::MetricsRegistry*> registries;
  if (rig.cluster) {
    registries.push_back(&rig.cluster->router()->metrics());
  } else {
    registries.push_back(&rig.server->metrics());
    if (rig.replica_server) {
      registries.push_back(&rig.replica_server->metrics());
    }
  }
  for (size_t i = 0; i < registries.size(); ++i) {
    for (const auto& [label, stats] : registries[i]->Snapshot()) {
      bool known = false;
      Route route = RouteOfLabel(label, &known);
      t.rejected += stats.rejected;
      if (!known) continue;
      // With a replica, a route counts only at the server it is sent to.
      if (rig.replica_server &&
          (rig.PortFor(route) == rig.replica_server->port()) != (i == 1)) {
        continue;
      }
      t.sum_us[static_cast<size_t>(route)] += double(stats.latency.sum_us);
      t.count[static_cast<size_t>(route)] += double(stats.latency.count);
    }
  }
  return t;
}

/// Mean batch occupancy and batch count of every LakeServer's batcher.
std::pair<double, double> BatchTotals(const Rig& rig) {
  std::vector<server::LakeServer*> servers;
  if (rig.cluster) {
    for (size_t s = 0; s < rig.cluster->shards(); ++s) {
      servers.push_back(rig.cluster->server(s));
    }
  } else {
    servers.push_back(rig.server.get());
    if (rig.replica_server) servers.push_back(rig.replica_server.get());
  }
  double sum = 0.0;
  double count = 0.0;
  for (server::LakeServer* s : servers) {
    Json statsz = s->StatszJson();
    const Json* batching = statsz.Find("batching");
    const Json* occ = batching ? batching->Find("occupancy") : nullptr;
    if (occ == nullptr) continue;
    double n = occ->GetDouble("count");
    sum += occ->GetDouble("mean") * n;
    count += n;
  }
  return {sum, count};
}

/// Median of `fn`'s duration in µs over `reps` calls, each recorded as
/// a span named `name` under `parent`.
template <typename Fn>
double MedianUs(Spans* spans, const std::string& name, uint64_t parent,
                size_t reps, Fn&& fn) {
  std::vector<double> us;
  for (size_t i = 0; i < reps; ++i) {
    us.push_back(spans->Time(name, parent, [&] { fn(i); }));
  }
  return MedianOf(us);
}

/// The direct layer probes of the traced run (see README.md for what
/// each metric should move).
void LayerProbes(Rig* rig, const Args& args,
                 Spans* spans, Report* report, Outcome* outcome) {
  core::ModelLake* lake = rig->lake.get();
  const Pools& pools = rig->pools;
  const std::string scratch = mlake::JoinPath(rig->dir, "probe");
  Must(mlake::CreateDirs(scratch), "CreateDirs probe");

  // index: BM25 and HNSW built from the lake's own cards and
  // embeddings, saved and reloaded into the snapshot-base form the lake
  // serves after compaction.
  {
    uint64_t root = spans->Open("probe.index", 0);
    std::vector<std::string> ids = lake->ListModels();
    mlake::index::InvertedIndex built;
    mlake::index::HnswIndex hnsw_built(lake->EmbeddingDim(),
                                       lake->options().hnsw);
    std::vector<int64_t> hnsw_ids;
    std::vector<std::vector<float>> vecs;
    std::map<std::string, int64_t> id_index;
    spans->Time("index.build", root, [&] {
      for (size_t i = 0; i < ids.size(); ++i) {
        built.Add(ids[i], Must(lake->CardFor(ids[i]), "CardFor").SearchText());
        hnsw_ids.push_back(static_cast<int64_t>(i));
        vecs.push_back(Must(lake->EmbeddingFor(ids[i]), "EmbeddingFor"));
        id_index[ids[i]] = static_cast<int64_t>(i);
      }
      Must(hnsw_built.Build(hnsw_ids, vecs, lake->options().exec),
           "HnswIndex::Build");
    });
    const std::string bm25_path = mlake::JoinPath(scratch, "bm25.snap");
    const std::string hnsw_path = mlake::JoinPath(scratch, "hnsw.snap");
    mlake::Fs* fs = mlake::RealFs();
    Must(built.SaveSnapshot(fs, bm25_path, 1), "bm25 SaveSnapshot");
    Must(hnsw_built.SaveSnapshot(fs, hnsw_path, 1), "hnsw SaveSnapshot");
    mlake::index::InvertedIndex bm25;
    Must(bm25.LoadSnapshot(fs, bm25_path), "bm25 LoadSnapshot");
    mlake::index::HnswIndex hnsw(lake->EmbeddingDim(), lake->options().hnsw);
    Must(hnsw.LoadSnapshot(fs, hnsw_path), "hnsw LoadSnapshot");

    size_t sink = 0;
    report->Add("index.bm25_search_us", "us",
                MedianUs(spans, "index.bm25_search", root,
                         pools.keyword.size() * 4, [&](size_t i) {
                           sink += bm25.Search(
                               pools.keyword[i % pools.keyword.size()], 10)
                                       .size();
                         }));
    std::vector<double> batch_us;
    for (int rep = 0; rep < 9; ++rep) {
      batch_us.push_back(spans->Time("index.bm25_batch", root, [&] {
        sink += bm25.SearchBatch(pools.keyword, 10).size();
      }) / double(pools.keyword.size()));
    }
    report->Add("index.bm25_batch_us_per_query", "us", MedianOf(batch_us));

    std::vector<std::vector<float>> queries;
    for (const std::string& id : pools.ids) {
      queries.push_back(vecs[static_cast<size_t>(id_index.at(id))]);
    }
    report->Add("index.hnsw_search_us", "us",
                MedianUs(spans, "index.hnsw_search", root, queries.size() * 2,
                         [&](size_t i) {
                           sink += Must(hnsw.Search(queries[i % queries.size()],
                                                    11),
                                        "hnsw Search")
                                       .size();
                         }));
    batch_us.clear();
    for (int rep = 0; rep < 9; ++rep) {
      batch_us.push_back(spans->Time("index.hnsw_batch", root, [&] {
        sink += Must(hnsw.SearchBatch(queries, 11), "hnsw SearchBatch").size();
      }) / double(queries.size()));
    }
    report->Add("index.hnsw_batch_us_per_query", "us", MedianOf(batch_us));
    if (sink == 0) outcome->Fail("index probes returned no hits");
    spans->Close(root);
  }

  // search: parse cost and the planner's choices over the phase.
  {
    uint64_t root = spans->Open("probe.search", 0);
    report->Add("search.parse_us", "us",
                MedianUs(spans, "search.parse", root, pools.mlql.size() * 4,
                         [&](size_t i) {
                           Must(mlake::search::ParseQuery(
                                    pools.mlql[i % pools.mlql.size()])
                                    .status(),
                                "ParseQuery");
                         }));
    spans->Close(root);
  }

  // core: the lake's public search calls, solo and in process.
  {
    uint64_t root = spans->Open("probe.core", 0);
    report->Add("core.keyword_us", "us",
                MedianUs(spans, "core.keyword", root, pools.keyword.size() * 2,
                         [&](size_t i) {
                           Must(lake->KeywordScores(
                                        pools.keyword[i % pools.keyword.size()],
                                        10)
                                    .status(),
                                "KeywordScores");
                         }));
    report->Add("core.ann_us", "us",
                MedianUs(spans, "core.ann", root, pools.ids.size(),
                         [&](size_t i) {
                           Must(lake->RelatedModels(pools.ids[i], 10).status(),
                                "RelatedModels");
                         }));
    report->Add("core.mlql_us", "us",
                MedianUs(spans, "core.mlql", root, pools.mlql.size() / 2,
                         [&](size_t i) {
                           Must(lake->Query(pools.mlql[i % pools.mlql.size()])
                                    .status(),
                                "Query");
                         }));
    report->Add("core.hybrid_us", "us",
                MedianUs(spans, "core.hybrid", root, 2 * kHybridPool,
                         [&](size_t i) {
                           Must(lake->HybridSearch(
                                        pools.keyword[i % pools.keyword.size()],
                                        pools.ids[i], 10)
                                    .status(),
                                "HybridSearch");
                         }));
    std::vector<double> drains;
    for (int rep = 0; rep < 3; ++rep) {
      drains.push_back(spans->Time("core.export_drain", root, [&] {
        auto it = lake->OpenExport();
        std::string line;
        size_t bytes = 0;
        while (it->Next(&line)) bytes += line.size();
        if (bytes == 0) outcome->Fail("empty library export");
      }) / 1000.0);
    }
    report->Add("core.export_drain_ms", "ms", MedianOf(drains));
    spans->Close(root);
  }

  // governance: citation documents for the read pool.
  {
    uint64_t root = spans->Open("probe.governance", 0);
    report->Add("governance.citation_us", "us",
                MedianUs(spans, "governance.citation", root, pools.ids.size(),
                         [&](size_t i) {
                           Must(lake->CitationDoc(pools.ids[i]).status(),
                                "CitationDoc");
                         }));
    spans->Close(root);
  }

  // storage + embed + core ingest on fresh artifacts (distinct from the
  // phase's), written into the workload's primary lake last.
  {
    uint64_t root = spans->Open("probe.write", 0);
    std::vector<IngestItem> items;
    for (size_t n = 0; n < kProbeModels; ++n) {
      items.push_back(
          MakeIngest(args.seed, static_cast<uint32_t>(n), pools, "probe"));
    }
    auto blobs = Must(
        mlake::storage::BlobStore::Open(mlake::JoinPath(scratch, "blobs")),
        "BlobStore::Open");
    report->Add("storage.blob_put_us", "us",
                MedianUs(spans, "storage.blob_put", root, items.size(),
                         [&](size_t i) {
                           Must(blobs.Put(items[i].artifact).status(),
                                "BlobStore::Put");
                         }));
    std::vector<std::unique_ptr<mlake::nn::Model>> models;
    for (const IngestItem& item : items) {
      auto artifact = Must(mlake::storage::ParseArtifact(item.artifact),
                           "ParseArtifact");
      models.push_back(Must(mlake::storage::ModelFromArtifact(artifact),
                            "ModelFromArtifact"));
    }
    auto embedder = Must(mlake::embed::MakeEmbedder(lake->options().embedder,
                                                    lake->probes(),
                                                    kNumClasses),
                         "MakeEmbedder");
    report->Add("embed.embed_us", "us",
                MedianUs(spans, "embed.embed", root, models.size(),
                         [&](size_t i) {
                           Must(embedder->Embed(models[i].get()).status(),
                                "Embed");
                         }));
    const uint64_t bytes_before = DirBytes(lake->options().root);
    report->Add("core.ingest_us", "us",
                MedianUs(spans, "core.ingest", root, items.size(),
                         [&](size_t i) {
                           auto card = Must(
                               mlake::metadata::ModelCard::FromJson(
                                   *Must(Json::Parse(items[i].body), "body")
                                        .Find("card")),
                               "card");
                           Must(lake->IngestModel(*models[i], card).status(),
                                "IngestModel");
                         }));
    const uint64_t bytes_after = DirBytes(lake->options().root);
    report->Add("storage.bytes_written_per_model", "B",
                double(bytes_after > bytes_before ? bytes_after - bytes_before
                                                  : 0) /
                    double(items.size()));
    // The read path over what was just written: two artifact loads per
    // model, the second of which the decoded-artifact cache can serve.
    const auto before = lake->CacheStats().artifacts;
    for (const IngestItem& item : items) {
      for (int rep = 0; rep < 2; ++rep) {
        spans->Time("storage.load_artifact", root, [&] {
          Must(lake->LoadArtifact(item.id).status(), "LoadArtifact");
        });
      }
    }
    const auto after = lake->CacheStats().artifacts;
    report->Add("storage.artifact_cache_hit_ratio", "ratio",
                Ratio(double(after.hits - before.hits),
                      double(after.hits - before.hits + after.misses -
                             before.misses)));
    spans->Close(root);
  }

  // index lifecycle: one compaction of the primary lake (on
  // ingest_replicate it folds everything the phase wrote).
  {
    uint64_t root = spans->Open("probe.compact", 0);
    double ms = spans->Time("index.compact", root, [&] {
      Must(lake->CompactIndices(), "CompactIndices");
    }) / 1000.0;
    report->Add("index.compact_ms", "ms", ms);
    uint64_t compactions = lake->IndexGeneration();
    if (rig->cluster) {
      for (size_t s = 0; s < rig->cluster->shards(); ++s) {
        compactions += rig->cluster->lake(s)->IndexGeneration();
      }
    }
    report->Add("index.compactions", "count", double(compactions));
    spans->Close(root);
  }
}

/// cluster.*: for the identity set, routed round trip against the
/// slowest direct shard round trip for the same body, per route.
void ClusterProbes(Rig* rig, Spans* spans, Report* report,
                   Outcome* outcome) {
  const Pools& pools = rig->pools;
  auto* cluster = rig->cluster.get();
  uint64_t root = spans->Open("probe.cluster", 0);
  server::HttpClient routed("127.0.0.1", cluster->router_port());
  std::vector<std::unique_ptr<server::HttpClient>> direct;
  for (size_t s = 0; s < cluster->shards(); ++s) {
    direct.push_back(std::make_unique<server::HttpClient>(
        "127.0.0.1", cluster->server(s)->port()));
  }
  const Route routes[] = {Route::kKeyword, Route::kAnn, Route::kMlql,
                          Route::kHybrid, Route::kGet};
  const char* names[] = {"keyword", "ann", "mlql", "hybrid", "read"};
  for (size_t r = 0; r < 5; ++r) {
    std::vector<double> overhead;
    std::vector<double> slowest;
    const uint32_t reps = routes[r] == Route::kHybrid ? 4 : 12;
    for (uint32_t i = 0; i < reps; ++i) {
      const uint32_t pool = routes[r] == Route::kKeyword ? kKeywordPool
                            : routes[r] == Route::kMlql  ? kMlqlPool
                                                         : kIdPool;
      Arrival a{0, routes[r], (i * 37) % pool};
      Request req = MakeRequest(a, pools, {});
      auto send = [&](server::HttpClient& c) {
        auto t0 = Clock::now();
        auto resp = req.post ? c.Post(req.path, req.body) : c.Get(req.path);
        auto t1 = Clock::now();
        if (!resp.ok()) outcome->Fail("cluster probe transport error");
        return std::make_pair(t0, t1);
      };
      auto [r0, r1] = send(routed);
      spans->Record(std::string("cluster.routed.") + names[r], root, 0, r0, r1);
      double slowest_us = 0.0;
      for (size_t s = 0; s < direct.size(); ++s) {
        auto [d0, d1] = send(*direct[s]);
        spans->Record(std::string("cluster.leg.") + names[r], root, 0, d0, d1);
        slowest_us = std::max(slowest_us, double(Micros(d0, d1)));
      }
      overhead.push_back(double(Micros(r0, r1)) - slowest_us);
      slowest.push_back(slowest_us);
    }
    report->Add(std::string("cluster.router_overhead_us.") + names[r], "us",
                MedianOf(overhead));
    report->Add(std::string("cluster.slowest_leg_us.") + names[r], "us",
                MedianOf(slowest));
  }
  report->Add("cluster.hedges_fired", "count",
              double(cluster->router()->hedges_fired()));
  report->Add("cluster.failovers", "count",
              double(cluster->router()->failovers()));
  // Export: routed drain minus the slowest shard's own drain.
  double routed_s = DrainExport(cluster->router_port()).seconds;
  double slowest_shard_s = 0.0;
  for (size_t s = 0; s < cluster->shards(); ++s) {
    slowest_shard_s = std::max(
        slowest_shard_s, DrainExport(cluster->server(s)->port()).seconds);
  }
  report->Add("cluster.export_merge_s", "s", routed_s - slowest_shard_s);
  spans->Close(root);
}

const char* kReportRoutes[] = {"keyword", "ann", "mlql", "hybrid", "read",
                               "ingest"};

void AbsentCluster(Report* report, const std::string& why) {
  for (const char* r : {"keyword", "ann", "mlql", "hybrid", "read"}) {
    report->Absent(std::string("cluster.router_overhead_us.") + r, "us", why);
    report->Absent(std::string("cluster.slowest_leg_us.") + r, "us", why);
  }
  report->Absent("cluster.hedges_fired", "count", why);
  report->Absent("cluster.failovers", "count", why);
  report->Absent("cluster.export_merge_s", "s", why);
}

void AbsentReplication(Report* report, const std::string& why) {
  report->Absent("replication.sync_once_ms", "ms", why);
  report->Absent("replication.entries_per_s", "1/s", why);
  report->Absent("replication.lag_entries_max", "count", why);
}

/// Samples, every 50 ms until Stop and once more at Stop, the process's
/// resident set and (on ingest_replicate) the live replica's lag in log
/// entries.
class Sampler {
 public:
  explicit Sampler(const mlake::replication::Replicator* replicator)
      : replicator_(replicator), thread_([this] { Loop(); }) {}
  ~Sampler() { Stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
      // The window's end state, which the periodic samples can miss.
      peak_rss_mb_ = std::max(peak_rss_mb_, RssMb());
    }
  }
  double peak_rss_mb() const { return peak_rss_mb_; }
  uint64_t max_lag() const { return max_lag_; }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    do {
      peak_rss_mb_ = std::max(peak_rss_mb_, RssMb());
      if (replicator_ != nullptr) {
        max_lag_ = std::max(max_lag_, replicator_->LagEntries());
      }
    } while (!cv_.wait_for(lock, std::chrono::milliseconds(50),
                           [this] { return stop_; }));
  }

  const mlake::replication::Replicator* replicator_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  double peak_rss_mb_ = 0.0;  // read after Stop joins
  uint64_t max_lag_ = 0;
  std::thread thread_;
};

/// Plan-cache counters of the lakes that answer MLQL: the shards' sum on
/// cluster_search, else the primary lake's.
core::ModelLake::PlanCacheCounters PlanTotals(const Rig& rig) {
  if (!rig.cluster) return rig.lake->PlanCacheStats();
  core::ModelLake::PlanCacheCounters sum;
  for (size_t s = 0; s < rig.cluster->shards(); ++s) {
    auto c = rig.cluster->lake(s)->PlanCacheStats();
    sum.hits += c.hits;
    sum.misses += c.misses;
  }
  return sum;
}

int Run(const Args& args) {
  WorkloadSpec spec;
  if (!MakeSpec(args.workload, &spec)) {
    std::fprintf(stderr,
                 "lakebench: unknown workload '%s' (want lake_search | "
                 "cluster_search | ingest_replicate)\n",
                 args.workload.c_str());
    return 2;
  }
  const bool read_only = spec.name != "ingest_replicate";
  Must(mlake::CreateDirs(args.workdir), "CreateDirs workdir");
  std::printf("lakebench %s seed=%llu seconds=%.3f trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);

  // The untraced run sets up kSetupRepeats times (setup_s is the
  // median) and measures on the last rig. The traced run sets up once
  // and traces every other arrival of the same schedule.
  std::vector<Arrival> schedule =
      MakeSchedule(args.seed, spec.rate, args.seconds, spec.mix);
  if (spec.export_period_s > 0) {
    AddPeriodic(&schedule, Route::kExport, spec.export_period_s, args.seconds);
  }
  size_t ingest_count = 0;
  for (const Arrival& a : schedule) {
    if (a.route == Route::kIngest) {
      ingest_count = std::max<size_t>(ingest_count, a.pick + 1);
    }
  }

  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    if (rig) {
      rig->Shutdown();
      rig.reset();
      // Hand the torn-down rig's heap back so the kept rig's resident
      // set does not depend on what earlier set-ups left cached.
      malloc_trim(0);
    }
    auto start = Clock::now();
    StageClock stages;
    rig = SetUp(spec, mlake::JoinPath(args.workdir, "rig"), args.seed,
                ingest_count, &stages);
    setup_s.push_back(Seconds(Clock::now() - start));
    std::printf("  set-up %d: %.3f s (%s)\n", i + 1, setup_s.back(),
                stages.text().c_str());
  }

  Outcome outcome;
  const Pools& pools = rig->pools;

  // ---- oracles and warm-up ----
  // Every distinct read the schedule sends, except MLQL, is answered
  // once, serially. On read-only workloads those answers are the oracle:
  // the open loop must reproduce each byte for byte (concurrency and
  // batching may only change timing). Under writes answers move, so
  // there the pass only warms the caches. No MLQL text is sent before
  // the phase, so the phase meets the plan cache as the schedule's
  // repeats fill it; the planner's lazy catalog statistics are built
  // here instead of by the phase's first MLQL query.
  Answers expected;
  std::map<int, std::vector<Arrival>> by_port;
  for (const Arrival& a : DistinctReads(schedule, false)) {
    by_port[rig->PortFor(a.route)].push_back(a);
  }
  for (const auto& [port, arrivals] : by_port) {
    if (RecordAnswers(port, arrivals, pools, &expected) != 0) {
      outcome.Fail("warm-up pass: non-2xx answers");
    }
  }
  rig->lake->Stats();
  if (rig->cluster) {
    for (size_t s = 0; s < rig->cluster->shards(); ++s) {
      rig->cluster->lake(s)->Stats();
    }
  }
  // After the phase on read-only workloads: the MLQL oracle, then (on
  // cluster_search) the routed answers against the single-lake oracle,
  // whose identity set holds MLQL texts too.
  auto check_after_phase = [&](PhaseResult* phase) {
    if (!read_only) return;
    CheckMlqlAfterPhase(rig->PortFor(Route::kMlql), schedule, pools, phase,
                        &expected, &outcome);
    if (spec.name == "cluster_search") {
      CompareServers(rig->cluster->router_port(), rig->server->port(), pools,
                     "routed vs single-lake oracle", false, &outcome);
    }
  };
  Checker check;
  if (read_only) {
    check = [&expected](const Arrival& a, const server::HttpResponse& r) {
      auto it = expected.find({static_cast<int>(a.route), a.pick});
      return it == expected.end() || it->second == r.body;
    };
  } else {
    check = [&rig](const Arrival& a, const server::HttpResponse& r) {
      if (a.route != Route::kIngest) return true;
      return Json::Parse(r.body).ValueOr(Json()).GetString("id") ==
             rig->ingests.at(a.pick).id;
    };
  }

  Report report;
  if (!args.trace) {
    // ---- the measured open-loop phase ----
    Sampler sampler(rig->replicator.get());
    PhaseResult phase =
        RunOpenLoop(*rig, spec, schedule, pools, check, nullptr);
    check_after_phase(&phase);
    outcome.Count(phase);
    PrintMeta(args, spec, schedule, phase);

    auto summary = [&](std::initializer_list<Route> routes) {
      return Summarize(LatenciesMs(phase, routes));
    };
    Summary kw = summary({Route::kKeyword});
    Summary ann = summary({Route::kAnn});
    Summary mlql = summary({Route::kMlql});
    Summary hybrid = summary({Route::kHybrid});
    Summary read = summary({Route::kGet, Route::kCitation});
    Summary ingest = summary({Route::kIngest});
    Summary exp_in_phase = summary({Route::kExport});

    // ---- post-phase: replication convergence and catch-up ----
    double catchup_s = 0.0;
    if (rig->replicator) {
      Must(rig->replicator->SyncOnce().status(), "final SyncOnce");
      if (rig->replica_lake->ReplicationFingerprint() !=
          rig->lake->ReplicationFingerprint()) {
        outcome.Fail("replica fingerprint differs from the leader's");
      }
      auto start = Clock::now();
      size_t applied = Must(rig->frozen->SyncOnce(), "frozen catch-up");
      catchup_s = Seconds(Clock::now() - start);
      std::printf("  frozen replica caught up over %zu entries in %.3f s\n",
                  applied, catchup_s);
      if (rig->frozen_lake->ReplicationFingerprint() !=
          rig->lake->ReplicationFingerprint()) {
        outcome.Fail("caught-up replica fingerprint differs from the leader's");
      }
      CompareServers(rig->server->port(), rig->replica_server->port(), pools,
                     "replica vs leader", true, &outcome);
    }

    // ---- post-phase: export drains at one ETag ----
    const int export_port = rig->PortFor(Route::kExport);
    std::vector<double> export_s;
    std::vector<ExportDrain> drains;
    for (int i = 0; i < kExportDrains; ++i) {
      drains.push_back(DrainExport(export_port));
      ++outcome.attempted;
      if (!drains.back().ok) {
        ++outcome.failed;
        outcome.Fail("export drain failed");
      }
      export_s.push_back(drains.back().seconds);
      // peak_rss_mb covers the phase, the checks and one export drain.
      // Each further routed drain can leave its buffers in another
      // allocator arena, so a peak over all of them would count an
      // arena-assignment lottery, not one export's memory.
      if (i == 0) sampler.Stop();
    }
    for (const ExportDrain& d : drains) {
      if (d.etag != drains[0].etag || d.digest != drains[0].digest) {
        outcome.Fail("export drains at one ETag differ");
      }
    }
    std::printf("  export: %zu bytes, etag %s\n", drains[0].bytes,
                drains[0].etag.c_str());

    // The capacity ladder drives the lake past its offered rate, so it
    // runs last, outside the resident-set window.
    double capacity = 0.0;
    if (read_only) {
      capacity = CapacityQps(*rig, spec, args.seed, pools, check, &outcome);
    }

    std::printf("\nservice time per route (send to answer, ms):\n");
    for (size_t r = 0; r < kNumRoutes; ++r) {
      Summary s = Summarize(LatenciesMs(phase, {static_cast<Route>(r)}, true));
      if (s.count == 0) continue;
      std::printf("  %-10s p50 %10.3f  p99 %10.3f  (n=%zu)\n",
                  RouteName(static_cast<Route>(r)), s.p50, s.p99, s.count);
    }

    report.Add("setup_s", "s", MedianOf(setup_s), setup_s.size());
    report.Add("keyword_p50_ms", "ms", kw.p50, kw.count);
    report.Add("ann_p50_ms", "ms", ann.p50, ann.count);
    report.Add("mlql_p50_ms", "ms", mlql.p50, mlql.count);
    report.Add("hybrid_p50_ms", "ms", hybrid.p50, hybrid.count);
    report.Add("read_p50_ms", "ms", read.p50, read.count);
    report.Add("export_s", "s", MedianOf(export_s), export_s.size());
    report.Add("peak_rss_mb", "MB", sampler.peak_rss_mb());
    report.Print("end-to-end metrics:");

    // Printed by name, not in the result line: the tails, whose ten-run
    // spread at this run length exceeds any bound a gate may use, and
    // the figures only one workload's mix exercises. (run.py further
    // keeps in the result line only the metrics BENCHMARK.json lists.)
    std::printf("\nend-to-end tails and workload-only metrics:\n");
    auto line = [](const char* name, double value, const char* unit,
                   size_t n) {
      std::printf("  %-40s %14.6f %-6s (n=%zu)\n", name, value, unit, n);
    };
    line("keyword_p99_ms", kw.p99, "ms", kw.count);
    line("ann_p99_ms", ann.p99, "ms", ann.count);
    line("mlql_p99_ms", mlql.p99, "ms", mlql.count);
    line("hybrid_p99_ms", hybrid.p99, "ms", hybrid.count);
    line("read_p99_ms", read.p99, "ms", read.count);
    std::printf("  %-40s %14.6f ratio  (%llu of %llu)\n", "error_rate",
                Ratio(double(outcome.failed), double(outcome.attempted)),
                static_cast<unsigned long long>(outcome.failed),
                static_cast<unsigned long long>(outcome.attempted));
    if (read_only) {
      std::printf("  %-40s %14.3f 1/s    (p99 limit %.1f ms%s)\n",
                  "capacity_qps", capacity, spec.latency_limit_ms,
                  capacity == spec.ladder.back() ? "; at least: top step"
                                                 : "");
    } else {
      line("ingest_p50_ms", ingest.p50, "ms", ingest.count);
      line("ingest_p99_ms", ingest.p99, "ms", ingest.count);
      std::printf("  %-40s %14.6f s\n", "catchup_s", catchup_s);
      line("export_in_phase_p50_ms", exp_in_phase.p50, "ms",
           exp_in_phase.count);
    }
  } else {
    // ---- traced run: one phase tracing every other arrival, then
    // layer probes ----
    Spans spans(Clock::now());
    Sampler sampler(rig->replicator.get());
    const HandlerTotals h0 = FrontTotals(*rig);
    const auto b0 = BatchTotals(*rig);
    const auto plan0 = PlanTotals(*rig);
    PhaseResult phase =
        RunOpenLoop(*rig, spec, schedule, pools, check, &spans);
    sampler.Stop();
    const uint64_t max_lag = sampler.max_lag();
    const HandlerTotals h1 = FrontTotals(*rig);
    const auto b1 = BatchTotals(*rig);
    const auto plan1 = PlanTotals(*rig);
    check_after_phase(&phase);
    outcome.Count(phase);
    PrintMeta(args, spec, schedule, phase);

    // server: handler time at the front server and the rest of the
    // client round trip, per route, over the phase.
    for (const char* name : kReportRoutes) {
      std::vector<Route> routes;
      if (std::string(name) == "read") {
        routes = {Route::kGet, Route::kCitation};
      } else {
        for (size_t r = 0; r < kNumRoutes; ++r) {
          if (name == std::string(RouteName(static_cast<Route>(r)))) {
            routes.push_back(static_cast<Route>(r));
          }
        }
      }
      double sum = 0.0;
      double count = 0.0;
      for (Route r : routes) {
        sum += h1.sum_us[static_cast<size_t>(r)] -
               h0.sum_us[static_cast<size_t>(r)];
        count += h1.count[static_cast<size_t>(r)] -
                 h0.count[static_cast<size_t>(r)];
      }
      double rtt_sum = 0.0;
      double rtt_n = 0.0;
      for (const Record& rec : phase.records) {
        if (std::find(routes.begin(), routes.end(), rec.route) !=
                routes.end() &&
            rec.ok) {
          rtt_sum += double(rec.end_us - rec.start_us);
          rtt_n += 1.0;
        }
      }
      if (count == 0 || rtt_n == 0) {
        report.Absent(std::string("server.handler_us.") + name, "us",
                      "route not in this workload's mix");
        report.Absent(std::string("server.transport_us.") + name, "us",
                      "route not in this workload's mix");
        continue;
      }
      double handler = sum / count;
      report.Add(std::string("server.handler_us.") + name, "us", handler);
      report.Add(std::string("server.transport_us.") + name, "us",
                 rtt_sum / rtt_n - handler);
    }
    report.Add("server.batch_occupancy", "count",
               Ratio(b1.first - b0.first, b1.second - b0.second));
    report.Add("server.rejected", "count", double(h1.rejected - h0.rejected));

    // search: plan-cache hits over the phase and the planner's ann-first
    // share, read back from the MLQL answers' plan strings.
    {
      report.Add("search.plan_cache_hit_ratio", "ratio",
                 Ratio(double(plan1.hits - plan0.hits),
                       double(plan1.hits - plan0.hits + plan1.misses -
                              plan0.misses)));
      server::HttpClient client("127.0.0.1", rig->server->port());
      size_t ann_first = 0;
      size_t total = 0;
      for (uint32_t i = 0; i < kMlqlPool; ++i) {
        Request req = MakeRequest({0, Route::kMlql, i}, pools, {});
        auto r = client.Post(req.path, req.body);
        if (!r.ok() || r.ValueUnsafe().status != 200) continue;
        ++total;
        std::string plan = Json::Parse(r.ValueUnsafe().body)
                               .ValueOr(Json())
                               .GetString("plan");
        if (plan.rfind("ann-first", 0) == 0) ++ann_first;
      }
      report.Add("search.ann_first_share", "ratio",
                 Ratio(double(ann_first), double(total)));
    }

    // replication: the frozen replica's catch-up over the whole run's
    // writes, as one SyncOnce.
    if (rig->replicator) {
      Must(rig->replicator->SyncOnce().status(), "final SyncOnce");
      auto start = Clock::now();
      size_t applied = Must(rig->frozen->SyncOnce(), "frozen catch-up");
      double ms = double(Micros(start, Clock::now())) / 1000.0;
      spans.Record("replication.sync_once", 0, 0, start, Clock::now());
      report.Add("replication.sync_once_ms", "ms", ms);
      report.Add("replication.entries_per_s", "1/s",
                 Ratio(double(applied), ms / 1000.0));
      report.Add("replication.lag_entries_max", "count", double(max_lag));
      if (rig->frozen_lake->ReplicationFingerprint() !=
          rig->lake->ReplicationFingerprint()) {
        outcome.Fail("caught-up replica fingerprint differs from the leader's");
      }
    } else {
      AbsentReplication(&report, "workload has no replica");
    }

    if (rig->cluster) {
      ClusterProbes(rig.get(), &spans, &report, &outcome);
    } else {
      AbsentCluster(&report, "workload has no router");
    }
    LayerProbes(rig.get(), args, &spans, &report, &outcome);

    // Tracing overhead: p50 of the traced arrivals minus p50 of the
    // untraced ones they are interleaved with, from due time.
    std::vector<double> by_tracing[2];
    for (const Record& r : phase.records) {
      by_tracing[r.traced ? 1 : 0].push_back(
          r.ok ? double(r.end_us - r.due_us) / 1000.0 : kFailedLatencyMs);
    }
    Summary u = Summarize(by_tracing[0]);
    Summary t = Summarize(by_tracing[1]);
    report.Add("trace.overhead_p50_us", "us", (t.p50 - u.p50) * 1000.0);
    report.Print("per-layer metrics (traced run):");
    std::printf("\n  untraced p50 %.3f ms (n=%zu), traced p50 %.3f ms "
                "(n=%zu)\n", u.p50, u.count, t.p50, t.count);

    std::printf("\nself time by span (ms):\n");
    for (const auto& [name, ms] : spans.SelfMsByName()) {
      std::printf("  %-40s %12.3f\n", name.c_str(), ms);
    }
    Must(mlake::CreateDirs(mlake::JoinPath(args.workdir, "traces")),
         "CreateDirs traces");
    std::string path = mlake::JoinPath(
        args.workdir, mlake::StrFormat("traces/%s-seed%llu.jsonl",
                                       spec.name.c_str(),
                                       static_cast<unsigned long long>(
                                           args.seed)));
    Must(spans.WriteJsonl(path), "write spans");
    std::printf("  %zu spans written to %s\n", spans.size(), path.c_str());
  }

  rig->Shutdown();
  for (const std::string& p : outcome.problems) {
    std::fprintf(stderr, "lakebench: check failed: %s\n", p.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              report.MetricsJson().c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  // Line-buffered even into a pipe, so a run cut short still shows how
  // far it got.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "lakebench: %s needs a value\n", flag.c_str());
      return 2;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      std::fprintf(stderr, "lakebench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!have_workload || args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: lakebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR]\n");
    return 2;
  }
  return Run(args);
}

}  // namespace
}  // namespace lakebench

int main(int argc, char** argv) { return lakebench::Main(argc, argv); }
