// micro_storage: the storage layer's tracked perf baseline.
//
// Times the substrate (KV log, content-addressed blob store, artifact
// codec, hashing) and then the lake-level model load path in three
// configurations:
//   legacy  copying reads, SHA-256 on every read, caches off
//           (the pre-zero-copy storage layer, for regression tracking)
//   cold    mmap views + verify-on-first-read, caches off
//   warm    cold plus the decoded-artifact cache (embeddings are read
//           from the lake's column store in every configuration)
// Emits BENCH_storage.json in the shared JsonBench schema; the derived
// block carries the two numbers the roadmap tracks:
// speedup_cold_vs_legacy and speedup_warm_vs_cold.
//
// Durability note: fsync is disabled for the duration of the run
// (MLAKE_NO_FSYNC) so write benches measure the I/O path, not the
// disk's flush latency; blob_put_fsync re-enables it for one entry to
// keep the durability cost visible in the report.
//
// Usage: micro_storage [--quick] [--out PATH]
//   --quick  CI-sized problem set (seconds, not minutes)
//   --out    JSON path (default: BENCH_storage.json in the cwd)

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/exp_util.h"
#include "common/file_util.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "core/model_lake.h"
#include "metadata/model_card.h"
#include "nn/model.h"
#include "storage/blob_store.h"
#include "storage/kv_store.h"
#include "storage/model_artifact.h"

namespace mlake::bench {
namespace {

volatile size_t g_sink = 0;

void BenchKv(JsonBench* bench, const std::string& dir, bool quick) {
  int reps = quick ? 3 : 7;
  {
    std::string path = JoinPath(dir, "kv-put.log");
    auto store = Unwrap(storage::KvStore::Open(path), "KvStore::Open");
    std::string value(256, 'v');
    int i = 0;
    bench->TimeNs("kv_put_256b", reps, 1, 512, [&] {
      Check(store->Put(StrFormat("key-%08d", i++), value), "kv.Put");
    });
  }
  {
    std::string path = JoinPath(dir, "kv-get.log");
    auto store = Unwrap(storage::KvStore::Open(path), "KvStore::Open");
    for (int i = 0; i < 10000; ++i) {
      Check(store->Put(StrFormat("key-%08d", i), std::string(256, 'v')),
            "kv.Put");
    }
    int i = 0;
    bench->TimeNs("kv_get_256b", reps, 1, 2048, [&] {
      g_sink = Unwrap(store->Get(StrFormat("key-%08d", i++ % 10000)),
                      "kv.Get")
                   .size();
    });
  }
  {
    std::string path = JoinPath(dir, "kv-replay.log");
    const int records = quick ? 5000 : 20000;
    {
      auto store = Unwrap(storage::KvStore::Open(path), "KvStore::Open");
      for (int i = 0; i < records; ++i) {
        Check(store->Put(StrFormat("key-%08d", i % 5000),
                         std::string(128, 'v')),
              "kv.Put");
      }
    }
    bench->TimeNs("kv_replay_" + std::to_string(records), reps, 1, 1, [&] {
      g_sink = Unwrap(storage::KvStore::Open(path), "KvStore::Open")
                   ->Count();
    });
  }
}

void BenchBlobs(JsonBench* bench, const std::string& dir, bool quick) {
  int reps = quick ? 3 : 9;
  const size_t blob_size = quick ? (1 << 20) : (8 << 20);
  double bytes = static_cast<double>(blob_size);

  auto store =
      Unwrap(storage::BlobStore::Open(JoinPath(dir, "blobs")), "BlobStore");
  std::string payload(blob_size, 'x');
  int i = 0;
  bench->TimeNs(
      "blob_put_" + std::to_string(blob_size >> 20) + "mb", reps, 1, 1,
      [&] {
        payload[0] = static_cast<char>(i++);  // distinct digest each round
        g_sink = Unwrap(store.Put(payload), "blob.Put").size();
      },
      bytes);

  // One durable put to keep the fsync cost visible next to the
  // fsync-free number above.
  {
    unsetenv("MLAKE_NO_FSYNC");
    bench->TimeNs(
        "blob_put_fsync_" + std::to_string(blob_size >> 20) + "mb",
        quick ? 2 : 5, 1, 1,
        [&] {
          payload[0] = static_cast<char>(i++);
          g_sink = Unwrap(store.Put(payload), "blob.Put").size();
        },
        bytes);
    setenv("MLAKE_NO_FSYNC", "1", 1);
  }

  // Read path: zero-copy view vs copying Get of the same resident blob.
  // After the first read the store policy (verify-on-first-read) stops
  // hashing, so both entries time pure I/O.
  std::string digest = Unwrap(store.Put(payload), "blob.Put");
  double copy_ns = bench->TimeNs(
      "blob_get_copy", reps, 2, 4,
      [&] { g_sink = Unwrap(store.Get(digest), "blob.Get").size(); }, bytes);
  double view_ns = bench->TimeNs(
      "blob_get_view", reps, 2, 4,
      [&] {
        g_sink = Unwrap(store.GetView(digest), "blob.GetView").size();
      },
      bytes);
  bench->Derived("speedup_view_vs_copy", copy_ns / view_ns);
  bench->TimeNs(
      "blob_get_verify_always", quick ? 2 : 5, 1, 2,
      [&] {
        g_sink = Unwrap(store.GetView(digest, storage::VerifyMode::kAlways),
                        "blob.GetView")
                     .size();
      },
      bytes);

  bench->TimeNs(
      "sha256_" + std::to_string(blob_size >> 20) + "mb", reps, 1, 2,
      [&] { g_sink = Sha256::HexDigest(payload).size(); }, bytes);
  std::string mb(1 << 20, 'c');
  bench->TimeNs(
      "crc32_1mb", reps, 1, 8, [&] { g_sink = Crc32(mb); },
      static_cast<double>(mb.size()));
}

void BenchArtifactCodec(JsonBench* bench, bool quick) {
  int reps = quick ? 3 : 9;
  Rng rng(1);
  auto model = Unwrap(nn::BuildModel(nn::MlpSpec(32, {256, 256}, 8), &rng),
                      "BuildModel");
  storage::ModelArtifact artifact =
      storage::ArtifactFromModel(*model, Json::MakeObject());
  std::string bytes = storage::SerializeArtifact(artifact);
  double size = static_cast<double>(bytes.size());
  bench->TimeNs(
      "artifact_serialize", reps, 1, 4,
      [&] { g_sink = storage::SerializeArtifact(artifact).size(); }, size);
  bench->TimeNs(
      "artifact_parse", reps, 1, 4,
      [&] {
        g_sink = Unwrap(storage::ParseArtifact(bytes), "ParseArtifact")
                     .weights.size();
      },
      size);
  bench->TimeNs(
      "artifact_verify", reps, 1, 4,
      [&] {
        Check(storage::VerifyArtifact(bytes), "VerifyArtifact");
        g_sink = bytes.size();
      },
      size);
}

/// Builds a lake of `n` distinct MLPs at `root`; returns their ids.
std::vector<std::string> PopulateLake(const std::string& root, size_t n) {
  core::LakeOptions options;
  options.root = root;
  auto lake = Unwrap(core::ModelLake::Open(std::move(options)), "Open");
  std::vector<std::string> ids;
  Rng rng(42);
  for (size_t i = 0; i < n; ++i) {
    auto model = Unwrap(nn::BuildModel(nn::MlpSpec(32, {256, 256}, 8), &rng),
                        "BuildModel");
    metadata::ModelCard card;
    card.model_id = StrFormat("bench/model-%02zu", i);
    card.name = card.model_id;
    card.task = "classification";
    card.architecture = "mlp(32-256-256-8)";
    ids.push_back(Unwrap(lake->IngestModel(*model, card), "IngestModel"));
  }
  return ids;
}

/// Times LoadArtifact and LoadModel against one lake configuration.
void BenchLakeConfig(JsonBench* bench, const std::string& root,
                     const std::vector<std::string>& ids, const char* tag,
                     const core::LakeOptions& base, bool quick,
                     double* artifact_ns, double* model_ns) {
  core::LakeOptions options = base;
  options.root = root;
  auto lake = Unwrap(core::ModelLake::Open(std::move(options)), "Open");
  int reps = quick ? 3 : 9;
  int inner = static_cast<int>(ids.size());
  size_t q = 0;
  *artifact_ns = bench->TimeNs(
      std::string("lake_load_artifact/") + tag, reps, 1, inner, [&] {
        g_sink = Unwrap(lake->LoadArtifact(ids[q++ % ids.size()]),
                        "LoadArtifact")
                     ->weights.size();
      });
  *model_ns = bench->TimeNs(
      std::string("lake_load_model/") + tag, reps, 1, inner, [&] {
        g_sink =
            Unwrap(lake->LoadModel(ids[q++ % ids.size()]), "LoadModel")
                ->NumParams() > 0;
      });
  bench->TimeNs(std::string("lake_embedding_for/") + tag, reps, 1, inner,
                [&] {
                  g_sink = Unwrap(lake->EmbeddingFor(ids[q++ % ids.size()]),
                                  "EmbeddingFor")
                               .size();
                });
  if (std::strcmp(tag, "warm") == 0) {
    std::printf("cache stats (warm lake):\n%s\n",
                lake->CacheStatsJson().Dump(2).c_str());
  }
}

void BenchLakeLoads(JsonBench* bench, const std::string& dir, bool quick) {
  const size_t num_models = quick ? 4 : 8;
  std::string root = JoinPath(dir, "lake");
  std::vector<std::string> ids = PopulateLake(root, num_models);
  bench->Meta("lake_models", static_cast<int64_t>(num_models));

  core::LakeOptions legacy;  // the pre-zero-copy read path
  legacy.blob_mmap = false;
  legacy.blob_verify = storage::VerifyMode::kAlways;
  legacy.artifact_cache_bytes = 0;

  core::LakeOptions cold;  // zero-copy reads, no caches
  cold.artifact_cache_bytes = 0;

  core::LakeOptions warm;  // defaults: zero-copy reads + caches

  double legacy_artifact, legacy_model, cold_artifact, cold_model,
      warm_artifact, warm_model;
  BenchLakeConfig(bench, root, ids, "legacy", legacy, quick,
                  &legacy_artifact, &legacy_model);
  BenchLakeConfig(bench, root, ids, "cold", cold, quick, &cold_artifact,
                  &cold_model);
  BenchLakeConfig(bench, root, ids, "warm", warm, quick, &warm_artifact,
                  &warm_model);

  bench->Derived("speedup_cold_vs_legacy", legacy_artifact / cold_artifact);
  bench->Derived("speedup_warm_vs_cold", cold_artifact / warm_artifact);
  bench->Derived("speedup_model_cold_vs_legacy", legacy_model / cold_model);
  bench->Derived("speedup_model_warm_vs_cold", cold_model / warm_model);
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_storage.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: micro_storage [--quick] [--out PATH]\n");
      return 2;
    }
  }

  // Write benches time the I/O path, not the disk flush (see header).
  setenv("MLAKE_NO_FSYNC", "1", 1);

  Banner("micro_storage", "storage substrate + lake model load path");
  JsonBench bench("storage");
  bench.Meta("quick", quick);
  bench.Meta("fsync", "disabled except blob_put_fsync entries");

  TempDir dir("mlake-micro-storage");
  BenchKv(&bench, dir.path(), quick);
  BenchBlobs(&bench, dir.path(), quick);
  BenchArtifactCodec(&bench, quick);
  BenchLakeLoads(&bench, dir.path(), quick);

  Check(bench.WriteFile(out), "WriteFile");
  std::printf("\nwrote %s\n", out.c_str());
  std::string derived = bench.report().Find("derived")->Dump(2);
  std::printf("derived: %s\n", derived.c_str());
  unsetenv("MLAKE_NO_FSYNC");
  return 0;
}

}  // namespace
}  // namespace mlake::bench

int main(int argc, char** argv) { return mlake::bench::Main(argc, argv); }
