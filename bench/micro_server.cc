// micro_server: mlaked's tracked serving-layer baseline.
//
// Builds a 10k-model streaming lake (metadata-only models via
// GenerateStreamingLake, indexes compacted once up front) and drives an
// in-process LakeServer closed-loop from 1 / 4 / 16 concurrent HTTP
// clients on loopback, in two phases:
//
//   phase 1 (solo)     batch window 0, so every search probes alone
//                      (a batch of one). Re-measures the historical
//                      entries (keyword saturated/interactive, ann,
//                      model_get) so the series stays comparable, and
//                      records a per-body response oracle.
//   phase 2 (batched)  batch window and max_batch below, on
//                      the same lake. Measures the batched ann and
//                      keyword saturated paths at c1 and c16, then
//                      replays the oracle bodies and verifies every
//                      response is byte-identical to phase 1 — the
//                      batcher must never change an answer, only its
//                      timing.
//
// Within each phase the modes are the classic pair:
//
//   saturated    zero think time — every client re-issues the next
//                request the moment the previous answer lands.
//   interactive  each client waits a fixed think time between
//                requests (QPS ~= clients / (think + response time)
//                until the server saturates).
//
// Emits BENCH_server.json (shared JsonBench schema). derived carries
// search_qps_scaling_16v1 (interactive, phase 1) and
// search_qps_scaling_16v1_saturated, which is now the batched-ann
// c16-vs-c1 ratio: at c1 every request pays the full batch window
// alone, at c16 the window amortizes over a full batch probed through
// one SearchBatch call, so the ratio measures what server-side
// coalescing buys on a saturated single query stream.
//
// Usage: micro_server [--quick] [--out PATH]
//   --quick  CI-sized run (smaller lake, shorter measurement windows)
//   --out    JSON path (default: BENCH_server.json in the cwd)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/exp_util.h"
#include "common/file_util.h"
#include "common/string_util.h"
#include "core/model_lake.h"
#include "lakegen/lakegen.h"
#include "server/client.h"
#include "server/http.h"
#include "server/metrics.h"
#include "server/server.h"

namespace mlake::bench {
namespace {

using Clock = std::chrono::steady_clock;

std::unique_ptr<core::ModelLake> BuildLake(const std::string& root,
                                           size_t num_models) {
  core::LakeOptions options;
  options.root = root;
  options.probe_count = 8;
  options.exec = ExecutionContext::WithThreads(
      std::max(2u, std::thread::hardware_concurrency()));
  // Both phases must see the same index generation; a background fold
  // mid-measurement would also invalidate the plan cache under load.
  options.background_compaction = false;
  auto lake = Unwrap(core::ModelLake::Open(options), "ModelLake::Open");

  lakegen::StreamGenConfig gen;
  gen.num_models = num_models;
  gen.batch_size = 1024;
  auto streamed =
      Unwrap(lakegen::GenerateStreamingLake(lake.get(), gen), "stream");
  Check(lake->CompactIndices(), "CompactIndices");
  std::printf("streamed %zu models, indexes compacted\n",
              streamed.num_models);
  return lake;
}

struct LoadResult {
  uint64_t requests = 0;
  uint64_t errors = 0;    // transport failures or 5xx
  uint64_t rejected = 0;  // 429 admission answers
  double seconds = 0.0;
  server::LatencyHistogram latency;  // successful requests only

  double Qps() const { return seconds > 0 ? double(requests) / seconds : 0; }
};

/// Closed-loop load: `clients` threads POST bodies (rotating through
/// `bodies`; GETs when `bodies` is empty) back to back for `window`,
/// sleeping `think` between completions. Latency is per round trip,
/// recorded client-side.
LoadResult RunLoad(int port, int clients, Clock::duration window,
                   Clock::duration think, const std::string& path,
                   const std::vector<std::string>& bodies) {
  std::vector<LoadResult> per_client(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  std::atomic<bool> go{false};

  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      server::HttpClient client("127.0.0.1", port);
      LoadResult& mine = per_client[static_cast<size_t>(c)];
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      size_t body_index = static_cast<size_t>(c);
      auto start = Clock::now();
      auto deadline = start + window;
      while (Clock::now() < deadline) {
        auto sent = Clock::now();
        auto response =
            bodies.empty()
                ? client.Get(path)
                : client.Post(path, bodies[body_index++ % bodies.size()]);
        auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - sent)
                      .count();
        ++mine.requests;
        if (!response.ok() || response.ValueUnsafe().status >= 500) {
          ++mine.errors;
        } else if (response.ValueUnsafe().status == 429) {
          ++mine.rejected;
        } else {
          mine.latency.Record(static_cast<uint64_t>(us < 0 ? 0 : us));
        }
        if (think.count() > 0) std::this_thread::sleep_for(think);
      }
      mine.seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  LoadResult merged;
  for (const LoadResult& r : per_client) {
    merged.requests += r.requests;
    merged.errors += r.errors;
    merged.rejected += r.rejected;
    merged.seconds = std::max(merged.seconds, r.seconds);
    merged.latency.Merge(r.latency);
  }
  return merged;
}

Json EntryJson(const std::string& name, int clients, const LoadResult& r) {
  Json entry = Json::MakeObject();
  entry.Set("name", name);
  entry.Set("clients", clients);
  entry.Set("qps", r.Qps());
  entry.Set("p50_us", r.latency.PercentileUs(50));
  entry.Set("p99_us", r.latency.PercentileUs(99));
  entry.Set("mean_us", r.latency.MeanUs());
  entry.Set("requests", r.requests);
  entry.Set("errors", r.errors);
  entry.Set("rejected", r.rejected);
  entry.Set("seconds", r.seconds);
  // ns_per_op keeps the entry greppable alongside the other suites.
  entry.Set("ns_per_op", r.latency.MeanUs() * 1000.0);
  std::printf("  %-36s %4d clients %9.0f qps  p50 %7.0f us  p99 %7.0f us\n",
              name.c_str(), clients, r.Qps(), r.latency.PercentileUs(50),
              r.latency.PercentileUs(99));
  return entry;
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_server.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: micro_server [--quick] [--out PATH]\n");
      return 2;
    }
  }

  Banner("micro_server", "mlaked closed-loop load baseline");

  TempDir dir("mlake-micro-server");
  const size_t num_models = quick ? 2000 : 10000;
  std::printf("building streaming lake (%zu models)...\n", num_models);
  auto lake = BuildLake(dir.path(), num_models);

  const auto window =
      quick ? std::chrono::milliseconds(900) : std::chrono::milliseconds(2500);
  const auto think = std::chrono::milliseconds(4);
  const int levels[] = {1, 4, 16};
  constexpr int64_t kBatchWindowUs = 600;
  constexpr int kMaxBatch = 16;

  // Query mix. Ann ids are spread across the streamed population so a
  // batch is not 16 copies of one probe; keyword queries hit the
  // generated card vocabulary.
  std::vector<std::string> ids = lake->ListModels();
  Check(ids.empty() ? Status::Internal("empty lake") : Status::OK(),
        "ListModels");
  std::vector<std::string> ann_bodies;
  for (int i = 0; i < 16; ++i) {
    ann_bodies.push_back(StrFormat(
        R"({"type": "ann", "id": "%s", "k": 5})",
        ids[(ids.size() / 16) * static_cast<size_t>(i)].c_str()));
  }
  const std::vector<std::string> keyword_bodies = {
      R"({"type": "keyword", "query": "synthetic summarization legal", "k": 10})",
      R"({"type": "keyword", "query": "retrieval news model", "k": 10})",
      R"({"type": "keyword", "query": "sentiment social", "k": 10})",
      R"({"type": "keyword", "query": "classification finance documents", "k": 10})",
  };
  const std::string model_get_path = "/v1/models/" + ids[0];

  Json entries = Json::MakeArray();
  double keyword_qps_interactive[3] = {};
  double ann_batched_c1 = 0.0;
  double ann_batched_c16 = 0.0;

  // Oracle bodies replayed in both phases; the batcher must not change
  // a single byte of any answer.
  std::vector<std::string> oracle_bodies = ann_bodies;
  oracle_bodies.insert(oracle_bodies.end(), keyword_bodies.begin(),
                       keyword_bodies.end());
  std::map<std::string, std::string> oracle;

  // ---- phase 1: window 0, every search probes alone --------------------
  {
    server::ServerOptions options;
    options.threads = 18;  // >= the largest client count (thread-per-conn)
    options.max_inflight = 64;
    options.batch_window_us = 0;
    server::LakeServer server(lake.get(), options);
    Check(server.Start(), "LakeServer::Start (solo)");

    {
      server::HttpClient probe("127.0.0.1", server.port());
      for (const std::string& body : oracle_bodies) {
        auto response = Unwrap(probe.Post("/v1/search", body), "oracle probe");
        Check(response.status == 200 ? Status::OK()
                                     : Status::Internal("oracle probe failed"),
              "oracle probe status");
        oracle[body] = response.body;
      }
    }

    std::printf("\nphase 1: solo, saturated (zero think time):\n");
    for (int level = 0; level < 3; ++level) {
      LoadResult r =
          RunLoad(server.port(), levels[level], window, Clock::duration::zero(),
                  "/v1/search", keyword_bodies);
      entries.Append(EntryJson(
          StrFormat("search_keyword_saturated_c%d", levels[level]),
          levels[level], r));
    }
    {
      LoadResult r = RunLoad(server.port(), 1, window, Clock::duration::zero(),
                             "/v1/search", ann_bodies);
      entries.Append(EntryJson("search_ann_solo_saturated_c1", 1, r));
    }
    {
      LoadResult r = RunLoad(server.port(), 16, window, Clock::duration::zero(),
                             "/v1/search", ann_bodies);
      entries.Append(EntryJson("search_ann_saturated_c16", 16, r));
    }
    {
      LoadResult r = RunLoad(server.port(), 16, window, Clock::duration::zero(),
                             model_get_path, {});
      entries.Append(EntryJson("model_get_saturated_c16", 16, r));
    }

    std::printf("\nphase 1: solo, interactive (4 ms think time):\n");
    for (int level = 0; level < 3; ++level) {
      LoadResult r = RunLoad(server.port(), levels[level], window, think,
                             "/v1/search", keyword_bodies);
      keyword_qps_interactive[level] = r.Qps();
      entries.Append(EntryJson(
          StrFormat("search_keyword_interactive_c%d", levels[level]),
          levels[level], r));
    }

    Check(server.Stop(), "LakeServer::Stop (solo)");
  }

  // ---- phase 2: batched ------------------------------------------------
  bool batched_identical = true;
  {
    server::ServerOptions options;
    options.threads = 18;
    options.max_inflight = 64;
    options.batch_window_us = kBatchWindowUs;
    options.max_batch = kMaxBatch;
    server::LakeServer server(lake.get(), options);
    Check(server.Start(), "LakeServer::Start (batched)");

    std::printf("\nphase 2: batched (window %lld us, max batch %d):\n",
                static_cast<long long>(kBatchWindowUs), kMaxBatch);
    {
      LoadResult r = RunLoad(server.port(), 1, window, Clock::duration::zero(),
                             "/v1/search", ann_bodies);
      ann_batched_c1 = r.Qps();
      entries.Append(EntryJson("search_ann_batched_saturated_c1", 1, r));
    }
    {
      LoadResult r = RunLoad(server.port(), 16, window, Clock::duration::zero(),
                             "/v1/search", ann_bodies);
      ann_batched_c16 = r.Qps();
      entries.Append(EntryJson("search_ann_batched_saturated_c16", 16, r));
    }
    {
      LoadResult r = RunLoad(server.port(), 1, window, Clock::duration::zero(),
                             "/v1/search", keyword_bodies);
      entries.Append(EntryJson("search_keyword_batched_saturated_c1", 1, r));
    }
    {
      LoadResult r = RunLoad(server.port(), 16, window, Clock::duration::zero(),
                             "/v1/search", keyword_bodies);
      entries.Append(EntryJson("search_keyword_batched_saturated_c16", 16, r));
    }

    // Identity replay: every oracle body answered through the batcher
    // must match the solo response byte for byte.
    {
      server::HttpClient probe("127.0.0.1", server.port());
      for (const std::string& body : oracle_bodies) {
        auto response = Unwrap(probe.Post("/v1/search", body), "replay probe");
        if (response.status != 200 || response.body != oracle.at(body)) {
          batched_identical = false;
          std::fprintf(stderr, "IDENTITY MISMATCH for body: %s\n",
                       body.c_str());
        }
      }
    }
    std::printf("  batched responses identical to solo: %s\n",
                batched_identical ? "yes" : "NO");

    Check(server.Stop(), "LakeServer::Stop (batched)");
  }
  Check(batched_identical
            ? Status::OK()
            : Status::Internal("batched responses diverged from solo"),
        "identity replay");

  Json report = Json::MakeObject();
  report.Set("suite", "server");

  Json meta = Json::MakeObject();
  meta.Set("cores",
           static_cast<int64_t>(std::thread::hardware_concurrency()));
  meta.Set("server_threads", static_cast<int64_t>(18));
  meta.Set("max_inflight", static_cast<int64_t>(64));
  meta.Set("think_ms", 4);
  meta.Set("window_ms", static_cast<int64_t>(
                            std::chrono::duration_cast<std::chrono::milliseconds>(
                                window)
                                .count()));
  meta.Set("models", num_models);
  meta.Set("quick", quick);
  meta.Set("batch_window_us", kBatchWindowUs);
  meta.Set("max_batch", static_cast<int64_t>(kMaxBatch));
  meta.Set("batched_identical", batched_identical);
  meta.Set("scaling_note",
           "search_qps_scaling_16v1 is measured in the interactive mode "
           "(fixed 4 ms think time). search_qps_scaling_16v1_saturated is "
           "the batched-ann saturated ratio: at c1 the leader waits out "
           "the batch window only when the client's previous search "
           "arrived within the window (nobody else can join it), at c16 "
           "the window amortizes over a full batch answered by one "
           "SearchBatch probe.");
  report.Set("meta", std::move(meta));
  report.Set("entries", std::move(entries));

  Json derived = Json::MakeObject();
  derived.Set("search_qps_scaling_16v1",
              keyword_qps_interactive[0] > 0
                  ? keyword_qps_interactive[2] / keyword_qps_interactive[0]
                  : 0.0);
  derived.Set("search_qps_scaling_4v1",
              keyword_qps_interactive[0] > 0
                  ? keyword_qps_interactive[1] / keyword_qps_interactive[0]
                  : 0.0);
  derived.Set("search_qps_scaling_16v1_saturated",
              ann_batched_c1 > 0 ? ann_batched_c16 / ann_batched_c1 : 0.0);
  report.Set("derived", std::move(derived));

  Check(mlake::WriteFile(out, report.Dump(2) + "\n"), "WriteFile");
  std::printf("\nwrote %s\n", out.c_str());
  std::printf("search_qps_scaling_16v1 (interactive): %.2fx\n",
              report.Find("derived")
                  ->GetDouble("search_qps_scaling_16v1"));
  std::printf("search_qps_scaling_16v1_saturated (batched ann): %.2fx\n",
              report.Find("derived")
                  ->GetDouble("search_qps_scaling_16v1_saturated"));
  return 0;
}

}  // namespace
}  // namespace mlake::bench

int main(int argc, char** argv) { return mlake::bench::Main(argc, argv); }
