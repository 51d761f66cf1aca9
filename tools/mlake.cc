// mlake — command-line front end for a model lake.
//
//   mlake --lake DIR [--threads N] [--cache-mb N] COMMAND [ARGS...]
//
// --threads N sizes the lake's shared thread pool (0 or 1 = serial,
// the default; N>1 parallelizes ingest, index rebuild, fsck and
// heritage recovery — results are identical at any thread count).
// --cache-mb N budgets the decoded-artifact cache at N MB (0 disables
// it; default 256). The cache sits on the read path only, so results
// are identical at any budget.
//
// Commands:
//   init                         create an empty lake
//   demo [seed]                  populate with a generated benchmark lake
//   ls [models|datasets|benchmarks]
//   query 'MLQL'                 run a declarative query (prints the plan)
//   card ID                      print a model card
//   gen-card ID [--apply]        draft a card from lake analyses
//   audit [ID]                   audit one model, or the whole lake
//   cite ID [--json|--bibtex]    print a revision-pinned citation
//                                (default plain text; --json emits the
//                                full governance citation document,
//                                --bibtex a BibTeX entry)
//   related ID [K]               content-based related-model search
//   hybrid TEXT ID [K]           RRF fusion of keyword + embedding search
//   graph                        print the recorded version graph
//   recover-heritage [--apply]   reconstruct lineage from weights
//   export ID FILE               write the model artifact to FILE
//   export --metadata [FILE]     stream the machine-readable NDJSON
//                                dump of the whole lake (same records
//                                as GET /v1/export) to FILE, or stdout
//   import FILE ID [TASK]        ingest an artifact file under ID
//   fsck [--repair]              verify every stored artifact; with
//                                --repair, quarantine corrupt blobs
//                                (models marked degraded, rest of the
//                                lake stays searchable), GC orphan
//                                blobs and remove stray temp files
//   stats                        lake size + storage cache + index
//                                segment counters
//   compact                      fold the in-memory index deltas into a
//                                new on-disk snapshot generation
//   serve [--port P] [--http-threads N] [--max-inflight M]
//         [--deadline-ms D] [--batch-window-us W] [--max-batch B]
//         [--shard-id S --cluster-size N]
//         [--replicated] [--replica-of HOST:PORT [--poll-ms M]]
//                                run mlaked, the JSON-over-HTTP lake
//                                server, until SIGINT/SIGTERM (graceful
//                                drain; prints /statsz on shutdown).
//                                W=0: searches never wait to batch. With
//                                --shard-id/--cluster-size the server
//                                acts as one shard of a cluster and
//                                rejects misrouted ingests.
//                                --replicated keeps the replayable op
//                                log a leader streams to replicas;
//                                --replica-of follows that leader as a
//                                read replica (implies --replicated):
//                                ingest answers 409, search is served
//                                locally with an eventual-consistency
//                                watermark in /statsz.
//   promote HOST:PORT            tell a running replica to stop
//                                following and become the leader
//                                (fences the old leader by epoch).
//                                Needs no --lake.
//   route --backends H:P[@S],... [--cluster-size N] [--port P]
//         [--http-threads N] [--deadline-ms D] [--no-hedging]
//                                run the cluster router: scatter-gather
//                                search over the backend shards with
//                                hedged retries, digest-routed ingest.
//                                Backends without an explicit @shard
//                                get position modulo cluster size.
//                                Needs no --lake.
//   help [COMMAND]               top-level usage, or one command's
//                                flags in detail. Needs no --lake.
//
// Exit code 0 on success, 1 on any error.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "common/file_util.h"
#include "common/string_util.h"
#include "core/model_lake.h"
#include "governance/governance.h"
#include "lakegen/lakegen.h"
#include "replication/replicator.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/model_artifact.h"

namespace mlake {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "mlake: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: mlake --lake DIR [--threads N] [--cache-mb N] COMMAND "
      "[ARGS...]\n"
      "       mlake route --backends HOST:PORT[@SHARD],... [FLAGS]\n"
      "       mlake promote HOST:PORT\n"
      "       mlake help [COMMAND]\n"
      "\n"
      "commands:\n"
      "  init                       create an empty lake\n"
      "  demo [SEED]                populate with a generated benchmark "
      "lake\n"
      "  ls [models|datasets|benchmarks]\n"
      "  query 'MLQL'               run a declarative query (prints the "
      "plan)\n"
      "  card ID                    print a model card\n"
      "  gen-card ID [--apply]      draft a card from lake analyses\n"
      "  audit [ID]                 audit one model, or the whole lake\n"
      "  cite ID [--json|--bibtex]  revision-pinned citation for a model\n"
      "  related ID [K]             content-based related-model search\n"
      "  hybrid TEXT ID [K]         RRF fusion of keyword + embedding "
      "search\n"
      "  graph                      print the recorded version graph\n"
      "  recover-heritage [--apply] reconstruct lineage from weights\n"
      "  export ID FILE             write one model artifact to FILE\n"
      "  export --metadata [FILE]   NDJSON dump of the whole lake "
      "(stdout\n"
      "                             when FILE is omitted)\n"
      "  import FILE ID [TASK]      ingest an artifact file under ID\n"
      "  fsck [--repair]            verify artifacts; --repair "
      "quarantines\n"
      "  stats                      lake size + cache + index counters\n"
      "  compact                    fold index deltas into a new on-disk "
      "snapshot\n"
      "  serve [FLAGS]              run mlaked (see: mlake help serve)\n"
      "  route --backends ...       run the cluster router (see: mlake "
      "help route)\n"
      "  promote HOST:PORT          promote a running replica to leader\n"
      "\n"
      "run `mlake help COMMAND` for per-command flags.\n");
  return 1;
}

int CmdHelp(const std::vector<std::string>& args) {
  if (args.empty()) {
    Usage();
    return 0;  // explicit `mlake help` is a success, not an error
  }
  const std::string& cmd = args[0];
  struct CommandHelp {
    const char* name;
    const char* text;
  };
  static const CommandHelp kHelp[] = {
      {"init", "usage: mlake --lake DIR init\n"
               "Creates (or reopens) an empty lake at DIR.\n"},
      {"demo",
       "usage: mlake --lake DIR demo [SEED]\n"
       "Populates the lake with a generated benchmark corpus (4 model\n"
       "families, lineage edges recorded). SEED varies the corpus.\n"},
      {"ls", "usage: mlake --lake DIR ls [models|datasets|benchmarks]\n"
             "Lists lake contents (models is the default).\n"},
      {"query", "usage: mlake --lake DIR query 'MLQL'\n"
                "Runs a declarative MLQL query and prints the plan plus\n"
                "matching models with scores.\n"},
      {"card", "usage: mlake --lake DIR card ID\n"
               "Prints one model card as JSON plus its completeness score.\n"},
      {"gen-card",
       "usage: mlake --lake DIR gen-card ID [--apply]\n"
       "Drafts a model card from lake analyses (lineage, probes,\n"
       "artifact inspection). --apply writes the draft to the catalog.\n"},
      {"audit", "usage: mlake --lake DIR audit [ID]\n"
                "Audits one model (full JSON report) or every model\n"
                "(PASS/FAIL summary lines).\n"},
      {"cite",
       "usage: mlake --lake DIR cite ID [--json|--bibtex|--text]\n"
       "Prints a revision-pinned citation for one model.\n"
       "  (default)   one-line plain-text citation\n"
       "  --bibtex    BibTeX entry (artifact digest + lineage in the "
       "note)\n"
       "  --json      the full governance citation document: heritage\n"
       "              chain, lineage path, artifact digest, degraded "
       "flag\n"},
      {"related", "usage: mlake --lake DIR related ID [K]\n"
                  "Content-based related-model search (default K=5).\n"},
      {"hybrid", "usage: mlake --lake DIR hybrid TEXT ID [K]\n"
                 "RRF fusion of keyword search for TEXT with embedding\n"
                 "similarity to model ID (default K=5).\n"},
      {"graph", "usage: mlake --lake DIR graph\n"
                "Prints the recorded version graph (revision, edges).\n"},
      {"recover-heritage",
       "usage: mlake --lake DIR recover-heritage [--apply]\n"
       "Reconstructs lineage from model weights. --apply records the\n"
       "recovered edges that are not already in the graph.\n"},
      {"export",
       "usage: mlake --lake DIR export ID FILE\n"
       "       mlake --lake DIR export --metadata [FILE]\n"
       "First form writes one model's artifact container to FILE.\n"
       "Second form streams the machine-readable NDJSON dump of the\n"
       "whole lake — the same records GET /v1/export serves: a header\n"
       "(schema + counts), one record per model (catalog doc + card +\n"
       "degraded flag), lineage edges, datasets, and a footer — to\n"
       "FILE, or stdout when FILE is omitted.\n"},
      {"import", "usage: mlake --lake DIR import FILE ID [TASK]\n"
                 "Ingests an artifact container file as model ID.\n"},
      {"fsck",
       "usage: mlake --lake DIR fsck [--repair]\n"
       "Verifies every stored artifact. With --repair: quarantines\n"
       "corrupt blobs (models marked degraded, rest of the lake stays\n"
       "searchable), GCs orphan blobs, removes stray temp files.\n"},
      {"stats", "usage: mlake --lake DIR stats\n"
                "Prints lake size, storage-cache and index counters.\n"},
      {"compact",
       "usage: mlake --lake DIR compact\n"
       "Folds the in-memory index deltas into a new on-disk snapshot\n"
       "generation and prints the index counters.\n"},
      {"serve",
       "usage: mlake --lake DIR serve [FLAGS]\n"
       "Runs mlaked, the JSON-over-HTTP lake server, until SIGINT or\n"
       "SIGTERM (graceful drain; prints /statsz on shutdown).\n"
       "  --port P               listen port (default 8080)\n"
       "  --http-threads N       worker threads\n"
       "  --max-inflight M       admission limit (excess answers 429)\n"
       "  --deadline-ms D        default request deadline\n"
       "  --drain-deadline-ms D  shutdown drain budget\n"
       "  --batch-window-us W    search coalescing window (0 disables)\n"
       "  --max-batch B          max coalesced searches per batch\n"
       "  --shard-id S           this server's shard slot (with\n"
       "  --cluster-size N       the shard count; misrouted ingests are\n"
       "                         rejected)\n"
       "  --replicated           keep the replayable op log a leader\n"
       "                         streams to replicas\n"
       "  --replica-of HOST:PORT follow that leader as a read replica\n"
       "                         (implies --replicated; ingest answers\n"
       "                         409, governance reads answer 503 until\n"
       "                         the replica is caught up)\n"
       "  --poll-ms M            replica pull cadence\n"},
      {"route",
       "usage: mlake route --backends HOST:PORT[@SHARD],... [FLAGS]\n"
       "Runs the cluster router (no --lake): scatter-gather search over\n"
       "the backend shards with hedged retries, digest-routed ingest,\n"
       "replica-first governance reads. Backends without an explicit\n"
       "@SHARD get position modulo cluster size.\n"
       "  --cluster-size N       shard slots (default: backend count)\n"
       "  --port P               listen port (default 8090)\n"
       "  --http-threads N       worker threads\n"
       "  --deadline-ms D        default request deadline\n"
       "  --drain-deadline-ms D  shutdown drain budget\n"
       "  --heartbeat-ms M       backend heartbeat cadence\n"
       "  --hedge-min-delay-ms M hedge floor\n"
       "  --no-hedging           disable hedged retries\n"},
      {"promote",
       "usage: mlake promote HOST:PORT\n"
       "Tells a running replica (no --lake) to stop following and\n"
       "become the leader; fences the old leader by epoch.\n"},
      {"help", "usage: mlake help [COMMAND]\n"
               "Top-level usage, or one command's flags in detail.\n"},
  };
  for (const CommandHelp& entry : kHelp) {
    if (cmd == entry.name) {
      std::fputs(entry.text, stdout);
      return 0;
    }
  }
  std::fprintf(stderr, "mlake: unknown command \"%s\"\n", cmd.c_str());
  return Usage();
}

Result<std::unique_ptr<core::ModelLake>> OpenLake(const std::string& root,
                                                  int threads, int cache_mb,
                                                  bool replication_log) {
  core::LakeOptions options;
  options.root = root;
  options.replication_log = replication_log;
  if (threads > 1) options.exec = ExecutionContext::WithThreads(threads);
  if (cache_mb >= 0) {
    options.artifact_cache_bytes = static_cast<size_t>(cache_mb) << 20;
  }
  return core::ModelLake::Open(std::move(options));
}

int CmdDemo(core::ModelLake* lake, const std::vector<std::string>& args) {
  lakegen::LakeGenConfig config;
  config.num_families = 4;
  config.domains_per_family = 2;
  config.num_bases = 8;
  config.children_per_base_min = 2;
  config.children_per_base_max = 3;
  config.card_noise.redact_rate = 0.5;
  if (!args.empty()) config.seed = std::strtoull(args[0].c_str(), nullptr, 10);
  auto gen = lakegen::GenerateLake(lake, config);
  if (!gen.ok()) return Fail(gen.status());
  std::printf("generated %zu models across %zu families (%zu lineage "
              "edges recorded)\n",
              gen.ValueUnsafe().models.size(),
              gen.ValueUnsafe().families.size(),
              gen.ValueUnsafe().truth_graph.NumEdges());
  return 0;
}

int CmdLs(core::ModelLake* lake, const std::vector<std::string>& args) {
  std::string what = args.empty() ? "models" : args[0];
  if (what == "models") {
    for (const std::string& id : lake->ListModels()) {
      auto card = lake->CardFor(id);
      std::printf("%-56s %s\n", id.c_str(),
                  card.ok() ? card.ValueUnsafe().task.c_str() : "?");
    }
    return 0;
  }
  if (what == "datasets") {
    for (const std::string& name : lake->ListDatasets()) {
      auto shards = lake->DatasetShards(name);
      std::printf("%-40s %zu shards\n", name.c_str(),
                  shards.ok() ? shards.ValueUnsafe().size() : 0);
    }
    return 0;
  }
  if (what == "benchmarks") {
    for (const std::string& name : lake->ListBenchmarks()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  return Usage();
}

int CmdQuery(core::ModelLake* lake, const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  auto result = lake->Query(args[0]);
  if (!result.ok()) return Fail(result.status());
  std::printf("plan: %s\n", result.ValueUnsafe().plan.c_str());
  for (const auto& m : result.ValueUnsafe().models) {
    std::printf("%-56s %.4f\n", m.id.c_str(), m.score);
  }
  return 0;
}

int CmdCard(core::ModelLake* lake, const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  auto card = lake->CardFor(args[0]);
  if (!card.ok()) return Fail(card.status());
  std::printf("%s\n", card.ValueUnsafe().ToJson().Dump(2).c_str());
  std::printf("// completeness: %.2f\n",
              metadata::CompletenessScore(card.ValueUnsafe()));
  return 0;
}

int CmdGenCard(core::ModelLake* lake, const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  auto draft = lake->GenerateCard(args[0]);
  if (!draft.ok()) return Fail(draft.status());
  std::printf("%s\n", draft.ValueUnsafe().ToJson().Dump(2).c_str());
  bool apply = args.size() > 1 && args[1] == "--apply";
  if (apply) {
    Status st = lake->UpdateCard(draft.ValueUnsafe());
    if (!st.ok()) return Fail(st);
    std::printf("// applied\n");
  }
  return 0;
}

int CmdAudit(core::ModelLake* lake, const std::vector<std::string>& args) {
  std::vector<std::string> targets =
      args.empty() ? lake->ListModels() : std::vector<std::string>{args[0]};
  size_t passes = 0;
  for (const std::string& id : targets) {
    auto report = lake->AuditModel(id);
    if (!report.ok()) return Fail(report.status());
    bool pass = report.ValueUnsafe().GetBool("passes");
    if (pass) ++passes;
    if (args.empty()) {
      std::printf("%-56s %s\n", id.c_str(), pass ? "PASS" : "FAIL");
    } else {
      std::printf("%s\n", report.ValueUnsafe().Dump(2).c_str());
    }
  }
  if (args.empty()) {
    std::printf("%zu/%zu pass\n", passes, targets.size());
  }
  return 0;
}

int CmdCite(core::ModelLake* lake, const std::vector<std::string>& args) {
  std::string id;
  std::string format = "text";
  for (const std::string& arg : args) {
    if (arg == "--json") {
      format = "json";
    } else if (arg == "--bibtex") {
      format = "bibtex";
    } else if (arg == "--text") {
      format = "text";
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      id = arg;
    }
  }
  if (id.empty()) return Usage();
  auto doc = governance::CitationDoc(*lake, id);
  if (!doc.ok()) return Fail(doc.status());
  if (format == "json") {
    std::printf("%s\n", doc.ValueUnsafe().Dump(2).c_str());
  } else {
    std::printf("%s\n", doc.ValueUnsafe().GetString(format).c_str());
  }
  return 0;
}

int CmdRelated(core::ModelLake* lake, const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  size_t k = args.size() > 1 ? std::strtoul(args[1].c_str(), nullptr, 10) : 5;
  auto related = lake->RelatedModels(args[0], k);
  if (!related.ok()) return Fail(related.status());
  for (const auto& m : related.ValueUnsafe()) {
    std::printf("%-56s %.4f\n", m.id.c_str(), m.score);
  }
  return 0;
}

int CmdHybrid(core::ModelLake* lake, const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  size_t k = args.size() > 2 ? std::strtoul(args[2].c_str(), nullptr, 10) : 5;
  auto hits = lake->HybridSearch(args[0], args[1], k);
  if (!hits.ok()) return Fail(hits.status());
  for (const auto& m : hits.ValueUnsafe()) {
    std::printf("%-56s %.4f\n", m.id.c_str(), m.score);
  }
  return 0;
}

int CmdGraph(core::ModelLake* lake) {
  const versioning::ModelGraph& graph = lake->graph();
  std::printf("revision %llu, %zu models, %zu edges\n",
              static_cast<unsigned long long>(graph.revision()),
              graph.NumModels(), graph.NumEdges());
  for (const auto& e : graph.Edges()) {
    std::printf("%-52s -[%s]-> %s\n", e.parent.c_str(),
                std::string(versioning::EdgeTypeToString(e.type)).c_str(),
                e.child.c_str());
  }
  return 0;
}

int CmdRecoverHeritage(core::ModelLake* lake,
                       const std::vector<std::string>& args) {
  auto recovered = lake->RecoverHeritage();
  if (!recovered.ok()) return Fail(recovered.status());
  for (const auto& e : recovered.ValueUnsafe().graph.Edges()) {
    std::printf("%-52s -> %-52s %.2f\n", e.parent.c_str(), e.child.c_str(),
                e.confidence);
  }
  std::printf("%zu edges in %zu trees\n",
              recovered.ValueUnsafe().graph.NumEdges(),
              recovered.ValueUnsafe().num_trees);
  if (!args.empty() && args[0] == "--apply") {
    size_t applied = 0;
    for (const auto& e : recovered.ValueUnsafe().graph.Edges()) {
      if (!lake->graph().HasEdge(e.parent, e.child)) {
        Status st = lake->RecordEdge(e);
        if (!st.ok()) return Fail(st);
        ++applied;
      }
    }
    std::printf("recorded %zu new edges\n", applied);
  }
  return 0;
}

int CmdExportMetadata(core::ModelLake* lake,
                      const std::vector<std::string>& args) {
  // args[0] == "--metadata"; optional destination file after it.
  std::FILE* out = stdout;
  if (args.size() > 1) {
    out = std::fopen(args[1].c_str(), "wb");
    if (out == nullptr) {
      return Fail(Status::IOError("cannot open " + args[1] + " for writing"));
    }
  }
  auto iterator = lake->OpenExport();
  std::string line;
  bool write_failed = false;
  while (iterator->Next(&line)) {
    if (std::fwrite(line.data(), 1, line.size(), out) != line.size()) {
      write_failed = true;
      break;
    }
  }
  write_failed = write_failed || std::ferror(out) != 0;
  if (out != stdout) {
    write_failed = std::fclose(out) != 0 || write_failed;
  }
  if (write_failed) {
    return Fail(Status::IOError("short write during metadata export"));
  }
  // Summary on stderr so a stdout dump stays machine-clean.
  std::fprintf(stderr, "exported %zu records (%zu models)\n",
               iterator->records_emitted(), iterator->num_models());
  return 0;
}

int CmdExport(core::ModelLake* lake, const std::vector<std::string>& args) {
  if (!args.empty() && args[0] == "--metadata") {
    return CmdExportMetadata(lake, args);
  }
  if (args.size() < 2) return Usage();
  auto model = lake->LoadModel(args[0]);
  if (!model.ok()) return Fail(model.status());
  Json meta = Json::MakeObject();
  meta.Set("model_id", args[0]);
  storage::ModelArtifact artifact =
      storage::ArtifactFromModel(*model.ValueUnsafe(), std::move(meta));
  Status st = WriteFile(args[1], storage::SerializeArtifact(artifact));
  if (!st.ok()) return Fail(st);
  std::printf("exported %s to %s\n", args[0].c_str(), args[1].c_str());
  return 0;
}

int CmdImport(core::ModelLake* lake, const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  auto bytes = ReadFile(args[0]);
  if (!bytes.ok()) return Fail(bytes.status());
  auto artifact = storage::ParseArtifact(bytes.ValueUnsafe());
  if (!artifact.ok()) return Fail(artifact.status());
  auto model = storage::ModelFromArtifact(artifact.ValueUnsafe());
  if (!model.ok()) return Fail(model.status());
  metadata::ModelCard card;
  card.model_id = args[1];
  card.name = args[1];
  if (args.size() > 2) card.task = args[2];
  auto id = lake->IngestModel(*model.ValueUnsafe(), card);
  if (!id.ok()) return Fail(id.status());
  std::printf("ingested %s\n", id.ValueUnsafe().c_str());
  return 0;
}

int CmdStats(core::ModelLake* lake) {
  // Warm nothing: report whatever this process has accumulated so far
  // (a bare `mlake stats` shows the cold-start configuration/budgets).
  Json out = Json::MakeObject();
  out.Set("models", static_cast<int64_t>(lake->NumModels()));
  out.Set("datasets", static_cast<int64_t>(lake->ListDatasets().size()));
  out.Set("benchmarks", static_cast<int64_t>(lake->ListBenchmarks().size()));
  out.Set("caches", lake->CacheStatsJson());
  out.Set("index", lake->IndexStatsJson());
  std::printf("%s\n", out.Dump(2).c_str());
  return 0;
}

int CmdCompact(core::ModelLake* lake) {
  auto t0 = std::chrono::steady_clock::now();
  Status st = lake->CompactIndices();
  if (!st.ok()) return Fail(st);
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  std::printf("compacted %zu models in %.1f ms\n%s\n", lake->NumModels(), ms,
              lake->IndexStatsJson().Dump(2).c_str());
  return 0;
}

int CmdFsck(core::ModelLake* lake, const std::vector<std::string>& args) {
  bool repair = !args.empty() && args[0] == "--repair";
  if (!args.empty() && !repair) return Usage();
  if (repair) {
    auto report = lake->FsckRepair();
    if (!report.ok()) return Fail(report.status());
    const core::FsckReport& r = report.ValueUnsafe();
    for (const std::string& id : r.corrupted) {
      std::printf("QUARANTINED %s\n", id.c_str());
    }
    std::printf("%s\n", r.ToJson().Dump(2).c_str());
    // Repair succeeded: the lake is consistent again (corrupt content
    // fenced off), so exit 0 even when corruption was found.
    return 0;
  }
  auto corrupted = lake->FsckArtifacts();
  if (!corrupted.ok()) return Fail(corrupted.status());
  if (corrupted.ValueUnsafe().empty()) {
    std::printf("all %zu artifacts intact\n", lake->NumModels());
    return 0;
  }
  for (const std::string& id : corrupted.ValueUnsafe()) {
    std::printf("CORRUPTED %s\n", id.c_str());
  }
  return 1;
}

int CmdServe(core::ModelLake* lake, const std::vector<std::string>& args) {
  server::ServerOptions options;
  options.port = 8080;
  replication::ReplicaOptions replica_options;
  bool is_replica = false;
  for (size_t i = 0; i < args.size(); ++i) {
    auto int_arg = [&](const char* flag, int* out) {
      if (args[i] != flag || i + 1 >= args.size()) return false;
      *out = static_cast<int>(std::strtol(args[++i].c_str(), nullptr, 10));
      return true;
    };
    if (int_arg("--port", &options.port)) continue;
    if (int_arg("--http-threads", &options.threads)) continue;
    if (int_arg("--max-inflight", &options.max_inflight)) continue;
    if (int_arg("--deadline-ms", &options.default_deadline_ms)) continue;
    if (int_arg("--drain-deadline-ms", &options.drain_deadline_ms)) continue;
    int window_us = -1;
    if (int_arg("--batch-window-us", &window_us)) {
      // 0: every search probes alone; >0 bounds the leader wait.
      options.batch_window_us = window_us;
      continue;
    }
    if (int_arg("--max-batch", &options.max_batch)) continue;
    if (int_arg("--shard-id", &options.shard_id)) continue;
    if (int_arg("--cluster-size", &options.cluster_size)) continue;
    // --replicated only affects how the lake was opened (Run() peeks
    // for it before OpenLake); consume it here.
    if (args[i] == "--replicated") continue;
    if (args[i] == "--replica-of" && i + 1 < args.size()) {
      auto spec = cluster::ParseBackendSpec(args[++i]);
      if (!spec.ok()) return Fail(spec.status());
      replica_options.leader_host = spec.ValueUnsafe().host;
      replica_options.leader_port = spec.ValueUnsafe().port;
      is_replica = true;
      continue;
    }
    if (int_arg("--poll-ms", &replica_options.poll_interval_ms)) continue;
    return Usage();
  }

  std::unique_ptr<replication::Replicator> replicator;
  if (is_replica) {
    auto opened = replication::Replicator::Open(lake, replica_options);
    if (!opened.ok()) return Fail(opened.status());
    replicator = opened.MoveValueUnsafe();
    options.replication = replicator.get();
  }

  // Block the shutdown signals before Start so every server thread
  // inherits the mask; the main thread then owns delivery via sigwait.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  server::LakeServer server(lake, options);
  Status st = server.Start();
  if (!st.ok()) return Fail(st);
  if (replicator != nullptr) {
    st = replicator->Start();
    if (!st.ok()) return Fail(st);
    std::printf("mlaked (replica of %s:%d) listening on %s:%d (%zu models, "
                "%d worker threads)\n",
                replica_options.leader_host.c_str(),
                replica_options.leader_port,
                server.options().bind_address.c_str(), server.port(),
                lake->NumModels(), server.options().threads);
  } else {
    std::printf("mlaked listening on %s:%d (%zu models, %d worker threads)\n",
                server.options().bind_address.c_str(), server.port(),
                lake->NumModels(), server.options().threads);
  }
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  std::printf("caught %s, draining (deadline %d ms)...\n",
              sig == SIGINT ? "SIGINT" : "SIGTERM",
              server.options().drain_deadline_ms);
  std::fflush(stdout);
  if (replicator != nullptr) (void)replicator->Stop();
  st = server.Stop();
  std::printf("%s\n", server.StatszJson().Dump(2).c_str());
  return st.ok() ? 0 : Fail(st);
}

int CmdPromote(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  auto spec = cluster::ParseBackendSpec(args[0]);
  if (!spec.ok()) return Fail(spec.status());
  server::HttpClient client(spec.ValueUnsafe().host, spec.ValueUnsafe().port);
  auto response = client.Post("/v1/replication/promote", "{}", {});
  if (!response.ok()) return Fail(response.status());
  std::printf("%s\n", response.ValueUnsafe().body.c_str());
  return response.ValueUnsafe().status == 200 ? 0 : 1;
}

int CmdRoute(const std::vector<std::string>& args) {
  cluster::RouterOptions options;
  options.port = 8090;
  std::vector<std::string> specs;
  for (size_t i = 0; i < args.size(); ++i) {
    auto int_arg = [&](const char* flag, int* out) {
      if (args[i] != flag || i + 1 >= args.size()) return false;
      *out = static_cast<int>(std::strtol(args[++i].c_str(), nullptr, 10));
      return true;
    };
    if (args[i] == "--backends" && i + 1 < args.size()) {
      specs = Split(args[++i], ',');
      continue;
    }
    if (int_arg("--port", &options.port)) continue;
    if (int_arg("--http-threads", &options.threads)) continue;
    if (int_arg("--cluster-size", &options.cluster_size)) continue;
    if (int_arg("--deadline-ms", &options.default_deadline_ms)) continue;
    if (int_arg("--drain-deadline-ms", &options.drain_deadline_ms)) continue;
    if (int_arg("--heartbeat-ms", &options.heartbeat_interval_ms)) continue;
    if (int_arg("--hedge-min-delay-ms", &options.hedge_min_delay_ms)) continue;
    if (args[i] == "--no-hedging") {
      options.enable_hedging = false;
      continue;
    }
    return Usage();
  }
  if (specs.empty()) return Usage();

  // Backends without an explicit @shard get position modulo cluster
  // size, so "a,b,c,d --cluster-size 2" means two shards with two
  // replicas each.
  int implied_size =
      options.cluster_size > 0 ? options.cluster_size
                               : static_cast<int>(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    auto spec = cluster::ParseBackendSpec(specs[i]);
    if (!spec.ok()) return Fail(spec.status());
    cluster::BackendSpec backend = spec.MoveValueUnsafe();
    if (backend.shard_id < 0) {
      backend.shard_id = static_cast<int>(i) % implied_size;
    }
    options.backends.push_back(std::move(backend));
  }
  if (options.cluster_size == 0) options.cluster_size = implied_size;

  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  cluster::Router router(options);
  Status st = router.Start();
  if (!st.ok()) return Fail(st);
  std::printf("mlake router listening on %s:%d (%d shards, %zu backends)\n",
              router.options().bind_address.c_str(), router.port(),
              router.options().cluster_size, router.options().backends.size());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  std::printf("caught %s, draining (deadline %d ms)...\n",
              sig == SIGINT ? "SIGINT" : "SIGTERM",
              router.options().drain_deadline_ms);
  std::fflush(stdout);
  st = router.Stop();
  std::printf("%s\n", router.StatszJson().Dump(2).c_str());
  return st.ok() ? 0 : Fail(st);
}

int Run(int argc, char** argv) {
  std::string lake_dir;
  int threads = 0;
  int cache_mb = -1;  // -1 = keep LakeOptions defaults.
  std::vector<std::string> rest;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--lake") == 0 && i + 1 < argc) {
      lake_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--cache-mb") == 0 && i + 1 < argc) {
      cache_mb = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else {
      rest.emplace_back(argv[i]);
    }
  }
  if (rest.empty()) return Usage();
  std::string command = rest.front();
  std::vector<std::string> args(rest.begin() + 1, rest.end());

  // The router and promote talk to remote servers and own no lake of
  // their own, so they skip --lake.
  if (command == "route") return CmdRoute(args);
  if (command == "promote") return CmdPromote(args);
  if (command == "help") return CmdHelp(args);
  if (lake_dir.empty()) return Usage();

  // serve needs the replication flags before the lake opens: the op
  // log is a property of the lake, not the server.
  bool replication_log = false;
  for (const std::string& arg : args) {
    if (arg == "--replicated" || arg == "--replica-of") {
      replication_log = true;
    }
  }
  auto lake = OpenLake(lake_dir, threads, cache_mb, replication_log);
  if (!lake.ok()) return Fail(lake.status());
  core::ModelLake* lk = lake.ValueUnsafe().get();

  if (command == "init") {
    std::printf("lake ready at %s (%zu models)\n", lake_dir.c_str(),
                lk->NumModels());
    return 0;
  }
  if (command == "demo") return CmdDemo(lk, args);
  if (command == "ls") return CmdLs(lk, args);
  if (command == "query") return CmdQuery(lk, args);
  if (command == "card") return CmdCard(lk, args);
  if (command == "gen-card") return CmdGenCard(lk, args);
  if (command == "audit") return CmdAudit(lk, args);
  if (command == "cite") return CmdCite(lk, args);
  if (command == "related") return CmdRelated(lk, args);
  if (command == "hybrid") return CmdHybrid(lk, args);
  if (command == "graph") return CmdGraph(lk);
  if (command == "recover-heritage") return CmdRecoverHeritage(lk, args);
  if (command == "export") return CmdExport(lk, args);
  if (command == "import") return CmdImport(lk, args);
  if (command == "fsck") return CmdFsck(lk, args);
  if (command == "stats") return CmdStats(lk);
  if (command == "compact") return CmdCompact(lk);
  if (command == "serve") return CmdServe(lk, args);
  return Usage();
}

}  // namespace
}  // namespace mlake

int main(int argc, char** argv) { return mlake::Run(argc, argv); }
