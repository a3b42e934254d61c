// vkg_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--cache-dir <dir>]
//   Runs one workload (topk_cold, update_mix) on inputs generated from
//   the seed, checks every answer against the
//   benchmark's own oracle, prints every figure by name with its unit,
//   and ends with one JSON line. --trace 0 reports the end-to-end
//   metrics, --trace 1 the per-layer ones.
// vkg_perfbench --selftest
//   Only runs the self-test of the checks.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"
#include "inputs.h"
#include "oracle.h"
#include "selftest.h"
#include "util/socket.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Queries per topk_cold round and ops per update_mix round: each makes a
// round last one to two seconds on a 4-core host, so a run has several.
constexpr size_t kColdQueries = 10000;
// topk_cold's rounds cycle through this many query streams, so that a
// run's figures do not hang on one stream's draw of hot keys.
constexpr size_t kColdStreams = 8;
constexpr size_t kMixOps = 800;
// Requests per epoch of the serving pass in a traced run.
constexpr size_t kServeRequests = 4000;
// Each workload's graph is generated with one fixed seed (the figure
// benches' 1001-1003 family), so a run's seed varies the operation
// stream over the same data: the query streams, the op mix and the
// update sequence all come from --seed.
constexpr uint64_t kDatasetSeed = 1004;

int Usage() {
  std::fprintf(stderr,
               "usage: vkg_perfbench --workload topk_cold|update_mix"
               " --seed N --seconds S --trace 0|1 "
               "[--cache-dir DIR]\n       vkg_perfbench --selftest\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, bool* selftest_only) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      *selftest_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0) ||
          args->seconds > 3600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--cache-dir") {
      args->cache_dir = value;
    } else {
      return false;
    }
  }
  return *selftest_only || have_workload;
}

kg::RelationId RelationNamed(const data::Dataset& ds, const char* name) {
  return ds.graph.relation_names().Lookup(name);
}

// The serving pass: closed-loop connections, at most half the cores and
// at most two, each replaying its own slice of the workload's stream.
std::vector<std::vector<data::Query>> ServeStreams(
    const std::vector<data::Query>& queries) {
  const size_t clients =
      std::clamp<size_t>(std::thread::hardware_concurrency() / 2, 1, 2);
  std::vector<std::vector<data::Query>> streams(clients);
  for (size_t i = 0; i < std::min(queries.size(), kServeRequests); ++i) {
    streams[i % clients].push_back(queries[i]);
  }
  return streams;
}

// Reports the transform/embedding/index direct-call layers on a fresh
// facade over the workload's dataset.
void DirectLayers(const RunContext& ctx, const std::vector<data::Query>& q,
                  double rows) {
  double unused = 0.0;
  std::shared_ptr<Vkg> vkg = BuildFacade(*ctx.dataset, &unused);
  ReportDirectLayers(*vkg, q, rows, *ctx.report);
}

int Run(const Args& args) {
  Report report;
  RunContext ctx;
  ctx.report = &report;
  ctx.seed = args.seed;
  const Mode mode = args.trace ? Mode::kTraced : Mode::kEndToEnd;
  DatasetKind kind;
  if (args.workload == "topk_cold") {
    kind = DatasetKind::kFreebase;
  } else if (args.workload == "update_mix") {
    kind = DatasetKind::kAmazon;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Inputs inputs = PrepareInputs(kind, kDatasetSeed, args.cache_dir);
  NoteInputs(inputs, report);
  const data::Dataset& ds = inputs.dataset;
  const Oracle oracle = Oracle::FromDataset(ds);
  ctx.dataset = &ds;
  ctx.oracle = &oracle;

  if (kind == DatasetKind::kFreebase) {
    std::vector<std::vector<data::Query>> streams;
    for (size_t s = 0; s < kColdStreams; ++s) {
      streams.push_back(
          ZipfQueries(ds, kColdQueries, Mix(args.seed ^ Mix(0x11 + s))));
    }
    const double rows = RunTopKCold(ctx, streams, args.seconds, mode);
    if (mode == Mode::kTraced) {
      RunServeLayers(ctx, ServeStreams(streams.front()));
      DirectLayers(ctx, streams.front(), rows);
    }
  } else {
    ctx.relation = RelationNamed(ds, "likes");
    ctx.attribute = "quality";
    const double rows = RunUpdateMix(ctx, kMixOps, args.seconds, mode);
    if (mode == Mode::kTraced) {
      const std::vector<data::Query> queries =
          ZipfQueries(ds, kColdQueries, Mix(args.seed ^ 0x31));
      RunServeLayers(ctx, ServeStreams(queries));
      DirectLayers(ctx, queries, rows);
    }
  }
  report.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  bool selftest_only = false;
  if (!perfbench::ParseArgs(argc, argv, &args, &selftest_only)) {
    return perfbench::Usage();
  }
  vkg::util::IgnoreSigPipe();
  // The checks themselves are checked first, on every run.
  if (!perfbench::RunSelfTest()) {
    std::fprintf(stderr, "selftest of the correctness checks failed\n");
    return 3;
  }
  if (selftest_only) {
    std::printf("selftest passed\n");
    return 0;
  }
  return perfbench::Run(args);
}
