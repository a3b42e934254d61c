#include <cstdio>
#include <cstdlib>
#include <utility>

#include "embedding/batch_kernels.h"
#include "util/epoch.h"
#include "workloads.h"

namespace perfbench {

std::shared_ptr<Vkg> BuildFacade(const data::Dataset& ds,
                                 double* build_seconds) {
  vkg::embedding::EmbeddingStore store = ds.embeddings;
  const double start = ThreadCpuSeconds();
  auto built = Vkg::BuildWithEmbeddings(&ds.graph, std::move(store),
                                        vkg::core::VkgOptions());
  *build_seconds = ThreadCpuSeconds() - start;
  if (!built.ok()) {
    std::fprintf(stderr, "BuildWithEmbeddings failed: %s\n",
                 built.status().ToString().c_str());
    std::exit(1);
  }
  return std::shared_ptr<Vkg>(std::move(*built));
}

double SetupSample(const data::Dataset& ds) {
  double total = 0.0;
  for (size_t i = 0; i < kSetupBuilds; ++i) {
    double seconds = 0.0;
    BuildFacade(ds, &seconds);
    total += seconds;
  }
  return total / static_cast<double>(kSetupBuilds);
}

void EndToEnd(Report& report, Mode mode, const std::string& name,
              double value, const std::string& unit) {
  if (mode == Mode::kEndToEnd) {
    report.Metric(name, value, unit);
  } else {
    report.Note(name, value, unit);
  }
}

IndexSnapshot SnapIndex(const Vkg& vkg) {
  IndexSnapshot snap;
  snap.stats = vkg.IndexStats();
  snap.generation = vkg.rtree().crack_generation();
  snap.versions_retired =
      vkg::util::EpochManager::Global().GetStats().versions_retired;
  return snap;
}

void IndexDeltas::Add(const IndexSnapshot& before,
                      const IndexSnapshot& after) {
  auto calls = [](const vkg::index::IndexStats& s) {
    return static_cast<double>(s.crack_publishes + s.coalesced_cracks +
                               s.abandoned_cracks);
  };
  crack_calls += calls(after.stats) - calls(before.stats);
  crack_generations +=
      static_cast<double>(after.generation - before.generation);
  cracks_coalesced += static_cast<double>(after.stats.coalesced_cracks -
                                          before.stats.coalesced_cracks);
  crack_waits += static_cast<double>(after.stats.crack_waits -
                                     before.stats.crack_waits);
  versions_retired +=
      static_cast<double>(after.versions_retired - before.versions_retired);
}

void IndexDeltas::Scale(double factor) {
  crack_calls *= factor;
  crack_generations *= factor;
  cracks_coalesced *= factor;
  crack_waits *= factor;
  versions_retired *= factor;
}

namespace {

double PerSpan(const SpanFold& fold, const std::string& name) {
  const double n = fold.Count(name);
  return n > 0 ? fold.SelfUs(name) / n : 0.0;
}

}  // namespace

void ReportTopKLayers(const SpanFold& fold, double topk_ops,
                      double rerank_rows, const IndexSnapshot& last,
                      const IndexDeltas& deltas, Report& report) {
  report.Metric("index.probe_us", PerSpan(fold, "probe"), "us");
  report.Metric("index.crack_us", PerSpan(fold, "crack"), "us");
  report.Metric("index.splits", static_cast<double>(last.stats.binary_splits),
                "count");
  report.Metric("index.nodes", static_cast<double>(last.stats.num_nodes),
                "count");
  report.Metric("index.height", static_cast<double>(last.stats.height),
                "count");
  report.Metric("index.node_bytes", static_cast<double>(last.stats.node_bytes),
                "bytes");
  report.Metric("index.crack_calls", deltas.crack_calls, "count");
  report.Metric("index.crack_generations", deltas.crack_generations, "count");
  report.Metric("index.cracks_coalesced", deltas.cracks_coalesced, "count");
  report.Metric("index.crack_waits", deltas.crack_waits, "count");
  report.Metric("index.epoch_versions_retired", deltas.versions_retired,
                "count");
  report.Metric("query.jl_project_us", PerSpan(fold, "jl.project"), "us");
  report.Metric("query.seed_us", PerSpan(fold, "seed"), "us");
  report.Metric("query.frontier_us", PerSpan(fold, "frontier"), "us");
  const double frontiers = fold.Count("frontier");
  report.Metric("query.frontier_pops",
                frontiers > 0 ? fold.AttrSum("frontier", "pops") / frontiers
                              : 0.0,
                "count");
  report.Metric("query.rerank_rows_per_topk",
                topk_ops > 0 ? rerank_rows / topk_ops : 0.0, "count");
}

void ReportTraceCost(double traced_op_us, double untraced_op_us,
                     double span_share, Report& report) {
  report.Metric("trace.overhead_pct",
                untraced_op_us > 0
                    ? 100.0 * (traced_op_us / untraced_op_us - 1.0)
                    : 0.0,
                "%");
  report.Metric("trace.span_coverage_pct",
                100.0 * span_share,
                "%");
}

void ReportDirectLayers(const Vkg& vkg, std::span<const data::Query> queries,
                        double rows, Report& report) {
  const auto& store = vkg.embeddings();
  const size_t n = std::min<size_t>(queries.size(), 2048);
  std::vector<std::vector<float>> centres;
  centres.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const data::Query& q = queries[i];
    centres.push_back(store.QueryCenter(q.anchor, q.relation, q.direction));
  }
  // Median of five passes over all centres each, in thread CPU time.
  std::vector<float> out(vkg.jl().output_dim());
  std::vector<double> pass_ns;
  for (int rep = 0; rep < 5; ++rep) {
    const double start = ThreadCpuSeconds();
    for (int inner = 0; inner < 8; ++inner) {
      for (const auto& c : centres) vkg.jl().Apply(c, out);
    }
    pass_ns.push_back((ThreadCpuSeconds() - start) * 1e9 /
                      (8.0 * static_cast<double>(centres.size())));
  }
  report.Metric("transform.jl_apply_ns", Median(pass_ns), "ns");

  // Id lists of the workload's mean candidate count, strided over the
  // entity range so rows are scattered as in the re-rank.
  const size_t len = std::max<size_t>(1, static_cast<size_t>(rows + 0.5));
  const size_t entities = store.num_entities();
  std::vector<uint32_t> ids(centres.size() * len);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<uint32_t>((i * 104729) % entities);
  }
  std::vector<double> dist(len);
  pass_ns.clear();
  for (int rep = 0; rep < 5; ++rep) {
    const double start = ThreadCpuSeconds();
    size_t rows_done = 0;
    for (size_t i = 0; i < centres.size(); ++i) {
      vkg::embedding::GatherL2DistanceSquared(
          centres[i], store, std::span(ids).subspan(i * len, len),
          dist.data());
      rows_done += len;
    }
    pass_ns.push_back((ThreadCpuSeconds() - start) * 1e9 /
                      static_cast<double>(rows_done));
  }
  report.Metric("embedding.gather_ns_per_row", Median(pass_ns), "ns");

  std::vector<double> sort_ms;
  for (int rep = 0; rep < 3; ++rep) {
    vkg::index::CrackingRTree tree(&vkg.points_s2(), vkg.options().rtree);
    const double start = ThreadCpuSeconds();
    tree.orders();
    sort_ms.push_back((ThreadCpuSeconds() - start) * 1e3);
  }
  report.Metric("index.sort_orders_ms", Median(sort_ms), "ms");
}

}  // namespace perfbench
