#include "common.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>

namespace perfbench {

namespace {

// Which end-to-end metric, on which workload, each per-layer metric
// should move (README.md explains each pairing).
const std::map<std::string_view, std::string_view>& MovesTable() {
  static const auto* table = new std::map<std::string_view, std::string_view>{
      {"transform.jl_apply_ns", "topk_p50_us on topk_cold"},
      {"embedding.gather_ns_per_row", "topk_p50_us on topk_cold"},
      {"index.sort_orders_ms", "cold_window_ms on topk_cold"},
      {"index.probe_us", "topk_p50_us on topk_cold"},
      {"index.crack_us", "cold_window_ms on topk_cold"},
      {"index.splits", "cold_window_ms on topk_cold"},
      {"index.nodes", "topk_p50_us on topk_cold"},
      {"index.height", "topk_p50_us on topk_cold"},
      {"index.node_bytes", "none (index size, Figs 9-11)"},
      {"index.crack_calls", "cold_window_ms on topk_cold"},
      {"index.crack_generations", "cold_window_ms on topk_cold"},
      {"index.cracks_coalesced", "cold_window_ms on topk_cold"},
      {"index.crack_waits", "none (one caller thread: no contention)"},
      {"index.epoch_versions_retired", "cold_window_ms on topk_cold"},
      {"query.jl_project_us", "topk_p50_us on topk_cold"},
      {"query.seed_us", "topk_p50_us on topk_cold"},
      {"query.frontier_us", "topk_p50_us on topk_cold"},
      {"query.frontier_pops", "topk_p50_us on topk_cold"},
      {"query.rerank_rows_per_topk", "topk_p50_us on topk_cold"},
      {"query.agg_us", "ops_per_s on update_mix"},
      {"query.agg_contour_us", "ops_per_s on update_mix"},
      {"query.agg_accessed", "ops_per_s on update_mix"},
      {"query.agg_p50_us", "ops_per_s on update_mix"},
      {"query.agg_p99_us", "ops_per_s on update_mix"},
      {"core.update_us", "ops_per_s on update_mix"},
      {"core.overlay_size_mean", "topk_p50_us on update_mix"},
      {"core.recrack_window_ms", "cold_window_ms on update_mix"},
      {"core.compact_ms", "ops_per_s on update_mix"},
      {"server.execute_p50_us", "none (serving path, README.md)"},
      {"server.execute_p99_us", "none (serving path, README.md)"},
      {"server.cache_hits", "none (serving path, README.md)"},
      {"server.cache_misses", "none (serving path, README.md)"},
      {"server.cache_invalidated", "none (serving path, README.md)"},
      {"server.computed_topk", "none (serving path, README.md)"},
      {"server.coalesced", "none (serving path, README.md)"},
      {"server.peak_queue_depth", "none (serving path, README.md)"},
      {"server.generations", "none (serving path, README.md)"},
      {"net.ping_p50_us", "none (serving path, README.md)"},
      {"net.overhead_p50_us", "none (serving path, README.md)"},
      {"net.frames_rx", "none (serving path, README.md)"},
      {"net.frames_tx", "none (serving path, README.md)"},
      {"trace.overhead_pct", "none (cost of tracing itself)"},
      {"trace.span_coverage_pct", "none (share of op time in named spans)"},
  };
  return *table;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  return samples[static_cast<size_t>(rank + 0.5)];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& name, double value,
                  const std::string& unit) {
  notes_.push_back({name, value, unit});
}

void Report::Ops(const std::string& type, uint64_t attempted,
                 uint64_t failed) {
  tallies_.push_back({type, attempted, failed});
}

void Report::Violation(const std::string& what) {
  ++violations_;
  // The first few are enough to diagnose; the count says the rest.
  if (violations_ <= 10) {
    std::fprintf(stdout, "VIOLATION: %s\n", what.c_str());
  }
}

void Report::Print() const {
  for (const Entry& n : notes_) {
    std::printf("note    %-34s %18.6g %s\n", n.name.c_str(), n.value,
                n.unit.c_str());
  }
  const auto& moves = MovesTable();
  for (const Entry& m : metrics_) {
    auto it = moves.find(m.name);
    if (it == moves.end()) {
      std::printf("metric  %-34s %18.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    } else {
      std::printf("layer   %-34s %18.6g %-6s -> %s\n", m.name.c_str(),
                  m.value, m.unit.c_str(), std::string(it->second).c_str());
    }
  }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const Tally& t : tallies_) {
    std::printf("ops     %-34s attempted %llu failed %llu\n", t.type.c_str(),
                static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.failed));
    attempted += t.attempted;
    failed += t.failed;
  }
  std::printf("correctness violations: %llu\n",
              static_cast<unsigned long long>(violations_));
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " +
            JsonNumber(metrics_[i].value) + ", \"unit\": \"" +
            metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
