#include "inputs.h"

#include <unistd.h>

#include <filesystem>
#include <utility>

#include "data/amazon_gen.h"
#include "data/freebase_gen.h"
#include "util/serialize.h"

namespace perfbench {

namespace {

constexpr uint32_t kGraphMagic = 0x48504256;  // "VBPH"
constexpr uint32_t kGraphVersion = 1;

const char* KindName(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kFreebase:
      return "freebase";
    case DatasetKind::kAmazon:
      return "amazon";
  }
  return "?";
}

// Scale 1: the sizes of the repository's figure benches at
// VKG_BENCH_SCALE=1 (bench/bench_common.cc).
data::Dataset Generate(DatasetKind kind, uint64_t seed) {
  switch (kind) {
    case DatasetKind::kFreebase: {
      data::FreebaseConfig config;
      config.num_entities = 40000;
      config.num_relation_types = 120;
      config.target_edges = 100000;
      config.num_domains = 12;
      config.seed = seed;
      return data::GenerateFreebaseLike(config);
    }
    case DatasetKind::kAmazon: {
      data::AmazonConfig config;
      config.num_users = 30000;
      config.num_products = 20000;
      config.seed = seed;
      return data::GenerateAmazonLike(config);
    }
  }
  return {};
}

vkg::util::Status SaveGraph(const kg::KnowledgeGraph& g,
                            const std::string& path) {
  vkg::util::BinaryWriter w(path);
  w.WriteU32(kGraphMagic);
  w.WriteU32(kGraphVersion);
  w.WriteU64(g.num_entities());
  for (size_t e = 0; e < g.num_entities(); ++e) {
    w.WriteString(g.entity_names().Name(static_cast<uint32_t>(e)));
    w.WriteString(g.EntityTypeName(static_cast<kg::EntityId>(e)));
  }
  w.WriteU64(g.num_relations());
  for (size_t r = 0; r < g.num_relations(); ++r) {
    w.WriteString(g.relation_names().Name(static_cast<uint32_t>(r)));
  }
  const auto& triples = g.triples().triples();
  w.WriteU64(triples.size());
  for (const kg::Triple& t : triples) {
    w.WriteU32(t.head);
    w.WriteU32(t.relation);
    w.WriteU32(t.tail);
  }
  const std::vector<std::string> names = g.attributes().Names();
  w.WriteU64(names.size());
  for (const std::string& name : names) {
    w.WriteString(name);
    const std::vector<double>* column = *g.attributes().Get(name);
    w.WriteU64(column->size());
    for (double v : *column) w.WriteF64(v);
  }
  w.WriteChecksum();
  return w.Close();
}

vkg::util::Status LoadGraph(const std::string& path, kg::KnowledgeGraph* g) {
  using vkg::util::Status;
  vkg::util::BinaryReader r(path);
  if (!r.status().ok()) return r.status();
  if (r.ReadU32() != kGraphMagic || r.ReadU32() != kGraphVersion) {
    return Status::DataLoss("not a cached perfbench graph");
  }
  const uint64_t entities = r.ReadU64();
  for (uint64_t e = 0; e < entities && r.status().ok(); ++e) {
    std::string name = r.ReadString();
    std::string type = r.ReadString();
    g->AddEntity(name, type);
  }
  const uint64_t relations = r.ReadU64();
  for (uint64_t i = 0; i < relations && r.status().ok(); ++i) {
    g->AddRelation(r.ReadString());
  }
  const uint64_t edges = r.ReadU64();
  for (uint64_t i = 0; i < edges && r.status().ok(); ++i) {
    const uint32_t h = r.ReadU32();
    const uint32_t rel = r.ReadU32();
    const uint32_t t = r.ReadU32();
    if (h >= entities || t >= entities || rel >= relations) {
      return Status::DataLoss("cached triple out of range");
    }
    g->AddEdge(h, rel, t);
  }
  const uint64_t columns = r.ReadU64();
  for (uint64_t c = 0; c < columns && r.status().ok(); ++c) {
    std::string name = r.ReadString();
    const uint64_t len = r.ReadU64();
    if (len != entities) return Status::DataLoss("attribute length");
    std::vector<double>& column = g->attributes().GetOrCreate(name);
    column.assign(len, 0.0);
    for (uint64_t i = 0; i < len && r.status().ok(); ++i) {
      column[i] = r.ReadF64();
    }
  }
  if (!r.VerifyChecksum()) return r.status();
  if (g->num_entities() != entities || g->num_edges() != edges) {
    return Status::DataLoss("cached graph has duplicate names or edges");
  }
  return Status::OK();
}

// Writes via a temporary name and renames, so a crash mid-write never
// leaves a truncated file under the final name.
template <typename SaveFn>
bool SaveAtomically(const std::string& path, SaveFn save) {
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  if (!save(tmp).ok()) {
    std::filesystem::remove(tmp);
    return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

}  // namespace

Inputs PrepareInputs(DatasetKind kind, uint64_t seed,
                     const std::string& cache_dir) {
  const Clock::time_point start = Clock::now();
  const std::string stem = cache_dir + "/" + KindName(kind) + "-scale1-seed" +
                           std::to_string(seed);
  Inputs inputs;
  inputs.dataset.name = KindName(kind);
  {
    kg::KnowledgeGraph graph;
    if (LoadGraph(stem + ".graph", &graph).ok()) {
      auto store = vkg::embedding::EmbeddingStore::Load(stem + ".emb");
      if (store.ok() && store->num_entities() == graph.num_entities() &&
          store->num_relations() == graph.num_relations()) {
        inputs.dataset.graph = std::move(graph);
        inputs.dataset.embeddings = std::move(*store);
        inputs.from_cache = true;
      }
    }
  }
  if (!inputs.from_cache) {
    inputs.dataset = Generate(kind, seed);
    std::error_code ec;
    std::filesystem::create_directories(cache_dir, ec);
    const kg::KnowledgeGraph& graph = inputs.dataset.graph;
    const auto& store = inputs.dataset.embeddings;
    // A failed cache write only costs the next run a regeneration.
    if (!ec && SaveAtomically(stem + ".emb", [&](const std::string& p) {
          return store.Save(p);
        })) {
      SaveAtomically(stem + ".graph", [&](const std::string& p) {
        return SaveGraph(graph, p);
      });
    }
  }
  inputs.prepare_seconds = SecondsSince(start);
  return inputs;
}

std::vector<data::Query> ZipfQueries(const data::Dataset& ds, size_t n,
                                     uint64_t seed,
                                     kg::RelationId only_relation,
                                     double tail_fraction) {
  data::WorkloadConfig config;
  config.num_queries = n;
  config.seed = seed;
  config.only_relation = only_relation;
  config.tail_fraction = tail_fraction;
  config.skew_exponent = 1.1;
  return data::GenerateWorkload(ds.graph, config);
}

void NoteInputs(const Inputs& inputs, Report& report) {
  const data::Dataset& ds = inputs.dataset;
  report.Note("input.entities", static_cast<double>(ds.graph.num_entities()),
              "count");
  report.Note("input.relations",
              static_cast<double>(ds.graph.num_relations()), "count");
  report.Note("input.edges", static_cast<double>(ds.graph.num_edges()),
              "count");
  report.Note("input.dim", static_cast<double>(ds.embeddings.dim()), "count");
  report.Note(inputs.from_cache ? "input.load_s" : "input.generate_s",
              inputs.prepare_seconds, "s");
}

}  // namespace perfbench
