#include "kg/graph.h"

#include <algorithm>

#include "util/check.h"
#include "util/string_util.h"

namespace vkg::kg {

namespace {

// The group of relation `r` in an entity's relation-sorted groups, or
// the position where it would be inserted.
template <typename Groups>
auto FindGroup(Groups& groups, RelationId r) {
  return std::lower_bound(
      groups.begin(), groups.end(), r,
      [](const auto& group, RelationId rel) { return group.relation < rel; });
}

}  // namespace

EntityId KnowledgeGraph::AddEntity(std::string_view name,
                                   std::string_view type) {
  EntityId id = entity_names_.Intern(name);
  if (id == entity_types_.size()) {
    entity_types_.push_back(type_names_.Intern(type));
    adjacency_.emplace_back();
    attributes_.Resize(entity_types_.size());
  }
  return id;
}

RelationId KnowledgeGraph::AddRelation(std::string_view name) {
  return relation_names_.Intern(name);
}

bool KnowledgeGraph::AddEdge(EntityId h, RelationId r, EntityId t) {
  VKG_DCHECK(h < num_entities());
  VKG_DCHECK(t < num_entities());
  VKG_DCHECK(r < num_relations());
  if (!triples_.Add({h, r, t})) return false;
  InsertNeighbor(adjacency_[h].out, r, t);
  InsertNeighbor(adjacency_[t].in, r, h);
  ++edge_version_;
  return true;
}

std::vector<Triple> KnowledgeGraph::MaskRandomEdges(size_t count,
                                                    util::Rng& rng) {
  std::vector<Triple> removed = triples_.MaskRandom(count, rng);
  for (const Triple& t : removed) {
    EraseNeighbor(adjacency_[t.head].out, t.relation, t.tail);
    EraseNeighbor(adjacency_[t.tail].in, t.relation, t.head);
  }
  if (!removed.empty()) ++edge_version_;
  return removed;
}

std::span<const EntityId> KnowledgeGraph::Neighbors(
    EntityId e, RelationId r, Direction direction) const {
  if (e >= adjacency_.size()) return {};
  const std::vector<NeighborGroup>& groups =
      direction == Direction::kTail ? adjacency_[e].out : adjacency_[e].in;
  auto it = FindGroup(groups, r);
  if (it == groups.end() || it->relation != r) return {};
  return it->ids;
}

void KnowledgeGraph::InsertNeighbor(std::vector<NeighborGroup>& groups,
                                    RelationId r, EntityId neighbor) {
  auto it = FindGroup(groups, r);
  if (it == groups.end() || it->relation != r) {
    it = groups.insert(it, NeighborGroup{r, {}});
  }
  std::vector<EntityId>& ids = it->ids;
  ids.insert(std::upper_bound(ids.begin(), ids.end(), neighbor), neighbor);
}

void KnowledgeGraph::EraseNeighbor(std::vector<NeighborGroup>& groups,
                                   RelationId r, EntityId neighbor) {
  auto it = FindGroup(groups, r);
  VKG_DCHECK(it != groups.end() && it->relation == r);
  std::vector<EntityId>& ids = it->ids;
  auto pos = std::lower_bound(ids.begin(), ids.end(), neighbor);
  VKG_DCHECK(pos != ids.end() && *pos == neighbor);
  ids.erase(pos);
  if (ids.empty()) groups.erase(it);
}

EntityId KnowledgeGraph::AddEntities(size_t n, std::string_view type) {
  EntityId first = static_cast<EntityId>(num_entities());
  uint32_t type_id = type_names_.Intern(type);
  for (size_t i = 0; i < n; ++i) {
    std::string name =
        util::StrFormat("%.*s:%zu", static_cast<int>(type.size()),
                        type.data(), static_cast<size_t>(first) + i);
    EntityId id = entity_names_.Intern(name);
    VKG_CHECK(id == entity_types_.size());
    entity_types_.push_back(type_id);
  }
  adjacency_.resize(entity_types_.size());
  attributes_.Resize(entity_types_.size());
  return first;
}

std::vector<EntityId> KnowledgeGraph::EntitiesOfType(
    std::string_view type) const {
  std::vector<EntityId> out;
  uint32_t type_id = type_names_.Lookup(type);
  if (type_id == kInvalidEntity) return out;
  for (EntityId e = 0; e < entity_types_.size(); ++e) {
    if (entity_types_[e] == type_id) out.push_back(e);
  }
  return out;
}

std::vector<size_t> KnowledgeGraph::Degrees() const {
  std::vector<size_t> deg(num_entities(), 0);
  for (const Triple& t : triples_.triples()) {
    ++deg[t.head];
    ++deg[t.tail];
  }
  return deg;
}

GraphStats KnowledgeGraph::Stats() const {
  GraphStats s;
  s.num_entities = num_entities();
  s.num_relation_types = num_relations();
  s.num_edges = num_edges();
  if (s.num_entities > 0) {
    s.avg_out_degree =
        static_cast<double>(s.num_edges) / static_cast<double>(s.num_entities);
    auto deg = Degrees();
    s.max_degree = *std::max_element(deg.begin(), deg.end());
  }
  return s;
}

size_t KnowledgeGraph::MemoryBytes() const {
  size_t adjacency_bytes = adjacency_.capacity() * sizeof(Adjacency);
  for (const Adjacency& a : adjacency_) {
    for (const auto* groups : {&a.out, &a.in}) {
      adjacency_bytes += groups->capacity() * sizeof(NeighborGroup);
      for (const NeighborGroup& g : *groups) {
        adjacency_bytes += g.ids.capacity() * sizeof(EntityId);
      }
    }
  }
  return entity_names_.MemoryBytes() + relation_names_.MemoryBytes() +
         type_names_.MemoryBytes() +
         entity_types_.capacity() * sizeof(uint32_t) +
         triples_.MemoryBytes() + adjacency_bytes + attributes_.MemoryBytes();
}

}  // namespace vkg::kg
