// Tests for the knowledge graph's neighbour groups (KnowledgeGraph::
// Neighbors) and the per-query E'-only exclusion set built from them
// (query::Exclusion): consistency with the triple set under AddEdge,
// duplicate edges and MaskRandomEdges. The property test over a
// generated graph is seeded from VKG_PROPERTY_SEED when set, else
// randomly — the seed is always logged so a failure reproduces with
//   VKG_PROPERTY_SEED=<seed> ./adjacency_test

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "data/movielens_gen.h"
#include "kg/graph.h"
#include "query/exclusion.h"
#include "util/random.h"

namespace vkg::kg {
namespace {

std::vector<EntityId> Tails(const KnowledgeGraph& g, EntityId e,
                            RelationId r) {
  auto span = g.Neighbors(e, r, Direction::kTail);
  return {span.begin(), span.end()};
}

std::vector<EntityId> Heads(const KnowledgeGraph& g, EntityId e,
                            RelationId r) {
  auto span = g.Neighbors(e, r, Direction::kHead);
  return {span.begin(), span.end()};
}

TEST(AdjacencyTest, SmallGraphNeighborLists) {
  KnowledgeGraph g;
  g.AddEntities(5, "n");
  RelationId r0 = g.AddRelation("r0");
  RelationId r1 = g.AddRelation("r1");
  g.AddEdge(0, r0, 2);
  g.AddEdge(0, r0, 1);
  g.AddEdge(0, r1, 3);
  g.AddEdge(4, r0, 2);

  EXPECT_EQ(Tails(g, 0, r0), (std::vector<EntityId>{1, 2}));  // ascending
  EXPECT_EQ(Tails(g, 0, r1), (std::vector<EntityId>{3}));
  EXPECT_TRUE(Tails(g, 1, r0).empty());
  EXPECT_TRUE(Tails(g, 0, 99).empty());

  EXPECT_EQ(Heads(g, 2, r0), (std::vector<EntityId>{0, 4}));
  EXPECT_EQ(Heads(g, 3, r1), (std::vector<EntityId>{0}));
  EXPECT_TRUE(Heads(g, 0, r0).empty());
}

TEST(AdjacencyTest, NewEdgesVisibleWithoutRebuild) {
  KnowledgeGraph g;
  g.AddEntities(4, "n");
  RelationId r = g.AddRelation("r");
  g.AddEdge(0, r, 1);
  EXPECT_EQ(Tails(g, 0, r).size(), 1u);
  g.AddEdge(0, r, 2);
  EXPECT_EQ(Tails(g, 0, r), (std::vector<EntityId>{1, 2}));
  EXPECT_FALSE(g.AddEdge(0, r, 2));  // duplicate: no second entry
  EXPECT_EQ(Tails(g, 0, r), (std::vector<EntityId>{1, 2}));
  EXPECT_EQ(Heads(g, 2, r), (std::vector<EntityId>{0}));
  // An entity added after the edges starts with empty groups.
  EntityId late = g.AddEntity("late");
  EXPECT_TRUE(Tails(g, late, r).empty());
  g.AddEdge(late, r, 0);
  EXPECT_EQ(Heads(g, 0, r), (std::vector<EntityId>{late}));
}

TEST(AdjacencyTest, EmptyGraph) {
  KnowledgeGraph g;
  EXPECT_TRUE(Tails(g, 0, 0).empty());
  EXPECT_TRUE(Heads(g, 0, 0).empty());
}

TEST(AdjacencyTest, MaskRandomEdgesRemovesNeighbors) {
  data::MovieLensConfig config;
  config.num_users = 200;
  config.num_movies = 100;
  config.seed = 113;
  data::Dataset ds = data::GenerateMovieLensLike(config);
  KnowledgeGraph& g = ds.graph;
  const size_t before = g.num_edges();
  util::Rng rng(7);
  std::vector<Triple> removed = g.MaskRandomEdges(before / 3, rng);
  ASSERT_EQ(removed.size(), before / 3);
  for (const Triple& t : removed) {
    auto tails = g.Neighbors(t.head, t.relation, Direction::kTail);
    auto heads = g.Neighbors(t.tail, t.relation, Direction::kHead);
    EXPECT_FALSE(std::binary_search(tails.begin(), tails.end(), t.tail));
    EXPECT_FALSE(std::binary_search(heads.begin(), heads.end(), t.head));
  }
  size_t total_tails = 0;
  size_t total_heads = 0;
  for (EntityId e = 0; e < g.num_entities(); ++e) {
    for (RelationId r = 0; r < g.num_relations(); ++r) {
      total_tails += g.Neighbors(e, r, Direction::kTail).size();
      total_heads += g.Neighbors(e, r, Direction::kHead).size();
    }
  }
  EXPECT_EQ(total_tails, g.num_edges());
  EXPECT_EQ(total_heads, g.num_edges());
  EXPECT_EQ(g.num_edges() + removed.size(), before);
}

TEST(AdjacencyTest, ConsistentWithTripleStoreOnGeneratedData) {
  data::MovieLensConfig config;
  config.num_users = 400;
  config.num_movies = 200;
  config.seed = 111;
  data::Dataset ds = data::GenerateMovieLensLike(config);

  // Every listed neighbour is a fact; counts match a brute-force pass.
  size_t total_tails = 0;
  for (EntityId e = 0; e < ds.graph.num_entities(); ++e) {
    for (RelationId r = 0; r < ds.graph.num_relations(); ++r) {
      for (EntityId t : Tails(ds.graph, e, r)) {
        EXPECT_TRUE(ds.graph.HasEdge(e, r, t));
        ++total_tails;
      }
      for (EntityId h : Heads(ds.graph, e, r)) {
        EXPECT_TRUE(ds.graph.HasEdge(h, r, e));
      }
    }
  }
  EXPECT_EQ(total_tails, ds.graph.num_edges());
}

TEST(AdjacencyTest, DegreesSumToGraphDegrees) {
  data::MovieLensConfig config;
  config.num_users = 300;
  config.num_movies = 150;
  config.seed = 112;
  data::Dataset ds = data::GenerateMovieLensLike(config);
  auto deg = ds.graph.Degrees();
  for (EntityId e = 0; e < ds.graph.num_entities(); ++e) {
    size_t sum = 0;
    for (RelationId r = 0; r < ds.graph.num_relations(); ++r) {
      sum += Tails(ds.graph, e, r).size() + Heads(ds.graph, e, r).size();
    }
    EXPECT_EQ(sum, deg[e]);
  }
}

// query::Exclusion over a random graph with a hub, self-loops, duplicate
// AddEdge calls and masked edges must hold exactly {anchor} ∪ {e :
// HasEdge} for sampled (anchor, relation, direction), and StampInto must
// stamp exactly that set.
TEST(AdjacencyTest, ExclusionMatchesHasEdgeProperty) {
  uint64_t seed;
  if (const char* env = std::getenv("VKG_PROPERTY_SEED");
      env != nullptr && env[0] != '\0') {
    seed = std::strtoull(env, nullptr, 10);
  } else {
    seed = std::random_device{}();
  }
  std::printf("[ SEED     ] VKG_PROPERTY_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  std::mt19937_64 rng(seed);

  constexpr size_t kEntities = 300;
  constexpr size_t kRelations = 4;
  KnowledgeGraph g;
  g.AddEntities(kEntities, "n");
  for (size_t r = 0; r < kRelations; ++r) {
    g.AddRelation("r" + std::to_string(r));
  }
  std::uniform_int_distribution<EntityId> any_entity(0, kEntities - 1);
  std::uniform_int_distribution<RelationId> any_relation(0, kRelations - 1);
  const EntityId hub = any_entity(rng);
  std::vector<Triple> added;
  for (size_t i = 0; i < 3000; ++i) {
    Triple t{any_entity(rng), any_relation(rng), any_entity(rng)};
    if (i % 3 == 0) t.head = hub;
    if (i % 5 == 0) t.tail = hub;
    g.AddEdge(t.head, t.relation, t.tail);
    added.push_back(t);
  }
  // Duplicates are rejected and change nothing.
  for (size_t i = 0; i < added.size(); i += 7) {
    const Triple& t = added[i];
    EXPECT_FALSE(g.AddEdge(t.head, t.relation, t.tail));
  }
  util::Rng mask_rng(rng());
  g.MaskRandomEdges(g.num_edges() / 4, mask_rng);

  std::vector<uint32_t> stamps(kEntities, 0);
  for (size_t sample = 0; sample < 200; ++sample) {
    data::Query q;
    q.anchor = sample % 4 == 0 ? hub : any_entity(rng);
    q.relation = any_relation(rng);
    q.direction = rng() % 2 == 0 ? Direction::kTail : Direction::kHead;
    const query::Exclusion exclusion(g, q);
    EXPECT_TRUE(std::is_sorted(exclusion.known().begin(),
                               exclusion.known().end()));
    EXPECT_EQ(std::adjacent_find(exclusion.known().begin(),
                                 exclusion.known().end()),
              exclusion.known().end());
    const uint32_t stamp = static_cast<uint32_t>(sample + 1);
    exclusion.StampInto(stamps, stamp);
    for (EntityId e = 0; e < kEntities; ++e) {
      const bool in_e = q.direction == Direction::kTail
                            ? g.HasEdge(q.anchor, q.relation, e)
                            : g.HasEdge(e, q.relation, q.anchor);
      const bool expected = e == q.anchor || in_e;
      ASSERT_EQ(exclusion.Contains(e), expected)
          << "seed " << seed << " anchor " << q.anchor << " relation "
          << q.relation << " entity " << e;
      ASSERT_EQ(stamps[e] == stamp, expected) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace vkg::kg
