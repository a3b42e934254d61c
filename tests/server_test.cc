// Server-grade battery for the sharded in-process query server
// (DESIGN.md §6g): an N-thread mixed top-k/aggregate storm checked
// against a sequential oracle, bit-identical cache hits, the
// data-version contract (a crack retires no cached answer; an embedding
// update or a new fact retires every older one), shards answering
// through the facade's one index and overlay, deterministic duplicate
// coalescing, admission control, backpressure, and per-request
// failpoint isolation. Runs under TSan and ASan in CI;
// VKG_CHAOS_THREADS sweeps the client count.
//
// The load-bearing invariant is inherited from the engines: every
// exact answer meets the Theorem 2 bound whatever the tree's shape, so
// whatever mix of cache hits, coalesced attachments, and fresh
// computations a storm produces, every response must equal the
// sequential oracle's answer for that query.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/virtual_graph.h"
#include "data/movielens_gen.h"
#include "data/workload.h"
#include "embedding/vector_ops.h"
#include "kg/graph.h"
#include "obs/metrics.h"
#include "query/exclusion.h"
#include "query/request.h"
#include "server/server.h"
#include "util/failpoint.h"

namespace vkg::server {
namespace {

size_t ChaosThreads() {
  const char* env = std::getenv("VKG_CHAOS_THREADS");
  if (env != nullptr && env[0] != '\0') {
    long n = std::atol(env);
    if (n >= 1) return static_cast<size_t>(n);
  }
  return 4;
}

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::MovieLensConfig config;
    config.num_users = 1000;
    config.num_movies = 500;
    config.seed = 81;
    ds_ = new data::Dataset(data::GenerateMovieLensLike(config));
    data::WorkloadConfig wc;
    wc.num_queries = 40;
    wc.seed = 82;
    workload_ =
        new std::vector<data::Query>(data::GenerateWorkload(ds_->graph, wc));
  }
  static void TearDownTestSuite() {
    delete ds_;
    delete workload_;
  }
  void TearDown() override { util::FailPointRegistry::Instance().Clear(); }

  // A fresh VKG over `graph` (the shared dataset graph by default), so
  // tests start from an uncracked index.
  static std::shared_ptr<core::VirtualKnowledgeGraph> MakeVkg(
      const kg::KnowledgeGraph* graph = nullptr) {
    core::VkgOptions options;
    options.method = index::MethodKind::kCracking;
    embedding::EmbeddingStore copy = ds_->embeddings;
    auto vkg = core::VirtualKnowledgeGraph::BuildWithEmbeddings(
        graph != nullptr ? graph : &ds_->graph, std::move(copy), options);
    EXPECT_TRUE(vkg.ok());
    return std::move(vkg.value());
  }

  // A server over `vkg`, or over a fresh VKG when none is given.
  static std::unique_ptr<VkgServer> MakeServer(
      const ServerConfig& config,
      std::shared_ptr<core::VirtualKnowledgeGraph> vkg = nullptr) {
    if (vkg == nullptr) vkg = MakeVkg();
    auto srv = VkgServer::Create(std::move(vkg), config);
    EXPECT_TRUE(srv.ok());
    return std::move(srv.value());
  }

  // Moves the entity farthest from `q`'s query center (among those `q`
  // may return) onto that center, so it must rank first with distance
  // 0 — and an index search that ignored the overlay would never reach
  // it at its stale position. Returns the moved entity.
  static kg::EntityId MoveFarthestOntoQuery(core::VirtualKnowledgeGraph& vkg,
                                            const data::Query& q) {
    const std::vector<float> center = vkg.embeddings().QueryCenter(
        q.anchor, q.relation, q.direction);
    const query::Exclusion exclusion(vkg.graph(), q);
    kg::EntityId farthest = kg::kInvalidEntity;
    double farthest_distance = -1.0;
    for (kg::EntityId e = 0; e < vkg.embeddings().num_entities(); ++e) {
      if (exclusion.Contains(e)) continue;
      const double d =
          embedding::L2Distance(vkg.embeddings().Entity(e), center);
      if (d > farthest_distance) {
        farthest_distance = d;
        farthest = e;
      }
    }
    EXPECT_TRUE(vkg.UpdateEntityEmbedding(farthest, center).ok());
    return farthest;
  }

  // A cache hit replays the stored computation's bytes: bit-identical,
  // not approximately equal.
  static void ExpectBitIdentical(const query::TopKResult& got,
                                 const query::TopKResult& want) {
    ASSERT_EQ(got.hits.size(), want.hits.size());
    for (size_t h = 0; h < got.hits.size(); ++h) {
      EXPECT_EQ(got.hits[h].entity, want.hits[h].entity);
      EXPECT_EQ(std::memcmp(&got.hits[h].distance, &want.hits[h].distance,
                            sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(&got.hits[h].probability,
                            &want.hits[h].probability, sizeof(double)),
                0);
    }
  }

  // The storm's deterministic request mix: every 5th slot is a COUNT
  // aggregate, the rest are top-k.
  static query::ServerRequest RequestFor(size_t slot, bool bypass = false) {
    const data::Query& q = (*workload_)[slot];
    query::ServerRequest request;
    if (slot % 5 == 4) {
      request.kind = query::RequestKind::kAggregate;
      request.aggregate.query = q;
      request.aggregate.kind = query::AggKind::kCount;
      request.aggregate.prob_threshold = 0.05;
    } else {
      request.query = q;
      request.k = 10;
    }
    request.bypass_cache = bypass;
    return request;
  }

  static void ExpectSameAnswer(const query::ServerResponse& got,
                               const query::ServerResponse& want,
                               size_t slot) {
    ASSERT_TRUE(got.ok()) << "slot " << slot << ": "
                          << got.status.ToString();
    ASSERT_TRUE(want.ok()) << "slot " << slot;
    if (slot % 5 == 4) {
      // The expected count is a probability sum accumulated in
      // traversal order; different tree shapes sum in different orders,
      // so equality holds to rounding, not bitwise.
      EXPECT_NEAR(got.aggregate.value, want.aggregate.value,
                  1e-9 * std::max(1.0, std::abs(want.aggregate.value)))
          << "slot " << slot;
      EXPECT_EQ(got.aggregate.quality.exact, want.aggregate.quality.exact)
          << "slot " << slot;
      return;
    }
    ASSERT_EQ(got.topk.hits.size(), want.topk.hits.size()) << "slot " << slot;
    for (size_t h = 0; h < got.topk.hits.size(); ++h) {
      EXPECT_EQ(got.topk.hits[h].entity, want.topk.hits[h].entity)
          << "slot " << slot << " hit " << h;
      EXPECT_NEAR(got.topk.hits[h].distance, want.topk.hits[h].distance,
                  1e-9)
          << "slot " << slot << " hit " << h;
    }
  }

  static data::Dataset* ds_;
  static std::vector<data::Query>* workload_;
};

data::Dataset* ServerTest::ds_ = nullptr;
std::vector<data::Query>* ServerTest::workload_ = nullptr;

// ---------------------------------------------------------------------------
// Storm vs. sequential oracle
// ---------------------------------------------------------------------------

TEST_F(ServerTest, StormMatchesSequentialOracle) {
  // Oracle: one fresh server, driven sequentially with the cache off so
  // every answer is an actual computation.
  ServerConfig oracle_config;
  oracle_config.shards = 1;
  oracle_config.cache_bytes = 0;
  auto oracle_srv = MakeServer(oracle_config);
  std::vector<query::ServerResponse> oracle(workload_->size());
  for (size_t i = 0; i < workload_->size(); ++i) {
    oracle[i] = oracle_srv->Execute(RequestFor(i));
    ASSERT_TRUE(oracle[i].ok()) << oracle[i].status.ToString();
  }

  // Storm: N client threads, two passes each over the whole workload at
  // staggered offsets — the same keys race through compute, cache, and
  // coalescing paths concurrently.
  ServerConfig config;
  config.shards = 3;
  config.threads_per_shard = 2;
  auto srv = MakeServer(config);
  const size_t threads = ChaosThreads();
  std::atomic<size_t> checked{0};
  std::vector<std::thread> crew;
  crew.reserve(threads);
  std::vector<std::vector<query::ServerResponse>> responses(
      threads, std::vector<query::ServerResponse>(workload_->size()));
  for (size_t t = 0; t < threads; ++t) {
    crew.emplace_back([&, t] {
      for (size_t pass = 0; pass < 2; ++pass) {
        for (size_t i = 0; i < workload_->size(); ++i) {
          const size_t j = (i + t * 7) % workload_->size();
          responses[t][j] = srv->Execute(RequestFor(j));
          checked.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : crew) th.join();
  srv->Drain();
  EXPECT_EQ(checked.load(), threads * 2 * workload_->size());

  // Every thread's final answer for every slot matches the oracle,
  // whether it came from a computation, the cache, or a coalesced
  // attachment.
  for (size_t t = 0; t < threads; ++t) {
    for (size_t i = 0; i < workload_->size(); ++i) {
      ExpectSameAnswer(responses[t][i], oracle[i], i);
    }
  }

  // Post-storm verification pass: any hit served now must be stamped
  // with the *current* data version — a stale stamp would mean the
  // invalidation contract let an old entry survive a data change.
  for (size_t i = 0; i < workload_->size(); ++i) {
    query::ServerResponse r = srv->Execute(RequestFor(i));
    ASSERT_TRUE(r.ok());
    if (r.meta.cache_hit) {
      EXPECT_EQ(r.meta.data_version, srv->vkg().data_version())
          << "slot " << i << " served a stale-version entry";
    }
    ExpectSameAnswer(r, oracle[i], i);
  }
  // Every shard worker cracked the one facade tree concurrently.
  const util::Status invariants = srv->vkg().rtree().CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();

  srv->Drain();  // workers release their slots after fulfilling promises
  ServerStats stats = srv->Stats();
  EXPECT_EQ(stats.rejected_rate, 0u);
  EXPECT_EQ(stats.rejected_overload, 0u);
  EXPECT_GT(stats.computed_topk, 0u);
  EXPECT_GT(stats.computed_aggregate, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
  for (const auto& shard : stats.shards) {
    EXPECT_EQ(shard.depth, 0u) << "shard " << shard.shard << " leaked slots";
    EXPECT_EQ(shard.in_flight, 0u);
  }
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

TEST_F(ServerTest, CacheHitsAreBitIdentical) {
  ServerConfig config;
  config.shards = 1;
  auto srv = MakeServer(config);
  // The first request computes (and cracks); its own crack retires
  // nothing, so the second is a hit.
  query::ServerResponse computed = srv->Execute(RequestFor(0));
  query::ServerResponse hit = srv->Execute(RequestFor(0));
  ASSERT_TRUE(computed.ok());
  ASSERT_TRUE(hit.ok());
  EXPECT_FALSE(computed.meta.cache_hit);
  ASSERT_TRUE(hit.meta.cache_hit);
  ExpectBitIdentical(hit.topk, computed.topk);
  EXPECT_EQ(hit.meta.data_version, computed.meta.data_version);
  EXPECT_TRUE(hit.topk.quality.exact);
}

TEST_F(ServerTest, CrackDoesNotRetireCachedAnswer) {
  ServerConfig config;
  config.shards = 1;
  std::shared_ptr<core::VirtualKnowledgeGraph> vkg = MakeVkg();
  auto srv = MakeServer(config, vkg);

  // Cache slot 0's answer, then run other queries until one of them
  // cracks the shared tree past the version slot 0 was computed on.
  query::ServerResponse computed = srv->Execute(RequestFor(0));
  ASSERT_TRUE(computed.ok());
  ASSERT_FALSE(computed.meta.cache_hit);
  const uint64_t generation = vkg->rtree().crack_generation();
  bool cracked = false;
  for (size_t i = 1; i < workload_->size() && !cracked; ++i) {
    if (i % 5 == 4) continue;  // top-k only: keep the mix simple
    ASSERT_TRUE(srv->Execute(RequestFor(i)).ok());
    cracked = vkg->rtree().crack_generation() != generation;
  }
  ASSERT_TRUE(cracked) << "no later request cracked the facade's tree";

  // The data did not change, so the entry is still the answer.
  query::ServerResponse hit = srv->Execute(RequestFor(0));
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.meta.cache_hit) << "a crack retired a valid answer";
  ExpectBitIdentical(hit.topk, computed.topk);
  EXPECT_EQ(srv->Stats().cache_invalidated, 0u);
}

TEST_F(ServerTest, EmbeddingUpdateRetiresCachedAnswer) {
  ServerConfig config;
  config.shards = 1;
  std::shared_ptr<core::VirtualKnowledgeGraph> vkg = MakeVkg();
  auto srv = MakeServer(config, vkg);
  ASSERT_TRUE(srv->Execute(RequestFor(0)).ok());
  srv->Drain();
  const uint64_t invalidated = srv->Stats().cache_invalidated;
  const uint64_t version = vkg->data_version();

  const kg::EntityId moved = MoveFarthestOntoQuery(*vkg, (*workload_)[0]);
  EXPECT_GT(vkg->data_version(), version);

  query::ServerResponse r = srv->Execute(RequestFor(0));
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_FALSE(r.meta.cache_hit) << "served an answer older than the data";
  EXPECT_EQ(srv->Stats().cache_invalidated, invalidated + 1);
  EXPECT_EQ(r.meta.data_version, vkg->data_version());
  ASSERT_FALSE(r.topk.hits.empty());
  EXPECT_EQ(r.topk.hits[0].entity, moved);
}

TEST_F(ServerTest, NewFactRetiresCachedAnswer) {
  // A private copy of the graph: the new fact must not leak into the
  // other tests' shared dataset.
  kg::KnowledgeGraph graph = ds_->graph;
  ServerConfig config;
  config.shards = 1;
  std::shared_ptr<core::VirtualKnowledgeGraph> vkg = MakeVkg(&graph);
  auto srv = MakeServer(config, vkg);
  query::ServerResponse first = srv->Execute(RequestFor(0));
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first.topk.hits.empty());
  srv->Drain();
  const uint64_t invalidated = srv->Stats().cache_invalidated;

  // Make the top predicted edge a known fact: a query over E' must no
  // longer return it.
  const data::Query& q = (*workload_)[0];
  const kg::EntityId top = first.topk.hits[0].entity;
  if (q.direction == kg::Direction::kTail) {
    ASSERT_TRUE(graph.AddEdge(q.anchor, q.relation, top));
  } else {
    ASSERT_TRUE(graph.AddEdge(top, q.relation, q.anchor));
  }

  query::ServerResponse r = srv->Execute(RequestFor(0));
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_FALSE(r.meta.cache_hit) << "served an answer older than the data";
  EXPECT_EQ(srv->Stats().cache_invalidated, invalidated + 1);
  for (const query::TopKHit& hit : r.topk.hits) {
    EXPECT_NE(hit.entity, top) << "returned an edge that is now in E";
  }
}

TEST_F(ServerTest, ServerSeesPendingEmbeddingUpdates) {
  std::shared_ptr<core::VirtualKnowledgeGraph> vkg = MakeVkg();
  const data::Query& q = (*workload_)[0];
  const kg::EntityId moved = MoveFarthestOntoQuery(*vkg, q);
  ASSERT_EQ(vkg->pending_updates(), 1u);

  ServerConfig config;
  config.shards = 2;
  auto srv = MakeServer(config, vkg);
  // Crack the index around every workload query first: on an uncracked
  // tree a query's seed element is the whole point set, and re-ranking
  // every entity would find the moved one without the overlay.
  for (size_t i = 0; i < workload_->size(); ++i) {
    ASSERT_TRUE(srv->Execute(RequestFor(i, /*bypass=*/true)).ok());
  }
  query::ServerResponse r = srv->Execute(RequestFor(0, /*bypass=*/true));
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  const query::TopKResult want = vkg->TopK(q, 10);
  ASSERT_EQ(r.topk.hits.size(), want.hits.size());
  for (size_t h = 0; h < want.hits.size(); ++h) {
    EXPECT_EQ(r.topk.hits[h].entity, want.hits[h].entity) << "hit " << h;
    EXPECT_NEAR(r.topk.hits[h].distance, want.hits[h].distance, 1e-9)
        << "hit " << h;
  }
  ASSERT_FALSE(r.topk.hits.empty());
  EXPECT_EQ(r.topk.hits[0].entity, moved);
}

TEST_F(ServerTest, ServerCracksTheFacadeIndex) {
  std::shared_ptr<core::VirtualKnowledgeGraph> vkg = MakeVkg();
  const size_t nodes_before = vkg->IndexStats().num_nodes;
  ServerConfig config;
  config.shards = 2;
  auto srv = MakeServer(config, vkg);
  for (size_t i = 0; i < workload_->size(); ++i) {
    ASSERT_TRUE(srv->Execute(RequestFor(i)).ok()) << "slot " << i;
  }
  srv->Drain();
  const uint64_t generation = vkg->rtree().crack_generation();
  EXPECT_GT(generation, 0u) << "shards cracked some other tree";
  EXPECT_GT(vkg->IndexStats().num_nodes, nodes_before);
  for (const auto& shard : srv->Stats().shards) {
    EXPECT_EQ(shard.generation, generation) << "shard " << shard.shard;
  }
}

TEST_F(ServerTest, CacheDisabledNeverHits) {
  ServerConfig config;
  config.shards = 1;
  config.cache_bytes = 0;
  auto srv = MakeServer(config);
  for (int pass = 0; pass < 3; ++pass) {
    query::ServerResponse r = srv->Execute(RequestFor(0));
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.meta.cache_hit);
  }
  ServerStats stats = srv->Stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.computed_topk, 3u);
}

// ---------------------------------------------------------------------------
// Coalescing
// ---------------------------------------------------------------------------

TEST_F(ServerTest, SixteenDuplicateStormCollapsesToOneComputation) {
  ServerConfig config;
  config.shards = 1;
  config.threads_per_shard = 1;
  auto srv = MakeServer(config);

  // The blocker occupies the shard's single worker; its task is queued
  // ahead of the duplicate leader's, so the leader cannot finish (and
  // unregister) before all 16 duplicates have joined — submit-time
  // registration makes the collapse deterministic, not scheduling luck.
  query::ServerRequest blocker = RequestFor(1, /*bypass=*/true);
  query::ServerRequest dup = RequestFor(0, /*bypass=*/true);
  ASSERT_FALSE(srv->MakeKey(blocker) == srv->MakeKey(dup));

  std::vector<VkgServer::Ticket> tickets;
  tickets.push_back(srv->Submit(blocker));
  for (int i = 0; i < 16; ++i) tickets.push_back(srv->Submit(RequestFor(0, true)));

  size_t coalesced_responses = 0;
  query::ServerResponse leader_response;
  for (size_t i = 1; i < tickets.size(); ++i) {
    query::ServerResponse r = tickets[i].Get();
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    if (r.meta.coalesced) {
      ++coalesced_responses;
    } else {
      leader_response = r;
    }
    // All 16 share one payload.
    ASSERT_EQ(r.topk.hits.size(), 10u);
  }
  ASSERT_TRUE(tickets[0].Get().ok());
  srv->Drain();

  EXPECT_EQ(coalesced_responses, 15u);
  ServerStats stats = srv->Stats();
  EXPECT_EQ(stats.computed_topk, 2u);  // blocker + one leader
  EXPECT_EQ(stats.coalesced, 15u);
  EXPECT_EQ(stats.cache_hits, 0u);  // bypass_cache throughout
  EXPECT_EQ(stats.shards[0].depth, 0u);
  EXPECT_EQ(stats.shards[0].in_flight, 0u);
}

// ---------------------------------------------------------------------------
// Admission control and backpressure
// ---------------------------------------------------------------------------

TEST_F(ServerTest, PerClientTokenBucketRejectsWithRetryHint) {
  ServerConfig config;
  config.shards = 1;
  // One token burst, refilled at 1 token per 1000 s: the second request
  // from the same client is deterministically over the limit however
  // slow the host.
  config.qps_limit = 0.001;
  config.burst = 1.0;
  auto srv = MakeServer(config);

  query::ServerRequest request = RequestFor(0);
  request.client_id = "tenant-a";
  query::ServerResponse ok = srv->Execute(request);
  ASSERT_TRUE(ok.ok());

  request = RequestFor(0);
  request.client_id = "tenant-a";
  query::ServerResponse rejected = srv->Execute(request);
  EXPECT_TRUE(rejected.rejected());
  EXPECT_GT(rejected.meta.retry_after_ms, 0.0);

  // Buckets are per client: another tenant is still admitted.
  request = RequestFor(0);
  request.client_id = "tenant-b";
  EXPECT_TRUE(srv->Execute(request).ok());

  ServerStats stats = srv->Stats();
  EXPECT_EQ(stats.rejected_rate, 1u);
  EXPECT_EQ(stats.admitted, 2u);
}

TEST_F(ServerTest, QueueFullRejectsInsteadOfQueueing) {
  ServerConfig config;
  config.shards = 1;
  config.threads_per_shard = 1;
  config.queue_capacity = 1;
  config.overload_retry_ms = 25.0;
  auto srv = MakeServer(config);

  // Pin the single worker: the blocker's first-touch crack stalls in
  // publication for 300 ms, so the follow-up request finds the one
  // queue slot still held.
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .ConfigureSite("cracking.publish", "1*delay(300),off")
                  .ok());
  VkgServer::Ticket blocker = srv->Submit(RequestFor(0, /*bypass=*/true));

  query::ServerResponse overloaded = srv->Execute(RequestFor(1));
  EXPECT_TRUE(overloaded.rejected());
  EXPECT_EQ(overloaded.meta.retry_after_ms, 25.0);

  ASSERT_TRUE(blocker.Get().ok());
  srv->Drain();
  ServerStats stats = srv->Stats();
  EXPECT_EQ(stats.rejected_overload, 1u);
  EXPECT_EQ(stats.shards[0].depth, 0u) << "rejection leaked a queue slot";

  // Capacity recovered: the same request is served now.
  EXPECT_TRUE(srv->Execute(RequestFor(1)).ok());
}

// One retry_after_ms contract across every rejection path (the
// documented semantics live on query::ServerMeta::retry_after_ms; the
// connection- and pipeline-cap side of the same contract is asserted
// in tests/net_test.cc). Every rejection is ResourceExhausted with a
// nonzero hint, and each path's hint carries its documented meaning:
// a modelled refill estimate (token bucket), the remaining cooldown
// (breaker), or the fixed overload pacing constant (queue full and
// memory shed).
TEST_F(ServerTest, RetryAfterHintIsConsistentAcrossRejectionPaths) {
  // (a) Token bucket: a refill ESTIMATE. A 1-token burst refilled at
  // 0.002 tokens/s puts the next token ~500 s out — the hint must
  // reflect that model, not any fixed pacing constant.
  {
    ServerConfig config;
    config.shards = 1;
    config.qps_limit = 0.002;
    config.burst = 1.0;
    config.overload_retry_ms = 25.0;
    auto srv = MakeServer(config);
    query::ServerRequest request = RequestFor(0);
    request.client_id = "tenant-hint";
    query::ServerResponse ok = srv->Execute(request);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.meta.retry_after_ms, 0.0)
        << "hint must be 0 on non-rejected responses";
    request = RequestFor(0);
    request.client_id = "tenant-hint";
    query::ServerResponse rejected = srv->Execute(request);
    ASSERT_TRUE(rejected.rejected()) << rejected.status.ToString();
    EXPECT_EQ(rejected.status.code(),
              util::StatusCode::kResourceExhausted);
    EXPECT_GT(rejected.meta.retry_after_ms, 100000.0)
        << "rate-limit hint is a refill estimate, not a canned constant";
    EXPECT_LE(rejected.meta.retry_after_ms, 500001.0)
        << "refill estimate cannot exceed the full-bucket horizon";
  }

  // (b) Queue full: the FIXED ServerConfig::overload_retry_ms pacing
  // hint, verbatim.
  {
    ServerConfig config;
    config.shards = 1;
    config.threads_per_shard = 1;
    config.queue_capacity = 1;
    config.overload_retry_ms = 33.0;
    auto srv = MakeServer(config);
    ASSERT_TRUE(util::FailPointRegistry::Instance()
                    .ConfigureSite("cracking.publish", "1*delay(300),off")
                    .ok());
    VkgServer::Ticket blocker = srv->Submit(RequestFor(0, /*bypass=*/true));
    query::ServerResponse overloaded = srv->Execute(RequestFor(1));
    ASSERT_TRUE(overloaded.rejected()) << overloaded.status.ToString();
    EXPECT_EQ(overloaded.status.code(),
              util::StatusCode::kResourceExhausted);
    EXPECT_EQ(overloaded.meta.retry_after_ms, 33.0);
    ASSERT_TRUE(blocker.Get().ok());
    util::FailPointRegistry::Instance().Clear();
  }

  // (c) Breaker open: the REMAINING COOLDOWN — positive, and never
  // above the configured open window.
  {
    ServerConfig config;
    config.shards = 1;
    config.threads_per_shard = 1;
    config.breaker.failure_threshold = 3;
    config.breaker.open_seconds = 0.25;
    config.overload_retry_ms = 25.0;
    auto srv = MakeServer(config);
    ASSERT_TRUE(util::FailPointRegistry::Instance()
                    .Configure("server.queue=fail")
                    .ok());
    for (int i = 0; i < 3; ++i) {
      EXPECT_FALSE(srv->Execute(RequestFor(1, true)).ok());
    }
    ASSERT_EQ(srv->shard_breaker(0).state(), BreakerState::kOpen);
    query::ServerResponse rejected = srv->Execute(RequestFor(1, true));
    ASSERT_TRUE(rejected.rejected()) << rejected.status.ToString();
    EXPECT_EQ(rejected.status.code(),
              util::StatusCode::kResourceExhausted);
    EXPECT_GT(rejected.meta.retry_after_ms, 0.0);
    EXPECT_LE(rejected.meta.retry_after_ms, 250.0)
        << "breaker hint must not exceed the open window";
    util::FailPointRegistry::Instance().Clear();
  }

  // (d) Memory shed: same fixed pacing constant as queue full.
  {
    ServerConfig config;
    config.shards = 1;
    config.memory.budget_bytes = 1000;
    config.overload_retry_ms = 44.0;
    auto srv = MakeServer(config);
    srv->memory_budget().SetUsageOverride(990);
    query::ServerResponse shed = srv->Execute(RequestFor(0, true));
    ASSERT_TRUE(shed.rejected()) << shed.status.ToString();
    EXPECT_EQ(shed.status.code(), util::StatusCode::kResourceExhausted);
    EXPECT_EQ(shed.meta.retry_after_ms, 44.0);
  }
}

TEST_F(ServerTest, InvalidRequestsFailFastWithoutTouchingShards) {
  ServerConfig config;
  config.shards = 1;
  auto srv = MakeServer(config);

  query::ServerRequest bad = RequestFor(0);
  bad.query.anchor = kg::kInvalidEntity;
  query::ServerResponse r = srv->Execute(bad);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.rejected());  // invalid, not over-limit

  query::ServerRequest zero_k = RequestFor(0);
  zero_k.k = 0;
  EXPECT_FALSE(srv->Execute(zero_k).ok());

  ServerStats stats = srv->Stats();
  EXPECT_EQ(stats.invalid, 2u);
  EXPECT_EQ(stats.computed_topk, 0u);
  EXPECT_EQ(stats.shards[0].peak_depth, 0u);
}

// ---------------------------------------------------------------------------
// Failpoint isolation: an injected fault poisons exactly one request
// ---------------------------------------------------------------------------

TEST_F(ServerTest, AdmitFaultIsolatedToOneRequest) {
  ServerConfig config;
  config.shards = 1;
  auto srv = MakeServer(config);
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .ConfigureSite("server.admit", "1*fail,off")
                  .ok());
  query::ServerResponse faulted = srv->Execute(RequestFor(0));
  EXPECT_TRUE(faulted.rejected());
  EXPECT_GT(faulted.meta.retry_after_ms, 0.0);
  // The very next request (same client) is admitted: the injected
  // rejection did not charge the client's bucket.
  EXPECT_TRUE(srv->Execute(RequestFor(0)).ok());
  EXPECT_EQ(srv->Stats().rejected_rate, 1u);
}

TEST_F(ServerTest, CacheFaultIsolatedToOneRequest) {
  ServerConfig config;
  config.shards = 1;
  auto srv = MakeServer(config);
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .ConfigureSite("server.cache", "1*fail,off")
                  .ok());
  query::ServerResponse faulted = srv->Execute(RequestFor(0));
  EXPECT_FALSE(faulted.ok());
  EXPECT_FALSE(faulted.rejected());
  EXPECT_TRUE(srv->Execute(RequestFor(0)).ok());
  // The worker releases its slot after fulfilling the promise, so wait
  // for the pool before reading the depth.
  srv->Drain();
  EXPECT_EQ(srv->Stats().shards[0].depth, 0u)
      << "cache fault leaked the reserved slot";
}

TEST_F(ServerTest, DispatchFaultIsolatedToOneRequest) {
  ServerConfig config;
  config.shards = 1;
  auto srv = MakeServer(config);
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .ConfigureSite("server.shard_dispatch", "1*fail,off")
                  .ok());
  query::ServerResponse faulted = srv->Execute(RequestFor(0));
  EXPECT_FALSE(faulted.ok());
  EXPECT_TRUE(srv->Execute(RequestFor(0)).ok());
  srv->Drain();
  EXPECT_EQ(srv->Stats().shards[0].depth, 0u);
}

// Env-armed smoke, exercised by CI which runs this binary under ASan
// with VKG_FAILPOINTS arming the server.* sites. A storm with faults
// injected must stay leak-free and isolated: every response is either
// an answer or an explicit per-request error; no slot or in-flight
// registration survives, and the server still serves afterwards.
TEST_F(ServerTest, EnvArmedFaultStormStaysIsolated) {
  const char* env = std::getenv("VKG_FAILPOINTS");
  if (env == nullptr || std::strstr(env, "server.") == nullptr) {
    GTEST_SKIP() << "VKG_FAILPOINTS does not arm server.* sites";
  }
  ASSERT_TRUE(util::FailPointRegistry::Instance().ConfigureFromEnv().ok());

  ServerConfig config;
  config.shards = 2;
  auto srv = MakeServer(config);
  const size_t threads = ChaosThreads();
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> faulted{0};
  std::vector<std::thread> crew;
  crew.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    crew.emplace_back([&, t] {
      for (size_t i = 0; i < workload_->size(); ++i) {
        const size_t j = (i + t * 7) % workload_->size();
        query::ServerResponse r = srv->Execute(RequestFor(j));
        if (r.ok()) {
          answered.fetch_add(1);
        } else {
          faulted.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : crew) th.join();
  srv->Drain();
  EXPECT_EQ(answered.load() + faulted.load(), threads * workload_->size());

  ServerStats stats = srv->Stats();
  for (const auto& shard : stats.shards) {
    EXPECT_EQ(shard.depth, 0u) << "shard " << shard.shard;
    EXPECT_EQ(shard.in_flight, 0u) << "shard " << shard.shard;
  }
  // Disarm and prove the server recovered fully.
  util::FailPointRegistry::Instance().Clear();
  for (size_t i = 0; i < workload_->size(); ++i) {
    EXPECT_TRUE(srv->Execute(RequestFor(i)).ok()) << "slot " << i;
  }
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

TEST_F(ServerTest, PublishStatsExportsShardGauges) {
  ServerConfig config;
  config.shards = 2;
  auto srv = MakeServer(config);
  for (size_t i = 0; i < 8; ++i) srv->Execute(RequestFor(i));
  srv->PublishStats();
  const std::string prom =
      obs::MetricsRegistry::Global().PrometheusText();
  EXPECT_NE(prom.find("vkg_server_shards 2"), std::string::npos);
  // One index and one data version for the whole server, not one
  // generation per shard.
  EXPECT_NE(prom.find("vkg_server_index_generation " +
                      std::to_string(srv->vkg().rtree().crack_generation()) +
                      "\n"),
            std::string::npos);
  EXPECT_NE(prom.find("vkg_server_data_version " +
                      std::to_string(srv->vkg().data_version()) + "\n"),
            std::string::npos);
  EXPECT_EQ(prom.find("vkg_server_shard_0_generation"), std::string::npos);
  EXPECT_NE(prom.find("vkg_server_shard_1_cache_entries"),
            std::string::npos);
  EXPECT_NE(prom.find("vkg_server_requests_total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Self-healing: shutdown, deadlines, breakers, memory pressure (§6h)
// ---------------------------------------------------------------------------

TEST_F(ServerTest, GracefulShutdownResolvesEveryTicket) {
  ServerConfig config;
  config.shards = 2;
  config.threads_per_shard = 1;
  auto srv = MakeServer(config);
  // Slow the workers so Stop() races a queue full of pending tickets.
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .Configure("server.queue=delay(2)")
                  .ok());
  std::vector<VkgServer::Ticket> tickets;
  for (size_t i = 0; i < 32; ++i) {
    tickets.push_back(srv->Submit(RequestFor(i % workload_->size(), true)));
  }
  srv->Stop();
  // Every ticket handed out before Stop() resolves definitively — with
  // its computed answer or kUnavailable, never a hang.
  for (auto& ticket : tickets) {
    query::ServerResponse r = ticket.Get();
    EXPECT_TRUE(r.ok() ||
                r.status.code() == util::StatusCode::kUnavailable)
        << r.status.ToString();
  }
  // Submissions after Stop() fast-fail instead of queueing.
  query::ServerResponse late = srv->Execute(RequestFor(0));
  EXPECT_EQ(late.status.code(), util::StatusCode::kUnavailable);
  EXPECT_GE(srv->Stats().rejected_shutdown, 1u);
  // The destructor (~VkgServer → Stop) runs on scope exit with the
  // failpoint still armed; not hanging here is the assertion.
}

TEST_F(ServerTest, DeadlineExpiredInQueueIsNeverComputed) {
  ServerConfig config;
  config.shards = 1;
  config.threads_per_shard = 1;
  auto srv = MakeServer(config);
  // One blocker pins the only worker inside a 150 ms stall; its k
  // differs from the victim's so they cannot coalesce.
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .Configure("server.queue=delay(150),off")
                  .ok());
  query::ServerRequest blocker = RequestFor(0, true);
  blocker.k = 11;
  VkgServer::Ticket blocker_ticket = srv->Submit(std::move(blocker));
  query::ServerRequest victim = RequestFor(0, true);
  victim.deadline_ms = 25.0;  // expires while queued behind the blocker
  const uint64_t computed_before = srv->Stats().computed_topk;
  VkgServer::Ticket victim_ticket = srv->Submit(std::move(victim));
  query::ServerResponse vr = victim_ticket.Get();
  EXPECT_EQ(vr.status.code(), util::StatusCode::kDeadlineExceeded)
      << vr.status.ToString();
  EXPECT_TRUE(vr.meta.expired_in_queue);
  EXPECT_TRUE(blocker_ticket.Get().ok());
  srv->Drain();
  ServerStats stats = srv->Stats();
  EXPECT_EQ(stats.expired_in_queue, 1u);
  // Only the blocker computed: the victim was expired, not evaluated.
  EXPECT_EQ(stats.computed_topk, computed_before + 1);
}

TEST_F(ServerTest, CoalescedFollowerHonorsItsOwnDeadline) {
  ServerConfig config;
  config.shards = 1;
  config.threads_per_shard = 1;
  auto srv = MakeServer(config);
  // Blocker stalls the worker, then the leader's computation stalls
  // too: the follower's tight deadline expires while it waits on the
  // leader's shared future.
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .Configure("server.queue=2*delay(120),off")
                  .ok());
  query::ServerRequest blocker = RequestFor(0, true);
  blocker.k = 11;
  VkgServer::Ticket blocker_ticket = srv->Submit(std::move(blocker));
  VkgServer::Ticket leader = srv->Submit(RequestFor(0, true));
  query::ServerRequest dup = RequestFor(0, true);
  dup.deadline_ms = 20.0;
  VkgServer::Ticket follower = srv->Submit(std::move(dup));
  query::ServerResponse fr = follower.Get();
  EXPECT_EQ(fr.status.code(), util::StatusCode::kDeadlineExceeded)
      << fr.status.ToString();
  // The leader itself carried no deadline and still completes.
  EXPECT_TRUE(leader.Get().ok());
  EXPECT_TRUE(blocker_ticket.Get().ok());
  EXPECT_GE(srv->Stats().expired_waiting, 1u);
}

TEST_F(ServerTest, BreakerFastFailsWhileOpenAndRecovers) {
  ServerConfig config;
  config.shards = 1;
  config.threads_per_shard = 1;
  config.breaker.failure_threshold = 3;
  config.breaker.open_seconds = 0.05;
  auto srv = MakeServer(config);
  // Prime the cache for slot 0 while the shard is healthy.
  ASSERT_TRUE(srv->Execute(RequestFor(0)).ok());
  // Three consecutive worker faults trip the breaker.
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .Configure("server.queue=fail")
                  .ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(srv->Execute(RequestFor(1, true)).status.code(),
              util::StatusCode::kInternal);
  }
  EXPECT_EQ(srv->shard_breaker(0).state(), BreakerState::kOpen);
  // Open: compute-bound traffic fast-fails with a retry hint...
  query::ServerResponse rejected = srv->Execute(RequestFor(1, true));
  EXPECT_TRUE(rejected.rejected()) << rejected.status.ToString();
  EXPECT_GT(rejected.meta.retry_after_ms, 0.0);
  EXPECT_GE(srv->Stats().rejected_breaker, 1u);
  // ...but cache hits keep serving (the breaker guards compute only).
  query::ServerResponse cached = srv->Execute(RequestFor(0));
  EXPECT_TRUE(cached.ok());
  EXPECT_TRUE(cached.meta.cache_hit);
  // Disarm the fault, wait out the cool-down, and probe back closed.
  util::FailPointRegistry::Instance().Clear();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  for (int i = 0;
       i < 50 && srv->shard_breaker(0).state() != BreakerState::kClosed;
       ++i) {
    srv->Execute(RequestFor(1, true));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(srv->shard_breaker(0).state(), BreakerState::kClosed);
  ServerStats stats = srv->Stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_GE(stats.shards[0].breaker.trips, 1u);
  EXPECT_GE(stats.shards[0].breaker.recoveries, 1u);
  // Recovered: fresh compute succeeds again.
  EXPECT_TRUE(srv->Execute(RequestFor(1, true)).ok());
}

TEST_F(ServerTest, MemoryPressureLadderShedsDegradesAndRecovers) {
  ServerConfig config;
  config.shards = 2;
  config.memory.budget_bytes = 1000;
  auto srv = MakeServer(config);
  // kShedding: lowest-priority requests are rejected with a hint;
  // higher-priority ones compute, but in forced-budget (degraded) mode.
  srv->memory_budget().SetUsageOverride(990);
  query::ServerResponse shed = srv->Execute(RequestFor(0, true));
  EXPECT_TRUE(shed.rejected()) << shed.status.ToString();
  EXPECT_GT(shed.meta.retry_after_ms, 0.0);
  query::ServerRequest important = RequestFor(0, true);
  important.priority = 1;
  query::ServerResponse vip = srv->Execute(std::move(important));
  ASSERT_TRUE(vip.ok()) << vip.status.ToString();
  EXPECT_TRUE(vip.meta.degraded_by_pressure);
  EXPECT_EQ(srv->memory_pressure(), PressureLevel::kShedding);
  ServerStats stats = srv->Stats();
  EXPECT_GE(stats.rejected_shed, 1u);
  EXPECT_GE(stats.pressure_degraded, 1u);
  // kElevated: everything is admitted again; cache segments shrink.
  srv->memory_budget().SetUsageOverride(750);
  EXPECT_TRUE(srv->Execute(RequestFor(1, true)).ok());
  EXPECT_EQ(srv->memory_pressure(), PressureLevel::kElevated);
  // Recovery is complete and reversible: once usage falls back under
  // the entry thresholds (minus hysteresis), full-fidelity answers
  // return. The override stands in for reclaimed memory — the real
  // footprint dwarfs this deliberately tiny test budget.
  srv->memory_budget().SetUsageOverride(100);
  query::ServerResponse healthy = srv->Execute(RequestFor(2, true));
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy.meta.degraded_by_pressure);
  EXPECT_EQ(srv->memory_pressure(), PressureLevel::kNormal);
  EXPECT_GE(srv->Stats().memory.deescalations, 1u);
}

}  // namespace
}  // namespace vkg::server
