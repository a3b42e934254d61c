// End-to-end chaos campaign for the self-healing server (DESIGN.md
// §6h), driven through the shared harness in server/chaos.h: a seeded
// >= 10,000-request multi-client storm with every server./cracking./
// alloc. failpoint site armed on randomized schedules, followed by
// deterministic breaker-trip/recovery, queue-expiry, and shutdown
// phases. The invariants asserted here are the PR's acceptance
// criteria: every Submit resolves, exact responses match a sequential
// oracle, breakers trip AND recover, deadline-expired queue entries
// are never computed, and Stop() abandons no ticket. Runs under ASan
// and TSan in CI; VKG_CHAOS_THREADS sweeps the storm's client count.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "core/virtual_graph.h"
#include "data/movielens_gen.h"
#include "data/workload.h"
#include "query/request.h"
#include "server/chaos.h"
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

class ServerChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::MovieLensConfig config;
    config.num_users = 1000;
    config.num_movies = 500;
    config.seed = 91;
    ds_ = new data::Dataset(data::GenerateMovieLensLike(config));
    data::WorkloadConfig wc;
    wc.num_queries = 48;
    wc.seed = 92;
    workload_ =
        new std::vector<data::Query>(data::GenerateWorkload(ds_->graph, wc));
  }
  static void TearDownTestSuite() {
    delete ds_;
    delete workload_;
  }
  void TearDown() override { util::FailPointRegistry::Instance().Clear(); }

  static std::unique_ptr<VkgServer> MakeServer(const ServerConfig& config) {
    core::VkgOptions options;
    options.method = index::MethodKind::kCracking;
    embedding::EmbeddingStore copy = ds_->embeddings;
    auto vkg = core::VirtualKnowledgeGraph::BuildWithEmbeddings(
        &ds_->graph, std::move(copy), options);
    EXPECT_TRUE(vkg.ok());
    auto srv = VkgServer::Create(
        std::shared_ptr<core::VirtualKnowledgeGraph>(std::move(vkg.value())),
        config);
    EXPECT_TRUE(srv.ok());
    return std::move(srv.value());
  }

  // Request templates the storm draws from: every 5th a COUNT
  // aggregate, the rest top-k (mirrors the serving mix in server_test).
  static std::vector<query::ServerRequest> Slots() {
    std::vector<query::ServerRequest> slots;
    slots.reserve(workload_->size());
    for (size_t i = 0; i < workload_->size(); ++i) {
      query::ServerRequest request;
      if (i % 5 == 4) {
        request.kind = query::RequestKind::kAggregate;
        request.aggregate.query = (*workload_)[i];
        request.aggregate.kind = query::AggKind::kCount;
        request.aggregate.prob_threshold = 0.05;
      } else {
        request.query = (*workload_)[i];
        request.k = 10;
      }
      slots.push_back(std::move(request));
    }
    return slots;
  }

  static data::Dataset* ds_;
  static std::vector<data::Query>* workload_;
};

data::Dataset* ServerChaosTest::ds_ = nullptr;
std::vector<data::Query>* ServerChaosTest::workload_ = nullptr;

// The full campaign at acceptance scale. A hang anywhere (lost
// promise, stuck breaker, abandoned shutdown ticket) fails via the
// suite's ctest TIMEOUT; everything else is asserted on the report.
TEST_F(ServerChaosTest, SeededCampaignHoldsEveryInvariant) {
  ServerConfig config;
  config.shards = 2;
  config.threads_per_shard = 2;
  config.queue_capacity = 1024;
  config.breaker.open_seconds = 0.05;  // keep recovery inside the test
  auto srv = MakeServer(config);

  ChaosConfig chaos;
  chaos.seed = 42;
  chaos.requests = 10000;
  chaos.clients = ChaosThreads();
  chaos.rounds = 8;
  ChaosReport report = RunChaosCampaign(*srv, Slots(), chaos);
  SCOPED_TRACE(report.ToString());

  EXPECT_TRUE(report.Passed(chaos));
  EXPECT_GE(report.submitted, chaos.requests);
  EXPECT_EQ(report.resolved, report.submitted);  // no ticket hung
  EXPECT_EQ(report.mismatches, 0u);  // differential-correct vs oracle
  EXPECT_TRUE(report.breaker_tripped);
  EXPECT_TRUE(report.breaker_recovered);
  EXPECT_GE(report.breaker_trips, 1u);
  EXPECT_GE(report.breaker_recoveries, 1u);
  EXPECT_TRUE(report.expiry_observed);
  EXPECT_GE(report.expired_in_queue, 1u);  // asserted, never computed
  EXPECT_TRUE(report.shutdown_clean);

  // The campaign's final phase stopped the server; late submissions
  // must still resolve definitively instead of hanging.
  query::ServerResponse late = srv->Execute(Slots()[0]);
  EXPECT_EQ(late.status.code(), util::StatusCode::kUnavailable);

  // Every shard worker cracked the facade's one tree throughout the
  // campaign; it must still be well formed.
  const util::Status invariants = srv->vkg().rtree().CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();
}

// Different seeds arm different schedules; the invariants are
// seed-independent. Kept smaller so three campaigns fit one CI run.
TEST_F(ServerChaosTest, InvariantsHoldAcrossSeeds) {
  for (uint64_t seed : {7u, 1234u}) {
    ServerConfig config;
    config.shards = 2;
    config.threads_per_shard = 2;
    config.breaker.open_seconds = 0.05;
    auto srv = MakeServer(config);
    ChaosConfig chaos;
    chaos.seed = seed;
    chaos.requests = 2000;
    chaos.clients = ChaosThreads();
    chaos.rounds = 4;
    ChaosReport report = RunChaosCampaign(*srv, Slots(), chaos);
    SCOPED_TRACE(report.ToString());
    EXPECT_TRUE(report.Passed(chaos));
    EXPECT_EQ(report.resolved, report.submitted);
    EXPECT_EQ(report.mismatches, 0u);
  }
}

// A campaign with the deterministic phases disabled is pure randomized
// storm; it must still resolve everything and stay differential-
// correct, and it leaves the server running.
TEST_F(ServerChaosTest, StormOnlyCampaignLeavesServerServing) {
  ServerConfig config;
  config.shards = 2;
  config.threads_per_shard = 2;
  auto srv = MakeServer(config);
  ChaosConfig chaos;
  chaos.seed = 5;
  chaos.requests = 1500;
  chaos.clients = ChaosThreads();
  chaos.rounds = 3;
  chaos.breaker_phase = false;
  chaos.expiry_phase = false;
  chaos.shutdown_phase = false;
  ChaosReport report = RunChaosCampaign(*srv, Slots(), chaos);
  SCOPED_TRACE(report.ToString());
  EXPECT_TRUE(report.Passed(chaos));
  EXPECT_EQ(report.resolved, report.submitted);
  EXPECT_EQ(report.mismatches, 0u);
  // Failpoints cleared, server still up: a plain request succeeds.
  query::ServerResponse after = srv->Execute(Slots()[0]);
  EXPECT_TRUE(after.ok()) << after.status.ToString();
}

}  // namespace
}  // namespace vkg::server
