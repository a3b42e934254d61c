// The serving path, measured inside a traced run. Each epoch builds a
// fresh facade, VkgServer (2 shards, result cache on) and NetServer on
// loopback; closed-loop clients — each waiting for its reply before
// sending the next request, as vkg_client_cli does — replay the
// workload's Zipf stream over TCP. The same streams then run through
// in-process VkgServer::Execute, and NetClient::Ping measures a bare
// round trip. Every socket answer is checked against the oracle and
// against the in-process answer.
//
// This is not an end-to-end workload: on a shared VM the closed-loop
// socket rate moves with CPU steal by far more than any bound could
// allow (README.md, "Noise"), so its figures are per-layer only.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "net/client.h"
#include "net/listener.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kK = 10;
constexpr size_t kEpochs = 3;
constexpr size_t kSocketChecks = 32;  // distinct queries compared per epoch
constexpr int kPings = 2000;

struct Serving {
  std::shared_ptr<Vkg> vkg;
  std::unique_ptr<vkg::server::VkgServer> server;
  std::unique_ptr<vkg::net::NetServer> net;
};

Serving StartServing(const data::Dataset& ds, bool listen) {
  Serving s;
  double unused = 0.0;
  s.vkg = BuildFacade(ds, &unused);
  vkg::server::ServerConfig config;
  config.shards = 2;
  auto server = vkg::server::VkgServer::Create(s.vkg, config);
  if (!server.ok()) {
    std::fprintf(stderr, "VkgServer::Create failed: %s\n",
                 server.status().ToString().c_str());
    std::exit(1);
  }
  s.server = std::move(*server);
  if (listen) {
    auto net = vkg::net::NetServer::Start(s.server.get(),
                                          vkg::net::NetServerConfig());
    if (!net.ok()) {
      std::fprintf(stderr, "NetServer::Start failed: %s\n",
                   net.status().ToString().c_str());
      std::exit(1);
    }
    s.net = std::move(*net);
  }
  return s;
}

std::unique_ptr<vkg::net::NetClient> ConnectTo(const Serving& s) {
  vkg::net::NetClientConfig config;
  config.port = s.net->port();
  auto client = vkg::net::NetClient::Connect(config);
  if (!client.ok()) {
    std::fprintf(stderr, "NetClient::Connect failed: %s\n",
                 client.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*client);
}

vkg::query::ServerRequest TopKRequest(const data::Query& q, size_t client) {
  vkg::query::ServerRequest request;
  request.client_id.assign(1, 'c');
  request.client_id += std::to_string(client);
  request.query = q;
  request.k = kK;
  return request;
}

bool SameHits(const vkg::query::TopKResult& a,
              const vkg::query::TopKResult& b) {
  if (a.hits.size() != b.hits.size()) return false;
  for (size_t i = 0; i < a.hits.size(); ++i) {
    if (a.hits[i].entity != b.hits[i].entity ||
        std::memcmp(&a.hits[i].distance, &b.hits[i].distance,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// Runs every stream on its own thread, all starting together, and
// records each call's wall latency.
template <typename CallFn>
void RunClients(const std::vector<std::vector<data::Query>>& streams,
                std::vector<std::vector<double>>& latency_us, CallFn call) {
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  latency_us.resize(streams.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < streams.size(); ++c) {
    latency_us[c].assign(streams[c].size(), 0.0);
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t i = 0; i < streams[c].size(); ++i) {
        const Clock::time_point start = Clock::now();
        call(c, i);
        latency_us[c][i] = MicrosSince(start);
      }
    });
  }
  while (ready.load() < streams.size()) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
}

void Append(std::vector<double>& to,
            const std::vector<std::vector<double>>& from) {
  for (const auto& v : from) to.insert(to.end(), v.begin(), v.end());
}

}  // namespace

void RunServeLayers(const RunContext& ctx,
                    const std::vector<std::vector<data::Query>>& streams) {
  Report& report = *ctx.report;
  const size_t clients = streams.size();
  std::vector<data::Query> all;
  for (const auto& s : streams) all.insert(all.end(), s.begin(), s.end());
  const TruthTable truth(*ctx.oracle, all, kK,
                         std::max(1u, std::thread::hardware_concurrency()));
  TopKChecker checker(ctx.oracle, &report);
  std::vector<std::vector<vkg::util::Result<vkg::query::ServerResponse>>>
      responses(clients);
  std::vector<std::vector<double>> latency;
  std::vector<double> call_us;
  uint64_t attempted = 0, failed = 0;
  size_t facade_same = 0, facade_compared = 0;
  // Counters per epoch (each epoch starts a fresh server).
  double hits = 0, misses = 0, invalidated = 0, computed = 0, coalesced = 0;
  double peak_depth = 0, generations = 0, frames_rx = 0, frames_tx = 0;
  for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
    for (size_t c = 0; c < clients; ++c) {
      responses[c].assign(streams[c].size(), vkg::util::Status::OK());
    }
    Serving serving = StartServing(*ctx.dataset, /*listen=*/true);
    std::vector<std::unique_ptr<vkg::net::NetClient>> conns;
    for (size_t c = 0; c < clients; ++c) conns.push_back(ConnectTo(serving));
    RunClients(streams, latency, [&](size_t c, size_t i) {
      responses[c][i] = conns[c]->Call(TopKRequest(streams[c][i], c));
    });
    Append(call_us, latency);

    const vkg::server::ServerStats stats = serving.server->Stats();
    hits += static_cast<double>(stats.cache_hits);
    misses += static_cast<double>(stats.cache_misses);
    invalidated += static_cast<double>(stats.cache_invalidated);
    computed += static_cast<double>(stats.computed_topk);
    coalesced += static_cast<double>(stats.coalesced);
    double depth = 0;
    for (const auto& shard : stats.shards) {
      depth = std::max(depth, static_cast<double>(shard.peak_depth));
      generations += static_cast<double>(shard.generation);
    }
    peak_depth += depth;
    const vkg::net::NetStats net_stats = serving.net->Stats();
    frames_rx += static_cast<double>(net_stats.frames_rx);
    frames_tx += static_cast<double>(net_stats.frames_tx);
    for (size_t c = 0; c < clients; ++c) {
      for (size_t i = 0; i < streams[c].size(); ++i) {
        ++attempted;
        const auto& r = responses[c][i];
        if (!r.ok() || !r->ok()) {
          ++failed;
          continue;
        }
        checker.Check(streams[c][i], kK, r->topk, truth.Find(streams[c][i]));
      }
    }
    // Socket answers must be the in-process answers: Execute, Call,
    // Execute again on the same server. A computation that cracks can
    // invalidate the entry it came from, so the socket answer has to
    // equal the in-process answer just before or just after it.
    size_t compared = 0;
    for (size_t i = 0; i < streams[0].size() && compared < kSocketChecks;
         ++i) {
      const data::Query& q = streams[0][i];
      const auto seen_before = std::find_if(
          streams[0].begin(), streams[0].begin() + i,
          [&](const data::Query& p) {
            return p.anchor == q.anchor && p.relation == q.relation &&
                   p.direction == q.direction;
          });
      if (seen_before != streams[0].begin() + i) continue;
      ++compared;
      const auto before = serving.server->Execute(TopKRequest(q, 0));
      const auto socket = conns[0]->Call(TopKRequest(q, 0));
      const auto after = serving.server->Execute(TopKRequest(q, 0));
      if (!before.ok() || !socket.ok() || !socket->ok() || !after.ok()) {
        report.Violation("socket/in-process comparison request failed");
        continue;
      }
      if (!SameHits(socket->topk, before.topk) &&
          !SameHits(socket->topk, after.topk)) {
        report.Violation("socket answer differs from in-process Execute");
      }
      checker.Check(q, kK, socket->topk, truth.Find(q));
      // The facade answers from its own cracking tree, so its answer may
      // legitimately differ; how often it agrees is reported.
      ++facade_compared;
      facade_same += SameHits(socket->topk, serving.vkg->TopK(q, kK)) ? 1 : 0;
    }
    for (auto& conn : conns) conn->Goodbye();
    serving.net->Stop();
    serving.server->Stop();
  }
  checker.Finish("serve.topk");
  report.Ops("serve.topk_socket", attempted, failed);
  report.Note("serve.clients", static_cast<double>(clients), "count");
  report.Note("serve.facade_agreement",
              facade_compared > 0
                  ? static_cast<double>(facade_same) / facade_compared
                  : 0.0,
              "ratio");
  const double call_p50 = Percentile(call_us, 0.50);
  report.Note("serve.call_p50_us", call_p50, "us");
  report.Note("serve.call_p99_us", Percentile(call_us, 0.99), "us");

  const double n = static_cast<double>(kEpochs);
  report.Metric("server.cache_hits", hits / n, "count");
  report.Metric("server.cache_misses", misses / n, "count");
  report.Metric("server.cache_invalidated", invalidated / n, "count");
  report.Metric("server.computed_topk", computed / n, "count");
  report.Metric("server.coalesced", coalesced / n, "count");
  report.Metric("server.peak_queue_depth", peak_depth / n, "count");
  report.Metric("server.generations", generations / n, "count");
  report.Metric("net.frames_rx", frames_rx / n, "count");
  report.Metric("net.frames_tx", frames_tx / n, "count");

  // The same request sequences through in-process Execute on fresh
  // servers: the serving path without the socket.
  std::vector<double> execute_us;
  for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
    Serving local = StartServing(*ctx.dataset, /*listen=*/false);
    RunClients(streams, latency, [&](size_t c, size_t i) {
      local.server->Execute(TopKRequest(streams[c][i], c));
    });
    Append(execute_us, latency);
    local.server->Stop();
  }
  const double execute_p50 = Percentile(execute_us, 0.50);
  report.Metric("server.execute_p50_us", execute_p50, "us");
  report.Metric("server.execute_p99_us", Percentile(execute_us, 0.99), "us");
  report.Metric("net.overhead_p50_us", call_p50 - execute_p50, "us");

  Serving pinged = StartServing(*ctx.dataset, /*listen=*/true);
  std::unique_ptr<vkg::net::NetClient> conn = ConnectTo(pinged);
  std::vector<double> ping_us;
  for (int i = 0; i < kPings; ++i) {
    const Clock::time_point start = Clock::now();
    if (!conn->Ping().ok()) {
      report.Violation("ping failed");
      break;
    }
    ping_us.push_back(MicrosSince(start));
  }
  conn->Goodbye();
  pinged.net->Stop();
  pinged.server->Stop();
  report.Metric("net.ping_p50_us", Median(ping_us), "us");
}

}  // namespace perfbench
