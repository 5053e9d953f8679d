#ifndef PIPES_SERVER_SERVER_H_
#define PIPES_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/engine/engine.h"
#include "src/server/protocol.h"

/// \file
/// `pipes::server::PipesServer` — the multi-tenant TCP front of one
/// `engine::Engine` (docs/server.md). Each connection names its tenant with
/// a HELLO frame and then registers/cancels/fetches continuous queries;
/// every tenant's queries multiplex onto the engine's one shared graph, so
/// overlapping queries from different connections share subplans. A
/// background pump thread drives the executor; admission control and
/// per-tenant quotas are the engine's. Dropping a connection cancels
/// everything its tenant registered.

namespace pipes::server {

struct ServerOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (see `port()`).
  std::uint16_t port = 0;
  /// Executor steps per pump-thread iteration.
  std::uint64_t pump_steps = 4096;
  /// Hard cap on rows returned by one FETCH, whatever the client asks.
  std::uint32_t max_fetch_results = 65536;
};

/// Accepts connections on a listener thread, serves each on its own
/// thread, and pumps the engine on another. Start/Stop are not
/// re-entrant; Stop is idempotent and also runs from the destructor.
class PipesServer {
 public:
  explicit PipesServer(engine::Engine& engine, ServerOptions options = {});
  ~PipesServer();

  PipesServer(const PipesServer&) = delete;
  PipesServer& operator=(const PipesServer&) = delete;

  /// Binds, listens, and spawns the accept + pump threads. Fails with
  /// FailedPrecondition when already running, Internal when the OS refuses
  /// the socket (sandboxes without network access land here).
  Status Start();

  /// The bound port (valid after a successful Start).
  int port() const { return port_; }

  bool running() const { return running_.load(); }

  /// Blocks until the server stops (Stop() from another thread, or a
  /// client SHUTDOWN frame).
  void Wait();

  /// Stops listening, shuts every connection down, joins all threads.
  void Stop();

 private:
  void AcceptLoop(int listen_fd);
  void PumpLoop();
  void ServeConnection(int fd);

  /// Per-connection request dispatch state.
  struct Connection;
  Message Handle(Connection& conn, const Message& request);

  engine::Engine& engine_;
  ServerOptions options_;

  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  int port_ = 0;

  std::thread accept_thread_;
  std::thread pump_thread_;

  /// Serializes concurrent Stop() calls (a SHUTDOWN frame's connection
  /// thread can race the owner's Stop); taken before mu_.
  std::mutex stop_mu_;
  std::mutex mu_;
  std::condition_variable stopped_cv_;
  std::vector<std::thread> conn_threads_;
  std::vector<int> conn_fds_;
};

}  // namespace pipes::server

#endif  // PIPES_SERVER_SERVER_H_
