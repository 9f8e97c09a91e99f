#ifndef ISLA_NET_WORKER_SERVER_H_
#define ISLA_NET_WORKER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "distributed/worker.h"
#include "net/connection.h"
#include "net/faulty_connection.h"
#include "runtime/thread_pool.h"

namespace isla {
namespace net {

struct WorkerServerOptions {
  /// 0 picks an ephemeral port (read it back from port()).
  uint16_t port = 0;
  /// Test-only fault injection: every accepted connection is wrapped in a
  /// FaultyConnection with this mode. Production callers leave kNone.
  FaultMode fault = FaultMode::kNone;
  /// Frames each faulty connection sends cleanly before the fault engages
  /// (stages "disconnect mid-scan": pilot rounds pass, the plan round
  /// fails).
  uint64_t fault_after_sends = 0;
  /// Transient fault window: with a non-zero value only sends
  /// [fault_after_sends, fault_after_sends + fault_first_n) fault; later
  /// sends pass through again. The send counter is shared server-wide
  /// (across reconnects) so the window is a property of the server's
  /// lifetime, not of any one connection — a retrying client
  /// deterministically escapes it. 0 keeps "faulty forever".
  uint64_t fault_first_n = 0;
  /// Dynamic registration: when coordinator_host is non-empty, the server
  /// announces (shard_id = worker id, advertised_host:port, block_rows) to
  /// the registry listening at coordinator_host:coordinator_port and keeps
  /// re-announcing every heartbeat_millis on the same connection,
  /// redialing with backoff whenever the registry is unreachable. This is
  /// how a cluster grows or heals without restarting anything: a restarted
  /// worker re-registers, the registry re-lists it, new queries use it.
  std::string coordinator_host;
  uint16_t coordinator_port = 0;
  /// Address put in the RegisterFrame (what *coordinators* should dial).
  std::string advertised_host = "127.0.0.1";
  int64_t heartbeat_millis = 500;
};

/// Serves one distributed::Worker (the paper's subsidiary) over TCP: the
/// process a shard lives in. Accepts any number of coordinator
/// connections; each runs a request/response loop on a dedicated
/// ThreadGroup thread, calling the same Worker::HandleRequest the loopback
/// transport calls — the worker cannot tell the carriers apart, which is
/// what keeps TCP answers bit-identical to loopback ones. Request-level
/// failures are answered with an ErrorFrame; wire-level failures close the
/// connection.
class WorkerServer {
 public:
  WorkerServer(std::unique_ptr<distributed::Worker> worker,
               WorkerServerOptions options = {});
  ~WorkerServer();

  WorkerServer(const WorkerServer&) = delete;
  WorkerServer& operator=(const WorkerServer&) = delete;

  /// Binds the listener and starts the accept loop.
  Status Start();

  /// Stops accepting, unwinds every session loop, joins all threads.
  /// Idempotent.
  void Stop();

  /// Bound port; valid after Start().
  uint16_t port() const { return port_; }

  /// The accept/session thread group (monitoring/tests: the session-thread
  /// leak regression asserts spawned_count() >> live_count() after many
  /// sequential sessions).
  const runtime::ThreadGroup& thread_group() const { return threads_; }

  /// Successful heartbeat acks sent so far (tests wait on this to know the
  /// worker is registered).
  uint64_t heartbeats_acked() const {
    return heartbeats_acked_.load(std::memory_order_relaxed);
  }

  /// Announcements the registry answered with a typed refusal (tests wait
  /// on this to know a divergent worker was detected and kept out).
  uint64_t register_refusals() const {
    return register_refusals_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void Serve(std::unique_ptr<Connection> conn);
  void RegisterLoop();
  /// Sleeps up to `millis`, returning early (false) when Stop() was called.
  bool SleepUnlessStopped(int64_t millis);

  std::unique_ptr<distributed::Worker> worker_;
  WorkerServerOptions options_;
  std::unique_ptr<Listener> listener_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::shared_ptr<std::atomic<uint64_t>> fault_sends_;
  std::atomic<uint64_t> heartbeats_acked_{0};
  std::atomic<uint64_t> register_refusals_{0};
  runtime::ThreadGroup threads_;
};

}  // namespace net
}  // namespace isla

#endif  // ISLA_NET_WORKER_SERVER_H_
