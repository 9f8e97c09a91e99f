#ifndef ISLA_NET_QUERY_SERVER_H_
#define ISLA_NET_QUERY_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/options.h"
#include "engine/query.h"
#include "engine/scan_scheduler.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/server_stats.h"
#include "runtime/thread_pool.h"

namespace isla {
namespace net {

struct QueryServerOptions {
  /// 0 picks an ephemeral port (read it back from port()).
  uint16_t port = 0;
  /// Engine defaults each new session starts from; sessions then diverge
  /// via SET (per-session IslaOptions) without affecting each other.
  core::IslaOptions session_defaults;
  /// Concurrent session cap, enforced with an atomic reserve-then-accept
  /// (the slot is taken *before* admission is decided and rolled back on
  /// refusal, so concurrent accepts can never overshoot). Connections
  /// beyond it are answered with an error and closed instead of queued —
  /// a client sees the refusal immediately rather than a hang.
  uint64_t max_sessions = 64;
  /// Event-loop reactor threads. Each loop multiplexes its share of the
  /// sessions; 2 loops drive thousands of connections, so this stays small.
  unsigned io_threads = 2;
  /// Statement-executor threads (the CPU-bound side: sampling).
  /// 0 sizes to max(4, hardware_concurrency). Statements beyond this run
  /// concurrently queue FIFO; per-session order is always preserved.
  unsigned exec_threads = 0;
  /// Per-session admission control: statements a client may have sent but
  /// not yet had dispatched. When the queue is full the server simply stops
  /// reading that session's socket (TCP backpressure) until it drains —
  /// ordering is preserved and memory stays bounded.
  size_t max_pending_statements = 8;
  /// Slow-client write backpressure: a session whose unsent output exceeds
  /// this high-water mark is disconnected (and counted) rather than
  /// allowed to pin response memory — or, for PARTIAL streams, to stall a
  /// scan batch on a reader that never drains.
  size_t max_outbound_bytes = 8u << 20;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default. Tests
  /// shrink it to force the write-backpressure path deterministically.
  int sndbuf_bytes = 0;
};

/// The query server: accepts concurrent client connections, each owning a
/// private engine::Session (own catalog, own IslaOptions). The wire
/// protocol is one net frame per statement in, one frame per response out
/// (clients may pipeline; responses come back in statement order);
/// responses are the same human-readable text the REPL prints, prefixed
/// with "ok\n" or "error: " so clients can tell outcome without parsing.
/// A "quit" statement (or dropping the connection) ends the session.
///
/// Architecture (the C10K rebuild): a small fixed pool of epoll event
/// loops owns every socket — accept, frame reassembly, response flushing —
/// while a separate fixed executor pool runs the statements themselves, so
/// N >> threads sessions cost idle fds, not blocked threads. Admission is
/// reserve-then-accept on an atomic counter; per-session statement queues
/// and an outbound high-water mark bound memory per client. `SHOW SERVER
/// STATS` reports sessions, statement throughput/latency percentiles, the
/// kernel tier, and per-table scan counts.
class QueryServer {
 public:
  explicit QueryServer(QueryServerOptions options = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  Status Start();
  void Stop();

  uint16_t port() const { return port_; }

  /// Sessions accepted over the server's lifetime (monitoring/tests).
  uint64_t sessions_served() const {
    return sessions_served_.load(std::memory_order_relaxed);
  }

  /// Currently admitted sessions (monitoring/tests).
  uint64_t active_sessions() const {
    return active_sessions_.load(std::memory_order_relaxed);
  }

  /// Admission/backpressure observability (monitoring/tests).
  uint64_t peak_sessions() const { return stats_.peak_sessions(); }
  uint64_t sessions_refused() const { return stats_.refused(); }
  uint64_t slow_client_disconnects() const {
    return stats_.slow_client_disconnects();
  }
  uint64_t statements_executed() const { return stats_.statements(); }

  /// The `SHOW SERVER STATS` body (also printed by isla_serverd --stats).
  std::string StatsText() const;

  /// The process-wide scan scheduler every session routes its sampled
  /// grouped queries through: pilot/result caches plus in-flight dedup
  /// (monitoring/tests).
  engine::ScanScheduler* scheduler() { return &scheduler_; }

 private:
  struct ClientSession;
  class ExecPool;

  /// Accept-readiness handler (runs on loops_[0]): drains the listen
  /// queue, reserves a session slot per connection, refuses or registers.
  void AcceptReady();
  void Refuse(int fd);
  void RegisterSession(const std::shared_ptr<ClientSession>& s);

  /// Socket-event handler for one session (runs on its loop).
  void OnSessionEvent(const std::shared_ptr<ClientSession>& s,
                      uint32_t events);
  void ReadInput(const std::shared_ptr<ClientSession>& s);
  void DecodeFrames(const std::shared_ptr<ClientSession>& s);
  void FlushOutput(const std::shared_ptr<ClientSession>& s);
  /// Recomputes the session's epoll interest set (read-pause backpressure,
  /// write interest) and closes drained/finished sessions. Loop thread.
  void UpdateInterest(const std::shared_ptr<ClientSession>& s);
  /// Frames `payload` and appends it to the session's outbound buffer.
  /// Any thread. Fails when the session is gone or the buffer crossed the
  /// high-water mark — streaming statements use that to abort.
  Status EnqueueFrame(const std::shared_ptr<ClientSession>& s,
                      std::string_view payload);
  /// Pump the session state machine: parse and dispatch the next
  /// statement, refresh epoll interest, close if drained. Runs on the
  /// session's loop.
  void Advance(const std::shared_ptr<ClientSession>& s);
  void CloseSession(const std::shared_ptr<ClientSession>& s);

  /// Runs one parsed statement (or reports its parse error) on an executor
  /// thread and enqueues the response.
  void ExecuteStatement(const std::shared_ptr<ClientSession>& s,
                        const Result<engine::Statement>& statement);

  QueryServerOptions options_;
  engine::ScanScheduler scheduler_;
  std::unique_ptr<Listener> listener_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> active_sessions_{0};
  std::atomic<uint64_t> sessions_served_{0};
  bool started_ = false;
  int64_t started_at_millis_ = 0;

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<uint64_t> next_loop_{0};
  runtime::ThreadGroup loop_threads_;
  std::unique_ptr<ExecPool> exec_pool_;

  std::mutex sessions_mu_;
  std::set<std::shared_ptr<ClientSession>> sessions_;

  ServerStatsRegistry stats_;
};

}  // namespace net
}  // namespace isla

#endif  // ISLA_NET_QUERY_SERVER_H_
