// Regressions for the event-loop query server and the fixes that shipped
// with it: the ThreadGroup session-thread leak, the admission-control
// TOCTOU, substring-matched timeout detection, poll(2) deadline
// truncation, plus the new server-side behaviors — pipelined statement
// ordering under read-side backpressure, slow-client write backpressure,
// and `SHOW SERVER STATS`.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "distributed/worker.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/query_server.h"
#include "net/worker_server.h"
#include "runtime/thread_pool.h"
#include "stats/latency_histogram.h"
#include "storage/block.h"

namespace isla {
namespace net {
namespace {

void SleepMillis(int64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Polls `predicate` until it holds or `timeout_millis` elapses.
bool WaitFor(const std::function<bool()>& predicate, int64_t timeout_millis) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_millis);
  while (!predicate()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    SleepMillis(5);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Satellite: typed timeouts (no more substring matching on "timed out")
// ---------------------------------------------------------------------------

TEST(TimeoutTyping, MessageTextAloneDoesNotMakeATimeout) {
  // The server idle-tick check used to substring-match "timed out" in the
  // message, so any error whose text happened to contain those words was
  // silently treated as an idle tick and swallowed. The timeout kind is a
  // typed flag now; message text must not matter.
  Status impostor = Status::IOError("worker timed out upstream, giving up");
  EXPECT_TRUE(impostor.IsIOError());
  EXPECT_FALSE(impostor.IsTimedOut());

  Status real = Status::IOTimeout("recv timed out");
  EXPECT_TRUE(real.IsIOError());  // still an IOError to older callers
  EXPECT_TRUE(real.IsTimedOut());
}

TEST(TimeoutTyping, RecvDeadlineYieldsTypedTimeout) {
  auto listener = Listener::Bind(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto client = TcpConnect("127.0.0.1", (*listener)->port(), 2'000);
  ASSERT_TRUE(client.ok()) << client.status();
  auto server_side = (*listener)->Accept(2'000);
  ASSERT_TRUE(server_side.ok()) << server_side.status();

  (*client)->set_recv_deadline_millis(50);
  auto r = (*client)->RecvFrame();  // nothing is ever sent
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError()) << r.status();
  EXPECT_TRUE(r.status().IsTimedOut()) << r.status();
}

// ---------------------------------------------------------------------------
// Satellite: poll deadline truncation
// ---------------------------------------------------------------------------

TEST(ClampPollTimeout, LargeDeadlinesClampInsteadOfWrapping) {
  // A remaining budget past INT_MAX ms cast straight to int goes negative,
  // which poll(2) reads as "wait forever" — a deadline that disables
  // itself. The clamp must saturate instead.
  EXPECT_EQ(ClampPollTimeoutMillis(0), 0);
  EXPECT_EQ(ClampPollTimeoutMillis(-5), 0);
  EXPECT_EQ(ClampPollTimeoutMillis(250), 250);
  EXPECT_EQ(ClampPollTimeoutMillis(INT_MAX), INT_MAX);
  EXPECT_EQ(ClampPollTimeoutMillis(static_cast<int64_t>(INT_MAX) + 1),
            INT_MAX);
  EXPECT_EQ(ClampPollTimeoutMillis(INT64_MAX), INT_MAX);
}

// ---------------------------------------------------------------------------
// Satellite: ThreadGroup reaps finished threads
// ---------------------------------------------------------------------------

TEST(ThreadGroupReap, SequentialSpawnsDoNotAccumulateHandles) {
  runtime::ThreadGroup group;
  for (int i = 0; i < 100; ++i) {
    std::atomic<bool> ran{false};
    group.Spawn([&ran] { ran.store(true); });
    ASSERT_TRUE(WaitFor([&] { return ran.load(); }, 5'000));
  }
  EXPECT_EQ(group.spawned_count(), 100u);
  // Each Spawn reaps every thread already finished; only the most recent
  // spawn (whose done flag may not be visible yet) can linger. Without
  // reaping this is 100.
  EXPECT_LE(group.live_count(), 4u);
  group.JoinAll();
  EXPECT_EQ(group.live_count(), 0u);
  EXPECT_EQ(group.spawned_count(), 100u);  // lifetime counter survives joins
}

TEST(ThreadGroupReap, WorkerServerSequentialSessionsStayBounded) {
  // The original leak: thread-per-connection WorkerServer pushed one
  // std::thread handle per session and never dropped it, so a long-lived
  // daemon grew without bound. 100 sequential sessions must leave the
  // group holding a handful of handles, not ~101.
  auto block = [](double seedish) {
    std::vector<double> v(16, seedish);
    return std::make_shared<storage::MemoryBlock>(std::move(v));
  };
  WorkerServer server(std::make_unique<distributed::Worker>(
      0, block(1.0), block(0.5), block(0.0)));
  ASSERT_TRUE(server.Start().ok());

  for (int i = 0; i < 100; ++i) {
    uint64_t before = server.thread_group().spawned_count();
    auto conn = TcpConnect("127.0.0.1", server.port(), 2'000);
    ASSERT_TRUE(conn.ok()) << conn.status();
    (*conn)->Close();
    // Wait for the session thread to be spawned before connecting again,
    // so sessions (and therefore reap opportunities) are truly sequential.
    ASSERT_TRUE(WaitFor(
        [&] { return server.thread_group().spawned_count() > before; },
        10'000));
  }
  EXPECT_GE(server.thread_group().spawned_count(), 101u);  // accept + 100
  EXPECT_LE(server.thread_group().live_count(), 20u);
  server.Stop();
  EXPECT_EQ(server.thread_group().live_count(), 0u);
}

// ---------------------------------------------------------------------------
// EventLoop basics
// ---------------------------------------------------------------------------

TEST(EventLoop, DispatchesEventsAndPostedTasks) {
  EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  int fds[2];
  ASSERT_EQ(::pipe2(fds, O_NONBLOCK | O_CLOEXEC), 0);

  std::atomic<int> bytes_seen{0};
  ASSERT_TRUE(loop.Add(fds[0], EPOLLIN, [&](uint32_t) {
                    char buf[64];
                    ssize_t n;
                    while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
                      bytes_seen.fetch_add(static_cast<int>(n));
                    }
                  })
                  .ok());

  std::thread runner([&] { loop.Run(50); });
  ASSERT_EQ(::write(fds[1], "abc", 3), 3);
  EXPECT_TRUE(WaitFor([&] { return bytes_seen.load() == 3; }, 5'000));

  std::atomic<bool> task_ran{false};
  loop.Post([&] { task_ran.store(true); });
  EXPECT_TRUE(WaitFor([&] { return task_ran.load(); }, 5'000));

  loop.Stop();
  runner.join();
  loop.Remove(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoop, StopIsPromptWithoutPendingEvents) {
  EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  std::thread runner([&] { loop.Run(/*tick_millis=*/60'000); });
  SleepMillis(20);  // let it reach epoll_wait with the long tick
  auto start = std::chrono::steady_clock::now();
  loop.Stop();
  runner.join();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_LT(elapsed, 5'000);  // the eventfd wakeup, not the 60s tick
}

TEST(EventLoop, StopBeforeRunIsNotLost) {
  // QueryServer::Stop stops every I/O loop without knowing whether its
  // thread has reached Run yet; a Stop that lands first must still end
  // that Run, or the server's join waits forever.
  EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  loop.Stop();
  std::atomic<bool> returned{false};
  std::thread runner([&] {
    loop.Run(/*tick_millis=*/10);
    returned.store(true);
  });
  const bool prompt = WaitFor([&] { return returned.load(); }, 5'000);
  if (!prompt) loop.Stop();  // unblock the runner so the failure reports
  runner.join();
  EXPECT_TRUE(prompt) << "a Stop issued before Run was lost";

  // That Stop was consumed: the loop runs again until the next one.
  returned.store(false);
  std::thread again([&] {
    loop.Run(/*tick_millis=*/10);
    returned.store(true);
  });
  SleepMillis(50);
  EXPECT_FALSE(returned.load());
  loop.Stop();
  again.join();
  EXPECT_TRUE(returned.load());
}

// ---------------------------------------------------------------------------
// QueryServer admission control
// ---------------------------------------------------------------------------

TEST(QueryServerAdmission, ConcurrentConnectHammerNeverOvershootsLimit) {
  // The original check was load-then-add: two accepts could both read
  // active < max and both admit. Reserve-then-accept makes overshoot
  // impossible; this hammer holds every connection open until all have
  // been answered, so admitted sessions cannot free slots mid-count.
  QueryServerOptions options;
  options.max_sessions = 4;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 32;
  std::atomic<int> admitted{0};
  std::atomic<int> refused{0};
  std::atomic<int> answered{0};
  std::mutex mu;
  std::condition_variable all_answered;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto conn = TcpConnect("127.0.0.1", server.port(), 5'000);
      ASSERT_TRUE(conn.ok()) << conn.status();
      (*conn)->set_recv_deadline_millis(10'000);
      auto first = (*conn)->RecvFrame();
      ASSERT_TRUE(first.ok()) << first.status();
      if (first->rfind("ok\n", 0) == 0) {
        admitted.fetch_add(1);
      } else {
        EXPECT_NE(first->find("error: ResourceExhausted"), std::string::npos)
            << *first;
        refused.fetch_add(1);
      }
      // Hold the connection until every client has its answer: while any
      // admitted session is still open, no refused client's slot can have
      // come from an early disconnect.
      {
        std::unique_lock<std::mutex> lock(mu);
        if (answered.fetch_add(1) + 1 == kClients) {
          all_answered.notify_all();
        } else {
          all_answered.wait(lock,
                            [&] { return answered.load() == kClients; });
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(admitted.load(), 4);
  EXPECT_EQ(refused.load(), kClients - 4);
  EXPECT_EQ(server.peak_sessions(), 4u);  // never overshot, even transiently
  EXPECT_EQ(server.sessions_refused(), static_cast<uint64_t>(kClients - 4));
  EXPECT_EQ(server.sessions_served(), 4u);

  // Dropped connections release their slots: new sessions get in again.
  ASSERT_TRUE(WaitFor([&] { return server.active_sessions() == 0; }, 10'000));
  auto later = TcpConnect("127.0.0.1", server.port(), 2'000);
  ASSERT_TRUE(later.ok());
  auto greeting = (*later)->RecvFrame();
  ASSERT_TRUE(greeting.ok()) << greeting.status();
  EXPECT_EQ(greeting->rfind("ok\n", 0), 0u) << *greeting;
  server.Stop();
}

// ---------------------------------------------------------------------------
// QueryServer: pipelining, backpressure, stats
// ---------------------------------------------------------------------------

TEST(QueryServerLoop, PipelinedStatementsAnswerInOrderPastQueueLimit) {
  // Many statements in flight at once, far beyond max_pending_statements:
  // the server pauses reading (TCP backpressure) instead of reordering or
  // erroring, and every response comes back in statement order.
  QueryServerOptions options;
  options.max_pending_statements = 4;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());

  auto conn = TcpConnect("127.0.0.1", server.port(), 2'000);
  ASSERT_TRUE(conn.ok());
  (*conn)->set_deadline_millis(30'000);
  ASSERT_TRUE((*conn)->RecvFrame().ok());  // greeting

  constexpr int kPairs = 10;
  for (int i = 0; i < kPairs; ++i) {
    std::string precision = std::to_string(i) + ".5";
    ASSERT_TRUE((*conn)->SendFrame("SET precision " + precision).ok());
    ASSERT_TRUE((*conn)->SendFrame("SHOW SETTINGS").ok());
  }
  for (int i = 0; i < kPairs; ++i) {
    std::string precision = std::to_string(i) + ".5";
    auto set_response = (*conn)->RecvFrame();
    ASSERT_TRUE(set_response.ok()) << set_response.status();
    EXPECT_EQ(set_response->rfind("ok\n", 0), 0u) << *set_response;
    auto show_response = (*conn)->RecvFrame();
    ASSERT_TRUE(show_response.ok()) << show_response.status();
    EXPECT_NE(show_response->find("precision = " + precision),
              std::string::npos)
        << "pair " << i << ": " << *show_response;
  }
  server.Stop();
}

TEST(QueryServerLoop, SlowClientIsDisconnectedAtHighWaterMark) {
  // A client that pipelines statements but never reads responses: the
  // kernel buffers fill (tiny SO_SNDBUF server-side, tiny SO_RCVBUF
  // client-side), the session's outbound buffer crosses the high-water
  // mark, and the server drops it — instead of buffering without bound or
  // letting the stalled reader pin resources. Other sessions keep working.
  QueryServerOptions options;
  options.max_pending_statements = 256;
  options.max_outbound_bytes = 4 * 1024;
  options.sndbuf_bytes = 2 * 1024;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 1024;  // the kernel clamps up to its floor; still tiny
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // Never read anything (not even the greeting); just pile on statements
  // whose responses are a few hundred bytes each.
  std::string frame = EncodeFrame("SHOW SETTINGS");
  for (int i = 0; i < 256; ++i) {
    size_t off = 0;
    bool gone = false;
    while (off < frame.size()) {
      ssize_t n = ::send(fd, frame.data() + off, frame.size() - off,
                         MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        struct pollfd p = {fd, POLLOUT, 0};
        (void)::poll(&p, 1, 100);
        continue;
      }
      gone = true;  // EPIPE/ECONNRESET: the server already dropped us
      break;
    }
    if (gone) break;
  }

  EXPECT_TRUE(
      WaitFor([&] { return server.slow_client_disconnects() >= 1; }, 30'000))
      << "slow client was never disconnected";
  ::close(fd);

  // The server is healthy: a fresh, well-behaved session is served.
  auto healthy = TcpConnect("127.0.0.1", server.port(), 2'000);
  ASSERT_TRUE(healthy.ok());
  ASSERT_TRUE((*healthy)->RecvFrame().ok());
  ASSERT_TRUE((*healthy)->SendFrame("SHOW TABLES").ok());
  auto response = (*healthy)->RecvFrame();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->rfind("ok\n", 0), 0u) << *response;
  server.Stop();
}

TEST(QueryServerLoop, ShowServerStatsReportsSessionsLatencyAndScans) {
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());
  auto conn = TcpConnect("127.0.0.1", server.port(), 2'000);
  ASSERT_TRUE(conn.ok());
  (*conn)->set_deadline_millis(30'000);
  ASSERT_TRUE((*conn)->RecvFrame().ok());  // greeting

  auto roundtrip = [&](const std::string& statement) {
    EXPECT_TRUE((*conn)->SendFrame(statement).ok());
    auto response = (*conn)->RecvFrame();
    EXPECT_TRUE(response.ok()) << response.status();
    return response.ok() ? *response : std::string();
  };
  roundtrip("CREATE TABLE t FROM NORMAL(100, 20) ROWS 1e5 BLOCKS 4");
  roundtrip("CREATE TABLE BigT FROM NORMAL(100, 20) ROWS 1e5 BLOCKS 4");
  roundtrip("SELECT AVG(value) FROM t WITHIN 0.5");
  // The scan tag comes from the parsed statement, so a trailing ';', a
  // mixed-case table name and a keyword glued to a ')' tag correctly.
  roundtrip("SELECT AVG(value) FROM t;");
  roundtrip("SELECT AVG(value) FROM BigT");
  roundtrip("SELECT AVG(value)FROM t");
  roundtrip("SHOW TABLES");

  std::string stats = roundtrip("SHOW SERVER STATS");
  EXPECT_EQ(stats.rfind("ok\n", 0), 0u) << stats;
  EXPECT_NE(stats.find("active_sessions = 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("peak_sessions = 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("sessions_served = 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("max_sessions = 64"), std::string::npos) << stats;
  // CREATE ×2 + SELECT ×4 + SHOW TABLES were executed before the stats
  // statement — and the stats statement itself, answered inline on the
  // loop, is not counted.
  EXPECT_NE(stats.find("statements = 7"), std::string::npos) << stats;
  EXPECT_NE(stats.find("stmts_per_sec = "), std::string::npos) << stats;
  EXPECT_NE(stats.find("latency_p50_ms = "), std::string::npos) << stats;
  EXPECT_NE(stats.find("latency_p99_ms = "), std::string::npos) << stats;
  EXPECT_NE(stats.find("kernels = "), std::string::npos) << stats;
  // Fault-recovery counters (process-global; zero here, but the lines
  // must render so operators can watch failover activity).
  EXPECT_NE(stats.find("transport_reconnects = "), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("shard_retries = "), std::string::npos) << stats;
  EXPECT_NE(stats.find("shard_failovers = "), std::string::npos) << stats;
  EXPECT_NE(stats.find("hedged_requests = "), std::string::npos) << stats;
  EXPECT_NE(stats.find("hedge_wins = "), std::string::npos) << stats;
  EXPECT_NE(stats.find("shards_exhausted = "), std::string::npos) << stats;
  EXPECT_NE(stats.find("workers_registered = "), std::string::npos) << stats;
  EXPECT_NE(stats.find("scans[t] = 3"), std::string::npos) << stats;
  EXPECT_NE(stats.find("scans[BigT] = 1"), std::string::npos) << stats;
  // CREATE and SHOW tally nothing: those are the only two scan lines.
  size_t scan_lines = 0;
  for (size_t at = stats.find("scans["); at != std::string::npos;
       at = stats.find("scans[", at + 1)) {
    ++scan_lines;
  }
  EXPECT_EQ(scan_lines, 2u) << stats;

  // Case-insensitive, like the rest of the mini-SQL surface.
  std::string again = roundtrip("show server stats");
  EXPECT_NE(again.find("statements = 7"), std::string::npos) << again;

  // StatsText() is the same body, for the daemon's --stats ticker.
  EXPECT_NE(server.StatsText().find("sessions_served = 1"),
            std::string::npos);
  server.Stop();
}

TEST(QueryServerLoop, ShowServerStatsAcceptsTrailingSemicolon) {
  // A terminating ';' separates tokens, as it does for every other
  // statement, so these reach the server's own stats and not the session.
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());
  auto conn = TcpConnect("127.0.0.1", server.port(), 2'000);
  ASSERT_TRUE(conn.ok());
  (*conn)->set_deadline_millis(30'000);
  ASSERT_TRUE((*conn)->RecvFrame().ok());  // greeting
  for (const char* statement : {"SHOW SERVER STATS;", "show server stats ;"}) {
    ASSERT_TRUE((*conn)->SendFrame(statement).ok());
    auto response = (*conn)->RecvFrame();
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->rfind("ok\n", 0), 0u) << *response;
    EXPECT_NE(response->find("sessions_served = 1"), std::string::npos)
        << statement << " -> " << *response;
  }
  server.Stop();
}

TEST(QueryServerLoop, PipelinedSetBecomesTheNextSelectDefault) {
  // A statement is parsed when it is dispatched, after every statement
  // before it has run, so a SET sent in the same write as a SELECT already
  // supplies the SELECT's default precision.
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());
  auto conn = TcpConnect("127.0.0.1", server.port(), 2'000);
  ASSERT_TRUE(conn.ok());
  (*conn)->set_deadline_millis(30'000);
  ASSERT_TRUE((*conn)->RecvFrame().ok());  // greeting
  ASSERT_TRUE(
      (*conn)
          ->SendFrame("CREATE TABLE t FROM NORMAL(100, 20) ROWS 1e5 BLOCKS 2")
          .ok());
  auto created = (*conn)->RecvFrame();
  ASSERT_TRUE(created.ok()) << created.status();
  ASSERT_EQ(created->rfind("ok\n", 0), 0u) << *created;

  ASSERT_TRUE((*conn)
                  ->SendRaw(EncodeFrame("SET precision 0.7") +
                            EncodeFrame("SELECT AVG(value) FROM t"))
                  .ok());
  auto set = (*conn)->RecvFrame();
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_EQ(set->rfind("ok\n", 0), 0u) << *set;
  auto select = (*conn)->RecvFrame();
  ASSERT_TRUE(select.ok()) << select.status();
  EXPECT_NE(select->find("precision=+/-0.7"), std::string::npos) << *select;
  server.Stop();
}

TEST(ServerStats, LatencyHistogramPercentilesAreOrdered) {
  stats::LatencyHistogram h;
  for (int i = 0; i < 98; ++i) h.Record(100);     // the p50 cluster
  for (int i = 0; i < 2; ++i) h.Record(50'000);   // the tail
  EXPECT_EQ(h.count(), 100u);
  double p50 = h.PercentileMicros(0.50);
  double p99 = h.PercentileMicros(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_GE(p99, p50);
  EXPECT_LT(p50, 1'000.0);   // the cluster at ~100us
  EXPECT_GT(p99, 10'000.0);  // the outlier at 50ms
}

TEST(ServerStats, AllSubMicrosecondWorkloadReportsZero) {
  // The old geometric-midpoint estimate reported p50 = sqrt(1·2) ≈ 1.41 µs
  // when every statement was sub-microsecond. Bucket 0 is [0, 2) µs and
  // starts at 0, so 0 is the only honest answer.
  stats::LatencyHistogram h;
  for (int i = 0; i < 50; ++i) h.Record(0);
  for (int i = 0; i < 50; ++i) h.Record(1);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.PercentileMicros(q), 0.0) << "q=" << q;
  }
}

TEST(ServerStats, EmptyHistogramReportsZero) {
  stats::LatencyHistogram h;
  EXPECT_EQ(h.PercentileMicros(0.5), 0.0);
}

TEST(ServerStats, RankInterpolatesLinearlyWithinItsBucket) {
  // Four samples of 100 µs all land in bucket 6 ([64, 128)); rank r of
  // {0..3} maps to 64 + 64·r/4.
  stats::LatencyHistogram h;
  for (int i = 0; i < 4; ++i) h.Record(100);
  EXPECT_EQ(h.PercentileMicros(0.0), 64.0);
  EXPECT_EQ(h.PercentileMicros(0.5), 80.0);   // rank 1 of 4
  EXPECT_EQ(h.PercentileMicros(1.0), 112.0);  // rank 3 of 4
  // Never above the bucket's upper bound — the midpoint bug's other face.
  EXPECT_LT(h.PercentileMicros(1.0), 128.0);
}

TEST(ServerStats, MixedBucketsInterpolateFromLowerBound) {
  // Two sub-µs statements and two at ~100 µs: the low ranks sit in bucket
  // 0 (which starts at 0), the high ranks interpolate inside bucket 6.
  stats::LatencyHistogram h;
  h.Record(1);
  h.Record(1);
  h.Record(100);
  h.Record(100);
  EXPECT_EQ(h.PercentileMicros(0.0), 0.0);
  EXPECT_EQ(h.PercentileMicros(1.0), 96.0);  // rank 3 → idx 1 of 2 in [64,128)
}

TEST(ServerStats, OpenEndedTopBucketReportsItsLowerBound) {
  stats::LatencyHistogram h;
  h.Record(~uint64_t{0});
  EXPECT_EQ(h.PercentileMicros(1.0),
            std::ldexp(1.0, stats::LatencyHistogram::kBuckets - 1));
}

}  // namespace
}  // namespace net
}  // namespace isla
