// Fault-injection suite for the TCP transport: every wire-level failure a
// worker can inflict on a coordinator — truncated frames, corrupted CRCs,
// disconnects mid-scan, and stalls — must surface as a clean Status at the
// coordinator. No hang (deadlines bound every wait), no crash (the suite
// runs under the CI ASan+UBSan job), no wrong answer (a damaged frame can
// never decode into a plausible partial, thanks to the frame CRC and the
// per-message length checks).
//
// Faults are injected by net::FaultyConnection, wrapped around each
// accepted connection inside WorkerServer via WorkerServerOptions::fault.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/options.h"
#include "distributed/coordinator.h"
#include "distributed/failover.h"
#include "distributed/worker.h"
#include "net/connection.h"
#include "net/faulty_connection.h"
#include "net/partial.h"
#include "net/query_server.h"
#include "net/tcp_transport.h"
#include "net/worker_server.h"
#include "stats/distribution.h"
#include "storage/block.h"
#include "util/rng.h"
#include "util/timer.h"

namespace isla {
namespace net {
namespace {

std::unique_ptr<distributed::Worker> NormalWorker(uint64_t id,
                                                  uint64_t rows) {
  return std::make_unique<distributed::Worker>(
      id, std::make_shared<storage::GeneratorBlock>(
              std::make_shared<stats::NormalDistribution>(100.0, 20.0), rows,
              SplitMix64::Hash(5150, id)));
}

/// Runs one distributed AVG against a 2-worker cluster where worker 1 is
/// faulty, and returns the coordinator's status. The healthy worker 0
/// proves the coordinator keeps distinguishing good peers from bad ones.
Status RunWithFaultyWorker(FaultMode mode, uint64_t fault_after_sends,
                           int64_t call_deadline_millis = 2'000) {
  auto healthy = std::make_unique<WorkerServer>(NormalWorker(0, 100'000));
  EXPECT_TRUE(healthy->Start().ok());

  WorkerServerOptions faulty_options;
  faulty_options.fault = mode;
  faulty_options.fault_after_sends = fault_after_sends;
  auto faulty = std::make_unique<WorkerServer>(NormalWorker(1, 100'000),
                                               faulty_options);
  EXPECT_TRUE(faulty->Start().ok());

  TcpTransportOptions topts;
  topts.call_deadline_millis = call_deadline_millis;
  TcpTransport transport(
      {{"127.0.0.1", healthy->port()}, {"127.0.0.1", faulty->port()}},
      topts);
  core::IslaOptions options;
  options.precision = 0.3;
  distributed::Coordinator coordinator(&transport, options);
  Status status = coordinator.AggregateAvg().status();
  // Explicit stops: the servers must unwind cleanly while a poisoned
  // connection is still half-open (leaks would trip ASan).
  faulty->Stop();
  healthy->Stop();
  return status;
}

TEST(FaultInjection, TruncatedFrameSurfacesAsCorruption) {
  Status s = RunWithFaultyWorker(FaultMode::kTruncateFrame,
                                 /*fault_after_sends=*/0);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s;
}

TEST(FaultInjection, CorruptedCrcSurfacesAsCorruption) {
  Status s = RunWithFaultyWorker(FaultMode::kCorruptCrc,
                                 /*fault_after_sends=*/0);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s;
}

TEST(FaultInjection, WorkerDisconnectMidScanSurfacesCleanly) {
  // The first two responses (σ pilot + sketch pilot) pass through cleanly,
  // then the worker drops the connection exactly when the coordinator is
  // waiting for the expensive plan-round partial — the mid-scan disconnect.
  Status s = RunWithFaultyWorker(FaultMode::kCloseInsteadOfSend,
                                 /*fault_after_sends=*/2);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError() || s.IsCorruption()) << s;
}

TEST(FaultInjection, StalledWorkerHitsDeadlineInsteadOfHanging) {
  // The worker accepts the plan but never answers. The per-call deadline
  // must fire; without it this test would hang the job (which is why the
  // CI satellite also adds a ctest timeout as a backstop).
  Status s = RunWithFaultyWorker(FaultMode::kStall,
                                 /*fault_after_sends=*/2,
                                 /*call_deadline_millis=*/300);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError()) << s;
  EXPECT_NE(s.message().find("timed out"), std::string::npos) << s;
}

TEST(FaultInjection, StallOnFirstRequestAlsoBounded) {
  Status s = RunWithFaultyWorker(FaultMode::kStall,
                                 /*fault_after_sends=*/0,
                                 /*call_deadline_millis=*/300);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError()) << s;
}

TEST(FaultInjection, GroupedScanFaultsSurfaceCleanly) {
  // The grouped path (metadata → pilot → main scan) crosses more frames;
  // inject a mid-run disconnect there too.
  std::vector<double> vals(50'000), ks(50'000);
  Xoshiro256 rng(7);
  for (size_t i = 0; i < vals.size(); ++i) {
    ks[i] = static_cast<double>(rng.NextBounded(3));
    vals[i] = ks[i] * 5.0 + rng.NextDouble();
  }
  auto vb = std::make_shared<storage::MemoryBlock>(std::move(vals));
  auto kb = std::make_shared<storage::MemoryBlock>(std::move(ks));

  WorkerServerOptions faulty_options;
  faulty_options.fault = FaultMode::kTruncateFrame;
  faulty_options.fault_after_sends = 2;  // metadata + pilot pass, scan dies
  WorkerServer server(
      std::make_unique<distributed::Worker>(0, vb, nullptr, kb),
      faulty_options);
  ASSERT_TRUE(server.Start().ok());

  TcpTransportOptions topts;
  topts.call_deadline_millis = 2'000;
  TcpTransport transport({{"127.0.0.1", server.port()}}, topts);
  core::IslaOptions options;
  options.precision = 0.5;
  distributed::Coordinator coordinator(&transport, options);
  distributed::GroupedQuerySpec wire;
  wire.has_group = true;
  auto r = coordinator.AggregateGrouped(wire);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption() || r.status().IsIOError())
      << r.status();
}

TEST(FaultInjection, ErrorFrameCarriesTheWorkerStatus) {
  // Not a wire fault: a *request-level* failure (grouped scan against a
  // worker with no key shard) must cross the wire as an ErrorFrame and
  // come back as the worker's own FailedPrecondition, message intact.
  WorkerServer server(NormalWorker(0, 10'000));
  ASSERT_TRUE(server.Start().ok());
  TcpTransport transport({{"127.0.0.1", server.port()}});
  distributed::Coordinator coordinator(&transport, core::IslaOptions{});
  distributed::GroupedQuerySpec wire;
  wire.has_group = true;
  auto r = coordinator.AggregateGrouped(wire);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsFailedPrecondition()) << r.status();
  EXPECT_NE(r.status().message().find("group column"), std::string::npos)
      << r.status();
}

TEST(FaultInjection, TransportRecoversAfterFaultyCall) {
  // A poisoned connection must not wedge the transport: the slot resets
  // and the next call reconnects. (The faulty server truncates every
  // response, so the retry fails the same way — but through a *fresh*
  // connection, proving the reset path. A healthy restart on the same
  // port is not portable to assert, so we check the error is stable.)
  WorkerServerOptions faulty_options;
  faulty_options.fault = FaultMode::kCorruptCrc;
  WorkerServer server(NormalWorker(0, 10'000), faulty_options);
  ASSERT_TRUE(server.Start().ok());

  TcpTransport transport({{"127.0.0.1", server.port()}});
  distributed::PilotRequest req{1, 10, 42};
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto r = transport.Call(0, distributed::Encode(req));
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsCorruption()) << r.status();
  }
}

TEST(FaultInjection, ClientDisconnectMidStreamLeavesOtherSessionsHealthy) {
  // A streaming client that hangs up between PARTIAL frames must only kill
  // its own statement: the server thread sees the failed send, drops the
  // session, and every other session — including ones sharing the same
  // scheduler — keeps answering, and new sessions are still accepted.
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());

  // Session B: a long-lived healthy session issuing scheduler-routed
  // queries concurrently with A's death.
  auto connect = [&]() {
    auto conn = TcpConnect("127.0.0.1", server.port(), 2'000);
    EXPECT_TRUE(conn.ok()) << conn.status();
    auto greeting = (*conn)->RecvFrame();
    EXPECT_TRUE(greeting.ok()) << greeting.status();
    return std::move(*conn);
  };
  auto roundtrip = [](Connection* conn, const std::string& statement) {
    EXPECT_TRUE(conn->SendFrame(statement).ok());
    auto response = conn->RecvFrame();
    EXPECT_TRUE(response.ok()) << response.status();
    return response.ok() ? *response : std::string();
  };

  std::unique_ptr<Connection> b = connect();
  roundtrip(b.get(),
            "CREATE TABLE t FROM NORMAL(100, 20) ROWS 1e6 BLOCKS 4");

  // Session A: start a multi-round streaming statement, read the first
  // PARTIAL frame to prove the stream is live, then vanish without reading
  // the rest.
  {
    std::unique_ptr<Connection> a = connect();
    roundtrip(a.get(),
              "CREATE TABLE s FROM NORMAL(100, 20) ROWS 1e6 BLOCKS 4");
    roundtrip(a.get(), "SET stream 8");
    ASSERT_TRUE(
        a->SendFrame("SELECT AVG(value) FROM s WITHIN 0.05").ok());
    auto first = a->RecvFrame();
    ASSERT_TRUE(first.ok()) << first.status();
    EXPECT_TRUE(IsPartialFrame(*first));
    a->Close();  // mid-stream disconnect: rounds 2..8 have nowhere to go
  }

  // B keeps working while A's session unwinds, across the scheduler path
  // (WHERE → grouped sampling) and the cache (repeat hits).
  for (int i = 0; i < 3; ++i) {
    std::string r = roundtrip(
        b.get(), "SELECT AVG(value) FROM t WHERE value >= 90 WITHIN 0.5");
    EXPECT_NE(r.find("ok\nAVG = "), std::string::npos) << r;
  }

  // And the server still accepts fresh sessions afterwards.
  std::unique_ptr<Connection> c = connect();
  EXPECT_NE(roundtrip(c.get(), "SHOW STATS").find("ok\nkernels = "),
            std::string::npos);
  server.Stop();
}

TEST(FaultInjection, ConcurrentBatchMembersSurviveOneMemberDisconnect) {
  // Several sessions submit the same query at once while one of them drops
  // its socket right after sending. Every session that joins the shared
  // in-flight execution must receive a correct answer — the scheduler
  // completes it for everyone; only the dead member's response send fails.
  QueryServerOptions options;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const std::string create =
      "CREATE TABLE t FROM NORMAL(100, 20) ROWS 1e6 BLOCKS 4";
  const std::string query =
      "SELECT AVG(value) FROM t WHERE value >= 90 WITHIN 0.4";

  constexpr int kSurvivors = 3;
  std::vector<std::string> answers(kSurvivors);
  std::vector<std::thread> threads;
  for (int s = 0; s < kSurvivors; ++s) {
    threads.emplace_back([&, s] {
      auto conn = TcpConnect("127.0.0.1", server.port(), 2'000);
      ASSERT_TRUE(conn.ok()) << conn.status();
      (*conn)->set_deadline_millis(60'000);
      ASSERT_TRUE((*conn)->RecvFrame().ok());
      ASSERT_TRUE((*conn)->SendFrame(create).ok());
      ASSERT_TRUE((*conn)->RecvFrame().ok());
      ASSERT_TRUE((*conn)->SendFrame(query).ok());
      auto response = (*conn)->RecvFrame();
      ASSERT_TRUE(response.ok()) << response.status();
      answers[s] = *response;
    });
  }
  threads.emplace_back([&] {
    auto conn = TcpConnect("127.0.0.1", server.port(), 2'000);
    ASSERT_TRUE(conn.ok()) << conn.status();
    ASSERT_TRUE((*conn)->RecvFrame().ok());
    ASSERT_TRUE((*conn)->SendFrame(create).ok());
    ASSERT_TRUE((*conn)->RecvFrame().ok());
    ASSERT_TRUE((*conn)->SendFrame(query).ok());
    (*conn)->Close();  // gone before its answer is ready
  });
  for (auto& t : threads) t.join();

  for (int s = 0; s < kSurvivors; ++s) {
    EXPECT_NE(answers[s].find("ok\nAVG = "), std::string::npos)
        << "session " << s << ": " << answers[s];
  }
  server.Stop();
}

TEST(WorkerKill, KilledMidQuerySurfacesCleanStatusWithoutHang) {
  // A worker process dying mid-query (not a wire glitch: the whole server
  // goes away while the coordinator waits on the plan-round response) must
  // surface as a clean Status well before the call deadline — the kill
  // closes the socket, and that EOF is what unblocks the coordinator.
  auto healthy = std::make_unique<WorkerServer>(NormalWorker(0, 100'000));
  ASSERT_TRUE(healthy->Start().ok());

  // The victim stalls at the plan round so the coordinator is provably
  // in-flight against it when the kill lands.
  WorkerServerOptions victim_options;
  victim_options.fault = FaultMode::kStall;
  victim_options.fault_after_sends = 2;
  auto victim = std::make_unique<WorkerServer>(NormalWorker(1, 100'000),
                                               victim_options);
  ASSERT_TRUE(victim->Start().ok());

  TcpTransportOptions topts;
  topts.call_deadline_millis = 10'000;  // The kill, not this, must unblock.
  TcpTransport transport(
      {{"127.0.0.1", healthy->port()}, {"127.0.0.1", victim->port()}},
      topts);
  core::IslaOptions options;
  options.precision = 0.3;
  distributed::Coordinator coordinator(&transport, options);

  std::thread killer([&victim] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    victim->Stop();
  });
  Timer timer;
  Status status = coordinator.AggregateAvg().status();
  double elapsed = timer.ElapsedMillis();
  killer.join();

  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsIOError() || status.IsCorruption()) << status;
  // Far under both the 10s call deadline and the ctest timeout: the
  // coordinator noticed the death, it did not wait anything out.
  EXPECT_LT(elapsed, 5'000.0) << "kill did not unblock the coordinator";
  healthy->Stop();
}

TEST(WorkerKill, ReplicatedShardSurvivesKillMidQueryBitIdentical) {
  // Same kill, but the shard has a second replica (same worker id, same
  // shard data): the failover transport must absorb the death and finish
  // the query with the answer the healthy cluster would have given.
  WorkerServerOptions victim_options;
  victim_options.fault = FaultMode::kStall;
  victim_options.fault_after_sends = 2;  // pilots pass, plan round stalls
  auto victim = std::make_unique<WorkerServer>(NormalWorker(0, 100'000),
                                               victim_options);
  ASSERT_TRUE(victim->Start().ok());
  auto replica = std::make_unique<WorkerServer>(NormalWorker(0, 100'000));
  ASSERT_TRUE(replica->Start().ok());

  TcpTransportOptions topts;
  topts.call_deadline_millis = 10'000;
  topts.reconnect_attempts = 1;
  TcpTransport inner(
      {{"127.0.0.1", victim->port()}, {"127.0.0.1", replica->port()}},
      topts);
  distributed::FailoverOptions fopts;
  fopts.enable_hedging = false;  // the kill, not a hedge, must save us
  fopts.backoff_base_millis = 1;
  fopts.backoff_max_millis = 5;
  // Shard 0 prefers channel 0 — exactly the server we kill mid-query.
  distributed::FailoverTransport transport(&inner, {{0, 1}}, fopts);

  core::IslaOptions options;
  options.precision = 0.3;
  distributed::Coordinator coordinator(&transport, options);

  std::thread killer([&victim] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    victim->Stop();
  });
  auto degraded = coordinator.AggregateAvg();
  killer.join();
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_GE(degraded->failover.failovers, 1u);
  EXPECT_EQ(degraded->failover.exhausted, 0u);

  // Bit-identical to the healthy answer: per-block RNG streams make the
  // surviving replica produce exactly what the dead one would have.
  std::vector<std::unique_ptr<distributed::Worker>> local;
  local.push_back(NormalWorker(0, 100'000));
  distributed::LoopbackTransport loopback(std::move(local));
  distributed::Coordinator reference(&loopback, options);
  auto healthy = reference.AggregateAvg();
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_EQ(degraded->average, healthy->average);
  EXPECT_EQ(degraded->sum, healthy->sum);
  EXPECT_EQ(degraded->total_samples, healthy->total_samples);
  replica->Stop();
}

}  // namespace
}  // namespace net
}  // namespace isla
