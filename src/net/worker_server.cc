#include "net/worker_server.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "distributed/message.h"
#include "util/rng.h"

namespace isla {
namespace net {

namespace {

/// Receive deadline inside a session loop tick. Short, because each timeout
/// is just a stop-flag check — an idle coordinator connection is kept open
/// across ticks, not dropped.
constexpr int64_t kTickMillis = 250;

}  // namespace

WorkerServer::WorkerServer(std::unique_ptr<distributed::Worker> worker,
                           WorkerServerOptions options)
    : worker_(std::move(worker)), options_(options) {}

WorkerServer::~WorkerServer() { Stop(); }

Status WorkerServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  ISLA_ASSIGN_OR_RETURN(listener_, Listener::Bind(options_.port));
  port_ = listener_->port();
  stop_.store(false, std::memory_order_relaxed);  // Stop() leaves it set.
  started_ = true;
  if (options_.fault != FaultMode::kNone && options_.fault_first_n > 0 &&
      fault_sends_ == nullptr) {
    // Server-wide send counter: the transient window must survive client
    // reconnects, so it cannot live in any one FaultyConnection. Created
    // once — a Stop()/Start() cycle keeps the window's progress.
    fault_sends_ = std::make_shared<std::atomic<uint64_t>>(0);
  }
  threads_.Spawn([this] { AcceptLoop(); });
  if (!options_.coordinator_host.empty() && options_.coordinator_port != 0) {
    threads_.Spawn([this] { RegisterLoop(); });
  }
  return Status::OK();
}

void WorkerServer::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_relaxed);
  // Wake the accept loop, join every loop thread, then release the fd —
  // closing before the join would race the poll against fd-number reuse.
  listener_->Shutdown();
  threads_.JoinAll();
  listener_->Close();
  started_ = false;
}

void WorkerServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    auto accepted = listener_->Accept(kTickMillis);
    if (!accepted.ok()) continue;  // Timeout tick or shutdown.
    std::unique_ptr<Connection> conn = std::move(*accepted);
    // The tick bounds only the idle recv wait (a stop-flag check); sends
    // keep the generous default so a large response frame on a slow link
    // is never clipped mid-write.
    conn->set_recv_deadline_millis(kTickMillis);
    if (options_.fault != FaultMode::kNone) {
      conn = std::make_unique<FaultyConnection>(
          std::move(conn), options_.fault, options_.fault_after_sends,
          options_.fault_first_n, fault_sends_);
    }
    // One dedicated thread per coordinator connection: session loops block
    // on socket reads, which must not occupy the shared compute pool.
    auto shared = std::make_shared<std::unique_ptr<Connection>>(
        std::move(conn));
    threads_.Spawn([this, shared] { Serve(std::move(*shared)); });
  }
}

void WorkerServer::Serve(std::unique_ptr<Connection> conn) {
  while (!stop_.load(std::memory_order_relaxed)) {
    Result<std::string> request = conn->RecvFrame();
    if (!request.ok()) {
      // Timeout ticks keep idle connections alive; anything else (peer
      // disconnect, truncated frame, CRC failure) ends the session. The
      // typed marker is what distinguishes a genuine deadline expiry from
      // an error whose message merely contains "timed out".
      if (request.status().IsTimedOut()) continue;
      return;
    }
    Result<std::string> response = worker_->HandleRequest(*request);
    Status sent =
        response.ok()
            ? conn->SendFrame(*response)
            : conn->SendFrame(distributed::Encode(
                  distributed::ErrorFrame::FromStatus(response.status())));
    if (!sent.ok()) return;
  }
}

bool WorkerServer::SleepUnlessStopped(int64_t millis) {
  // Sliced sleep so Stop() never waits a full heartbeat interval.
  while (millis > 0) {
    if (stop_.load(std::memory_order_relaxed)) return false;
    int64_t slice = std::min<int64_t>(millis, 50);
    std::this_thread::sleep_for(std::chrono::milliseconds(slice));
    millis -= slice;
  }
  return !stop_.load(std::memory_order_relaxed);
}

void WorkerServer::RegisterLoop() {
  distributed::RegisterFrame reg;
  reg.shard_id = worker_->worker_id();
  reg.port = port_;
  reg.block_rows = worker_->block_rows();
  // The shard's machine-portable data identity rides on every
  // announcement, so the registry can refuse a divergent replica before
  // it ever appears in a placement.
  reg.fingerprint = worker_->ShardFingerprint();
  reg.host = options_.advertised_host;
  const std::string frame = distributed::Encode(reg);

  std::unique_ptr<Connection> conn;
  int64_t redial_backoff_millis = 50;
  uint64_t redial_attempt = 0;
  // Deterministic redial jitter (same scheme as FailoverTransport's
  // backoff: no wall clock, reproducible schedules). Salted with the
  // listen port as well as the shard id so replicas of one shard — which
  // share shard_id — don't thundering-herd the registry after a mass
  // restart.
  auto jitter_millis = [&]() -> int64_t {
    return static_cast<int64_t>(
        SplitMix64::Hash(0x4eb0ULL, (reg.shard_id << 16) | port_,
                         redial_attempt++) %
        51);
  };
  while (!stop_.load(std::memory_order_relaxed)) {
    if (conn == nullptr) {
      auto dialed = TcpConnect(options_.coordinator_host,
                               options_.coordinator_port, 1'000);
      if (!dialed.ok()) {
        // Registry not up (yet, or anymore): back off and redial. Workers
        // may legitimately start before their coordinator.
        if (!SleepUnlessStopped(redial_backoff_millis + jitter_millis())) {
          return;
        }
        redial_backoff_millis = std::min<int64_t>(redial_backoff_millis * 2,
                                                  2'000);
        continue;
      }
      conn = std::move(*dialed);
      // An ack should come back within a heartbeat; anything slower means
      // the registry is wedged and redialing beats waiting.
      conn->set_deadline_millis(options_.heartbeat_millis + 1'000);
      redial_backoff_millis = 50;
    }

    // (Re-)announce; the same frame doubles as the heartbeat.
    Status sent = conn->SendFrame(frame);
    Result<std::string> ack_frame =
        sent.ok() ? conn->RecvFrame() : Result<std::string>(sent);
    Result<distributed::RegisterAck> ack =
        ack_frame.ok() ? distributed::DecodeRegisterAck(*ack_frame)
                       : Result<distributed::RegisterAck>(ack_frame.status());
    if (!ack.ok() || ack->accepted == 0) {
      if (ack.ok() && ack->reason != 0) {
        register_refusals_.fetch_add(1, std::memory_order_relaxed);
      }
      conn.reset();
      if (!SleepUnlessStopped(redial_backoff_millis + jitter_millis())) {
        return;
      }
      continue;
    }
    heartbeats_acked_.fetch_add(1, std::memory_order_relaxed);
    if (!SleepUnlessStopped(options_.heartbeat_millis)) return;
  }
}

}  // namespace net
}  // namespace isla
