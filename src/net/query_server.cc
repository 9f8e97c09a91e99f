#include "net/query_server.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "engine/query.h"
#include "engine/session.h"
#include "net/frame.h"
#include "net/partial.h"
#include "runtime/kernels/kernels.h"

namespace isla {
namespace net {

namespace {

/// Safety tick for the event loops' epoll waits (wakeups are explicit; the
/// tick only bounds how stale a missed wakeup could ever get).
constexpr int64_t kTickMillis = 250;

int64_t NowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

/// The statement-executor pool: plain threads, deliberately NOT
/// runtime::ThreadPool — its workers mark themselves as pool workers,
/// which would force the engine's nested ParallelFor inline and serialize
/// every statement onto one core. Plain threads keep intra-statement
/// parallelism intact.
class QueryServer::ExecPool {
 public:
  explicit ExecPool(unsigned threads) {
    if (threads == 0) {
      threads = std::max(4u, std::thread::hardware_concurrency());
    }
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { Work(); });
    }
  }

  ~ExecPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      queue_.clear();  // Undispatched statements die with the server.
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  void Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

 private:
  void Work() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ set and nothing left
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

/// One admitted connection: a non-blocking session state machine. The
/// owning event loop is the only thread that touches the input side
/// (inbuf/pending/executing/eof/interest); the output side (outbuf) is
/// shared with executor threads under out_mu, because PARTIAL frames and
/// final responses are produced off-loop.
struct QueryServer::ClientSession {
  explicit ClientSession(const core::IslaOptions& defaults)
      : session(defaults) {}

  int fd = -1;
  EventLoop* loop = nullptr;
  engine::Session session;

  // Loop-thread-only.
  std::string inbuf;                   // raw bytes, possibly mid-frame
  std::deque<std::string> pending;     // framed, not-yet-dispatched statements
  bool executing = false;              // one statement in flight at most:
                                       // that is what keeps pipelined
                                       // responses in statement order
  bool eof = false;                    // peer finished sending
  bool close_after_flush = false;      // quit acknowledged; drain and close
  uint32_t interest = 0;               // current epoll interest set

  // Shared with executor threads, under out_mu.
  std::mutex out_mu;
  std::string outbuf;  // encoded frames waiting for the socket
  size_t out_off = 0;  // bytes of outbuf already written
  bool dead = false;   // closed: reject further output, drop events
};

QueryServer::QueryServer(QueryServerOptions options) : options_(options) {}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  ISLA_RETURN_NOT_OK(options_.session_defaults.Validate());
  ISLA_ASSIGN_OR_RETURN(listener_, Listener::Bind(options_.port));
  port_ = listener_->port();
  // The accept path drains the listen queue until EAGAIN, which requires a
  // non-blocking listening socket.
  int flags = ::fcntl(listener_->fd(), F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(listener_->fd(), F_SETFL, flags | O_NONBLOCK);

  unsigned io_threads = std::max(1u, options_.io_threads);
  loops_.clear();
  for (unsigned i = 0; i < io_threads; ++i) {
    auto loop = std::make_unique<EventLoop>();
    Status st = loop->Init();
    if (!st.ok()) {
      loops_.clear();
      listener_.reset();
      return st;
    }
    loops_.push_back(std::move(loop));
  }
  // Register before the loop threads start, so no cross-thread Add needed.
  Status st = loops_[0]->Add(listener_->fd(), EPOLLIN,
                             [this](uint32_t) { AcceptReady(); });
  if (!st.ok()) {
    loops_.clear();
    listener_.reset();
    return st;
  }

  exec_pool_ = std::make_unique<ExecPool>(options_.exec_threads);
  stop_.store(false, std::memory_order_relaxed);  // Stop() leaves it set.
  started_at_millis_ = NowMillis();
  started_ = true;
  for (auto& loop : loops_) {
    EventLoop* l = loop.get();
    loop_threads_.Spawn([l] { l->Run(kTickMillis); });
  }
  return Status::OK();
}

void QueryServer::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_relaxed);
  // Ordering matters: stop the loops (no new reads/accepts), join them,
  // then join the executors (in-flight statements run to completion; their
  // completion posts land in stopped loops and are simply dropped), and
  // only then tear the remaining sessions down — nothing can touch their
  // fds any more.
  for (auto& loop : loops_) loop->Stop();
  loop_threads_.JoinAll();
  exec_pool_.reset();
  std::set<std::shared_ptr<ClientSession>> leftover;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    leftover.swap(sessions_);
  }
  for (const auto& s : leftover) {
    std::lock_guard<std::mutex> lock(s->out_mu);
    if (!s->dead) {
      s->dead = true;
      ::close(s->fd);
      active_sessions_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  loops_.clear();  // Releases tasks posted after Stop (and their captures).
  listener_->Close();
  listener_.reset();
  started_ = false;
}

std::string QueryServer::StatsText() const {
  double uptime_seconds =
      started_ ? static_cast<double>(NowMillis() - started_at_millis_) / 1e3
               : 0.0;
  unsigned io_threads = loops_.empty() ? std::max(1u, options_.io_threads)
                                       : static_cast<unsigned>(loops_.size());
  unsigned exec_threads = exec_pool_ ? exec_pool_->size() : 0;
  return stats_.Render(active_sessions(), sessions_served(),
                       options_.max_sessions, io_threads, exec_threads,
                       uptime_seconds, runtime::kernels::ActiveLevelName());
}

void QueryServer::AcceptReady() {
  for (;;) {
    int fd = ::accept4(listener_->fd(), nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (queue drained), ECONNABORTED, or shutdown.
    }
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.sndbuf_bytes > 0) {
      (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                         sizeof(options_.sndbuf_bytes));
    }
    // Reserve-then-accept: take the slot atomically BEFORE deciding, and
    // roll it back on refusal. Unlike load-then-add, concurrent accepts
    // can never both pass the check and overshoot the limit.
    uint64_t reserved = active_sessions_.fetch_add(1, std::memory_order_relaxed);
    if (reserved >= options_.max_sessions) {
      active_sessions_.fetch_sub(1, std::memory_order_relaxed);
      stats_.RecordRefusal();
      Refuse(fd);
      continue;
    }
    stats_.RecordPeakSessions(reserved + 1);
    sessions_served_.fetch_add(1, std::memory_order_relaxed);

    auto s = std::make_shared<ClientSession>(options_.session_defaults);
    s->fd = fd;
    s->session.set_scheduler(&scheduler_);
    s->loop = loops_[next_loop_.fetch_add(1, std::memory_order_relaxed) %
                     loops_.size()]
                  .get();
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions_.insert(s);
    }
    if (s->loop == loops_[0].get()) {
      RegisterSession(s);
    } else {
      s->loop->Post([this, s] { RegisterSession(s); });
    }
  }
}

void QueryServer::Refuse(int fd) {
  // Refuse loudly instead of queueing: the client learns immediately. The
  // frame is tens of bytes — one send in practice; the bounded poll loop
  // only exists for a peer whose receive window is already full.
  std::string frame =
      EncodeFrame("error: ResourceExhausted: session limit " +
                  std::to_string(options_.max_sessions) +
                  " reached, try again later");
  size_t off = 0;
  for (int rounds = 0; off < frame.size() && rounds < 8; ++rounds) {
    ssize_t n = ::send(fd, frame.data() + off, frame.size() - off,
                       MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      struct pollfd p = {fd, POLLOUT, 0};
      (void)::poll(&p, 1, 250);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  ::close(fd);
}

void QueryServer::RegisterSession(const std::shared_ptr<ClientSession>& s) {
  // The handler capture keeps the session alive while it is registered;
  // CloseSession's Remove drops that reference.
  Status st = s->loop->Add(
      s->fd, EPOLLIN | EPOLLRDHUP,
      [this, s](uint32_t events) { OnSessionEvent(s, events); });
  if (!st.ok()) {
    {
      std::lock_guard<std::mutex> lock(s->out_mu);
      s->dead = true;
    }
    ::close(s->fd);
    active_sessions_.fetch_sub(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.erase(s);
    return;
  }
  s->interest = EPOLLIN | EPOLLRDHUP;
  (void)EnqueueFrame(s, "ok\nisla query server ready");
}

void QueryServer::OnSessionEvent(const std::shared_ptr<ClientSession>& s,
                                 uint32_t events) {
  if (s->dead) return;
  if (events & (EPOLLIN | EPOLLRDHUP)) ReadInput(s);
  if (s->dead) return;
  if (events & EPOLLOUT) FlushOutput(s);
  if (s->dead) return;
  if (events & (EPOLLHUP | EPOLLERR)) {
    CloseSession(s);
    return;
  }
  Advance(s);
}

void QueryServer::ReadInput(const std::shared_ptr<ClientSession>& s) {
  // Bounded drain: up to 256 KiB per event, so one firehose client cannot
  // monopolize the loop or balloon inbuf. Level-triggered epoll re-arms
  // whatever is left.
  char buf[64 * 1024];
  size_t total = 0;
  while (total < 4 * sizeof(buf)) {
    ssize_t n = ::recv(s->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      s->inbuf.append(buf, static_cast<size_t>(n));
      total += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      s->eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseSession(s);  // ECONNRESET and friends: the peer is gone.
    return;
  }
  DecodeFrames(s);
}

void QueryServer::DecodeFrames(const std::shared_ptr<ClientSession>& s) {
  size_t off = 0;
  while (s->inbuf.size() - off >= kFrameHeaderBytes) {
    auto header = DecodeFrameHeader(s->inbuf.data() + off);
    if (!header.ok()) {
      // Bad magic / absurd length: the stream is desynchronised and cannot
      // be trusted again. Same policy as the blocking server: drop it.
      CloseSession(s);
      return;
    }
    if (s->inbuf.size() - off - kFrameHeaderBytes < header->payload_length) {
      break;  // mid-frame; wait for more bytes
    }
    std::string_view payload(s->inbuf.data() + off + kFrameHeaderBytes,
                             header->payload_length);
    if (!VerifyFramePayload(*header, payload).ok()) {
      CloseSession(s);
      return;
    }
    s->pending.emplace_back(payload);
    off += kFrameHeaderBytes + header->payload_length;
  }
  if (off > 0) s->inbuf.erase(0, off);
}

void QueryServer::Advance(const std::shared_ptr<ClientSession>& s) {
  if (s->dead) return;
  while (!s->executing && !s->close_after_flush && !s->pending.empty()) {
    std::string text = std::move(s->pending.front());
    s->pending.pop_front();
    if (text == "quit" || text == "exit") {
      (void)EnqueueFrame(s, "ok\nbye");
      s->close_after_flush = true;
      s->pending.clear();  // nothing after quit runs
      break;
    }
    // Parsed here, when none of the session's statements is executing, so
    // a pipelined SET is already the default of the SELECT after it.
    Result<engine::Statement> statement =
        engine::ParseStatement(text, s->session.query_defaults());
    const auto* show =
        statement.ok() ? std::get_if<engine::ShowStatement>(&*statement)
                       : nullptr;
    if (show != nullptr &&
        show->target == engine::ShowStatement::Target::kServerStats) {
      // It is about the process, not the session: answered on the loop
      // thread, but through the same pending queue as everything else, so
      // pipelined responses stay in statement order.
      (void)EnqueueFrame(s, "ok\n" + StatsText());
      continue;
    }
    s->executing = true;
    exec_pool_->Submit(
        [this, s, statement = std::move(statement)] {
          ExecuteStatement(s, statement);
        });
  }
  UpdateInterest(s);
}

void QueryServer::ExecuteStatement(
    const std::shared_ptr<ClientSession>& s,
    const Result<engine::Statement>& statement) {
  auto start = std::chrono::steady_clock::now();
  // Streaming statements push one PARTIAL frame per refinement round. An
  // enqueue failure (client gone, or its outbound buffer over the
  // high-water mark) aborts the statement — a stalled reader must not pin
  // a scan batch for rounds nobody will ever read.
  engine::PartialSink sink = [this, &s](const engine::PartialAnswer& pa) {
    PartialFrame frame;
    frame.round = pa.round;
    frame.total_rounds = pa.total_rounds;
    frame.samples = pa.samples;
    frame.value = pa.value;
    frame.ci_half_width = pa.ci_half_width;
    frame.confidence = pa.confidence;
    return EnqueueFrame(s, EncodePartialFrame(frame));
  };
  Result<std::string> response =
      statement.ok() ? s->session.Execute(*statement, sink)
                     : Result<std::string>(statement.status());
  uint64_t micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  // The scan tag is the table a successful SELECT read; every other
  // statement scanned nothing.
  const auto* spec =
      statement.ok() ? std::get_if<engine::QuerySpec>(&*statement) : nullptr;
  stats_.RecordStatement(
      micros, response.ok() && spec != nullptr ? spec->table : "");
  if (response.ok()) {
    (void)EnqueueFrame(s, "ok\n" + *response);
  } else {
    (void)EnqueueFrame(s, "error: " + response.status().ToString());
  }
  s->loop->Post([this, s] {
    s->executing = false;
    if (!s->dead) Advance(s);
  });
}

Status QueryServer::EnqueueFrame(const std::shared_ptr<ClientSession>& s,
                                 std::string_view payload) {
  std::string frame = EncodeFrame(payload);
  bool over_high_water = false;
  {
    std::lock_guard<std::mutex> lock(s->out_mu);
    if (s->dead) return Status::IOError("session closed");
    s->outbuf += frame;
    over_high_water =
        s->outbuf.size() - s->out_off > options_.max_outbound_bytes;
  }
  if (over_high_water) {
    stats_.RecordSlowClientDisconnect();
    s->loop->Post([this, s] { CloseSession(s); });
    return Status::IOError(
        "slow client: outbound buffer over high-water mark");
  }
  s->loop->Post([this, s] { FlushOutput(s); });
  return Status::OK();
}

void QueryServer::FlushOutput(const std::shared_ptr<ClientSession>& s) {
  if (s->dead) return;
  bool fatal = false;
  {
    std::lock_guard<std::mutex> lock(s->out_mu);
    while (s->out_off < s->outbuf.size()) {
      ssize_t n = ::send(s->fd, s->outbuf.data() + s->out_off,
                         s->outbuf.size() - s->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        s->out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      fatal = true;  // EPIPE/ECONNRESET: the reader is gone.
      break;
    }
    if (s->out_off == s->outbuf.size()) {
      s->outbuf.clear();
      s->out_off = 0;
    } else if (s->out_off > (64u << 10)) {
      s->outbuf.erase(0, s->out_off);
      s->out_off = 0;
    }
  }
  if (fatal) {
    CloseSession(s);
    return;
  }
  UpdateInterest(s);
}

void QueryServer::UpdateInterest(const std::shared_ptr<ClientSession>& s) {
  if (s->dead) return;
  bool out_empty;
  {
    std::lock_guard<std::mutex> lock(s->out_mu);
    out_empty = s->out_off == s->outbuf.size();
  }
  if (out_empty && s->close_after_flush) {
    CloseSession(s);  // "ok\nbye" delivered
    return;
  }
  if (out_empty && s->eof && !s->executing && s->pending.empty()) {
    CloseSession(s);  // peer finished, nothing left to do
    return;
  }
  uint32_t want = 0;
  // Read-side admission control: when a pipelining client has
  // max_pending_statements queued, stop reading its socket and let TCP
  // flow control push back — ordering is preserved and memory bounded.
  if (!s->eof && !s->close_after_flush &&
      s->pending.size() < options_.max_pending_statements) {
    want |= EPOLLIN | EPOLLRDHUP;
  }
  if (!out_empty) want |= EPOLLOUT;
  if (want != s->interest && s->loop->Modify(s->fd, want).ok()) {
    s->interest = want;
  }
}

void QueryServer::CloseSession(const std::shared_ptr<ClientSession>& s) {
  {
    std::lock_guard<std::mutex> lock(s->out_mu);
    if (s->dead) return;
    s->dead = true;
    s->outbuf.clear();
    s->out_off = 0;
  }
  s->loop->Remove(s->fd);
  ::close(s->fd);
  active_sessions_.fetch_sub(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.erase(s);
}

}  // namespace net
}  // namespace isla
