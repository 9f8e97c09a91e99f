#include "net/event_loop.h"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cstring>
#include <utility>

namespace isla {
namespace net {

namespace {

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status EventLoop::Init() {
  if (epoll_fd_ >= 0) return Status::FailedPrecondition("loop already inited");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    Status st = Errno("eventfd");
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return st;
  }
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    return Errno("epoll_ctl(wake)");
  }
  return Status::OK();
}

Status EventLoop::Add(int fd, uint32_t events, Handler handler) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    return Errno("epoll_ctl(add)");
  }
  handlers_[fd] = std::make_shared<Handler>(std::move(handler));
  return Status::OK();
}

Status EventLoop::Modify(int fd, uint32_t events) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    return Errno("epoll_ctl(mod)");
  }
  return Status::OK();
}

void EventLoop::Remove(int fd) {
  if (handlers_.erase(fd) == 0) return;
  // Failure is fine: the fd may already be closed (kernel auto-deregisters).
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    tasks_.push_back(std::move(task));
  }
  Wake();
}

void EventLoop::Wake() {
  uint64_t one = 1;
  // The eventfd counter saturating (EAGAIN) still leaves it readable, so
  // the wakeup is never lost; other failures only cost the safety tick.
  (void)!::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::DrainTasks() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    batch.swap(tasks_);
  }
  for (auto& task : batch) task();
}

void EventLoop::Run(int64_t tick_millis) {
  constexpr int kMaxEvents = 128;
  struct epoll_event events[kMaxEvents];
  int timeout = tick_millis > 0 && tick_millis <= INT32_MAX
                    ? static_cast<int>(tick_millis)
                    : -1;
  while (!stop_.load(std::memory_order_acquire)) {
    DrainTasks();
    if (stop_.load(std::memory_order_acquire)) break;
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd itself broken: nothing sane left to do.
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained;
        (void)!::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      // Look the handler up per event: an earlier handler in this batch
      // may have removed this fd, and dispatching to a stale handler
      // would touch a dead session.
      auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      std::shared_ptr<Handler> handler = it->second;  // survives self-Remove
      (*handler)(events[i].events);
    }
  }
  // One final drain so a task posted concurrently with Stop (e.g. a
  // session completion) is not silently dropped while the loop could
  // still run it.
  DrainTasks();
  // Consume the Stop() that ended this run, so the loop can be Run again.
  // Clearing the flag on entry instead would lose a Stop() that lands
  // before the runner thread gets here, and Run would never return.
  stop_.store(false, std::memory_order_relaxed);
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  Wake();
}

}  // namespace net
}  // namespace isla
