#ifndef ISLA_NET_EVENT_LOOP_H_
#define ISLA_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace isla {
namespace net {

/// A single-threaded epoll(7) reactor: the building block of the query
/// server's C10K accept/session path. One OS thread calls Run() and drives
/// every fd registered on the loop — thousands of idle sessions cost a few
/// bytes of kernel state each instead of a blocked thread apiece.
///
/// Threading contract:
///  - Add/Modify/Remove and every handler invocation happen on the loop
///    thread (the thread inside Run). Cross-thread work enters through
///    Post(), which enqueues a task and wakes the loop via an eventfd;
///    tasks run on the loop thread before the next poll.
///  - Post() and Stop() are safe from any thread, including handlers.
///
/// Handlers are level-triggered (the epoll default): a handler that does
/// not drain its fd is simply called again, so short reads/writes need no
/// re-arming protocol. A handler may Remove (or close) its own fd, or any
/// other fd, mid-dispatch; events already harvested for a removed fd are
/// dropped, not delivered to a stale handler.
class EventLoop {
 public:
  /// Receives the raw epoll event bits (EPOLLIN | EPOLLOUT | ...).
  using Handler = std::function<void(uint32_t events)>;

  EventLoop() = default;
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll instance and the wakeup eventfd. Must be called
  /// (and succeed) before anything else.
  Status Init();

  /// Registers `fd` for `events` with `handler`. Loop thread only (or
  /// before Run starts). The loop never owns the fd — the caller closes
  /// it, after Remove.
  Status Add(int fd, uint32_t events, Handler handler);

  /// Changes the interest set of a registered fd. Loop thread only.
  Status Modify(int fd, uint32_t events);

  /// Unregisters `fd`; pending harvested events for it are dropped. Loop
  /// thread only. Safe to call for an fd that was never added.
  void Remove(int fd);

  /// Runs `task` on the loop thread before the next poll. Any thread.
  /// Tasks posted after Stop() are retained but never run; they are
  /// destroyed (releasing whatever they capture) with the loop.
  void Post(std::function<void()> task);

  /// Dispatches events and posted tasks until Stop(). `tick_millis`
  /// bounds each epoll wait as a safety tick (<= 0 waits forever; Stop
  /// and Post both wake the loop explicitly, the tick is belt-and-braces).
  void Run(int64_t tick_millis);

  /// Makes Run return after the current dispatch round. Any thread.
  /// Idempotent; a Stop that lands before Run starts makes that Run
  /// return at once, and a stopped loop can be Run again after Stop.
  void Stop();

  /// Registered fds (loop thread; monitoring/tests).
  size_t fd_count() const { return handlers_.size(); }

 private:
  void Wake();
  void DrainTasks();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::unordered_map<int, std::shared_ptr<Handler>> handlers_;
  std::atomic<bool> stop_{false};
  std::mutex task_mu_;
  std::vector<std::function<void()>> tasks_;
};

}  // namespace net
}  // namespace isla

#endif  // ISLA_NET_EVENT_LOOP_H_
