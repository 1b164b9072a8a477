#ifndef BESTPEER_NET_REACTOR_H_
#define BESTPEER_NET_REACTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/sim_time.h"

namespace bestpeer::net {

/// Puts `fd` in non-blocking mode (best effort, like every caller needs).
void SetNonBlocking(int fd);

/// A single-threaded I/O event loop: non-blocking sockets multiplexed
/// with epoll (poll(2) fallback on non-Linux), a monotonic timer heap and
/// a cross-thread Post() queue woken through an eventfd/pipe.
///
/// Threading contract: everything except Post()/Run()/Stop()/now_us()
/// must be called on the reactor thread. All registered callbacks fire on
/// the reactor thread, one at a time — which is what lets the protocol
/// stacks (and the PR-1 metrics registry) stay single-threaded on top of
/// real sockets.
class Reactor {
 public:
  using Fn = std::function<void()>;
  /// Bitmask passed to fd callbacks.
  enum : uint32_t { kReadable = 1, kWritable = 2, kError = 4 };
  using FdFn = std::function<void(uint32_t events)>;

  Reactor();
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  void Start();
  /// Idempotent; drains the post queue, closes the wakeup fds, joins.
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }
  bool OnReactorThread() const;

  /// Enqueues `fn` to run on the reactor thread. Thread-safe. Callable
  /// before Start(); queued work runs once the loop spins up.
  void Post(Fn fn);
  /// Runs `fn` on the reactor thread and waits for it to finish. Runs
  /// inline when already on the reactor thread.
  void Run(Fn fn);

  /// Microseconds since construction (steady clock). Thread-safe.
  int64_t now_us() const;

  /// Schedules `fn` at an absolute now_us()-relative deadline. Reactor
  /// thread only (route external callers through Post). Timers with equal
  /// deadlines fire in the order they were added.
  void AddTimerAt(int64_t deadline_us, Fn fn);

  /// now_us() when the callback now running began: the posted task or
  /// timer the loop is in, or the last MarkCallbackStart(). Fd callbacks
  /// are not stamped; one that needs the stamp marks its own start, as
  /// TcpTransport does for each frame it delivers. Reactor thread only.
  int64_t callback_start_us() const { return callback_start_us_; }
  void MarkCallbackStart() {
    callback_start_us_ = now_us();
    callback_wait_us_ = 0;
  }
  /// Host µs of [callback_start_us(), now] the callback now running spent
  /// waiting rather than working: 0, except in an offloaded continuation,
  /// which resumes the callback that offloaded (ResumeCallback). Reactor
  /// thread only.
  int64_t callback_wait_us() const { return callback_wait_us_; }
  /// Makes the running callback the continuation of one that began at
  /// `start_us` and has since waited `wait_us` (for a worker, and for this
  /// thread). Reactor thread only.
  void ResumeCallback(int64_t start_us, int64_t wait_us) {
    callback_start_us_ = start_us;
    callback_wait_us_ = wait_us;
  }

  /// Registers interest in `fd`. Reactor thread only.
  void AddFd(int fd, bool want_read, bool want_write, FdFn fn);
  void ModFd(int fd, bool want_read, bool want_write);
  /// Deregisters; does not close the fd.
  void RemoveFd(int fd);

 private:
  struct Timer {
    int64_t deadline_us;
    uint64_t seq;  // FIFO among equal deadlines.
    Fn fn;
    bool operator>(const Timer& other) const {
      return deadline_us != other.deadline_us
                 ? deadline_us > other.deadline_us
                 : seq > other.seq;
    }
  };
  struct Watch {
    bool want_read = false;
    bool want_write = false;
    FdFn fn;
  };

  void Loop();
  void Wake();
  void DrainPosted();
  int RunTimersAndTimeout();  // Fires due timers; poll timeout in ms.

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::atomic<std::thread::id> thread_id_{};

  std::mutex post_mu_;
  std::vector<Fn> posted_;

  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>>
      timers_;
  uint64_t timer_seq_ = 0;
  int64_t callback_start_us_ = 0;
  int64_t callback_wait_us_ = 0;

  std::map<int, Watch> watches_;

  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
#if defined(__linux__)
  int epoll_fd_ = -1;
#endif
};

}  // namespace bestpeer::net

#endif  // BESTPEER_NET_REACTOR_H_
