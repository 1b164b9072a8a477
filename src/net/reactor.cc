#include "net/reactor.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <condition_variable>
#include <utility>

#if defined(__linux__)
#include <sys/epoll.h>
#include <sys/eventfd.h>
#endif

#include "util/logging.h"

namespace bestpeer::net {

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

Reactor::Reactor() : epoch_(std::chrono::steady_clock::now()) {
#if defined(__linux__)
  wake_read_fd_ = ::eventfd(0, EFD_NONBLOCK);
  wake_write_fd_ = wake_read_fd_;
  epoll_fd_ = ::epoll_create1(0);
  struct epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.fd = wake_read_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_read_fd_, &ev);
#else
  int fds[2] = {-1, -1};
  if (::pipe(fds) == 0) {
    SetNonBlocking(fds[0]);
    SetNonBlocking(fds[1]);
    wake_read_fd_ = fds[0];
    wake_write_fd_ = fds[1];
  }
#endif
}

Reactor::~Reactor() {
  Stop();
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0 && wake_write_fd_ != wake_read_fd_) {
    ::close(wake_write_fd_);
  }
#if defined(__linux__)
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
#endif
}

void Reactor::Start() {
  if (running_.load(std::memory_order_acquire)) return;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this]() {
    thread_id_.store(std::this_thread::get_id(), std::memory_order_release);
    Loop();
  });
  running_.store(true, std::memory_order_release);
}

void Reactor::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  Wake();
  if (thread_.joinable()) thread_.join();
  thread_id_.store(std::thread::id(), std::memory_order_release);
  running_.store(false, std::memory_order_release);
}

bool Reactor::OnReactorThread() const {
  return std::this_thread::get_id() ==
         thread_id_.load(std::memory_order_acquire);
}

void Reactor::Post(Fn fn) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(fn));
  }
  Wake();
}

void Reactor::Run(Fn fn) {
  if (OnReactorThread()) {
    fn();
    return;
  }
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Post([&]() {
    fn();
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&]() { return done; });
}

int64_t Reactor::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Reactor::AddTimerAt(int64_t deadline_us, Fn fn) {
  timers_.push(Timer{deadline_us, timer_seq_++, std::move(fn)});
}

void Reactor::AddFd(int fd, bool want_read, bool want_write, FdFn fn) {
  watches_[fd] = Watch{want_read, want_write, std::move(fn)};
#if defined(__linux__)
  struct epoll_event ev = {};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
#endif
}

void Reactor::ModFd(int fd, bool want_read, bool want_write) {
  auto it = watches_.find(fd);
  if (it == watches_.end()) return;
  it->second.want_read = want_read;
  it->second.want_write = want_write;
#if defined(__linux__)
  struct epoll_event ev = {};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
#endif
}

void Reactor::RemoveFd(int fd) {
  watches_.erase(fd);
#if defined(__linux__)
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
#endif
}

void Reactor::Wake() {
  if (wake_write_fd_ < 0) return;
  uint64_t one = 1;
  ssize_t n = ::write(wake_write_fd_, &one, sizeof(one));
  (void)n;  // A full pipe already guarantees a pending wakeup.
}

void Reactor::DrainPosted() {
  std::vector<Fn> batch;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    batch.swap(posted_);
  }
  for (Fn& fn : batch) {
    callback_start_us_ = now_us();
    callback_wait_us_ = 0;
    fn();
  }
}

int Reactor::RunTimersAndTimeout() {
  while (!timers_.empty()) {
    const int64_t now = now_us();
    if (timers_.top().deadline_us > now) break;
    Fn fn = std::move(const_cast<Timer&>(timers_.top()).fn);
    timers_.pop();
    callback_start_us_ = now;
    callback_wait_us_ = 0;
    fn();
  }
  if (timers_.empty()) return 100;  // Idle tick; wakeup fd cuts it short.
  int64_t delta_us = timers_.top().deadline_us - now_us();
  if (delta_us <= 0) return 0;
  int64_t ms = (delta_us + 999) / 1000;
  return ms > 100 ? 100 : static_cast<int>(ms);
}

void Reactor::Loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    DrainPosted();
    int timeout_ms = RunTimersAndTimeout();

#if defined(__linux__)
    struct epoll_event events[64];
    int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_read_fd_) {
        uint64_t drain;
        while (::read(wake_read_fd_, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      auto it = watches_.find(fd);
      if (it == watches_.end()) continue;
      uint32_t mask = 0;
      if (events[i].events & EPOLLIN) mask |= kReadable;
      if (events[i].events & EPOLLOUT) mask |= kWritable;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) mask |= kError;
      if (mask != 0) it->second.fn(mask);
    }
#else
    std::vector<struct pollfd> pfds;
    std::vector<int> order;
    pfds.reserve(watches_.size() + 1);
    pfds.push_back({wake_read_fd_, POLLIN, 0});
    for (const auto& [fd, watch] : watches_) {
      short ev = 0;
      if (watch.want_read) ev |= POLLIN;
      if (watch.want_write) ev |= POLLOUT;
      pfds.push_back({fd, ev, 0});
      order.push_back(fd);
    }
    int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (n > 0) {
      if (pfds[0].revents != 0) {
        char drain[64];
        while (::read(wake_read_fd_, drain, sizeof(drain)) > 0) {
        }
      }
      for (size_t i = 1; i < pfds.size(); ++i) {
        auto it = watches_.find(order[i - 1]);
        if (it == watches_.end()) continue;  // Removed by a callback.
        uint32_t mask = 0;
        if (pfds[i].revents & POLLIN) mask |= kReadable;
        if (pfds[i].revents & POLLOUT) mask |= kWritable;
        if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) mask |= kError;
        if (mask != 0) it->second.fn(mask);
      }
    }
#endif
  }
  DrainPosted();
}

}  // namespace bestpeer::net
