#ifndef BESTPEER_NET_STRAND_POOL_H_
#define BESTPEER_NET_STRAND_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace bestpeer::net {

/// A small pool of worker threads that runs tasks on strands, one strand
/// per key (TcpNet keys them by node). Each task is a `work` and its
/// continuation `then`:
///  - the works of one strand run one at a time, in submission order;
///    works of different strands run in parallel;
///  - once a work returns on its worker, its `then` is handed to `post`
///    (TcpNet passes Reactor::Post, so continuations run on the reactor);
///    a work that throws is logged and its `then` dropped.
///
/// Thread-safe. A strand that has just run a task goes to the back of the
/// ready queue, so a busy node cannot starve the others.
class StrandPool {
 public:
  using Fn = std::function<void()>;
  using PostFn = std::function<void(Fn)>;

  /// `workers` threads (at least 1) once started.
  StrandPool(size_t workers, PostFn post);
  ~StrandPool();
  StrandPool(const StrandPool&) = delete;
  StrandPool& operator=(const StrandPool&) = delete;

  /// hardware_concurrency() − 1 (one core stays with the reactor), at
  /// least 1 and at most 8.
  static size_t DefaultWorkers();

  void Start();
  /// Drops every queued task together with its continuation, lets each
  /// running work finish without posting its continuation, and joins the
  /// workers. No continuation is posted after Stop returns. Idempotent.
  void Stop();

  /// Queues `work` on `strand`. Callable before Start (it runs once the
  /// workers do); dropped after Stop.
  void Submit(uint64_t strand, Fn work, Fn then);

 private:
  struct Task {
    Fn work;
    Fn then;
  };
  struct Strand {
    std::deque<Task> tasks;
    /// In the ready queue or running on a worker.
    bool active = false;
  };

  void WorkerLoop();

  const size_t workers_;
  const PostFn post_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<uint64_t, Strand> strands_;
  std::deque<uint64_t> ready_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace bestpeer::net

#endif  // BESTPEER_NET_STRAND_POOL_H_
