#include "net/strand_pool.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "util/logging.h"

namespace bestpeer::net {

StrandPool::StrandPool(size_t workers, PostFn post)
    : workers_(std::max<size_t>(workers, 1)), post_(std::move(post)) {}

StrandPool::~StrandPool() { Stop(); }

size_t StrandPool::DefaultWorkers() {
  const size_t cores = std::thread::hardware_concurrency();
  return std::clamp<size_t>(cores > 1 ? cores - 1 : 1, 1, 8);
}

void StrandPool::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!threads_.empty()) return;
  stopping_ = false;
  for (size_t i = 0; i < workers_; ++i) {
    threads_.emplace_back([this]() { WorkerLoop(); });
  }
}

void StrandPool::Stop() {
  std::unordered_map<uint64_t, Strand> dropped;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    // A running strand keeps its entry until its worker is done with it;
    // only the queued tasks leave now.
    for (auto& [key, strand] : strands_) {
      dropped[key].tasks = std::move(strand.tasks);
      strand.tasks.clear();
    }
    ready_.clear();
    threads.swap(threads_);
  }
  cv_.notify_all();
  for (std::thread& t : threads) t.join();
  std::lock_guard<std::mutex> lock(mu_);
  strands_.clear();
  // `dropped` destroys the queued tasks' captures outside the lock.
}

void StrandPool::Submit(uint64_t strand, Fn work, Fn then) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    Strand& s = strands_[strand];
    s.tasks.push_back(Task{std::move(work), std::move(then)});
    if (s.active) return;
    s.active = true;
    ready_.push_back(strand);
  }
  cv_.notify_one();
}

void StrandPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this]() { return stopping_ || !ready_.empty(); });
    if (stopping_) return;
    const uint64_t key = ready_.front();
    ready_.pop_front();
    // unordered_map references survive rehashing, and only Stop erases.
    Strand& strand = strands_[key];
    Task task = std::move(strand.tasks.front());
    strand.tasks.pop_front();
    lock.unlock();
    bool ok = true;
    try {
      task.work();
    } catch (const std::exception& e) {
      // An exception leaving the worker would end the process; the work
      // failed, so its continuation must not run either.
      BP_LOG(Error) << "offloaded work failed: " << e.what();
      ok = false;
    }
    task.work = nullptr;
    lock.lock();
    // Posting under the lock orders every continuation before Stop's.
    if (ok && !stopping_) post_(std::move(task.then));
    if (!strand.tasks.empty()) {
      ready_.push_back(key);
      cv_.notify_one();
    } else {
      strand.active = false;
    }
  }
}

}  // namespace bestpeer::net
