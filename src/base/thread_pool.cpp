#include "base/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "base/check.hpp"

namespace chortle::base {

struct ThreadPool::Impl {
  struct Queue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  std::vector<std::unique_ptr<Queue>> queues;
  std::vector<std::thread> workers;

  std::mutex sleep_mu;
  std::condition_variable work_cv;
  // Tasks currently sitting in some deque. Incremented before the push
  // and decremented after the pop, so it never underflows and is > 0
  // whenever a task is queued — a sleeping worker can therefore never
  // miss one (the wait predicate reads it under sleep_mu, and submit
  // touches sleep_mu before notifying).
  std::atomic<std::size_t> available{0};
  std::atomic<bool> stop{false};
  // Round-robin cursor for task placement.
  std::atomic<std::size_t> next_queue{0};

  /// Pops a task: front of the home deque first (FIFO, so tasks start
  /// roughly in submission order), then the back of each sibling's in
  /// turn.
  std::function<void()> take(std::size_t home) {
    const std::size_t n = queues.size();
    for (std::size_t i = 0; i < n; ++i) {
      Queue& q = *queues[(home + i) % n];
      const std::lock_guard<std::mutex> lock(q.mu);
      if (q.tasks.empty()) continue;
      std::function<void()> task;
      if (i == 0) {
        task = std::move(q.tasks.front());
        q.tasks.pop_front();
      } else {
        task = std::move(q.tasks.back());
        q.tasks.pop_back();
      }
      available.fetch_sub(1, std::memory_order_relaxed);
      return task;
    }
    return nullptr;
  }

  void worker_loop(std::size_t idx) {
    while (true) {
      if (std::function<void()> task = take(idx)) {
        task();
        continue;
      }
      std::unique_lock<std::mutex> lock(sleep_mu);
      work_cv.wait(lock, [this] {
        return stop.load(std::memory_order_relaxed) ||
               available.load(std::memory_order_relaxed) > 0;
      });
      // On stop, keep draining until the deques are empty.
      if (stop.load(std::memory_order_relaxed) &&
          available.load(std::memory_order_relaxed) == 0)
        return;
    }
  }
};

ThreadPool::ThreadPool(int num_threads) : impl_(new Impl) {
  const int n = std::max(num_threads, 1);
  impl_->queues.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    impl_->queues.push_back(std::make_unique<Impl::Queue>());
  impl_->workers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    impl_->workers.emplace_back(
        [this, i] { impl_->worker_loop(static_cast<std::size_t>(i)); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(impl_->sleep_mu);
    impl_->stop.store(true, std::memory_order_relaxed);
  }
  impl_->work_cv.notify_all();
  for (std::thread& worker : impl_->workers) worker.join();
  delete impl_;
}

void ThreadPool::submit(std::function<void()> task) {
  CHORTLE_CHECK(task != nullptr);
  const std::size_t home =
      impl_->next_queue.fetch_add(1, std::memory_order_relaxed) %
      impl_->queues.size();
  impl_->available.fetch_add(1, std::memory_order_relaxed);
  {
    Impl::Queue& q = *impl_->queues[home];
    const std::lock_guard<std::mutex> lock(q.mu);
    q.tasks.push_back(std::move(task));
  }
  {
    // Empty critical section: orders the push before the notify so a
    // worker between its predicate check and wait cannot miss it.
    const std::lock_guard<std::mutex> lock(impl_->sleep_mu);
  }
  impl_->work_cv.notify_one();
}

}  // namespace chortle::base
