// A small work-stealing thread pool. The portfolio mapper races its
// strategies on one (src/portfolio); a single map_network call runs on
// its caller's thread.
//
// Design: every worker owns a deque of tasks guarded by its own mutex.
// submit() distributes tasks round-robin across the deques; a worker
// pops from the front of its own deque and, when that runs dry, steals
// from the back of a sibling's. Mutex-per-deque (rather than a lock-free
// Chase-Lev deque) keeps the implementation small and ThreadSanitizer-
// obviously correct; the tasks dispatched here (whole mapping runs)
// are long compared to a lock acquisition, so queue overhead is noise.
//
// The pool never promises a completion order (DESIGN.md "Concurrency
// model").
#pragma once

#include <deque>
#include <functional>
#include <vector>

namespace chortle::base {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(int num_threads);
  /// Drains every queued task, then joins the workers.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. Tasks may submit further tasks. A task must not
  /// throw — wrap the body and capture the exception.
  void submit(std::function<void()> task);

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace chortle::base
