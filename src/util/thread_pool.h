// A small fixed-size worker pool for compile-time parallelism.
//
// The intra-operator search dominates compile time (paper Fig 18) and runs
// as many independent chunks: each distinct signature's F_op enumeration is
// cut into contiguous ranges, each walked into its own partial frontier. The
// results must be bit-deterministic regardless of worker count. The pool
// therefore exposes ParallelFor(n, fn), which runs fn(0..n-1) with each task
// writing only its own output slot; callers merge slots in a fixed order
// (the search: chunk order), so the schedule (which worker ran which index,
// in what order) never leaks into the result.
//
// Tasks must not throw: the workers run them bare, and a T10_CHECK failure
// aborts the process as everywhere else in the codebase.

#ifndef T10_SRC_UTIL_THREAD_POOL_H_
#define T10_SRC_UTIL_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/util/sync.h"

namespace t10 {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  // Waits for every submitted task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues one task. Tasks may run in any order, on any worker.
  void Submit(std::function<void()> task);

  // Blocks until every task submitted so far has finished.
  void Wait();

  // Runs fn(0), ..., fn(n - 1) across the workers and returns when all calls
  // finished. Indices are claimed dynamically (an atomic cursor), so the
  // assignment of index to worker is not deterministic — fn must only write
  // state owned by its index. They are claimed in ascending order, though:
  // a caller that sorts its tasks largest first gets them started largest
  // first, as the search's dispatch does. With one worker the calling thread
  // runs the loop inline, making --jobs=1 a true serial baseline.
  void ParallelFor(std::int64_t n, const std::function<void(std::int64_t)>& fn);

  // max(1, std::thread::hardware_concurrency()) — the default for t10c
  // --jobs.
  static int HardwareConcurrency();

 private:
  void WorkerLoop();

  Mutex mu_{"util.thread_pool.mu"};
  CondVar task_ready_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ T10_GUARDED_BY(mu_);
  int in_flight_ T10_GUARDED_BY(mu_) = 0;  // Queued + currently running tasks.
  bool shutdown_ T10_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace t10

#endif  // T10_SRC_UTIL_THREAD_POOL_H_
