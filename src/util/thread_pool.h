#ifndef NOSE_UTIL_THREAD_POOL_H_
#define NOSE_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace nose {
namespace util {

/// A small work-stealing thread pool for the advisor's embarrassingly
/// parallel phases. Workers keep per-thread deques: a worker pushes and
/// pops its own deque LIFO (cache-friendly for nested submission) and
/// steals FIFO from siblings when idle. External submissions are
/// distributed round-robin.
///
/// Tasks must not throw — error handling is by Status written into
/// caller-owned slots. Submitting from inside a
/// task is supported; Wait() returns only once the transitive closure of
/// submitted work has drained, and waiting threads help execute tasks
/// instead of blocking, so nested ParallelFor cannot deadlock.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 resolves via DefaultNumThreads().
  /// With a resolved count of 1 no threads are spawned and every task runs
  /// inline on the submitting thread — serial semantics, zero overhead.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count (1 means inline/serial execution).
  size_t num_threads() const { return num_threads_; }

  /// Enqueues a task. Runs it inline when the pool is serial.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task (including tasks submitted by
  /// tasks) has finished. The calling thread steals and runs pending work
  /// while waiting.
  void Wait();

  /// Runs fn(0) ... fn(n-1), potentially in parallel, returning when all
  /// calls completed. The caller participates, so this makes progress even
  /// when every worker is busy (nested use). Indices are claimed from an
  /// atomic counter; callers needing determinism must write results into
  /// per-index slots and reduce in index order afterwards.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// The thread count used when a pool is constructed with 0: the
  /// NOSE_TEST_THREADS environment variable if set (CI pins this to
  /// exercise concurrency under TSan), otherwise hardware_concurrency.
  static size_t DefaultNumThreads();

 private:
  struct Queue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(size_t worker_index);
  /// Pops from the preferred deque (LIFO) or steals (FIFO); empty
  /// function if no work is available anywhere.
  std::function<void()> TryGetTask(size_t preferred);
  /// Bookkeeping after a task ran: decrement pending, wake waiters at 0.
  void FinishTask();

  size_t num_threads_ = 1;
  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex mu_;                    ///< guards queued_/pending_/stopping_
  std::condition_variable work_cv_;  ///< signals workers: task queued/stop
  std::condition_variable done_cv_;  ///< signals waiters: pending hit zero
  size_t queued_ = 0;   ///< submitted, not yet picked up by any thread
  size_t pending_ = 0;  ///< submitted, not yet finished
  std::atomic<size_t> next_queue_{0};
  bool stopping_ = false;
};

/// Runs fn(i) for i in [0, n) on `pool`, serially when `pool` is null or
/// serial. The deterministic-merge building block used across the advisor.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace util
}  // namespace nose

#endif  // NOSE_UTIL_THREAD_POOL_H_
