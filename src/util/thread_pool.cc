#include "util/thread_pool.h"

#include <cstdlib>

#include "obs/trace.h"

namespace nose {
namespace util {

namespace {

/// Index of the worker owning the current thread, -1 on external threads.
thread_local int tls_worker_index = -1;

}  // namespace

size_t ThreadPool::DefaultNumThreads() {
  if (const char* env = std::getenv("NOSE_TEST_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return static_cast<size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(num_threads == 0 ? DefaultNumThreads() : num_threads) {
  if (num_threads_ <= 1) {
    num_threads_ = 1;
    return;  // serial pool: no queues, no workers
  }
  queues_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  if (num_threads_ <= 1) return;
  Wait();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (num_threads_ <= 1) {
    task();  // serial semantics: run inline
    return;
  }
  // A worker submitting nested work pushes to its own deque (LIFO pop keeps
  // the nested task hot); external threads distribute round-robin.
  const int self = tls_worker_index;
  const size_t q = self >= 0 ? static_cast<size_t>(self)
                             : next_queue_++ % queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[q]->mu);
    queues_[q]->tasks.push_back(std::move(task));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++queued_;
    ++pending_;
  }
  work_cv_.notify_one();
  done_cv_.notify_all();  // waiters may steal the new task
}

std::function<void()> ThreadPool::TryGetTask(size_t preferred) {
  std::function<void()> task;
  // Own deque first, back (LIFO): most recently pushed nested work.
  {
    Queue& q = *queues_[preferred % queues_.size()];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      task = std::move(q.tasks.back());
      q.tasks.pop_back();
    }
  }
  // Steal from siblings, front (FIFO): oldest work, least contended end.
  for (size_t off = 1; !task && off < queues_.size(); ++off) {
    Queue& q = *queues_[(preferred + off) % queues_.size()];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      task = std::move(q.tasks.front());
      q.tasks.pop_front();
    }
  }
  if (task) {
    std::lock_guard<std::mutex> lock(mu_);
    --queued_;
  }
  return task;
}

void ThreadPool::FinishTask() {
  std::lock_guard<std::mutex> lock(mu_);
  if (--pending_ == 0) done_cv_.notify_all();
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  tls_worker_index = static_cast<int>(worker_index);
  // Name this worker's lane in exported traces: spans recorded inside
  // pool tasks land on their executing thread's timeline.
  obs::SetCurrentThreadName("pool-worker-" + std::to_string(worker_index));
  while (true) {
    std::function<void()> task = TryGetTask(worker_index);
    if (task) {
      task();
      FinishTask();
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    work_cv_.wait(lock, [this] { return stopping_ || queued_ > 0; });
    if (stopping_ && queued_ == 0) return;
  }
}

void ThreadPool::Wait() {
  if (num_threads_ <= 1) return;
  const size_t preferred =
      tls_worker_index >= 0 ? static_cast<size_t>(tls_worker_index) : 0;
  while (true) {
    if (std::function<void()> task = TryGetTask(preferred)) {
      task();
      FinishTask();
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (pending_ == 0) return;
    // Tasks exist but are all mid-execution (or were stolen between our
    // scan and this lock); sleep until one completes or new work shows up.
    done_cv_.wait(lock, [this] { return pending_ == 0 || queued_ > 0; });
    if (pending_ == 0) return;
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (num_threads_ <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Shared context copied into helper tasks: a straggling helper that only
  // gets scheduled after this call returned must find everything it touches
  // alive, hence the shared_ptr and the owned copy of fn. Once all n
  // indices are claimed, stragglers exit without ever invoking fn, so the
  // caller's captured locals are never touched after this call returns.
  struct Ctx {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;
    size_t n = 0;
    std::function<void(size_t)> fn;
  };
  auto ctx = std::make_shared<Ctx>();
  ctx->n = n;
  ctx->fn = fn;
  auto body = [](const std::shared_ptr<Ctx>& c) {
    size_t i;
    while ((i = c->next.fetch_add(1, std::memory_order_relaxed)) < c->n) {
      c->fn(i);
      std::lock_guard<std::mutex> lock(c->mu);
      if (++c->done == c->n) c->cv.notify_all();
    }
  };
  const size_t helpers = std::min(num_threads_ - 1, n - 1);
  for (size_t h = 0; h < helpers; ++h) {
    Submit([ctx, body] { body(ctx); });
  }
  // The caller participates: even if every worker is busy (nested use) the
  // loop below completes all n indices by itself, so no deadlock.
  body(ctx);
  std::unique_lock<std::mutex> lock(ctx->mu);
  ctx->cv.wait(lock, [&] { return ctx->done == ctx->n; });
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->ParallelFor(n, fn);
}

}  // namespace util
}  // namespace nose
