#include "util/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace nose::util {
namespace {

TEST(ThreadPoolTest, SubmitAndWaitRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);

  // The pool is reusable after Wait().
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 110);
}

TEST(ThreadPoolTest, SerialPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  int x = 0;
  pool.Submit([&x] { ++x; });
  // Inline execution: visible before Wait().
  EXPECT_EQ(x, 1);
  pool.Wait();
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(4);
  pool.Wait();
  pool.ParallelFor(0, [](size_t) { FAIL() << "no index to run"; });
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);  // fewer threads than outer tasks forces nesting
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, TasksMaySubmitMoreTasksBeforeWait) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&] {
      counter.fetch_add(1);
      pool.Submit([&] { counter.fetch_add(1); });
    });
  }
  pool.Wait();  // must drain the transitive closure
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPoolTest, FreeParallelForWorksWithNullPool) {
  std::vector<int> out(50, 0);
  ParallelFor(nullptr, out.size(), [&](size_t i) { out[i] = static_cast<int>(i); });
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

TEST(ThreadPoolTest, DefaultNumThreadsHonorsEnvOverride) {
  ::setenv("NOSE_TEST_THREADS", "3", /*overwrite=*/1);
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), 3u);
  ::unsetenv("NOSE_TEST_THREADS");
  EXPECT_GE(ThreadPool::DefaultNumThreads(), 1u);
}

}  // namespace
}  // namespace nose::util
