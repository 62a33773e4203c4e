#include "sim/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/error.h"

namespace facsp::sim {
namespace {

TEST(ThreadPool, ResolveThreadsMapsZeroToHardware) {
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(1), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(7), 7u);
  EXPECT_EQ(ThreadPool::resolve_threads(-3), ThreadPool::resolve_threads(0));
}

TEST(ThreadPool, SizeOneRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.submit([&] { ran_on = std::this_thread::get_id(); });
  pool.wait_idle();
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, SubmittedTasksAllRun) {
  for (unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 100) << "threads=" << threads;
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 8u}) {
    for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
      ThreadPool pool(threads);
      std::vector<std::atomic<int>> hits(257);
      pool.parallel_for(
          hits.size(), [&](std::size_t i) { ++hits[i]; }, chunk);
      for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1)
            << "i=" << i << " threads=" << threads << " chunk=" << chunk;
    }
  }
}

TEST(ThreadPool, ParallelForSlotWritesAreRaceFree) {
  // The SweepRunner pattern: each index owns one slot; the reduction
  // afterwards must see every write.  (The TSan CI job gives this test its
  // teeth.)
  ThreadPool pool(8);
  std::vector<std::size_t> slots(1000, 0);
  pool.parallel_for(slots.size(), [&](std::size_t i) { slots[i] = i * i; });
  for (std::size_t i = 0; i < slots.size(); ++i) EXPECT_EQ(slots[i], i * i);
}

TEST(ThreadPool, ParallelForZeroCountIsANoop) {
  ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForRethrowsFirstException) {
  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(100,
                          [&](std::size_t i) {
                            if (i == 17) throw std::runtime_error("cell 17");
                          }),
        std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(ThreadPool, PoolIsReusableAcrossParallelForCalls) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  for (int round = 0; round < 10; ++round)
    pool.parallel_for(100, [&](std::size_t i) {
      sum += static_cast<long>(i);
    });
  EXPECT_EQ(sum.load(), 10 * (99 * 100 / 2));
}

TEST(ThreadPool, RejectsEmptyTaskAndZeroChunk) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.submit(std::function<void()>{}), ContractViolation);
  EXPECT_THROW(pool.parallel_for(1, std::function<void(std::size_t)>{}),
               ContractViolation);
  EXPECT_THROW(pool.parallel_for(1, [](std::size_t) {}, 0), ContractViolation);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&] { ++count; });
  }  // ~ThreadPool must run everything before joining
  EXPECT_EQ(count.load(), 50);
}

}  // namespace
}  // namespace facsp::sim
