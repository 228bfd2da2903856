//===- tests/threadpool_test.cpp - parallelFor and --threads ---------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
// support/ThreadPool.h: parallelFor runs every index exactly once at any
// width, never starts more threads than there are indices, stays inline
// and in order at one thread, and hands a worker's exception back to the
// caller; --threads=0 resolves to the hardware.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace {

using namespace pt;

TEST(ThreadPool, ResolveThreadsMapsZeroToHardware) {
  EXPECT_EQ(resolveThreads(0), hardwareThreads());
  EXPECT_EQ(resolveThreads(1), 1u);
  EXPECT_EQ(resolveThreads(7), 7u);
  EXPECT_GE(hardwareThreads(), 1u);
}

TEST(ThreadPool, ParallelForCoversRangeAtAnyWidth) {
  for (unsigned Threads : {0u, 1u, 2u, 5u}) {
    std::vector<std::atomic<int>> Hits(257);
    parallelFor(Hits.size(), Threads,
                [&Hits](size_t I) { Hits[I].fetch_add(1); });
    for (auto &H : Hits)
      EXPECT_EQ(H.load(), 1);
  }
}

// A width far above N is capped at N: each index still runs once, and no
// more than N distinct threads (the caller included) ever run a call.
TEST(ThreadPool, ParallelForWidthAboveNRunsEachIndexOnce) {
  std::vector<std::atomic<int>> Hits(3);
  std::mutex Mu;
  std::set<std::thread::id> Seen;
  parallelFor(Hits.size(), 64, [&](size_t I) {
    Hits[I].fetch_add(1);
    std::lock_guard<std::mutex> Lock(Mu);
    Seen.insert(std::this_thread::get_id());
  });
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
  EXPECT_LE(Seen.size(), Hits.size());
}

TEST(ThreadPool, ParallelForOneThreadRunsInlineInOrder) {
  std::vector<size_t> Order;
  const std::thread::id Caller = std::this_thread::get_id();
  parallelFor(10, 1, [&](size_t I) {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    Order.push_back(I);
  });
  ASSERT_EQ(Order.size(), 10u);
  for (size_t I = 0; I < Order.size(); ++I)
    EXPECT_EQ(Order[I], I);
}

TEST(ThreadPool, ParallelForRethrowsAWorkerException) {
  std::atomic<int> Calls{0};
  EXPECT_THROW(parallelFor(100, 4,
                           [&](size_t I) {
                             Calls.fetch_add(1);
                             if (I == 3)
                               throw std::runtime_error("cell 3");
                           }),
               std::runtime_error);
  EXPECT_GE(Calls.load(), 1);
  EXPECT_LE(Calls.load(), 100);
}

TEST(ThreadPool, ParallelForEmptyRangeCallsNothing) {
  int Calls = 0;
  parallelFor(0, 4, [&](size_t) { ++Calls; });
  EXPECT_EQ(Calls, 0);
}

} // namespace
