//===- support/ThreadPool.h - Fork-join index loop --------------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// \c parallelFor over the independent cells of an analysis-variant
/// matrix, plus the shared reading of a user-facing \c --threads value.
/// Workers claim indices from one atomic counter, so uneven cells balance
/// without per-worker queues.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_SUPPORT_THREADPOOL_H
#define HYBRIDPT_SUPPORT_THREADPOOL_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace pt {

/// Hardware concurrency with a floor of one.
inline unsigned hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

/// Reads a user-facing --threads value: 0 means one worker per hardware
/// thread.  Every tool resolves through this one rule (docs/PERF.md).
inline unsigned resolveThreads(unsigned Requested) {
  return Requested == 0 ? hardwareThreads() : Requested;
}

/// Runs \p Fn(i) once for every i in [0, N) and returns when all calls
/// have finished.  \p Threads goes through \c resolveThreads; the calling
/// thread works too, so at most min(Threads, N) - 1 extra threads start.
/// With one thread the calls happen inline, in order.  If a call throws,
/// no further index is started and the first exception is rethrown once
/// every thread has joined.
template <typename Callback>
void parallelFor(size_t N, unsigned Threads, Callback &&Fn) {
  const size_t Width = std::min<size_t>(resolveThreads(Threads), N);
  if (Width <= 1) {
    for (size_t I = 0; I < N; ++I)
      Fn(I);
    return;
  }
  std::atomic<size_t> Next{0};
  std::mutex ErrorMu;
  std::exception_ptr Error; // Guarded by ErrorMu.
  auto Work = [&] {
    try {
      for (size_t I; (I = Next.fetch_add(1, std::memory_order_relaxed)) < N;)
        Fn(I);
    } catch (...) {
      Next.store(N, std::memory_order_relaxed);
      std::lock_guard<std::mutex> Lock(ErrorMu);
      if (!Error)
        Error = std::current_exception();
    }
  };
  std::vector<std::jthread> Extra;
  for (size_t T = 1; T < Width; ++T)
    Extra.emplace_back(Work);
  Work();
  Extra.clear(); // Joins every extra thread before Error is read.
  if (Error)
    std::rethrow_exception(Error);
}

} // namespace pt

#endif // HYBRIDPT_SUPPORT_THREADPOOL_H
