//===- support/Cancel.h - Cooperative cancellation --------------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cooperative cancellation token shared between a driver and its solver
/// runs.  The solver polls \c cancelled() on the same amortized cadence as
/// its time-budget check and turns a trip into a clean \c Aborted result —
/// heartbeats flushed, trace finalized, partial facts harvested — instead
/// of a killed process with a truncated JSONL stream.
///
/// Tokens are re-armable and composable, which is what a resident daemon
/// (docs/SERVING.md) needs:
///
///  - \c reset() clears both the flag and any armed deadline, so one token
///    can guard a sequence of runs; \c setDeadlineMs re-arms a fresh
///    wall-clock deadline each time (the old one-shot design made a second
///    per-request deadline silently dead).
///  - \c setParent chains tokens: a per-request deadline token whose
///    parent is the process-wide SIGTERM token trips when either does, so
///    one solver poll observes both shutdown and per-request expiry.
///  - \c installSignalCancel routes a signal (SIGINT, SIGTERM) to any
///    token, each signal to its own token; the handler resets itself, so a
///    second delivery falls back to the default disposition and still
///    kills a wedged process.  Re-installing after a delivery re-arms.
///
/// \c installSigintCancel is the legacy single-signal spelling kept for
/// the batch CLIs.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_SUPPORT_CANCEL_H
#define HYBRIDPT_SUPPORT_CANCEL_H

#include <atomic>
#include <chrono>
#include <cstdint>

namespace pt {

/// Cooperative cancellation flag, safe to trip from a signal handler or
/// another thread and cheap to poll from the solver's inner loop.
///
/// Thread model: \c cancel() and \c cancelled() are safe from any thread
/// or signal handler.  \c setDeadlineMs, \c reset, and \c setParent must
/// be called from the thread that owns the run the token guards, before
/// (or between) the runs that poll it — the deadline fields are plain.
class CancelToken {
public:
  CancelToken() = default;
  explicit CancelToken(const CancelToken *Parent) : Parent(Parent) {}
  CancelToken(const CancelToken &) = delete;
  CancelToken &operator=(const CancelToken &) = delete;

  /// Requests cancellation.  Async-signal-safe (a relaxed atomic store).
  void cancel() noexcept { Flag.store(true, std::memory_order_relaxed); }

  /// Arms a wall-clock deadline \p Ms milliseconds from now; 0 disarms.
  /// Calling again re-arms relative to now — a token can guard one
  /// deadline-bounded run after another.  Values beyond about 31 years
  /// are clamped there: the clock's tick count would otherwise overflow
  /// and put the deadline in the past.
  void setDeadlineMs(uint64_t Ms) {
    constexpr uint64_t MaxMs = 1000000000000; // ~31.7 years.
    HasDeadline = Ms != 0;
    if (HasDeadline)
      DeadlineTp = Clock::now() +
                   std::chrono::milliseconds(Ms < MaxMs ? Ms : MaxMs);
  }

  /// True once \c cancel() was called, the armed deadline passed, or the
  /// parent token (if any) reports cancelled.
  bool cancelled() const noexcept {
    if (Flag.load(std::memory_order_relaxed))
      return true;
    if (HasDeadline && Clock::now() >= DeadlineTp)
      return true;
    return Parent && Parent->cancelled();
  }

  /// Re-arms the token for a fresh run: clears the flag AND disarms the
  /// deadline.  (The parent link survives — a drained process stays
  /// drained.)  The pre-daemon design kept the deadline armed, which made
  /// every run after the first expiry abort instantly; the regression
  /// test SecondDeadlineFiresAfterReset pins the fix.
  void reset() noexcept {
    Flag.store(false, std::memory_order_relaxed);
    HasDeadline = false;
  }

  /// Chains this token under \p P: \c cancelled() also reports true when
  /// the parent trips.  Pass nullptr to unchain.
  void setParent(const CancelToken *P) noexcept { Parent = P; }

private:
  using Clock = std::chrono::steady_clock;
  std::atomic<bool> Flag{false};
  bool HasDeadline = false;
  Clock::time_point DeadlineTp;
  const CancelToken *Parent = nullptr;
};

/// Routes the process's next delivery of \p Sig to \p Token.cancel().
/// \p Sig must be SIGINT or SIGTERM; each signal has its own slot, so a
/// daemon can drain on SIGTERM while SIGINT cancels in-flight work.
/// One-shot: the handler restores the default disposition on delivery, so
/// a second signal terminates the process even if the run ignores the
/// token; calling \c installSignalCancel again re-arms.  The token must
/// outlive the handler (typically both live in main()).
void installSignalCancel(int Sig, CancelToken &Token);

/// Legacy spelling: \c installSignalCancel(SIGINT, Token).
void installSigintCancel(CancelToken &Token);

} // namespace pt

#endif // HYBRIDPT_SUPPORT_CANCEL_H
