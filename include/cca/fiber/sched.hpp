#pragma once
// cca::fiber — M:N cooperative fiber runtime (DESIGN.md §10).
//
// runFibers(count, body) multiplexes `count` stackful fibers onto a small
// pool of worker OS threads.  The scheduler installs itself as the process
// testing::ScheduleController, so every blocking edge — each one parks on a
// fiber::EventCount (park.hpp): mailbox receives, the barrier,
// CouplingChannel takes, drain gates, the PortServer queue and dispatch
// waits, PortClient replies — plus backoff sleeps and Comm::quiesce epochs
// parks the *fiber* instead of an OS thread.  schedulePoint() doubles as
// the cooperative yield.  That is how a
// 1024-rank team runs green on a single core: the kernel never sees more
// than `workers` runnable threads.
//
// Relationship to the explorer: both are ScheduleController implementations
// over the same seam.  Only one controller can be installed at a time, so
// tryRunFibers() refuses (returns false) when another controller — an
// explorer run, or another fiber scheduler — is active; Comm::run falls back
// to thread-per-rank execution in that case, which is exactly what
// runControlled() needs to explore a body that asks for ExecKind::Fiber.
//
// Unlike the explorer the fiber scheduler runs on the *real* clock: external
// uncontrolled threads (socket readers, a test's main thread) may satisfy a
// parked fiber's predicate at any wall-clock moment, so virtual-time jumping
// would be unsound.  Cross-thread wakeups cascade through
// testing::signalWakeup(); an idle worker also rescans parked fibers every
// few milliseconds as a belt-and-braces backstop.

#include <cstddef>
#include <functional>

#include "cca/testing/hooks.hpp"

namespace cca::fiber {

struct FiberOptions {
  /// Worker OS threads; 0 = one per hardware thread (at least 1).
  int workers = 0;
  /// Usable stack bytes per fiber; 0 = default (256 KiB, or 1 MiB under
  /// ASan/TSan whose instrumentation inflates frames).
  std::size_t stackBytes = 0;
};

/// Run `count` fibers, fiber i executing body(i), on a work-stealing M:N
/// scheduler.  Returns false *without running anything* when a schedule
/// controller is already installed (explorer run, or a concurrent fiber
/// scheduler) — the caller should fall back to thread-per-rank.  Otherwise
/// blocks until every fiber finished and returns true; the first exception
/// that escaped a fiber body is rethrown (remaining fibers still run to
/// completion, matching thread-mode team semantics).
bool tryRunFibers(int count, const std::function<void(int)>& body,
                  const FiberOptions& opts = {});

/// tryRunFibers that throws std::runtime_error when the controller slot is
/// busy instead of returning false.  Convenience for tests and drills that
/// know nothing else is installed.
void runFibers(int count, const std::function<void(int)>& body,
               const FiberOptions& opts = {});

/// Default usable stack size runFibers uses when FiberOptions::stackBytes
/// is 0 (exposed for tests/diagnostics).
[[nodiscard]] std::size_t defaultStackBytes() noexcept;

}  // namespace cca::fiber
