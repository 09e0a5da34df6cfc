#pragma once
// cca::fiber::EventCount — the one parking primitive behind every blocking
// edge in the runtime (DESIGN.md §2): mailbox receives, the barrier, the
// team worker pool, CouplingChannel slots, drain gates, the PortServer
// queue and dispatch waits, and PortClient replies.
//
// The protocol is the classic eventcount:
//
//   * a waker changes state, then calls notify(): it bumps the epoch and,
//     only when some waiter is armed, bumps the wake token and wakes the
//     sleepers;
//   * a waiter loops  epoch snapshot -> ready()? -> arm -> epoch moved? ->
//     park on the wake token -> disarm.  The waiter alone disarms; a waker
//     never clears the armed count.  That is the rule that makes lost
//     wakeups impossible: a waker that observed an armed waiter always
//     wakes it, and a waiter that armed after the waker looked sees the
//     epoch move and rescans instead of parking.
//
// Production threads and schedule-controlled ones (explorer actors, fibers)
// run the same arm / re-check / disarm steps; only the final blocking call
// differs — a condition-variable wait versus ScheduleController::wait — and
// both wait on the wake token, not on the caller's predicate, so the
// schedule explorer checks the wakeup protocol itself.  Deadlines are read
// from testing::nowNs(), so explored bounded waits burn virtual time.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "cca/testing/hooks.hpp"

namespace cca::fiber {

class EventCount {
 public:
  /// Yield rounds an uncontrolled waiter on a spinning event count burns
  /// before its first park.  When the waker is a peer rank in lockstep the
  /// wake is usually one scheduler rotation away, so a short yield-spin
  /// turns the common wait into a couple of voluntary context switches
  /// instead of a futex park/wake pair.  Kept small: a genuinely early
  /// waiter must surrender the CPU.
  static constexpr int kSpinYields = 32;

  /// Spin::Yes for the rank-to-rank edges (mailbox, barrier, coupling
  /// channel), where the spin cuts a thread-mode ping-pong several-fold.
  /// Edges woken by I/O or by control events (serve queue, client replies,
  /// drain gates, the worker pool) park at once: a spinning waiter there
  /// only takes CPU from the threads that would wake it.
  enum class Spin : bool { No, Yes };

  explicit EventCount(Spin spin = Spin::No)
      : spinYields_(spin == Spin::Yes ? kSpinYields : 0) {}

  /// Call after changing state some waiter's ready() reads.  Costs one
  /// atomic increment and one load when nobody is armed.  On the armed path
  /// `p` is a preemption point between seeing the waiter and waking it.
  /// Never call it while holding a lock a controlled waiter may need: the
  /// preemption point may park the caller.
  void notify(const testing::SchedPoint& p) {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (armed_.load(std::memory_order_seq_cst) == 0) return;
    testing::schedulePoint(p.op, p.peer, p.tag);
    {
      std::lock_guard lk(mx_);
      wakes_.fetch_add(1, std::memory_order_seq_cst);
    }
    cv_.notify_all();
    testing::signalWakeup();  // a parked fiber or explorer actor
  }

  /// Block until `ready()` returns true; false when `timeoutNs` (>= 0)
  /// elapsed first.  `ready` runs only on the calling thread and may take
  /// locks or act (a "try" operation that claims what it found), but a
  /// failing `ready` must not notify this event count: the moved epoch
  /// would send the waiter straight back to rescan, forever.
  template <class Ready>
  bool await(const testing::SchedPoint& p, Ready&& ready,
             std::int64_t timeoutNs = -1) {
    testing::ScheduleController* ctl = testing::onControlledThread();
    int spins = ctl == nullptr ? spinYields_ : 0;
    std::int64_t deadline = -1;  // read lazily: the fast path never needs it
    for (;;) {
      const std::uint64_t key = epoch_.load(std::memory_order_seq_cst);
      if (ready()) return true;
      if (spins > 0) {
        --spins;
        std::this_thread::yield();
        continue;
      }
      if (timeoutNs >= 0) {
        const std::int64_t now = testing::nowNs();
        if (deadline < 0) deadline = now + timeoutNs;
        if (now >= deadline) return false;
      }
      armed_.fetch_add(1, std::memory_order_seq_cst);
      Disarm disarm{armed_};  // also when an explorer abort unwinds park()
      const std::uint64_t token = wakes_.load(std::memory_order_seq_cst);
      if (epoch_.load(std::memory_order_seq_cst) == key)
        park(ctl, p, token, deadline);
    }
  }

 private:
  struct Disarm {
    std::atomic<int>& armed;
    ~Disarm() { armed.fetch_sub(1, std::memory_order_seq_cst); }
  };

  // Sleep until the wake token moves past `token` or `deadline` passes.
  void park(testing::ScheduleController* ctl, const testing::SchedPoint& p,
            std::uint64_t token, std::int64_t deadline) {
    auto woke = [this, token] {
      return wakes_.load(std::memory_order_acquire) != token;
    };
    if (ctl != nullptr) {
      ctl->wait(p, woke,
                deadline < 0 ? -1
                             : std::max<std::int64_t>(deadline - ctl->nowNs(), 0));
      return;
    }
    std::unique_lock lk(mx_);
    if (deadline < 0) {
      cv_.wait(lk, woke);
      return;
    }
    cv_.wait_until(lk,
                   std::chrono::steady_clock::time_point(
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::nanoseconds(deadline))),
                   woke);
  }

  std::atomic<std::uint64_t> epoch_{0};  // bumped by every notify()
  std::atomic<std::uint64_t> wakes_{0};  // the wake token: armed notifies
  std::atomic<int> armed_{0};            // waiters between arm and disarm
  const int spinYields_;
  std::mutex mx_;
  std::condition_variable cv_;
};

}  // namespace cca::fiber
