// cca::fiber tests (DESIGN.md §10): timer-wheel units, park/unpark and
// work-stealing scheduler behaviour, EventCount parking, and the rank-scaling
// payoff — 1024-rank barrier and allreduce green under ExecKind::Fiber on a
// handful of cores, kill-rank fault cascades waking every parked fiber.
//
// The suite runs under the same ASan/UBSan and TSan CI jobs as the
// thread-mode suites (the context layer emits sanitizer fiber annotations),
// and the fault tests are keyed on CCA_FAULT_SEED like test_fault.cpp so the
// seed-sweep job replays them under several schedules.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cca/fiber/context.hpp"
#include "cca/fiber/park.hpp"
#include "cca/fiber/sched.hpp"
#include "cca/fiber/timer_wheel.hpp"
#include "cca/rt/comm.hpp"
#include "cca/rt/fault.hpp"
#include "cca/testing/explore.hpp"

namespace ct = cca::testing;
namespace fib = cca::fiber;
using namespace std::chrono_literals;
using cca::rt::Comm;
using cca::rt::CommError;
using cca::rt::CommErrorKind;
using cca::rt::ExecKind;
using cca::rt::FaultPlan;
using cca::rt::RunOptions;

namespace {

std::uint64_t faultSeed() {
  if (const char* e = std::getenv("CCA_FAULT_SEED"))
    return std::strtoull(e, nullptr, 10);
  return 1;
}

RunOptions fiberOpts(int workers = 2) {
  RunOptions o;
  o.exec = ExecKind::Fiber;
  o.fiberWorkers = workers;
  return o;
}

// A minimal stand-in controller (spin-polling waits, real clock): occupies
// the process controller slot so tests can prove tryRunFibers() refuses a
// busy slot and that Comm::run's thread fallback still completes under it.
class NullController : public ct::ScheduleController {
 public:
  int registerActor(int preferredId) override {
    return preferredId < 0 ? 0 : preferredId;
  }
  void deregisterActor() override {}
  void yield(const ct::SchedPoint&) override {}
  bool wait(const ct::SchedPoint&, const std::function<bool()>& ready,
            std::int64_t deadlineNs) override {
    const std::int64_t deadline = deadlineNs < 0 ? -1 : nowNs() + deadlineNs;
    while (!ready()) {
      if (deadline >= 0 && nowNs() >= deadline) return ready();
      std::this_thread::sleep_for(50us);
    }
    return true;
  }
  std::int64_t nowNs() override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  void sleepNs(std::int64_t ns, const ct::SchedPoint&) override {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
  }
};

/// RAII install/uninstall of a NullController around a test section.
struct ControllerSlot {
  explicit ControllerSlot(NullController& c) { ct::installController(&c); }
  ~ControllerSlot() { ct::uninstallController(); }
};

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

TEST(FiberTimerWheel, FiresExactlyAtDeadlineNotAtBucketBoundary) {
  fib::TimerWheel w(/*tickNs=*/100, /*slots=*/8);
  w.add(1, 250);  // bucket tick 2, exact deadline 250
  std::vector<std::uint64_t> due;
  w.advance(249, due);
  EXPECT_TRUE(due.empty()) << "bucket tick reached but deadline not yet";
  w.advance(250, due);
  EXPECT_EQ(due, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(w.size(), 0u);
}

TEST(FiberTimerWheel, PastDeadlineFiresOnNextAdvance) {
  fib::TimerWheel w(100, 8);
  std::vector<std::uint64_t> due;
  w.advance(5000, due);  // move the wheel well past tick 0
  ASSERT_TRUE(due.empty());
  w.add(7, 100);  // deadline far in the past: must not wait a revolution
  w.advance(5001, due);
  EXPECT_EQ(due, (std::vector<std::uint64_t>{7}));
}

TEST(FiberTimerWheel, ManyTimersAcrossRevolutionsAllFireOnce) {
  fib::TimerWheel w(10, 4);  // tiny wheel: plenty of collisions + wraps
  constexpr int kN = 200;
  for (int i = 0; i < kN; ++i)
    w.add(static_cast<std::uint64_t>(i), 13 * (i + 1));
  EXPECT_EQ(w.size(), static_cast<std::size_t>(kN));
  std::vector<std::uint64_t> due;
  std::vector<int> fired(kN, 0);
  for (std::int64_t now = 0; now <= 13 * kN + 50; now += 7) {
    due.clear();
    w.advance(now, due);
    for (std::uint64_t id : due) {
      ASSERT_LT(id, static_cast<std::uint64_t>(kN));
      ASSERT_LE(13 * (static_cast<std::int64_t>(id) + 1), now)
          << "timer fired before its deadline";
      fired[static_cast<std::size_t>(id)]++;
    }
  }
  for (int i = 0; i < kN; ++i)
    EXPECT_EQ(fired[static_cast<std::size_t>(i)], 1) << "timer " << i;
  EXPECT_EQ(w.size(), 0u);
}

TEST(FiberTimerWheel, NextDeadlineTracksEarliestEntry) {
  fib::TimerWheel w(100, 8);
  EXPECT_EQ(w.nextDeadline(), -1);
  w.add(1, 900);
  w.add(2, 300);
  w.add(3, 1700);
  EXPECT_EQ(w.nextDeadline(), 300);
  std::vector<std::uint64_t> due;
  w.advance(300, due);
  EXPECT_EQ(due, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(w.nextDeadline(), 900);
  due.clear();
  w.advance(2000, due);
  EXPECT_EQ(due.size(), 2u);
  EXPECT_EQ(w.nextDeadline(), -1);
}

// ---------------------------------------------------------------------------
// Stacks
// ---------------------------------------------------------------------------

TEST(FiberStack, AllocatesUsableRangeAboveGuardPage) {
  fib::StackDesc s = fib::allocStack(64 * 1024);
  ASSERT_TRUE(static_cast<bool>(s));
  EXPECT_GE(s.usableBytes, 64u * 1024u);
  EXPECT_GT(s.mapBytes, s.usableBytes);  // guard page included
  // The usable range is writable end to end (the guard page below it would
  // fault); touch one byte per page.
  auto* p = static_cast<volatile char*>(s.limit());
  for (std::size_t off = 0; off < s.usableBytes; off += 4096) p[off] = 1;
  p[s.usableBytes - 1] = 1;
  fib::freeStack(s);
}

// ---------------------------------------------------------------------------
// Scheduler basics
// ---------------------------------------------------------------------------

TEST(FiberSched, RunsEveryFiberExactlyOnce) {
  std::atomic<int> sum{0};
  fib::FiberOptions o;
  o.workers = 3;
  fib::runFibers(
      100, [&](int id) { sum.fetch_add(id, std::memory_order_relaxed); }, o);
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

namespace {

/// A one-shot flag over the parking primitive: set() publishes and
/// notifies, wait() parks on the event count until the flag is up.
class Flag {
 public:
  void set() {
    on_.store(true, std::memory_order_release);
    ec_.notify(ct::SchedPoint{});
  }
  [[nodiscard]] bool isSet() const {
    return on_.load(std::memory_order_acquire);
  }
  bool wait(std::int64_t timeoutNs = -1) {
    return ec_.await(ct::SchedPoint{}, [this] { return isSet(); }, timeoutNs);
  }

 private:
  std::atomic<bool> on_{false};
  fib::EventCount ec_;
};

}  // namespace

TEST(FiberSched, EventChainParksAndCascadesAcrossManyFibers) {
  // Fiber i waits for event i, then sets event i+1: a 400-stage dependency
  // chain on two workers that can only complete through park/unpark (no
  // fiber may hold a worker thread hostage while blocked).
  constexpr int kN = 400;
  std::vector<Flag> ev(kN + 1);
  ev[0].set();
  std::atomic<int> completed{0};
  fib::FiberOptions o;
  o.workers = 2;
  fib::runFibers(
      kN,
      [&](int id) {
        ASSERT_TRUE(ev[static_cast<std::size_t>(id)].wait());
        completed.fetch_add(1, std::memory_order_relaxed);
        ev[static_cast<std::size_t>(id) + 1].set();
      },
      o);
  EXPECT_EQ(completed.load(), kN);
  EXPECT_TRUE(ev[kN].isSet());
}

TEST(FiberSched, EventSetFromAnUncontrolledThreadWakesAParkedFiber) {
  Flag go;
  Flag fiberStarted;
  std::atomic<bool> woke{false};
  std::thread outsider([&] {
    fiberStarted.wait();  // plain cv wait: the outsider is uncontrolled
    std::this_thread::sleep_for(1ms);
    go.set();  // must cascade into the scheduler via the armed notify
  });
  fib::FiberOptions o;
  o.workers = 2;
  fib::runFibers(
      1,
      [&](int) {
        fiberStarted.set();
        ASSERT_TRUE(go.wait());
        woke.store(true);
      },
      o);
  outsider.join();
  EXPECT_TRUE(woke.load());
}

TEST(FiberSched, TimedWaitExpiresWithoutASignal) {
  std::atomic<int> expired{0};
  fib::FiberOptions o;
  o.workers = 2;
  fib::runFibers(
      4,
      [&](int) {
        Flag never;
        if (!never.wait(/*timeoutNs=*/5'000'000)) expired.fetch_add(1);
      },
      o);
  EXPECT_EQ(expired.load(), 4);
}

TEST(FiberSched, SleepForSuspendsFiberNotWorker) {
  // 64 fibers each sleep 20 ms on 2 workers; if a sleeping fiber pinned its
  // worker thread this would serialize into > 600 ms.  Assert the order of
  // magnitude with generous CI slack.
  const auto t0 = std::chrono::steady_clock::now();
  fib::FiberOptions o;
  o.workers = 2;
  fib::runFibers(
      64, [&](int) { ct::sleepFor(20ms); }, o);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s);
}

TEST(FiberSched, FirstEscapedExceptionIsRethrownAfterAllFibersRun) {
  std::atomic<int> ran{0};
  fib::FiberOptions o;
  o.workers = 2;
  try {
    fib::runFibers(
        16,
        [&](int id) {
          ran.fetch_add(1);
          if (id == 7) throw std::runtime_error("fiber 7 failed");
        },
        o);
    FAIL() << "exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "fiber 7 failed");
  }
  EXPECT_EQ(ran.load(), 16) << "remaining fibers must still run to completion";
}

TEST(FiberSched, RefusesWhenAControllerIsAlreadyInstalled) {
  NullController null;
  {
    ControllerSlot slot(null);
    std::atomic<int> ran{0};
    EXPECT_FALSE(fib::tryRunFibers(2, [&](int) { ran.fetch_add(1); }))
        << "tryRunFibers must refuse a busy controller slot";
    EXPECT_EQ(ran.load(), 0) << "refusal must not run any fiber";
    EXPECT_THROW(fib::runFibers(2, [](int) {}), std::runtime_error);
  }
  // Slot free again: the same call now runs.
  std::atomic<int> ran{0};
  EXPECT_TRUE(fib::tryRunFibers(2, [&](int) { ran.fetch_add(1); }));
  EXPECT_EQ(ran.load(), 2);
}

TEST(FiberSched, CommRunFallsBackToThreadsUnderForeignController) {
  // Comm::run with ExecKind::Fiber while another controller owns the slot:
  // the team must still complete, on plain threads — the fallback
  // runControlled() relies on to explore Fiber-mode bodies.
  NullController null;
  ControllerSlot slot(null);
  std::atomic<int> done{0};
  Comm::run(
      4,
      [&](Comm& c) {
        c.barrier();
        EXPECT_EQ(c.allreduce(1, cca::rt::Sum{}), 4);
        done.fetch_add(1);
      },
      fiberOpts());
  EXPECT_EQ(done.load(), 4);
}

TEST(FiberSched, NestedCommRunInsideAFiberUsesThreads) {
  // A fiber body spawning an inner team: the inner run's tryRunFibers finds
  // the controller slot busy (the outer scheduler owns it) and falls back to
  // plain threads, which register as foreign actors and complete through the
  // scheduler's polling fallback.
  std::atomic<int> inner{0};
  Comm::run(
      2,
      [&](Comm& outer) {
        if (outer.rank() == 0) {
          Comm::run(
              3, [&](Comm& c) { inner.fetch_add(1 + c.rank()); }, fiberOpts());
        }
        outer.barrier();
      },
      fiberOpts());
  EXPECT_EQ(inner.load(), 6);
}

// ---------------------------------------------------------------------------
// Rank scaling: the tentpole acceptance drill
// ---------------------------------------------------------------------------

TEST(FiberScale, Barrier1024RanksGreen) {
  std::atomic<int> done{0};
  Comm::run(
      1024,
      [&](Comm& c) {
        for (int round = 0; round < 3; ++round) c.barrier();
        done.fetch_add(1, std::memory_order_relaxed);
      },
      fiberOpts());
  EXPECT_EQ(done.load(), 1024);
}

TEST(FiberScale, Allreduce1024RanksGreen) {
  std::atomic<int> wrong{0};
  Comm::run(
      1024,
      [&](Comm& c) {
        const long n = c.allreduce<long>(1, cca::rt::Sum{});
        if (n != 1024) wrong.fetch_add(1);
        const long m = c.allreduce<long>(c.rank(), cca::rt::Max{});
        if (m != 1023) wrong.fetch_add(1);
      },
      fiberOpts());
  EXPECT_EQ(wrong.load(), 0);
}

TEST(FiberScale, RingMessagesCrossParkedFibers) {
  // Ring pass with 256 ranks: each rank forwards an accumulating token.
  // Exercises mailbox park/unpark — every recv parks its fiber until the
  // predecessor's deliver cascades a wakeup through signalWakeup().
  constexpr int kRanks = 256;
  std::atomic<long> total{0};
  Comm::run(
      kRanks,
      [&](Comm& c) {
        const int next = (c.rank() + 1) % kRanks;
        if (c.rank() == 0) {
          c.sendValue<long>(next, 1, 0L);
          total.store(c.recvValue<long>(kRanks - 1, 1));
        } else {
          const long v = c.recvValue<long>(c.rank() - 1, 1);
          c.sendValue<long>(next, 1, v + c.rank());
        }
      },
      fiberOpts());
  EXPECT_EQ(total.load(), static_cast<long>(kRanks - 1) * kRanks / 2);
}

// ---------------------------------------------------------------------------
// Faults under fibers (seed-swept: CCA_FAULT_SEED)
// ---------------------------------------------------------------------------

TEST(FiberFault, KillRankWakesWholeParkedTeam) {
  const std::uint64_t seed = faultSeed();
  SCOPED_TRACE("CCA_FAULT_SEED=" + std::to_string(seed));
  FaultPlan plan(seed);
  plan.killRank(3, 40).deadline(10s);
  RunOptions opts = fiberOpts();
  opts.plan = &plan;
  opts.failureGrace = 200ms;  // keep the cascade fast; the 1 s default works
                              // too but slows the seed sweep
  std::atomic<int> rankFailed{0};
  std::atomic<int> otherError{0};
  Comm::run(
      16,
      [&](Comm& c) {
        try {
          double v = c.rank();
          for (int round = 0; round < 1000; ++round) {
            c.barrier();
            v = c.allreduce(v, cca::rt::Sum{});
          }
          ADD_FAILURE() << "rank " << c.rank()
                        << " finished 1000 rounds despite the kill";
        } catch (const CommError& e) {
          if (e.kind() == CommErrorKind::RankFailed)
            rankFailed.fetch_add(1);
          else
            otherError.fetch_add(1);
        }
      },
      opts);
  EXPECT_EQ(rankFailed.load(), 16)
      << "every fiber must wake with RankFailed; otherError="
      << otherError.load();
  EXPECT_EQ(otherError.load(), 0);
}

TEST(FiberFault, ConfigurableGraceBoundsThePostFailureWait) {
  // Rank 2 waits on live-but-silent rank 1 while rank 0 fails itself: the
  // unbounded recv must surface RankFailed about failureGrace after the
  // failure, not the 1 s default.
  RunOptions opts;  // thread mode: the grace plumbing is exec-independent
  opts.failureGrace = 100ms;
  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<int> rankFailed{0};
  Comm::run(
      3,
      [&](Comm& c) {
        if (c.rank() == 0) {
          c.failRank(0);
        } else if (c.rank() == 2) {
          try {
            (void)c.recv(1, 5);  // unbounded; rank 1 never sends
            ADD_FAILURE() << "recv returned without a sender";
          } catch (const CommError& e) {
            EXPECT_EQ(e.kind(), CommErrorKind::RankFailed);
            rankFailed.fetch_add(1);
          }
        }
      },
      opts);
  EXPECT_EQ(rankFailed.load(), 1);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 900ms)
      << "the configured 100 ms grace must undercut the 1 s default";
}

TEST(FiberFault, QuiesceEpochIntervalIsConfigurable) {
  RunOptions opts = fiberOpts();
  std::atomic<int> timedOut{0};
  Comm::run(
      2,
      [&](Comm& c) {
        // A message nobody ever receives keeps the team dirty: quiesce must
        // give up after the epoch budget derived from (timeout, interval).
        if (c.rank() == 0) c.sendValue<int>(1, 9, 1);
        c.barrier();
        try {
          c.quiesce(/*timeout=*/50ms, /*epochInterval=*/5ms);
          ADD_FAILURE() << "quiesce declared a dirty team quiet";
        } catch (const CommError& e) {
          EXPECT_EQ(e.kind(), CommErrorKind::Timeout);
          timedOut.fetch_add(1);
        }
        EXPECT_THROW(c.quiesce(1s, 0ns), CommError);  // invalid interval
      },
      opts);
  EXPECT_EQ(timedOut.load(), 2);
}

// ---------------------------------------------------------------------------
// Explorer coverage of the same bodies (PR 5 seam shared with the fibers)
// ---------------------------------------------------------------------------

TEST(FiberExplore, ExplorerRunsTheBarrierAllreduceBody) {
  const std::uint64_t seed = faultSeed();
  SCOPED_TRACE("CCA_FAULT_SEED=" + std::to_string(seed));
  ct::RunOutcome out = ct::runControlled(4, seed, [](Comm& c) {
    for (int round = 0; round < 3; ++round) {
      c.barrier();
      EXPECT_EQ(c.allreduce(1, cca::rt::Sum{}), 4);
    }
  });
  EXPECT_FALSE(out.failed) << out.what;
  EXPECT_FALSE(out.deadlock);
}

TEST(FiberExplore, ExplorerRunsTheRingBody) {
  const std::uint64_t seed = faultSeed();
  SCOPED_TRACE("CCA_FAULT_SEED=" + std::to_string(seed));
  constexpr int kRanks = 4;
  ct::RunOutcome out = ct::runControlled(kRanks, seed, [](Comm& c) {
    const int next = (c.rank() + 1) % kRanks;
    if (c.rank() == 0) {
      c.sendValue<long>(next, 1, 0L);
      EXPECT_EQ(c.recvValue<long>(kRanks - 1, 1), 6);
    } else {
      const long v = c.recvValue<long>(c.rank() - 1, 1);
      c.sendValue<long>(next, 1, v + c.rank());
    }
  });
  EXPECT_FALSE(out.failed) << out.what;
  EXPECT_FALSE(out.deadlock);
}

}  // namespace
