// Deterministic schedule exploration of the rt/core concurrency protocols
// (include/cca/testing/explore.hpp).  These suites re-drive the nastiest
// historical scenarios — copied-handle collective-tag desync (PR 2),
// kill-wakes-team and shutdown-vs-barrier (PR 3), quiesce timing (PR 4) —
// as explored interleavings instead of sleep-ordered races, and prove the
// record/replay loop: a failing schedule round-trips through a .sched file
// and reproduces the identical failure.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cca/collective/mxn.hpp"
#include "cca/core/supervision.hpp"
#include "cca/rt/comm.hpp"
#include "cca/sidl/reflect.hpp"
#include "cca/testing/explore.hpp"

namespace ct = cca::testing;
using cca::rt::Comm;
using cca::rt::CommError;
using cca::rt::CommErrorKind;
using namespace std::chrono_literals;

namespace {

/// Explorer seeds are offset by CCA_FAULT_SEED (default 1, which keeps each
/// suite's historical seed), so CI's fault-seed sweep explores new
/// schedules of the same scenarios.
std::uint64_t faultSeed() {
  if (const char* e = std::getenv("CCA_FAULT_SEED"))
    return std::strtoull(e, nullptr, 10);
  return 1;
}

double wallMs(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Guard so a test that asserts on the legacy-bug switch can never leak it
/// into later tests, even on assertion failure.
struct LegacyBugGuard {
  explicit LegacyBugGuard(bool on) { ct::setLegacyCollTagBug(on); }
  ~LegacyBugGuard() { ct::setLegacyCollTagBug(false); }
};

}  // namespace

// ---------------------------------------------------------------------------
// Explorer basics
// ---------------------------------------------------------------------------

TEST(Sched, CleanPingPongPassesAndRecordsTrace) {
  ct::RunOutcome out = ct::runControlled(2, /*seed=*/7, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.sendValue(1, 5, 41);
      ct::require(comm.recvValue<int>(1, 6) == 42, "pong value");
    } else {
      ct::require(comm.recvValue<int>(0, 5) == 41, "ping value");
      comm.sendValue(0, 6, 42);
    }
  });
  EXPECT_FALSE(out.failed) << out.what;
  EXPECT_FALSE(out.deadlock);
  EXPECT_EQ(out.trace.ranks, 2);
  EXPECT_FALSE(out.trace.choices.empty());
}

TEST(Sched, SameSeedSameTrace) {
  auto body = [](Comm& comm) {
    int v = comm.allreduce(comm.rank() + 1, cca::rt::Sum{});
    ct::require(v == 3, "allreduce sum");
  };
  ct::RunOutcome a = ct::runControlled(2, 11, body);
  ct::RunOutcome b = ct::runControlled(2, 11, body);
  ASSERT_FALSE(a.failed) << a.what;
  ASSERT_FALSE(b.failed) << b.what;
  EXPECT_EQ(a.trace.choices, b.trace.choices);
}

TEST(Sched, DeadlockDetectedNotTimedOut) {
  const double ms = wallMs([] {
    ct::RunOutcome out = ct::runControlled(2, 1, [](Comm& comm) {
      if (comm.rank() == 0) (void)comm.recv(1, 7);  // nobody ever sends
    });
    EXPECT_TRUE(out.failed);
    EXPECT_TRUE(out.deadlock);
    EXPECT_NE(out.what.find("recv"), std::string::npos) << out.what;
  });
  // Detection is structural (empty eligible set), not a watchdog timeout.
  EXPECT_LT(ms, 2000.0);
}

TEST(Sched, ReplayDivergenceReported) {
  ct::Schedule bogus;
  bogus.ranks = 2;
  bogus.choices = {97};  // actor 97 never exists
  ct::RunOutcome out = ct::runSchedule(bogus, [](Comm&) {});
  EXPECT_TRUE(out.failed);
  EXPECT_TRUE(out.divergence);
}

TEST(Sched, ScheduleFileRoundTrip) {
  ct::Schedule s;
  s.ranks = 3;
  s.choices = {0, 1, 2, 1, 0};
  s.note = "synthetic round-trip";
  const std::string path = ::testing::TempDir() + "roundtrip.sched";
  ct::saveSchedule(s, path);
  ct::Schedule back = ct::loadSchedule(path);
  EXPECT_EQ(back.ranks, s.ranks);
  EXPECT_EQ(back.choices, s.choices);
  EXPECT_EQ(back.note, s.note);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Historical bug: copied-handle collective-tag desync (PR 2).  The explorer
// must catch the reinjected bug within the default budget, the failing
// schedule must survive a .sched round-trip, and replay must reproduce the
// identical failure — the acceptance criterion of this PR.
// ---------------------------------------------------------------------------

namespace {
void copiedHandleCollectives(Comm& comm) {
  if (comm.rank() == 0) {
    Comm copy = comm;  // forks the buggy per-handle tag counter
    int a = comm.allreduce(1, cca::rt::Sum{});
    int b = copy.allreduce(1, cca::rt::Sum{});
    ct::require(a == 2 && b == 2, "allreduce totals through copied handle");
  } else {
    int a = comm.allreduce(1, cca::rt::Sum{});
    int b = comm.allreduce(1, cca::rt::Sum{});
    ct::require(a == 2 && b == 2, "allreduce totals");
  }
}
}  // namespace

TEST(Sched, LegacyTagDesyncCaughtAndReplayedFromSchedFile) {
  LegacyBugGuard bug(true);
  ct::ExploreOptions opts;
  opts.strategy = ct::Strategy::Random;
  opts.seed = 1;
  opts.ranks = 2;
  opts.maxRuns = 200;  // default budget; the bug must fall within it
  ct::ExploreResult res = ct::explore(opts, copiedHandleCollectives);
  ASSERT_TRUE(res.failed)
      << "reinjected PR-2 tag-desync bug escaped " << res.runs << " runs";

  // Record: the failing interleaving serializes to a .sched file…
  const std::string path = ::testing::TempDir() + "tag_desync.sched";
  ct::saveSchedule(res.failure.trace, path);

  // …and replay: loading it back re-executes the exact decision sequence
  // and reproduces the same failure class, twice (determinism, not luck).
  ct::Schedule sched = ct::loadSchedule(path);
  for (int i = 0; i < 2; ++i) {
    ct::RunOutcome replay = ct::runSchedule(sched, copiedHandleCollectives);
    EXPECT_TRUE(replay.failed) << "replay " << i << " did not reproduce";
    EXPECT_FALSE(replay.divergence) << replay.what;
    EXPECT_EQ(replay.trace.choices, sched.choices);
  }
  std::remove(path.c_str());
}

TEST(Sched, FixedTagPathPassesSameExploration) {
  // Same body, same seeds, bug switch off: the shared CommState sequence
  // keeps copies synchronized and every explored interleaving passes.
  ct::ExploreOptions opts;
  opts.seed = 1;
  opts.ranks = 2;
  opts.maxRuns = 60;
  ct::ExploreResult res = ct::explore(opts, copiedHandleCollectives);
  EXPECT_FALSE(res.failed) << res.failure.what;
  EXPECT_EQ(res.runs, opts.maxRuns);
}

// ---------------------------------------------------------------------------
// Fault protocol scenarios under exploration (previously sleep-ordered)
// ---------------------------------------------------------------------------

TEST(Sched, KillWakesBlockedTeamUnderAllSampledInterleavings) {
  ct::ExploreOptions opts;
  opts.ranks = 3;
  opts.maxRuns = 40;
  ct::ExploreResult res = ct::explore(opts, [](Comm& comm) {
    if (comm.rank() == 0) {
      bool woke = false;
      try {
        (void)comm.recv(1, 7);
      } catch (const CommError& e) {
        woke = e.kind() == CommErrorKind::RankFailed;
      }
      ct::require(woke, "rank 0 recv(1) must throw RankFailed, not hang");
    } else if (comm.rank() == 2) {
      comm.failRank(1);
    }
    // rank 1 exits immediately; whether the kill lands before or after its
    // exit is exactly the interleaving under exploration.
  });
  EXPECT_FALSE(res.failed) << res.failure.what;
}

TEST(Sched, ShutdownVsBarrierBoundedDfs) {
  ct::ExploreOptions opts;
  opts.strategy = ct::Strategy::DFS;
  opts.ranks = 2;
  opts.maxRuns = 400;
  ct::ExploreResult res = ct::explore(opts, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.shutdown();
    } else {
      try {
        comm.barrier();  // either poisoned awake or refused at entry
      } catch (const CommError& e) {
        ct::require(e.kind() == CommErrorKind::Shutdown,
                    std::string("barrier vs shutdown threw: ") + e.what());
      }
    }
  });
  EXPECT_FALSE(res.failed) << res.failure.what;
  EXPECT_GT(res.runs, 0);
}

TEST(Sched, DfsExhaustsTinyScenario) {
  ct::ExploreOptions opts;
  opts.strategy = ct::Strategy::DFS;
  opts.ranks = 2;
  opts.maxRuns = 100000;
  std::vector<std::function<void()>> bodies = {
      [] { ct::interleavePoint(1); },
      [] { ct::interleavePoint(2); },
  };
  ct::ExploreResult res = ct::exploreThreads(opts, bodies);
  EXPECT_FALSE(res.failed) << res.failure.what;
  EXPECT_TRUE(res.exhausted);  // the whole bounded space fits the budget
  EXPECT_LT(res.runs, 1000);
}

// ---------------------------------------------------------------------------
// Virtual time: bounded waits consume simulated nanoseconds, so second-scale
// timeouts cost microseconds of wall clock and cannot flake under load.
// ---------------------------------------------------------------------------

TEST(Sched, RecvTimeoutElapsesInVirtualTime) {
  const double ms = wallMs([] {
    ct::RunOutcome out = ct::runControlled(2, 3, [](Comm& comm) {
      if (comm.rank() != 0) return;
      bool timedOut = false;
      try {
        (void)comm.recvTimeout(1, 5, 2s);  // 2 s *virtual*
      } catch (const CommError& e) {
        timedOut = e.kind() == CommErrorKind::Timeout;
      }
      ct::require(timedOut, "recvTimeout must expire");
    });
    EXPECT_FALSE(out.failed) << out.what;
  });
  EXPECT_LT(ms, 500.0) << "a 2 s virtual timeout burned real wall clock";
}

TEST(Sched, QuiesceTimeoutElapsesInVirtualTime) {
  const double ms = wallMs([] {
    ct::RunOutcome out = ct::runControlled(2, 5, [](Comm& comm) {
      if (comm.rank() == 0) comm.send(1, 9, cca::rt::Buffer());  // never drained
      bool timedOut = false;
      try {
        comm.quiesce(2s);  // 2 s of virtual epochs
      } catch (const CommError& e) {
        timedOut = e.kind() == CommErrorKind::Timeout;
      }
      ct::require(timedOut, "quiesce over a pending message must time out");
    });
    EXPECT_FALSE(out.failed) << out.what;
  });
  EXPECT_LT(ms, 1000.0) << "quiesce epochs burned real wall clock";
}

TEST(Sched, QuiesceCleanUnderExploration) {
  ct::ExploreOptions opts;
  opts.ranks = 2;
  opts.maxRuns = 30;
  ct::ExploreResult res = ct::explore(opts, [](Comm& comm) {
    if (comm.rank() == 0)
      comm.sendValue(1, 4, 1);
    else
      (void)comm.recvValue<int>(0, 4);
    comm.quiesce(1s);  // drained team quiesces under every interleaving
  });
  EXPECT_FALSE(res.failed) << res.failure.what;
}

// ---------------------------------------------------------------------------
// Non-Comm actors: CouplingChannel, SupervisedChannel, ControlledThread
// ---------------------------------------------------------------------------

namespace {
cca::rt::Buffer intBuffer(int v) {
  cca::rt::Buffer b;
  b.writeBytes(&v, sizeof v);
  return b;
}
int intFrom(cca::rt::Buffer b) {
  int v = 0;
  b.readBytes(&v, sizeof v);
  return v;
}
}  // namespace

TEST(Sched, CouplingChannelHandoffUnderExploration) {
  // Bodies are re-invoked once per explored run, so per-run state (the
  // channel) must be created fresh each run — a shared channel would leak a
  // stale payload from one interleaving into the next.  One seed = one run.
  auto run = [&](std::uint64_t seed, std::chrono::nanoseconds producerDelay,
                 bool expectTimeout) {
    auto ch = std::make_shared<cca::collective::CouplingChannel>(1, 1);
    ch->setTimeout(50ms);
    ct::ExploreOptions opts;
    opts.ranks = 2;
    opts.seed = seed;
    opts.maxRuns = 1;
    std::vector<std::function<void()>> bodies = {
        [ch, producerDelay] {
          ct::sleepFor(producerDelay);
          ch->put(0, 0, intBuffer(99));
        },
        [ch, expectTimeout] {
          try {
            ct::require(intFrom(ch->take(0, 0)) == 99, "channel payload");
            ct::require(!expectTimeout, "take should have timed out");
          } catch (const CommError& e) {
            ct::require(expectTimeout &&
                            e.kind() == CommErrorKind::Timeout,
                        std::string("unexpected channel error: ") + e.what());
          }
        },
    };
    return ct::exploreThreads(opts, bodies);
  };
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    // Producer inside the 50 ms window: the payload always arrives.
    ct::ExploreResult ok = run(seed, 10ms, /*expectTimeout=*/false);
    EXPECT_FALSE(ok.failed) << "seed " << seed << ": " << ok.failure.what;
    // Producer past the window: the consumer always gets the typed timeout
    // — in virtual time, so the whole sweep costs ~no wall clock.
    ct::ExploreResult late = run(seed, 200ms, /*expectTimeout=*/true);
    EXPECT_FALSE(late.failed) << "seed " << seed << ": " << late.failure.what;
  }
}

namespace {
/// Invocable that fails the first `failures` calls, then echoes arg 0.
class FlakyTarget final : public cca::sidl::reflect::Invocable {
 public:
  explicit FlakyTarget(int failures) : remaining_(failures) {}
  [[nodiscard]] std::string dynTypeName() const override { return "test.Flaky"; }
  cca::sidl::Value invoke(const std::string&,
                          std::vector<cca::sidl::Value>& args) override {
    if (remaining_.fetch_sub(1) > 0) throw std::runtime_error("transient");
    return args.empty() ? cca::sidl::Value() : args.front();
  }

 private:
  std::atomic<int> remaining_;
};
}  // namespace

TEST(Sched, SupervisedBreakerCooldownInVirtualTime) {
  const double ms = wallMs([] {
    ct::ExploreOptions opts;
    opts.seed = faultSeed();
    opts.ranks = 1;
    opts.maxRuns = 10;
    ct::ExploreResult res = ct::exploreThreads(
        opts, {[] {
          cca::core::RetryPolicy retry;
          retry.maxAttempts = 1;
          retry.initialBackoff = 10ms;
          cca::core::BreakerOptions breaker;
          breaker.failureThreshold = 2;
          breaker.cooldown = 500ms;  // virtual under the controller
          auto target = std::make_shared<FlakyTarget>(2);
          cca::core::SupervisedChannel ch(target, retry, breaker);
          std::vector<cca::sidl::Value> args{cca::sidl::Value(7)};
          for (int i = 0; i < 2; ++i) {
            try {
              (void)ch.call("echo", args);
              ct::require(false, "flaky target should have failed");
            } catch (const cca::core::PortError&) {
            }
          }
          ct::require(ch.breakerState() == cca::core::BreakerState::Open,
                      "breaker must open after threshold failures");
          // Inside the cooldown the breaker rejects without invoking.
          try {
            (void)ch.call("echo", args);
            ct::require(false, "open breaker must reject");
          } catch (const cca::core::PortError& e) {
            ct::require(e.kind() == cca::core::PortErrorKind::BreakerOpen,
                        "rejection must be typed BreakerOpen");
          }
          // Let the 500 ms cooldown elapse virtually; the next call is the
          // half-open probe and the (now healthy) target closes the breaker.
          ct::sleepFor(600ms);
          ct::require(ch.call("echo", args).as<int>() == 7, "probe echoes");
          ct::require(ch.breakerState() == cca::core::BreakerState::Closed,
                      "successful probe must close the breaker");
        }});
    EXPECT_FALSE(res.failed) << res.failure.what;
  });
  EXPECT_LT(ms, 2000.0) << "breaker cooldown burned real wall clock";
}

TEST(Sched, ControlledThreadJoinsUnderSchedule) {
  ct::ExploreOptions opts;
  opts.ranks = 1;
  opts.maxRuns = 20;
  ct::ExploreResult res = ct::exploreThreads(
      opts, {[] {
        auto flag = std::make_shared<std::atomic<bool>>(false);
        ct::ControlledThread helper([flag] {
          ct::interleavePoint(1);
          flag->store(true);
        });
        helper.join();
        ct::require(flag->load(), "join must order after the helper body");
      }});
  EXPECT_FALSE(res.failed) << res.failure.what;
}

// --- PR 10: batched sends and doorbell coalescing under exploration --------
//
// sendMany() documents itself as "semantically identical to calling send()
// in a loop".  The suites below hold it to that under the controlled
// scheduler: no same-(src,dst,tag) message may be lost or reordered no
// matter how the batch delivery interleaves with singleton sends or with
// the receiver's park/doorbell protocol, and a rank killed mid-burst must
// still wake every blocked peer.

namespace {

std::vector<cca::rt::Buffer> numberedBatch(std::uint32_t first, int n) {
  std::vector<cca::rt::Buffer> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    cca::rt::Buffer b;
    cca::rt::pack(b, first + static_cast<std::uint32_t>(i));
    out.push_back(std::move(b));
  }
  return out;
}

/// Rank 0 interleaves singleton sends around a sendMany burst on one
/// (src, dst, tag) stream; rank 1 drains and requires the exact sequence
/// 0..total-1.  Any lost doorbell shows up as a deadlock, any reorder or
/// loss as a failed require.
void batchOrderBody(Comm& comm) {
  constexpr int kTag = 11;
  constexpr std::uint32_t kTotal = 8;
  if (comm.rank() == 0) {
    comm.sendValue<std::uint32_t>(1, kTag, 0);
    comm.sendMany(1, kTag, numberedBatch(1, 6));
    comm.sendValue<std::uint32_t>(1, kTag, 7);
  } else if (comm.rank() == 1) {
    for (std::uint32_t want = 0; want < kTotal; ++want) {
      const auto got = comm.recvValue<std::uint32_t>(0, kTag);
      ct::require(got == want,
                  "batched stream out of order: wanted " +
                      std::to_string(want) + " got " + std::to_string(got));
    }
    ct::require(!comm.probe(0, kTag), "stray extra message after the burst");
  }
}

/// Two senders flood rank 1 with batches on the same tag.  Cross-source
/// order is unspecified, but each source's own stream must stay intact —
/// this is exactly what a shared doorbell could break.
void twoSenderBody(Comm& comm) {
  constexpr int kTag = 12;
  constexpr std::uint32_t kEach = 4;
  if (comm.rank() == 1) {
    std::array<std::uint32_t, 3> next{};
    for (std::uint32_t i = 0; i < 2 * kEach; ++i) {
      auto m = comm.recv(cca::rt::kAnySource, kTag);
      const auto got = cca::rt::unpack<std::uint32_t>(m.payload);
      ct::require(got == next[static_cast<std::size_t>(m.source)],
                  "per-source order broken from rank " +
                      std::to_string(m.source));
      ++next[static_cast<std::size_t>(m.source)];
    }
    ct::require(next[0] == kEach && next[2] == kEach,
                "doorbell coalescing lost a message");
  } else {
    comm.sendMany(1, kTag, numberedBatch(0, 2));
    comm.sendMany(1, kTag, numberedBatch(2, 2));
  }
}

}  // namespace

TEST(Sched, SendManyKeepsStreamOrderUnderRandomExploration) {
  ct::ExploreOptions opts;
  opts.ranks = 2;
  opts.maxRuns = 80;
  ct::ExploreResult res = ct::explore(opts, batchOrderBody);
  EXPECT_FALSE(res.failed) << res.failure.what;
  EXPECT_GT(res.runs, 0);
}

TEST(Sched, SendManyKeepsStreamOrderUnderBoundedDfs) {
  ct::ExploreOptions opts;
  opts.strategy = ct::Strategy::DFS;
  opts.ranks = 2;
  opts.maxRuns = 300;
  ct::ExploreResult res = ct::explore(opts, batchOrderBody);
  EXPECT_FALSE(res.failed) << res.failure.what;
}

TEST(Sched, ConcurrentBatchesNeverLoseOrReorderPerSource) {
  ct::ExploreOptions opts;
  opts.ranks = 3;
  opts.maxRuns = 60;
  ct::ExploreResult res = ct::explore(opts, twoSenderBody);
  EXPECT_FALSE(res.failed) << res.failure.what;
}

TEST(Sched, KillMidBatchStillWakesTheTeam) {
  ct::ExploreOptions opts;
  opts.ranks = 3;
  opts.maxRuns = 60;
  ct::ExploreResult res = ct::explore(opts, [](Comm& comm) {
    constexpr int kTag = 13;
    if (comm.rank() == 0) {
      // Whether the kill lands before, between, or after these batches is
      // the interleaving under exploration; the doorbell protocol
      // must never let a blocked receiver miss the failure poke.
      comm.sendMany(1, kTag, numberedBatch(0, 3));
      comm.failRank(2);
      comm.sendMany(1, kTag, numberedBatch(3, 3));
    } else if (comm.rank() == 1) {
      std::uint32_t seen = 0;
      bool woke = false;
      try {
        for (;;) {
          const auto got = comm.recvValue<std::uint32_t>(0, kTag);
          ct::require(got == seen, "stream order broken around the kill");
          if (++seen == 6) break;
        }
        // All six arrived; the wait on the dead rank must still wake.
        (void)comm.recv(2, kTag);
        ct::require(false, "recv from killed rank returned a message");
      } catch (const CommError& e) {
        woke = e.kind() == CommErrorKind::RankFailed;
      }
      ct::require(woke, "rank 1 must surface RankFailed, not hang");
    }
    // rank 2 exits immediately (or is killed first) — both are legal.
  });
  EXPECT_FALSE(res.failed) << res.failure.what;
}

// ---------------------------------------------------------------------------
// Parking protocol.  Every blocking edge parks on fiber::EventCount, and a
// controlled waiter waits on the event count's wake token rather than on
// its own readiness check, so the explorer drives the arm / re-check /
// disarm steps and the armed notify's preemption point that production
// threads run.  A wakeup lost between a sender that saw the receiver armed
// and the receiver's next park surfaces here as a deadlock report.
// ---------------------------------------------------------------------------

TEST(Sched, ParkManySendersOneReceiverNeverLosesAWakeup) {
  constexpr int kSenders = 3;
  constexpr std::uint32_t kEach = 4;
  constexpr int kTag = 15;
  constexpr std::uint64_t kRuns = 40;
  for (std::uint64_t run = 0; run < kRuns; ++run) {
    const std::uint64_t seed = faultSeed() * 1000 + run;
    ct::RunOutcome out = ct::runControlled(kSenders + 1, seed, [](Comm& comm) {
      if (comm.rank() != 0) {
        for (std::uint32_t i = 0; i < kEach; ++i)
          comm.sendValue<std::uint32_t>(0, kTag, i);
        return;
      }
      std::array<std::uint32_t, kSenders + 1> next{};
      for (std::uint32_t i = 0; i < kSenders * kEach; ++i) {
        auto m = comm.recv(cca::rt::kAnySource, kTag);
        const auto got = cca::rt::unpack<std::uint32_t>(m.payload);
        auto& want = next[static_cast<std::size_t>(m.source)];
        ct::require(got == want, "per-source order broken from rank " +
                                     std::to_string(m.source));
        ++want;
      }
    });
    ASSERT_FALSE(out.failed) << "seed " << seed << ": " << out.what;
  }
}
