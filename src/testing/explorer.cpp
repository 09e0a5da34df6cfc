// Deterministic schedule explorer (see include/cca/testing/explore.hpp).
//
// Mechanics: a run is *serialized* — exactly one controlled thread executes
// between schedule points, every other controlled thread is parked on the
// explorer's condition variable.  Whenever the token-holding thread reaches
// a hook (yield / wait / sleep / exit), it performs the next scheduling
// decision itself while it still holds the explorer lock: it computes the
// eligible set (runnable actors, waiters whose predicate turned true,
// sleepers whose virtual wake time arrived), asks the strategy to pick one,
// records the choice in the trace, grants the token and parks.  A run is
// therefore a pure function of its decision sequence, which is what makes
// record/replay exact.
//
// Virtual time: the clock only advances when the eligible set is empty and
// some actor has a pending deadline/wake-up — it jumps straight to the
// earliest one.  A run with no runnable actor, no pending timer and live
// actors left is a *deadlock*, reported immediately with each actor's
// blocked-at point.
//
// Abort protocol: the first failure (body exception, deadlock, divergence,
// decision-budget exhaustion) is recorded, then `aborted_` is raised and
// every parked hook either returns immediately (yield/sleep) or throws
// AbortRun (wait) so blocked protocol loops unwind.  After abort the run is
// no longer deterministic — that is fine, its verdict was already recorded.

#include "cca/testing/explore.hpp"

#include <algorithm>
#include <condition_variable>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>

#include "cca/fiber/park.hpp"

namespace cca::testing {

namespace {

thread_local int tl_actorId = -1;

std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Strategy callback: eligible actor ids (sorted ascending) + decision
// ordinal -> chosen actor id, or -1 when the schedule source is exhausted
// (replay ran past its recorded trace).
using ChooseFn = std::function<int(const std::vector<int>&, std::size_t)>;

class Explorer final : public ScheduleController {
 public:
  Explorer(int expectedActors, ChooseFn choose, int maxDecisions)
      : expected_(expectedActors),
        maxDecisions_(maxDecisions),
        choose_(std::move(choose)) {}

  // ---- ScheduleController --------------------------------------------------

  int registerActor(int preferredId) override {
    std::unique_lock lk(mx_);
    const int id = allocateId(preferredId);
    actors_.emplace(id, Actor{});
    Actor& a = actors_[id];
    a.st = St::Runnable;
    a.point = SchedPoint{SchedOp::ThreadStart, -1, 0};
    tl_actorId = id;
    ++registered_;
    if (!started_ && registered_ >= expected_) {
      started_ = true;
      scheduleNext(lk);
    }
    parkUntilGranted(lk, a, /*throwOnAbort=*/false);
    return id;
  }

  void deregisterActor() override {
    std::unique_lock lk(mx_);
    finishLocked(lk, tl_actorId);
    tl_actorId = -1;
  }

  void yield(const SchedPoint& p) override {
    if (aborted_.load(std::memory_order_acquire)) return;
    std::unique_lock lk(mx_);
    Actor& a = actors_[tl_actorId];
    a.st = St::Runnable;
    a.point = p;
    a.granted = false;
    scheduleNext(lk);
    parkUntilGranted(lk, a, /*throwOnAbort=*/false);
  }

  bool wait(const SchedPoint& p, const std::function<bool()>& ready,
            std::int64_t deadlineNs) override {
    if (aborted_.load(std::memory_order_acquire)) throw AbortRun{};
    std::unique_lock lk(mx_);
    Actor& a = actors_[tl_actorId];
    a.st = St::Waiting;
    a.point = p;
    a.ready = ready;
    a.wakeAt = deadlineNs >= 0 ? clock_.load(std::memory_order_relaxed) +
                                     deadlineNs
                               : -1;
    a.granted = false;
    a.timedOut = false;
    scheduleNext(lk);
    parkUntilGranted(lk, a, /*throwOnAbort=*/true);
    a.ready = nullptr;
    return !a.timedOut;
  }

  std::int64_t nowNs() override {
    return clock_.load(std::memory_order_relaxed);
  }

  void sleepNs(std::int64_t ns, const SchedPoint& p) override {
    if (ns <= 0) return;
    if (aborted_.load(std::memory_order_acquire)) {
      // Free-running threads still make time progress so virtual deadlines
      // (awaitPort, per-call timeouts) eventually pass during teardown.
      clock_.fetch_add(ns, std::memory_order_relaxed);
      return;
    }
    std::unique_lock lk(mx_);
    Actor& a = actors_[tl_actorId];
    a.st = St::Sleeping;
    a.point = p;
    a.wakeAt = clock_.load(std::memory_order_relaxed) + ns;
    a.granted = false;
    scheduleNext(lk);
    parkUntilGranted(lk, a, /*throwOnAbort=*/false);
  }

  void noteFailure(std::exception_ptr ep) override {
    std::string msg;
    try {
      std::rethrow_exception(std::move(ep));
    } catch (const AbortRun&) {
      return;  // secondary casualty of an abort already recorded
    } catch (const std::exception& e) {
      msg = e.what();
    } catch (...) {
      msg = "non-standard exception escaped a controlled thread";
    }
    std::unique_lock lk(mx_);
    failLocked(msg, Fail::Body);
  }

  // ---- creator-side registration (ControlledThread) ------------------------

  // Pre-register an actor on behalf of a thread about to be spawned.  The
  // actor is immediately schedulable (its first grant simply waits for the
  // OS thread to arrive in adopt()), so the decision sequence never depends
  // on thread start latency.
  int preregister() {
    std::unique_lock lk(mx_);
    const int id = allocateId(-1);
    actors_.emplace(id, Actor{});
    Actor& a = actors_[id];
    a.st = St::Runnable;
    a.point = SchedPoint{SchedOp::ThreadStart, -1, 0};
    ++registered_;
    return id;
  }

  void adopt(int id) {
    std::unique_lock lk(mx_);
    tl_actorId = id;
    parkUntilGranted(lk, actors_[id], /*throwOnAbort=*/false);
  }

  void finish(int id) {
    std::unique_lock lk(mx_);
    finishLocked(lk, id);
    tl_actorId = -1;
  }

  // ---- driver interface ----------------------------------------------------

  [[nodiscard]] RunOutcome takeOutcome(int ranks) {
    std::unique_lock lk(mx_);
    RunOutcome out;
    out.failed = fail_ != Fail::None;
    out.deadlock = fail_ == Fail::Deadlock;
    out.divergence = fail_ == Fail::Divergence;
    out.budgetExceeded = fail_ == Fail::Budget;
    out.what = what_;
    out.trace.ranks = ranks;
    out.trace.choices = trace_;
    out.trace.note = what_;
    return out;
  }

 private:
  enum class St { Runnable, Running, Waiting, Sleeping, Done };
  enum class Fail { None, Body, Deadlock, Divergence, Budget };

  struct Actor {
    St st = St::Runnable;
    SchedPoint point{};
    std::function<bool()> ready;  // valid while Waiting
    std::int64_t wakeAt = -1;     // Sleeping wake / Waiting deadline; -1 none
    bool timedOut = false;
    bool granted = false;
    bool live = true;
  };

  int allocateId(int preferred) {
    if (preferred >= 0 && actors_.find(preferred) == actors_.end())
      return preferred;
    int id = 0;
    while (actors_.find(id) != actors_.end()) ++id;
    return id;
  }

  void parkUntilGranted(std::unique_lock<std::mutex>& lk, Actor& a,
                        bool throwOnAbort) {
    cv_.wait(lk, [&] {
      return a.granted || aborted_.load(std::memory_order_relaxed);
    });
    const bool granted = a.granted;
    a.granted = false;
    a.st = St::Running;
    if (!granted && throwOnAbort) {
      lk.unlock();
      throw AbortRun{};
    }
  }

  void finishLocked(std::unique_lock<std::mutex>& lk, int id) {
    auto it = actors_.find(id);
    if (it == actors_.end()) return;
    it->second.live = false;
    it->second.st = St::Done;
    it->second.ready = nullptr;
    if (!aborted_.load(std::memory_order_relaxed))
      scheduleNext(lk);
    else
      cv_.notify_all();
  }

  void failLocked(const std::string& what, Fail kind) {
    if (fail_ != Fail::None) {
      cv_.notify_all();
      return;
    }
    fail_ = kind;
    what_ = what;
    aborted_.store(true, std::memory_order_release);
    cv_.notify_all();
  }

  // The scheduling decision.  Called with mx_ held by the (unique) thread
  // relinquishing control; grants the token to the chosen actor.
  void scheduleNext(std::unique_lock<std::mutex>& lk) {
    (void)lk;
    if (aborted_.load(std::memory_order_relaxed)) {
      cv_.notify_all();
      return;
    }
    for (;;) {
      std::vector<int> eligible;
      bool anyLive = false;
      std::int64_t minWake = std::numeric_limits<std::int64_t>::max();
      const std::int64_t now = clock_.load(std::memory_order_relaxed);
      for (auto& [id, a] : actors_) {
        if (!a.live) continue;
        anyLive = true;
        switch (a.st) {
          case St::Runnable:
            eligible.push_back(id);
            break;
          case St::Waiting:
            if (a.ready && a.ready())
              eligible.push_back(id);
            else if (a.wakeAt >= 0)
              minWake = std::min(minWake, a.wakeAt);
            break;
          case St::Sleeping:
            if (a.wakeAt <= now)
              eligible.push_back(id);
            else
              minWake = std::min(minWake, a.wakeAt);
            break;
          case St::Running:  // a free-runner mid-abort; never at decisions
          case St::Done:
            break;
        }
      }
      if (!anyLive) {
        cv_.notify_all();  // run complete
        return;
      }
      if (!eligible.empty()) {
        if (static_cast<int>(decisions_) >= maxDecisions_) {
          failLocked("schedule explorer: decision budget (" +
                         std::to_string(maxDecisions_) +
                         ") exhausted — possible livelock",
                     Fail::Budget);
          return;
        }
        const int chosen = choose_(eligible, decisions_);
        ++decisions_;
        if (std::find(eligible.begin(), eligible.end(), chosen) ==
            eligible.end()) {
          failLocked(divergenceReport(chosen, eligible), Fail::Divergence);
          return;
        }
        trace_.push_back(chosen);
        Actor& a = actors_[chosen];
        // NOTE: a.timedOut is left untouched — if the clock jump above
        // released this actor by expiring its wait deadline, wait() must
        // still report the timeout.
        a.granted = true;
        cv_.notify_all();
        return;
      }
      if (minWake != std::numeric_limits<std::int64_t>::max()) {
        // Nothing can run: jump virtual time to the earliest deadline and
        // convert the actors it releases into runnables.
        clock_.store(minWake, std::memory_order_relaxed);
        for (auto& [id, a] : actors_) {
          if (!a.live || a.wakeAt < 0 || a.wakeAt > minWake) continue;
          if (a.st == St::Sleeping) {
            a.st = St::Runnable;
            a.wakeAt = -1;
          } else if (a.st == St::Waiting) {
            a.st = St::Runnable;
            a.wakeAt = -1;
            a.ready = nullptr;
            a.timedOut = true;
          }
        }
        continue;
      }
      failLocked(deadlockReport(), Fail::Deadlock);
      return;
    }
  }

  [[nodiscard]] std::string deadlockReport() const {
    std::ostringstream os;
    os << "deadlock: every controlled thread is blocked with no pending "
          "virtual timer;";
    for (const auto& [id, a] : actors_) {
      if (!a.live) continue;
      os << " actor " << id << " blocked at " << to_string(a.point.op);
      if (a.point.peer >= 0) os << "(peer " << a.point.peer << ")";
      os << ";";
    }
    return os.str();
  }

  [[nodiscard]] std::string divergenceReport(
      int chosen, const std::vector<int>& eligible) const {
    std::ostringstream os;
    if (chosen < 0) {
      os << "replay diverged: recorded schedule exhausted after "
         << trace_.size() << " decision(s) but the run wants more";
    } else {
      os << "replay diverged at decision " << trace_.size() << ": forced actor "
         << chosen << " is not runnable (eligible:";
      for (int id : eligible) os << " " << id;
      os << ")";
    }
    return os.str();
  }

  const int expected_;
  const int maxDecisions_;
  ChooseFn choose_;

  std::mutex mx_;
  std::condition_variable cv_;
  std::map<int, Actor> actors_;  // ordered: eligible sets come out sorted
  int registered_ = 0;
  bool started_ = false;
  std::size_t decisions_ = 0;
  std::vector<int> trace_;
  std::atomic<std::int64_t> clock_{0};
  std::atomic<bool> aborted_{false};
  Fail fail_ = Fail::None;
  std::string what_;
};

// ---------------------------------------------------------------------------
// Run drivers
// ---------------------------------------------------------------------------

// One controlled run of an SPMD body.  The team launcher in rt registers
// each rank thread (ActorScope) and reports body exceptions through
// noteControlledFailure; anything Comm::run rethrows that the explorer has
// not already attributed (e.g. launcher-level errors) is recorded here.
RunOutcome runCommOnce(int ranks, const ChooseFn& choose, int maxDecisions,
                       const std::function<void(rt::Comm&)>& body) {
  Explorer ex(ranks, choose, maxDecisions);
  installController(&ex);
  try {
    rt::Comm::run(ranks, body);
  } catch (const AbortRun&) {
  } catch (...) {
    ex.noteFailure(std::current_exception());
  }
  uninstallController();
  return ex.takeOutcome(ranks);
}

RunOutcome runThreadsOnce(std::size_t n, const ChooseFn& choose,
                          int maxDecisions,
                          const std::vector<std::function<void()>>& bodies) {
  Explorer ex(static_cast<int>(n), choose, maxDecisions);
  installController(&ex);
  std::vector<std::thread> team;
  team.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    team.emplace_back([&bodies, i] {
      ActorScope scope(static_cast<int>(i));
      try {
        bodies[i]();
      } catch (const AbortRun&) {
      } catch (...) {
        noteControlledFailure(std::current_exception());
      }
    });
  }
  for (auto& t : team) t.join();
  uninstallController();
  return ex.takeOutcome(static_cast<int>(n));
}

ChooseFn randomChooser(std::uint64_t seed, int run) {
  auto state = std::make_shared<std::uint64_t>(
      mix64(seed ^ mix64(static_cast<std::uint64_t>(run))));
  return [state](const std::vector<int>& eligible, std::size_t) {
    *state = mix64(*state);
    return eligible[static_cast<std::size_t>(*state % eligible.size())];
  };
}

ChooseFn replayChooser(std::shared_ptr<const std::vector<int>> choices) {
  return [choices = std::move(choices)](const std::vector<int>&,
                                        std::size_t d) {
    if (d >= choices->size()) return -1;
    return (*choices)[d];
  };
}

struct DfsCell {
  int chosen = 0;
  int branch = 1;
};

ChooseFn dfsChooser(std::shared_ptr<std::vector<DfsCell>> prefix) {
  return [prefix = std::move(prefix)](const std::vector<int>& eligible,
                                      std::size_t d) {
    if (d < prefix->size()) {
      DfsCell& cell = (*prefix)[d];
      cell.branch = static_cast<int>(eligible.size());
      if (cell.chosen >= cell.branch) return -1;  // determinism broke
      return eligible[static_cast<std::size_t>(cell.chosen)];
    }
    prefix->push_back(DfsCell{0, static_cast<int>(eligible.size())});
    return eligible[0];
  };
}

// Backtrack to the next unexplored DFS branch; false when the space within
// the decision bound is exhausted.
bool dfsAdvance(std::vector<DfsCell>& prefix) {
  while (!prefix.empty() && prefix.back().chosen + 1 >= prefix.back().branch)
    prefix.pop_back();
  if (prefix.empty()) return false;
  ++prefix.back().chosen;
  return true;
}

template <typename RunOnce>
ExploreResult exploreWith(const ExploreOptions& opts, const RunOnce& runOnce) {
  ExploreResult res;
  auto prefix = std::make_shared<std::vector<DfsCell>>();
  for (int run = 0; run < opts.maxRuns; ++run) {
    ChooseFn choose = opts.strategy == Strategy::Random
                          ? randomChooser(opts.seed, run)
                          : dfsChooser(prefix);
    RunOutcome out = runOnce(choose);
    ++res.runs;
    if (out.failed) {
      res.failed = true;
      res.failure = std::move(out);
      return res;
    }
    if (opts.strategy == Strategy::DFS && !dfsAdvance(*prefix)) {
      res.exhausted = true;
      return res;
    }
  }
  return res;
}

}  // namespace

ExploreResult explore(const ExploreOptions& opts,
                      const std::function<void(rt::Comm&)>& body) {
  return exploreWith(opts, [&](const ChooseFn& choose) {
    return runCommOnce(opts.ranks, choose, opts.maxDecisions, body);
  });
}

ExploreResult exploreThreads(const ExploreOptions& opts,
                             const std::vector<std::function<void()>>& bodies) {
  return exploreWith(opts, [&](const ChooseFn& choose) {
    return runThreadsOnce(bodies.size(), choose, opts.maxDecisions, bodies);
  });
}

RunOutcome runSchedule(const Schedule& sched,
                       const std::function<void(rt::Comm&)>& body) {
  auto choices = std::make_shared<const std::vector<int>>(sched.choices);
  return runCommOnce(sched.ranks, replayChooser(std::move(choices)),
                     static_cast<int>(sched.choices.size()) + 1, body);
}

RunOutcome runScheduleThreads(
    const Schedule& sched, const std::vector<std::function<void()>>& bodies) {
  auto choices = std::make_shared<const std::vector<int>>(sched.choices);
  return runThreadsOnce(bodies.size(), replayChooser(std::move(choices)),
                        static_cast<int>(sched.choices.size()) + 1, bodies);
}

RunOutcome runControlled(int ranks, std::uint64_t seed,
                         const std::function<void(rt::Comm&)>& body) {
  return runCommOnce(ranks, randomChooser(seed, 0), 1 << 20, body);
}

void saveSchedule(const Schedule& sched, const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error("saveSchedule: cannot open " + path);
  std::string note = sched.note;
  std::replace(note.begin(), note.end(), '\n', ' ');
  f << "cca-sched v1\n";
  f << "ranks " << sched.ranks << "\n";
  f << "note " << note << "\n";
  f << "choices " << sched.choices.size() << "\n";
  for (std::size_t i = 0; i < sched.choices.size(); ++i)
    f << sched.choices[i] << ((i + 1) % 16 == 0 ? '\n' : ' ');
  f << "\n";
  if (!f.good()) throw std::runtime_error("saveSchedule: write to " + path + " failed");
}

Schedule loadSchedule(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("loadSchedule: cannot open " + path);
  std::string magic, version;
  f >> magic >> version;
  if (magic != "cca-sched" || version != "v1")
    throw std::runtime_error("loadSchedule: " + path +
                             " is not a cca-sched v1 file");
  Schedule s;
  std::string key;
  f >> key >> s.ranks;
  if (key != "ranks" || s.ranks <= 0)
    throw std::runtime_error("loadSchedule: bad ranks line in " + path);
  f >> key;
  if (key != "note")
    throw std::runtime_error("loadSchedule: bad note line in " + path);
  std::getline(f, s.note);
  if (!s.note.empty() && s.note.front() == ' ') s.note.erase(0, 1);
  std::size_t n = 0;
  f >> key >> n;
  if (key != "choices")
    throw std::runtime_error("loadSchedule: bad choices line in " + path);
  s.choices.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    int c = -1;
    if (!(f >> c))
      throw std::runtime_error("loadSchedule: truncated choice list in " + path);
    s.choices.push_back(c);
  }
  return s;
}

// ---------------------------------------------------------------------------
// ControlledThread
// ---------------------------------------------------------------------------

struct ControlledThread::Impl {
  Explorer* ex = nullptr;
  int id = -1;
  std::atomic<bool> finished{false};
  fiber::EventCount exited;  // a schedule-aware join parks here
};

ControlledThread::ControlledThread(std::function<void()> fn)
    : impl_(std::make_unique<Impl>()) {
  // Controlled only when the *creator* is a controlled actor: registration
  // must land at a deterministic position in the decision sequence, and an
  // uncontrolled creator has no such position.
  auto* ctl = detail::g_controller.load(std::memory_order_acquire);
  if (ctl != nullptr && detail::tl_registered)
    if (auto* ex = dynamic_cast<Explorer*>(ctl)) {
      impl_->ex = ex;
      impl_->id = ex->preregister();
    }
  thread_ = std::thread([impl = impl_.get(), fn = std::move(fn)] {
    if (impl->ex == nullptr) {
      fn();
      return;
    }
    detail::tl_registered = true;
    impl->ex->adopt(impl->id);
    try {
      fn();
    } catch (const AbortRun&) {
    } catch (...) {
      noteControlledFailure(std::current_exception());
    }
    impl->finished.store(true, std::memory_order_release);
    impl->exited.notify(SchedPoint{SchedOp::ThreadExit, impl->id, 0});
    impl->ex->finish(impl->id);
    detail::tl_registered = false;
  });
}

ControlledThread::~ControlledThread() {
  if (thread_.joinable()) thread_.join();
}

void ControlledThread::join() {
  if (impl_->ex != nullptr && detail::tl_registered &&
      !impl_->finished.load(std::memory_order_acquire)) {
    // Schedule-aware join: park as a waiter instead of blocking the token.
    impl_->exited.await(SchedPoint{SchedOp::ThreadExit, impl_->id, 0}, [this] {
      return impl_->finished.load(std::memory_order_acquire);
    });
  }
  if (thread_.joinable()) thread_.join();
}

}  // namespace cca::testing
