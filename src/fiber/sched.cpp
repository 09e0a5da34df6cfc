#include "cca/fiber/sched.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cca/fiber/context.hpp"
#include "cca/fiber/timer_wheel.hpp"

namespace cca::fiber {

namespace {

[[nodiscard]] std::int64_t realNowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Fiber lifecycle.  Parking is two-phase: the fiber marks itself kParking and
// switches out; its worker registers it in the parked list and only then
// publishes kParked — so no other worker can resume a stack that is still
// running (the "early resume" race).  Unparking claims via a kParked ->
// kClaimed CAS, which also serializes predicate evaluation per fiber.
enum FiberState : int {
  kRunnable = 0,  // in some worker's run queue
  kRunning,       // on a worker's stack right now
  kParking,       // switched out, not yet visible to scanners
  kParked,        // in the parked registry, claimable
  kClaimed,       // a scanner owns it (evaluating / requeueing)
  kDead,          // body finished; stack recyclable
};

class Scheduler;

struct Fiber {
  int id = 0;
  std::size_t idx = 0;  // index in Scheduler::fibers_, packed into timer ids
  Context ctx;
  StackDesc stack;
  std::atomic<int> state{kRunnable};
  // Park request.  Written by the fiber while kRunning, read by scanners only
  // after the kParked publish (release store under the registry mutex), so
  // none of these need to be atomic.  `readyFn` points into the suspended
  // wait() frame on the fiber's own stack — alive exactly while parked.
  std::uint32_t parkEpoch = 0;
  const std::function<bool()>* readyFn = nullptr;
  std::int64_t deadlineNs = -1;  // absolute scheduler-clock; -1 = none
  bool waitResult = false;       // set by the claimer before requeueing
  std::size_t parkedPos = 0;     // index in parked_, maintained under its mutex
  Scheduler* sched = nullptr;
};

struct Worker {
  int idx = 0;
  std::mutex qMx;
  std::deque<Fiber*> q;  // owner pushes/pops the back; thieves pop the front
  Context threadCtx;
  Fiber* current = nullptr;
  Fiber* pendingPark = nullptr;   // published to the registry after the switch
  Fiber* pendingYield = nullptr;  // requeued after the switch, same reason
  std::uint32_t yieldTick = 0;
  std::vector<Fiber*> scratch;  // parked-list snapshot, reused across scans
  std::vector<std::uint64_t> dueScratch;  // due-timer ids, reused likewise
  std::minstd_rand rng;
};

thread_local Worker* tl_worker = nullptr;

// Process-global recycled-stack pool.  Comm::run stands up a fresh Scheduler
// per team, and the guard-page mmap/mprotect per fiber stack is the dominant
// fixed cost of doing so — benchmarks and tests that run many small teams
// back to back pay it over and over.  Bounded so a one-off huge team does
// not pin address space for the rest of the process.
class StackPool {
 public:
  ~StackPool() {
    for (const StackDesc& s : free_) freeStack(s);
  }

  StackDesc take(std::size_t stackBytes) {
    {
      std::lock_guard lk(mx_);
      if (!free_.empty()) {
        StackDesc s = free_.back();
        free_.pop_back();
        if (s.usableBytes >= stackBytes) {
          unpoisonStackMemory(s);  // clear the dead owner's shadow state
          return s;
        }
        freeStack(s);
      }
    }
    return allocStack(stackBytes);
  }

  void put(const StackDesc& s) {
    {
      std::lock_guard lk(mx_);
      if (free_.size() < kMaxPooled) {
        free_.push_back(s);
        return;
      }
    }
    freeStack(s);
  }

 private:
  static constexpr std::size_t kMaxPooled = 256;
  std::mutex mx_;
  std::vector<StackDesc> free_;
};

StackPool& stackPool() {
  static StackPool pool;
  return pool;
}

void fiberEntry(void* argRaw);

class Scheduler final : public testing::ScheduleController {
 public:
  Scheduler() : t0_(realNowNs()) {}

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  ~Scheduler() override = default;

  void run(int count, const std::function<void(int)>& body, int workerCount,
           std::size_t stackBytes) {
    body_ = &body;
    live_.store(count, std::memory_order_release);
    fibers_.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      auto f = std::make_unique<Fiber>();
      f->id = i;
      f->idx = static_cast<std::size_t>(i);
      f->sched = this;
      f->stack = stackPool().take(stackBytes);
      makeContext(f->ctx, f->stack, &fiberEntry, f.get());
      fibers_.push_back(std::move(f));
    }
    workers_.reserve(static_cast<std::size_t>(workerCount));
    for (int i = 0; i < workerCount; ++i) {
      auto w = std::make_unique<Worker>();
      w->idx = i;
      w->rng.seed(static_cast<std::uint32_t>(i) * 2654435761u + 1u);
      workers_.push_back(std::move(w));
    }
    for (std::size_t i = 0; i < fibers_.size(); ++i)
      workers_[i % workers_.size()]->q.push_back(fibers_[i].get());
    std::vector<std::thread> threads;
    threads.reserve(workers_.size());
    for (auto& w : workers_)
      threads.emplace_back([this, &w] { workerMain(*w); });
    for (auto& t : threads) t.join();
    if (firstError_ != nullptr) std::rethrow_exception(firstError_);
  }

  // --- ScheduleController ------------------------------------------------

  int registerActor(int preferredId) override {
    // Fibers never get here (their workers are permanently registered, so
    // ActorScope no-ops).  A foreign thread — a nested thread-per-rank team
    // spawned from a fiber body — registers and gets plain-thread behavior
    // through the foreign fallbacks below.
    if (tl_worker != nullptr && tl_worker->current != nullptr)
      return tl_worker->current->id;
    return preferredId < 0 ? 0 : preferredId;
  }

  void deregisterActor() override {}

  void yield(const testing::SchedPoint&) override {
    Worker* w = tl_worker;
    if (w == nullptr || w->current == nullptr) return;
    // schedulePoint() is extremely hot (every deliver/recv/tag draw); only
    // every 64th call actually considers rescheduling.
    if ((++w->yieldTick & 63u) != 0) return;
    Fiber* f = w->current;
    w->pendingYield = f;
    switchContext(f->ctx, w->threadCtx, /*fromDying=*/false);
  }

  bool wait(const testing::SchedPoint&, const std::function<bool()>& ready,
            std::int64_t deadlineNs) override {
    Worker* w = tl_worker;
    Fiber* f = w != nullptr ? w->current : nullptr;
    if (f == nullptr) return foreignWait(ready, deadlineNs);
    if (ready()) return true;
    if (deadlineNs == 0) return ready();
    // Dekker with notifySignal()'s parked-hint fast path: publish the
    // intent to park (seq_cst) *before* the final predicate check.  A
    // signaler either observes the hint — and bumps the wake epoch so the
    // scanners re-evaluate us — or its state change is visible to this
    // re-check and we never park at all.
    parkedHint_.fetch_add(1, std::memory_order_seq_cst);
    if (ready()) {
      parkedHint_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    f->readyFn = &ready;
    f->deadlineNs = deadlineNs < 0 ? -1 : schedNowNs() + deadlineNs;
    ++f->parkEpoch;
    f->waitResult = false;
    f->state.store(kParking, std::memory_order_relaxed);
    w->pendingPark = f;
    switchContext(f->ctx, w->threadCtx, /*fromDying=*/false);
    // A claimer evaluated the predicate (or expired the deadline), wrote
    // waitResult and requeued us.
    f->readyFn = nullptr;
    f->deadlineNs = -1;
    return f->waitResult;
  }

  std::int64_t nowNs() override { return schedNowNs(); }

  void sleepNs(std::int64_t ns, const testing::SchedPoint& p) override {
    if (ns <= 0) return;
    Worker* w = tl_worker;
    if (w == nullptr || w->current == nullptr) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
      return;
    }
    static const std::function<bool()> never = [] { return false; };
    (void)wait(p, never, ns);
  }

  void noteFailure(std::exception_ptr ep) override {
    recordError(std::move(ep));
  }

  void notifySignal() noexcept override {
    // Fast path for the deliver-to-a-running-receiver case — the common one
    // under LIFO scheduling, where a flood sender finishes before its
    // receiver ever blocks: with no fiber parked (or committing to park,
    // see the hint publish in wait()) there is no predicate to rescan and
    // nothing to wake, so the whole epoch-bump/notify protocol is skipped
    // for the price of one load.
    if (parkedHint_.load(std::memory_order_seq_cst) == 0) return;
    wakeIdle();
  }

  // --- fiber entry / exit -------------------------------------------------

  [[noreturn]] void runFiberBody(Fiber& f) {
    try {
      (*body_)(f.id);
    } catch (const testing::AbortRun&) {
      // This scheduler never aborts runs; tolerate a stray explorer type.
    } catch (...) {
      recordError(std::current_exception());
    }
    f.state.store(kDead, std::memory_order_release);
    Worker& w = *tl_worker;
    switchContext(f.ctx, w.threadCtx, /*fromDying=*/true);
    __builtin_unreachable();
  }

 private:
  // Unconditional wake: bump the epoch so any worker between its loop-top
  // epoch read and idleWait() refuses to sleep, then notify the ones that
  // already did.  Internal callers (runnable work pushed, last fiber gone)
  // use this directly; the controller-facing notifySignal() gates it on the
  // parked hint.
  void wakeIdle() noexcept {
    signalEpoch_.fetch_add(1, std::memory_order_seq_cst);
    if (idleWaiters_.load(std::memory_order_seq_cst) > 0) {
      // Notify under the mutex: a waiter that missed the epoch bump is
      // either inside the cv wait (sees the notify) or still holds idleMx_
      // and will re-check the epoch before sleeping.
      std::lock_guard lk(idleMx_);
      idleCv_.notify_all();
    }
  }

  // --- worker loop --------------------------------------------------------

  void workerMain(Worker& w) {
    tl_worker = &w;
    // Permanently registered: every hook called on this thread — i.e. by any
    // fiber running here — routes to this scheduler.
    testing::detail::tl_registered = true;
    initThreadContext(w.threadCtx);
    for (;;) {
      if (Fiber* f = nextRunnable(w)) {
        resumeFiber(w, f);
        continue;
      }
      if (live_.load(std::memory_order_acquire) == 0) break;
      const std::uint64_t e = signalEpoch_.load(std::memory_order_seq_cst);
      bool progress = expireTimers(w);
      if (scanParked(w)) progress = true;
      if (progress) continue;
      if (live_.load(std::memory_order_acquire) == 0) break;
      idleWait(w, e);
    }
    testing::detail::tl_registered = false;
    tl_worker = nullptr;
  }

  Fiber* nextRunnable(Worker& w) {
    {
      std::lock_guard lk(w.qMx);
      if (!w.q.empty()) {
        Fiber* f = w.q.back();
        w.q.pop_back();
        return f;
      }
    }
    const auto n = workers_.size();
    if (n > 1) {
      // Steal from the front (FIFO end) of a random victim.
      const std::size_t start = w.rng() % n;
      for (std::size_t i = 0; i < n; ++i) {
        Worker& v = *workers_[(start + i) % n];
        if (&v == &w) continue;
        std::lock_guard lk(v.qMx);
        if (!v.q.empty()) {
          Fiber* f = v.q.front();
          v.q.pop_front();
          return f;
        }
      }
    }
    return nullptr;
  }

  void resumeFiber(Worker& w, Fiber* f) {
    f->state.store(kRunning, std::memory_order_relaxed);
    w.current = f;
    switchContext(w.threadCtx, f->ctx, /*fromDying=*/false);
    w.current = nullptr;
    if (Fiber* p = w.pendingPark; p != nullptr) {
      w.pendingPark = nullptr;
      registerParked(p);
    } else if (Fiber* y = w.pendingYield; y != nullptr) {
      w.pendingYield = nullptr;
      y->state.store(kRunnable, std::memory_order_release);
      pushLocal(w, y);
    } else if (f->state.load(std::memory_order_acquire) == kDead) {
      finishFiber(*f);
    }
  }

  void registerParked(Fiber* f) {
    std::lock_guard lk(parkedMx_);
    f->parkedPos = parked_.size();
    parked_.push_back(f);
    if (f->deadlineNs >= 0) wheel_.add(timerId(*f), f->deadlineNs);
    f->state.store(kParked, std::memory_order_release);
  }

  void finishFiber(Fiber& f) {
    destroyFiberContext(f.ctx);
    if (f.stack) {
      stackPool().put(f.stack);
      f.stack = {};
    }
    if (live_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      wakeIdle();  // last fiber: wake idle workers so they can exit
    }
  }

  // Drain due timers from the wheel; claim + requeue the fibers they name.
  bool expireTimers(Worker& w) {
    const std::int64_t now = schedNowNs();
    w.dueScratch.clear();
    {
      std::lock_guard lk(parkedMx_);
      if (wheel_.size() == 0) return false;
      wheel_.advance(now, w.dueScratch);
    }
    bool any = false;
    for (const std::uint64_t id : w.dueScratch) {
      Fiber* f = fibers_[id >> 32].get();
      int expect = kParked;
      if (!f->state.compare_exchange_strong(expect, kClaimed,
                                            std::memory_order_acq_rel))
        continue;  // raced with a predicate claim (or fiber died): stale
      if (f->parkEpoch != static_cast<std::uint32_t>(id) ||
          f->deadlineNs < 0 || now < f->deadlineNs) {
        f->state.store(kParked, std::memory_order_release);  // stale epoch
        continue;
      }
      // Deadline hit.  Prefer a success result if the predicate turned true
      // at the wire — matches cv wait_for semantics.
      f->waitResult = f->readyFn != nullptr && (*f->readyFn)();
      unparkClaimed(w, f);
      any = true;
    }
    return any;
  }

  // Evaluate parked predicates; claim + requeue the satisfied ones.
  bool scanParked(Worker& w) {
    {
      std::lock_guard lk(parkedMx_);
      if (parked_.empty()) return false;
      w.scratch.assign(parked_.begin(), parked_.end());
    }
    const std::int64_t now = schedNowNs();
    bool any = false;
    for (Fiber* f : w.scratch) {
      int expect = kParked;
      if (!f->state.compare_exchange_strong(expect, kClaimed,
                                            std::memory_order_acq_rel))
        continue;
      const bool ready = f->readyFn != nullptr && (*f->readyFn)();
      const bool expired =
          !ready && f->deadlineNs >= 0 && now >= f->deadlineNs;
      if (!ready && !expired) {
        f->state.store(kParked, std::memory_order_release);
        continue;
      }
      f->waitResult = ready;
      unparkClaimed(w, f);
      any = true;
    }
    return any;
  }

  void unparkClaimed(Worker& w, Fiber* f) {
    parkedHint_.fetch_sub(1, std::memory_order_relaxed);
    {
      std::lock_guard lk(parkedMx_);
      const std::size_t i = f->parkedPos;
      Fiber* last = parked_.back();
      parked_[i] = last;
      last->parkedPos = i;
      parked_.pop_back();
    }
    f->state.store(kRunnable, std::memory_order_release);
    pushLocal(w, f);
  }

  void pushLocal(Worker& w, Fiber* f) {
    {
      std::lock_guard lk(w.qMx);
      w.q.push_back(f);
    }
    // Another worker may be idle and able to steal this; nudge the pool.
    if (idleWaiters_.load(std::memory_order_seq_cst) > 0) wakeIdle();
  }

  void idleWait(Worker& w, std::uint64_t epochBefore) {
    (void)w;
    std::int64_t next = -1;
    {
      std::lock_guard lk(parkedMx_);
      next = wheel_.nextDeadline();
    }
    // 5 ms backstop poll: even a missed signalWakeup (an edge we forgot to
    // annotate, or an external library waking a predicate) only costs
    // milliseconds, not a hang.
    std::int64_t waitNs = 5'000'000;
    if (next >= 0)
      waitNs = std::clamp<std::int64_t>(next - schedNowNs(), 0, waitNs);
    if (waitNs <= 0) return;
    idleWaiters_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock lk(idleMx_);
      idleCv_.wait_for(lk, std::chrono::nanoseconds(waitNs), [&] {
        return signalEpoch_.load(std::memory_order_seq_cst) != epochBefore ||
               live_.load(std::memory_order_acquire) == 0;
      });
    }
    idleWaiters_.fetch_sub(1, std::memory_order_seq_cst);
  }

  // --- helpers ------------------------------------------------------------

  [[nodiscard]] std::int64_t schedNowNs() const noexcept {
    return realNowNs() - t0_;
  }

  [[nodiscard]] static std::uint64_t timerId(const Fiber& f) noexcept {
    return (static_cast<std::uint64_t>(f.idx) << 32) | f.parkEpoch;
  }

  void recordError(std::exception_ptr ep) {
    std::lock_guard lk(errMx_);
    if (firstError_ == nullptr) firstError_ = std::move(ep);
  }

  // Polling fallback for registered non-fiber threads (nested thread teams
  // spawned from a fiber body): plain-thread blocking semantics.
  bool foreignWait(const std::function<bool()>& ready,
                   std::int64_t deadlineNs) {
    const std::int64_t deadline =
        deadlineNs < 0 ? -1 : schedNowNs() + deadlineNs;
    while (!ready()) {
      if (deadline >= 0 && schedNowNs() >= deadline) return ready();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return true;
  }

  const std::function<void(int)>* body_ = nullptr;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<int> live_{0};

  std::atomic<std::uint64_t> signalEpoch_{0};
  std::atomic<int> idleWaiters_{0};
  // Fibers parked or past the point of no return in wait(); lets
  // notifySignal() skip the wake protocol entirely when a deliver lands on
  // a receiver that is running rather than blocked.
  std::atomic<int> parkedHint_{0};
  std::mutex idleMx_;
  std::condition_variable idleCv_;

  std::mutex parkedMx_;  // guards parked_, parkedPos and wheel_
  std::vector<Fiber*> parked_;
  TimerWheel wheel_;

  std::mutex errMx_;
  std::exception_ptr firstError_;

  const std::int64_t t0_;
};

void fiberEntry(void* argRaw) {
  finishFirstSwitch();
  auto* f = static_cast<Fiber*>(argRaw);
  f->sched->runFiberBody(*f);
}

}  // namespace

bool tryRunFibers(int count, const std::function<void(int)>& body,
                  const FiberOptions& opts) {
  if (count < 0) throw std::invalid_argument("tryRunFibers: negative count");
  Scheduler sched;
  testing::ScheduleController* expected = nullptr;
  if (!testing::detail::g_controller.compare_exchange_strong(
          expected, &sched, std::memory_order_acq_rel))
    return false;  // explorer (or another fiber run) owns the seam
  struct Uninstall {
    ~Uninstall() { testing::uninstallController(); }
  } uninstall;
  const int workers =
      opts.workers > 0
          ? opts.workers
          : static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const std::size_t stackBytes =
      opts.stackBytes > 0 ? opts.stackBytes : defaultStackBytes();
  sched.run(count, body, workers, stackBytes);
  return true;
}

void runFibers(int count, const std::function<void(int)>& body,
               const FiberOptions& opts) {
  if (!tryRunFibers(count, body, opts))
    throw std::runtime_error(
        "runFibers: a schedule controller is already installed "
        "(explorer run or concurrent fiber scheduler)");
}

}  // namespace cca::fiber
