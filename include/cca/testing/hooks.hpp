#pragma once
// cca::testing hook layer — the seam between the production runtime and the
// deterministic schedule explorer (include/cca/testing/explore.hpp).
//
// The runtime (rt::Comm's mailbox lanes, collectives, barrier and quiesce;
// collective::CouplingChannel; core::CircuitBreaker and core::DrainGate;
// serve::PortServer and PortClient) calls the inline helpers below at every
// point where thread interleaving matters:
//
//   * schedulePoint()  — a preemption point: under a controller the calling
//                        thread parks until the controller picks it to run.
//   * blocking waits   — every one goes through fiber::EventCount
//                        (include/cca/fiber/park.hpp), the only caller of
//                        ScheduleController::wait: a controlled waiter arms
//                        the event count, then parks until its *wake token*
//                        moves (an armed notify) or its *virtual* deadline
//                        passes.  The caller's own readiness check runs on
//                        the waiter's thread after each wake, so the
//                        explorer drives the same wakeup protocol that
//                        production threads run.
//   * sleepFor()/nowNs() — virtual time: under a controller, sleeps and
//                        timeouts consume simulated nanoseconds that advance
//                        only when no controlled thread can run, so a test
//                        that "waits 20 ms" costs zero wall-clock and cannot
//                        flake under host load.
//
// When no controller is installed — every production run, and every test
// that does not opt in — each helper is a single relaxed atomic load and a
// predicted-not-taken branch (bench_rt_transport confirms the cost is within
// run-to-run noise; see BENCH_rt.json "sched_hooks" entry).  This header is
// deliberately dependency-free so rt can include it without linking any
// testing code.
//
// Threads participate only if registered (ActorScope): an unregistered
// thread in a process that has a controller installed — the gtest main
// thread, a detached watchdog — falls through to the production path.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>

namespace cca::testing {

/// Where in the runtime a schedule point sits.  The explorer records these
/// in traces and exposes them in failure reports; exploration semantics do
/// not depend on the kind, only on which thread yields.
enum class SchedOp : std::uint8_t {
  ThreadStart = 0,
  ThreadExit,
  MailboxDeliver,  ///< a sender about to deposit into a mailbox lane
  MailboxRecv,     ///< a receiver waiting for a matching envelope
  Barrier,         ///< a rank waiting for the barrier generation to advance
  CollectiveTag,   ///< a handle about to draw from the collective sequence
  QuiesceEpoch,    ///< a rank starting a quiescence epoch
  ChannelPut,      ///< an MxN coupling-channel producer
  ChannelTake,     ///< an MxN coupling-channel consumer waiting on a slot
  SupervisedCall,  ///< a supervised port call entering the retry loop
  BreakerEvent,    ///< a circuit-breaker state transition was recorded
  Sleep,           ///< a virtual sleep (backoff, epoch pacing, test delays)
  ServeAdmit,      ///< a PortServer admission decision (accept vs. busy)
  ServeDispatch,   ///< a PortServer call about to dispatch onto a replica
  ServeReply,      ///< a PortServer response about to return to the client
  DrainGate,       ///< a thread waiting on a drain gate: parked at a held
                   ///< core::DrainGate (supervised call, paused PortServer
                   ///< dispatch), awaiting one idle (upgrade drain, replica
                   ///< swap), or a dispatch awaiting any replica to reopen;
                   ///< tag = core::DrainTag
  UpgradePhase,    ///< an UpgradeCoordinator phase transition (tag = phase)
  User,            ///< test-body schedule point (testing::interleavePoint)
};

[[nodiscard]] const char* to_string(SchedOp op) noexcept;

/// One schedule point as seen by the controller.  `actor` is implied by the
/// calling thread; peer/tag carry runtime context (destination rank, message
/// tag, breaker state…) for trace readability.
struct SchedPoint {
  SchedOp op = SchedOp::User;
  int peer = -1;
  int tag = 0;
};

/// Thrown by the controller out of a parked hook once a run has been
/// aborted (first failure recorded, deadlock declared, replay diverged) so
/// blocked protocol loops unwind instead of spinning.  Deliberately NOT
/// derived from std::exception: retry layers that catch std::exception to
/// retry transient faults (SupervisedChannel::call) must not swallow it.
struct AbortRun {};

/// The controller interface the explorer implements.  All methods are called
/// from registered (controlled) threads except the predicate evaluations,
/// which the controller may perform from whichever controlled thread is
/// making a scheduling decision, while holding its own lock.  The runtime's
/// only predicate is fiber::EventCount's wake-token check, a single atomic
/// load; a predicate must never take a runtime lock or run protocol code.
class ScheduleController {
 public:
  virtual ~ScheduleController() = default;

  /// Register the calling thread as a controlled actor.  `preferredId`
  /// (e.g. an SPMD rank) is used when free; -1 asks for any id.
  virtual int registerActor(int preferredId) = 0;
  virtual void deregisterActor() = 0;

  /// Preemption point: park until chosen to run.
  virtual void yield(const SchedPoint& p) = 0;

  /// Park until `ready()` returns true (checked at every scheduling
  /// decision) or `deadlineNs` nanoseconds of *virtual* time elapse (< 0:
  /// no deadline).  Returns false exactly when the deadline fired first.
  virtual bool wait(const SchedPoint& p, const std::function<bool()>& ready,
                    std::int64_t deadlineNs) = 0;

  /// Virtual clock, nanoseconds since the start of the controlled run.
  virtual std::int64_t nowNs() = 0;

  /// Advance through `ns` of virtual time (parks; never burns wall clock).
  virtual void sleepNs(std::int64_t ns, const SchedPoint& p) = 0;

  /// Report a failure that escaped a controlled thread's body (the runtime's
  /// team launcher calls this from its per-rank catch).  First report wins;
  /// the controller aborts the run so parked peers unwind.
  virtual void noteFailure(std::exception_ptr /*ep*/) {}

  /// A wakeup hint from *any* thread, controlled or not: some parked actor's
  /// readiness predicate may have turned true (fiber::EventCount sends it
  /// after moving its wake token for an armed waiter).  Must be cheap,
  /// lock-light and safe to call while holding runtime leaf locks.  The
  /// fiber scheduler uses it to rescan parked fibers promptly instead of
  /// waiting for its idle poll; the explorer re-evaluates predicates at
  /// every scheduling decision anyway, so its default no-op is correct.
  virtual void notifySignal() noexcept {}
};

namespace detail {
/// The installed controller.  Relaxed is sufficient: installation happens
/// before the controlled threads are spawned (thread creation synchronizes),
/// and production code only ever observes nullptr.
inline std::atomic<ScheduleController*> g_controller{nullptr};
/// Set while the calling thread is registered with the controller.
inline thread_local bool tl_registered = false;
/// PR-2 historical-bug reinjection switch; see setLegacyCollTagBug().
inline std::atomic<bool> g_legacyCollTagBug{false};
/// Drain-window bug reinjection switch; see setUpgradeDrainWindowBug().
inline std::atomic<bool> g_upgradeDrainBug{false};
/// Count of threads currently inside a controller's notifySignal().
/// uninstallController() spins until it drains so a controller is never
/// destroyed while an uncontrolled thread is mid-call into it.
inline std::atomic<int> g_signalCalls{0};
}  // namespace detail

/// Install/remove the process-wide controller.  Must bracket the controlled
/// threads' lifetime; the explorer handles this.
inline void installController(ScheduleController* c) noexcept {
  detail::g_controller.store(c, std::memory_order_release);
}
inline void uninstallController() noexcept {
  detail::g_controller.store(nullptr, std::memory_order_release);
  // Quiesce in-flight signalWakeup() calls: an uncontrolled thread (a socket
  // reader, say) may have loaded the controller pointer just before the
  // store above; the caller is about to destroy the controller, so wait out
  // the nanoseconds-wide window instead of racing it.
  while (detail::g_signalCalls.load(std::memory_order_acquire) != 0) {}
}

/// True when a controller is installed at all (whether or not the calling
/// thread is registered with it).  The team launcher uses this to decide
/// whether it may run a rank body on the calling thread: under a controller
/// the caller is the explorer's driver and must stay out of the schedule.
[[nodiscard]] inline bool controllerInstalled() noexcept {
  return detail::g_controller.load(std::memory_order_acquire) != nullptr;
}

/// True when the *calling thread* is under schedule control.  This is the
/// hot-path guard: one relaxed load, then a thread-local read only if a
/// controller exists at all.
[[nodiscard]] inline ScheduleController* onControlledThread() noexcept {
  ScheduleController* c =
      detail::g_controller.load(std::memory_order_relaxed);
  if (c == nullptr) return nullptr;
  return detail::tl_registered ? c : nullptr;
}

/// Preemption point (no-op branch when uncontrolled).
inline void schedulePoint(SchedOp op, int peer = -1, int tag = 0) {
  if (ScheduleController* c = onControlledThread())
    c->yield(SchedPoint{op, peer, tag});
}

/// Cross-thread wakeup hint: call after changing state that a parked actor's
/// readiness predicate might read (fiber::EventCount::notify does, on its
/// armed path).
/// Deliberately NOT gated on tl_registered — the whole point is that
/// *uncontrolled* threads (socket readers, a test's main thread) can nudge a
/// controller whose parked actors they just made runnable.
inline void signalWakeup() noexcept {
  if (detail::g_controller.load(std::memory_order_acquire) == nullptr) return;
  detail::g_signalCalls.fetch_add(1, std::memory_order_acq_rel);
  if (ScheduleController* c =
          detail::g_controller.load(std::memory_order_acquire))
    c->notifySignal();
  detail::g_signalCalls.fetch_sub(1, std::memory_order_acq_rel);
}

/// Wall clock normally, virtual clock under control.
[[nodiscard]] inline std::int64_t nowNs() {
  if (ScheduleController* c = onControlledThread()) return c->nowNs();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sleep in real time normally; consume virtual time under control.
inline void sleepFor(std::chrono::nanoseconds d,
                     SchedOp op = SchedOp::Sleep) {
  if (d.count() <= 0) return;
  if (ScheduleController* c = onControlledThread()) {
    c->sleepNs(d.count(), SchedPoint{op, -1, 0});
    return;
  }
  std::this_thread::sleep_for(d);
}

/// RAII registration of the calling thread as a controlled actor.  No-op
/// when no controller is installed at construction time.
class ActorScope {
 public:
  explicit ActorScope(int preferredId = -1) {
    ScheduleController* c =
        detail::g_controller.load(std::memory_order_acquire);
    if (c == nullptr || detail::tl_registered) return;
    c->registerActor(preferredId);
    detail::tl_registered = true;
    ctl_ = c;
  }
  ~ActorScope() {
    if (ctl_ == nullptr) return;
    ctl_->deregisterActor();
    detail::tl_registered = false;
  }
  ActorScope(const ActorScope&) = delete;
  ActorScope& operator=(const ActorScope&) = delete;

 private:
  ScheduleController* ctl_ = nullptr;
};

/// Test-body schedule point: lets explored bodies mark interleaving-relevant
/// steps of their own (plain shared-memory mutation, say) so the explorer
/// can reorder them too.
inline void interleavePoint(int tag = 0) {
  schedulePoint(SchedOp::User, -1, tag);
}

/// Forward a body exception to the controller (no-op when uncontrolled).
/// Called by rt's team launcher after capturing a rank's exception, so the
/// explorer attributes the failure to the schedule that produced it before
/// abort-induced unwinding muddies the picture.
inline void noteControlledFailure(std::exception_ptr ep) {
  if (ScheduleController* c = onControlledThread()) c->noteFailure(std::move(ep));
}

/// Deliberately re-introduce the PR-2 historical bug: each Comm *handle*
/// draws collective tags from a private counter instead of the shared
/// per-rank sequence in CommState, so copies of a handle desynchronize the
/// communicator's tag stream.  Exists solely so test_sched can prove the
/// schedule explorer catches the bug class; see rt::Comm::nextCollTag().
inline void setLegacyCollTagBug(bool enabled) {
  detail::g_legacyCollTagBug.store(enabled, std::memory_order_relaxed);
}

/// Deliberately re-introduce the live-upgrade drain-window bug: the
/// UpgradeCoordinator skips awaitProviderIdle() after holding the admission
/// gates, so a call already past the gate can mutate the victim *after* its
/// state was checkpointed — the mutation is silently lost when the snapshot
/// is poured into the replacement.  Exists solely so test_upgrade can prove
/// the schedule explorer catches the bug class (same pattern as
/// setLegacyCollTagBug); see upgrade::UpgradeCoordinator::upgrade().
inline void setUpgradeDrainWindowBug(bool enabled) {
  detail::g_upgradeDrainBug.store(enabled, std::memory_order_relaxed);
}
[[nodiscard]] inline bool upgradeDrainWindowBug() noexcept {
  return detail::g_upgradeDrainBug.load(std::memory_order_relaxed);
}

inline const char* to_string(SchedOp op) noexcept {
  switch (op) {
    case SchedOp::ThreadStart: return "thread-start";
    case SchedOp::ThreadExit: return "thread-exit";
    case SchedOp::MailboxDeliver: return "deliver";
    case SchedOp::MailboxRecv: return "recv";
    case SchedOp::Barrier: return "barrier";
    case SchedOp::CollectiveTag: return "coll-tag";
    case SchedOp::QuiesceEpoch: return "quiesce-epoch";
    case SchedOp::ChannelPut: return "channel-put";
    case SchedOp::ChannelTake: return "channel-take";
    case SchedOp::SupervisedCall: return "supervised-call";
    case SchedOp::BreakerEvent: return "breaker";
    case SchedOp::Sleep: return "sleep";
    case SchedOp::ServeAdmit: return "serve-admit";
    case SchedOp::ServeDispatch: return "serve-dispatch";
    case SchedOp::ServeReply: return "serve-reply";
    case SchedOp::DrainGate: return "drain-gate";
    case SchedOp::UpgradePhase: return "upgrade-phase";
    case SchedOp::User: return "user";
  }
  return "?";
}

}  // namespace cca::testing
