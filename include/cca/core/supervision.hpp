#pragma once
// Supervised connections (DESIGN.md "Fault model").  A RetryPolicy and an
// optional circuit breaker turn a CCA connection from "every port call
// trusts the provider forever" into a supervised call path:
//
//   proxy (generated)  ->  SupervisedChannel  ->  DynAdapter  ->  provider
//
// The supervision wrapper lives in the same generated-binding layer PR 1
// used for instrumentation, so a plain direct connect (no RetryPolicy, no
// instrumentation) still hands the provider's interface straight to the
// caller — the paper's §6.2 zero-overhead claim is untouched, verified by
// bench_obs_overhead.
//
// The two traffic controls a supervised channel applies are also the ones
// serve::PortServer applies to each replica, so each exists once, here:
//
//   * CircuitBreaker — the Closed/Open/HalfOpen state machine:
//
//         failure x N                cooldown elapsed
//   Closed ----------> Open -------------------------> HalfOpen
//     ^                 ^                                  |
//     |   probe ok      |            probe fails           |
//     +-----------------+----------------------------------+
//
//   * DrainGate — the admission edge a live upgrade or replica swap closes:
//     held, new calls park (or, via tryEnter, skip the gate); the calls
//     already past it are counted so the closer can wait for them to finish.
//
// All retry jitter is drawn deterministically from (seed, call ordinal,
// attempt), so a supervised-call schedule is as reproducible as the rt
// fault plans that exercise it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cca/core/events.hpp"
#include "cca/core/port.hpp"
#include "cca/core/services.hpp"
#include "cca/fiber/park.hpp"
#include "cca/sidl/exceptions.hpp"
#include "cca/sidl/remote.hpp"
#include "cca/testing/hooks.hpp"

namespace cca::core {

/// How a supervised connection retries a failed port call.
struct RetryPolicy {
  /// Total attempts per call (1 = no retry, just breaker accounting).
  int maxAttempts = 3;
  /// Backoff before the first retry; doubles (see multiplier) per retry.
  std::chrono::nanoseconds initialBackoff = std::chrono::milliseconds{1};
  double backoffMultiplier = 2.0;
  std::chrono::nanoseconds maxBackoff = std::chrono::milliseconds{100};
  /// Fractional jitter applied to each backoff: the slept duration is
  /// backoff * [1 - jitter, 1 + jitter], drawn deterministically from seed.
  double jitter = 0.25;
  /// Overall deadline for one supervised call including retries and
  /// backoffs; zero means no deadline.  When the next backoff would cross
  /// it, the call fails with PortError{RetriesExhausted} instead.
  std::chrono::nanoseconds perCallTimeout{0};
  /// Seed for the deterministic jitter stream.
  std::uint64_t seed = 0;
};

/// Circuit breaker configuration for a supervised connection.
struct BreakerOptions {
  /// Consecutive call failures (counting each attempt) that open the breaker.
  int failureThreshold = 5;
  /// How long an open breaker rejects calls before admitting one half-open
  /// probe.
  std::chrono::nanoseconds cooldown = std::chrono::milliseconds{100};
};

enum class BreakerState { Closed, Open, HalfOpen };

[[nodiscard]] inline const char* to_string(BreakerState s) {
  switch (s) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    case BreakerState::HalfOpen: return "half-open";
  }
  return "?";
}

/// The cca.fault.breaker-* event that records a transition into `to`.
[[nodiscard]] EventKind breakerEventKind(BreakerState to) noexcept;

/// Closed -> Open -> HalfOpen state machine over BreakerOptions.  Thread
/// safe.  Every transition runs the TransitionHook and then the
/// SchedOp::BreakerEvent schedule point (peer = the owner's `peer`, tag =
/// the new state), both after the breaker's lock is released: yielding to
/// the schedule explorer while holding it would let another controlled
/// thread deadlock against it.  Cooldowns are measured in testing::nowNs(),
/// so they elapse in virtual time under a schedule controller.
class CircuitBreaker {
 public:
  using TransitionHook =
      std::function<void(BreakerState from, BreakerState to)>;

  explicit CircuitBreaker(BreakerOptions opts, int peer = -1,
                          TransitionHook onTransition = nullptr);

  /// Admission for one call.  Closed and HalfOpen admit; Open rejects until
  /// the cooldown has elapsed, then flips to HalfOpen and admits this call
  /// as the probe.  On rejection `*cooldownLeftNs` (when given) receives
  /// the cooldown still to run.
  [[nodiscard]] bool admit(std::int64_t* cooldownLeftNs = nullptr);
  /// An admitted call succeeded: clears the failure streak and closes a
  /// HalfOpen breaker.  A success while Open (a call admitted before the
  /// breaker opened) leaves it Open.
  void success();
  /// An admitted call failed.  Opens a Closed breaker at the threshold and
  /// reopens a HalfOpen one (the probe failed).  Returns true when the
  /// breaker is now Open, i.e. rejecting calls.
  bool failure();
  /// Back to Closed with a clean streak (a replica revived or swapped).
  void reset();

  [[nodiscard]] BreakerState state() const;

 private:
  // Sets state_ under lk, releases lk, then fires the hook and the
  // schedule point; no-op when already in `to`.
  void transition(std::unique_lock<std::mutex>& lk, BreakerState to);

  BreakerOptions opts_;
  int peer_;
  TransitionHook onTransition_;
  mutable std::mutex mx_;  // guards the three fields below
  BreakerState state_ = BreakerState::Closed;
  int failures_ = 0;           // consecutive failures
  std::int64_t openedAt_ = 0;  // testing::nowNs() when it last opened
};

/// Tags of the SchedOp::DrainGate schedule points: which wait a parked
/// thread is in.
enum class DrainTag : int {
  CallEntry = 0,       ///< a supervised call parked at a held channel gate
  ProviderIdle = 1,    ///< Framework::awaitProviderIdle on a channel gate
  AnyReplicaOpen = 2,  ///< a PortServer dispatch waiting for a live replica
                       ///< to reopen (every live one drain-gated)
  ReplicaIdle = 3,     ///< PortServer::awaitReplicaIdle / swapReplica
  ServerPause = 4,     ///< a PortServer dispatch parked at the pause gate
};

/// Admission gate with an in-flight count.  hold() stops new entries
/// without failing them — enter() parks until release(), tryEnter()
/// declines — while calls already past the gate finish and are awaited
/// with awaitIdle().  An entry is counted under the same lock hold() takes,
/// so it either lands before the hold (awaitIdle waits for it) or is
/// refused.  Both waits park on one fiber::EventCount; bounded ones burn
/// virtual time under a schedule controller.  hold/release are idempotent.
class DrainGate {
 public:
  void hold();
  void release();
  [[nodiscard]] bool held() const noexcept {
    return held_.load(std::memory_order_acquire);
  }

  /// Park while held, then count the caller in flight.
  void enter(DrainTag tag);
  /// Count the caller in flight unless held; never blocks.
  [[nodiscard]] bool tryEnter();
  /// Balance a successful enter()/tryEnter().
  void exit() noexcept;
  [[nodiscard]] int inFlight() const noexcept {
    return inFlight_.load(std::memory_order_acquire);
  }
  /// Wait until no call is in flight; false if `timeout` elapsed first.
  /// Normally called with the gate held, so the count cannot rise again
  /// once it hits zero.
  [[nodiscard]] bool awaitIdle(std::chrono::nanoseconds timeout, DrainTag tag);

 private:
  std::mutex mx_;  // orders hold() against tryEnter()'s count
  fiber::EventCount bell_;  // rung by release() and exit()
  std::atomic<bool> held_{false};
  std::atomic<int> inFlight_{0};
};

enum class PortErrorKind {
  RetriesExhausted,  ///< every attempt failed (or the per-call deadline hit)
  BreakerOpen,       ///< the circuit breaker is rejecting calls
  Unavailable,       ///< awaitPort gave up waiting for a connection
};

/// Typed failure of a supervised port call or a bounded port wait; carries
/// the breaker/retry diagnosis so callers can branch without string-matching.
class PortError : public ::cca::sidl::CCAException {
 public:
  PortError(PortErrorKind kind, const std::string& note)
      : ::cca::sidl::CCAException(note), kind_(kind) {}

  [[nodiscard]] PortErrorKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::string sidlType() const override { return "cca.PortError"; }

 private:
  PortErrorKind kind_;
};

/// CallChannel that supervises every invocation with retry/backoff and an
/// optional circuit breaker, behind a drain gate.  Thread safe.  The target
/// is swappable (retarget) so the framework can fail a connection over to a
/// fallback provider without invalidating handles components already
/// checked out.
class SupervisedChannel final : public ::cca::sidl::remote::CallChannel {
 public:
  /// Called after every supervised call with its final outcome (feeds the
  /// provider's HealthRecord).
  using OutcomeHook = std::function<void(bool success, const std::string& what)>;
  /// Called on every breaker state transition (feeds cca.fault.* events).
  using TransitionHook = CircuitBreaker::TransitionHook;

  SupervisedChannel(std::shared_ptr<::cca::sidl::reflect::Invocable> target,
                    RetryPolicy retry, std::optional<BreakerOptions> breaker,
                    OutcomeHook onOutcome = nullptr,
                    TransitionHook onTransition = nullptr);

  ::cca::sidl::Value call(const std::string& method,
                          std::vector<::cca::sidl::Value>& args) override;

  /// Swap the supervised target (failover).  Calls in flight finish against
  /// the target they started with; the breaker closes on the next success.
  void retarget(std::shared_ptr<::cca::sidl::reflect::Invocable> target);

  /// The admission edge the live-upgrade protocol closes (DESIGN.md
  /// "Tenancy and live upgrade").  Calls enter it *before* breaker
  /// admission, so a held gate parks callers without failing them; the
  /// coordinator holds it, awaits idle (Framework::awaitProviderIdle),
  /// swaps the provider and releases it — parked callers then proceed
  /// against the new target.
  [[nodiscard]] DrainGate& gate() noexcept { return gate_; }

  [[nodiscard]] BreakerState breakerState() const {
    return breaker_ ? breaker_->state() : BreakerState::Closed;
  }
  [[nodiscard]] const RetryPolicy& retryPolicy() const noexcept { return retry_; }

 private:
  std::shared_ptr<::cca::sidl::reflect::Invocable> target_;
  RetryPolicy retry_;
  std::optional<CircuitBreaker> breaker_;
  OutcomeHook onOutcome_;
  mutable std::mutex mx_;  // guards target_ swap
  std::atomic<std::uint64_t> callSeq_{0};
  DrainGate gate_;
};

namespace supervision_detail {
/// Engine under awaitPortAs<T>: bounded, backoff-paced wait for a uses-port
/// connection — polls the typed probe up to `policy.maxAttempts` times,
/// sleeping the policy's (jittered, capped) backoff between probes.  Throws
/// PortError{Unavailable} when the provider never arrives; a non-null
/// return is a normal checkout.  The untyped public wrapper (`awaitPort`,
/// deprecated in PR 6) has been removed — call awaitPortAs<T>() instead.
PortPtr awaitPortUntyped(Services& services, const std::string& usesPortName,
                         const RetryPolicy& policy);
}  // namespace supervision_detail

/// Typed bounded wait for a uses-port connection (see
/// supervision_detail::awaitPortUntyped for the retry pacing).  A C++-type
/// mismatch on the connected port rolls the checkout back and throws
/// CCAException, exactly as getPortAs does.
template <typename T>
std::shared_ptr<T> awaitPortAs(Services& services,
                               const std::string& usesPortName,
                               const RetryPolicy& policy = {}) {
  PortPtr p = supervision_detail::awaitPortUntyped(services, usesPortName, policy);
  if (auto typed = std::dynamic_pointer_cast<T>(p)) return typed;
  services.releasePort(usesPortName);
  throw ::cca::sidl::CCAException("awaitPort('" + usesPortName +
                                  "'): connected port has incompatible C++ "
                                  "type");
}

namespace supervision_detail {
/// Deterministic uniform [0,1) draw for backoff jitter (splitmix64 over
/// seed/ordinal/attempt — same construction as rt::FaultPlan::draw).
[[nodiscard]] double jitterDraw(std::uint64_t seed, std::uint64_t ordinal,
                                std::uint64_t attempt) noexcept;
/// The backoff to sleep before retry `attempt` (1-based), jittered.
[[nodiscard]] std::chrono::nanoseconds backoffFor(const RetryPolicy& p,
                                                  std::uint64_t ordinal,
                                                  int attempt) noexcept;
}  // namespace supervision_detail

}  // namespace cca::core
