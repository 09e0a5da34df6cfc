#include "cca/core/supervision.hpp"

#include <algorithm>
#include <thread>

#include "cca/core/services.hpp"

namespace cca::core {

namespace supervision_detail {

namespace {
std::uint64_t mix(std::uint64_t z) noexcept {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

double jitterDraw(std::uint64_t seed, std::uint64_t ordinal,
                  std::uint64_t attempt) noexcept {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull;
  z ^= mix(ordinal);
  z ^= mix(attempt + 0x632BE59BD9B4E019ull);
  return static_cast<double>(mix(z) >> 11) * 0x1.0p-53;
}

std::chrono::nanoseconds backoffFor(const RetryPolicy& p, std::uint64_t ordinal,
                                    int attempt) noexcept {
  double ns = static_cast<double>(p.initialBackoff.count());
  for (int i = 1; i < attempt; ++i) ns *= p.backoffMultiplier;
  ns = std::min(ns, static_cast<double>(p.maxBackoff.count()));
  if (p.jitter > 0.0) {
    const double u = jitterDraw(p.seed, ordinal, static_cast<std::uint64_t>(attempt));
    ns *= 1.0 - p.jitter + 2.0 * p.jitter * u;
  }
  return std::chrono::nanoseconds(static_cast<std::int64_t>(std::max(ns, 0.0)));
}

}  // namespace supervision_detail

EventKind breakerEventKind(BreakerState to) noexcept {
  switch (to) {
    case BreakerState::Open: return EventKind::BreakerOpened;
    case BreakerState::HalfOpen: return EventKind::BreakerHalfOpen;
    case BreakerState::Closed: break;
  }
  return EventKind::BreakerClosed;
}

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

CircuitBreaker::CircuitBreaker(BreakerOptions opts, int peer,
                               TransitionHook onTransition)
    : opts_(opts), peer_(peer), onTransition_(std::move(onTransition)) {}

BreakerState CircuitBreaker::state() const {
  std::lock_guard lk(mx_);
  return state_;
}

void CircuitBreaker::transition(std::unique_lock<std::mutex>& lk,
                                BreakerState to) {
  const BreakerState from = state_;
  if (from == to) return;
  state_ = to;
  lk.unlock();
  if (onTransition_) onTransition_(from, to);
  testing::schedulePoint(testing::SchedOp::BreakerEvent, peer_,
                         static_cast<int>(to));
}

bool CircuitBreaker::admit(std::int64_t* cooldownLeftNs) {
  std::unique_lock lk(mx_);
  if (state_ != BreakerState::Open) return true;
  const std::int64_t left =
      opts_.cooldown.count() - (testing::nowNs() - openedAt_);
  if (left > 0) {
    if (cooldownLeftNs) *cooldownLeftNs = left;
    return false;
  }
  transition(lk, BreakerState::HalfOpen);  // this call is the probe
  return true;
}

void CircuitBreaker::success() {
  std::unique_lock lk(mx_);
  failures_ = 0;
  if (state_ == BreakerState::HalfOpen) transition(lk, BreakerState::Closed);
}

bool CircuitBreaker::failure() {
  std::unique_lock lk(mx_);
  ++failures_;
  if (state_ == BreakerState::HalfOpen ||
      (state_ == BreakerState::Closed && failures_ >= opts_.failureThreshold)) {
    openedAt_ = testing::nowNs();
    transition(lk, BreakerState::Open);
    return true;
  }
  return state_ == BreakerState::Open;
}

void CircuitBreaker::reset() {
  std::unique_lock lk(mx_);
  failures_ = 0;
  transition(lk, BreakerState::Closed);
}

// ---------------------------------------------------------------------------
// DrainGate
// ---------------------------------------------------------------------------

void DrainGate::hold() {
  std::lock_guard lk(mx_);
  held_.store(true, std::memory_order_release);
}

void DrainGate::release() {
  {
    std::lock_guard lk(mx_);
    held_.store(false, std::memory_order_release);
  }
  bell_.notify(testing::SchedPoint{testing::SchedOp::DrainGate, -1, -1});
}

void DrainGate::enter(DrainTag tag) {
  bell_.await(testing::SchedPoint{testing::SchedOp::DrainGate, -1,
                                  static_cast<int>(tag)},
              [this] { return tryEnter(); });
}

bool DrainGate::tryEnter() {
  std::lock_guard lk(mx_);
  if (held()) return false;
  inFlight_.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

void DrainGate::exit() noexcept {
  inFlight_.fetch_sub(1, std::memory_order_acq_rel);
  bell_.notify(testing::SchedPoint{testing::SchedOp::DrainGate, -1, -1});
}

bool DrainGate::awaitIdle(std::chrono::nanoseconds timeout, DrainTag tag) {
  return bell_.await(
      testing::SchedPoint{testing::SchedOp::DrainGate, -1,
                          static_cast<int>(tag)},
      [this] { return inFlight() == 0; },
      std::max<std::int64_t>(timeout.count(), 0));
}

// ---------------------------------------------------------------------------
// SupervisedChannel
// ---------------------------------------------------------------------------

SupervisedChannel::SupervisedChannel(
    std::shared_ptr<::cca::sidl::reflect::Invocable> target, RetryPolicy retry,
    std::optional<BreakerOptions> breaker, OutcomeHook onOutcome,
    TransitionHook onTransition)
    : target_(std::move(target)),
      retry_(retry),
      onOutcome_(std::move(onOutcome)) {
  if (retry_.maxAttempts < 1) retry_.maxAttempts = 1;
  if (breaker) breaker_.emplace(*breaker, -1, std::move(onTransition));
}

void SupervisedChannel::retarget(
    std::shared_ptr<::cca::sidl::reflect::Invocable> target) {
  std::lock_guard lk(mx_);
  target_ = std::move(target);
}

::cca::sidl::Value SupervisedChannel::call(
    const std::string& method, std::vector<::cca::sidl::Value>& args) {
  // Drain gate sits before breaker admission: a held channel parks callers
  // without failing them, and every outcome path (success, PortError,
  // AbortRun unwinding an explored run) uncounts the call.
  gate_.enter(DrainTag::CallEntry);
  struct GateExit {
    DrainGate& gate;
    ~GateExit() { gate.exit(); }
  } gateExit{gate_};
  std::int64_t cooldownLeftNs = 0;
  if (breaker_ && !breaker_->admit(&cooldownLeftNs))
    throw PortError(PortErrorKind::BreakerOpen,
                    "supervised call rejected: circuit breaker open (" +
                        std::to_string(cooldownLeftNs / 1'000'000) +
                        " ms of cooldown left)");
  const std::uint64_t ordinal = callSeq_.fetch_add(1, std::memory_order_relaxed);
  const bool deadlined = retry_.perCallTimeout.count() > 0;
  const std::int64_t deadlineNs = testing::nowNs() + retry_.perCallTimeout.count();
  std::string lastError;
  for (int attempt = 1;; ++attempt) {
    testing::schedulePoint(testing::SchedOp::SupervisedCall, -1, attempt);
    std::shared_ptr<::cca::sidl::reflect::Invocable> target;
    {
      std::lock_guard lk(mx_);
      target = target_;
    }
    try {
      // Retries need pristine in-args: invoke against a copy, publish the
      // out-params only once an attempt succeeds.
      std::vector<::cca::sidl::Value> attemptArgs = args;
      ::cca::sidl::Value result = target->invoke(method, attemptArgs);
      args = std::move(attemptArgs);
      if (breaker_) breaker_->success();
      if (onOutcome_) onOutcome_(true, {});
      return result;
    } catch (const ::cca::sidl::MethodNotFoundException&) {
      throw;  // contract violations are not transient; never retry
    } catch (const ::cca::sidl::TypeMismatchException&) {
      throw;
    } catch (const std::exception& e) {
      lastError = e.what();
    }
    const bool rejecting = breaker_ && breaker_->failure();
    if (onOutcome_) onOutcome_(false, lastError);
    if (rejecting)
      throw PortError(PortErrorKind::BreakerOpen,
                      "supervised call '" + method +
                          "' failed and opened the circuit breaker (attempt " +
                          std::to_string(attempt) + "): " + lastError);
    if (attempt >= retry_.maxAttempts)
      throw PortError(PortErrorKind::RetriesExhausted,
                      "supervised call '" + method + "' failed after " +
                          std::to_string(attempt) + " attempt(s): " + lastError);
    const auto backoff = supervision_detail::backoffFor(retry_, ordinal, attempt);
    if (deadlined && testing::nowNs() + backoff.count() >= deadlineNs)
      throw PortError(PortErrorKind::RetriesExhausted,
                      "supervised call '" + method + "' exceeded its " +
                          std::to_string(std::chrono::duration_cast<
                                             std::chrono::milliseconds>(
                                             retry_.perCallTimeout)
                                             .count()) +
                          " ms per-call timeout after " +
                          std::to_string(attempt) + " attempt(s): " + lastError);
    testing::sleepFor(backoff);
  }
}

// ---------------------------------------------------------------------------
// awaitPortUntyped (the engine under awaitPortAs<T>)
// ---------------------------------------------------------------------------

namespace supervision_detail {

PortPtr awaitPortUntyped(Services& services, const std::string& usesPortName,
                         const RetryPolicy& policy) {
  const int attempts = std::max(policy.maxAttempts, 1);
  const bool deadlined = policy.perCallTimeout.count() > 0;
  const std::int64_t deadlineNs = testing::nowNs() + policy.perCallTimeout.count();
  for (int attempt = 1;; ++attempt) {
    // Probe through the typed surface with the base Port type: the cast is
    // the identity, so this is exactly the old untyped probe, without
    // needing friend access to the protected Services seam.
    if (PortPtr p = services.tryGetPortAs<Port>(usesPortName)) return p;
    if (attempt >= attempts)
      throw PortError(PortErrorKind::Unavailable,
                      "awaitPort('" + usesPortName + "'): no provider after " +
                          std::to_string(attempt) + " probe(s)");
    auto backoff = backoffFor(policy, 0, attempt);
    if (deadlined) {
      const std::int64_t now = testing::nowNs();
      if (now >= deadlineNs)
        throw PortError(PortErrorKind::Unavailable,
                        "awaitPort('" + usesPortName +
                            "'): provider did not arrive within the deadline");
      backoff = std::min(backoff, std::chrono::nanoseconds(deadlineNs - now));
    }
    testing::sleepFor(backoff);
  }
}

}  // namespace supervision_detail

}  // namespace cca::core
