#pragma once
// cca::serve::PortServer — a serving front door for CCA ports.
//
// The HPDC'99 paper's dynamic-invocation machinery (§5) plus PR 5's
// marshalRequest/serve/unmarshalResponse split already form an RPC
// skeleton; this component puts a production dispatcher in front of it:
// many concurrent clients multiplex dynamic-invocation calls onto a pool
// of provider replicas, with PR 3's fault machinery recast as traffic
// controls (DESIGN.md §8):
//
//   * admission control — a bounded in-flight counter; calls beyond
//     ServerOptions::maxInFlight are rejected with ReplyStatus::Busy and
//     the *client* backs off with core::RetryPolicy (load-shedding at the
//     door instead of queue collapse behind it),
//   * per-replica circuit breaker — a core::CircuitBreaker, the same one a
//     supervised connection uses; a replica whose dispatches keep dying
//     stops receiving traffic until its cooldown admits a half-open probe,
//   * per-replica drain gate — a core::DrainGate, the same one a supervised
//     connection uses; a drained replica is skipped by new dispatches
//     while the ones already on it finish (live swap), and a second gate
//     pauses dispatch server-wide,
//   * replica management — every dispatch outcome feeds the replica's
//     obs::HealthRecord; a dead replica's calls fail over to the next
//     live one (sidl::remote::TransportAbort propagates through
//     SerializingChannel::serve precisely because it is not a
//     BaseException, and replicas are guarded so the abort can only
//     happen before execution — re-dispatch can never double-execute),
//   * live metrics — breaker transitions, quarantines and failovers are
//     recorded as cca.fault.* events on an obs::Monitor.
//
// Request payload:  [u8 RequestKind][body]; a Call body is exactly a
// SerializingChannel request frame, a Control body is one packed string.
// Response payload: [u8 ReplyStatus][body]; an Ok body is exactly a
// SerializingChannel response frame (which may carry a marshalled
// application exception), a Control body is one packed string.
//
// The same handle() path serves two transports: the socket front door
// (acceptor + per-connection readers + a worker pool, frames tagged with
// per-connection call ids) and localChannel(), an in-process CallChannel
// that dispatches inline on the caller's thread — the explorer-friendly
// path tests/test_serve.cpp drives through cca::testing.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cca/core/supervision.hpp"
#include "cca/fiber/park.hpp"
#include "cca/obs/health.hpp"
#include "cca/obs/monitor.hpp"
#include "cca/rt/wire.hpp"
#include "cca/sidl/remote.hpp"

namespace cca::serve {

/// First byte of every request payload.
enum class RequestKind : std::uint8_t {
  Call = 0,     ///< body is a SerializingChannel request frame
  Control = 1,  ///< body is one packed string command
};

/// First byte of every response payload.
enum class ReplyStatus : std::uint8_t {
  Ok = 0,            ///< body is a SerializingChannel response frame
  Busy = 1,          ///< admission rejected: back off and retry
  ShuttingDown = 2,  ///< server is stopping; do not retry here
  Control = 3,       ///< body is one packed string (control result)
  BadRequest = 4,    ///< unparseable request envelope
};

[[nodiscard]] const char* to_string(ReplyStatus s) noexcept;

struct ServerOptions {
  /// Admission cap: calls admitted but not yet replied to.
  std::size_t maxInFlight = 16384;
  /// Worker threads draining the socket-mode dispatch queue.
  int workers = 2;
  /// Per-replica circuit breaker (PR 3 semantics).
  core::BreakerOptions breaker{};
  /// Replicas tried for one call before answering "no replica available".
  int maxDispatchAttempts = 3;
};

/// Counters exposed via stats()/statsJson() and the "stats" control command.
struct ServerStats {
  std::uint64_t admitted = 0;       ///< calls past admission
  std::uint64_t rejectedBusy = 0;   ///< calls shed at the door
  std::uint64_t served = 0;         ///< Ok replies (incl. app exceptions)
  std::uint64_t appExceptions = 0;  ///< Ok replies carrying an exception
  std::uint64_t failovers = 0;      ///< dispatch attempts moved to another replica
  std::uint64_t unavailable = 0;    ///< calls answered "no replica available"
  std::uint64_t inFlight = 0;       ///< currently admitted, not yet replied
  std::uint64_t peakInFlight = 0;   ///< high-water mark of inFlight
};

class PortServer {
 public:
  explicit PortServer(ServerOptions opts = {});
  ~PortServer();

  PortServer(const PortServer&) = delete;
  PortServer& operator=(const PortServer&) = delete;

  // ---- replica management --------------------------------------------------

  /// Register a provider replica.  All replicas must implement the same
  /// port interface; calls round-robin across live ones.
  void addReplica(std::string name,
                  std::shared_ptr<sidl::reflect::Invocable> target);

  /// Simulate a replica crash: subsequent dispatches to it abort *before*
  /// execution (TransportAbort) and fail over.  Returns false if unknown.
  bool killReplica(const std::string& name);

  /// Bring a killed replica back (breaker resets to Closed).
  bool reviveReplica(const std::string& name);

  /// Take a replica out of rotation without marking it dead: new dispatches
  /// skip it, calls already dispatched onto it run to completion.  While
  /// *every* live replica is draining, dispatches wait (up to 100 ms per
  /// wait, twice) instead of failing over — the zero-downtime window a live
  /// swap needs.  Returns false if the name is unknown.
  bool drainReplica(const std::string& name);

  /// Put a drained replica back into rotation.  Returns false if unknown.
  bool undrainReplica(const std::string& name);

  /// Wait until `name` has no dispatch in flight (virtual time under a
  /// schedule controller).  Returns false on timeout or unknown name.
  [[nodiscard]] bool awaitReplicaIdle(const std::string& name,
                                      std::chrono::nanoseconds timeout);

  /// Live-swap a replica's implementation: drain -> wait idle -> replace
  /// the target (breaker resets to Closed) -> undrain.  In-flight calls
  /// finish against the old target; no call ever observes a half-swapped
  /// replica.  Returns false if the name is unknown or the replica did not
  /// go idle within `drainTimeout` (the replica is undrained again — a
  /// failed swap degrades to "nothing happened").
  bool swapReplica(const std::string& name,
                   std::shared_ptr<sidl::reflect::Invocable> target,
                   std::chrono::nanoseconds drainTimeout =
                       std::chrono::milliseconds{500});

  // ---- inline serving path -------------------------------------------------

  /// Serve one request payload ([u8 RequestKind][body]) to completion on
  /// the calling thread and return the response payload.  Never throws for
  /// request-level problems — they come back as typed reply statuses or
  /// marshalled exceptions, exactly as a remote client would see them.
  rt::Buffer handle(rt::Buffer request);

  /// In-process client channel over handle(): marshals calls, honors Busy
  /// with the policy's deterministic backoff (virtual time under a schedule
  /// controller), and throws core::PortError when retries are exhausted.
  [[nodiscard]] std::shared_ptr<sidl::remote::CallChannel> localChannel(
      core::RetryPolicy retry = {});

  // ---- control -------------------------------------------------------------

  /// Execute a control command: "stats", "pause", "resume",
  /// "kill <replica>", "revive <replica>", "drain <replica>",
  /// "undrain <replica>", "shutdown", "ping".
  std::string control(const std::string& command);

  /// Gate dispatch (admission keeps running, so in-flight load builds up) /
  /// release it.  The drill uses this to prove the admission cap.
  void pause();
  void resume();

  // ---- socket front door ---------------------------------------------------

  /// Start accepting framed connections on `listener` (moves ownership).
  /// Each accepted connection gets a reader thread; admitted calls are
  /// dispatched by the worker pool and replies are posted back tagged with
  /// the request's call id (replies may overtake slower calls — clients
  /// match on the tag).
  void start(rt::SocketListener listener);

  /// Stop accepting, unblock and join every thread (idempotent).
  void stop();

  // ---- observability -------------------------------------------------------

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] std::string statsJson() const;
  [[nodiscard]] obs::HealthBoard& health() noexcept { return *health_; }
  [[nodiscard]] obs::Monitor& monitor() noexcept { return *monitor_; }
  /// Breaker state of one replica (for tests; unknown name → nullopt).
  [[nodiscard]] std::optional<core::BreakerState> breakerState(
      const std::string& name) const;

 private:
  struct Replica;
  struct Conn;
  class LocalChannel;

  /// One admitted socket-mode call waiting for a worker.
  struct WorkItem {
    std::shared_ptr<Conn> conn;
    int callId = 0;
    rt::Buffer body;
  };

  // Admission decision for one call; returns the status the caller must
  // reply with.  Ok means the in-flight slot is held until callDone().
  ReplyStatus admit();
  void callDone();
  // Block while paused (worker threads and the inline path).
  void waitIfPaused();
  // True when every live (not-dead) replica is drain-gated.
  [[nodiscard]] bool allLiveDraining() const;
  // Park until some live replica is dispatchable again (bounded by the
  // drain wait); returns false when the wait timed out.
  bool awaitDispatchable();
  // Dispatch one Call body across replicas with breaker/failover; returns
  // a SerializingChannel response frame.
  rt::Buffer dispatchCall(int callId, rt::Buffer body);
  // Next live, undrained replica whose breaker admits the call, entered
  // into its drain gate (the caller exits it); nullptr when none.
  std::shared_ptr<Replica> pickReplica();
  [[nodiscard]] std::shared_ptr<Replica> findReplica(
      const std::string& name) const;

  void acceptLoop();
  void readLoop(std::shared_ptr<Conn> conn);
  void workerLoop();
  void postReply(Conn& conn, int callId, ReplyStatus status, rt::Buffer body);

  ServerOptions opts_;
  std::shared_ptr<obs::HealthBoard> health_;
  std::shared_ptr<obs::Monitor> monitor_;

  mutable std::mutex replicasMx_;  // guards replicas_ + replica channel swaps
  std::vector<std::shared_ptr<Replica>> replicas_;
  std::atomic<std::size_t> rr_{0};  // round-robin start of the next pick

  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> inFlight_{0};
  std::atomic<std::uint64_t> peakInFlight_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejectedBusy_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> appExceptions_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> unavailable_{0};

  core::DrainGate pauseGate_;  // held while paused

  // Dispatches that found every live replica drained park here until one
  // undrains (rung on undrain and stop).
  fiber::EventCount dispatchable_;

  // Socket front door state.
  std::mutex netMx_;  // guards listener_/conns_/readers_ mutation
  std::optional<rt::SocketListener> listener_;
  std::thread acceptor_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::vector<std::thread> readers_;
  std::vector<std::thread> workers_;
  std::mutex queueMx_;
  fiber::EventCount queued_;  // rung per enqueued call and on stop
  std::deque<WorkItem> queue_;
};

}  // namespace cca::serve
