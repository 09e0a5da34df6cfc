// Implementation of the CCA port server (see include/cca/serve/port_server.hpp).

#include "cca/serve/port_server.hpp"

#include <sstream>

#include "cca/core/events.hpp"
#include "cca/rt/archive.hpp"
#include "cca/testing/hooks.hpp"

namespace cca::serve {

using sidl::remote::SerializingChannel;
using sidl::remote::TransportAbort;

const char* to_string(ReplyStatus s) noexcept {
  switch (s) {
    case ReplyStatus::Ok: return "ok";
    case ReplyStatus::Busy: return "busy";
    case ReplyStatus::ShuttingDown: return "shutting-down";
    case ReplyStatus::Control: return "control";
    case ReplyStatus::BadRequest: return "bad-request";
  }
  return "?";
}

namespace {

/// Invocable wrapper that checks the replica's dead flag at *entry only*:
/// a dead replica aborts before any target-side effect, so the dispatcher
/// may re-dispatch the call without risking double execution.  Once the
/// inner invoke() has started it runs to completion — all-or-nothing.
class GuardedTarget final : public sidl::reflect::Invocable {
 public:
  GuardedTarget(std::string name, std::shared_ptr<Invocable> inner,
                std::shared_ptr<std::atomic<bool>> dead)
      : name_(std::move(name)), inner_(std::move(inner)), dead_(std::move(dead)) {}

  [[nodiscard]] std::string dynTypeName() const override {
    return inner_->dynTypeName();
  }

  sidl::Value invoke(const std::string& method,
                     std::vector<sidl::Value>& args) override {
    if (dead_->load(std::memory_order_acquire))
      throw TransportAbort("replica '" + name_ + "' is down");
    return inner_->invoke(method, args);
  }

 private:
  std::string name_;
  std::shared_ptr<Invocable> inner_;
  std::shared_ptr<std::atomic<bool>> dead_;
};

}  // namespace

/// How long a dispatch parks when every live replica is drain-gated (a live
/// swap in progress) before retrying the pick; dispatchCall waits twice at
/// most before answering "no replica available".
constexpr std::chrono::milliseconds kDrainWait{100};

/// The two PortServer-owned parking edges: a dispatch waiting for any live
/// replica to reopen, and a worker waiting on the call queue.
constexpr testing::SchedPoint kAnyReplicaOpen{
    testing::SchedOp::DrainGate, -1,
    static_cast<int>(core::DrainTag::AnyReplicaOpen)};
constexpr testing::SchedPoint kQueueWait{testing::SchedOp::ServeDispatch, -1,
                                         -1};

/// One provider replica: a serializing channel over the guarded target,
/// health record, breaker and drain gate.
struct PortServer::Replica {
  Replica(std::string n, int idx,
          std::shared_ptr<sidl::reflect::Invocable> target, PortServer& server)
      : name(std::move(n)),
        index(idx),
        dead(std::make_shared<std::atomic<bool>>(false)),
        channel(std::make_unique<SerializingChannel>(
            std::make_shared<GuardedTarget>(name, std::move(target), dead))),
        healthRec(server.health_->ensure(name)),
        breaker(server.opts_.breaker, idx,
                [mon = server.monitor_, nm = name](core::BreakerState from,
                                                   core::BreakerState to) {
                  mon->recordEvent({core::breakerEventKind(to), nm,
                                    std::string("serve breaker ") +
                                        core::to_string(from) + " -> " +
                                        core::to_string(to),
                                    0});
                }) {}

  std::string name;
  int index;
  std::shared_ptr<std::atomic<bool>> dead;
  std::unique_ptr<SerializingChannel> channel;  // swapped under replicasMx_
  std::shared_ptr<obs::HealthRecord> healthRec;
  core::CircuitBreaker breaker;
  /// Held = drained: pickReplica skips it, in-flight dispatches finish.
  core::DrainGate gate;
};

/// One accepted socket connection.  SocketWire::post serializes concurrent
/// writers internally, so workers and the reader reply without extra locks.
struct PortServer::Conn {
  explicit Conn(int fd) : wire(fd, "serve") {}
  rt::SocketWire wire;
};

// ---------------------------------------------------------------------------
// Construction / teardown

PortServer::PortServer(ServerOptions opts)
    : opts_(opts),
      health_(std::make_shared<obs::HealthBoard>()),
      monitor_(std::make_shared<obs::Monitor>()) {
  monitor_->enable();
}

PortServer::~PortServer() { stop(); }

// ---------------------------------------------------------------------------
// Replicas

void PortServer::addReplica(std::string name,
                            std::shared_ptr<sidl::reflect::Invocable> target) {
  std::lock_guard lk(replicasMx_);
  replicas_.push_back(std::make_shared<Replica>(
      std::move(name), static_cast<int>(replicas_.size()), std::move(target),
      *this));
}

std::shared_ptr<PortServer::Replica> PortServer::findReplica(
    const std::string& name) const {
  std::lock_guard lk(replicasMx_);
  for (const auto& r : replicas_)
    if (r->name == name) return r;
  return nullptr;
}

bool PortServer::killReplica(const std::string& name) {
  auto victim = findReplica(name);
  if (!victim) return false;
  victim->dead->store(true, std::memory_order_release);
  victim->healthRec->quarantine("killed");
  monitor_->recordEvent({core::EventKind::Quarantined, name,
                         "replica killed (taken out of rotation)", 0});
  return true;
}

bool PortServer::reviveReplica(const std::string& name) {
  auto r = findReplica(name);
  if (!r) return false;
  r->breaker.reset();
  r->dead->store(false, std::memory_order_release);
  return true;
}

bool PortServer::drainReplica(const std::string& name) {
  auto r = findReplica(name);
  if (!r) return false;
  r->gate.hold();
  return true;
}

bool PortServer::undrainReplica(const std::string& name) {
  auto r = findReplica(name);
  if (!r) return false;
  r->gate.release();
  dispatchable_.notify(kAnyReplicaOpen);
  return true;
}

bool PortServer::awaitReplicaIdle(const std::string& name,
                                  std::chrono::nanoseconds timeout) {
  auto r = findReplica(name);
  return r && r->gate.awaitIdle(timeout, core::DrainTag::ReplicaIdle);
}

bool PortServer::swapReplica(const std::string& name,
                             std::shared_ptr<sidl::reflect::Invocable> target,
                             std::chrono::nanoseconds drainTimeout) {
  auto r = findReplica(name);
  if (!r) return false;
  r->gate.hold();
  if (!r->gate.awaitIdle(drainTimeout, core::DrainTag::ReplicaIdle)) {
    // Failed swap degrades to "nothing happened": back into rotation.
    undrainReplica(name);
    return false;
  }
  {
    std::lock_guard lk(replicasMx_);
    r->channel = std::make_unique<SerializingChannel>(
        std::make_shared<GuardedTarget>(r->name, std::move(target), r->dead));
  }
  r->breaker.reset();
  monitor_->recordEvent({core::EventKind::UpgradeSwapped, name,
                         "replica implementation swapped in place", 0});
  undrainReplica(name);
  return true;
}

std::optional<core::BreakerState> PortServer::breakerState(
    const std::string& name) const {
  auto r = findReplica(name);
  if (!r) return std::nullopt;
  return r->breaker.state();
}

// ---------------------------------------------------------------------------
// Admission

ReplyStatus PortServer::admit() {
  if (stopping_.load(std::memory_order_acquire)) return ReplyStatus::ShuttingDown;
  const std::uint64_t n = inFlight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  testing::schedulePoint(testing::SchedOp::ServeAdmit, -1,
                         static_cast<int>(n));
  if (n > opts_.maxInFlight) {
    inFlight_.fetch_sub(1, std::memory_order_acq_rel);
    rejectedBusy_.fetch_add(1, std::memory_order_relaxed);
    return ReplyStatus::Busy;
  }
  // Racy high-water mark is fine: the counter steers nothing.
  std::uint64_t peak = peakInFlight_.load(std::memory_order_relaxed);
  while (n > peak &&
         !peakInFlight_.compare_exchange_weak(peak, n, std::memory_order_relaxed)) {
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  return ReplyStatus::Ok;
}

void PortServer::callDone() {
  inFlight_.fetch_sub(1, std::memory_order_acq_rel);
}

void PortServer::waitIfPaused() {
  if (!pauseGate_.held()) return;
  pauseGate_.enter(core::DrainTag::ServerPause);
  pauseGate_.exit();
}

void PortServer::pause() {
  pauseGate_.hold();
  // stop() reopens the gate after setting stopping_; a pause racing it must
  // not close the gate again behind the workers stop() is about to join.
  if (stopping_.load(std::memory_order_acquire)) pauseGate_.release();
}

void PortServer::resume() { pauseGate_.release(); }

// ---------------------------------------------------------------------------
// Dispatch

std::shared_ptr<PortServer::Replica> PortServer::pickReplica() {
  const std::size_t start = rr_.fetch_add(1, std::memory_order_relaxed);
  std::size_t n = 0;
  for (std::size_t i = 0;; ++i) {
    std::shared_ptr<Replica> r;
    {
      std::lock_guard lk(replicasMx_);
      if (i == 0) n = replicas_.size();
      if (i == n) return nullptr;
      r = replicas_[(start + i) % n];
    }
    // Breaker transitions fire their hooks and schedule points, so neither
    // the gate nor the breaker is consulted under replicasMx_.
    if (r->dead->load(std::memory_order_acquire)) continue;
    if (!r->gate.tryEnter()) continue;
    if (r->breaker.admit()) return r;
    r->gate.exit();
  }
}

bool PortServer::allLiveDraining() const {
  std::lock_guard lk(replicasMx_);
  bool sawLive = false;
  for (const auto& r : replicas_) {
    if (r->dead->load(std::memory_order_acquire)) continue;
    sawLive = true;
    if (!r->gate.held()) return false;
  }
  return sawLive;
}

bool PortServer::awaitDispatchable() {
  return dispatchable_.await(
      kAnyReplicaOpen,
      [this] {
        return !allLiveDraining() || stopping_.load(std::memory_order_acquire);
      },
      std::chrono::nanoseconds(kDrainWait).count());
}

rt::Buffer PortServer::dispatchCall(int callId, rt::Buffer body) {
  // Freeze the request so each dispatch attempt gets an O(1) private copy
  // with its own read cursor (serve() consumes the cursor; a failed-over
  // attempt must restart from the top of the frame).
  body.share();
  int drainWaits = 0;
  for (int attempt = 0; attempt < opts_.maxDispatchAttempts; ++attempt) {
    auto r = pickReplica();
    if (!r) {
      // Every live replica drain-gated (a swap in progress) is a pause,
      // not an outage: wait for one to come back, then retry the slot.
      if (allLiveDraining() && drainWaits++ < 2 && awaitDispatchable()) {
        --attempt;
        continue;
      }
      break;
    }
    // Balance pickReplica's gate entry on every exit from this attempt.
    struct DispatchDone {
      Replica& r;
      ~DispatchDone() { r.gate.exit(); }
    } dispatchDone{*r};
    testing::schedulePoint(testing::SchedOp::ServeDispatch, r->index, callId);
    rt::Buffer attemptCopy = body;
    try {
      rt::Buffer response = r->channel->serve(attemptCopy);
      // The replica executed: close/keep the breaker on transport grounds.
      // An application exception travels back marshalled in the Ok frame
      // (status byte 1); it counts against the replica's health record but
      // must NOT trip the breaker — a client sending bad arguments would
      // otherwise poison the replica for everyone.
      r->breaker.success();
      const auto bytes = response.bytes();
      if (!bytes.empty() && std::to_integer<std::uint8_t>(bytes[0]) == 1) {
        appExceptions_.fetch_add(1, std::memory_order_relaxed);
        r->healthRec->recordFailure("application exception");
      } else {
        r->healthRec->recordSuccess();
      }
      return response;
    } catch (const TransportAbort& e) {
      r->healthRec->recordFailure(e.what());
      r->breaker.failure();
      failovers_.fetch_add(1, std::memory_order_relaxed);
      monitor_->recordEvent({core::EventKind::FailedOver, r->name,
                             std::string("dispatch aborted: ") + e.what(), 0});
    }
  }
  unavailable_.fetch_add(1, std::memory_order_relaxed);
  return SerializingChannel::marshalExceptionResponse(
      "cca.CCAException",
      "port server: no replica available (replicas dead or breaker-open)", "");
}

// ---------------------------------------------------------------------------
// Inline serving path

rt::Buffer PortServer::handle(rt::Buffer request) {
  static std::atomic<int> callSeq{0};
  const int callId = callSeq.fetch_add(1, std::memory_order_relaxed);
  rt::Buffer reply;
  std::uint8_t kindByte = 0;
  try {
    kindByte = rt::unpack<std::uint8_t>(request);
  } catch (const rt::BufferUnderflow&) {
    rt::pack<std::uint8_t>(reply, static_cast<std::uint8_t>(ReplyStatus::BadRequest));
    return reply;
  }
  if (kindByte == static_cast<std::uint8_t>(RequestKind::Control)) {
    std::string result;
    try {
      result = control(rt::unpack<std::string>(request));
    } catch (const rt::BufferUnderflow&) {
      rt::pack<std::uint8_t>(reply, static_cast<std::uint8_t>(ReplyStatus::BadRequest));
      return reply;
    }
    rt::pack<std::uint8_t>(reply, static_cast<std::uint8_t>(ReplyStatus::Control));
    rt::pack(reply, result);
    return reply;
  }
  if (kindByte != static_cast<std::uint8_t>(RequestKind::Call)) {
    rt::pack<std::uint8_t>(reply, static_cast<std::uint8_t>(ReplyStatus::BadRequest));
    return reply;
  }
  const ReplyStatus adm = admit();
  if (adm != ReplyStatus::Ok) {
    rt::pack<std::uint8_t>(reply, static_cast<std::uint8_t>(adm));
    return reply;
  }
  // The call body is everything after the kind byte, rebased so each
  // failover attempt starts from cursor zero.
  rt::Buffer body(request.bytes().subspan(request.readPos()));
  waitIfPaused();
  rt::Buffer response = dispatchCall(callId, std::move(body));
  served_.fetch_add(1, std::memory_order_relaxed);
  callDone();
  testing::schedulePoint(testing::SchedOp::ServeReply, -1, callId);
  rt::pack<std::uint8_t>(reply, static_cast<std::uint8_t>(ReplyStatus::Ok));
  const auto bytes = response.bytes();
  reply.writeBytes(bytes.data(), bytes.size());
  return reply;
}

// ---------------------------------------------------------------------------
// Local channel

class PortServer::LocalChannel final : public sidl::remote::CallChannel {
 public:
  LocalChannel(PortServer& server, core::RetryPolicy retry)
      : server_(&server), retry_(retry) {}

  sidl::Value call(const std::string& method,
                   std::vector<sidl::Value>& args) override {
    rt::Buffer request;
    rt::pack<std::uint8_t>(request,
                           static_cast<std::uint8_t>(RequestKind::Call));
    const rt::Buffer inner = SerializingChannel::marshalRequest(method, args);
    const auto bytes = inner.bytes();
    request.writeBytes(bytes.data(), bytes.size());
    request.share();  // per-attempt copies are refcount bumps
    const std::uint64_t ordinal = callSeq_.fetch_add(1, std::memory_order_relaxed);
    const int attempts = std::max(1, retry_.maxAttempts);
    for (int attempt = 1; attempt <= attempts; ++attempt) {
      rt::Buffer attemptCopy = request;
      rt::Buffer reply = server_->handle(std::move(attemptCopy));
      const auto status = static_cast<ReplyStatus>(rt::unpack<std::uint8_t>(reply));
      switch (status) {
        case ReplyStatus::Ok:
          return SerializingChannel::unmarshalResponse(reply, args);
        case ReplyStatus::Busy:
          if (attempt == attempts) break;  // fall through to the throw below
          // Client-side load shedding: the policy's deterministic backoff
          // (virtual time under a schedule controller).
          testing::sleepFor(
              core::supervision_detail::backoffFor(retry_, ordinal, attempt));
          continue;
        case ReplyStatus::ShuttingDown:
          throw core::PortError(core::PortErrorKind::Unavailable,
                                "port server is shutting down");
        default:
          throw sidl::NetworkException("port server rejected request: " +
                                       std::string(to_string(status)));
      }
      throw core::PortError(
          core::PortErrorKind::RetriesExhausted,
          "port server busy after " + std::to_string(attempts) + " attempts");
    }
    throw sidl::NetworkException("unreachable");  // loop always returns/throws
  }

 private:
  PortServer* server_;
  core::RetryPolicy retry_;
  std::atomic<std::uint64_t> callSeq_{0};
};

std::shared_ptr<sidl::remote::CallChannel> PortServer::localChannel(
    core::RetryPolicy retry) {
  return std::make_shared<LocalChannel>(*this, retry);
}

// ---------------------------------------------------------------------------
// Control

std::string PortServer::control(const std::string& command) {
  std::istringstream in(command);
  std::string verb;
  in >> verb;
  if (verb == "ping") return "pong";
  if (verb == "stats") return statsJson();
  if (verb == "pause") {
    pause();
    return "ok";
  }
  if (verb == "resume") {
    resume();
    return "ok";
  }
  if (verb == "kill" || verb == "revive" || verb == "drain" ||
      verb == "undrain") {
    std::string name;
    in >> name;
    if (name.empty()) return "error: usage: " + verb + " <replica>";
    bool found = false;
    if (verb == "kill") found = killReplica(name);
    else if (verb == "revive") found = reviveReplica(name);
    else if (verb == "drain") found = drainReplica(name);
    else found = undrainReplica(name);
    return found ? "ok" : "error: unknown replica '" + name + "'";
  }
  if (verb == "shutdown") {
    // Flip the flag only: the acceptor/readers keep serving until stop()
    // joins them; new admissions answer ShuttingDown.
    stopping_.store(true, std::memory_order_release);
    resume();
    return "ok";
  }
  return "error: unknown command '" + verb + "'";
}

// ---------------------------------------------------------------------------
// Stats

ServerStats PortServer::stats() const {
  ServerStats s;
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.rejectedBusy = rejectedBusy_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.appExceptions = appExceptions_.load(std::memory_order_relaxed);
  s.failovers = failovers_.load(std::memory_order_relaxed);
  s.unavailable = unavailable_.load(std::memory_order_relaxed);
  s.inFlight = inFlight_.load(std::memory_order_relaxed);
  s.peakInFlight = peakInFlight_.load(std::memory_order_relaxed);
  return s;
}

std::string PortServer::statsJson() const {
  const ServerStats s = stats();
  std::ostringstream out;
  out << "{\"admitted\":" << s.admitted
      << ",\"rejected_busy\":" << s.rejectedBusy
      << ",\"served\":" << s.served
      << ",\"app_exceptions\":" << s.appExceptions
      << ",\"failovers\":" << s.failovers
      << ",\"unavailable\":" << s.unavailable
      << ",\"in_flight\":" << s.inFlight
      << ",\"peak_in_flight\":" << s.peakInFlight << ",\"replicas\":[";
  std::lock_guard lk(replicasMx_);
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const auto& r = replicas_[i];
    if (i) out << ",";
    out << "{\"name\":\"" << r->name << "\",\"dead\":"
        << (r->dead->load(std::memory_order_relaxed) ? "true" : "false")
        << ",\"draining\":"
        << (r->gate.held() ? "true" : "false")
        << ",\"breaker\":\"" << core::to_string(r->breaker.state())
        << "\",\"health\":\""
        << obs::to_string(r->healthRec->state()) << "\"}";
  }
  out << "]}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Socket front door

void PortServer::start(rt::SocketListener listener) {
  std::lock_guard lk(netMx_);
  if (listener_) throw std::logic_error("PortServer::start: already started");
  listener_.emplace(std::move(listener));
  for (int w = 0; w < std::max(1, opts_.workers); ++w)
    workers_.emplace_back([this] { workerLoop(); });
  acceptor_ = std::thread([this] { acceptLoop(); });
}

void PortServer::acceptLoop() {
  for (;;) {
    const int fd = listener_->acceptFd();
    if (fd < 0) return;  // listener closed
    auto conn = std::make_shared<Conn>(fd);
    std::lock_guard lk(netMx_);
    if (stopping_.load(std::memory_order_acquire)) return;  // raced stop()
    conns_.push_back(conn);
    readers_.emplace_back([this, conn] { readLoop(std::move(conn)); });
  }
}

void PortServer::postReply(Conn& conn, int callId, ReplyStatus status,
                           rt::Buffer body) {
  rt::Buffer payload;
  payload.reserve(1 + body.size());
  rt::pack<std::uint8_t>(payload, static_cast<std::uint8_t>(status));
  const auto bytes = body.bytes();
  payload.writeBytes(bytes.data(), bytes.size());
  try {
    conn.wire.post(rt::WireFrame{0, -1, callId, std::move(payload)});
  } catch (const rt::CommError&) {
    // Client hung up before its reply: nothing to deliver it to.
  }
}

void PortServer::readLoop(std::shared_ptr<Conn> conn) {
  for (;;) {
    std::optional<rt::WireFrame> f;
    try {
      f = conn->wire.readFrame();
    } catch (const rt::CommError&) {
      return;  // corrupt stream or mid-frame hangup: drop the connection
    }
    if (!f) return;  // clean close
    const int callId = f->tag;
    rt::Buffer& payload = f->payload;
    std::uint8_t kindByte = 0;
    try {
      kindByte = rt::unpack<std::uint8_t>(payload);
    } catch (const rt::BufferUnderflow&) {
      postReply(*conn, callId, ReplyStatus::BadRequest, {});
      continue;
    }
    if (kindByte == static_cast<std::uint8_t>(RequestKind::Control)) {
      std::string result;
      try {
        result = control(rt::unpack<std::string>(payload));
      } catch (const rt::BufferUnderflow&) {
        postReply(*conn, callId, ReplyStatus::BadRequest, {});
        continue;
      }
      rt::Buffer body;
      rt::pack(body, result);
      postReply(*conn, callId, ReplyStatus::Control, std::move(body));
      continue;
    }
    if (kindByte != static_cast<std::uint8_t>(RequestKind::Call)) {
      postReply(*conn, callId, ReplyStatus::BadRequest, {});
      continue;
    }
    // Admission happens here on the reader — shedding is immediate even
    // when every worker is busy (that is the point of admission control).
    const ReplyStatus adm = admit();
    if (adm != ReplyStatus::Ok) {
      postReply(*conn, callId, adm, {});
      continue;
    }
    rt::Buffer body(payload.bytes().subspan(payload.readPos()));
    {
      std::lock_guard lk(queueMx_);
      queue_.push_back(WorkItem{conn, callId, std::move(body)});
    }
    queued_.notify(kQueueWait);
  }
}

void PortServer::workerLoop() {
  for (;;) {
    WorkItem item;
    bool got = false;
    queued_.await(kQueueWait, [&] {
      std::lock_guard lk(queueMx_);
      if (!queue_.empty()) {
        item = std::move(queue_.front());
        queue_.pop_front();
        got = true;
      }
      return got || stopping_.load(std::memory_order_acquire);
    });
    if (!got) return;  // stopping and drained
    waitIfPaused();
    rt::Buffer response = dispatchCall(item.callId, std::move(item.body));
    served_.fetch_add(1, std::memory_order_relaxed);
    callDone();
    testing::schedulePoint(testing::SchedOp::ServeReply, -1, item.callId);
    postReply(*item.conn, item.callId, ReplyStatus::Ok, std::move(response));
  }
}

void PortServer::stop() {
  stopping_.store(true, std::memory_order_release);
  resume();  // release any worker parked on the pause gate
  dispatchable_.notify(kAnyReplicaOpen);  // dispatches parked on all-draining
  queued_.notify(kQueueWait);
  std::thread acceptor;
  std::vector<std::shared_ptr<Conn>> conns;
  std::vector<std::thread> readers;
  std::vector<std::thread> workers;
  {
    std::lock_guard lk(netMx_);
    if (listener_) listener_->close();  // unblocks the acceptor
    acceptor = std::move(acceptor_);
    conns.swap(conns_);
    readers.swap(readers_);
    workers.swap(workers_);
  }
  for (auto& c : conns) c->wire.close();  // unblocks the readers
  if (acceptor.joinable()) acceptor.join();
  for (auto& t : readers) t.join();
  for (auto& t : workers) t.join();
  {
    std::lock_guard lk(netMx_);
    listener_.reset();
  }
}

}  // namespace cca::serve
