// Implementation of the thread-team SPMD runtime (see include/cca/rt/comm.hpp).
//
// Transport internals, in brief (DESIGN.md §2 has the full treatment):
//
//  * Each rank owns one Mailbox, sharded into one lane per *sender*.  A lane
//    is a small SPSC queue (producer: the sending rank; consumer: the owning
//    rank) guarded by its own mutex, so concurrent senders to the same rank
//    never contend with each other, and a receiver matching on a specific
//    source touches exactly one lane instead of scanning a global deque.
//  * Every blocking edge parks on a fiber::EventCount (park.hpp), the one
//    parking primitive shared by threads, fibers and the schedule
//    explorer: the mailbox receive (one doorbell per rank), the barrier
//    (one per communicator) and the team worker pool (one per worker).  A
//    deliver into a mailbox whose owner is running costs one atomic
//    increment and one load; only an armed receiver is woken.
//  * Wildcard (kAnySource) matching scans lanes starting from a rotating
//    cursor so no sender is starved; within a lane, front-to-back scanning
//    preserves MPI's non-overtaking rule per (source, tag).
//  * The barrier is sense-reversing over two atomics (arrival count +
//    generation); waiters park on the barrier's event count.
//  * The per-rank collective tag sequence lives here in CommState, not in
//    the Comm handle, so copies of a handle draw from one shared sequence
//    and cannot desynchronize the communicator's tag stream.
//
// Fault model (DESIGN.md "Fault model"): an optional FaultPlan installed at
// run() time injects message faults at the delivery choke point and rank
// kills at operation entry.  Failure and shutdown are *sticky* flags on the
// CommState; marking either rings every mailbox doorbell and the barrier's
// event count, and every waiter's readiness check reads the flags.  A
// blocked operation therefore never outlives the failure that would starve
// it: it resurfaces as CommError{RankFailed|Shutdown}.

#include "cca/rt/comm.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>

#include "cca/fiber/park.hpp"
#include "cca/fiber/sched.hpp"
#include "cca/rt/fault.hpp"
#include "cca/rt/wire.hpp"

namespace cca::rt {
namespace detail {

namespace {

// Internal (collective) tags occupy the negative tag space below this base;
// user tags are required to be non-negative so the two can never collide.
constexpr int kCollTagBase = -1000;

// Default for RunOptions::failureGrace — how long an *unbounded* receive
// keeps waiting once some rank has failed: the message may still arrive from
// a live peer, but a transitive stall (the sender was itself blocked on the
// dead rank) must surface as a typed timeout instead of a hang.
constexpr std::chrono::nanoseconds kPostFailureGrace = std::chrono::seconds{1};

struct Envelope {
  int source;
  int tag;
  Buffer payload;
};

bool tagMatches(int want, int got) noexcept {
  // The kAnyTag wildcard matches only user-level (non-negative) tags so
  // that collective traffic can never be stolen by a wildcard recv.
  return want == kAnyTag ? got >= 0 : got == want;
}

std::string opDesc(const char* op, int self, const char* peerRole, int peer,
                   int tag) {
  std::string s = std::string(op) + " on rank " + std::to_string(self);
  s += std::string(" ") + peerRole + (peer == kAnySource ? " any" : " " + std::to_string(peer));
  s += " (tag " + (tag == kAnyTag ? std::string("any") : std::to_string(tag)) + ")";
  return s;
}

long long elapsedMs(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// One mailbox per rank, sharded into one lane per sending rank.
class Mailbox {
 public:
  Mailbox(int owner, int senders)
      : owner_(owner),
        nLanes_(senders),
        lanes_(std::make_unique<Lane[]>(static_cast<std::size_t>(senders))) {}

  void deliver(Envelope e) {
    Lane& ln = lanes_[static_cast<std::size_t>(e.source)];
    const int tag = e.tag;
    {
      std::lock_guard lk(ln.mx);
      ln.q.push_back(std::move(e));
      ln.n.fetch_add(1, std::memory_order_release);
    }
    ring(tag);
  }

  // Batched deliver: the whole run of envelopes (one sender, send order)
  // lands under a single lane lock acquisition and a single doorbell, so a
  // flood of tiny messages pays the wakeup protocol once per batch.
  void deliverMany(int source, std::vector<Envelope>&& batch) {
    if (batch.empty()) return;
    Lane& ln = lanes_[static_cast<std::size_t>(source)];
    const int tag = batch.front().tag;
    {
      std::lock_guard lk(ln.mx);
      for (auto& e : batch) ln.q.push_back(std::move(e));
      ln.n.fetch_add(static_cast<std::uint32_t>(batch.size()),
                     std::memory_order_release);
    }
    ring(tag);
  }

  // Same-tag batch straight from a sendMany: wraps each payload in its
  // envelope directly inside the lane, skipping the staging vector (and one
  // full Buffer move per message) the generic overload needs.  Only the
  // fault-free loopback path may use this — fault plans draw per-message
  // verdicts and need the envelope staging.
  void deliverMany(int source, int tag, std::vector<Buffer>&& payloads) {
    if (payloads.empty()) return;
    Lane& ln = lanes_[static_cast<std::size_t>(source)];
    {
      std::lock_guard lk(ln.mx);
      for (auto& b : payloads)
        ln.q.push_back(Envelope{source, tag, std::move(b)});
      ln.n.fetch_add(static_cast<std::uint32_t>(payloads.size()),
                     std::memory_order_release);
    }
    ring(tag);
  }

  // Wake the receiver if it is parked.  Deliveries ring after the lane
  // holds the message; failure and shutdown ring after setting their flags
  // (tag -1), so the receiver's interrupted() check sees them.
  void ring(int tag) {
    doorbell_.notify(
        testing::SchedPoint{testing::SchedOp::MailboxDeliver, owner_, tag});
  }

  // Discard all undelivered messages (shutdown teardown).
  void drain() {
    for (int s = 0; s < nLanes_; ++s) {
      Lane& ln = lanes_[static_cast<std::size_t>(s)];
      std::lock_guard lk(ln.mx);
      ln.q.clear();
      ln.head = 0;
      ln.n.store(0, std::memory_order_relaxed);
    }
  }

  // Blocking retrieve; nullopt when `timeout` > 0 expired or `interrupted`
  // fired (the caller disambiguates by re-checking the state behind the
  // predicate).  Only the owning rank calls this, so there is never more
  // than one waiter.
  template <typename Pred>
  std::optional<Envelope> retrieve(int source, int tag,
                                   std::chrono::nanoseconds timeout,
                                   Pred&& interrupted) {
    std::optional<Envelope> e;
    doorbell_.await(
        testing::SchedPoint{testing::SchedOp::MailboxRecv, source, tag},
        [&] { return (e = tryTake(source, tag)).has_value() || interrupted(); },
        timeout.count() > 0 ? timeout.count() : -1);
    return e;
  }

  std::optional<Envelope> tryTake(int source, int tag) {
    if (source != kAnySource)
      return takeFrom(lanes_[static_cast<std::size_t>(source)], tag);
    // Rotating start keeps wildcard receives from starving high-numbered
    // senders.  Cross-source selection order is unspecified (as in MPI);
    // per-source order stays non-overtaking via the in-lane scan.
    for (int i = 0; i < nLanes_; ++i) {
      int s = rr_ + i;
      if (s >= nLanes_) s -= nLanes_;
      if (auto e = takeFrom(lanes_[static_cast<std::size_t>(s)], tag)) {
        rr_ = s + 1 == nLanes_ ? 0 : s + 1;
        return e;
      }
    }
    return std::nullopt;
  }

  [[nodiscard]] bool probe(int source, int tag) const {
    if (source != kAnySource)
      return hasMatch(lanes_[static_cast<std::size_t>(source)], tag);
    for (int s = 0; s < nLanes_; ++s)
      if (hasMatch(lanes_[static_cast<std::size_t>(s)], tag)) return true;
    return false;
  }

  // Count of undelivered user-tag (>= 0) envelopes across all lanes; the
  // quiescence protocol allreduces this per-rank figure team-wide.
  // Collective-tag traffic is excluded: quiesce() itself generates it.
  [[nodiscard]] long pendingUser() const {
    long n = 0;
    for (int s = 0; s < nLanes_; ++s) {
      const Lane& ln = lanes_[static_cast<std::size_t>(s)];
      if (ln.n.load(std::memory_order_acquire) == 0) continue;
      std::lock_guard lk(ln.mx);
      n += static_cast<long>(std::count_if(
          ln.q.begin() + static_cast<std::ptrdiff_t>(ln.head), ln.q.end(),
          [](const Envelope& e) { return e.tag >= 0; }));
    }
    return n;
  }

 private:
  // Lane FIFO: a vector with a head cursor instead of std::deque.  An
  // Envelope is over a hundred bytes, so deque chunks hold only a few and
  // a sustained flood churns a chunk allocation every few messages; the
  // vector reuses one warm allocation for the whole run.  Live region is
  // [head, q.size()); the prefix is compacted once it dominates the vector
  // so a long-lived backlog cannot pin memory for already-taken messages.
  struct Lane {
    mutable std::mutex mx;
    std::vector<Envelope> q;
    std::size_t head = 0;
    // Live-message count, maintained alongside the queue: lets scans skip
    // an empty lane without taking its mutex.  A wildcard recv on a p-rank
    // team otherwise locks p lanes per message, and in a flood all but one
    // are empty — the lock/unlock pair per empty lane was the top line of
    // the flood profile.  A stale zero read cannot lose a message: the
    // sender rings the doorbell *after* raising the count, and a receiver
    // re-checks the doorbell epoch before parking, so a racing deliver
    // always forces a rescan that sees the count.
    std::atomic<std::uint32_t> n{0};
  };
  static constexpr std::size_t kLaneCompact = 256;

  static void popAt(Lane& ln, std::size_t i) {
    if (i != ln.head) {  // tagged take skipping newer messages: rare
      ln.q.erase(ln.q.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
    ++ln.head;
    if (ln.head == ln.q.size()) {
      ln.q.clear();  // keeps capacity
      ln.head = 0;
    } else if (ln.head >= kLaneCompact && ln.head * 2 >= ln.q.size()) {
      ln.q.erase(ln.q.begin(),
                 ln.q.begin() + static_cast<std::ptrdiff_t>(ln.head));
      ln.head = 0;
    }
  }

  static std::optional<Envelope> takeFrom(Lane& ln, int tag) {
    if (ln.n.load(std::memory_order_acquire) == 0) return std::nullopt;
    std::lock_guard lk(ln.mx);
    for (std::size_t i = ln.head; i < ln.q.size(); ++i) {
      if (tagMatches(tag, ln.q[i].tag)) {
        Envelope e = std::move(ln.q[i]);
        popAt(ln, i);
        ln.n.fetch_sub(1, std::memory_order_relaxed);
        return e;
      }
    }
    return std::nullopt;
  }

  static bool hasMatch(const Lane& ln, int tag) {
    if (ln.n.load(std::memory_order_acquire) == 0) return false;
    std::lock_guard lk(ln.mx);
    return std::any_of(ln.q.begin() + static_cast<std::ptrdiff_t>(ln.head),
                       ln.q.end(),
                       [&](const Envelope& e) { return tagMatches(tag, e.tag); });
  }

  int owner_;
  int nLanes_;
  std::unique_ptr<Lane[]> lanes_;
  int rr_ = 0;  // wildcard fairness cursor; touched only by the owning rank
  fiber::EventCount doorbell_{fiber::EventCount::Spin::Yes};
};

}  // namespace

class CommState : public Endpoint {
 public:
  CommState(int size, std::chrono::nanoseconds latency,
            const FaultPlan* plan = nullptr,
            WireKind wireKind = WireKind::InProc,
            std::chrono::nanoseconds failureGrace = kPostFailureGrace,
            std::size_t eagerCutoff = Buffer::kInlineCapacity)
      : size_(size),
        latency_(latency),
        failureGrace_(failureGrace.count() > 0 ? failureGrace
                                               : kPostFailureGrace),
        eagerCutoff_(eagerCutoff),
        collSeq_(std::make_unique<std::atomic<std::int64_t>[]>(
            static_cast<std::size_t>(size))),
        failed_(std::make_unique<std::atomic<bool>[]>(
            static_cast<std::size_t>(size))) {
    boxes_.reserve(static_cast<std::size_t>(size));
    for (int r = 0; r < size; ++r)
      boxes_.push_back(std::make_unique<Mailbox>(r, size));
    if (plan) {
      plan_ = std::make_unique<FaultPlan>(*plan);
      const auto npairs = static_cast<std::size_t>(size) * static_cast<std::size_t>(size);
      pairSeq_ = std::make_unique<std::atomic<std::uint64_t>[]>(npairs);
      opCount_ = std::make_unique<std::atomic<std::uint64_t>[]>(
          static_cast<std::size_t>(size));
    }
    // The wire is constructed last (it may spawn reader threads that call
    // accept() immediately) and declared as the last member (so it is
    // destroyed FIRST: socket readers join before the mailboxes they
    // deliver into go away).
    if (wireKind == WireKind::Socket) {
      wire_ = std::make_unique<SocketMeshWire>(size, *this);
    } else {
      wire_ = std::make_unique<InProcWire>(*this);
      // The in-proc wire is a pure loopback (post == accept on the calling
      // thread), so deliver() can skip the frame round-trip entirely and
      // deposit straight into the destination mailbox — the wire seam costs
      // nothing unless a real wire is plugged in.
      loopback_ = true;
    }
  }

  // ---- Endpoint (the receiving side of the wire) ---------------------------

  /// A frame arrived off the wire for rank f.dst: deposit it in the
  /// destination mailbox.  Runs on the sender's thread (InProcWire) or a
  /// wire reader thread (socket mesh).
  void accept(WireFrame f) override {
    boxes_[static_cast<std::size_t>(f.dst)]->deliver(
        Envelope{f.src, f.tag, std::move(f.payload)});
  }

  /// A batch of frames arrived off one postMany.  Each consecutive
  /// same-(src, dst) run lands in its destination lane under a single
  /// doorbell; a mixed batch (not produced by this runtime, but legal for
  /// a Wire) degrades gracefully to one run per switch.
  void acceptMany(std::vector<WireFrame> fs) override {
    std::size_t i = 0;
    while (i < fs.size()) {
      std::size_t j = i + 1;
      while (j < fs.size() && fs[j].src == fs[i].src && fs[j].dst == fs[i].dst)
        ++j;
      std::vector<Envelope> batch;
      batch.reserve(j - i);
      for (std::size_t k = i; k < j; ++k)
        batch.push_back(Envelope{fs[k].src, fs[k].tag, std::move(fs[k].payload)});
      boxes_[static_cast<std::size_t>(fs[i].dst)]->deliverMany(
          fs[i].src, std::move(batch));
      i = j;
    }
  }

  /// A wire lane died.  Treat it exactly like a rank kill: peers blocked on
  /// the rank unwedge with CommError{RankFailed}.
  void wireBroken(int rank, const std::string& /*what*/) override {
    markFailed(rank);
  }

  [[nodiscard]] const std::string& wireName() const noexcept {
    return wire_->name();
  }

  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] std::chrono::nanoseconds latency() const noexcept { return latency_; }
  [[nodiscard]] const FaultPlan* plan() const noexcept { return plan_.get(); }
  [[nodiscard]] std::size_t eagerCutoff() const noexcept { return eagerCutoff_; }

  // CommState is a friend of Comm; run()'s team launcher goes through this
  // to reach the private handle constructor.
  static Comm makeComm(int rank, std::shared_ptr<CommState> state) {
    return Comm(rank, std::move(state));
  }

  // ---- failure / shutdown state -------------------------------------------

  [[nodiscard]] bool isShutdown() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool isFailed(int r) const noexcept {
    return failed_[static_cast<std::size_t>(r)].load(std::memory_order_acquire);
  }
  [[nodiscard]] int failedCount() const noexcept {
    return failedCount_.load(std::memory_order_acquire);
  }

  void markFailed(int r) {
    bool expected = false;
    if (!failed_[static_cast<std::size_t>(r)].compare_exchange_strong(
            expected, true, std::memory_order_acq_rel))
      return;  // already failed; wakeups were issued by the first marker
    failedCount_.fetch_add(1, std::memory_order_acq_rel);
    wakeAll();
  }

  void initiateShutdown() {
    if (shutdown_.exchange(true, std::memory_order_acq_rel)) return;
    wakeAll();
    for (auto& b : boxes_) b->drain();
  }

  // ---- transport -----------------------------------------------------------

  void deliver(int dst, Envelope e) {
    testing::schedulePoint(testing::SchedOp::MailboxDeliver, dst, e.tag);
    checkSender(e.source, dst, e.tag);
    if (plan_) {
      bool dup = false;
      if (!applyPlan(dst, e, dup)) return;  // dropped on the wire
      if (dup) {
        testing::sleepFor(latency_);
        if (loopback_)
          boxes_[static_cast<std::size_t>(dst)]->deliver(
              Envelope{e.source, e.tag, e.payload});
        else
          wire_->post(WireFrame{e.source, dst, e.tag, e.payload});
      }
    }
    testing::sleepFor(latency_);
    if (loopback_)
      boxes_[static_cast<std::size_t>(dst)]->deliver(std::move(e));
    else
      wire_->post(WireFrame{e.source, dst, e.tag, std::move(e.payload)});
  }

  // Batched transport entry (Comm::sendMany): semantically deliver() in a
  // loop — same per-message fault draws, same order, same matching — but
  // the surviving messages cross the wire as one postMany and land under
  // one mailbox doorbell.  One schedule point covers the whole batch: the
  // explorer treats "the batch lands" as a single atomic event, which is
  // exactly the commutation claim the doorbell coalescing makes (and the
  // Sched explorer tests check against a per-message reference).
  void deliverMany(int dst, int src, int tag, std::vector<Buffer> payloads) {
    testing::schedulePoint(testing::SchedOp::MailboxDeliver, dst, tag);
    checkSender(src, dst, tag);
    if (loopback_) {
      if (!plan_) {  // fault-free: wrap payloads in-lane, no staging vector
        testing::sleepFor(latency_);
        boxes_[static_cast<std::size_t>(dst)]->deliverMany(src, tag,
                                                           std::move(payloads));
        return;
      }
      std::vector<Envelope> batch;
      batch.reserve(payloads.size());
      for (auto& b : payloads) {
        Envelope e{src, tag, std::move(b)};
        if (plan_) {
          bool dup = false;
          if (!applyPlan(dst, e, dup)) continue;  // dropped on the wire
          if (dup) batch.push_back(Envelope{src, tag, e.payload});
        }
        batch.push_back(std::move(e));
      }
      if (batch.empty()) return;
      testing::sleepFor(latency_);
      boxes_[static_cast<std::size_t>(dst)]->deliverMany(src, std::move(batch));
      return;
    }
    std::vector<WireFrame> frames;
    frames.reserve(payloads.size());
    for (auto& b : payloads) {
      Envelope e{src, tag, std::move(b)};
      if (plan_) {
        bool dup = false;
        if (!applyPlan(dst, e, dup)) continue;  // dropped on the wire
        if (dup) frames.push_back(WireFrame{src, dst, tag, e.payload});
      }
      frames.push_back(WireFrame{src, dst, tag, std::move(e.payload)});
    }
    if (frames.empty()) return;
    testing::sleepFor(latency_);
    wire_->postMany(std::move(frames));
  }

  // Blocking retrieve with failure semantics.  Returns nullopt only when a
  // caller-supplied bound (`timeout` > 0) expired; every fault outcome is
  // thrown here, with full (rank, source, tag, elapsed) context:
  //  * shutdown                        → CommError{Shutdown}
  //  * the awaited source rank failed  → CommError{RankFailed}
  //  * wildcard recv + any rank failed → CommError{RankFailed} (the message
  //    might have had to come from the dead rank — ULFM's any-source rule)
  //  * once any rank has failed, an unbounded recv waits at most a grace
  //    period; if the message never comes the recv is a casualty of the
  //    failure (the sender may have exited on its own RankFailed) and
  //    throws CommError{RankFailed} too — so a rank kill unblocks the
  //    whole team with one error kind instead of a cascade of timeouts
  //  * unbounded recv outlives the fault-plan deadline with no failure
  //    anywhere                        → CommError{Timeout}
  std::optional<Envelope> retrieve(int rank, int source, int tag,
                                   std::chrono::nanoseconds timeout) {
    // The elapsed clock only matters once a retrieve misses (all uses are in
    // error strings), so the fast path — message already waiting — pays no
    // clock read.  "Elapsed" is then measured from the first miss, which is
    // within one park of the call anyway.
    std::chrono::steady_clock::time_point t0{};
    bool t0Set = false;
    auto blockedMs = [&]() noexcept { return t0Set ? elapsedMs(t0) : 0LL; };
    checkReceiver(rank, source, tag);
    const bool userBounded = timeout.count() > 0;
    for (;;) {
      const int failedAtPark = failedCount();
      auto eff = timeout;
      bool graceWait = false;
      if (!userBounded) {
        if (failedAtPark > 0) {
          eff = failureGrace_;
          graceWait = true;
        } else if (plan_ && plan_->deadline().count() > 0) {
          eff = plan_->deadline();
        }
      }
      auto interrupted = [&]() noexcept {
        if (shutdown_.load(std::memory_order_relaxed)) return true;
        const int f = failedCount_.load(std::memory_order_relaxed);
        if (f == 0) return false;
        if (sourceDoomed(source)) return true;
        // A fresh failure: re-park non-user waits so the grace clock (not
        // the original unbounded/deadline wait) bounds them from now on.
        return !userBounded && f > failedAtPark;
      };
      auto e = boxes_[static_cast<std::size_t>(rank)]->retrieve(source, tag, eff,
                                                                interrupted);
      if (e) return e;
      if (!t0Set) {
        t0 = std::chrono::steady_clock::now();
        t0Set = true;
      }
      if (isShutdown())
        throw CommError(CommErrorKind::Shutdown,
                        opDesc("recv", rank, "from", source, tag) +
                            ": communicator shut down after " +
                            std::to_string(blockedMs()) + " ms",
                        recvContext(source, rank, tag));
      if (failedCount() > 0 && sourceDoomed(source)) {
        const std::string who =
            source == kAnySource ? "a peer rank" : "rank " + std::to_string(source);
        throw CommError(CommErrorKind::RankFailed,
                        opDesc("recv", rank, "from", source, tag) + ": " + who +
                            " failed after " + std::to_string(blockedMs()) +
                            " ms blocked",
                        recvContext(source, rank, tag));
      }
      if (userBounded) return std::nullopt;
      if (graceWait)
        throw CommError(CommErrorKind::RankFailed,
                        opDesc("recv", rank, "from", source, tag) +
                            ": unfinished " + std::to_string(blockedMs()) +
                            " ms after a peer rank failure (grace period "
                            "expired; the sender likely died with it)",
                        recvContext(source, rank, tag));
      if (failedCount() > 0) continue;  // fresh failure: start the grace clock
      if (!(plan_ && plan_->deadline().count() > 0)) continue;  // spurious
      throw CommError(CommErrorKind::Timeout,
                      opDesc("recv", rank, "from", source, tag) +
                          ": timed out after " + std::to_string(blockedMs()) +
                          " ms (fault-plan deadline)",
                      recvContext(source, rank, tag));
    }
  }

  std::optional<Envelope> tryRetrieve(int rank, int source, int tag) {
    checkReceiver(rank, source, tag);
    return boxes_[static_cast<std::size_t>(rank)]->tryTake(source, tag);
  }

  bool probe(int rank, int source, int tag) const {
    return boxes_[static_cast<std::size_t>(rank)]->probe(source, tag);
  }

  [[nodiscard]] long pendingUser(int rank) const {
    return boxes_[static_cast<std::size_t>(rank)]->pendingUser();
  }

  // Sense-reversing barrier: one fetch_add per arrival; the closer resets
  // the count (before releasing the generation, so re-entry is safe) and
  // wakes everyone with a single notify on the barrier's event count.
  // Failure or shutdown rings the same event count, waking every waiter to
  // re-check and throw; once any rank has failed the barrier can never
  // complete, so entry fails fast too.
  void barrier(int rank) {
    checkOp(rank, "barrier");
    if (failedCount() > 0)
      throw CommError(CommErrorKind::RankFailed,
                      "barrier on rank " + std::to_string(rank) +
                          ": cannot complete, a peer rank has failed");
    // Arrival is a schedule point: the explorer controls the order in which
    // ranks enter the barrier (the closer/waiter split is interleaving-
    // sensitive, e.g. against a racing shutdown).
    testing::schedulePoint(testing::SchedOp::Barrier, rank);
    const testing::SchedPoint point{testing::SchedOp::Barrier, rank, 0};
    const std::uint64_t gen = gen_.load(std::memory_order_acquire);
    if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == size_) {
      count_.store(0, std::memory_order_relaxed);
      gen_.fetch_add(1, std::memory_order_release);
      barrierBell_.notify(point);
      return;
    }
    // The wakeup condition re-checks the interrupt flags, not just the
    // generation word: a shutdown or failure changes no generation.
    barrierBell_.await(point, [this, gen] {
      return gen_.load(std::memory_order_acquire) != gen || isShutdown() ||
             failedCount() > 0;
    });
    if (isShutdown())
      throw CommError(CommErrorKind::Shutdown,
                      "barrier on rank " + std::to_string(rank) +
                          ": interrupted by communicator shutdown");
    if (failedCount() > 0)
      throw CommError(CommErrorKind::RankFailed,
                      "barrier on rank " + std::to_string(rank) +
                          ": aborted, a peer rank failed");
  }

  // Entry check shared by all operations: shutdown gate, own-failure gate,
  // and the fault plan's kill schedule (one op-count tick per transport
  // operation the rank initiates).
  void checkOp(int rank, const char* op) {
    if (isShutdown())
      throw CommError(CommErrorKind::Shutdown,
                      std::string(op) + " on rank " + std::to_string(rank) +
                          ": communicator shut down");
    if (isFailed(rank))
      throw CommError(CommErrorKind::RankFailed,
                      std::string(op) + " on rank " + std::to_string(rank) +
                          ": this rank has failed");
    if (opCount_) {
      const std::uint64_t n =
          opCount_[static_cast<std::size_t>(rank)].fetch_add(
              1, std::memory_order_relaxed) +
          1;
      if (auto k = plan_->killAfter(rank); k && n > *k) {
        markFailed(rank);
        throw CommError(CommErrorKind::RankFailed,
                        std::string(op) + " on rank " + std::to_string(rank) +
                            ": rank killed by fault plan after " +
                            std::to_string(*k) + " ops");
      }
    }
  }

  // Per-(communicator, rank) collective sequence.  Shared across copies of
  // a rank's Comm handle so the tag stream cannot fork (a copied handle
  // advancing a private counter was a latent desync bug).
  std::int64_t nextCollSeq(int rank) {
    return collSeq_[static_cast<std::size_t>(rank)].fetch_add(
        1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t collSeqSnapshot(int rank) const {
    return collSeq_[static_cast<std::size_t>(rank)].load(
        std::memory_order_relaxed);
  }

  // Collective split support: every participating rank calls in with the
  // full (color, key, oldRank) table it obtained via allgather; the first
  // caller for a given (seq, color) constructs the shared child state, and
  // everyone else picks it up.
  std::shared_ptr<CommState> childState(std::int64_t seq, int color, int groupSize) {
    std::lock_guard lk(splitMx_);
    auto key = std::make_pair(seq, color);
    auto it = children_.find(key);
    if (it == children_.end()) {
      it = children_
               .emplace(key, std::make_shared<CommState>(
                                 groupSize, latency_, nullptr,
                                 WireKind::InProc, failureGrace_,
                                 eagerCutoff_))
               .first;
    }
    return it->second;
  }

  void dropChild(std::int64_t seq, int color) {
    std::lock_guard lk(splitMx_);
    children_.erase(std::make_pair(seq, color));
  }

 private:
  // Apply the installed fault plan to one outgoing envelope.  Returns false
  // when the message is dropped; sets `dup` when a duplicate must also be
  // posted; may truncate the payload in place and burn an injected delay.
  // One pair-stream draw per message, so batching cannot perturb the
  // deterministic fault schedule a seed implies.
  bool applyPlan(int dst, Envelope& e, bool& dup) {
    const auto pair = static_cast<std::uint64_t>(e.source) *
                          static_cast<std::uint64_t>(size_) +
                      static_cast<std::uint64_t>(dst);
    const std::uint64_t n =
        pairSeq_[pair].fetch_add(1, std::memory_order_relaxed);
    dup = false;
    if (e.tag >= 0) {  // user traffic only: see FaultPlan::drop()
      const double u = plan_->draw(pair, n);
      double c = plan_->dropRate();
      if (u < c) return false;
      if (u < (c += plan_->duplicateRate())) {
        dup = true;
      } else if (u < (c += plan_->truncateRate())) {
        auto half = e.payload.bytes().first(e.payload.size() / 2);
        e.payload = Buffer(half);
      }
    }
    if (plan_->delayRate() > 0.0) {
      // Separate decision stream (offset past the pair index space) so
      // delays do not correlate with the drop/dup/truncate partition.
      const auto npairs = static_cast<std::uint64_t>(size_) *
                          static_cast<std::uint64_t>(size_);
      if (plan_->draw(npairs + pair, n) < plan_->delayRate())
        testing::sleepFor(plan_->delayBy());
    }
    return true;
  }

  // True when a receive waiting on `source` can no longer be satisfied
  // (callers have already established failedCount() > 0).
  [[nodiscard]] bool sourceDoomed(int source) const noexcept {
    return source == kAnySource || isFailed(source);
  }

  // Structured lane context for receive-side errors (wire(), not what()-
  // parsing, is the supported way for callers to learn the lane).
  [[nodiscard]] WireContext recvContext(int source, int rank, int tag) const {
    return WireContext{wireName(), source, rank, tag};
  }

  void checkSender(int src, int dst, int tag) {
    checkOp(src, "send");
    if (isFailed(dst))
      throw CommError(CommErrorKind::RankFailed,
                      opDesc("send", src, "to", dst, tag) +
                          ": destination rank failed",
                      WireContext{wireName(), src, dst, tag});
  }

  void checkReceiver(int rank, int source, int tag) {
    checkOp(rank, "recv");
    if (source != kAnySource && isFailed(source))
      throw CommError(CommErrorKind::RankFailed,
                      opDesc("recv", rank, "from", source, tag) +
                          ": source rank failed",
                      recvContext(source, rank, tag));
  }

  // Wake every parked receiver and barrier waiter so they re-check the
  // failure/shutdown flags (set by the caller *before* this runs).
  void wakeAll() {
    barrierBell_.notify(testing::SchedPoint{testing::SchedOp::Barrier, -1, 0});
    for (auto& b : boxes_) b->ring(-1);
  }

  int size_;
  std::chrono::nanoseconds latency_;
  std::chrono::nanoseconds failureGrace_;
  std::size_t eagerCutoff_;
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  std::unique_ptr<std::atomic<std::int64_t>[]> collSeq_;

  std::atomic<int> count_{0};
  std::atomic<std::uint64_t> gen_{0};
  fiber::EventCount barrierBell_{fiber::EventCount::Spin::Yes};

  // Fault machinery.  plan_/pairSeq_/opCount_ exist only when a FaultPlan
  // was installed; the failure/shutdown flags always exist (failRank() and
  // shutdown() work without a plan) and cost one relaxed load on hot paths.
  std::unique_ptr<FaultPlan> plan_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> pairSeq_;  // size*size streams
  std::unique_ptr<std::atomic<std::uint64_t>[]> opCount_;  // per-rank op ticks
  std::unique_ptr<std::atomic<bool>[]> failed_;
  std::atomic<int> failedCount_{0};
  std::atomic<bool> shutdown_{false};

  std::mutex splitMx_;
  std::map<std::pair<std::int64_t, int>, std::shared_ptr<CommState>> children_;

  // LAST member on purpose: destroyed first, so a socket mesh's reader
  // threads are joined before the mailboxes (and flags) they touch die.
  bool loopback_ = false;  // wire_ is the in-proc loopback; deliver direct
  std::unique_ptr<Wire> wire_;
};

}  // namespace detail

int Comm::size() const noexcept { return state_ ? state_->size() : 0; }

void Comm::send(int dst, int tag, Buffer payload) {
  if (tag < 0) throw CommError("send: user tags must be non-negative");
  sendRaw(dst, tag, std::move(payload));
}

void Comm::sendRaw(int dst, int tag, Buffer payload) {
  if (!state_) throw CommError("send on an invalid communicator");
  if (dst < 0 || dst >= size()) throw CommError("send: destination rank out of range");
  state_->deliver(dst, detail::Envelope{rank_, tag, std::move(payload)});
}

void Comm::send(int dst, int tag, std::span<const std::byte> bytes) {
  send(dst, tag, Buffer(bytes));
}

void Comm::sendMany(int dst, int tag, std::vector<Buffer> payloads) {
  if (tag < 0) throw CommError("send: user tags must be non-negative");
  if (!state_) throw CommError("send on an invalid communicator");
  if (dst < 0 || dst >= size())
    throw CommError("send: destination rank out of range");
  if (payloads.empty()) return;
  state_->deliverMany(dst, rank_, tag, std::move(payloads));
}

std::size_t Comm::eagerCutoff() const noexcept {
  return state_ ? state_->eagerCutoff() : 0;
}

Message Comm::recv(int source, int tag) {
  if (tag != kAnyTag && tag < 0) throw CommError("recv: user tags must be non-negative");
  return recvRaw(source, tag);
}

Message Comm::recvTimeout(int source, int tag, std::chrono::nanoseconds timeout) {
  if (tag != kAnyTag && tag < 0) throw CommError("recv: user tags must be non-negative");
  if (!state_) throw CommError("recv on an invalid communicator");
  if (source != kAnySource && (source < 0 || source >= size()))
    throw CommError("recv: source rank out of range");
  if (timeout.count() <= 0) throw CommError("recvTimeout: timeout must be positive");
  const auto t0 = std::chrono::steady_clock::now();
  auto e = state_->retrieve(rank_, source, tag, timeout);
  if (!e)
    throw CommError(
        CommErrorKind::Timeout,
        "recv on rank " + std::to_string(rank_) + " from " +
            (source == kAnySource ? "any" : "rank " + std::to_string(source)) +
            " (tag " + (tag == kAnyTag ? "any" : std::to_string(tag)) +
            "): no matching message within " +
            std::to_string(std::chrono::duration_cast<std::chrono::milliseconds>(
                               std::chrono::steady_clock::now() - t0)
                               .count()) +
            " ms",
        WireContext{state_->wireName(), source, rank_, tag});
  return Message{e->source, e->tag, std::move(e->payload)};
}

std::optional<Message> Comm::tryRecv(int source, int tag) {
  if (tag != kAnyTag && tag < 0) throw CommError("recv: user tags must be non-negative");
  if (!state_) throw CommError("recv on an invalid communicator");
  if (source != kAnySource && (source < 0 || source >= size()))
    throw CommError("recv: source rank out of range");
  auto e = state_->tryRetrieve(rank_, source, tag);
  if (!e) return std::nullopt;
  return Message{e->source, e->tag, std::move(e->payload)};
}

Message Comm::recvRaw(int source, int tag) {
  if (!state_) throw CommError("recv on an invalid communicator");
  if (source != kAnySource && (source < 0 || source >= size()))
    throw CommError("recv: source rank out of range");
  auto e = state_->retrieve(rank_, source, tag, std::chrono::nanoseconds{0});
  // retrieve() with an unbounded timeout either returns a message or throws.
  return Message{e->source, e->tag, std::move(e->payload)};
}

bool Comm::probe(int source, int tag) const {
  if (!state_) throw CommError("probe on an invalid communicator");
  return state_->probe(rank_, source, tag);
}

void Comm::barrier() {
  if (!state_) throw CommError("barrier on an invalid communicator");
  state_->barrier(rank_);
}

long Comm::pendingUserMessages() const {
  if (!state_) throw CommError("pendingUserMessages on an invalid communicator");
  return state_->pendingUser(rank_);
}

void Comm::quiesce(std::chrono::nanoseconds timeout,
                   std::chrono::nanoseconds epochInterval) {
  if (!state_) throw CommError("quiesce on an invalid communicator");
  if (epochInterval.count() <= 0)
    throw CommError("quiesce: epoch interval must be positive");
  // Deterministic epoch budget: every rank derives the same budget from the
  // same (timeout, epochInterval) arguments, and the loop's exit condition
  // depends only on allreduced totals and the epoch counter.  All ranks
  // therefore reach the same verdict (quiet vs. timeout) in the same epoch —
  // no rank can throw while its peers keep waiting inside a collective.
  const long budget = std::max<long>(2, timeout / epochInterval);
  long quietEpochs = 0;
  long pending = 0;
  for (long epoch = 0; epoch < budget; ++epoch) {
    testing::schedulePoint(testing::SchedOp::QuiesceEpoch, rank_,
                           static_cast<int>(epoch));
    // After the barrier no send is in flight (delivery is synchronous inside
    // send()), so the per-rank counts below form a consistent global cut.
    barrier();
    pending = allreduce<long>(state_->pendingUser(rank_), Sum{});
    if (pending == 0) {
      if (++quietEpochs == 2) return;
      continue;
    }
    quietEpochs = 0;
    testing::sleepFor(epochInterval);
  }
  throw CommError(CommErrorKind::Timeout,
                  "quiesce on rank " + std::to_string(rank_) + ": " +
                      std::to_string(pending) +
                      " user message(s) still pending team-wide after " +
                      std::to_string(budget) + " epochs; snapshot would be dirty");
}

void Comm::shutdown() {
  if (!state_) throw CommError("shutdown on an invalid communicator");
  state_->initiateShutdown();
}

void Comm::failRank(int r) {
  if (!state_) throw CommError("failRank on an invalid communicator");
  if (r < 0 || r >= size()) throw CommError("failRank: rank out of range");
  state_->markFailed(r);
}

bool Comm::rankFailed(int r) const {
  if (!state_) throw CommError("rankFailed on an invalid communicator");
  if (r < 0 || r >= size()) throw CommError("rankFailed: rank out of range");
  return state_->isFailed(r);
}

int Comm::failedCount() const {
  if (!state_) throw CommError("failedCount on an invalid communicator");
  return state_->failedCount();
}

int Comm::nextCollTag() {
  testing::schedulePoint(testing::SchedOp::CollectiveTag, rank_);
  if (testing::detail::g_legacyCollTagBug.load(std::memory_order_relaxed)) {
    // Historical-bug reinjection (testing::setLegacyCollTagBug): draw from
    // this handle's private counter, the pre-PR-2 behaviour.  A copied
    // handle forks the counter, so interleaving collectives across copies
    // desynchronizes the tag stream the other ranks expect — exactly the
    // bug class the schedule explorer must catch (tests/test_sched.cpp).
    return detail::kCollTagBase - static_cast<int>(legacySeq_++ % 1000000);
  }
  // Collectives are invoked in the same order by every rank, so the shared
  // per-rank sequence yields identical tags across the communicator without
  // any coordination.  Tags wrap far before colliding with user tag space.
  const std::int64_t seq = state_->nextCollSeq(rank_);
  return detail::kCollTagBase - static_cast<int>(seq % 1000000);
}

Buffer Comm::bcastBytes(Buffer payload, int root) {
  const int p = size();
  if (p == 0) throw CommError("bcast on an invalid communicator");
  if (root < 0 || root >= p) throw CommError("bcast: root rank out of range");
  if (p == 1) return payload;
  const int me = relRank(rank_, root, p);
  const int tag = nextCollTag();
  // Binomial tree: receive from the parent, then forward to children.  The
  // payload is frozen into shared storage before fan-out, so every delivery
  // below is a refcount bump on one allocation, not a deep copy.
  if (me != 0) {
    int parentMask = 1;
    while (!(me & parentMask)) parentMask <<= 1;
    const int parent = absRank(me & ~parentMask, root, p);
    auto e = state_->retrieve(rank_, parent, tag, std::chrono::nanoseconds{0});
    payload = std::move(e->payload);  // arrives already shared
    // Children of `me` are me + mask for masks below parentMask.
    for (int mask = parentMask >> 1; mask >= 1; mask >>= 1) {
      const int child = me + mask;
      if (child < p)
        state_->deliver(absRank(child, root, p), detail::Envelope{rank_, tag, payload});
    }
  } else {
    payload.share();
    int top = 1;
    while (top < p) top <<= 1;
    for (int mask = top >> 1; mask >= 1; mask >>= 1) {
      const int child = me + mask;
      if (child < p)
        state_->deliver(absRank(child, root, p), detail::Envelope{rank_, tag, payload});
    }
  }
  payload.rewind();
  return payload;
}

Comm Comm::split(int color, int key) {
  if (!state_) throw CommError("split on an invalid communicator");
  struct Entry {
    int color;
    int key;
    int rank;
  };
  // Identical on all ranks (collective order); snapshot before the
  // allgather below advances the sequence.
  const std::int64_t seq = state_->collSeqSnapshot(rank_);
  auto table = allgather(Entry{color, key, rank_});
  if (color < 0) {
    barrier();
    return Comm(-1, nullptr);
  }
  std::vector<Entry> group;
  for (const auto& e : table)
    if (e.color == color) group.push_back(e);
  std::sort(group.begin(), group.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.key, a.rank) < std::tie(b.key, b.rank);
  });
  int newRank = -1;
  for (std::size_t i = 0; i < group.size(); ++i)
    if (group[i].rank == rank_) newRank = static_cast<int>(i);
  auto child = state_->childState(seq, color, static_cast<int>(group.size()));
  barrier();  // ensure every rank has picked up its child state…
  if (newRank == 0) state_->dropChild(seq, color);  // …before the key is retired
  return Comm(newRank, std::move(child));
}

void Comm::run(int nranks, const std::function<void(Comm&)>& body) {
  run(nranks, body, std::chrono::nanoseconds{0});
}

namespace {

// Parked rank-worker threads, reused across teams.  Spawning a thread costs
// tens of microseconds on a small host — more than an entire 2000-message
// flood — and benches (and iterative drivers) launch a fresh team per
// measurement, so per-run thread creation dominated every small-team
// scenario.  A worker created for one team parks on its event count when
// its rank body returns and picks up the next team's body instead of being
// joined and re-created.  Only uncontrolled runs use the pool; explorer
// (controlled) runs get fresh threads because the controller tracks thread
// identity across the schedule.  The pool is intentionally leaked: parked
// workers hold no work at exit, and tearing them down from a static
// destructor would race other static teardown.
class TeamWorkerPool {
 public:
  static TeamWorkerPool& get() {
    static TeamWorkerPool* pool = new TeamWorkerPool;
    return *pool;
  }

  // Run `job` on a parked worker, spawning one only when none is free.
  // Completion is the job's business (runTeam counts ranks down itself);
  // the worker reparks as soon as the job returns.
  void launch(std::function<void()> job) {
    Worker* w = nullptr;
    {
      std::lock_guard lk(mx_);
      if (!free_.empty()) {
        w = free_.back();
        free_.pop_back();
      }
    }
    if (!w) w = new Worker(*this);
    w->assign(std::move(job));
  }

 private:
  struct Worker {
    explicit Worker(TeamWorkerPool& pool) {
      std::thread([this, &pool] { loop(pool); }).detach();
    }

    // Only a worker popped from free_ (or a new one) is assigned, so the
    // job slot is never written while the worker reads it.
    void assign(std::function<void()> f) {
      job = std::move(f);
      hasJob.store(true, std::memory_order_release);
      bell.notify(kPoint);
    }

    void loop(TeamWorkerPool& pool) {
      for (;;) {
        bell.await(kPoint,
                   [this] { return hasJob.load(std::memory_order_acquire); });
        std::function<void()> f = std::move(job);
        job = nullptr;
        hasJob.store(false, std::memory_order_relaxed);
        f();
        f = nullptr;  // drop captured state before offering ourselves again
        std::lock_guard plk(pool.mx_);
        pool.free_.push_back(this);
      }
    }

    static constexpr testing::SchedPoint kPoint{testing::SchedOp::ThreadStart,
                                                -1, 0};
    fiber::EventCount bell;
    std::atomic<bool> hasJob{false};
    std::function<void()> job;
  };

  std::mutex mx_;
  std::vector<Worker*> free_;
};

void runTeam(int nranks, const std::function<void(Comm&)>& body,
             const RunOptions& opts) {
  if (nranks <= 0) throw CommError("run: need at least one rank");
  auto state = std::make_shared<detail::CommState>(
      nranks, opts.sendLatency, opts.plan, opts.wire, opts.failureGrace,
      opts.eagerCutoffBytes);
  if (opts.exec == ExecKind::Fiber) {
    // Rank bodies become fibers on the M:N scheduler; every blocking edge
    // in the runtime parks through the ScheduleController seam, so the
    // kernel only ever sees `fiberWorkers` runnable threads no matter how
    // large the team is.  The fiber entry wrapper captures the first body
    // exception and tryRunFibers rethrows it after all fibers finish —
    // the same semantics as the thread path below.
    fiber::FiberOptions fopts;
    fopts.workers = opts.fiberWorkers;
    fopts.stackBytes = opts.fiberStackBytes;
    const bool ran = fiber::tryRunFibers(
        nranks,
        [&body, &state](int r) {
          Comm c = detail::CommState::makeComm(r, state);
          body(c);
        },
        fopts);
    if (ran) return;
    // A schedule controller is already installed (an explorer run, or an
    // enclosing fiber team): fall back to thread-per-rank under it, which
    // is exactly what runControlled() needs to explore a Fiber-mode body.
  }
  std::mutex errMx;
  std::exception_ptr firstError;
  auto rankMain = [&body, &state, &errMx, &firstError](int r) {
    // Registers the rank thread with a schedule controller when one is
    // installed (a no-op branch otherwise); the failure note below lets
    // the explorer attribute a body exception to the schedule that
    // produced it before abort-induced unwinding obscures the cause.
    testing::ActorScope actor(r);
    Comm c = detail::CommState::makeComm(r, state);
    try {
      body(c);
    } catch (...) {
      {
        std::lock_guard lk(errMx);
        if (!firstError) firstError = std::current_exception();
      }
      testing::noteControlledFailure(std::current_exception());
    }
  };
  if (testing::controllerInstalled()) {
    // Explorer run: the caller is the explorer's driver thread and must
    // stay out of the schedule, and the controller tracks thread identity —
    // so every rank gets a fresh dedicated thread.
    std::vector<std::thread> team;
    team.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r)
      team.emplace_back([&rankMain, r] { rankMain(r); });
    for (auto& t : team) t.join();
  } else {
    // Production path: rank 0 runs on the calling thread and ranks 1..p−1
    // on pooled workers, so a p-rank team pays for p−1 worker wakes — and
    // thread spawns only the first time a team this wide runs.
    std::atomic<int> pending{nranks - 1};
    auto& pool = TeamWorkerPool::get();
    for (int r = 1; r < nranks; ++r)
      pool.launch([&rankMain, &pending, r] {
        rankMain(r);
        if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
          pending.notify_one();
      });
    rankMain(0);
    for (int n = pending.load(std::memory_order_acquire); n != 0;
         n = pending.load(std::memory_order_acquire))
      pending.wait(n, std::memory_order_acquire);
  }
  if (firstError) std::rethrow_exception(firstError);
}

}  // namespace

void Comm::run(int nranks, const std::function<void(Comm&)>& body,
               std::chrono::nanoseconds sendLatency) {
  RunOptions opts;
  opts.sendLatency = sendLatency;
  runTeam(nranks, body, opts);
}

void Comm::run(int nranks, const std::function<void(Comm&)>& body,
               const FaultPlan& plan) {
  RunOptions opts;
  opts.plan = &plan;
  runTeam(nranks, body, opts);
}

void Comm::run(int nranks, const std::function<void(Comm&)>& body,
               const RunOptions& opts) {
  runTeam(nranks, body, opts);
}

}  // namespace cca::rt
