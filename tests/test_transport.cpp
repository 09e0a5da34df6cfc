// Transport invariants for the sharded mailbox, log-P collectives, shared
// collective sequence, bounded waits, zero-copy broadcast, and the per-pair
// M×N coupling channel.  These tests pin down the semantic contract the
// lock-striping / zero-copy rework must preserve (see DESIGN.md §2):
//   - non-overtaking per (source, tag), including under wildcard receives
//   - wildcard tags never match internal (negative) collective tags
//   - barrier generations are reusable, also across split() children
//   - collective tags stay consistent across copied Comm handles
//   - bounded receives time out with CommError instead of hanging forever
//   - broadcast fan-out shares one payload allocation (O(1) deep copies)

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cca/collective/mxn.hpp"
#include "cca/collective/schedule.hpp"
#include "cca/dist/distribution.hpp"
#include "cca/rt/buffer.hpp"
#include "cca/rt/comm.hpp"

using namespace cca;
using namespace cca::rt;

// ---------------------------------------------------------------------------
// Ordering: non-overtaking per (source, tag) with interleaved wildcards
// ---------------------------------------------------------------------------

TEST(TransportOrdering, NonOvertakingUnderInterleavedWildcards) {
  // Four senders flood rank 0 on two tags each; the receiver alternates
  // wildcard receives, source-specific wildcard-tag receives, and fully
  // specific receives.  Whatever mix is used, the sequence numbers per
  // (source, tag) must arrive strictly increasing.
  constexpr int kPerTag = 50;
  Comm::run(5, [&](Comm& c) {
    if (c.rank() == 0) {
      std::map<std::pair<int, int>, int> last;
      const int total = 4 * 2 * kPerTag;
      for (int i = 0; i < total; ++i) {
        // Mix matching modes; the non-wildcard probes use tryRecv with a
        // blocking wildcard fallback so a drained (source, tag) stream can
        // never deadlock the drain loop.
        std::optional<Message> got;
        switch (i % 4) {
          case 1:
            got = c.tryRecv(1 + (i / 4) % 4, kAnyTag);
            break;
          case 2:
            got = c.tryRecv(kAnySource, kAnyTag);
            break;
          case 3:
            got = c.tryRecv(kAnySource, 10 + i % 2);
            break;
          default:
            break;
        }
        Message m = got ? std::move(*got) : c.recv(kAnySource, kAnyTag);
        const int seq = [&] {
          int v = 0;
          m.payload.readBytes(&v, sizeof v);
          return v;
        }();
        auto key = std::make_pair(m.source, m.tag);
        auto it = last.find(key);
        if (it != last.end()) {
          EXPECT_GT(seq, it->second)
              << "overtaking from source " << m.source << " tag " << m.tag;
        }
        last[key] = seq;
      }
    } else {
      for (int i = 0; i < kPerTag; ++i) {
        c.sendValue(0, 10, i);
        c.sendValue(0, 11, i);
      }
    }
  });
}

TEST(TransportOrdering, SpecificRecvSkipsOtherTagsWithoutReordering) {
  Comm::run(2, [&](Comm& c) {
    if (c.rank() == 0) {
      c.sendValue(1, 7, 100);
      c.sendValue(1, 8, 200);
      c.sendValue(1, 7, 101);
    } else {
      // Drain tag 8 first even though a tag-7 message was sent earlier.
      EXPECT_EQ(c.recvValue<int>(0, 8), 200);
      EXPECT_EQ(c.recvValue<int>(0, 7), 100);
      EXPECT_EQ(c.recvValue<int>(0, 7), 101);
    }
  });
}

// ---------------------------------------------------------------------------
// Wildcards never see internal collective traffic
// ---------------------------------------------------------------------------

TEST(TransportWildcards, AnyTagIgnoresCollectiveTags) {
  Comm::run(2, [&](Comm& c) {
    if (c.rank() == 0) {
      // The bcast enqueues a negative-tagged message into rank 1's mailbox,
      // then the flag on tag 5 proves it has been delivered (per-sender
      // delivery order).
      (void)c.bcast(42, 0);
      c.sendValue(1, 5, 1);
    } else {
      EXPECT_EQ(c.recvValue<int>(0, 5), 1);
      // The collective payload is sitting in the mailbox now, but neither
      // probe nor wildcard receive may surface it.
      EXPECT_FALSE(c.probe(kAnySource, kAnyTag));
      EXPECT_FALSE(c.tryRecv(kAnySource, kAnyTag).has_value());
      EXPECT_EQ(c.bcast(0, 0), 42);
    }
  });
}

// ---------------------------------------------------------------------------
// Barrier generations: reuse, and reuse across split() children
// ---------------------------------------------------------------------------

TEST(TransportBarrier, GenerationReuse) {
  std::atomic<int> counter{0};
  Comm::run(8, [&](Comm& c) {
    for (int round = 0; round < 200; ++round) {
      counter.fetch_add(1);
      c.barrier();
      EXPECT_EQ(counter.load(), (round + 1) * c.size());
      c.barrier();
    }
  });
}

TEST(TransportBarrier, GenerationReuseAcrossSplitChildren) {
  Comm::run(8, [&](Comm& c) {
    Comm half = c.split(c.rank() % 2, c.rank());
    Comm quarter = half.split(half.rank() % 2, half.rank());
    for (int round = 0; round < 100; ++round) {
      quarter.barrier();
      half.barrier();
      c.barrier();
      // Interleave in the other order too; generations must not bleed
      // between parent and children barriers.
      c.barrier();
      quarter.barrier();
      half.barrier();
    }
    const int sum = c.allreduce(1, Sum{});
    EXPECT_EQ(sum, 8);
  });
}

// ---------------------------------------------------------------------------
// Recursive-doubling allreduce (pinned explicitly: on hosts with fewer
// cores than ranks, allreduce() auto-selects the binomial tree form, so
// this is the only way the doubling + non-power-of-two fold gets exercised
// everywhere)
// ---------------------------------------------------------------------------

class AllreduceRecDoubling : public ::testing::TestWithParam<int> {};

TEST_P(AllreduceRecDoubling, MatchesExpectedReduction) {
  const int p = GetParam();
  Comm::run(p, [&](Comm& c) {
    EXPECT_EQ(c.allreduceRecDoubling(c.rank() + 1, Sum{}), p * (p + 1) / 2);
    EXPECT_EQ(c.allreduceRecDoubling(c.rank(), Max{}), p - 1);
    EXPECT_EQ(c.allreduceRecDoubling(c.rank(), Min{}), 0);
    EXPECT_DOUBLE_EQ(c.allreduceRecDoubling(2.0, Prod{}),
                     static_cast<double>(1 << p));
    // And it interleaves cleanly with the auto-selected algorithm.
    EXPECT_EQ(c.allreduce(1, Sum{}), p);
  });
}

INSTANTIATE_TEST_SUITE_P(TeamSizes, AllreduceRecDoubling,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 9, 16));

// ---------------------------------------------------------------------------
// Shared collective sequence across copied Comm handles (regression)
// ---------------------------------------------------------------------------

TEST(TransportCollSeq, CopiedCommInterleavedCollectivesStayConsistent) {
  // Regression for per-handle collective sequence numbers: ranks route their
  // collectives through *different* handles (even ranks switch to a copy,
  // odd ranks keep the original).  With per-copy counters the tag streams
  // desynchronize and the team deadlocks; the sequence lives in the shared
  // CommState, so any interleaving must agree.
  Comm::run(4, [&](Comm& c) {
    Comm copy = c;  // taken before any collective
    EXPECT_EQ(c.allreduce(1, Sum{}), 4);
    if (c.rank() % 2 == 0) {
      EXPECT_EQ(copy.allreduce(2, Sum{}), 8);
      EXPECT_EQ(copy.bcast(c.rank() == 0 ? 99 : 0, 0), 99);
    } else {
      EXPECT_EQ(c.allreduce(2, Sum{}), 8);
      EXPECT_EQ(c.bcast(0, 0), 99);
    }
    // And once more through mixed handles in the same call chain.
    Comm copy2 = copy;
    EXPECT_EQ(copy2.allreduce(c.rank(), Max{}), 3);
    EXPECT_EQ(c.allreduce(c.rank(), Min{}), 0);
  });
}

// ---------------------------------------------------------------------------
// Bounded waits: recvTimeout / tryRecv / channel timeout
// ---------------------------------------------------------------------------

TEST(TransportTimeout, RecvTimeoutThrowsWhenNoMessage) {
  Comm::run(2, [&](Comm& c) {
    if (c.rank() == 0) {
      const auto t0 = std::chrono::steady_clock::now();
      EXPECT_THROW((void)c.recvTimeout(1, 3, std::chrono::milliseconds(20)),
                   CommError);
      const auto elapsed = std::chrono::steady_clock::now() - t0;
      EXPECT_GE(elapsed, std::chrono::milliseconds(18));
    }
    c.barrier();
  });
}

TEST(TransportTimeout, RecvTimeoutDeliversWhenMessageArrives) {
  Comm::run(2, [&](Comm& c) {
    if (c.rank() == 0) {
      Message m = c.recvTimeout(1, 3, std::chrono::seconds(30));
      int v = 0;
      m.payload.readBytes(&v, sizeof v);
      EXPECT_EQ(v, 77);
    } else {
      c.sendValue(0, 3, 77);
    }
  });
}

TEST(TransportTimeout, RecvTimeoutRejectsNonPositiveTimeouts) {
  Comm::run(1, [&](Comm& c) {
    EXPECT_THROW((void)c.recvTimeout(0, 0, std::chrono::nanoseconds(0)),
                 CommError);
    EXPECT_THROW((void)c.recvTimeout(0, 0, std::chrono::nanoseconds(-5)),
                 CommError);
  });
}

TEST(TransportTimeout, TryRecvEmptyAndNonEmpty) {
  Comm::run(2, [&](Comm& c) {
    if (c.rank() == 1) {
      EXPECT_FALSE(c.tryRecv().has_value());
      c.barrier();  // rank 0 sends before entering the barrier
      c.barrier();
      auto m = c.tryRecv(0, 9);
      ASSERT_TRUE(m.has_value());
      int v = 0;
      m->payload.readBytes(&v, sizeof v);
      EXPECT_EQ(v, 5);
      EXPECT_FALSE(c.tryRecv().has_value());
    } else {
      c.barrier();
      c.sendValue(1, 9, 5);
      c.barrier();
    }
  });
}

TEST(TransportTimeout, CouplingChannelTakeTimesOut) {
  collective::CouplingChannel chan(2, 2);
  chan.setTimeout(std::chrono::milliseconds(20));
  EXPECT_THROW((void)chan.take(0, 1), CommError);
  // A queued payload is still returned fine afterwards.
  std::vector<double> v{1.0, 2.0};
  chan.put(1, 0, Buffer(std::as_bytes(std::span<const double>(v))));
  Buffer b = chan.take(0, 1);
  EXPECT_EQ(b.size(), 2 * sizeof(double));
}

// ---------------------------------------------------------------------------
// Zero-copy broadcast: O(1) payload allocations for the whole team
// ---------------------------------------------------------------------------

TEST(TransportZeroCopy, BcastLargePayloadIsSingleAllocation) {
  constexpr std::size_t kBytes = 1 << 20;  // 1 MiB
  Comm::run(8, [&](Comm& c) {
    std::vector<std::byte> src(kBytes, std::byte{9});
    Buffer b;
    if (c.rank() == 0) b = Buffer(std::span<const std::byte>(src));
    c.barrier();
    if (c.rank() == 0) BufferStats::reset();
    c.barrier();
    b = c.bcastBytes(std::move(b), 0);
    c.barrier();
    if (c.rank() == 0) {
      // The fan-out forwards the root's frozen payload by reference; no rank
      // may deep-copy the megabyte.
      EXPECT_EQ(BufferStats::bytesDeepCopied(), 0u);
      EXPECT_EQ(BufferStats::deepCopies(), 0u);
    }
    c.barrier();
    ASSERT_EQ(b.size(), kBytes);
    EXPECT_TRUE(b.isShared());
    std::byte probe{};
    b.rewind();
    b.readBytes(&probe, 1);
    EXPECT_EQ(probe, std::byte{9});
  });
}

TEST(TransportZeroCopy, WriteAfterShareDetaches) {
  // 128 B: above Buffer::kInlineCapacity, so share() actually freezes the
  // payload into refcounted storage (small payloads stay inline instead).
  std::vector<std::byte> src(128, std::byte{1});
  Buffer a{std::span<const std::byte>{src}};
  a.share();
  ASSERT_TRUE(a.isShared());
  Buffer b = a;  // refcount bump, no copy
  BufferStats::reset();
  b.writeBytes(src.data(), 8);  // must detach b, leaving a intact
  EXPECT_EQ(BufferStats::deepCopies(), 1u);
  EXPECT_EQ(a.size(), 128u);
  EXPECT_EQ(b.size(), 136u);
}

TEST(TransportZeroCopy, InlinePayloadsNeverCountAsDeepCopies) {
  // Payloads at or below the inline threshold never touch the allocator:
  // share() is a no-op, copies duplicate the inline bytes, and none of it
  // may pollute the deep-copy counters the zero-copy assertions gate on.
  std::vector<std::byte> src(Buffer::kInlineCapacity, std::byte{3});
  BufferStats::reset();
  Buffer a{std::span<const std::byte>{src}};
  a.share();
  EXPECT_FALSE(a.isShared());
  EXPECT_TRUE(a.isInline());
  Buffer b = a;  // inline copy: cheap, allocator-free, uncounted
  Buffer c;
  c = b;
  c.writeBytes(src.data(), 0);  // no-op write on an inline buffer
  EXPECT_EQ(BufferStats::deepCopies(), 0u);
  EXPECT_EQ(BufferStats::bytesDeepCopied(), 0u);
  EXPECT_EQ(b.size(), Buffer::kInlineCapacity);
  EXPECT_TRUE(b == a);
  // Growing past the threshold spills to the heap (a residence change, not
  // a buffer-to-buffer copy — still not a deep copy).
  c.writeBytes(src.data(), 8);
  EXPECT_FALSE(c.isInline());
  EXPECT_EQ(c.size(), Buffer::kInlineCapacity + 8);
  EXPECT_EQ(BufferStats::deepCopies(), 0u);
  // A heap-owned copy is the real thing and is counted.
  Buffer d = c;
  EXPECT_EQ(BufferStats::deepCopies(), 1u);
  EXPECT_EQ(BufferStats::bytesDeepCopied(), Buffer::kInlineCapacity + 8);
}

// ---------------------------------------------------------------------------
// M×N stress: 8x5 <-> 5x8 threaded redistribution round trip
// ---------------------------------------------------------------------------

namespace {

void runThreadedExchange(collective::MxNRedistributor<double>& redist,
                         const dist::Distribution& src,
                         const dist::Distribution& dst,
                         std::vector<std::vector<double>>& in,
                         std::vector<std::vector<double>>& out,
                         int rounds) {
  std::vector<std::thread> team;
  team.reserve(static_cast<std::size_t>(src.ranks() + dst.ranks()));
  for (int r = 0; r < src.ranks(); ++r)
    team.emplace_back([&, r] {
      for (int k = 0; k < rounds; ++k)
        redist.push(r, std::span<const double>(in[static_cast<std::size_t>(r)]));
    });
  for (int r = 0; r < dst.ranks(); ++r)
    team.emplace_back([&, r] {
      for (int k = 0; k < rounds; ++k)
        redist.pull(r, std::span<double>(out[static_cast<std::size_t>(r)]));
    });
  for (auto& t : team) t.join();
}

}  // namespace

TEST(TransportMxN, Stress8x5And5x8RoundTrip) {
  constexpr std::size_t kN = 40007;  // deliberately not divisible by 5 or 8
  constexpr int kRounds = 25;
  const auto d8 = dist::Distribution::block(kN, 8);
  const auto d5 = dist::Distribution::cyclic(kN, 5);

  auto fwdPlan = std::make_shared<const collective::RedistSchedule>(
      collective::RedistSchedule::build(d8, d5));
  auto bwdPlan = std::make_shared<const collective::RedistSchedule>(
      collective::RedistSchedule::build(d5, d8));
  auto fwdChan = std::make_shared<collective::CouplingChannel>(8, 5);
  auto bwdChan = std::make_shared<collective::CouplingChannel>(5, 8);
  collective::MxNRedistributor<double> fwd(fwdChan, fwdPlan);
  collective::MxNRedistributor<double> bwd(bwdChan, bwdPlan);

  // Global array: value at global index i is i.
  std::vector<std::vector<double>> src8(8), mid5(5), back8(8);
  for (int r = 0; r < 8; ++r) {
    src8[static_cast<std::size_t>(r)].resize(d8.localSize(r));
    back8[static_cast<std::size_t>(r)].assign(d8.localSize(r), -1.0);
    for (std::size_t j = 0; j < d8.localSize(r); ++j)
      src8[static_cast<std::size_t>(r)][j] =
          static_cast<double>(d8.globalIndexOf(r, j));
  }
  for (int r = 0; r < 5; ++r)
    mid5[static_cast<std::size_t>(r)].assign(d5.localSize(r), 0.0);

  runThreadedExchange(fwd, d8, d5, src8, mid5, kRounds);
  // Every intermediate block must hold its own global indices.
  for (int r = 0; r < 5; ++r)
    for (std::size_t j = 0; j < d5.localSize(r); ++j)
      ASSERT_EQ(mid5[static_cast<std::size_t>(r)][j],
                static_cast<double>(d5.globalIndexOf(r, j)))
          << "rank " << r << " index " << j;

  runThreadedExchange(bwd, d5, d8, mid5, back8, kRounds);
  for (int r = 0; r < 8; ++r)
    ASSERT_EQ(back8[static_cast<std::size_t>(r)], src8[static_cast<std::size_t>(r)])
        << "round trip mismatch on rank " << r;
}

TEST(TransportMxN, IdentityFastPathSharesPayload) {
  // Matched block(4)->block(4): every segment is a single contiguous run per
  // pair, so push must take the single-segment fast path (one Buffer per
  // message, no per-element repacking).
  constexpr std::size_t kN = 1 << 16;
  const auto d = dist::Distribution::block(kN, 4);
  auto plan = std::make_shared<const collective::RedistSchedule>(
      collective::RedistSchedule::build(d, d));
  EXPECT_TRUE(plan->isIdentity());
  auto chan = std::make_shared<collective::CouplingChannel>(4, 4);
  collective::MxNRedistributor<double> redist(chan, plan);

  std::vector<std::vector<double>> in(4), out(4);
  for (int r = 0; r < 4; ++r) {
    in[static_cast<std::size_t>(r)].assign(d.localSize(r),
                                           static_cast<double>(r));
    out[static_cast<std::size_t>(r)].assign(d.localSize(r), -1.0);
  }
  for (int r = 0; r < 4; ++r)
    redist.push(r, std::span<const double>(in[static_cast<std::size_t>(r)]));
  for (int r = 0; r < 4; ++r)
    redist.pull(r, std::span<double>(out[static_cast<std::size_t>(r)]));
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(out[static_cast<std::size_t>(r)], in[static_cast<std::size_t>(r)]);
}

TEST(TransportMxN, ChannelBoundsChecked) {
  collective::CouplingChannel chan(3, 2);
  std::vector<double> v{1.0};
  const auto bytes = std::as_bytes(std::span<const double>(v));
  EXPECT_THROW(chan.put(3, 0, Buffer(bytes)), dist::DistError);
  EXPECT_THROW(chan.put(-1, 0, Buffer(bytes)), dist::DistError);
  EXPECT_THROW(chan.put(0, 2, Buffer(bytes)), dist::DistError);
  EXPECT_THROW((void)chan.take(2, 0), dist::DistError);
}

// ---------------------------------------------------------------------------
// Adaptive collectives: eager/rendezvous crossover
// ---------------------------------------------------------------------------

namespace {

template <std::size_t K>
using Arr = std::array<double, K>;

template <std::size_t K>
struct ArrSum {
  Arr<K> operator()(const Arr<K>& a, const Arr<K>& b) const {
    Arr<K> out;
    for (std::size_t i = 0; i < K; ++i) out[i] = a[i] + b[i];
    return out;
  }
};

// Per-rank value made of small integers, so every sum below is exactly
// representable in a double — the eager/tree algorithm choice (different
// combining orders) cannot change the bits, and any difference is a bug.
template <std::size_t K>
Arr<K> valueFor(int rank) {
  Arr<K> v{};
  for (std::size_t i = 0; i < K; ++i)
    v[i] = static_cast<double>(rank * 100 + static_cast<int>(i));
  return v;
}

// One crossover probe at payload size K*8 bytes: allreduce, bcast (nonzero
// root), allgather, barrier — each checked against the locally computed
// truth on every rank.
template <std::size_t K>
void crossoverBody(Comm& c) {
  const int p = c.size();
  const Arr<K> mine = valueFor<K>(c.rank());
  const Arr<K> summed = c.allreduce(mine, ArrSum<K>{});
  for (std::size_t i = 0; i < K; ++i) {
    double want = 0;
    for (int r = 0; r < p; ++r)
      want += static_cast<double>(r * 100 + static_cast<int>(i));
    if (summed[i] != want)
      throw std::runtime_error("allreduce mismatch at K=" + std::to_string(K));
  }
  const int root = p > 1 ? 1 : 0;
  const Arr<K> bc = c.bcast(c.rank() == root ? valueFor<K>(root) : Arr<K>{}, root);
  if (bc != valueFor<K>(root))
    throw std::runtime_error("bcast mismatch at K=" + std::to_string(K));
  const auto all = c.allgather(mine);
  if (all.size() != static_cast<std::size_t>(p))
    throw std::runtime_error("allgather size mismatch at K=" + std::to_string(K));
  for (int r = 0; r < p; ++r)
    if (all[static_cast<std::size_t>(r)] != valueFor<K>(r))
      throw std::runtime_error("allgather mismatch at K=" + std::to_string(K));
  c.barrier();
}

}  // namespace

TEST(TransportCrossover, CollectivesAgreeBelowAtAndAboveCutoff) {
  // Payload sizes 8 B (below the default 64 B cutoff), 64 B (exactly at
  // it), and 128 B (above it): the answers must be identical whichever
  // side of the eager/rendezvous split each size lands on — at 2, 3
  // (non-power-of-two), and 16 ranks, under both execution models.
  for (const int p : {2, 3, 16}) {
    for (const auto exec : {ExecKind::Thread, ExecKind::Fiber}) {
      RunOptions opts;
      opts.exec = exec;
      Comm::run(
          p,
          [](Comm& c) {
            crossoverBody<1>(c);
            crossoverBody<8>(c);
            crossoverBody<16>(c);
          },
          opts);
    }
  }
}

TEST(TransportCrossover, CutoffIsRuntimeTunable) {
  // Pin the algorithm family from RunOptions: cutoff 0 forces the log-P
  // trees for everything, 4096 forces the flat eager forms for everything;
  // both must agree with the default split.
  for (const std::size_t cutoff : {std::size_t{0}, std::size_t{4096}}) {
    RunOptions opts;
    opts.eagerCutoffBytes = cutoff;
    Comm::run(
        3,
        [](Comm& c) {
          crossoverBody<1>(c);
          crossoverBody<8>(c);
          crossoverBody<16>(c);
        },
        opts);
  }
}

TEST(TransportCrossover, SplitChildrenInheritTheCutoff) {
  // A split() child must keep the parent's eager cutoff: with the trees
  // forced (cutoff 0), the child team's collectives still agree with the
  // locally computed truth.
  for (const std::size_t cutoff : {std::size_t{0}, std::size_t{4096}}) {
    RunOptions opts;
    opts.eagerCutoffBytes = cutoff;
    Comm::run(
        4,
        [](Comm& c) {
          Comm half = c.split(c.rank() % 2, c.rank());
          crossoverBody<1>(half);
          crossoverBody<16>(half);
        },
        opts);
  }
}

// ---------------------------------------------------------------------------
// Parking: a thread-mode flood of tiny collectives must never stall.  Every
// allreduce parks and wakes each rank several times, so a lost wakeup in
// the parking protocol shows up within a few hundred thousand iterations.
// A watchdog shuts the communicator down after 5 s without progress: a
// stall fails the test with CommError{Shutdown} instead of hanging ctest.
// ---------------------------------------------------------------------------

class TransportPark : public ::testing::TestWithParam<int> {};

TEST_P(TransportPark, AllreduceFloodNeverStalls) {
#ifdef NDEBUG
  // The flood that stalled the claimed-doorbell protocol in 30 of 30 runs
  // (10 each at 3, 4 and 8 ranks), always within its first 450k allreduces.
  constexpr int kIters = 200'000;
  constexpr int kRepeats = 3;
#else
  // Unoptimized builds (the Debug sanitizer and coverage jobs) are 10-30x
  // slower per allreduce; a tenth of the flood keeps the race detectors on
  // the parking protocol within the per-test timeout.
  constexpr int kIters = 60'000;
  constexpr int kRepeats = 1;
#endif
  constexpr auto kStallLimit = std::chrono::seconds{5};
  const int ranks = GetParam();
  for (int rep = 0; rep < kRepeats; ++rep) {
    std::atomic<long> progress{0};
    std::atomic<bool> finished{false};
    std::mutex handleMx;
    std::optional<Comm> handle;  // captured by rank 0 for the watchdog
    bool stalled = false;
    std::thread watchdog([&] {
      long last = -1;
      auto lastMove = std::chrono::steady_clock::now();
      while (!finished.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds{20});
        const long now = progress.load(std::memory_order_relaxed);
        if (now != last) {
          last = now;
          lastMove = std::chrono::steady_clock::now();
        } else if (std::chrono::steady_clock::now() - lastMove > kStallLimit) {
          std::lock_guard lk(handleMx);
          if (handle) {
            stalled = true;
            handle->shutdown();
          }
          return;
        }
      }
    });
    try {
      Comm::run(ranks, [&](Comm& c) {
        if (c.rank() == 0) {
          std::lock_guard lk(handleMx);
          handle = c;
        }
        for (int i = 0; i < kIters; ++i) {
          ASSERT_EQ(c.allreduce(1, Sum{}), ranks);
          if (c.rank() == 0) progress.fetch_add(1, std::memory_order_relaxed);
        }
      });
    } catch (const CommError& e) {
      ADD_FAILURE() << "repeat " << rep << " at " << ranks << " ranks: "
                    << e.what();
    }
    finished.store(true, std::memory_order_release);
    watchdog.join();
    {
      std::lock_guard lk(handleMx);
      handle.reset();
    }
    ASSERT_FALSE(stalled) << "no progress for 5 s after "
                          << progress.load() << " allreduces (repeat " << rep
                          << ", " << ranks << " ranks)";
  }
}

INSTANTIATE_TEST_SUITE_P(, TransportPark, ::testing::Values(3, 4, 8),
                         ::testing::PrintToStringParamName());
