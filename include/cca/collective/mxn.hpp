#pragma once
// Collective (M×N) port machinery — the paper's §6.3 extension: "a small but
// powerful extension of the basic CCA Ports model to handle interactions
// among parallel components".  An M-rank component and an N-rank component
// exchange a distributed payload through a CouplingChannel according to a
// RedistSchedule; the serial↔parallel cases (M=1 or N=1) degenerate to the
// broadcast/gather/scatter semantics the paper describes.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>

#include "cca/collective/schedule.hpp"
#include "cca/fiber/park.hpp"
#include "cca/rt/archive.hpp"
#include "cca/rt/buffer.hpp"
#include "cca/rt/comm.hpp"
#include "cca/testing/hooks.hpp"

namespace cca::collective {

/// The "wire" between the ranks of two coupled parallel components.  Both
/// component teams live in one process (threads), so the channel is a dense
/// srcRanks × dstRanks × 2 array of independent FIFO slots — one per
/// (direction, source rank, destination rank) pair, each with its own mutex
/// and fiber::EventCount.  A slot has exactly one producer and one consumer
/// rank, so a push wakes at most its one consumer and never contends with
/// traffic between any other rank pair (the previous design
/// serialized every pair through one global lock, one std::map lookup, and a
/// notify_all broadcast).  On a distributed machine the identical call
/// pattern would map onto inter-communicator sends.
class CouplingChannel {
 public:
  CouplingChannel(int srcRanks, int dstRanks)
      : srcRanks_(srcRanks), dstRanks_(dstRanks) {
    if (srcRanks <= 0 || dstRanks <= 0)
      throw dist::DistError("coupling channel needs positive rank counts");
    slots_ = std::make_unique<Slot[]>(static_cast<std::size_t>(srcRanks) *
                                      static_cast<std::size_t>(dstRanks) * 2);
  }

  [[nodiscard]] int srcRanks() const noexcept { return srcRanks_; }
  [[nodiscard]] int dstRanks() const noexcept { return dstRanks_; }

  /// Bound every subsequent take()/takeBack() wait: instead of hanging
  /// forever on a message that will never arrive, the consumer gets a
  /// rt::CommError once `timeout` elapses.  Zero (the default) waits
  /// forever.  May be called at any time, from any thread.
  void setTimeout(std::chrono::nanoseconds timeout) noexcept {
    timeoutNs_.store(timeout.count(), std::memory_order_relaxed);
  }

  /// Forward direction: source rank → destination rank.
  void put(int srcRank, int dstRank, rt::Buffer payload) {
    testing::schedulePoint(testing::SchedOp::ChannelPut, dstRank, srcRank);
    push(slot(0, srcRank, dstRank), std::move(payload),
         testing::SchedPoint{testing::SchedOp::ChannelPut, dstRank, srcRank});
  }
  [[nodiscard]] rt::Buffer take(int dstRank, int srcRank) {
    return pop(slot(0, srcRank, dstRank), 0, srcRank, dstRank);
  }

  /// Fused producer entry for the forward direction: `pack(buffer)` fills
  /// the payload directly into the slot's recycled staging buffer, and the
  /// enqueue happens in the same critical section — one lock pass and one
  /// Buffer move per message, versus three lock passes and four 128-byte
  /// Buffer moves for a build-then-put() sequence.  The staging buffer's
  /// heap capacity survives clear(), so a steady-state exchange never
  /// touches the allocator.  Packing under the slot mutex is safe: the
  /// single consumer cannot make progress until the payload is queued
  /// anyway, and pack() never takes another lock or parks.
  template <class PackFn>
  void putPacked(int srcRank, int dstRank, PackFn&& pack) {
    testing::schedulePoint(testing::SchedOp::ChannelPut, dstRank, srcRank);
    Slot& sl = slot(0, srcRank, dstRank);
    {
      std::lock_guard lk(sl.mx);
      sl.spare.clear();
      pack(sl.spare);
      sl.q.push_back(std::move(sl.spare));
    }
    sl.bell.notify(
        testing::SchedPoint{testing::SchedOp::ChannelPut, dstRank, srcRank});
  }

  /// Fused consumer mirror of putPacked(): once the slot is non-empty,
  /// `unpack(buffer)` consumes the payload under the slot mutex and the
  /// spent buffer is parked as the slot's staging spare for the next
  /// putPacked() — one lock pass, no malloc/free, and no Buffer moves out
  /// of the channel.  Timeout and blocking semantics are exactly take()'s.
  template <class UnpackFn>
  void takeUnpacked(int dstRank, int srcRank, UnpackFn&& unpack) {
    withLockedNonEmpty(slot(0, srcRank, dstRank), 0, srcRank, dstRank,
                       [&](Slot& s) {
                         rt::Buffer b = takeFront(s);
                         unpack(b);
                         s.spare = std::move(b);
                       });
  }

  /// Reverse direction: destination rank → source rank (pull requests,
  /// acknowledgements, steering messages flowing upstream).
  void putBack(int dstRank, int srcRank, rt::Buffer payload) {
    testing::schedulePoint(testing::SchedOp::ChannelPut, srcRank, dstRank);
    push(slot(1, srcRank, dstRank), std::move(payload),
         testing::SchedPoint{testing::SchedOp::ChannelPut, srcRank, dstRank});
  }
  [[nodiscard]] rt::Buffer takeBack(int srcRank, int dstRank) {
    return pop(slot(1, srcRank, dstRank), 1, srcRank, dstRank);
  }

 private:
  struct Slot {
    std::mutex mx;
    // The slot's one consumer parks here.
    fiber::EventCount bell{fiber::EventCount::Spin::Yes};
    // FIFO as a vector with a head cursor (live region [head, q.size())):
    // steady-state put/take reuses one warm allocation instead of churning
    // deque chunks; the consumed prefix is compacted once it dominates.
    std::vector<rt::Buffer> q;
    std::size_t head = 0;
    // Recycled staging buffer (see takeSpare/recycle): keeps one warm
    // payload-sized heap block per forward slot so repeated exchanges
    // don't churn the allocator.
    rt::Buffer spare;
  };

  static bool slotEmpty(const Slot& sl) noexcept {  // caller holds sl.mx
    return sl.head == sl.q.size();
  }

  Slot& slot(int dir, int srcRank, int dstRank) {
    if (srcRank < 0 || srcRank >= srcRanks_ || dstRank < 0 || dstRank >= dstRanks_)
      throw dist::DistError("coupling channel: rank out of range");
    return slots_[(static_cast<std::size_t>(dir) * static_cast<std::size_t>(srcRanks_) +
                   static_cast<std::size_t>(srcRank)) *
                      static_cast<std::size_t>(dstRanks_) +
                  static_cast<std::size_t>(dstRank)];
  }

  static rt::CommError starvedError(int dir, int srcRank, int dstRank,
                                    std::int64_t elapsedNs) {
    // Spell out which (direction, src, dst) slot starved and for how long,
    // so a CI timeout in an MxN stress test is diagnosable from the log.
    const auto ms = elapsedNs / 1'000'000;
    return rt::CommError(
        rt::CommErrorKind::Timeout,
        std::string("coupling channel: ") +
            (dir == 0 ? "take(dst=" + std::to_string(dstRank) +
                            " <- src=" + std::to_string(srcRank) + ")"
                      : "takeBack(src=" + std::to_string(srcRank) +
                            " <- dst=" + std::to_string(dstRank) + ")") +
            " timed out after " + std::to_string(ms) + " ms",
        // Same taxonomy as Comm/SocketWire errors: callers branch on the
        // typed lane, not the message text.  dir 0 flows src -> dst; the
        // takeBack direction reverses the lane.
        dir == 0 ? rt::WireContext{"coupling", srcRank, dstRank, dir}
                 : rt::WireContext{"coupling", dstRank, srcRank, dir});
  }

  // By-ref payload: a Buffer is a 128-byte object (inline payload storage),
  // so every by-value hop is a real copy on the per-message path.
  static void push(Slot& sl, rt::Buffer&& b, const testing::SchedPoint& p) {
    {
      std::lock_guard lk(sl.mx);
      sl.q.push_back(std::move(b));
    }
    sl.bell.notify(p);
  }

  static rt::Buffer takeFront(Slot& sl) {  // caller holds sl.mx
    rt::Buffer b = std::move(sl.q[sl.head]);
    ++sl.head;
    if (sl.head == sl.q.size()) {
      sl.q.clear();  // keeps capacity
      sl.head = 0;
    } else if (sl.head >= 256 && sl.head * 2 >= sl.q.size()) {
      sl.q.erase(sl.q.begin(), sl.q.begin() + static_cast<std::ptrdiff_t>(sl.head));
      sl.head = 0;
    }
    return b;
  }

  /// Consumer wait: runs `fn(sl)` under sl.mx as soon as the slot is
  /// non-empty, parking on the slot's event count meanwhile.  Honors the
  /// channel timeout (virtual time under a schedule controller).
  template <class Fn>
  void withLockedNonEmpty(Slot& sl, int dir, int srcRank, int dstRank,
                          Fn&& fn) {
    const auto ns = timeoutNs_.load(std::memory_order_relaxed);
    const bool took = sl.bell.await(
        testing::SchedPoint{testing::SchedOp::ChannelTake,
                            dir == 0 ? srcRank : dstRank, dir},
        [&] {
          std::lock_guard lk(sl.mx);
          if (slotEmpty(sl)) return false;
          fn(sl);
          return true;
        },
        ns > 0 ? ns : -1);
    if (!took) throw starvedError(dir, srcRank, dstRank, ns);
  }

  rt::Buffer pop(Slot& sl, int dir, int srcRank, int dstRank) {
    rt::Buffer b;
    withLockedNonEmpty(sl, dir, srcRank, dstRank,
                       [&b](Slot& s) { b = takeFront(s); });
    return b;
  }

  int srcRanks_;
  int dstRanks_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::int64_t> timeoutNs_{0};
};

/// Executes a redistribution plan.  Every source rank calls push() with its
/// local shard; every destination rank calls pull() into its local shard.
/// The schedule may be cached across calls (the common case) or rebuilt per
/// call — the ablation benchmark compares both.
///
/// Single-segment transfers (notably the identity plan of the paper's "most
/// common case [where] data would not need redistribution") take a fast
/// path: the whole shard moves with one exact-size memcpy into the channel
/// buffer on push and one memcpy out on pull, skipping the per-segment
/// pack/unpack loop entirely.
///
/// The coupling mode is the M×N face of the eager/rendezvous split:
///
///  - Staged (default): push() snapshots the shard into a channel buffer —
///    the eager contract.  The source array is free the moment push()
///    returns; every element is copied twice (pack + unpack).
///  - Borrowed: push() enqueues only a *view* of the shard (a 16-byte
///    inline descriptor — no payload copy, no allocation) and pull() moves
///    each element once, straight from the source shard into the
///    destination shard.  This is the rendezvous contract, the CCA
///    "borrowed array" idiom: the source shard must stay valid and
///    unmodified until the matching pull() returns, and both sides must
///    share an address space (the descriptor is a raw pointer, so a
///    borrowed exchange cannot cross a wire transport).
template <typename T>
class MxNRedistributor {
 public:
  enum class CouplingMode { Staged, Borrowed };

  MxNRedistributor(std::shared_ptr<CouplingChannel> channel,
                   std::shared_ptr<const RedistSchedule> schedule,
                   CouplingMode mode = CouplingMode::Staged)
      : channel_(std::move(channel)),
        schedule_(std::move(schedule)),
        mode_(mode) {
    if (channel_->srcRanks() != schedule_->srcRanks() ||
        channel_->dstRanks() != schedule_->dstRanks())
      throw dist::DistError("coupling channel and schedule disagree on rank counts");
  }

  [[nodiscard]] CouplingMode mode() const noexcept { return mode_; }

  /// Source side (collective over the M source ranks).  Packing is driven
  /// by the cell's precompiled plan: contiguous cells move with one memcpy,
  /// the block↔cyclic lattice (Strided) runs a tight gather loop writing
  /// straight into the payload via Buffer::extend — and when the *source*
  /// stride equals the segment length (cyclic→block), collapses to a single
  /// memcpy too.  Only irregular cells walk the segment vector.
  void push(int srcRank, std::span<const T> local) {
    if (mode_ == CouplingMode::Borrowed) {
      // Rendezvous: publish a view of the shard; pull() does the one and
      // only copy.  The descriptor fits the Buffer's inline storage, so a
      // borrowed push never allocates and never touches the payload.
      const T* base = local.data();
      const std::size_t nloc = local.size();
      for (int d : schedule_->destinationsOf(srcRank)) {
        channel_->putPacked(srcRank, d, [&](rt::Buffer& b) {
          b.writeBytes(&base, sizeof(base));
          b.writeBytes(&nloc, sizeof(nloc));
        });
      }
      return;
    }
    for (int d : schedule_->destinationsOf(srcRank)) {
      const CellPlan& pl = schedule_->plan(srcRank, d);
      // Fused pack-and-enqueue: the payload is built directly in the
      // channel slot's recycled staging buffer (warm heap capacity, no
      // allocator traffic) and queued in the same critical section.
      channel_->putPacked(srcRank, d, [&](rt::Buffer& b) {
        switch (pl.kind) {
          case PackKind::Contiguous: {
            if (pl.srcStart + pl.elements > local.size())
              throw dist::DistError("push: local shard smaller than schedule expects");
            // writeBytes, not extend: insert copies straight from the shard,
            // while extend's resize() would zero-fill the payload first and
            // double the write traffic for a pure memcpy cell.
            const auto bytes =
                std::as_bytes(local.subspan(pl.srcStart, pl.elements));
            b.writeBytes(bytes.data(), bytes.size());
            break;
          }
          case PackKind::Strided: {
            if (pl.srcStart + (pl.count - 1) * pl.srcStride + pl.segLength >
                local.size())
              throw dist::DistError("push: local shard smaller than schedule expects");
            // extend() returns the payload start of a fresh buffer: offset 0
            // in 16-aligned storage, safe to view as T.
            auto* out = reinterpret_cast<T*>(b.extend(pl.elements * sizeof(T)));
            const T* in = local.data() + pl.srcStart;
            if (pl.srcStride == pl.segLength) {
              std::memcpy(out, in, pl.elements * sizeof(T));
            } else if (pl.segLength == 1) {
              const std::size_t st = pl.srcStride;
              for (std::size_t k = 0; k < pl.count; ++k) out[k] = in[k * st];
            } else {
              for (std::size_t k = 0; k < pl.count; ++k)
                std::memcpy(out + k * pl.segLength, in + k * pl.srcStride,
                            pl.segLength * sizeof(T));
            }
            break;
          }
          case PackKind::Generic: {
            b.reserve(pl.elements * sizeof(T));
            for (const auto& s : schedule_->segments(srcRank, d)) {
              if (s.srcOffset + s.length > local.size())
                throw dist::DistError("push: local shard smaller than schedule expects");
              b.writeBytes(local.data() + s.srcOffset, s.length * sizeof(T));
            }
            break;
          }
        }
      });
    }
  }

  /// Destination side (collective over the N destination ranks).  The
  /// unpack mirrors push(): contiguous cells are one readBytes, Strided
  /// cells scatter from an in-place view of the payload (Buffer::readRegion,
  /// no staging copy) — and when the *destination* stride equals the segment
  /// length (block→cyclic), collapse to a single memcpy.
  void pull(int dstRank, std::span<T> local) {
    if (mode_ == CouplingMode::Borrowed) {
      for (int s : schedule_->sourcesOf(dstRank)) {
        const CellPlan& pl = schedule_->plan(s, dstRank);
        channel_->takeUnpacked(dstRank, s, [&](rt::Buffer& b) {
          const T* base = nullptr;
          std::size_t nloc = 0;
          b.readBytes(&base, sizeof(base));
          b.readBytes(&nloc, sizeof(nloc));
          scatterBorrowed(pl, s, dstRank, {base, nloc}, local);
        });
      }
      return;
    }
    for (int s : schedule_->sourcesOf(dstRank)) {
      const CellPlan& pl = schedule_->plan(s, dstRank);
      // Fused take-and-unpack: the payload is consumed in place inside the
      // channel slot and the spent buffer parks there as the staging spare
      // for the next push — one lock pass, no allocator traffic.
      channel_->takeUnpacked(dstRank, s, [&](rt::Buffer& b) {
        switch (pl.kind) {
          case PackKind::Contiguous: {
            if (pl.dstStart + pl.elements > local.size())
              throw dist::DistError("pull: local shard smaller than schedule expects");
            b.readBytes(local.data() + pl.dstStart, pl.elements * sizeof(T));
            break;
          }
          case PackKind::Strided: {
            if (pl.dstStart + (pl.count - 1) * pl.dstStride + pl.segLength >
                local.size())
              throw dist::DistError("pull: local shard smaller than schedule expects");
            // A coupling payload is consumed from offset 0 of 16-aligned
            // storage, so the in-place view is safe to read as T.
            const T* in = reinterpret_cast<const T*>(
                b.readRegion(pl.elements * sizeof(T)));
            T* out = local.data() + pl.dstStart;
            if (pl.dstStride == pl.segLength) {
              std::memcpy(out, in, pl.elements * sizeof(T));
            } else if (pl.segLength == 1) {
              const std::size_t st = pl.dstStride;
              for (std::size_t k = 0; k < pl.count; ++k) out[k * st] = in[k];
            } else {
              for (std::size_t k = 0; k < pl.count; ++k)
                std::memcpy(out + k * pl.dstStride, in + k * pl.segLength,
                            pl.segLength * sizeof(T));
            }
            break;
          }
          case PackKind::Generic: {
            for (const auto& seg : schedule_->segments(s, dstRank)) {
              if (seg.dstOffset + seg.length > local.size())
                throw dist::DistError("pull: local shard smaller than schedule expects");
              b.readBytes(local.data() + seg.dstOffset, seg.length * sizeof(T));
            }
            break;
          }
        }
        if (b.remaining() != 0)
          throw dist::DistError("pull: trailing bytes in coupling message");
      });
    }
  }

 private:
  /// The single data movement of a borrowed exchange: source shard →
  /// destination shard, directly, per the cell's precompiled plan.  The
  /// strided case applies *both* strides at once (a staged exchange sees
  /// only one stride per side because the other side is packed dense).
  void scatterBorrowed(const CellPlan& pl, int srcRank, int dstRank,
                       std::span<const T> src, std::span<T> dst) {
    switch (pl.kind) {
      case PackKind::Contiguous: {
        if (pl.srcStart + pl.elements > src.size() ||
            pl.dstStart + pl.elements > dst.size())
          throw dist::DistError("pull: local shard smaller than schedule expects");
        std::memcpy(dst.data() + pl.dstStart, src.data() + pl.srcStart,
                    pl.elements * sizeof(T));
        break;
      }
      case PackKind::Strided: {
        if (pl.srcStart + (pl.count - 1) * pl.srcStride + pl.segLength >
                src.size() ||
            pl.dstStart + (pl.count - 1) * pl.dstStride + pl.segLength >
                dst.size())
          throw dist::DistError("pull: local shard smaller than schedule expects");
        const T* in = src.data() + pl.srcStart;
        T* out = dst.data() + pl.dstStart;
        if (pl.segLength == 1) {
          const std::size_t si = pl.srcStride, di = pl.dstStride;
          for (std::size_t k = 0; k < pl.count; ++k) out[k * di] = in[k * si];
        } else {
          for (std::size_t k = 0; k < pl.count; ++k)
            std::memcpy(out + k * pl.dstStride, in + k * pl.srcStride,
                        pl.segLength * sizeof(T));
        }
        break;
      }
      case PackKind::Generic: {
        for (const auto& seg : schedule_->segments(srcRank, dstRank)) {
          if (seg.srcOffset + seg.length > src.size() ||
              seg.dstOffset + seg.length > dst.size())
            throw dist::DistError("pull: local shard smaller than schedule expects");
          std::memcpy(dst.data() + seg.dstOffset, src.data() + seg.srcOffset,
                      seg.length * sizeof(T));
        }
        break;
      }
    }
  }

  std::shared_ptr<CouplingChannel> channel_;
  std::shared_ptr<const RedistSchedule> schedule_;
  CouplingMode mode_ = CouplingMode::Staged;
};

}  // namespace cca::collective
