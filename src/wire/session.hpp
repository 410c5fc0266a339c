// The session layer: one Session per directed machine-to-machine link.
//
// Sits between the RMI runtime (which produces wire::Messages) and the
// transport (which moves Frames).  The session owns three link-level
// concerns the transport and the runtime should not care about:
//
//  * sequencing — every frame carries a per-link sequence number, stamped
//    here; receivers run the sequence through a DedupWindow so duplicated
//    and stale (reordered) frames are discarded instead of redelivered;
//  * batched send queues — the §3.1 ACK optimization generalized: small
//    reply/ACK messages may be held back and coalesced into one frame
//    with the next flush trigger, paying the per-message network latency
//    and GM send-descriptor cost once per *frame* instead of once per
//    message;
//  * reliability — a stop-and-wait ARQ: the sink reports whether the
//    frame was delivered (implicit ACK), timed out (lost in transit), or
//    was NACKed (the receiver's checksum rejected it); the session
//    charges the virtual retransmit timer through its report hook —
//    exponential backoff for timeouts, one control round trip for NACKs
//    — and retransmits until the frame lands or `max_retransmits` is
//    exhausted, at which point it declares the link dead with a
//    ProtocolError.
//
// Coalescing is OFF by default (max_batch_messages = 1): the paper's
// model sends every message immediately, and synchronous RMI callers
// block on their replies, so holding a reply back is only sound when the
// application keeps several calls in flight or flushes explicitly.  With
// a fault-free transport the ARQ is pure pass-through: every frame is
// delivered on the first attempt and no timer is ever charged, so the
// paper's deterministic numbers are untouched bit for bit.
//
// The session has no clock and counts and traces nothing itself: it
// reports each of its occurrences (enqueue, frame emit, retransmit, NACK)
// through one hook, which net::Cluster binds to the sending machine's
// clock and the network's reporting point.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <set>

#include "wire/framing.hpp"

namespace rmiopt::wire {

struct SessionConfig {
  // Maximum messages coalesced into one frame.  1 = transmit every
  // message immediately (paper semantics, default).
  std::size_t max_batch_messages = 1;
  // Only replies (Return/Ack/Exception) with payloads at most this large
  // are held back for coalescing; Call requests and bulky replies act as
  // flush triggers and leave in the same frame as anything queued.
  std::size_t max_batch_payload = 256;

  // ---- reliability (stop-and-wait ARQ) ------------------------------------
  // Retransmits per frame before the link is declared dead.
  std::size_t max_retransmits = 10;
  // Initial virtual retransmit timer; doubles per consecutive timeout up
  // to `max_backoff_doublings` (≈ 2 * one-way latency + dispatch slack on
  // the modelled GM network).
  std::int64_t retransmit_timeout_ns = 60'000;
  std::size_t max_backoff_doublings = 4;
  // Virtual cost of a NACK round trip (the receiver rejected a corrupted
  // frame and said so; the sender need not wait out the full timer).
  std::int64_t nack_turnaround_ns = 30'000;

  bool batching() const { return max_batch_messages > 1; }
};

// What became of one transmission attempt of a frame.  The simulated
// network is synchronous, so the acknowledgement that a real link would
// carry as a control frame is modelled as the sink's return value; the
// *cost* of waiting for it is reported by the session (ReportFn) and
// charged in virtual time to the sender.
enum class SendOutcome {
  Delivered,  // frame reached the receiver intact (implicit ACK)
  Timeout,    // frame (or its ACK) lost; sender waits out the timer
  Nacked,     // receiver rejected a corrupted frame and NACKed promptly
};

// Receives sealed frames under the session lock, so frames of one link
// reach the transport in link_seq order.  Called repeatedly with the
// *same* frame on retransmission.
using FrameSink = std::function<SendOutcome(const Frame&)>;

// Everything the network stack counts or traces, from this session down
// to the failure detector.  It is declared here, in the lowest layer that
// reports, because wire/ does not include net/; net::NetworkStats::note()
// maps each one to its counter(s) and trace event through one table
// (docs/OBSERVABILITY.md).
enum class Occurrence : std::uint8_t {
  // session (reported through ReportFn)
  Enqueue, FrameEmit, Retransmit, Nack,
  // transports
  Flight, Drop, CrashDrop, Duplicate, Reorder, Corrupt, DecodeReject,
  // receive windows
  DedupDrop, DedupLateRecovery,
  // failure detector
  Heartbeat, HeartbeatMiss, Suspected, Dead,
};

// Reports one of the session's occurrences on its link: the frame's
// link_seq (for Enqueue, the one the message will get), the virtual time
// the sender waits before retransmitting (Retransmit, Nack), which the
// hook charges to the sending machine's clock, and the message count and
// payload bytes (Enqueue: queue depth and the message's payload; FrameEmit:
// the frame's).
using ReportFn =
    std::function<void(Occurrence what, std::uint64_t link_seq,
                       std::int64_t wait_ns, std::uint32_t count,
                       std::uint64_t bytes)>;

class Session {
 public:
  // Without a `report` hook, nothing observes the session or charges waits.
  Session(std::uint16_t src, std::uint16_t dst, const SessionConfig& cfg,
          ReportFn report = nullptr)
      : src_(src),
        dst_(dst),
        cfg_(cfg),
        report_(report ? std::move(report) : ReportFn([](auto&&...) {})) {}
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Queues `msg` and emits zero or more ready frames into `sink`,
  // retransmitting each until the sink reports delivery.  With batching
  // off every post emits exactly one single-message frame.  Throws
  // ProtocolError when a frame exhausts its retransmit budget.
  void post(Message msg, const FrameSink& sink);

  // Forces any held-back messages out as one frame.
  void flush(const FrameSink& sink);

  // Messages currently held in the coalescing queue (introspection).
  std::size_t queued() const;

 private:
  bool coalescible(const Message& msg) const;
  void seal_and_emit(const FrameSink& sink);  // callers hold mu_

  const std::uint16_t src_;
  const std::uint16_t dst_;
  const SessionConfig cfg_;
  const ReportFn report_;

  mutable std::mutex mu_;
  std::uint64_t next_link_seq_ = 0;
  std::vector<Message> queue_;
};

// Receive-side companion of the session's link sequencing: a sliding
// window that classifies each arriving link_seq.  Fresh sequences are
// delivered; duplicates (an ARQ retransmit of something already received,
// or an injected duplicate) and stale sequences (a reordered copy
// arriving after the window moved past it) are discarded by the
// transport and only counted.  One instance per directed link, owned by
// the receiving machine.
//
// When the out-of-order set outgrows `capacity`, the horizon is *forced*
// forward.  A forced slide can jump over sequence-number gaps — frames
// that have not arrived yet, merely delayed.  Those skipped-over
// sequences are remembered (bounded by the same capacity) so a delayed
// frame in the gap is still classified Fresh and delivered exactly once,
// instead of being misreported as Stale and silently dropped until the
// sender's retransmit budget dies.
class DedupWindow {
 public:
  enum class Verdict { Fresh, Duplicate, Stale };

  explicit DedupWindow(std::size_t capacity = 512) : capacity_(capacity) {}

  Verdict accept(std::uint64_t seq) {
    if (seq < horizon_) {
      // Below the horizon: either this sequence was delivered (or its
      // skipped-entry expired) — genuinely stale — or the horizon was
      // forced past it before it ever arrived.  The latter is a
      // merely-delayed frame: deliver it now, exactly once.
      auto it = skipped_.find(seq);
      if (it == skipped_.end()) return Verdict::Stale;
      skipped_.erase(it);
      ++late_recoveries_;
      return Verdict::Fresh;
    }
    if (!seen_.insert(seq).second) return Verdict::Duplicate;
    // Advance the horizon over any now-contiguous prefix, then bound the
    // out-of-order set by sliding the horizon forcibly.
    while (!seen_.empty() && *seen_.begin() == horizon_) {
      seen_.erase(seen_.begin());
      ++horizon_;
    }
    while (seen_.size() > capacity_) {
      ++forced_slides_;
      const std::uint64_t next = *seen_.begin();
      // Remember the skipped-over (never-delivered) sequences in the gap,
      // keeping at most `capacity_` of the newest; anything older expires
      // and becomes permanently stale (bounded memory beats unbounded
      // recovery — the ARQ gives up on such frames anyway).
      const std::uint64_t gap = next - horizon_;
      const std::uint64_t keep = std::min<std::uint64_t>(gap, capacity_);
      skipped_expired_ += gap - keep;
      for (std::uint64_t s = next - keep; s < next; ++s) skipped_.insert(s);
      horizon_ = next + 1;
      seen_.erase(seen_.begin());
      while (skipped_.size() > capacity_) {
        skipped_.erase(skipped_.begin());
        ++skipped_expired_;
      }
    }
    return Verdict::Fresh;
  }

  // Everything below this sequence was delivered, recovered, or expired.
  std::uint64_t horizon() const { return horizon_; }

  // Times the horizon was forced past the oldest out-of-order entry.
  std::uint64_t forced_slides() const { return forced_slides_; }
  // Delayed frames below a forced horizon that were still delivered.
  std::uint64_t late_recoveries() const { return late_recoveries_; }
  // Skipped-over sequences that aged out before (re)arriving.
  std::uint64_t skipped_expired() const { return skipped_expired_; }

 private:
  const std::size_t capacity_;
  std::uint64_t horizon_ = 0;
  std::uint64_t forced_slides_ = 0;
  std::uint64_t late_recoveries_ = 0;
  std::uint64_t skipped_expired_ = 0;
  std::set<std::uint64_t> seen_;     // received seqs at/above the horizon
  std::set<std::uint64_t> skipped_;  // forced-past, never-delivered seqs
};

}  // namespace rmiopt::wire
