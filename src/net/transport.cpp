#include "net/transport.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>

#include "net/machine.hpp"
#include "support/error.hpp"
#include "support/frame_pool.hpp"

namespace rmiopt::net {

namespace {

using S = NetworkStats::Snapshot;

// Every Snapshot field, for the field-by-field sum and the atomic read.
constexpr std::uint64_t S::*kFields[] = {
    &S::messages, &S::bytes, &S::frames, &S::coalesced, &S::gathered_messages,
    &S::frame_pool_hits, &S::frame_pool_misses, &S::dropped, &S::duplicated,
    &S::reordered, &S::corrupted, &S::retransmits, &S::dedup_hits,
    &S::dedup_forced_slides, &S::dedup_late_recoveries,
    &S::dedup_skipped_expired, &S::heartbeats, &S::heartbeat_misses,
    &S::suspicions, &S::machine_deaths};
static_assert(std::size(kFields) * sizeof(std::uint64_t) == sizeof(S),
              "kFields must list every Snapshot counter");

// How much an occurrence adds to one counter (indexes note()'s amounts).
enum Amount : std::uint8_t {
  kOne,
  kCount,     // the frame's messages
  kBytes,     // the frame's charged bytes
  kBatch,     // the frame's messages when it carries more than one
  kGathered,  // the frame's scatter-gather messages
};
struct Add {
  std::uint64_t S::*counter = nullptr;  // nullptr ends the row's list
  Amount amount = kOne;
};

// Where an occurrence's event sits on the virtual time axis.
enum Stamp : std::uint8_t {
  kSender,    // instant at the sending machine's clock
  kReceiver,  // instant at the receiving machine's clock
  kRound,     // instant at `ns`, the probe round's virtual time
  kWait,      // span of `ns`, the wait that just ended on the sender
  kFlight,    // span from the sender's clock until `ns`, the arrival
};

struct Row {
  Add adds[5];
  trace::EventKind event;
  trace::TrackKind track;
  Stamp stamp;
};

using E = trace::EventKind;
constexpr trace::TrackKind kLink = trace::TrackKind::Link;
constexpr trace::TrackKind kMachine = trace::TrackKind::Machine;

// The one table: rows in Occurrence order (docs/OBSERVABILITY.md).
constexpr Row kTable[] = {
    // ---- session ----
    {{}, E::SessionEnqueue, kLink, kSender},  // Enqueue
    {{}, E::FrameEmit, kLink, kSender},       // FrameEmit
    {{{&S::retransmits}}, E::Retransmit, kLink, kWait},
    {{{&S::retransmits}}, E::NackTurnaround, kLink, kWait},  // Nack
    // ---- transports ----
    {{{&S::frames}, {&S::messages, kCount}, {&S::bytes, kBytes},
      {&S::coalesced, kBatch}, {&S::gathered_messages, kGathered}},
     E::Flight, kLink, kFlight},
    // A dropped or corrupted frame still crossed the wire: one frame and
    // its bytes, no messages.
    {{{&S::dropped}, {&S::frames}, {&S::bytes, kBytes}},
     E::FaultDrop, kLink, kSender},  // Drop
    // A crashed endpoint's frame never leaves the NIC: nothing is charged.
    {{{&S::dropped}}, E::FaultDrop, kLink, kSender},        // CrashDrop
    {{{&S::duplicated}}, E::FaultDuplicate, kLink, kSender},  // Duplicate
    {{{&S::reordered}}, E::FaultReorder, kLink, kSender},     // Reorder
    {{{&S::corrupted}, {&S::frames}, {&S::bytes, kBytes}},
     E::FaultCorrupt, kLink, kSender},  // Corrupt
    // Counted as a Flight already; only the verdict is new.
    {{{&S::corrupted}}, E::FaultCorrupt, kLink, kSender},  // DecodeReject
    // ---- receive windows ----
    {{{&S::dedup_hits}}, E::DedupDrop, kLink, kReceiver},
    {{{&S::dedup_late_recoveries}}, E::DedupLateRecovery, kLink, kReceiver},
    // ---- failure detector ----
    {{{&S::heartbeats}}, E::Heartbeat, kLink, kRound},
    {{{&S::heartbeat_misses}}, E::HeartbeatMiss, kLink, kRound},
    {{{&S::suspicions}}, E::MachineSuspected, kMachine, kRound},  // Suspected
    {{{&S::machine_deaths}}, E::MachineDead, kMachine, kRound},   // Dead
};
static_assert(std::size(kTable) ==
              static_cast<std::size_t>(Occurrence::Dead) + 1);

}  // namespace

S& S::operator+=(const Snapshot& o) {
  for (std::uint64_t Snapshot::*f : kFields) this->*f += o.*f;
  return *this;
}

S NetworkStats::snapshot() const {
  Snapshot s;
  for (std::uint64_t Snapshot::*f : kFields) {
    s.*f = std::atomic_ref(live_.*f).load(std::memory_order_relaxed);
  }
  return s;
}

void NetworkStats::note(Occurrence what, std::uint16_t machine,
                        std::uint16_t peer, std::uint64_t seq,
                        std::int64_t ns, std::uint32_t count,
                        std::uint64_t bytes, std::uint32_t gathered) {
  const Row& row = kTable[static_cast<std::size_t>(what)];
  const std::uint64_t amounts[] = {1, count, bytes, count > 1 ? count : 0u,
                                   gathered};
  for (const Add& add : row.adds) {
    if (add.counter == nullptr) break;
    if (const std::uint64_t n = amounts[add.amount]; n != 0) {
      std::atomic_ref(live_.*add.counter)
          .fetch_add(n, std::memory_order_relaxed);
    }
  }
  trace::Recorder* const rec = recorder_;
  if (rec == nullptr) return;
  // Instants sit at the clock the row names, or at `ns` for probe rounds;
  // a wait ends at the sender's clock and a flight starts there.
  const std::int64_t now =
      row.stamp == kRound ? ns
                          : now_ns_(row.stamp == kReceiver ? peer : machine);
  std::int64_t start = now;
  std::int64_t dur = 0;
  if (row.stamp == kWait) {
    start = now - ns;
    dur = ns;
  } else if (row.stamp == kFlight) {
    dur = std::max<std::int64_t>(ns - now, 0);
  }
  rec->record({.kind = row.event, .track = row.track, .machine = machine,
               .peer = row.track == kLink ? peer : std::uint16_t{0},
               .start_ns = start, .dur_ns = dur,
               .seq = static_cast<std::uint32_t>(seq), .count = count,
               .bytes = bytes});
}

// ---- Transport --------------------------------------------------------------

SimTime Transport::charge_and_schedule(Machine& sender,
                                       std::size_t charged_bytes) {
  sender.clock().advance(SimTime::nanos(cost_.send_overhead_ns));
  // GM fragments frames larger than one MTU; every fragment after the
  // first adds pipeline overhead to the arrival time.
  const std::int64_t extra_fragments =
      cost_.fragment_bytes > 0
          ? static_cast<std::int64_t>(charged_bytes) / cost_.fragment_bytes
          : 0;
  return sender.clock().now() + SimTime::nanos(cost_.msg_latency_ns) +
         cost_.for_wire_bytes(charged_bytes) +
         SimTime::nanos(extra_fragments * cost_.fragment_overhead_ns);
}

SimTime Transport::depart(Machine& sender, const Machine& receiver,
                          const wire::Frame& frame) {
  const std::size_t charged = frame.charged_bytes();
  const SimTime arrival = charge_and_schedule(sender, charged);
  std::uint32_t gathered = 0;  // messages carrying a scatter-gather payload
  for (const wire::Message& m : frame.messages) {
    gathered += m.gathered != nullptr;
  }
  stats_.note(Occurrence::Flight, sender.id(), receiver.id(), frame.link_seq,
              arrival.as_nanos(),
              static_cast<std::uint32_t>(frame.messages.size()), charged,
              gathered);
  if (frame_probe_) frame_probe_(sender.id(), receiver.id(), frame);
  return arrival;
}

wire::SendOutcome SimTransport::submit(Machine& sender, Machine& receiver,
                                       const wire::Frame& frame) {
  const SimTime arrival = depart(sender, receiver, frame);

  // Physical transmission: only the byte image crosses the "wire".  For
  // gathered payloads encode_frame walks the segment list — this is where
  // the NIC concatenates the iovec.
  ByteBuffer image;
  if (cost_.zero_copy_receive) {
    // Zero-copy receive: the image lands in a pooled buffer from the
    // receiver's ring, and decode hands every message a pinned view into
    // it instead of a per-message copy.  The block recycles when the last
    // payload view (or borrowing object) releases it; a dedup-rejected
    // duplicate drops its ref right here when `image` dies.
    support::FramePool::BlockRef block =
        receiver.frame_pool().acquire(frame.charged_bytes() + 32);
    wire::encode_frame_into(frame, block->bytes);
    const std::uint8_t* data = block->bytes.data();
    const std::size_t size = block->bytes.size();
    image = ByteBuffer::view(data, size, std::move(block));
  } else {
    image = wire::encode_frame(frame);
  }
  wire::Frame received;
  try {
    received = wire::decode_frame(image);
  } catch (const DecodeError&) {
    // A frame this backend itself encoded cannot fail to decode unless
    // something corrupted it in flight; fail closed and let ARQ resend.
    stats_.note(Occurrence::DecodeReject, sender.id(), receiver.id(),
                frame.link_seq);
    return wire::SendOutcome::Nacked;
  }

  // Receiver-NIC dedup: a retransmitted or injected copy of a frame the
  // receiver already has is acknowledged but not delivered again.
  if (receiver.accept_link_seq(sender.id(), received.link_seq) !=
      wire::DedupWindow::Verdict::Fresh) {
    return wire::SendOutcome::Delivered;
  }

  for (wire::Message& msg : received.messages) {
    receiver.deliver(std::move(msg), arrival);
  }
  return wire::SendOutcome::Delivered;
}

wire::SendOutcome LoopbackTransport::submit(Machine& sender,
                                            Machine& receiver,
                                            const wire::Frame& frame) {
  const SimTime arrival = depart(sender, receiver, frame);
  if (receiver.accept_link_seq(sender.id(), frame.link_seq) !=
      wire::DedupWindow::Verdict::Fresh) {
    return wire::SendOutcome::Delivered;
  }
  for (const wire::Message& msg : frame.messages) {
    wire::Message copy;
    copy.header = msg.header;
    // Gathered payloads pass through as segments all the way to delivery;
    // the receive side only ever sees contiguous bytes, so concatenate
    // here, at this backend's NIC boundary.
    if (cost_.zero_copy_receive) {
      // Zero-copy receive: this backend's NIC boundary writes the payload
      // into a pooled buffer from the receiver's ring and delivers a
      // pinned view (one block per message — struct delivery has no frame
      // image for messages to share).
      support::FramePool::BlockRef block =
          receiver.frame_pool().acquire(msg.payload_size());
      if (msg.gathered) {
        msg.gathered->for_each_segment(
            [&](const std::uint8_t* d, std::size_t n) {
              block->bytes.insert(block->bytes.end(), d, d + n);
            });
      } else {
        const auto contents = msg.payload.contents();
        block->bytes.assign(contents.begin(), contents.end());
      }
      const std::uint8_t* data = block->bytes.data();
      const std::size_t size = block->bytes.size();
      copy.payload = ByteBuffer::view(data, size, std::move(block));
    } else {
      copy.payload = msg.gathered
                         ? ByteBuffer(msg.gathered->gather())
                         : ByteBuffer(std::vector<std::uint8_t>(
                               msg.payload.contents().begin(),
                               msg.payload.contents().end()));
    }
    receiver.deliver(std::move(copy), arrival);
  }
  return wire::SendOutcome::Delivered;
}

// ---- FaultyTransport --------------------------------------------------------

FaultyTransport::FaultyTransport(const serial::CostModel& cost,
                                 NetworkStats& stats,
                                 std::unique_ptr<Transport> inner,
                                 FaultPlan plan)
    : Transport(cost, stats),
      plan_(std::move(plan)),
      inner_(std::move(inner)) {}

FaultyTransport::LinkState& FaultyTransport::link_state(std::uint16_t src,
                                                        std::uint16_t dst) {
  return links_[FaultPlan::link_key(src, dst)];
}

wire::SendOutcome FaultyTransport::submit(Machine& sender, Machine& receiver,
                                          const wire::Frame& frame) {
  const std::uint16_t src = sender.id();
  const std::uint16_t dst = receiver.id();

  // Attempt bookkeeping: stop-and-wait under the session lock means a
  // link's retransmits are consecutive submits of the same link_seq.
  std::uint32_t attempt = 0;
  std::unique_ptr<wire::Frame> late_release;
  {
    std::scoped_lock lock(mu_);
    LinkState& st = link_state(src, dst);
    if (st.last_seq == frame.link_seq) {
      attempt = ++st.attempt;
    } else {
      st.last_seq = frame.link_seq;
      st.attempt = 0;
    }
    // A copy held back for reordering arrives late: behind this (newer)
    // frame.  Take it out under the lock, deliver it after the new frame.
    if (st.late != nullptr && st.late->link_seq != frame.link_seq) {
      late_release = std::move(st.late);
    }
  }

  // A crashed machine neither sends nor receives: the frame vanishes and
  // the sender's ARQ times out.  (Charging the attempt would perturb the
  // sender's clock for traffic that never left a dead NIC, so crashes are
  // silent on the wire; the ARQ backoff timers are still charged by the
  // session.)
  if (plan_.crashed(dst, receiver.clock().now().as_nanos()) ||
      plan_.crashed(src, sender.clock().now().as_nanos())) {
    stats_.note(Occurrence::CrashDrop, src, dst, frame.link_seq);
    return wire::SendOutcome::Timeout;
  }

  SplitMix64 dice = plan_.dice(src, dst, frame.link_seq, attempt);
  const LinkFaults& faults = plan_.link(src, dst);

  // Corruption: the byte image is damaged in flight; the receiver's
  // checksum rejects it and NACKs.  The wasted transmission is charged
  // like any other frame (bytes crossed the wire; nothing was delivered).
  if (dice.next_double() < faults.corrupt) {
    stats_.note(Occurrence::Corrupt, src, dst, frame.link_seq, 0, 0,
                frame.charged_bytes());
    (void)charge_and_schedule(sender, frame.charged_bytes());
    // Demonstrate the fail-closed path end to end: flip one bit of the
    // real image and insist the decoder rejects it.  No flip can pass: one
    // in the body changes its CRC-32C, one in the checksum field no longer
    // matches the body's, and the two frame tags differ in two bits.
    ByteBuffer image = wire::encode_frame(frame);
    std::vector<std::uint8_t> bytes(std::move(image).take());
    const std::size_t bit = static_cast<std::size_t>(
        dice.next_below(bytes.size() * 8));
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ByteBuffer damaged(std::move(bytes));
    bool rejected = false;
    try {
      (void)wire::decode_frame(damaged);
    } catch (const DecodeError&) {
      rejected = true;  // never decoded into the runtime
    }
    RMIOPT_CHECK(rejected, "a one-bit flip passed the frame checksum");
    return wire::SendOutcome::Nacked;
  }

  // Drop: the frame is lost; the sender's only signal is silence.  The
  // send-descriptor cost was still paid.
  if (dice.next_double() < faults.drop) {
    stats_.note(Occurrence::Drop, src, dst, frame.link_seq, 0, 0,
                frame.charged_bytes());
    (void)charge_and_schedule(sender, frame.charged_bytes());
    return wire::SendOutcome::Timeout;
  }

  const bool duplicate = dice.next_double() < faults.duplicate;
  const bool reorder = dice.next_double() < faults.reorder;

  const wire::SendOutcome out = inner_->submit(sender, receiver, frame);

  if (duplicate) {
    stats_.note(Occurrence::Duplicate, src, dst, frame.link_seq);
    (void)inner_->submit(sender, receiver, frame);  // window discards it
  }
  if (reorder) {
    // Hold a stale copy; it arrives behind the next frame on this link —
    // the only reordering a stop-and-wait link can exhibit (in-order
    // delivery of *fresh* frames is guaranteed by the ARQ itself).
    std::scoped_lock lock(mu_);
    link_state(src, dst).late = std::make_unique<wire::Frame>(frame);
  }
  if (late_release != nullptr) {
    stats_.note(Occurrence::Reorder, src, dst, late_release->link_seq);
    (void)inner_->submit(sender, receiver, *late_release);  // stale: dedup
  }
  return out;
}

std::unique_ptr<Transport> make_transport(TransportKind kind,
                                          const serial::CostModel& cost,
                                          NetworkStats& stats) {
  switch (kind) {
    case TransportKind::Sim:
      return std::make_unique<SimTransport>(cost, stats);
    case TransportKind::Loopback:
      return std::make_unique<LoopbackTransport>(cost, stats);
  }
  RMIOPT_CHECK(false, "unknown transport kind");
  return nullptr;
}

}  // namespace rmiopt::net
