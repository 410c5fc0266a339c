// Wire protocol: message framing and the object-stream tag set.
//
// Three protocol flavours coexist, mirroring the paper's three serializer
// generations.  They are the three serial::TypeInfoMode values of one plan
// interpreter: each plan node says which one it writes.
//
//  * HEAVY  (Sun-RMI-like introspective baseline, FullName nodes): every
//    object is preceded by its full class *name*; the receiver resolves the
//    name to a descriptor for every single object.
//  * COMPACT (class-specific serializers, KaRMI/Manta-style, CompactId
//    nodes): every object is preceded by a varint class *id* — "a single
//    integer in Manta-JavaParty" that the receiver hashes to a vtable.
//  * BARE   (call-site-specific serializers, this paper, inline nodes): no
//    per-object type information at all; both sides execute the same
//    generated plan, so the stream contains only data, array lengths, and
//    — when the compiler could not prove acyclicity — cycle tags/handles.
#pragma once

#include <cstdint>
#include <memory>

#include "support/bytebuffer.hpp"
#include "support/gather_buffer.hpp"

namespace rmiopt::wire {

enum class MsgKind : std::uint8_t {
  Call,       // request: payload = serialized arguments
  Return,     // response with serialized return value
  Ack,        // response without a value (return elided at the call site)
  Exception,  // response carrying a remote exception message
  Heartbeat,  // reserved: detector probes are never sent as messages;
              // kept so Cancel and Reject keep their wire values
  Cancel,     // best-effort cancellation of an in-flight Call (same seq)
  Reject,     // typed refusal: payload = RejectCode u8 + reason string
};

// Why a callee refused (or abandoned) a call without running its handler.
// Travels as the first payload byte of a Reject message; the caller maps
// it back to the matching typed exception (rmi::DeadlineExceeded,
// rmi::Overload, rmi::Cancelled).
enum class RejectCode : std::uint8_t {
  DeadlineExceeded = 1,  // the call's virtual-time deadline had passed
  Overload = 2,          // admission control shed the call
  Cancelled = 3,         // the caller cancelled; the reply was abandoned
};

// Header flag bits (MessageHeader::flags).
inline constexpr std::uint8_t kFlagOneway = 0x01;  // fire-and-forget Call:
                                                   // the callee sends no
                                                   // reply of any kind

// Object-stream tags.  BARE streams use Ref* tags only where cycle
// detection is on; where the compiler proved acyclicity no tags appear.
enum ObjTag : std::uint8_t {
  kTagNull = 0,
  kTagInline = 1,  // object data follows
  kTagHandle = 2,  // varint back-reference to an already-sent object
};

struct MessageHeader {
  MsgKind kind = MsgKind::Call;
  std::uint32_t callsite_id = 0;    // selects the (un)marshaler pair
  std::uint32_t target_export = 0;  // exported object id on the callee
  std::uint32_t seq = 0;            // request/reply matching
  std::uint16_t source_machine = 0;
  std::uint16_t dest_machine = 0;
  std::uint8_t flags = 0;           // kFlag* bits
  // Absolute virtual-time deadline (ns) the caller attached, 0 = none.
  // The callee refuses to *start* a call whose deadline has passed
  // (Reject/DeadlineExceeded) instead of computing a reply nobody will
  // read; nested calls inherit the remaining budget minus a slack.
  std::int64_t deadline_ns = 0;
};

// The header bytes the cost model charges per message on the simulated
// wire.  Frozen at the pre-deadline layout (kind u8 + 3 ids u32 + 2
// machine u16, padded to 4): the flags byte rides free and a deadline is
// charged separately, so traffic that carries neither — everything under
// the default configuration — prices exactly as it always has.
inline constexpr std::size_t kChargedHeaderBytes = 20;

struct Message {
  MessageHeader header;
  ByteBuffer payload;

  // Scatter-gather payload (send side only; null on every received
  // message — transports materialize at the NIC boundary).  When set,
  // `payload` is empty and the wire image of the payload is the in-order
  // concatenation of the gather list's segments.  Shared, not cloned, by
  // Message/Frame copies (reply cache, ARQ retransmits, fault-plan
  // duplicates): once sealed the buffer is immutable, so every copy
  // frames byte-identical images.
  std::shared_ptr<support::GatherBuffer> gathered;

  // Sender-side only (never framed onto the wire): the compiler marked
  // this reply as batchable — a profile-guided promotion of the §3.1 ACK
  // optimization.  A *batching* session may hold it back for coalescing
  // even past its payload-size threshold; the default non-batching
  // session ignores it.
  bool coalesce_hint = false;

  // Payload length regardless of representation (contiguous or gathered).
  std::size_t payload_size() const {
    return gathered ? gathered->size() : payload.size();
  }

  // Pin/fold any borrowed spans so the payload image can no longer change.
  // Must run before the message escapes the serializing call; idempotent.
  void seal_gathered() {
    if (gathered) gathered->seal();
  }

  // Total bytes this message occupies on the (simulated) wire.  A call
  // carrying a deadline pays for the extra header field; default traffic
  // (deadline_ns == 0) is priced exactly as before deadlines existed.
  std::size_t wire_size() const {
    return kChargedHeaderBytes + (header.deadline_ns != 0 ? 8 : 0) +
           payload_size();
  }
};

}  // namespace rmiopt::wire
