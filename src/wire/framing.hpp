// Physical frame encoding: the byte image a transport puts on the wire.
//
// The session layer hands the transport *frames* — one or more
// wire::Messages travelling together between the same pair of machines —
// and a byte-oriented transport (SimTransport) serializes them with the
// functions here.  The encoding is explicit field-by-field little-endian
// (never a struct memcpy), so the frame image is independent of struct
// padding and a decoder can detect truncation:
//
//   frame   := tag u8            (kSingleFrameTag | kBatchFrameTag)
//              checksum u32      (CRC-32C over every following byte)
//              link_seq varint   (per directed src->dst link, from 0)
//              count    varint   (batch frames only)
//              count x message
//   message := kind u8
//              callsite_id u32, target_export u32, seq u32
//              source u16, dest u16
//              flags u8, deadline_ns varint (only if flags bit 0x80)
//              payload_len varint, payload bytes
//
// The encoder writes the image in place: the tag, a zeroed checksum slot,
// then the body straight into the output buffer; once the body is
// complete it patches the body's checksum into the slot
// (ByteBuffer::patch_u32).
//
// The checksum makes corruption *detectable*: a receiver verifies it
// before trusting any length or kind field, rejects the frame with a
// DecodeError, and NACKs so the sender retransmits — a corrupted frame is
// never decoded into the runtime.  CRC-32C catches every error burst of
// up to 32 bits, so every 1-bit error, by construction.  decode_frame
// throws only typed errors (rmiopt::DecodeError) on any malformed input;
// it never aborts.
//
// Note the *charged* size of a message on the simulated wire stays
// Message::wire_size() (header struct + payload) for cost-model and
// statistics purposes; the physical image produced here is a transport
// detail and may be a few bytes smaller or larger.
#pragma once

#include <vector>

#include "support/bytebuffer.hpp"
#include "wire/protocol.hpp"

namespace rmiopt::wire {

inline constexpr std::uint8_t kSingleFrameTag = 0xF1;
inline constexpr std::uint8_t kBatchFrameTag = 0xF2;

// The u32 that follows the frame tag, computed over the `len` image bytes
// after it (link_seq to the end): CRC-32C.  encode_frame writes it and
// decode_frame rejects an image whose field differs.
std::uint32_t frame_checksum(const std::uint8_t* body, std::size_t len);

// A unit of transmission on one directed machine-to-machine link.  All
// messages in a frame share one network traversal (one latency, one send
// descriptor) — this is what makes the session layer's ACK coalescing
// (§3.1) pay off.
struct Frame {
  std::uint64_t link_seq = 0;
  std::vector<Message> messages;

  // Wire bytes the cost model charges for this frame (the sum of the
  // member messages' simulated sizes).
  std::size_t charged_bytes() const {
    std::size_t n = 0;
    for (const Message& m : messages) n += m.wire_size();
    return n;
  }
};

// Serializes `frame` into its physical byte image.  The frame must carry
// at least one message.
ByteBuffer encode_frame(const Frame& frame);

// Same image, written into `out` (cleared first).  The vector's capacity
// is preserved across the call, so a pooled frame buffer
// (support::FramePool block) recycles its allocation — this is the
// zero-copy receive path's NIC-ring write.
void encode_frame_into(const Frame& frame, std::vector<std::uint8_t>& out);

// Parses a byte image produced by encode_frame, consuming the rest of
// `buf` from its read cursor (the checksum covers everything up to the
// end, so one buffer carries exactly one frame).  Throws
// rmiopt::DecodeError on an unknown tag, a checksum mismatch, or a
// truncated/malformed image.
//
// If `buf` is a pinned view (ByteBuffer::view over a pooled frame image),
// every decoded message's payload is itself a pinned view into the same
// image — no per-message delivery copy — and the frame buffer recycles
// only when the last payload (and any object still borrowing spans from
// it) lets go.  An owned `buf` keeps the historical copy-out behavior.
Frame decode_frame(ByteBuffer& buf);

}  // namespace rmiopt::wire
