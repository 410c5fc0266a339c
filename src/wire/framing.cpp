#include "wire/framing.hpp"

#include "support/crc32c.hpp"
#include "support/error.hpp"

namespace rmiopt::wire {

std::uint32_t frame_checksum(const std::uint8_t* body, std::size_t len) {
  return crc32c(body, len);
}

namespace {

// A deadline is present on the wire only when set, signalled by a flag
// bit that never reaches MessageHeader::flags (it is an encoding detail).
constexpr std::uint8_t kWireFlagDeadline = 0x80;

void encode_message(ByteBuffer& out, const Message& msg) {
  out.put_u8(static_cast<std::uint8_t>(msg.header.kind));
  out.put_u32(msg.header.callsite_id);
  out.put_u32(msg.header.target_export);
  out.put_u32(msg.header.seq);
  out.put(msg.header.source_machine);
  out.put(msg.header.dest_machine);
  const bool has_deadline = msg.header.deadline_ns != 0;
  out.put_u8(msg.header.flags | (has_deadline ? kWireFlagDeadline : 0));
  if (has_deadline) {
    out.put_varint(static_cast<std::uint64_t>(msg.header.deadline_ns));
  }
  if (msg.gathered) {
    // Gathered payload: frame the segment list in order.  This *is* the
    // NIC-boundary concatenation — by construction the image is identical
    // to what the contiguous path would have produced.
    out.put_varint(msg.gathered->size());
    msg.gathered->for_each_segment(
        [&](const std::uint8_t* d, std::size_t n) { out.put_bytes(d, n); });
    return;
  }
  const auto payload = msg.payload.contents();
  out.put_varint(payload.size());
  out.put_bytes(payload.data(), payload.size());
}

Message decode_message(ByteBuffer& in) {
  Message msg;
  const std::uint8_t kind = in.get_u8();
  RMIOPT_CHECK(kind <= static_cast<std::uint8_t>(MsgKind::Reject),
               "frame carries unknown message kind");
  msg.header.kind = static_cast<MsgKind>(kind);
  msg.header.callsite_id = in.get_u32();
  msg.header.target_export = in.get_u32();
  msg.header.seq = in.get_u32();
  msg.header.source_machine = in.get<std::uint16_t>();
  msg.header.dest_machine = in.get<std::uint16_t>();
  const std::uint8_t flags = in.get_u8();
  msg.header.flags = flags & ~kWireFlagDeadline;
  if ((flags & kWireFlagDeadline) != 0) {
    const std::uint64_t deadline = in.get_varint();
    RMIOPT_CHECK(deadline <= static_cast<std::uint64_t>(INT64_MAX),
                 "malformed frame: deadline out of range");
    msg.header.deadline_ns = static_cast<std::int64_t>(deadline);
    RMIOPT_CHECK(msg.header.deadline_ns != 0,
                 "malformed frame: deadline flag without deadline");
  }
  const std::uint64_t len = in.get_varint();
  RMIOPT_CHECK(len <= in.remaining(), "truncated frame: payload cut short");
  if (in.pin() != nullptr) {
    // Zero-copy delivery: the payload is a pinned window into the pooled
    // frame image (all messages of a batch frame share one pin).
    msg.payload = ByteBuffer::view(in.view_bytes(len), len, in.pin());
  } else {
    // One copy out of the image, straight from its bytes (no zero fill).
    const std::uint8_t* bytes = in.view_bytes(len);
    msg.payload = ByteBuffer(std::vector<std::uint8_t>(bytes, bytes + len));
  }
  return msg;
}

Frame decode_frame_body(ByteBuffer& buf) {
  if (buf.remaining() == 0) {
    throw DecodeError("truncated frame: empty image");
  }
  const std::uint8_t tag = buf.get_u8();
  if (tag != kSingleFrameTag && tag != kBatchFrameTag) {
    throw DecodeError("unknown frame tag");
  }
  // Verify the checksum over the whole remainder before trusting a single
  // length or kind field of it.
  const std::uint32_t declared = buf.get_u32();
  const auto bytes = buf.contents();
  const std::uint32_t actual =
      frame_checksum(bytes.data() + buf.read_pos(), buf.remaining());
  if (declared != actual) {
    throw DecodeError("frame checksum mismatch: image corrupted in transit");
  }

  Frame frame;
  frame.link_seq = buf.get_varint();
  std::uint64_t count = 1;
  if (tag == kBatchFrameTag) {
    count = buf.get_varint();
    RMIOPT_CHECK(count >= 1, "malformed frame: empty batch");
    // Each message needs at least its fixed header bytes; reject counts
    // the remaining image cannot possibly satisfy before allocating.
    RMIOPT_CHECK(count <= buf.remaining() / 17 + 1,
                 "truncated frame: batch count exceeds image");
  }
  frame.messages.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    frame.messages.push_back(decode_message(buf));
  }
  RMIOPT_CHECK(buf.remaining() == 0,
               "malformed frame: trailing bytes after last message");
  return frame;
}

void encode_frame_impl(const Frame& frame, ByteBuffer& out) {
  RMIOPT_CHECK(!frame.messages.empty(), "cannot encode an empty frame");
  // The image is written in place: tag, a checksum slot, then the body,
  // whose checksum is patched into the slot once the body is complete.
  // The charged size plus the frame header is a close capacity hint, so
  // even a small image is one allocation rather than a chain of regrowths.
  out.reserve(out.size() + frame.charged_bytes() + 32);
  const std::size_t slot = out.size() + 1;
  out.put_u8(frame.messages.size() == 1 ? kSingleFrameTag : kBatchFrameTag);
  out.put_u32(0);
  out.put_varint(frame.link_seq);
  if (frame.messages.size() == 1) {
    encode_message(out, frame.messages.front());
  } else {
    out.put_varint(frame.messages.size());
    for (const Message& m : frame.messages) encode_message(out, m);
  }
  const std::size_t body = slot + 4;
  const auto image = out.contents();
  out.patch_u32(slot,
                frame_checksum(image.data() + body, image.size() - body));
}

}  // namespace

ByteBuffer encode_frame(const Frame& frame) {
  ByteBuffer out;
  encode_frame_impl(frame, out);
  return out;
}

void encode_frame_into(const Frame& frame, std::vector<std::uint8_t>& out) {
  // Round-trip the vector through a ByteBuffer so the pooled capacity is
  // reused rather than reallocated.
  out.clear();
  ByteBuffer buf(std::move(out));
  encode_frame_impl(frame, buf);
  out = std::move(buf).take();
}

Frame decode_frame(ByteBuffer& buf) {
  // Untrusted input: collapse every failure mode (underflow, bad varint,
  // unknown kind, checksum mismatch) into the one typed, recoverable
  // error the reliability layer handles.
  try {
    return decode_frame_body(buf);
  } catch (const DecodeError&) {
    throw;
  } catch (const Error& e) {
    throw DecodeError(e.what());
  }
}

}  // namespace rmiopt::wire
