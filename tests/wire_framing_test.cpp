// Unit tests for the wire layer added by the transport refactor: frame
// encode/decode round trips, malformed-image rejection, and the session
// layer's sequencing and ACK-coalescing queues.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "support/error.hpp"
#include "support/gather_buffer.hpp"
#include "wire/framing.hpp"
#include "wire/session.hpp"

namespace rmiopt::wire {
namespace {

Message make_msg(MsgKind kind, std::uint16_t from, std::uint16_t to,
                 std::size_t payload_bytes = 0, std::uint32_t seq = 0) {
  Message m;
  m.header.kind = kind;
  m.header.callsite_id = 7;
  m.header.target_export = 3;
  m.header.seq = seq;
  m.header.source_machine = from;
  m.header.dest_machine = to;
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    m.payload.put_u8(static_cast<std::uint8_t>(i * 37 + seq));
  }
  return m;
}

void expect_equal(const Message& a, const Message& b) {
  EXPECT_EQ(a.header.kind, b.header.kind);
  EXPECT_EQ(a.header.callsite_id, b.header.callsite_id);
  EXPECT_EQ(a.header.target_export, b.header.target_export);
  EXPECT_EQ(a.header.seq, b.header.seq);
  EXPECT_EQ(a.header.source_machine, b.header.source_machine);
  EXPECT_EQ(a.header.dest_machine, b.header.dest_machine);
  ASSERT_EQ(a.payload.size(), b.payload.size());
  const auto pa = a.payload.contents();
  const auto pb = b.payload.contents();
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
}

TEST(Framing, SingleMessageRoundTrip) {
  Frame frame;
  frame.link_seq = 41;
  frame.messages.push_back(make_msg(MsgKind::Call, 0, 1, 64, 9));

  ByteBuffer image = encode_frame(frame);
  EXPECT_EQ(image.contents()[0], kSingleFrameTag);

  const Frame back = decode_frame(image);
  EXPECT_EQ(back.link_seq, 41u);
  ASSERT_EQ(back.messages.size(), 1u);
  expect_equal(back.messages[0], frame.messages[0]);
  EXPECT_EQ(image.remaining(), 0u);  // the image was consumed exactly
}

TEST(Framing, KnownFrameHasAPinnedImage) {
  // The exact bytes of one small frame: any change to the layout or to
  // the checksum function shows here first.
  Frame frame;
  frame.link_seq = 41;
  frame.messages.push_back(make_msg(MsgKind::Call, 0, 1, 4, 9));

  const std::vector<std::uint8_t> expected = {
      kSingleFrameTag,
      0xE7, 0xA8, 0x5E, 0x0A,  // CRC-32C of the 24 bytes below, LE
      0x29,                    // link_seq varint (41)
      0x00,                    // kind: Call
      0x07, 0x00, 0x00, 0x00,  // callsite_id
      0x03, 0x00, 0x00, 0x00,  // target_export
      0x09, 0x00, 0x00, 0x00,  // seq
      0x00, 0x00,              // source machine
      0x01, 0x00,              // dest machine
      0x00,                    // flags (no deadline)
      0x04,                    // payload_len varint
      0x09, 0x2E, 0x53, 0x78,  // payload
  };
  const ByteBuffer image = encode_frame(frame);
  const auto bytes = image.contents();
  EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin(), bytes.end()), expected);
  EXPECT_EQ(frame_checksum(expected.data() + 5, expected.size() - 5),
            0x0A5EA8E7u);
}

TEST(Framing, BatchRoundTripPreservesOrderAndContent) {
  Frame frame;
  frame.link_seq = 129;  // forces a multi-byte varint
  frame.messages.push_back(make_msg(MsgKind::Ack, 2, 5, 0, 1));
  frame.messages.push_back(make_msg(MsgKind::Return, 2, 5, 17, 2));
  frame.messages.push_back(make_msg(MsgKind::Exception, 2, 5, 3, 3));

  ByteBuffer image = encode_frame(frame);
  EXPECT_EQ(image.contents()[0], kBatchFrameTag);

  const Frame back = decode_frame(image);
  EXPECT_EQ(back.link_seq, 129u);
  ASSERT_EQ(back.messages.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    expect_equal(back.messages[i], frame.messages[i]);
  }
}

TEST(Framing, ChargedBytesAreTheSimulatedSizesNotTheImageSize) {
  Frame frame;
  frame.messages.push_back(make_msg(MsgKind::Ack, 0, 1, 10));
  frame.messages.push_back(make_msg(MsgKind::Ack, 0, 1, 20));
  // The charged header size is frozen at kChargedHeaderBytes — NOT
  // sizeof(MessageHeader), which grew when the flags/deadline fields were
  // added; default traffic must price exactly as it always has.
  EXPECT_EQ(frame.charged_bytes(), 2 * kChargedHeaderBytes + 30);
  // The physical image uses explicit field-by-field encoding and varint
  // lengths — the cost model must never be driven by its size.
  const ByteBuffer image = encode_frame(frame);
  EXPECT_NE(image.size(), frame.charged_bytes());
}

TEST(Framing, DeadlineIsChargedOnlyWhenPresent) {
  Message plain = make_msg(MsgKind::Call, 0, 1, 10);
  Message dated = make_msg(MsgKind::Call, 0, 1, 10);
  dated.header.deadline_ns = 123'456'789;
  EXPECT_EQ(plain.wire_size(), kChargedHeaderBytes + 10);
  EXPECT_EQ(dated.wire_size(), kChargedHeaderBytes + 8 + 10);
}

TEST(Framing, FlagsAndDeadlineRoundTrip) {
  Frame frame;
  frame.link_seq = 3;
  Message m = make_msg(MsgKind::Call, 0, 1, 12, 44);
  m.header.flags = kFlagOneway;
  m.header.deadline_ns = 987'654'321'000;
  frame.messages.push_back(m);
  Message bare = make_msg(MsgKind::Cancel, 0, 1, 0, 45);
  frame.messages.push_back(bare);

  ByteBuffer image = encode_frame(frame);
  const Frame back = decode_frame(image);
  ASSERT_EQ(back.messages.size(), 2u);
  expect_equal(back.messages[0], m);
  EXPECT_EQ(back.messages[0].header.flags, kFlagOneway);
  EXPECT_EQ(back.messages[0].header.deadline_ns, 987'654'321'000);
  expect_equal(back.messages[1], bare);
  EXPECT_EQ(back.messages[1].header.flags, 0);
  EXPECT_EQ(back.messages[1].header.deadline_ns, 0);
}

TEST(Framing, EncodeIntoMatchesEncode) {
  // The pooled path writes into a recycled vector; whatever longer image
  // it held before, it must end up holding exactly encode_frame's image.
  std::vector<Frame> frames(4);
  frames[0].link_seq = 41;
  frames[0].messages.push_back(make_msg(MsgKind::Call, 0, 1, 64, 9));
  frames[1].link_seq = 129;
  frames[1].messages.push_back(make_msg(MsgKind::Ack, 2, 5, 0, 1));
  frames[1].messages.push_back(make_msg(MsgKind::Return, 2, 5, 17, 2));
  Message dated = make_msg(MsgKind::Call, 0, 1, 12, 44);
  dated.header.deadline_ns = 987'654'321'000;
  frames[2].messages.push_back(dated);
  std::vector<std::uint8_t> row(300);
  for (std::size_t i = 0; i < row.size(); ++i) {
    row[i] = static_cast<std::uint8_t>(i * 13);
  }
  auto gathered = std::make_shared<support::GatherBuffer>();
  gathered->put_u32(7);
  ASSERT_TRUE(gathered->borrow(row.data(), row.size()));
  gathered->put_varint(row.size());
  gathered->seal();
  Message reply = make_msg(MsgKind::Return, 1, 0);
  reply.gathered = gathered;
  frames[3].messages.push_back(reply);

  Frame longer;
  longer.messages.push_back(make_msg(MsgKind::Return, 1, 0, 4096));
  const ByteBuffer earlier = encode_frame(longer);
  for (const Frame& frame : frames) {
    std::vector<std::uint8_t> out(earlier.contents().begin(),
                                  earlier.contents().end());
    encode_frame_into(frame, out);
    const ByteBuffer expected = encode_frame(frame);
    const auto bytes = expected.contents();
    EXPECT_EQ(out, std::vector<std::uint8_t>(bytes.begin(), bytes.end()))
        << "messages=" << frame.messages.size();
  }
}

TEST(Framing, RejectMessageRoundTripsItsCodeAndReason) {
  Frame frame;
  Message rej = make_msg(MsgKind::Reject, 1, 0, 0, 7);
  rej.payload.put_u8(static_cast<std::uint8_t>(RejectCode::Overload));
  rej.payload.put_string("inbox at its bound");
  frame.messages.push_back(rej);

  ByteBuffer image = encode_frame(frame);
  Frame back = decode_frame(image);
  ASSERT_EQ(back.messages.size(), 1u);
  EXPECT_EQ(back.messages[0].header.kind, MsgKind::Reject);
  EXPECT_EQ(static_cast<RejectCode>(back.messages[0].payload.get_u8()),
            RejectCode::Overload);
  EXPECT_EQ(back.messages[0].payload.get_string(), "inbox at its bound");
}

TEST(Framing, EveryTruncationOfAValidImageIsRejected) {
  Frame frame;
  frame.link_seq = 5;
  frame.messages.push_back(make_msg(MsgKind::Return, 1, 0, 33));
  frame.messages.push_back(make_msg(MsgKind::Ack, 1, 0, 2));
  const ByteBuffer image = encode_frame(frame);
  const auto bytes = image.contents();

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteBuffer truncated(
        std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + cut));
    EXPECT_THROW((void)decode_frame(truncated), Error) << "cut=" << cut;
  }
}

TEST(Framing, UnknownTagAndKindAreRejected) {
  ByteBuffer bogus_tag;
  bogus_tag.put_u8(0x00);
  bogus_tag.put_varint(0);
  EXPECT_THROW((void)decode_frame(bogus_tag), Error);

  // A single frame whose message kind byte is out of range.
  ByteBuffer bogus_kind;
  bogus_kind.put_u8(kSingleFrameTag);
  bogus_kind.put_varint(0);  // link_seq
  bogus_kind.put_u8(0x7F);   // kind — no such MsgKind
  bogus_kind.put_u32(0);
  bogus_kind.put_u32(0);
  bogus_kind.put_u32(0);
  bogus_kind.put(std::uint16_t{0});
  bogus_kind.put(std::uint16_t{1});
  bogus_kind.put_varint(0);
  EXPECT_THROW((void)decode_frame(bogus_kind), Error);
}

TEST(Framing, AbsurdBatchCountIsRejectedBeforeAllocation) {
  ByteBuffer bogus;
  bogus.put_u8(kBatchFrameTag);
  bogus.put_varint(0);                     // link_seq
  bogus.put_varint(1'000'000'000'000ull);  // count far beyond the image
  EXPECT_THROW((void)decode_frame(bogus), Error);
}

TEST(Framing, EmptyFrameCannotBeEncoded) {
  EXPECT_THROW((void)encode_frame(Frame{}), Error);
}

// ---- session layer --------------------------------------------------------

TEST(Session, UnbatchedPostEmitsImmediatelyWithIncreasingLinkSeq) {
  Session s(0, 1, SessionConfig{});
  std::vector<Frame> frames;
  const FrameSink sink = [&](const Frame& f) {
    frames.push_back(f);
    return SendOutcome::Delivered;
  };
  for (std::uint32_t i = 0; i < 3; ++i) {
    s.post(make_msg(MsgKind::Call, 0, 1, 0, i), sink);
  }
  ASSERT_EQ(frames.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(frames[i].link_seq, i);
    ASSERT_EQ(frames[i].messages.size(), 1u);
    EXPECT_EQ(frames[i].messages[0].header.seq, i);
  }
  EXPECT_EQ(s.queued(), 0u);
}

TEST(Session, WrongLinkIsRejected) {
  Session s(0, 1, SessionConfig{});
  const FrameSink sink = [](const Frame&) { return SendOutcome::Delivered; };
  EXPECT_THROW(s.post(make_msg(MsgKind::Call, 0, 2, 0), sink), Error);
  EXPECT_THROW(s.post(make_msg(MsgKind::Call, 1, 0, 0), sink), Error);
}

TEST(Session, SmallRepliesAreHeldUntilTheBatchFills) {
  SessionConfig cfg;
  cfg.max_batch_messages = 3;
  Session s(1, 0, cfg);
  std::vector<Frame> frames;
  const FrameSink sink = [&](const Frame& f) {
    frames.push_back(f);
    return SendOutcome::Delivered;
  };

  s.post(make_msg(MsgKind::Ack, 1, 0, 0, 0), sink);
  s.post(make_msg(MsgKind::Ack, 1, 0, 0, 1), sink);
  EXPECT_TRUE(frames.empty());
  EXPECT_EQ(s.queued(), 2u);

  s.post(make_msg(MsgKind::Ack, 1, 0, 0, 2), sink);  // fills the batch
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].messages.size(), 3u);
  EXPECT_EQ(s.queued(), 0u);
}

TEST(Session, CallFlushesTheQueueInOneFifoFrame) {
  SessionConfig cfg;
  cfg.max_batch_messages = 8;
  Session s(0, 1, cfg);
  std::vector<Frame> frames;
  const FrameSink sink = [&](const Frame& f) {
    frames.push_back(f);
    return SendOutcome::Delivered;
  };

  s.post(make_msg(MsgKind::Ack, 0, 1, 0, 0), sink);
  s.post(make_msg(MsgKind::Return, 0, 1, 8, 1), sink);
  EXPECT_TRUE(frames.empty());
  s.post(make_msg(MsgKind::Call, 0, 1, 4, 2), sink);  // flush trigger

  // One frame; the held replies leave *ahead of* the Call (FIFO).
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].messages.size(), 3u);
  EXPECT_EQ(frames[0].messages[0].header.kind, MsgKind::Ack);
  EXPECT_EQ(frames[0].messages[1].header.kind, MsgKind::Return);
  EXPECT_EQ(frames[0].messages[2].header.kind, MsgKind::Call);
}

TEST(Session, BulkyReplyIsNotHeldBack) {
  SessionConfig cfg;
  cfg.max_batch_messages = 8;
  cfg.max_batch_payload = 16;
  Session s(0, 1, cfg);
  std::vector<Frame> frames;
  const FrameSink sink = [&](const Frame& f) {
    frames.push_back(f);
    return SendOutcome::Delivered;
  };

  s.post(make_msg(MsgKind::Return, 0, 1, 64), sink);  // over the threshold
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].messages.size(), 1u);
}

TEST(Session, ExplicitFlushSealsPartialBatches) {
  SessionConfig cfg;
  cfg.max_batch_messages = 8;
  Session s(0, 1, cfg);
  std::vector<Frame> frames;
  const FrameSink sink = [&](const Frame& f) {
    frames.push_back(f);
    return SendOutcome::Delivered;
  };

  s.post(make_msg(MsgKind::Ack, 0, 1, 0, 0), sink);
  s.post(make_msg(MsgKind::Ack, 0, 1, 0, 1), sink);
  s.flush(sink);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].messages.size(), 2u);

  s.flush(sink);  // idempotent on an empty queue
  EXPECT_EQ(frames.size(), 1u);
}

}  // namespace
}  // namespace rmiopt::wire
