// Seeded fuzz test for the frame decoder.
//
// The decoder's contract on untrusted input is narrow: for ANY byte image
// — truncated, bit-flipped, or pure noise — decode_frame either returns a
// frame or throws DecodeError.  It must never abort, never throw another
// type, and never read out of bounds (the ASan/UBSan CI job runs this
// file).  The generator is seeded, so a failing image is reproducible.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "serial/class_plans.hpp"
#include "serial/plan.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "wire/framing.hpp"

namespace rmiopt::wire {
namespace {

// Decodes `bytes` and reports what happened.  Anything other than a clean
// decode or a DecodeError fails the test on the spot.
enum class Outcome { Decoded, Rejected };

Outcome try_decode(std::vector<std::uint8_t> bytes) {
  ByteBuffer buf(std::move(bytes));
  try {
    (void)decode_frame(buf);
    return Outcome::Decoded;
  } catch (const DecodeError&) {
    return Outcome::Rejected;
  }
  // Any other exception type escapes and fails the test.
}

Frame random_frame(SplitMix64& rng) {
  Frame frame;
  frame.link_seq = rng.next_below(1u << 20);
  const std::size_t count = 1 + rng.next_below(4);
  for (std::size_t i = 0; i < count; ++i) {
    Message m;
    m.header.kind = static_cast<MsgKind>(rng.next_below(4));
    m.header.callsite_id = static_cast<std::uint32_t>(rng.next());
    m.header.target_export = static_cast<std::uint32_t>(rng.next());
    m.header.seq = static_cast<std::uint32_t>(rng.next());
    m.header.source_machine = static_cast<std::uint16_t>(rng.next());
    m.header.dest_machine = static_cast<std::uint16_t>(rng.next());
    const std::size_t payload = rng.next_below(128);
    for (std::size_t b = 0; b < payload; ++b) {
      m.payload.put_u8(static_cast<std::uint8_t>(rng.next()));
    }
    frame.messages.push_back(std::move(m));
  }
  return frame;
}

std::vector<std::uint8_t> image_of(const Frame& frame) {
  return std::move(encode_frame(frame)).take();
}

TEST(FrameFuzz, RandomFramesRoundTrip) {
  SplitMix64 rng(0xF00D);
  for (int iter = 0; iter < 200; ++iter) {
    EXPECT_EQ(try_decode(image_of(random_frame(rng))), Outcome::Decoded)
        << "iter=" << iter;
  }
}

TEST(FrameFuzz, EveryTruncationOfEveryImageIsRejected) {
  SplitMix64 rng(0xBEEF);
  for (int iter = 0; iter < 50; ++iter) {
    const std::vector<std::uint8_t> bytes = image_of(random_frame(rng));
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_EQ(try_decode({bytes.begin(), bytes.begin() + cut}),
                Outcome::Rejected)
          << "iter=" << iter << " cut=" << cut;
    }
  }
}

TEST(FrameFuzz, EverySingleBitFlipIsRejected) {
  // The CRC-32C covers the whole body and catches every 1-bit error by
  // construction, a flip in the checksum field no longer matches the
  // body's CRC, and the two frame tags differ in two bits — so a single
  // flip can never yield a valid image.
  SplitMix64 rng(0xCAFE);
  for (int iter = 0; iter < 20; ++iter) {
    const std::vector<std::uint8_t> bytes = image_of(random_frame(rng));
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
      std::vector<std::uint8_t> flipped = bytes;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      EXPECT_EQ(try_decode(std::move(flipped)), Outcome::Rejected)
          << "iter=" << iter << " bit=" << bit;
    }
  }
}

TEST(FrameFuzz, MultiBitDamageIsRejected) {
  SplitMix64 rng(0xD00F);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<std::uint8_t> bytes = image_of(random_frame(rng));
    const std::size_t flips = 2 + rng.next_below(16);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t bit = rng.next_below(bytes.size() * 8);
      bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    // Flips scattered wider than 32 bits carry no burst guarantee, but a
    // CRC-32C collision has probability about 2^-32 per trial; over 500
    // seeded trials a Decoded outcome means a bug.
    EXPECT_EQ(try_decode(std::move(bytes)), Outcome::Rejected)
        << "iter=" << iter;
  }
}

TEST(FrameFuzz, EveryBurstOfAtMost32BitsIsRejected) {
  // CRC-32C's guarantee: any error confined to 32 consecutive bits of the
  // body is detected.  Bits run in the CRC's own order, least significant
  // first within each byte, and every burst has its first and last bits
  // set so its length is exact.
  constexpr std::size_t kHeader = 5;  // tag u8 + checksum u32
  SplitMix64 rng(0xB0057);
  for (int iter = 0; iter < 3; ++iter) {
    const std::vector<std::uint8_t> bytes = image_of(random_frame(rng));
    const std::size_t body_bits = (bytes.size() - kHeader) * 8;
    for (std::size_t len = 1; len <= 32; ++len) {
      for (std::size_t start = 0; start + len <= body_bits; ++start) {
        const std::uint64_t ends = 1u | (std::uint64_t{1} << (len - 1));
        const std::uint64_t burst =
            ends | (rng.next() & ((std::uint64_t{1} << len) - 1));
        std::vector<std::uint8_t> damaged = bytes;
        for (std::size_t i = 0; i < len; ++i) {
          if (((burst >> i) & 1u) == 0) continue;
          const std::size_t bit = kHeader * 8 + start + i;
          damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
        EXPECT_EQ(try_decode(std::move(damaged)), Outcome::Rejected)
            << "iter=" << iter << " len=" << len << " start=" << start;
      }
    }
  }
}

// ---- crafted varint encodings ----------------------------------------------
// get_varint's contract: accept only canonical encodings whose value fits
// in 64 bits.  A 10-byte varint has 70 payload bits; the decoder used to
// shift the top 6 silently into the void, so two distinct wire images
// could decode to the same value (a checksum-valid forgery primitive).

std::uint64_t decode_varint(std::vector<std::uint8_t> bytes) {
  ByteBuffer buf(std::move(bytes));
  return buf.get_varint();
}

TEST(VarintFuzz, TenByteMaxValueDecodes) {
  // 2^64 - 1 canonically: nine 0xff bytes (63 bits) + final 0x01 (bit 63).
  std::vector<std::uint8_t> bytes(9, 0xff);
  bytes.push_back(0x01);
  EXPECT_EQ(decode_varint(bytes), UINT64_MAX);
}

TEST(VarintFuzz, SetBitsAboveTwoTo64AreRejected) {
  // Nine 0xff bytes then 0x7f: the 10th byte's bits 1..6 land above 2^64.
  // The old decoder returned UINT64_MAX here — silent truncation.
  std::vector<std::uint8_t> bytes(9, 0xff);
  bytes.push_back(0x7f);
  EXPECT_THROW(decode_varint(bytes), DecodeError);
  // Continuation bit set on the 10th byte: an 11-byte encoding can never
  // fit in 64 bits regardless of what follows.
  std::vector<std::uint8_t> eleven(10, 0xff);
  eleven.push_back(0x01);
  EXPECT_THROW(decode_varint(eleven), DecodeError);
}

TEST(VarintFuzz, OverlongEncodingsAreRejected) {
  // 0x80 0x00 encodes zero in two bytes; the canonical form is one.  The
  // encoder never emits a zero final byte after a continuation, so these
  // only ever arrive from a forger or a corrupted image.
  EXPECT_THROW(decode_varint({0x80, 0x00}), DecodeError);
  EXPECT_THROW(decode_varint({0xff, 0x80, 0x00}), DecodeError);
}

TEST(VarintFuzz, TruncatedVarintUnderflows) {
  EXPECT_THROW(decode_varint({0x80}), DecodeError);
  EXPECT_THROW(decode_varint({}), DecodeError);
}

TEST(VarintFuzz, CanonicalRoundTrip) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{1} << 35, UINT64_MAX - 1,
        UINT64_MAX}) {
    ByteBuffer buf;
    buf.put_varint(v);
    EXPECT_EQ(buf.get_varint(), v) << v;
  }
}

TEST(VarintFuzz, OverlongLinkSeqInValidFrameIsRejected) {
  // Frame-level: a checksum-*valid* image whose link_seq varint is the
  // overlong 0x80 0x00 instead of 0x00.  The checksum passes (we recompute
  // it), so only the varint decoder's canonicality rule can reject it —
  // exactly the hole the old decoder left open.
  Frame frame;
  frame.link_seq = 0;
  Message m;
  m.header.kind = MsgKind::Call;
  m.payload.put_u8(0x42);
  frame.messages.push_back(std::move(m));
  const std::vector<std::uint8_t> bytes = image_of(frame);
  // Layout: [tag u8][checksum u32][body...]; body starts with link_seq.
  ASSERT_EQ(bytes[5], 0x00);
  const std::vector<std::uint8_t> canonical(bytes.begin() + 5, bytes.end());
  std::vector<std::uint8_t> overlong = canonical;
  overlong[0] = 0x80;
  overlong.insert(overlong.begin() + 1, 0x00);
  const auto image_with = [&](const std::vector<std::uint8_t>& body) {
    ByteBuffer out;
    out.put_u8(bytes[0]);
    out.put_u32(frame_checksum(body.data(), body.size()));
    out.put_bytes(body.data(), body.size());
    return std::move(out).take();
  };
  // Positive control: the same hand-built image with the canonical
  // link_seq decodes, so the checksum is not what rejects the forgery.
  EXPECT_EQ(try_decode(image_with(canonical)), Outcome::Decoded);
  EXPECT_EQ(try_decode(image_with(overlong)), Outcome::Rejected);
}

// ---- borrowed decode passes that fail midway --------------------------------
// With zero-copy receive armed, the reader may have handed out borrowed
// spans into the pinned frame before the stream turns out to be damaged.
// The abandoned pass must unwind every borrow: no dangling span, every pin
// dropped, the frame free to return to its pool, the heap back to empty.

class BorrowUnwindFuzz : public ::testing::Test {
 protected:
  BorrowUnwindFuzz() : class_plans(types), heap(types) {
    row_id = types.register_prim_array(om::TypeKind::Double);
    mat_id = types.register_ref_array(row_id);
    auto row = std::make_unique<serial::NodePlan>();
    row->expected_class = row_id;
    plan = std::make_unique<serial::NodePlan>();
    plan->expected_class = mat_id;
    plan->elem_plan = std::move(row);
  }

  // A valid 4x32 matrix stream (256-byte rows, all above the borrow
  // threshold), as raw bytes.
  std::vector<std::uint8_t> valid_stream() {
    om::ObjRef m = heap.alloc_array(mat_id, 4);
    for (std::uint32_t r = 0; r < 4; ++r) {
      om::ObjRef row = heap.alloc_array(row_id, 32);
      auto e = row->elems<double>();
      for (std::uint32_t c = 0; c < 32; ++c) e[c] = r * 100.0 + c;
      m->set_elem_ref(r, row);
    }
    serial::SerialStats ws;
    serial::SerialWriter w(class_plans, ws, /*cycle_enabled=*/false);
    ByteBuffer buf;
    w.write(buf, *plan, m);
    heap.free_graph(m);
    return std::move(buf).take();
  }

  // Runs one borrowing decode pass over a pinned view of `bytes`.  After
  // the pass — clean or thrown — the pin must be released and the heap
  // empty; anything else is a dangling borrow or a leak.
  void decode_and_check_unwind(std::vector<std::uint8_t> bytes) {
    auto frame = std::make_shared<std::vector<std::uint8_t>>(std::move(bytes));
    {
      ByteBuffer in = ByteBuffer::view(frame->data(), frame->size(), frame);
      serial::SerialStats rs;
      serial::SerialReader r(class_plans, heap, rs, /*cycle_enabled=*/false);
      r.enable_borrow(/*min_bytes=*/64);
      try {
        om::ObjRef copy = r.read(in, *plan);
        if (copy != nullptr) heap.free_graph(copy);
      } catch (const Error&) {
        // The reader abandoned the pass and unwound its allocations.
      }
    }
    EXPECT_EQ(frame.use_count(), 1) << "dangling borrow pins the frame";
    EXPECT_EQ(heap.stats().live_objects(), 0u) << "abandoned pass leaked";
  }

  om::TypeRegistry types;
  serial::ClassPlanRegistry class_plans;
  om::Heap heap;
  om::ClassId row_id = om::kNoClass;
  om::ClassId mat_id = om::kNoClass;
  std::unique_ptr<serial::NodePlan> plan;
};

TEST_F(BorrowUnwindFuzz, EveryTruncationUnwindsItsBorrows) {
  const std::vector<std::uint8_t> bytes = valid_stream();
  // Rows land mid-stream, so most cuts fail *after* earlier rows already
  // borrowed into the pinned frame.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    decode_and_check_unwind({bytes.begin(), bytes.begin() + cut});
  }
}

TEST_F(BorrowUnwindFuzz, CorruptedStreamsUnwindOrDecodeButNeverDangle) {
  SplitMix64 rng(0xB0BB);
  const std::vector<std::uint8_t> bytes = valid_stream();
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<std::uint8_t> damaged = bytes;
    const std::size_t flips = 1 + rng.next_below(8);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t bit = rng.next_below(damaged.size() * 8);
      damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    // Payload-only damage still decodes (serial streams carry no checksum
    // — the frame layer owns integrity); structural damage throws.  Both
    // outcomes must release every pin.
    decode_and_check_unwind(std::move(damaged));
  }
}

TEST(FrameFuzz, PureNoiseNeverCrashesTheDecoder) {
  SplitMix64 rng(0x7E57);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> bytes(rng.next_below(256));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
    // Valid-looking tags make the fuzz reach deeper into the decoder.
    if (!bytes.empty() && rng.next_below(2) == 0) {
      bytes[0] = rng.next_below(2) == 0 ? kSingleFrameTag : kBatchFrameTag;
    }
    (void)try_decode(std::move(bytes));  // only the exception type matters
  }
}

}  // namespace
}  // namespace rmiopt::wire
