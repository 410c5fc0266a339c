// Tests for the zero-copy scatter-gather send path: the GatherBuffer
// segment list, the serializer's borrowed inline primitive-array rows,
// the seal that pins frame images against post-send mutation, and the
// end-to-end guarantee that gathering never changes the bytes on the
// wire — even across ARQ retransmits under a lossy fault plan.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "apps/microbench.hpp"
#include "serial/class_plans.hpp"
#include "serial/plan.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"
#include "support/gather_buffer.hpp"
#include "wire/framing.hpp"
#include "wire/session.hpp"

namespace rmiopt {
namespace {

// ---- GatherBuffer unit ------------------------------------------------------

TEST(GatherBuffer, PutApisMatchByteBuffer) {
  ByteBuffer expect;
  support::GatherBuffer got;
  expect.put_u8(7);
  expect.put_i32(-5);
  expect.put_u32(0xdeadbeef);
  expect.put_i64(-1234567890123);
  expect.put_f64(3.25);
  expect.put_varint(0);
  expect.put_varint(127);
  expect.put_varint(128);
  expect.put_varint(UINT64_MAX);
  expect.put_string("gather");

  got.put_u8(7);
  got.put_i32(-5);
  got.put_u32(0xdeadbeef);
  got.put_i64(-1234567890123);
  got.put_f64(3.25);
  got.put_varint(0);
  got.put_varint(127);
  got.put_varint(128);
  got.put_varint(UINT64_MAX);
  got.put_string("gather");

  const auto e = expect.contents();
  EXPECT_EQ(got.gather(), std::vector<std::uint8_t>(e.begin(), e.end()));
  EXPECT_EQ(got.size(), e.size());
  EXPECT_EQ(got.bytes_borrowed(), 0u);
  EXPECT_EQ(got.segment_count(), 1u);  // pure puts coalesce into one chunk
}

TEST(GatherBuffer, SmallSpansDeclineTheBorrow) {
  support::GatherBuffer g(/*min_borrow_bytes=*/64);
  const std::vector<std::uint8_t> small(8, 0xab);
  EXPECT_FALSE(g.borrow(small.data(), small.size()));
  EXPECT_EQ(g.bytes_borrowed(), 0u);
  EXPECT_EQ(g.gather(), small);  // copied, not lost
}

TEST(GatherBuffer, BorrowAliasesUntilSealed) {
  support::GatherBuffer g(/*min_borrow_bytes=*/16,
                          /*pin_copy_threshold=*/16);
  std::vector<std::uint8_t> payload(64, 0x11);
  g.put_u8(0xfe);
  ASSERT_TRUE(g.borrow(payload.data(), payload.size()));
  g.put_u8(0xff);
  EXPECT_EQ(g.bytes_borrowed(), 64u);
  EXPECT_EQ(g.segment_count(), 3u);
  EXPECT_EQ(g.size(), 66u);

  // Before seal the segment aliases application memory: a mutation shows.
  payload[0] = 0x22;
  EXPECT_EQ(g.gather()[1], 0x22);

  // After seal the image is frozen, whatever the application does.
  g.seal();
  const std::vector<std::uint8_t> sealed_image = g.gather();
  payload.assign(payload.size(), 0x99);
  EXPECT_EQ(g.gather(), sealed_image);
  g.seal();  // idempotent
  EXPECT_EQ(g.gather(), sealed_image);
  EXPECT_EQ(g.bytes_pinned(), 64u);  // above the pin threshold: snapshot
}

TEST(GatherBuffer, SealFoldsSegmentsUnderThePinThreshold) {
  support::GatherBuffer g(/*min_borrow_bytes=*/16,
                          /*pin_copy_threshold=*/256);
  std::vector<std::uint8_t> payload(64, 0x44);
  ASSERT_TRUE(g.borrow(payload.data(), payload.size()));
  g.seal();
  EXPECT_EQ(g.bytes_pinned(), 0u);  // 64 < 256: copy-on-seal, no refcount
  payload.assign(payload.size(), 0x00);
  EXPECT_EQ(g.gather(), std::vector<std::uint8_t>(64, 0x44));
}

TEST(GatherBuffer, WritesAfterSealAreRejected) {
  support::GatherBuffer g;
  g.put_u8(1);
  g.seal();
  EXPECT_THROW(g.put_u8(2), Error);
  std::vector<std::uint8_t> payload(128, 0);
  EXPECT_THROW(g.borrow(payload.data(), payload.size()), Error);
}

// ---- serializer: gathered vs contiguous -------------------------------------

class GatherWriterTest : public ::testing::Test {
 protected:
  GatherWriterTest() : class_plans(types), heap(types) {}

  om::ObjRef make_matrix(std::uint32_t rows, std::uint32_t cols) {
    const om::ClassId row_id = types.register_prim_array(om::TypeKind::Double);
    const om::ClassId mat_id = types.register_ref_array(row_id);
    om::ObjRef m = heap.alloc_array(mat_id, rows);
    for (std::uint32_t r = 0; r < rows; ++r) {
      om::ObjRef row = heap.alloc_array(row_id, cols);
      auto e = row->elems<double>();
      for (std::uint32_t c = 0; c < cols; ++c) e[c] = r * 100.0 + c;
      m->set_elem_ref(r, row);
    }
    return m;
  }

  std::unique_ptr<serial::NodePlan> matrix_site_plan() {
    const om::ClassId row_id = types.register_prim_array(om::TypeKind::Double);
    const om::ClassId mat_id = types.register_ref_array(row_id);
    auto row = std::make_unique<serial::NodePlan>();
    row->expected_class = row_id;
    auto mat = std::make_unique<serial::NodePlan>();
    mat->expected_class = mat_id;
    mat->elem_plan = std::move(row);
    return mat;
  }

  om::TypeRegistry types;
  serial::ClassPlanRegistry class_plans;
  om::Heap heap;
};

TEST_F(GatherWriterTest, GatheredImageMatchesContiguousByteForByte) {
  om::ObjRef m = make_matrix(4, 16);  // 128-byte rows: all borrow
  auto plan = matrix_site_plan();

  serial::SerialStats cs;
  serial::SerialWriter cw(class_plans, cs, /*cycle_enabled=*/false);
  ByteBuffer contiguous;
  cw.write(contiguous, *plan, m);

  serial::SerialStats gs;
  serial::SerialWriter gw(class_plans, gs, /*cycle_enabled=*/false);
  support::GatherBuffer gathered(/*min_borrow_bytes=*/64);
  gw.write(gathered, *plan, m);

  const auto e = contiguous.contents();
  EXPECT_EQ(gathered.gather(), std::vector<std::uint8_t>(e.begin(), e.end()));

  // Every inline primitive-array row rode as a borrowed segment: zero
  // per-row memcpys, and the copy counter dropped by exactly those bytes.
  EXPECT_EQ(gs.gather_segments, 4u);
  EXPECT_EQ(gs.gather_bytes_borrowed, 4u * 16u * sizeof(double));
  EXPECT_EQ(cs.gather_segments, 0u);
  EXPECT_EQ(cs.bytes_copied, gs.bytes_copied + gs.gather_bytes_borrowed);

  // A reader pointed at the gathered image sees the same object graph.
  serial::SerialStats rs;
  serial::SerialReader r(class_plans, heap, rs, /*cycle_enabled=*/false);
  ByteBuffer in{gathered.gather()};
  om::ObjRef copy = r.read(in, *plan);
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->length(), 4u);
  EXPECT_DOUBLE_EQ(copy->get_elem_ref(2)->elems<double>()[3], 203.0);
}

TEST_F(GatherWriterTest, DynamicFallbackRowsStillCopy) {
  om::ObjRef m = make_matrix(2, 16);
  // A dynamic-dispatch node (no compile-time class): the gathered path
  // must keep copying here — borrowing is an *inline* node optimization.
  auto dyn = serial::make_dynamic_node(m->class_id());

  serial::SerialStats gs;
  serial::SerialWriter gw(class_plans, gs, /*cycle_enabled=*/true);
  support::GatherBuffer gathered(/*min_borrow_bytes=*/16);
  gw.write(gathered, *dyn, m);
  EXPECT_EQ(gs.gather_segments, 0u);
  EXPECT_EQ(gs.gather_bytes_borrowed, 0u);
  EXPECT_EQ(gathered.bytes_borrowed(), 0u);
}

// ---- S4: retransmit after mutation ------------------------------------------

TEST_F(GatherWriterTest, RetransmittedGatheredFrameIsByteIdentical) {
  om::ObjRef m = make_matrix(2, 32);  // 256-byte rows: borrowed, then pinned
  auto plan = matrix_site_plan();

  wire::Message msg;
  msg.header.kind = wire::MsgKind::Call;
  msg.header.source_machine = 0;
  msg.header.dest_machine = 1;
  msg.gathered = std::make_shared<support::GatherBuffer>(
      /*min_borrow_bytes=*/64, /*pin_copy_threshold=*/128);
  serial::SerialStats s;
  serial::SerialWriter w(class_plans, s, /*cycle_enabled=*/false);
  w.write(*msg.gathered, *plan, m);
  ASSERT_GT(msg.gathered->bytes_borrowed(), 0u);
  // Deliberately NOT sealing here: Session::post seals defensively before
  // the frame can be queued or retransmitted.

  std::uint64_t retransmits = 0;
  wire::Session session(0, 1, wire::SessionConfig{},
                        [&](wire::Occurrence what, auto, auto, auto, auto) {
                          retransmits += what == wire::Occurrence::Retransmit;
                        });
  std::vector<std::vector<std::uint8_t>> attempts;
  session.post(std::move(msg), [&](const wire::Frame& frame) {
    attempts.push_back(std::move(wire::encode_frame(frame)).take());
    if (attempts.size() == 1) {
      // Between the first transmission and the retransmit the application
      // rewrites the borrowed row in place — the classic zero-copy hazard.
      auto e = m->get_elem_ref(0)->elems<double>();
      for (std::uint32_t c = 0; c < 32; ++c) e[c] = -1.0;
      return wire::SendOutcome::Timeout;
    }
    return wire::SendOutcome::Delivered;
  });

  ASSERT_EQ(attempts.size(), 2u);
  EXPECT_EQ(attempts[0], attempts[1]);
  EXPECT_EQ(retransmits, 1u);

  // And the image carries the *pre-mutation* bytes: the frame was sealed
  // when it entered the session, not re-gathered per attempt.
  ByteBuffer img{std::vector<std::uint8_t>(attempts[1])};
  const wire::Frame decoded = wire::decode_frame(img);
  serial::SerialStats rs;
  serial::SerialReader r(class_plans, heap, rs, /*cycle_enabled=*/false);
  ByteBuffer in{std::vector<std::uint8_t>(
      decoded.messages.front().payload.contents().begin(),
      decoded.messages.front().payload.contents().end())};
  om::ObjRef copy = r.read(in, *plan);
  EXPECT_DOUBLE_EQ(copy->get_elem_ref(0)->elems<double>()[5], 5.0);
}

// ---- end to end: lossy link, both transports --------------------------------

TEST(GatherSendEndToEnd, LossyLinkRetransmitsDeliverCorrectResults) {
  for (const auto tk :
       {net::TransportKind::Sim, net::TransportKind::Loopback}) {
    apps::ArrayBenchConfig cfg;
    cfg.rows = 16;
    cfg.cols = 16;
    cfg.iterations = 60;
    cfg.cost.zero_copy_send = true;
    cfg.transport = tk;
    cfg.faults.seed = 0x5EA1;
    cfg.faults.default_link = {.drop = 0.08};

    apps::ArrayBenchConfig base = cfg;
    base.cost.zero_copy_send = false;

    const apps::RunResult gathered =
        apps::run_array_bench(codegen::OptLevel::Site, cfg);
    const apps::RunResult contiguous =
        apps::run_array_bench(codegen::OptLevel::Site, base);

    // Drops forced the ARQ to resend sealed gathered frames...
    EXPECT_GT(gathered.net.retransmits, 0u);
    EXPECT_GT(gathered.total.serial.gather_bytes_borrowed, 0u);
    // ...and the receiver still saw exactly the bytes the contiguous path
    // would have produced: the app-level checksum agrees.
    EXPECT_DOUBLE_EQ(gathered.check, contiguous.check);
  }
}

}  // namespace
}  // namespace rmiopt
