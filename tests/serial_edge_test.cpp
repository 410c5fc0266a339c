// Edge-case tests for the serialization subsystem: protocol violations,
// unknown classes, wire classes outside a node's declared type, handle
// misuse, and the zero-copy cost accounting.
#include <gtest/gtest.h>

#include "serial/class_plans.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"
#include "wire/protocol.hpp"

namespace rmiopt::serial {
namespace {

using om::ClassId;
using om::ObjRef;
using om::TypeKind;

class SerialEdgeTest : public ::testing::Test {
 protected:
  SerialEdgeTest() : class_plans(types), heap(types) {
    point = types.define_class(
        "Point", {{"x", TypeKind::Double}, {"y", TypeKind::Double}});
    darr = types.register_prim_array(TypeKind::Double);
  }
  om::TypeRegistry types;
  ClassPlanRegistry class_plans;
  om::Heap heap;
  ClassId point = om::kNoClass;
  ClassId darr = om::kNoClass;
};

TEST_F(SerialEdgeTest, HandleTagWithoutCycleProtocolThrows) {
  auto plan = serial::make_dynamic_node(point);
  ByteBuffer buf;
  buf.put_u8(wire::kTagHandle);
  buf.put_varint(0);
  SerialStats rs;
  SerialReader r(class_plans, heap, rs, /*cycle_enabled=*/false);
  EXPECT_THROW(r.read(buf, *plan), Error);
}

TEST_F(SerialEdgeTest, DanglingHandleThrows) {
  auto plan = serial::make_dynamic_node(point);
  ByteBuffer buf;
  buf.put_u8(wire::kTagHandle);
  buf.put_varint(7);  // no object was ever registered
  SerialStats rs;
  SerialReader r(class_plans, heap, rs, /*cycle_enabled=*/true);
  EXPECT_THROW(r.read(buf, *plan), Error);
}

TEST_F(SerialEdgeTest, UnknownClassIdOnWireThrows) {
  auto plan = serial::make_dynamic_node(point);
  ByteBuffer buf;
  buf.put_u8(wire::kTagInline);
  buf.put_varint(9999);
  SerialStats rs;
  SerialReader r(class_plans, heap, rs, true);
  EXPECT_THROW(r.read(buf, *plan), DecodeError);
}

TEST_F(SerialEdgeTest, UnknownClassNameOnHeavyWireThrows) {
  auto plan = serial::make_dynamic_node(om::kNoClass, TypeInfoMode::FullName);
  ByteBuffer buf;
  buf.put_u8(wire::kTagInline);
  buf.put_string("com/example/DoesNotExist");
  SerialStats rs;
  SerialReader r(class_plans, heap, rs, true);
  EXPECT_THROW(r.read(buf, *plan), DecodeError);
}

// A dynamic node declared Point must not materialize a double[] the
// stream names, in either type-info mode: a handler reading the second
// field of that "Point" would read past the array's 8-byte payload.
TEST_F(SerialEdgeTest, WireClassOutsideDeclaredTypeThrowsWithClassIds) {
  auto plan = serial::make_dynamic_node(point);
  ByteBuffer buf;
  buf.put_u8(wire::kTagInline);
  buf.put_varint(darr);
  buf.put_varint(1);
  buf.put_f64(1.5);
  SerialStats rs;
  SerialReader r(class_plans, heap, rs, true);
  EXPECT_THROW(r.read(buf, *plan), DecodeError);
  EXPECT_EQ(rs.objects_allocated, 0u);
}

TEST_F(SerialEdgeTest, WireClassOutsideDeclaredTypeThrowsWithClassNames) {
  auto plan = serial::make_dynamic_node(point, TypeInfoMode::FullName);
  ByteBuffer buf;
  buf.put_u8(wire::kTagInline);
  buf.put_string(types.get(darr).name);
  buf.put_varint(1);
  buf.put_f64(1.5);
  SerialStats rs;
  SerialReader r(class_plans, heap, rs, true);
  EXPECT_THROW(r.read(buf, *plan), DecodeError);
  EXPECT_EQ(rs.objects_allocated, 0u);
}

TEST_F(SerialEdgeTest, SubclassesOfTheDeclaredTypeDecodeInBothModes) {
  const ClassId point3 =
      types.define_class("Point3", {{"z", TypeKind::Double}}, point);
  ObjRef p = heap.alloc(point3);
  for (TypeInfoMode mode : {TypeInfoMode::CompactId, TypeInfoMode::FullName}) {
    for (ClassId declared : {point, om::kNoClass}) {
      auto plan = serial::make_dynamic_node(declared, mode);
      SerialStats ws;
      SerialWriter w(class_plans, ws, true);
      ByteBuffer buf;
      w.write(buf, *plan, p);
      SerialStats rs;
      SerialReader r(class_plans, heap, rs, true);
      ObjRef copy = r.read(buf, *plan);
      EXPECT_EQ(copy->class_id(), point3);
      EXPECT_TRUE(om::deep_equals(p, copy));
      heap.free(copy);
    }
  }
  heap.free(p);
}

TEST_F(SerialEdgeTest, CorruptTagThrows) {
  auto plan = serial::make_dynamic_node(point);
  ByteBuffer buf;
  buf.put_u8(0x7f);
  SerialStats rs;
  SerialReader r(class_plans, heap, rs, true);
  EXPECT_THROW(r.read(buf, *plan), Error);
}

TEST_F(SerialEdgeTest, OversizedArrayLengthIsRejectedBeforeAllocation) {
  auto plan = std::make_unique<NodePlan>();
  plan->expected_class = darr;
  ByteBuffer buf;
  buf.put_u8(wire::kTagInline);
  buf.put_varint(1ull << 40);  // claims ~8 TB of doubles
  SerialStats rs;
  SerialReader r(class_plans, heap, rs, false);
  EXPECT_THROW(r.read(buf, *plan), Error);
  EXPECT_EQ(rs.objects_allocated, 0u);  // rejected before allocating
}

TEST_F(SerialEdgeTest, EmptyArraysAndStringsRoundTrip) {
  ObjRef arr = heap.alloc_array(darr, 0);
  ObjRef str = heap.alloc_string("");
  for (ObjRef obj : {arr, str}) {
    auto root = serial::make_dynamic_node(obj->class_id());
    SerialStats ws;
    SerialWriter w(class_plans, ws, true);
    ByteBuffer buf;
    w.write(buf, *root, obj);
    SerialStats rs;
    SerialReader r(class_plans, heap, rs, true);
    ObjRef copy = r.read(buf, *root);
    EXPECT_TRUE(om::deep_equals(obj, copy));
    EXPECT_EQ(copy->length(), 0u);
    heap.free(copy);
  }
  heap.free(arr);
  heap.free(str);
}

TEST_F(SerialEdgeTest, ZeroCopyReceiveReducesCpuCost) {
  // Real-counter semantics: a pass that borrowed a large row out of the
  // pinned frame (recv_*) is cheaper than the same volume memcpy'd out
  // (bytes_copied_rx) — per-segment bookkeeping + per-KB preprocessing
  // beat the per-byte copy above the threshold.
  CostModel m;
  SerialStats copied;
  copied.bytes_copied_rx = 4096;
  SerialStats borrowed;
  borrowed.recv_segments = 1;
  borrowed.recv_bytes_borrowed = 4096;
  EXPECT_LT(borrowed.cpu_cost(m), copied.cpu_cost(m));
  // Under the crossover, many tiny segments cost more than one memcpy.
  SerialStats tiny_borrows;
  tiny_borrows.recv_segments = 64;
  tiny_borrows.recv_bytes_borrowed = 4096;
  SerialStats tiny_copy;
  tiny_copy.bytes_copied_rx = 4096;
  EXPECT_GT(tiny_borrows.cpu_cost(m), tiny_copy.cpu_cost(m));
  // Bytes that really were copied are charged identically with the knob
  // on or off — the knob changes which counters get populated, not the
  // price of a copy.
  CostModel zc;
  zc.zero_copy_receive = true;
  EXPECT_EQ(copied.cpu_cost(zc), copied.cpu_cost(m));
}

TEST_F(SerialEdgeTest, LazyCycleTableOnlyCountsWhenProbed) {
  // A message with no reference arguments never sets up a cycle table.
  SerialStats ws;
  SerialWriter w(class_plans, ws, /*cycle_enabled=*/true);
  ByteBuffer buf;
  auto plan = serial::make_dynamic_node(point);
  w.write(buf, *plan, nullptr);  // null argument: tag only
  EXPECT_EQ(ws.cycle_tables_created, 0u);
  EXPECT_EQ(ws.cycle_lookups, 0u);

  ObjRef p = heap.alloc(point);
  w.write(buf, *plan, p);
  EXPECT_EQ(ws.cycle_tables_created, 1u);
  w.write(buf, *plan, p);  // same pass: still one table
  EXPECT_EQ(ws.cycle_tables_created, 1u);
  heap.free(p);
}

}  // namespace
}  // namespace rmiopt::serial
