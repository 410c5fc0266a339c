// Tests for the serialization subsystem: cycle table, class-specific plans,
// call-site plans, the three type-info modes, and argument reuse.
#include <gtest/gtest.h>

#include "serial/class_plans.hpp"
#include "serial/cycle_table.hpp"
#include "serial/plan.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace rmiopt::serial {
namespace {

using om::ClassId;
using om::ObjRef;
using om::TypeKind;

// ---- cycle table -----------------------------------------------------------

TEST(CycleTable, AssignsSequentialHandles) {
  om::TypeRegistry types;
  om::Heap heap(types);
  const ClassId c = types.define_class("A", {{"x", TypeKind::Int}});
  ObjRef a = heap.alloc(c), b = heap.alloc(c);

  CycleTable t;
  EXPECT_EQ(t.lookup_or_insert(a), -1);
  EXPECT_EQ(t.lookup_or_insert(b), -1);
  EXPECT_EQ(t.lookup_or_insert(a), 0);
  EXPECT_EQ(t.lookup_or_insert(b), 1);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.probes(), 4u);
  heap.free(a);
  heap.free(b);
}

TEST(CycleTable, GrowsPastInitialCapacity) {
  om::TypeRegistry types;
  om::Heap heap(types);
  const ClassId c = types.define_class("A", {{"x", TypeKind::Int}});
  CycleTable t(8);
  std::vector<ObjRef> objs;
  for (int i = 0; i < 1000; ++i) objs.push_back(heap.alloc(c));
  for (ObjRef o : objs) EXPECT_EQ(t.lookup_or_insert(o), -1);
  for (std::size_t i = 0; i < objs.size(); ++i) {
    EXPECT_EQ(t.lookup_or_insert(objs[i]), static_cast<std::int32_t>(i));
  }
  for (ObjRef o : objs) heap.free(o);
}

TEST(CycleTable, ClearResetsHandles) {
  om::TypeRegistry types;
  om::Heap heap(types);
  const ClassId c = types.define_class("A", {});
  ObjRef a = heap.alloc(c);
  CycleTable t;
  t.lookup_or_insert(a);
  t.clear();
  EXPECT_FALSE(t.contains(a));
  EXPECT_EQ(t.lookup_or_insert(a), -1);
  heap.free(a);
}

// ---- fixtures --------------------------------------------------------------

class SerialTest : public ::testing::Test {
 protected:
  SerialTest() : class_plans(types), heap(types) {}

  // A linked-list node class, as in the paper's Figure 14.
  ClassId define_node() {
    node_id = types.define_class(
        "LinkedList", {{"val", TypeKind::Int}, {"Next", TypeKind::Ref}});
    // Self-referential field type.
    return node_id;
  }

  ObjRef make_list(int n, bool cyclic = false) {
    const om::ClassDescriptor& c = types.get(node_id);
    ObjRef head = nullptr, tail = nullptr;
    for (int i = n - 1; i >= 0; --i) {
      ObjRef node = heap.alloc(c);
      node->set<std::int32_t>(c.fields[0], i);
      node->set_ref(c.fields[1], head);
      head = node;
      if (!tail) tail = node;
    }
    if (cyclic && tail) tail->set_ref(types.get(node_id).fields[1], head);
    return head;
  }

  // double[rows][cols], values = r*100+c.
  ObjRef make_matrix(std::uint32_t rows, std::uint32_t cols) {
    const ClassId row_id = types.register_prim_array(TypeKind::Double);
    const ClassId mat_id = types.register_ref_array(row_id);
    ObjRef m = heap.alloc_array(mat_id, rows);
    for (std::uint32_t r = 0; r < rows; ++r) {
      ObjRef row = heap.alloc_array(row_id, cols);
      auto e = row->elems<double>();
      for (std::uint32_t c = 0; c < cols; ++c) e[c] = r * 100.0 + c;
      m->set_elem_ref(r, row);
    }
    return m;
  }

  // A call-site plan for a linked list: inline nodes, cycle checks on.
  std::unique_ptr<NodePlan> list_site_plan(bool cycle_check) {
    const om::ClassDescriptor& c = types.get(node_id);
    // Build a one-node plan and tie the recursion by cloning a chain deep
    // enough is impossible for unbounded lists — the compiler handles
    // recursive types by falling back to a dynamic node for the recursive
    // field (see codegen); tests mirror that.
    auto plan = std::make_unique<NodePlan>();
    plan->expected_class = node_id;
    plan->cycle_check = cycle_check;
    NodePlan::FieldAction val;
    val.field = &c.fields[0];
    plan->fields.push_back(std::move(val));
    NodePlan::FieldAction next;
    next.field = &c.fields[1];
    next.ref_plan = make_dynamic_node(node_id);
    next.ref_plan->cycle_check = cycle_check;
    plan->fields.push_back(std::move(next));
    return plan;
  }

  // A fully inlined call-site plan for double[][]: Figure 13.
  std::unique_ptr<NodePlan> matrix_site_plan(bool cycle_check) {
    const ClassId row_id = types.register_prim_array(TypeKind::Double);
    const ClassId mat_id = types.register_ref_array(row_id);
    auto row = std::make_unique<NodePlan>();
    row->expected_class = row_id;
    row->cycle_check = cycle_check;
    auto mat = std::make_unique<NodePlan>();
    mat->expected_class = mat_id;
    mat->cycle_check = cycle_check;
    mat->elem_plan = std::move(row);
    return mat;
  }

  om::TypeRegistry types;
  ClassPlanRegistry class_plans;
  om::Heap heap;
  ClassId node_id = om::kNoClass;
};

// ---- class-specific (COMPACT) protocol -------------------------------------

TEST_F(SerialTest, ClassModeRoundTripsList) {
  define_node();
  ObjRef list = make_list(10);
  auto root = make_dynamic_node(node_id);

  SerialStats ws;
  SerialWriter w(class_plans, ws, /*cycle_enabled=*/true);
  ByteBuffer buf;
  w.write(buf, *root, list);

  SerialStats rs;
  SerialReader r(class_plans, heap, rs, /*cycle_enabled=*/true);
  ObjRef copy = r.read(buf, *root);

  EXPECT_TRUE(om::deep_equals(list, copy));
  EXPECT_EQ(ws.serializer_invocations, 10u);  // one per object
  EXPECT_EQ(ws.cycle_lookups, 10u);
  EXPECT_EQ(rs.objects_allocated, 10u);
  EXPECT_EQ(rs.type_decodes, 10u);
  EXPECT_GT(ws.type_info_bytes, 0u);
  heap.free_graph(list);
  heap.free_graph(copy);
}

TEST_F(SerialTest, ClassModeRoundTripsCyclicList) {
  define_node();
  ObjRef ring = make_list(5, /*cyclic=*/true);
  auto root = make_dynamic_node(node_id);

  SerialStats ws;
  SerialWriter w(class_plans, ws, true);
  ByteBuffer buf;
  w.write(buf, *root, ring);

  SerialStats rs;
  SerialReader r(class_plans, heap, rs, true);
  ObjRef copy = r.read(buf, *root);
  EXPECT_TRUE(om::deep_equals(ring, copy));
  // 5 inserts + 1 re-probe when the cycle closes.
  EXPECT_EQ(ws.cycle_lookups, 6u);
  EXPECT_EQ(rs.objects_allocated, 5u);
  heap.free_graph(ring);
  heap.free_graph(copy);
}

TEST_F(SerialTest, ClassModePreservesSharing) {
  define_node();
  const ClassId arr = types.register_ref_array(node_id);
  ObjRef shared = make_list(1);
  ObjRef root_obj = heap.alloc_array(arr, 2);
  root_obj->set_elem_ref(0, shared);
  root_obj->set_elem_ref(1, shared);

  auto root = make_dynamic_node(arr);
  SerialStats ws;
  SerialWriter w(class_plans, ws, true);
  ByteBuffer buf;
  w.write(buf, *root, root_obj);

  SerialStats rs;
  SerialReader r(class_plans, heap, rs, true);
  ObjRef copy = r.read(buf, *root);
  EXPECT_EQ(copy->get_elem_ref(0), copy->get_elem_ref(1));
  // Sharing means only 2 objects cross the wire, not 3.
  EXPECT_EQ(rs.objects_allocated, 2u);
  heap.free_graph(root_obj);
  heap.free_graph(copy);
}

TEST_F(SerialTest, ClassModeHandlesPolymorphism) {
  const ClassId base = types.define_class("Base", {{"data", TypeKind::Int}});
  const ClassId derived =
      types.define_class("Derived", {{"extra", TypeKind::Int}}, base);
  const om::ClassDescriptor& dc = types.get(derived);
  ObjRef d = heap.alloc(dc);
  d->set<std::int32_t>(dc.fields[0], 1);
  d->set<std::int32_t>(dc.fields[1], 2);

  // Declared type Base, runtime type Derived: class mode must transmit the
  // runtime type and reconstruct a Derived.
  auto root = make_dynamic_node(base);
  SerialStats ws;
  SerialWriter w(class_plans, ws, true);
  ByteBuffer buf;
  w.write(buf, *root, d);

  SerialStats rs;
  SerialReader r(class_plans, heap, rs, true);
  ObjRef copy = r.read(buf, *root);
  EXPECT_EQ(copy->class_id(), derived);
  EXPECT_TRUE(om::deep_equals(d, copy));
  heap.free(d);
  heap.free(copy);
}

TEST_F(SerialTest, NullReferencesSurvive) {
  define_node();
  ObjRef one = make_list(1);  // Next == null
  auto root = make_dynamic_node(node_id);
  SerialStats ws;
  SerialWriter w(class_plans, ws, true);
  ByteBuffer buf;
  w.write(buf, *root, one);
  w.write(buf, *root, nullptr);

  SerialStats rs;
  SerialReader r(class_plans, heap, rs, true);
  ObjRef copy = r.read(buf, *root);
  EXPECT_TRUE(om::deep_equals(one, copy));
  EXPECT_EQ(r.read(buf, *root), nullptr);
  heap.free_graph(one);
  heap.free_graph(copy);
}

// ---- call-site (BARE) protocol ---------------------------------------------

TEST_F(SerialTest, SitePlanRoundTripsMatrixWithoutTypeInfo) {
  ObjRef m = make_matrix(16, 16);
  auto plan = matrix_site_plan(/*cycle_check=*/false);

  SerialStats ws;
  SerialWriter w(class_plans, ws, /*cycle_enabled=*/false);
  ByteBuffer buf;
  w.write(buf, *plan, m);

  EXPECT_EQ(ws.type_info_bytes, 0u);        // §3.1: no type info on wire
  EXPECT_EQ(ws.serializer_invocations, 0u); // fully inlined
  EXPECT_EQ(ws.cycle_lookups, 0u);          // §3.2: cycle detection elided
  EXPECT_EQ(ws.bytes_copied, 16u * 16u * 8u);

  SerialStats rs;
  SerialReader r(class_plans, heap, rs, false);
  ObjRef copy = r.read(buf, *plan);
  EXPECT_TRUE(om::deep_equals(m, copy));
  EXPECT_EQ(rs.objects_allocated, 17u);
  heap.free_graph(m);
  heap.free_graph(copy);
}

TEST_F(SerialTest, SiteProtocolIsSmallerThanClassProtocol) {
  ObjRef m = make_matrix(16, 16);
  const ClassId row_id = types.register_prim_array(TypeKind::Double);
  const ClassId mat_id = types.register_ref_array(row_id);

  ByteBuffer site_buf, class_buf;
  SerialStats s1, s2;
  auto site = matrix_site_plan(false);
  SerialWriter w1(class_plans, s1, false);
  w1.write(site_buf, *site, m);
  auto klass = make_dynamic_node(mat_id);
  SerialWriter w2(class_plans, s2, true);
  w2.write(class_buf, *klass, m);

  EXPECT_LT(site_buf.size(), class_buf.size());
  EXPECT_EQ(class_buf.size() - site_buf.size(), s2.type_info_bytes);
  heap.free_graph(m);
}

TEST_F(SerialTest, SitePlanWithCycleChecksRoundTripsRing) {
  define_node();
  ObjRef ring = make_list(4, /*cyclic=*/true);
  auto plan = list_site_plan(/*cycle_check=*/true);

  SerialStats ws;
  SerialWriter w(class_plans, ws, /*cycle_enabled=*/true);
  ByteBuffer buf;
  w.write(buf, *plan, ring);

  SerialStats rs;
  SerialReader r(class_plans, heap, rs, true);
  ObjRef copy = r.read(buf, *plan);
  EXPECT_TRUE(om::deep_equals(ring, copy));
  heap.free_graph(ring);
  heap.free_graph(copy);
}

TEST_F(SerialTest, SitePlanTypeMismatchIsACompilerBugAndThrows) {
  define_node();
  const ClassId other = types.define_class("Other", {{"x", TypeKind::Int}});
  ObjRef o = heap.alloc(other);
  auto plan = list_site_plan(false);
  SerialStats ws;
  SerialWriter w(class_plans, ws, false);
  ByteBuffer buf;
  EXPECT_THROW(w.write(buf, *plan, o), Error);
  heap.free(o);
}

// ---- HEAVY (introspective) protocol ----------------------------------------

TEST_F(SerialTest, IntrospectiveRoundTripsAndIsHeaviest) {
  define_node();
  ObjRef list = make_list(10);

  ByteBuffer heavy_buf, compact_buf;
  SerialStats hs, cs;
  auto heavy_root = make_dynamic_node(node_id, TypeInfoMode::FullName);
  SerialWriter wh(class_plans, hs, true);
  wh.write(heavy_buf, *heavy_root, list);
  auto root = make_dynamic_node(node_id);
  SerialWriter wc(class_plans, cs, true);
  wc.write(compact_buf, *root, list);

  EXPECT_GT(heavy_buf.size(), compact_buf.size());
  EXPECT_GT(hs.introspected_fields, 0u);
  EXPECT_EQ(cs.introspected_fields, 0u);

  SerialStats rs;
  SerialReader r(class_plans, heap, rs, true);
  ObjRef copy = r.read(heavy_buf, *heavy_root);
  EXPECT_TRUE(om::deep_equals(list, copy));
  heap.free_graph(list);
  heap.free_graph(copy);
}

TEST_F(SerialTest, IntrospectiveRoundTripsCycles) {
  define_node();
  ObjRef ring = make_list(3, true);
  auto root = make_dynamic_node(node_id, TypeInfoMode::FullName);
  SerialStats ws;
  SerialWriter w(class_plans, ws, true);
  ByteBuffer buf;
  w.write(buf, *root, ring);
  SerialStats rs;
  SerialReader r(class_plans, heap, rs, true);
  ObjRef copy = r.read(buf, *root);
  EXPECT_TRUE(om::deep_equals(ring, copy));
  heap.free_graph(ring);
  heap.free_graph(copy);
}

TEST_F(SerialTest, StringsSerializeAsBulkBytes) {
  ObjRef s = heap.alloc_string("GET /index.html HTTP/1.0");
  auto root = make_dynamic_node(types.string_class());
  SerialStats ws;
  SerialWriter w(class_plans, ws, true);
  ByteBuffer buf;
  w.write(buf, *root, s);
  SerialStats rs;
  SerialReader r(class_plans, heap, rs, true);
  ObjRef copy = r.read(buf, *root);
  EXPECT_EQ(copy->as_string_view(), "GET /index.html HTTP/1.0");
  heap.free(s);
  heap.free(copy);
}

// ---- argument reuse (§3.3, Figure 13) ---------------------------------------

TEST_F(SerialTest, ReuseRewritesCachedMatrixInPlace) {
  ObjRef m1 = make_matrix(16, 16);
  ObjRef m2 = make_matrix(16, 16);
  m2->get_elem_ref(3)->elems<double>()[7] = -42.0;
  auto plan = matrix_site_plan(false);

  // First call: cold, allocates.
  ByteBuffer b1;
  SerialStats s1;
  SerialWriter w1(class_plans, s1, false);
  w1.write(b1, *plan, m1);
  SerialStats r1;
  SerialReader rd1(class_plans, heap, r1, false);
  ObjRef cached = rd1.read_reusing(b1, *plan, nullptr);
  EXPECT_EQ(r1.objects_allocated, 17u);
  EXPECT_EQ(r1.objects_reused, 0u);

  // Second call: same shape, everything reused, zero allocations.
  ByteBuffer b2;
  SerialStats s2;
  SerialWriter w2(class_plans, s2, false);
  w2.write(b2, *plan, m2);
  SerialStats r2;
  SerialReader rd2(class_plans, heap, r2, false);
  ObjRef result = rd2.read_reusing(b2, *plan, cached);
  EXPECT_EQ(result, cached);  // same root object
  EXPECT_EQ(r2.objects_allocated, 0u);
  EXPECT_EQ(r2.objects_reused, 17u);
  EXPECT_TRUE(om::deep_equals(result, m2));
  heap.free_graph(m1);
  heap.free_graph(m2);
  heap.free_graph(result);
}

TEST_F(SerialTest, ReuseReallocatesOnSizeMismatch) {
  ObjRef m1 = make_matrix(16, 16);
  ObjRef m2 = make_matrix(16, 8);  // same row count, shorter rows
  auto plan = matrix_site_plan(false);

  ByteBuffer b1;
  SerialStats s;
  SerialWriter w1(class_plans, s, false);
  w1.write(b1, *plan, m1);
  SerialStats r1;
  SerialReader rd1(class_plans, heap, r1, false);
  ObjRef cached = rd1.read_reusing(b1, *plan, nullptr);

  ByteBuffer b2;
  SerialWriter w2(class_plans, s, false);
  w2.write(b2, *plan, m2);
  SerialStats r2;
  SerialReader rd2(class_plans, heap, r2, false);
  ObjRef result = rd2.read_reusing(b2, *plan, cached);

  // Outer array reused (length 16 matches); 16 rows reallocated at the new
  // size; the 16 orphaned cached rows are freed.
  EXPECT_EQ(r2.objects_reused, 1u);
  EXPECT_EQ(r2.objects_allocated, 16u);
  EXPECT_EQ(r2.objects_freed, 16u);
  EXPECT_TRUE(om::deep_equals(result, m2));
  heap.free_graph(m1);
  heap.free_graph(m2);
  heap.free_graph(result);
}

TEST_F(SerialTest, ReuseHandlesShrinkingList) {
  define_node();
  ObjRef l1 = make_list(10);
  ObjRef l2 = make_list(4);
  auto plan = list_site_plan(/*cycle_check=*/true);

  ByteBuffer b1;
  SerialStats s;
  SerialWriter w1(class_plans, s, true);
  w1.write(b1, *plan, l1);
  SerialStats r1;
  SerialReader rd1(class_plans, heap, r1, true);
  ObjRef cached = rd1.read_reusing(b1, *plan, nullptr);
  EXPECT_EQ(r1.objects_allocated, 10u);

  ByteBuffer b2;
  SerialWriter w2(class_plans, s, true);
  w2.write(b2, *plan, l2);
  SerialStats r2;
  SerialReader rd2(class_plans, heap, r2, true);
  ObjRef result = rd2.read_reusing(b2, *plan, cached);
  EXPECT_TRUE(om::deep_equals(result, l2));
  EXPECT_EQ(r2.objects_reused, 4u);
  EXPECT_EQ(r2.objects_freed, 6u);  // orphaned tail released
  heap.free_graph(l1);
  heap.free_graph(l2);
  heap.free_graph(result);
}

TEST_F(SerialTest, ReuseHandlesGrowingList) {
  define_node();
  ObjRef l1 = make_list(4);
  ObjRef l2 = make_list(9);
  auto plan = list_site_plan(true);

  ByteBuffer b1;
  SerialStats s;
  SerialWriter w1(class_plans, s, true);
  w1.write(b1, *plan, l1);
  SerialStats r1;
  SerialReader rd1(class_plans, heap, r1, true);
  ObjRef cached = rd1.read_reusing(b1, *plan, nullptr);

  ByteBuffer b2;
  SerialWriter w2(class_plans, s, true);
  w2.write(b2, *plan, l2);
  SerialStats r2;
  SerialReader rd2(class_plans, heap, r2, true);
  ObjRef result = rd2.read_reusing(b2, *plan, cached);
  EXPECT_TRUE(om::deep_equals(result, l2));
  EXPECT_EQ(r2.objects_reused, 4u);
  EXPECT_EQ(r2.objects_allocated, 5u);
  heap.free_graph(l1);
  heap.free_graph(l2);
  heap.free_graph(result);
}

TEST_F(SerialTest, ReuseRejectsTypeMismatch) {
  define_node();
  const ClassId other =
      types.define_class("Other", {{"val", TypeKind::Int},
                                   {"Next", TypeKind::Ref}});
  ObjRef cached_obj = heap.alloc(other);

  ObjRef l = make_list(1);
  auto plan = list_site_plan(false);
  ByteBuffer b;
  SerialStats s;
  SerialWriter w(class_plans, s, false);
  w.write(b, *plan, l);
  SerialStats rs;
  SerialReader rd(class_plans, heap, rs, false);
  ObjRef result = rd.read_reusing(b, *plan, cached_obj);
  EXPECT_NE(result, cached_obj);
  EXPECT_EQ(rs.objects_reused, 0u);
  EXPECT_EQ(rs.objects_allocated, 1u);
  EXPECT_EQ(rs.objects_freed, 1u);  // mismatched cache released
  heap.free_graph(l);
  heap.free_graph(result);
}

// ---- pseudocode printer ----------------------------------------------------

TEST_F(SerialTest, PseudocodeShowsInliningAndElision) {
  auto site = std::make_unique<CallSitePlan>();
  site->name = "ArrayBench.benchmark.send#0";
  site->args.push_back(matrix_site_plan(false));
  site->needs_cycle_table = false;
  site->reuse_args = true;
  const std::string code = to_pseudocode(*site, types);
  EXPECT_NE(code.find("cycle detection elided"), std::string::npos);
  EXPECT_NE(code.find("bulk copy, inlined"), std::string::npos);
  EXPECT_NE(code.find("wait_for_ack"), std::string::npos);

  define_node();
  auto classy = std::make_unique<CallSitePlan>();
  classy->name = "class_mode";
  classy->args.push_back(make_dynamic_node(node_id));
  classy->ret = make_dynamic_node(node_id);
  const std::string code2 = to_pseudocode(*classy, types);
  EXPECT_NE(code2.find("dynamic call"), std::string::npos);
  EXPECT_NE(code2.find("wait_for_return_value"), std::string::npos);
}

}  // namespace
}  // namespace rmiopt::serial
