// Heap-analysis tests against the paper's own examples: the Figure 2 heap
// graph, the Figure 3/4 termination problem, and the basic data-flow rules
// of §2.
#include <gtest/gtest.h>

#include "analysis/heap_analysis.hpp"
#include "apps/paper_figures.hpp"
#include "ir/builder.hpp"

namespace rmiopt::analysis {
namespace {

using apps::figures::FigureProgram;

TEST(HeapAnalysis, Figure2GraphShape) {
  FigureProgram p = apps::figures::make_figure2();
  ir::verify(*p.module);
  HeapAnalysis heap(*p.module);
  heap.run();

  // Five allocation sites, no remote calls => exactly five nodes.
  EXPECT_EQ(heap.node_count(), 5u);

  const ir::Function& main = *p.module->find_function("Main.main");
  // %0 = new Foo — singleton points-to set.
  const NodeSet& foo_set = heap.points_to(main.id, 0);
  ASSERT_EQ(foo_set.size(), 1u);
  const HeapNode& foo = heap.node(*foo_set.begin());
  EXPECT_EQ(foo.cls, p.cls("Foo"));

  // Foo.bar -> the Bar allocation; Foo.a -> the double[][][] allocation.
  const NodeSet& bar_targets = foo.fields.at(0);
  ASSERT_EQ(bar_targets.size(), 1u);
  EXPECT_EQ(heap.node(*bar_targets.begin()).cls, p.cls("Bar"));

  const NodeSet& a_targets = foo.fields.at(1);
  ASSERT_EQ(a_targets.size(), 1u);
  const HeapNode& a3 = heap.node(*a_targets.begin());
  EXPECT_EQ(a3.cls, p.cls("[L[L[double;;"));
  // Note (paper, Fig. 2): the array-of-arrays is represented by one node
  // per allocation site, not one node per runtime array.
  ASSERT_EQ(a3.elems.size(), 1u);
  const HeapNode& a2 = heap.node(*a3.elems.begin());
  EXPECT_EQ(a2.cls, p.cls("[L[double;"));
  ASSERT_EQ(a2.elems.size(), 1u);
  EXPECT_EQ(heap.node(*a2.elems.begin()).cls, p.cls("[double"));
}

TEST(HeapAnalysis, Figure3TerminatesViaTupleRule) {
  FigureProgram p = apps::figures::make_figure3();
  ir::verify(*p.module);
  HeapAnalysis heap(*p.module);
  heap.run(/*max_nodes=*/1000);  // would explode without the tuple rule

  const ir::Function& zoo = *p.module->find_function("Main.zoo");
  const ir::Function& foo = *p.module->find_function("Foo.foo");

  // t's set: the original allocation (2) plus exactly one clone from the
  // return path (4) — "straight after the creation of <4,2> no further
  // tuples are created" (Fig. 4).  The call's argument is t's loop phi.
  const ir::ValueId t_phi = p.site(p.tag("foo")).instr->operands.at(0);
  const NodeSet& t_loop = heap.points_to(zoo.id, t_phi);
  EXPECT_EQ(t_loop.size(), 2u);

  // foo's parameter: original's clone (3) only; physical ids of all nodes
  // involved equal the single allocation site.
  const NodeSet& param = heap.points_to(foo.id, 0);
  EXPECT_EQ(param.size(), 1u);
  for (LogicalId id : heap.reachable(t_loop)) {
    EXPECT_EQ(heap.node(id).physical, heap.node(*param.begin()).physical);
  }
  // Total nodes: original (2) + param clone (3) + return clone (4), plus
  // the `Foo me = new Foo()` receiver the source allocates.
  EXPECT_EQ(heap.node_count(), 4u);
}

TEST(HeapAnalysis, RemoteCloneMirrorsSubgraphStructure) {
  // Pass a two-level structure through an RMI and check the callee's
  // parameter graph is a structural clone with the same physicals.
  FigureProgram p = apps::figures::make_figure11();
  ir::verify(*p.module);
  HeapAnalysis heap(*p.module);
  heap.run();

  const ir::Function& foo = *p.module->find_function("Foo.foo");
  const NodeSet& param = heap.points_to(foo.id, 0);
  ASSERT_EQ(param.size(), 1u);
  const HeapNode& bar_clone = heap.node(*param.begin());
  EXPECT_TRUE(bar_clone.is_clone);
  EXPECT_EQ(bar_clone.cls, p.cls("Bar"));
  ASSERT_EQ(bar_clone.fields.at(0).size(), 1u);
  const HeapNode& data_clone = heap.node(*bar_clone.fields.at(0).begin());
  EXPECT_TRUE(data_clone.is_clone);
  EXPECT_EQ(data_clone.cls, p.cls("Data"));
}

TEST(HeapAnalysis, LocalCallsFlowWithoutCloning) {
  om::TypeRegistry types;
  const om::ClassId data = types.define_class("Data", {});
  ir::Module m(types);
  ir::Function& helper = m.add_function("helper", {ir::Type::ref(data)},
                                        ir::Type::ref(data));
  {
    ir::FunctionBuilder b(m, helper);
    b.ret(b.param(0));
  }
  ir::Function& main = m.add_function("main", {}, ir::Type::void_type());
  {
    ir::FunctionBuilder b(m, main);
    const auto d = b.alloc(data);
    b.call(helper.id, {d});
    b.ret();
  }
  ir::verify(m);
  HeapAnalysis heap(m);
  heap.run();
  // Local (non-RMI) calls have reference semantics: no clone nodes.
  EXPECT_EQ(heap.node_count(), 1u);
  EXPECT_EQ(heap.points_to(helper.id, 0), heap.points_to(main.id, 0));
}

TEST(HeapAnalysis, StaticsCarryPointsToSets) {
  om::TypeRegistry types;
  const om::ClassId data = types.define_class("Data", {});
  ir::Module m(types);
  const ir::GlobalId g = m.add_global("g", ir::Type::ref(data));
  ir::Function& writer = m.add_function("writer", {}, ir::Type::void_type());
  {
    ir::FunctionBuilder b(m, writer);
    b.store_static(g, b.alloc(data));
    b.ret();
  }
  ir::Function& reader = m.add_function("reader", {}, ir::Type::void_type());
  ir::ValueId loaded;
  {
    ir::FunctionBuilder b(m, reader);
    loaded = b.load_static(g);
    b.ret();
  }
  ir::verify(m);
  HeapAnalysis heap(m);
  heap.run();
  EXPECT_EQ(heap.points_to(reader.id, loaded).size(), 1u);
  EXPECT_EQ(heap.points_to(reader.id, loaded), heap.global_points_to(g));
}

TEST(HeapAnalysis, PhiUnionsItsInputs) {
  om::TypeRegistry types;
  const om::ClassId a_cls = types.define_class("A", {});
  const om::ClassId b_cls = types.define_class("B", {});
  ir::Module m(types);
  ir::Function& f = m.add_function("f", {}, ir::Type::void_type());
  ir::ValueId merged;
  {
    ir::FunctionBuilder b(m, f);
    const auto x = b.alloc(a_cls);
    const auto y = b.alloc(b_cls);
    merged = b.phi({x, y});
    b.ret();
  }
  ir::verify(m);
  HeapAnalysis heap(m);
  heap.run();
  EXPECT_EQ(heap.points_to(f.id, merged).size(), 2u);
}

TEST(HeapAnalysis, FieldStoreLoadRoundTrip) {
  om::TypeRegistry types;
  const om::ClassId data = types.define_class("Data", {});
  const om::ClassId box =
      types.define_class("Box", {{"v", om::TypeKind::Ref, data}});
  ir::Module m(types);
  ir::Function& f = m.add_function("f", {}, ir::Type::void_type());
  ir::ValueId loaded;
  {
    ir::FunctionBuilder b(m, f);
    const auto bx = b.alloc(box);
    const auto d = b.alloc(data);
    b.store_field(bx, "v", d);
    loaded = b.load_field(bx, "v");
    b.ret();
  }
  ir::verify(m);
  HeapAnalysis heap(m);
  heap.run();
  const NodeSet& set = heap.points_to(f.id, loaded);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(heap.node(*set.begin()).cls, data);
}

TEST(HeapAnalysis, ChainedRemoteCallsStayBounded) {
  // a -> remote f -> remote g: two boundary crossings, clones of clones;
  // the tuple rule must still bound the node count.
  om::TypeRegistry types;
  const om::ClassId data = types.define_class("Data", {});
  ir::Module m(types);
  ir::Function& g = m.add_function("g", {ir::Type::ref(data)},
                                   ir::Type::ref(data), true);
  {
    ir::FunctionBuilder b(m, g);
    b.ret(b.param(0));
  }
  ir::Function& f = m.add_function("f", {ir::Type::ref(data)},
                                   ir::Type::ref(data), true);
  {
    ir::FunctionBuilder b(m, f);
    const auto r = b.remote_call(g.id, {b.param(0)}, /*tag=*/2);
    b.ret(r);
  }
  ir::Function& main = m.add_function("main", {}, ir::Type::void_type());
  {
    ir::FunctionBuilder b(m, main);
    const auto d = b.alloc(data);
    b.set_block("loop");
    const auto ph = b.phi({d});
    const auto r = b.remote_call(f.id, {ph}, /*tag=*/1);
    b.append_phi_input(ph, r);
    b.ret();
  }
  ir::verify(m);
  HeapAnalysis heap(m);
  heap.run(/*max_nodes=*/1000);
  EXPECT_LT(heap.node_count(), 20u);
  EXPECT_LT(heap.iterations(), 50u);
}

TEST(HeapAnalysis, ThrowsIfNotRun) {
  om::TypeRegistry types;
  ir::Module m(types);
  ir::Function& f = m.add_function("f", {}, ir::Type::void_type());
  {
    ir::FunctionBuilder b(m, f);
    b.ret();
  }
  HeapAnalysis heap(m);
  EXPECT_THROW(heap.points_to(f.id, 0), Error);
}

}  // namespace
}  // namespace rmiopt::analysis
