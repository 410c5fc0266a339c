// Precision tests for the analyses: per-call-site specialization (the
// reason the paper generates marshalers per call site rather than per
// callee), interactions of globals/arrays with RMI boundaries, and the
// heap-graph printer.
#include <gtest/gtest.h>

#include "apps/paper_figures.hpp"
#include "driver/compile.hpp"

namespace rmiopt::analysis {
namespace {

using apps::figures::FigureProgram;

TEST(Precision, CalleeParamSetsMergeButCallSitesStayPrecise) {
  // Figure 5: Work.foo is called with Derived1 at site 1 and Derived2 at
  // site 2.  The callee's parameter set is the merge (2 classes), yet the
  // generated plans are exact per site — the central claim of §3.1.
  FigureProgram p = apps::figures::make_figure5();
  ir::verify(*p.module);
  HeapAnalysis heap(*p.module);
  heap.run();

  const ir::Function& foo = *p.module->find_function("Work.foo");
  EXPECT_EQ(heap.points_to(foo.id, 0).size(), 2u);  // merged at the callee

  const auto site1_args = heap.remote_arg_sets(p.site(p.tags_for("Work.foo").at(0)));
  const auto site2_args = heap.remote_arg_sets(p.site(p.tags_for("Work.foo").at(1)));
  ASSERT_EQ(site1_args[0].size(), 1u);  // exact at each call site
  ASSERT_EQ(site2_args[0].size(), 1u);
  EXPECT_EQ(heap.node(*site1_args[0].begin()).cls, p.cls("Derived1"));
  EXPECT_EQ(heap.node(*site2_args[0].begin()).cls, p.cls("Derived2"));
}

TEST(Precision, CalleeLevelPlanWouldBePolymorphic) {
  // Control experiment: generating from the callee's merged parameter set
  // (what a per-callee generator would do) yields a dynamic plan, whereas
  // both per-site plans inline — quantifying the per-call-site advantage.
  FigureProgram p = apps::figures::make_figure5();
  driver::CompiledProgram prog =
      driver::compile(*p.module, codegen::OptLevel::Site);
  EXPECT_EQ(prog.site(p.tags_for("Work.foo").at(0)).dynamic_nodes, 0u);
  EXPECT_EQ(prog.site(p.tags_for("Work.foo").at(1)).dynamic_nodes, 0u);

  // The merged set has two classes — build_node would have to fall back.
  ir::verify(*p.module);
  HeapAnalysis heap(*p.module);
  heap.run();
  const ir::Function& foo = *p.module->find_function("Work.foo");
  const NodeSet& merged = heap.points_to(foo.id, 0);
  std::set<om::ClassId> classes;
  for (LogicalId id : merged) classes.insert(heap.node(id).cls);
  EXPECT_EQ(classes.size(), 2u);
}

TEST(Precision, ReturnGraphsAreClonedPerCallSite) {
  // Two call sites invoking the same returning method get *separate*
  // clone sets — reuse/cycle decisions cannot leak between sites.
  om::TypeRegistry types;
  const om::ClassId data = types.define_class("Data", {});
  ir::Module m(types);
  ir::Function& get = m.add_function("get", {}, ir::Type::ref(data),
                                     /*is_remote_method=*/true);
  {
    ir::FunctionBuilder b(m, get);
    b.ret(b.alloc(data));
  }
  ir::Function& a = m.add_function("a", {}, ir::Type::void_type());
  ir::ValueId ra;
  {
    ir::FunctionBuilder b(m, a);
    ra = b.remote_call(get.id, {}, 1);
    b.move(ra);  // result is used
    b.ret();
  }
  ir::Function& c = m.add_function("c", {}, ir::Type::void_type());
  ir::ValueId rc;
  {
    ir::FunctionBuilder b(m, c);
    rc = b.remote_call(get.id, {}, 2);
    b.move(rc);
    b.ret();
  }
  ir::verify(m);
  HeapAnalysis heap(m);
  heap.run();
  const NodeSet& sa = heap.points_to(a.id, ra);
  const NodeSet& sc = heap.points_to(c.id, rc);
  ASSERT_EQ(sa.size(), 1u);
  ASSERT_EQ(sc.size(), 1u);
  EXPECT_NE(*sa.begin(), *sc.begin());  // distinct clones
  EXPECT_EQ(heap.node(*sa.begin()).physical,
            heap.node(*sc.begin()).physical);  // same origin site
}

TEST(Precision, ArrayElementsFlowThroughRmiClones) {
  // double[][] passed through an RMI: the callee's clone graph must keep
  // the outer->inner element edge.
  FigureProgram p = apps::figures::make_figure12();
  ir::verify(*p.module);
  HeapAnalysis heap(*p.module);
  heap.run();
  const ir::Function& send = *p.module->find_function("ArrayBench.send");
  const NodeSet& param = heap.points_to(send.id, 0);
  ASSERT_EQ(param.size(), 1u);
  const HeapNode& outer = heap.node(*param.begin());
  EXPECT_TRUE(outer.is_clone);
  ASSERT_EQ(outer.elems.size(), 1u);
  EXPECT_TRUE(heap.node(*outer.elems.begin()).is_clone);
  EXPECT_EQ(heap.node(*outer.elems.begin()).cls, p.cls("[double"));
}

TEST(Precision, GlobalsReachedThroughRmiKeepIdentity) {
  // The webserver's pages live in a static table; the *originals* must
  // not be marked as clones, while the caller's result nodes are clones.
  FigureProgram p = apps::figures::make_webserver_model();
  ir::verify(*p.module);
  HeapAnalysis heap(*p.module);
  heap.run();
  const ir::Function& get_page = *p.module->find_function("Server.get_page");
  for (LogicalId id : heap.return_set(get_page.id)) {
    EXPECT_FALSE(heap.node(id).is_clone);
  }
  const ir::Module::RemoteCallRef site = p.site(p.tag("get_page"));
  const ir::Function& master = *p.module->find_function("Master.serve");
  const NodeSet& result = heap.points_to(master.id, site.instr->result);
  ASSERT_FALSE(result.empty());
  for (LogicalId id : result) {
    EXPECT_TRUE(heap.node(id).is_clone);
  }
}

TEST(Precision, HeapGraphPrinterShowsFigure2Shape) {
  FigureProgram p = apps::figures::make_figure2();
  ir::verify(*p.module);
  HeapAnalysis heap(*p.module);
  heap.run();
  const std::string dump = to_string(heap);
  EXPECT_NE(dump.find("Foo"), std::string::npos);
  EXPECT_NE(dump.find(".bar"), std::string::npos);
  EXPECT_NE(dump.find(".a"), std::string::npos);
  EXPECT_NE(dump.find("[] ->"), std::string::npos);  // array element edges
  EXPECT_EQ(dump.find("clone"), std::string::npos);  // no RMIs here
}

TEST(Precision, EscapeVerdictsAreLevelIndependentFacts) {
  FigureProgram p = apps::figures::make_webserver_model();
  for (const auto level : codegen::kPaperLevels) {
    driver::CompiledProgram prog = driver::compile(*p.module, level);
    const auto& d = prog.site(p.tag("get_page"));
    EXPECT_TRUE(d.args_reusable) << codegen::to_string(level);
    EXPECT_TRUE(d.ret_reusable) << codegen::to_string(level);
    EXPECT_TRUE(d.proved_acyclic) << codegen::to_string(level);
  }
}

}  // namespace
}  // namespace rmiopt::analysis
