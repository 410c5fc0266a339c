// Plan-generation tests: call-site vs class-specific generated code
// (Figures 5–7), the generated array marshaler (Figures 12/13), return
// elision, recursion/polymorphism fallbacks, and the end-to-end driver.
#include <gtest/gtest.h>

#include "apps/paper_figures.hpp"
#include "driver/compile.hpp"

namespace rmiopt::driver {
namespace {

using apps::figures::FigureProgram;
using codegen::OptLevel;

TEST(Codegen, Figure5CallSitePlansAreSpecializedPerSite) {
  FigureProgram p = apps::figures::make_figure5();
  CompiledProgram prog = compile(*p.module, OptLevel::SiteReuseCycle);
  ASSERT_EQ(prog.sites.size(), 2u);

  // Call site 1: argument statically resolves to Derived1 — fully inlined,
  // one int field, no dynamic dispatch (Figure 6, marshaler_Work.go.1).
  const auto& s1 = prog.site(p.tags_for("Work.foo").at(0));
  ASSERT_EQ(s1.plan->args.size(), 1u);
  const serial::NodePlan& a1 = *s1.plan->args[0];
  EXPECT_FALSE(a1.is_dynamic());
  EXPECT_EQ(a1.expected_class, p.cls("Derived1"));
  EXPECT_EQ(a1.type_info, serial::TypeInfoMode::None);
  ASSERT_EQ(a1.fields.size(), 1u);
  EXPECT_EQ(a1.fields[0].field->name, "data");

  // Call site 2: Derived2 whose 'p' field is followed into Derived1
  // (Figure 6, marshaler_Work.go.2 copies s.p.data directly).
  const auto& s2 = prog.site(p.tags_for("Work.foo").at(1));
  const serial::NodePlan& a2 = *s2.plan->args[0];
  EXPECT_FALSE(a2.is_dynamic());
  EXPECT_EQ(a2.expected_class, p.cls("Derived2"));
  ASSERT_EQ(a2.fields.size(), 1u);
  ASSERT_NE(a2.fields[0].ref_plan, nullptr);
  EXPECT_FALSE(a2.fields[0].ref_plan->is_dynamic());
  EXPECT_EQ(a2.fields[0].ref_plan->expected_class, p.cls("Derived1"));

  EXPECT_EQ(s1.dynamic_nodes, 0u);
  EXPECT_EQ(s2.dynamic_nodes, 0u);
  EXPECT_TRUE(s1.proved_acyclic);
  EXPECT_FALSE(s1.plan->needs_cycle_table);
}

TEST(Codegen, Figure7ClassModePlansAreDynamic) {
  FigureProgram p = apps::figures::make_figure5();
  CompiledProgram prog = compile(*p.module, OptLevel::Class);
  const auto& s1 = prog.site(p.tags_for("Work.foo").at(0));
  const serial::NodePlan& a1 = *s1.plan->args[0];
  // Figure 7: "s.serialize(m); // note: method call" — dynamic dispatch
  // from the declared type, type info on the wire, cycle table on.
  EXPECT_TRUE(a1.is_dynamic());
  EXPECT_EQ(a1.expected_class, p.cls("Base"));
  EXPECT_EQ(a1.type_info, serial::TypeInfoMode::CompactId);
  EXPECT_TRUE(a1.cycle_check);
  EXPECT_TRUE(s1.plan->needs_cycle_table);
  EXPECT_FALSE(s1.plan->reuse_args);
}

TEST(Codegen, Figure13ArrayMarshalerShape) {
  FigureProgram p = apps::figures::make_figure12();
  CompiledProgram prog = compile(*p.module, OptLevel::SiteReuseCycle);
  const auto& s = prog.site(p.tag("send"));

  // Fully inlined double[][] plan: outer ref-array node -> inner
  // prim-array node, no cycle checks, argument reusable, ACK reply.
  EXPECT_FALSE(s.plan->needs_cycle_table);
  EXPECT_TRUE(s.plan->reuse_args);
  EXPECT_EQ(s.plan->ret, nullptr);
  const serial::NodePlan& outer = *s.plan->args[0];
  EXPECT_EQ(outer.expected_class, p.cls("[L[double;"));
  EXPECT_FALSE(outer.is_dynamic());
  ASSERT_NE(outer.elem_plan, nullptr);
  EXPECT_EQ(outer.elem_plan->expected_class, p.cls("[double"));
  EXPECT_FALSE(outer.elem_plan->is_dynamic());

  // The pseudo code reads like Figure 13.
  const std::string code = serial::to_pseudocode(*s.plan, *p.types);
  EXPECT_NE(code.find("cycle detection elided"), std::string::npos);
  EXPECT_NE(code.find("append_double_array"), std::string::npos);
  EXPECT_NE(code.find("wait_for_ack"), std::string::npos);
}

TEST(Codegen, Figure14RecursiveListInlinesAsMonomorphicLoop) {
  FigureProgram p = apps::figures::make_figure14();
  CompiledProgram prog = compile(*p.module, OptLevel::SiteReuseCycle);
  const auto& s = prog.site(p.tag("send"));
  // The head node is inlined; the recursive Next field unambiguously holds
  // a LinkedList, so §3.1 eliminates the recursive serializer call: the
  // generated code loops back into the head's inlined body.
  const serial::NodePlan& head = *s.plan->args[0];
  EXPECT_FALSE(head.is_dynamic());
  EXPECT_EQ(head.expected_class, p.cls("LinkedList"));
  ASSERT_EQ(head.fields.size(), 1u);
  ASSERT_NE(head.fields[0].ref_plan, nullptr);
  EXPECT_FALSE(head.fields[0].ref_plan->is_dynamic());
  EXPECT_EQ(head.fields[0].ref_plan->recurse_to, &head);
  EXPECT_EQ(s.recursive_nodes, 1u);
  EXPECT_EQ(s.dynamic_nodes, 0u);
  // §7: the list is misclassified as possibly cyclic, so the cycle table
  // stays on even at the site+cycle level...
  EXPECT_TRUE(s.plan->needs_cycle_table);
  // ...but reuse applies (Table 1's big win).
  EXPECT_TRUE(s.plan->reuse_args);
}

TEST(Codegen, ReturnElisionProducesAckOnlyPlan) {
  // Webserver model: result used -> return shipped.  LU fetch_row: result
  // used -> shipped.  A variant where the result is ignored -> elided.
  FigureProgram p = apps::figures::make_figure3();  // zoo ignores nothing:
  // foo returns Object and the loop uses it (phi input) -> must ship.
  CompiledProgram prog = compile(*p.module, OptLevel::SiteReuseCycle);
  const auto& used = prog.site(p.tag("foo"));
  EXPECT_NE(used.plan->ret, nullptr);
  EXPECT_FALSE(used.return_elided);

  // Build a caller that ignores the result.
  om::TypeRegistry types;
  const om::ClassId data = types.define_class("Data", {});
  ir::Module m(types);
  ir::Function& getter = m.add_function("get", {}, ir::Type::ref(data),
                                        /*is_remote_method=*/true);
  {
    ir::FunctionBuilder b(m, getter);
    b.ret(b.alloc(data));
  }
  ir::Function& caller = m.add_function("caller", {}, ir::Type::void_type());
  {
    ir::FunctionBuilder b(m, caller);
    b.remote_call(getter.id, {}, /*tag=*/9);  // result ignored
    b.ret();
  }
  CompiledProgram prog2 = compile(m, OptLevel::Site);
  const auto& elided = prog2.site(9);
  EXPECT_TRUE(elided.return_elided);
  EXPECT_EQ(elided.plan->ret, nullptr);

  // Class mode never elides: the return value is "needlessly sent" (§3.1).
  CompiledProgram prog3 = compile(m, OptLevel::Class);
  EXPECT_NE(prog3.site(9).plan->ret, nullptr);
}

TEST(Codegen, PolymorphicArgumentFallsBackToDynamic) {
  om::TypeRegistry types;
  const om::ClassId base = types.define_class("Base", {});
  const om::ClassId d1 = types.define_class("D1", {}, base);
  const om::ClassId d2 = types.define_class("D2", {}, base);
  ir::Module m(types);
  ir::Function& foo = m.add_function("foo", {ir::Type::ref(base)},
                                     ir::Type::void_type(), true);
  {
    ir::FunctionBuilder b(m, foo);
    b.ret();
  }
  ir::Function& go = m.add_function("go", {}, ir::Type::void_type());
  {
    ir::FunctionBuilder b(m, go);
    const auto x = b.alloc(d1);
    const auto y = b.alloc(d2);
    const auto ph = b.phi({x, y});  // could be either class
    b.remote_call(foo.id, {ph}, /*tag=*/1);
    b.ret();
  }
  CompiledProgram prog = compile(m, OptLevel::Site);
  const auto& s = prog.site(1);
  EXPECT_TRUE(s.plan->args[0]->is_dynamic());
  EXPECT_EQ(s.plan->args[0]->expected_class, base);
  EXPECT_EQ(s.dynamic_nodes, 1u);
}

TEST(Codegen, WebserverPlansMatchPaperSection54) {
  FigureProgram p = apps::figures::make_webserver_model();
  CompiledProgram prog = compile(*p.module, OptLevel::SiteReuseCycle);
  const auto& s = prog.site(p.tag("get_page"));
  EXPECT_FALSE(s.plan->needs_cycle_table);  // both directions proven
  EXPECT_TRUE(s.plan->reuse_args);          // url string
  EXPECT_TRUE(s.plan->reuse_ret);           // returned page
  ASSERT_NE(s.plan->ret, nullptr);
  EXPECT_FALSE(s.plan->ret->is_dynamic());  // inline String plan
}

TEST(Codegen, SuperoptPlansMatchPaperSection53) {
  FigureProgram p = apps::figures::make_superopt_model();
  CompiledProgram prog = compile(*p.module, OptLevel::SiteReuseCycle);
  const auto& s = prog.site(p.tag("test"));
  EXPECT_FALSE(s.plan->needs_cycle_table);  // program graph proven acyclic
  EXPECT_FALSE(s.plan->reuse_args);         // queued => escapes
  EXPECT_EQ(s.plan->ret, nullptr);          // void
  // Program -> code array -> Instruction -> three Operands, all inline.
  const serial::NodePlan& prog_node = *s.plan->args[0];
  EXPECT_FALSE(prog_node.is_dynamic());
  const serial::NodePlan& arr = *prog_node.fields[0].ref_plan;
  EXPECT_FALSE(arr.is_dynamic());
  const serial::NodePlan& ins = *arr.elem_plan;
  EXPECT_FALSE(ins.is_dynamic());
  EXPECT_EQ(s.dynamic_nodes, 0u);
  EXPECT_EQ(s.inline_nodes, 6u);  // program + array + instr + 3 operands
}

TEST(Codegen, OptLevelGatesIndependentOfAnalysisVerdicts) {
  FigureProgram p = apps::figures::make_figure12();
  // Verdicts are facts at every site-specific level...
  for (OptLevel level : {OptLevel::Site, OptLevel::SiteCycle,
                         OptLevel::SiteReuse, OptLevel::SiteReuseCycle}) {
    CompiledProgram prog = compile(*p.module, level);
    const auto& s = prog.site(p.tag("send"));
    EXPECT_TRUE(s.proved_acyclic);
    EXPECT_TRUE(s.args_reusable);
    // ...but are only *applied* when the level enables them.
    EXPECT_EQ(s.plan->needs_cycle_table, !codegen::cycle_elision(level));
    EXPECT_EQ(s.plan->reuse_args, codegen::reuse_enabled(level));
  }
}

TEST(Codegen, ToRuntimeSiteBindsMethodAndHeavyFlag) {
  FigureProgram p = apps::figures::make_figure12();
  CompiledProgram site_prog = compile(*p.module, OptLevel::Site);
  rmi::CompiledCallSite cs = to_runtime_site(site_prog, p.tag("send"), 7);
  EXPECT_EQ(cs.method_id, 7u);
  EXPECT_EQ(cs.level, OptLevel::Site);
  ASSERT_NE(cs.plan, nullptr);
  EXPECT_EQ(cs.plan->args[0]->type_info, serial::TypeInfoMode::None);

  CompiledProgram heavy_prog = compile(*p.module, OptLevel::Heavy);
  rmi::CompiledCallSite hs = to_runtime_site(heavy_prog, p.tag("send"), 7);
  EXPECT_EQ(hs.level, OptLevel::Heavy);
  ASSERT_NE(hs.plan, nullptr);
  EXPECT_EQ(hs.plan->args[0]->type_info, serial::TypeInfoMode::FullName);
}

TEST(Codegen, HeavyLevelPlansWriteClassNames) {
  // The introspective baseline is plan data: every root of every Heavy
  // site is a dynamic node that names its object's class on the wire.
  std::size_t roots = 0;
  for (const auto& [file, text] : apps::figures::sources()) {
    SCOPED_TRACE(std::string(file));
    FigureProgram p = frontend::compile_source(text);
    CompiledProgram prog = compile(*p.module, OptLevel::Heavy);
    for (const auto& [tag, decision] : prog.sites) {
      const serial::CallSitePlan& plan = *decision.plan;
      std::vector<const serial::NodePlan*> nodes;
      for (const auto& a : plan.args) nodes.push_back(a.get());
      if (plan.ret) nodes.push_back(plan.ret.get());
      for (const serial::NodePlan* n : nodes) {
        EXPECT_EQ(n->type_info, serial::TypeInfoMode::FullName);
        EXPECT_NE(serial::to_pseudocode(*n, *p.types)
                      .find("writes class name"),
                  std::string::npos);
        ++roots;
      }
    }
  }
  EXPECT_GE(roots, apps::figures::sources().size());  // one per program
}

TEST(Codegen, PaperLevelNamesMatchTables) {
  EXPECT_EQ(codegen::to_string(OptLevel::Class), "class");
  EXPECT_EQ(codegen::to_string(OptLevel::Site), "site");
  EXPECT_EQ(codegen::to_string(OptLevel::SiteCycle), "site + cycle");
  EXPECT_EQ(codegen::to_string(OptLevel::SiteReuse), "site + reuse");
  EXPECT_EQ(codegen::to_string(OptLevel::SiteReuseCycle),
            "site + reuse + cycle");
}

}  // namespace
}  // namespace rmiopt::driver
