// Golden-structure tests: the pseudocode printer's output for the paper's
// Figure 5 program must contain the characteristic lines of the paper's
// Figures 6 (call-site specific) and 7 (class specific), and the safety
// guards of the analyses must fail loudly.
#include <gtest/gtest.h>

#include "apps/paper_figures.hpp"
#include "driver/compile.hpp"

namespace rmiopt {
namespace {

using apps::figures::FigureProgram;

TEST(PseudocodeGolden, Figure6CallSiteMarshalers) {
  FigureProgram p = apps::figures::make_figure5();
  const driver::CompiledProgram prog =
      driver::compile(*p.module, codegen::OptLevel::SiteReuseCycle);

  // marshaler_Work.go.1: "p.writeInt(s.data)" — ours: m.write_int(a0.data)
  const std::string m1 =
      serial::to_pseudocode(*prog.site(p.tags_for("Work.foo").at(0)).plan, *p.types);
  EXPECT_NE(m1.find("m.write_int(a0.data);  // inlined"), std::string::npos)
      << m1;
  EXPECT_EQ(m1.find("serialize(m)"), std::string::npos);  // no dynamic call
  EXPECT_EQ(m1.find("cycle_table"), std::string::npos);   // elided

  // marshaler_Work.go.2: "p.writeInt(s.p.data)" — the reference field is
  // followed at compile time.
  const std::string m2 =
      serial::to_pseudocode(*prog.site(p.tags_for("Work.foo").at(1)).plan, *p.types);
  EXPECT_NE(m2.find("m.write_int(a0.p.data);  // inlined"), std::string::npos)
      << m2;
}

TEST(PseudocodeGolden, Figure7ClassMarshalers) {
  FigureProgram p = apps::figures::make_figure5();
  const driver::CompiledProgram prog =
      driver::compile(*p.module, codegen::OptLevel::Class);
  // "s.serialize(m); // note: method call" + cycle table + type info.
  const std::string m1 =
      serial::to_pseudocode(*prog.site(p.tags_for("Work.foo").at(0)).plan, *p.types);
  EXPECT_NE(m1.find("a0.serialize(m);  // dynamic call, writes class id"),
            std::string::npos)
      << m1;
  EXPECT_NE(m1.find("cycle_table.lookup_or_insert"), std::string::npos);
}

TEST(PseudocodeGolden, Figure13ReuseAnnotations) {
  FigureProgram p = apps::figures::make_figure12();
  const driver::CompiledProgram prog =
      driver::compile(*p.module, codegen::OptLevel::SiteReuseCycle);
  const std::string code =
      serial::to_pseudocode(*prog.site(p.tag("send")).plan, *p.types);
  EXPECT_NE(code.find("(reusable at callee)"), std::string::npos) << code;
  EXPECT_NE(code.find("m.write_int(a0.length)"), std::string::npos);
  EXPECT_NE(code.find("append_double_array"), std::string::npos);
}

TEST(AnalysisGuards, NodeBudgetViolationThrows) {
  // Figure 3 needs 4 nodes; an absurdly small budget must be detected as
  // divergence rather than silently truncating the analysis.
  FigureProgram p = apps::figures::make_figure3();
  analysis::HeapAnalysis heap(*p.module);
  EXPECT_THROW(heap.run(/*max_nodes=*/2), Error);
}

TEST(AnalysisGuards, PlanCloneIsDeepAndIndependent) {
  FigureProgram p = apps::figures::make_figure14();
  const driver::CompiledProgram prog =
      driver::compile(*p.module, codegen::OptLevel::SiteReuseCycle);
  const auto& original = *prog.site(p.tag("send")).plan;
  auto copy = original.clone();
  // The recursion back edge must point into the COPY, not the original.
  const serial::NodePlan* orig_head = original.args[0].get();
  const serial::NodePlan* copy_head = copy->args[0].get();
  ASSERT_NE(copy_head, orig_head);
  ASSERT_NE(copy_head->fields[0].ref_plan->recurse_to, nullptr);
  EXPECT_EQ(copy_head->fields[0].ref_plan->recurse_to, copy_head);
  EXPECT_NE(copy_head->fields[0].ref_plan->recurse_to, orig_head);
}

}  // namespace
}  // namespace rmiopt
