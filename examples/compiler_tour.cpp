// Compiler tour: reruns the paper's own examples through the analysis
// pipeline and prints what the compiler sees and generates —
//
//   * Figure 2's heap graph,
//   * Figure 3/4's tuple-bounded data-flow across an RMI in a loop,
//   * Figures 5-7: call-site-specific vs class-specific generated code,
//   * Figures 8-9: when cycle detection must stay,
//   * Figures 10-11: when argument reuse is safe,
//   * Figures 12-13: the generated 2-D array (un)marshaler.
//
// Run: ./build/examples/example_compiler_tour
#include <cstdio>

#include "apps/paper_figures.hpp"
#include "driver/compile.hpp"

using namespace rmiopt;
using apps::figures::FigureProgram;

namespace {

void banner(const char* title) {
  std::printf("\n===== %s =====\n", title);
}

void show_plans(const FigureProgram& p, std::uint32_t tag) {
  const driver::CompiledProgram site =
      driver::compile(*p.module, codegen::OptLevel::SiteReuseCycle);
  const driver::CompiledProgram klass =
      driver::compile(*p.module, codegen::OptLevel::Class);
  std::printf("--- class-specific (baseline, Figure 7 style):\n%s",
              serial::to_pseudocode(*klass.site(tag).plan, *p.types).c_str());
  std::printf("--- call-site-specific (Figure 6 style):\n%s",
              serial::to_pseudocode(*site.site(tag).plan, *p.types).c_str());
  const auto& d = site.site(tag);
  std::printf(
      "verdicts: acyclic=%s, args_reusable=%s, ret_reusable=%s, "
      "return_elided=%s, inline=%zu dynamic=%zu recursive=%zu\n",
      d.proved_acyclic ? "yes" : "no", d.args_reusable ? "yes" : "no",
      d.ret_reusable ? "yes" : "no", d.return_elided ? "yes" : "no",
      d.inline_nodes, d.dynamic_nodes, d.recursive_nodes);
}

}  // namespace

int main() {
  {
    banner("Figure 2: heap analysis of Foo { Bar bar; double[][][] a; }");
    FigureProgram p = apps::figures::make_figure2();
    std::printf("%s", ir::to_string(*p.module).c_str());
    analysis::HeapAnalysis heap(*p.module);
    heap.run();
    std::printf("heap graph (one node per allocation site, not per runtime "
                "object):\n%s",
                analysis::to_string(heap).c_str());
  }
  {
    banner("Figures 3/4: RMI in a loop — (logical, physical) tuples bound "
           "the data-flow");
    FigureProgram p = apps::figures::make_figure3();
    std::printf("%s", ir::to_string(*p.module).c_str());
    analysis::HeapAnalysis heap(*p.module);
    heap.run();
    std::printf("fixpoint after %zu iterations, %zu nodes (the Data "
                "allocation + parameter clone + return clone, and the Foo "
                "receiver)\n",
                heap.iterations(), heap.node_count());
  }
  {
    banner("Figures 5-7: per-call-site specialization (Derived1 / Derived2)");
    FigureProgram p = apps::figures::make_figure5();
    std::printf("call site 1 (argument is a Derived1):\n");
    show_plans(p, p.tags_for("Work.foo").at(0));
    std::printf("\ncall site 2 (argument is a Derived2 holding a Derived1):\n");
    show_plans(p, p.tags_for("Work.foo").at(1));
  }
  {
    banner("Figure 8: the same object passed twice -> cycle table stays");
    FigureProgram p = apps::figures::make_figure8();
    show_plans(p, p.tag("bar"));
  }
  {
    banner("Figure 9: self-referencing argument -> cycle table stays");
    FigureProgram p = apps::figures::make_figure9();
    show_plans(p, p.tag("bar"));
  }
  {
    banner("Figure 10: argument never escapes -> reusable");
    FigureProgram p = apps::figures::make_figure10();
    show_plans(p, p.tag("foo"));
  }
  {
    banner("Figure 11: argument's referent stored to a static -> escapes");
    FigureProgram p = apps::figures::make_figure11();
    show_plans(p, p.tag("foo"));
  }
  {
    banner("Figures 12/13: the generated double[][] (un)marshaler");
    FigureProgram p = apps::figures::make_figure12();
    show_plans(p, p.tag("send"));
  }
  {
    banner("Figure 14: linked list — misclassified as cyclic (paper §7), "
           "but monomorphic recursion is inlined and reuse applies");
    FigureProgram p = apps::figures::make_figure14();
    show_plans(p, p.tag("send"));
  }
  return 0;
}
