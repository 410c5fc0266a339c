// Cycle analysis (§3.2, Figures 8/9) and escape analysis (§3.3,
// Figures 10/11) tests, plus the application models' verdicts that drive
// Tables 1–8.
#include <gtest/gtest.h>

#include "analysis/cycle_analysis.hpp"
#include "analysis/escape_analysis.hpp"
#include "apps/paper_figures.hpp"
#include "frontend/compile.hpp"

namespace rmiopt::analysis {
namespace {

using apps::figures::FigureProgram;

struct Analyzed {
  FigureProgram p;
  std::unique_ptr<HeapAnalysis> heap;
  std::unique_ptr<CycleAnalysis> cycles;
  std::unique_ptr<EscapeAnalysis> escapes;

  explicit Analyzed(FigureProgram prog) : p(std::move(prog)) {
    ir::verify(*p.module);
    heap = std::make_unique<HeapAnalysis>(*p.module);
    heap->run();
    cycles = std::make_unique<CycleAnalysis>(*heap);
    escapes = std::make_unique<EscapeAnalysis>(*heap);
  }

  ir::Module::RemoteCallRef site(const std::string& name) const {
    return p.site(p.tag(name));
  }
};

// ---- cycle analysis ---------------------------------------------------------

TEST(CycleAnalysis, Figure8AliasedArgumentsNeedCycleDetection) {
  Analyzed a(apps::figures::make_figure8());
  EXPECT_TRUE(a.cycles->callsite_needs_cycle_table(a.site("bar")));
}

TEST(CycleAnalysis, DistinctArgumentsNeedNoCycleDetection) {
  // Figure 8 with bar(b1, b2): two distinct objects need no cycle handling.
  Analyzed a(frontend::compile_source(R"(
    class Base { }
    remote class Worker {
      void bar(Base x, Base y) { }
    }
    class Main {
      static void foo() {
        Worker w = new Worker();
        w.bar(new Base(), new Base());
      }
    }
  )"));
  EXPECT_FALSE(a.cycles->callsite_needs_cycle_table(a.site("bar")));
}

TEST(CycleAnalysis, Figure9SelfReferenceNeedsCycleDetection) {
  Analyzed a(apps::figures::make_figure9());
  EXPECT_TRUE(a.cycles->callsite_needs_cycle_table(a.site("bar")));
}

TEST(CycleAnalysis, Figure12ArrayIsProvenAcyclic) {
  Analyzed a(apps::figures::make_figure12());
  EXPECT_FALSE(a.cycles->callsite_needs_cycle_table(a.site("send")));
}

TEST(CycleAnalysis, Figure14LinkedListIsMisclassifiedAsCyclic) {
  // §7: "Currently linked lists (containing no dynamic cycles) are
  // mistakenly identified as having cycles" — the allocation-site
  // granularity cannot distinguish a chain from a ring.
  Analyzed a(apps::figures::make_figure14());
  EXPECT_TRUE(a.cycles->callsite_needs_cycle_table(a.site("send")));
}

TEST(CycleAnalysis, WebserverCallIsProvenAcyclicBothWays) {
  // §5.4: "both the returned webpage and the string parameter are cycle
  // free".
  Analyzed a(apps::figures::make_webserver_model());
  EXPECT_FALSE(a.cycles->callsite_needs_cycle_table(a.site("get_page")));
}

TEST(CycleAnalysis, SuperoptProgramIsProvenAcyclic) {
  // §5.3: "the compiler is able to analyze that the program object is
  // cycle free".
  Analyzed a(apps::figures::make_superopt_model());
  EXPECT_FALSE(a.cycles->callsite_needs_cycle_table(a.site("test")));
}

TEST(CycleAnalysis, LuCallsAreProvenAcyclic) {
  Analyzed a(apps::figures::make_lu_model());
  EXPECT_FALSE(a.cycles->callsite_needs_cycle_table(a.site("flush")));
  EXPECT_FALSE(a.cycles->callsite_needs_cycle_table(a.site("fetch_row")));
  EXPECT_FALSE(a.cycles->callsite_needs_cycle_table(a.site("barrier")));
}

// ---- escape analysis --------------------------------------------------------

TEST(EscapeAnalysis, Figure10ArgumentIsReusable) {
  // "the 'a' parameter is never assigned to a global variable nor ... to a
  // field of another object. Thus can the object safely be reused."
  Analyzed a(apps::figures::make_figure10());
  EXPECT_TRUE(a.escapes->args_reusable(a.site("foo")));
}

TEST(EscapeAnalysis, Figure11StaticStoreEscapes) {
  // "'d' escapes therefore escapes 'a' as well. Neither the Data-object
  // nor the Bar-object can be reused."
  Analyzed a(apps::figures::make_figure11());
  EXPECT_FALSE(a.escapes->args_reusable(a.site("foo")));
}

TEST(EscapeAnalysis, Figure3ReturnedArgumentEscapes) {
  // foo returns its argument: it flows back to the caller, so the callee
  // cannot recycle it.
  Analyzed a(apps::figures::make_figure3());
  EXPECT_FALSE(a.escapes->args_reusable(a.site("foo")));
}

TEST(EscapeAnalysis, Figure12ArrayIsReusable) {
  Analyzed a(apps::figures::make_figure12());
  EXPECT_TRUE(a.escapes->args_reusable(a.site("send")));
}

TEST(EscapeAnalysis, Figure14ListIsReusable) {
  // Table 1: 'site + reuse' shows the big win — 100 allocations saved per
  // RMI — so the list argument must be proven reusable.
  Analyzed a(apps::figures::make_figure14());
  EXPECT_TRUE(a.escapes->args_reusable(a.site("send")));
}

TEST(EscapeAnalysis, WebserverUrlAndPageAreReusable) {
  // §5.4: "The returned webpage and url string are both determined to be
  // reusable objects."
  Analyzed a(apps::figures::make_webserver_model());
  EXPECT_TRUE(a.escapes->args_reusable(a.site("get_page")));
  EXPECT_TRUE(a.escapes->return_reusable(a.site("get_page")));
}

TEST(EscapeAnalysis, SuperoptQueuedProgramEscapes) {
  // §5.3: "The programs themselves are pushed into a queue and are thus
  // not eligible for reuse."
  Analyzed a(apps::figures::make_superopt_model());
  EXPECT_FALSE(a.escapes->args_reusable(a.site("test")));
}

TEST(EscapeAnalysis, LuFlushDataIsReusableAndFetchRowIsReusable) {
  Analyzed a(apps::figures::make_lu_model());
  EXPECT_TRUE(a.escapes->args_reusable(a.site("flush")));
  EXPECT_TRUE(a.escapes->return_reusable(a.site("fetch_row")));
  // barrier has no reference arguments: nothing to reuse.
  EXPECT_FALSE(a.escapes->args_reusable(a.site("barrier")));
}

}  // namespace
}  // namespace rmiopt::analysis
