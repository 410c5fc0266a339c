// Tests for the construction-order cycle-analysis refinement (the paper's
// §7 future work: "Currently linked lists (containing no dynamic cycles)
// are mistakenly identified as having cycles").
//
// The refinement must prove `head = new LinkedList(head)` chains acyclic
// while still flagging everything that genuinely needs runtime handles:
// self references, ring closures, shared substructure, and anything whose
// construction pattern it cannot see through.
#include <gtest/gtest.h>

#include "apps/microbench.hpp"
#include "apps/paper_figures.hpp"
#include "driver/compile.hpp"

namespace rmiopt::analysis {
namespace {

using apps::figures::FigureProgram;

struct Analyzed {
  FigureProgram p;
  std::unique_ptr<HeapAnalysis> heap;
  std::unique_ptr<CycleAnalysis> base;
  std::unique_ptr<CycleAnalysis> refined;

  explicit Analyzed(FigureProgram prog) : p(std::move(prog)) {
    ir::verify(*p.module);
    heap = std::make_unique<HeapAnalysis>(*p.module);
    heap->run();
    base = std::make_unique<CycleAnalysis>(*heap, false);
    refined = std::make_unique<CycleAnalysis>(*heap, true);
  }
};

// Common scaffold: remote bar(Node) plus a caller body supplied by `build`.
struct NodeProgram {
  FigureProgram p;

  template <typename Build>
  explicit NodeProgram(Build build) {
    p.types = std::make_unique<om::TypeRegistry>();
    p.module = std::make_unique<ir::Module>(*p.types);
    const om::ClassId node = p.types->declare_class("Node");
    p.types->define_fields(node, {{"Next", om::TypeKind::Ref, node}});
    p.classes["Node"] = node;
    ir::Function& bar = p.module->add_function(
        "bar", {ir::Type::ref(node)}, ir::Type::void_type(), true);
    {
      ir::FunctionBuilder b(*p.module, bar);
      b.ret();
    }
    ir::Function& foo =
        p.module->add_function("foo", {}, ir::Type::void_type());
    {
      ir::FunctionBuilder b(*p.module, foo);
      build(b, node, bar.id);
      b.ret();
    }
  }
};

bool refined_says_cyclic(const FigureProgram& p) {
  ir::verify(*p.module);
  HeapAnalysis heap(*p.module);
  heap.run();
  CycleAnalysis refined(heap, true);
  return refined.callsite_needs_cycle_table(p.site(1));
}

TEST(PreciseCycles, LinkedListChainIsProvenAcyclic) {
  Analyzed a(apps::figures::make_figure14());
  const auto site = a.p.site(a.p.tag("send"));
  EXPECT_TRUE(a.base->callsite_needs_cycle_table(site));    // paper behavior
  EXPECT_FALSE(a.refined->callsite_needs_cycle_table(site));  // §7 fixed
}

TEST(PreciseCycles, SelfReferenceStillFlagged) {
  Analyzed a(apps::figures::make_figure9());
  const auto site = a.p.site(a.p.tag("bar"));
  // b.self = b stores the object into itself: value id == target id, not
  // older — the refinement must keep runtime detection.
  EXPECT_TRUE(a.refined->callsite_needs_cycle_table(site));
}

TEST(PreciseCycles, AliasedArgumentsStillFlagged) {
  Analyzed a(apps::figures::make_figure8());
  EXPECT_TRUE(a.refined->callsite_needs_cycle_table(a.p.site(a.p.tag("bar"))));
}

TEST(PreciseCycles, RingClosureStillFlagged) {
  // Build a chain, then close the ring by mutating the oldest node:
  // old.Next = newest — the stored value is *younger* than the target.
  NodeProgram prog([](ir::FunctionBuilder& b, om::ClassId node,
                      ir::FuncId bar) {
    const auto oldest = b.alloc(node);
    const auto mid = b.alloc(node);
    b.store_field(mid, "Next", oldest);
    const auto newest = b.alloc(node);
    b.store_field(newest, "Next", mid);
    b.store_field(oldest, "Next", newest);  // closes the ring
    b.remote_call(bar, {newest}, 1);
  });
  EXPECT_TRUE(refined_says_cyclic(prog.p));
}

TEST(PreciseCycles, SharedTailAcrossArgumentsStillFlagged) {
  // p1.Next = x; p2.Next = x and both p1 and p2 are serialized in the same
  // message: x is reached twice — handles must stay (sharing, not a
  // cycle).  Caught by the seen-twice rule independent of ordering.
  FigureProgram p;
  p.types = std::make_unique<om::TypeRegistry>();
  p.module = std::make_unique<ir::Module>(*p.types);
  const om::ClassId node = p.types->declare_class("Node");
  p.types->define_fields(node, {{"Next", om::TypeKind::Ref, node}});
  ir::Function& bar2 = p.module->add_function(
      "bar2", {ir::Type::ref(node), ir::Type::ref(node)},
      ir::Type::void_type(), true);
  {
    ir::FunctionBuilder b(*p.module, bar2);
    b.ret();
  }
  ir::Function& foo = p.module->add_function("foo", {}, ir::Type::void_type());
  {
    ir::FunctionBuilder b(*p.module, foo);
    const auto x = b.alloc(node);
    const auto p1 = b.alloc(node);
    b.store_field(p1, "Next", x);
    const auto p2 = b.alloc(node);
    b.store_field(p2, "Next", x);
    b.remote_call(bar2.id, {p1, p2}, 1);
    b.ret();
  }
  EXPECT_TRUE(refined_says_cyclic(p));
}

TEST(PreciseCycles, LoadDerivedStoreTaintsTheField) {
  // A clean construction loop *plus* one store whose value comes out of
  // the heap: the load-derived store taints Node.Next for the whole
  // class, so the loop's back edge is no longer excusable.
  NodeProgram prog([](ir::FunctionBuilder& b, om::ClassId node,
                      ir::FuncId bar) {
    b.set_block("loop");
    const auto ph = b.empty_phi(ir::Type::ref(node));
    const auto n = b.alloc(node);
    b.store_field(n, "Next", ph);
    b.append_phi_input(ph, n);
    // Elsewhere: a rewiring store through a loaded reference.
    const auto y = b.load_field(n, "Next");
    const auto q = b.alloc(node);
    b.store_field(q, "Next", y);
    b.remote_call(bar, {n}, 1);
  });
  EXPECT_TRUE(refined_says_cyclic(prog.p));
}

TEST(PreciseCycles, TwoFieldDiamondRejectedByLinearity) {
  // Tree built in a loop with n.l = ph; n.r = ph: each iteration's node
  // reaches the previous one TWICE — intra-message sharing that the
  // elided protocol would duplicate.  The phi has two alias-creating
  // uses, so linearity rejects it and the field stays unordered.
  FigureProgram p;
  p.types = std::make_unique<om::TypeRegistry>();
  p.module = std::make_unique<ir::Module>(*p.types);
  const om::ClassId tree = p.types->declare_class("Tree");
  p.types->define_fields(tree, {{"l", om::TypeKind::Ref, tree},
                                {"r", om::TypeKind::Ref, tree}});
  ir::Function& bar = p.module->add_function(
      "bar", {ir::Type::ref(tree)}, ir::Type::void_type(), true);
  {
    ir::FunctionBuilder b(*p.module, bar);
    b.ret();
  }
  ir::Function& foo = p.module->add_function("foo", {}, ir::Type::void_type());
  {
    ir::FunctionBuilder b(*p.module, foo);
    b.set_block("loop");
    const auto ph = b.empty_phi(ir::Type::ref(tree));
    const auto n = b.alloc(tree);
    b.store_field(n, "l", ph);
    b.store_field(n, "r", ph);
    b.append_phi_input(ph, n);
    b.remote_call(bar.id, {n}, 1);
    b.ret();
  }
  EXPECT_TRUE(refined_says_cyclic(p));
}

TEST(PreciseCycles, SingleFieldTreeLoopIsProvenAcyclic) {
  // Control for the diamond test: the same loop storing ph only once is a
  // clean chain and the refinement proves it.
  FigureProgram p;
  p.types = std::make_unique<om::TypeRegistry>();
  p.module = std::make_unique<ir::Module>(*p.types);
  const om::ClassId tree = p.types->declare_class("Tree");
  p.types->define_fields(tree, {{"l", om::TypeKind::Ref, tree},
                                {"r", om::TypeKind::Ref, tree}});
  ir::Function& bar = p.module->add_function(
      "bar", {ir::Type::ref(tree)}, ir::Type::void_type(), true);
  {
    ir::FunctionBuilder b(*p.module, bar);
    b.ret();
  }
  ir::Function& foo = p.module->add_function("foo", {}, ir::Type::void_type());
  {
    ir::FunctionBuilder b(*p.module, foo);
    b.set_block("loop");
    const auto ph = b.empty_phi(ir::Type::ref(tree));
    const auto n = b.alloc(tree);
    b.store_field(n, "l", ph);
    b.append_phi_input(ph, n);
    b.remote_call(bar.id, {n}, 1);
    b.ret();
  }
  EXPECT_FALSE(refined_says_cyclic(p));
}

TEST(PreciseCycles, YoungerValueMutationTaintsTheField) {
  // old.Next = younger after construction (the rewiring half of a ring):
  // value id exceeds the target's alloc id, the field is tainted, and the
  // same-class construction loop gets flagged too.
  NodeProgram prog([](ir::FunctionBuilder& b, om::ClassId node,
                      ir::FuncId bar) {
    b.set_block("loop");
    const auto ph = b.empty_phi(ir::Type::ref(node));
    const auto n = b.alloc(node);
    b.store_field(n, "Next", ph);
    b.append_phi_input(ph, n);
    const auto later = b.alloc(node);
    b.store_field(n, "Next", later);  // younger value: taint
    b.remote_call(bar, {n}, 1);
  });
  EXPECT_TRUE(refined_says_cyclic(prog.p));
}

TEST(PreciseCycles, ArraysOfFreshRowsRemainAcyclicEitherWay) {
  Analyzed a(apps::figures::make_figure12());
  const auto site = a.p.site(a.p.tag("send"));
  EXPECT_FALSE(a.base->callsite_needs_cycle_table(site));
  EXPECT_FALSE(a.refined->callsite_needs_cycle_table(site));
}

TEST(PreciseCycles, FieldOrderingVerdicts) {
  Analyzed a(apps::figures::make_figure14());
  EXPECT_TRUE(a.refined->field_is_init_ordered(a.p.cls("LinkedList"), 0));
  Analyzed b(apps::figures::make_figure9());
  EXPECT_FALSE(b.refined->field_is_init_ordered(b.p.cls("Base"), 0));
}

TEST(PreciseCycles, ListBenchGainsFromTheRefinement) {
  apps::ListBenchConfig base;
  base.iterations = 50;
  apps::ListBenchConfig precise = base;
  precise.precise_cycles = true;

  const auto t_base =
      apps::run_list_bench(codegen::OptLevel::SiteCycle, base);
  const auto t_precise =
      apps::run_list_bench(codegen::OptLevel::SiteCycle, precise);
  // With the paper's analysis, site+cycle == site for lists (Table 1);
  // with the refinement the cycle table actually disappears.
  EXPECT_LT(t_precise.makespan, t_base.makespan);
  EXPECT_GT(t_base.total.serial.cycle_lookups, 0u);
  EXPECT_EQ(t_precise.total.serial.cycle_lookups, 0u);
  // The transferred list is identical either way.
  EXPECT_EQ(t_precise.check, t_base.check);
}

TEST(PreciseCycles, RoundTripStaysCorrectWithElision) {
  // End-to-end safety net: with the refinement eliding the cycle table,
  // the 100-node list must still arrive intact at every level.
  apps::ListBenchConfig cfg;
  cfg.iterations = 10;
  cfg.precise_cycles = true;
  for (const auto level : codegen::kPaperLevels) {
    const auto r = apps::run_list_bench(level, cfg);
    EXPECT_EQ(r.check, 10.0) << codegen::to_string(level);
  }
}

}  // namespace
}  // namespace rmiopt::analysis
