// API-contract tests: the error behavior a downstream user relies on —
// wrong usage must fail loudly and early, never silently misbehave.
#include <gtest/gtest.h>

#include "apps/paper_figures.hpp"
#include "driver/compile.hpp"
#include "frontend/compile.hpp"
#include "rmi/runtime.hpp"

namespace rmiopt {
namespace {

TEST(ApiContract, RegistryRejectsDoubleDefinition) {
  om::TypeRegistry types;
  const om::ClassId id = types.declare_class("X");
  types.define_fields(id, {{"a", om::TypeKind::Int}});
  EXPECT_THROW(types.define_fields(id, {{"b", om::TypeKind::Int}}), Error);
  EXPECT_THROW(types.get(999), Error);
  EXPECT_EQ(types.find_by_name("nope"), nullptr);
}

TEST(ApiContract, RegistryRejectsArraySubclassing) {
  om::TypeRegistry types;
  const om::ClassId arr = types.register_prim_array(om::TypeKind::Int);
  EXPECT_THROW(types.define_class("Sub", {}, arr), Error);
  const om::ClassId cls = types.define_class("C", {});
  EXPECT_THROW(types.define_fields(cls, {}), Error);  // already defined
}

TEST(ApiContract, HeapRejectsKindMismatches) {
  om::TypeRegistry types;
  om::Heap heap(types);
  const om::ClassId cls = types.define_class("C", {{"x", om::TypeKind::Int}});
  const om::ClassId arr = types.register_prim_array(om::TypeKind::Int);
  EXPECT_THROW(heap.alloc(arr), Error);
  EXPECT_THROW(heap.alloc_array(cls, 4), Error);
  om::ObjRef o = heap.alloc(cls);
  EXPECT_THROW(o->get_ref(o->cls().fields[0]), Error);  // int, not ref
  EXPECT_THROW(o->as_string_view(), Error);
  heap.free(o);
}

TEST(ApiContract, RmiInvokeValidatesArgumentCount) {
  om::TypeRegistry types;
  const om::ClassId cls = types.define_class("C", {});
  net::Cluster cluster(2, types);
  rmi::RmiSystem sys(cluster, types);
  const auto m = sys.define_method(
      "m", [](rmi::CallContext&, auto, auto) { return rmi::HandlerResult{}; });
  rmi::CompiledCallSite cs;
  cs.method_id = m;
  cs.plan = std::make_unique<serial::CallSitePlan>();
  cs.plan->name = "one-arg";
  cs.plan->args.push_back(serial::make_dynamic_node(cls));
  const auto site = sys.add_callsite(std::move(cs));
  const rmi::RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(cls));
  sys.start();
  EXPECT_THROW(sys.invoke(0, ref, site, {}), Error);  // 0 args vs 1
  EXPECT_THROW(sys.invoke(0, ref, 999, {}), Error);   // unknown site
  sys.stop();
}

TEST(ApiContract, RmiSetupOrderingIsEnforced) {
  om::TypeRegistry types;
  net::Cluster cluster(1, types);
  rmi::RmiSystem sys(cluster, types);
  rmi::CompiledCallSite cs;  // null plan
  EXPECT_THROW(sys.add_callsite(std::move(cs)), Error);
  rmi::CompiledCallSite cs2;
  cs2.plan = std::make_unique<serial::CallSitePlan>();
  cs2.method_id = 42;  // no such method
  EXPECT_THROW(sys.add_callsite(std::move(cs2)), Error);
  sys.start();
  EXPECT_THROW(sys.define_method("late", {}), Error);
  EXPECT_THROW(sys.start(), Error);
  sys.stop();
}

TEST(ApiContract, UnitLookupsRejectUnknownAndAmbiguousNames) {
  const frontend::Unit p = apps::figures::make_figure5();
  EXPECT_THROW(p.site(777), Error);
  EXPECT_THROW(p.cls("Nope"), std::out_of_range);
  EXPECT_THROW(p.tag("nope"), std::out_of_range);
  // Work.foo is called at two sites: tag() refuses to pick one.
  ASSERT_EQ(p.tags_for("Work.foo").size(), 2u);
  EXPECT_THROW(p.tag("foo"), Error);
  // Type-registry names resolve as well as source class names.
  EXPECT_EQ(p.cls("String"), p.types->string_class());
  const frontend::Unit arrays = apps::figures::make_figure12();
  EXPECT_EQ(arrays.cls("[L[double;"),
            arrays.types->find_by_name("[L[double;")->id);
}

TEST(ApiContract, UnitTagLookupsAreExact) {
  frontend::Unit unit = frontend::compile_source(R"(
    remote class R { void m(int x) { } }
    class A { static void f() { R r = new R(); r.m(1); } }
  )");
  EXPECT_EQ(unit.tags_for("R.m").size(), 1u);
  EXPECT_TRUE(unit.tags_for("R.missing").empty());
  EXPECT_THROW(unit.func("R.missing"), std::out_of_range);
}

TEST(ApiContract, CompiledProgramRejectsUnknownTag) {
  apps::figures::FigureProgram p = apps::figures::make_figure12();
  const driver::CompiledProgram prog =
      driver::compile(*p.module, codegen::OptLevel::Site);
  // A typed, recoverable error (an unknown tag is an app wiring mistake,
  // not an internal invariant) — still an Error for legacy catch sites.
  EXPECT_THROW(prog.site(123), CompileError);
  EXPECT_THROW(driver::to_runtime_site(prog, 123, 0), CompileError);
}

}  // namespace
}  // namespace rmiopt
