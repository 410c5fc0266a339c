// Capstone integration: MiniParty source text -> frontend -> analyses ->
// generated marshal plans -> RMI runtime -> simulated cluster, end to end.
//
// This is the full pipeline the paper describes, driven from source code:
// the program text determines the generated marshalers, and the runtime
// executes them to move real data between machines.
#include <gtest/gtest.h>

#include "apps/paper_figures.hpp"
#include "driver/compile.hpp"
#include "frontend/compile.hpp"
#include "net/cluster.hpp"
#include "rmi/runtime.hpp"

namespace rmiopt {
namespace {

TEST(SourceToWire, Figure12ArrayTransferFromSource) {
  // Compile the paper's Figure 12 program from source.
  frontend::Unit unit = frontend::compile_source(
      apps::figures::source("figure12_array_bench.mp"));
  const auto tags = unit.tags_for("ArrayBench.send");
  ASSERT_EQ(tags.size(), 1u);

  for (const auto level : codegen::kPaperLevels) {
    driver::CompiledProgram prog = driver::compile(*unit.module, level);

    net::Cluster cluster(2, *unit.types);
    rmi::RmiSystem sys(cluster, *unit.types);
    double received = 0.0;
    const auto method = sys.define_method(
        "ArrayBench.send",
        [&](rmi::CallContext&, auto, std::span<const om::ObjRef> args) {
          received = args[0]->get_elem_ref(1)->elems<double>()[2];
          return rmi::HandlerResult{};
        });
    const auto site = sys.add_callsite(
        driver::to_runtime_site(prog, tags[0], method));
    const rmi::RemoteRef target = sys.export_object(
        1, cluster.machine(1).heap().alloc(unit.cls("ArrayBench")));
    sys.start();

    // Build the 16x16 matrix the source program describes and send it.
    om::Heap& h0 = cluster.machine(0).heap();
    const om::ClassDescriptor* row_cls = unit.types->find_by_name("[double");
    const om::ClassDescriptor* mat_cls =
        unit.types->find_by_name("[L[double;");
    ASSERT_NE(row_cls, nullptr);
    ASSERT_NE(mat_cls, nullptr);
    om::ObjRef mat = h0.alloc_array(*mat_cls, 16);
    for (std::uint32_t r = 0; r < 16; ++r) {
      om::ObjRef row = h0.alloc_array(*row_cls, 16);
      row->elems<double>()[2] = 100.0 * r + 2;
      mat->set_elem_ref(r, row);
    }
    sys.invoke(0, target, site, std::array{mat});
    EXPECT_DOUBLE_EQ(received, 102.0) << codegen::to_string(level);
    sys.stop();

    // The compiled behavior matches the paper per level.
    const auto& d = prog.site(tags[0]);
    EXPECT_TRUE(d.proved_acyclic);
    EXPECT_TRUE(d.args_reusable);
    if (level == codegen::OptLevel::SiteReuseCycle) {
      EXPECT_EQ(sys.total_stats().serial.cycle_lookups, 0u);
      EXPECT_EQ(sys.total_stats().serial.type_info_bytes, 0u);
    }
    h0.free_graph(mat);
  }
}

TEST(SourceToWire, PolymorphicProgramFromSourceDispatchesCorrectly) {
  // A source program whose call site is polymorphic: the plan must fall
  // back to dynamic dispatch and still move the right runtime types.
  frontend::Unit unit = frontend::compile_source(R"(
    class Shape { int kind; }
    class Circle extends Shape { double r; }
    class Square extends Shape { double side; }
    remote class Renderer {
      void draw(Shape s) { }
    }
    class Main {
      static void go(int which) {
        Renderer r = new Renderer();
        Shape s = new Circle();
        if (which < 0) {
          s = new Square();
        }
        r.draw(s);
      }
    }
  )");
  const auto tags = unit.tags_for("Renderer.draw");
  ASSERT_EQ(tags.size(), 1u);
  driver::CompiledProgram prog =
      driver::compile(*unit.module, codegen::OptLevel::SiteReuseCycle);
  EXPECT_GE(prog.site(tags[0]).dynamic_nodes, 1u);  // polymorphic fallback

  net::Cluster cluster(2, *unit.types);
  rmi::RmiSystem sys(cluster, *unit.types);
  std::vector<std::string> seen;
  const auto method = sys.define_method(
      "Renderer.draw",
      [&](rmi::CallContext&, auto, std::span<const om::ObjRef> args) {
        seen.push_back(args[0]->cls().name);
        return rmi::HandlerResult{};
      });
  const auto site =
      sys.add_callsite(driver::to_runtime_site(prog, tags[0], method));
  const rmi::RemoteRef target = sys.export_object(
      1, cluster.machine(1).heap().alloc(unit.cls("Renderer")));
  sys.start();

  om::Heap& h0 = cluster.machine(0).heap();
  om::ObjRef circle = h0.alloc(unit.cls("Circle"));
  om::ObjRef square = h0.alloc(unit.cls("Square"));
  sys.invoke(0, target, site, std::array{circle});
  sys.invoke(0, target, site, std::array{square});
  sys.stop();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "Circle");  // runtime type survives the wire
  EXPECT_EQ(seen[1], "Square");
  h0.free(circle);
  h0.free(square);
}

TEST(SourceToWire, LinkedListFromSourceRoundTripsWithReuse) {
  frontend::Unit unit = frontend::compile_source(
      apps::figures::source("figure14_linked_list.mp"));
  const auto tags = unit.tags_for("Foo.send");
  ASSERT_EQ(tags.size(), 1u);
  driver::CompiledProgram prog =
      driver::compile(*unit.module, codegen::OptLevel::SiteReuseCycle);
  ASSERT_TRUE(prog.site(tags[0]).plan->reuse_args);

  net::Cluster cluster(2, *unit.types);
  rmi::RmiSystem sys(cluster, *unit.types);
  int chain_length = 0;
  const om::ClassDescriptor& node_cls =
      unit.types->get(unit.cls("LinkedList"));
  const auto method = sys.define_method(
      "Foo.send",
      [&](rmi::CallContext&, auto, std::span<const om::ObjRef> args) {
        chain_length = 0;
        for (om::ObjRef n = args[0]; n != nullptr;
             n = n->get_ref(node_cls.fields[0])) {
          ++chain_length;
        }
        return rmi::HandlerResult{};
      });
  const auto site =
      sys.add_callsite(driver::to_runtime_site(prog, tags[0], method));
  const rmi::RemoteRef target = sys.export_object(
      1, cluster.machine(1).heap().alloc(unit.cls("Foo")));
  sys.start();

  om::Heap& h0 = cluster.machine(0).heap();
  om::ObjRef head = nullptr;
  for (int i = 0; i < 100; ++i) {
    om::ObjRef n = h0.alloc(node_cls);
    n->set_ref(node_cls.fields[0], head);
    head = n;
  }
  sys.invoke(0, target, site, std::array{head});
  EXPECT_EQ(chain_length, 100);
  sys.invoke(0, target, site, std::array{head});
  EXPECT_EQ(chain_length, 100);
  sys.stop();
  // Second call recycled the whole chain at the callee (§3.3).
  EXPECT_EQ(sys.stats(1).serial.objects_reused, 100u);
  h0.free_graph(head);
}

}  // namespace
}  // namespace rmiopt
