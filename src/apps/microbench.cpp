#include "apps/microbench.hpp"

#include "apps/harness.hpp"
#include "apps/paper_figures.hpp"
#include "driver/compile.hpp"

namespace rmiopt::apps {

RunResult run_list_bench(codegen::OptLevel level, const ListBenchConfig& cfg) {
  RMIOPT_CHECK(cfg.machines >= 2, "microbenchmarks need >= 2 machines");
  figures::FigureProgram local_model;
  if (cfg.model == nullptr) local_model = figures::make_figure14();
  const figures::FigureProgram& model = cfg.model ? *cfg.model : local_model;
  driver::CompiledProgram prog = compile_model(
      model, level, cfg.model ? cfg.pass_manager : nullptr,
      driver::CompileOptions{.precise_cycles = cfg.precise_cycles});

  net::Cluster cluster(cfg.machines, *model.types, cfg.cost, cfg.transport,
                       {}, cfg.faults, cfg.detector);
  if (cfg.recorder != nullptr) cluster.set_recorder(cfg.recorder);
  if (cfg.frame_probe) cluster.transport().set_frame_probe(cfg.frame_probe);
  rmi::RmiSystem sys(cluster, *model.types,
                     rmi::ExecutorConfig{cfg.dispatch_workers});

  // remote void send(LinkedList l): the handler only receives (Figure 14).
  std::uint64_t received = 0;
  const auto send_method = sys.define_method(
      "Foo.send", [&](rmi::CallContext&, auto, auto) {
        ++received;
        return rmi::HandlerResult{};
      });
  const auto site_id = sys.add_callsite(
      driver::to_runtime_site(prog, model.tag("send"), send_method));

  om::Heap& h1 = cluster.machine(1).heap();
  const rmi::RemoteRef foo = sys.export_object(
      1, h1.alloc(marker_class(*model.types, "Foo")));
  sys.start();

  // Build the list once on machine 0 (same shape every call — the reuse
  // cache's sweet spot, §3.3).
  om::Heap& h0 = cluster.machine(0).heap();
  const om::ClassDescriptor& node_cls =
      model.types->get(model.cls("LinkedList"));
  om::ObjRef head = nullptr;
  for (int i = 0; i < cfg.list_length; ++i) {
    om::ObjRef node = h0.alloc(node_cls);
    node->set_ref(node_cls.fields[0], head);
    head = node;
  }

  for (int i = 0; i < cfg.iterations; ++i) {
    sys.invoke(0, foo, site_id, std::array{head});
  }
  sys.stop();

  RunResult r = collect_run(cluster, sys);
  r.compile = prog.stats;
  r.check = static_cast<double>(received);
  h0.free_graph(head);
  return r;
}

RunResult run_array_bench(codegen::OptLevel level,
                          const ArrayBenchConfig& cfg) {
  RMIOPT_CHECK(cfg.machines >= 2, "microbenchmarks need >= 2 machines");
  figures::FigureProgram local_model;
  if (cfg.model == nullptr) local_model = figures::make_figure12();
  const figures::FigureProgram& model = cfg.model ? *cfg.model : local_model;
  driver::CompiledProgram prog =
      compile_model(model, level, cfg.model ? cfg.pass_manager : nullptr);

  net::Cluster cluster(cfg.machines, *model.types, cfg.cost, cfg.transport,
                       {}, cfg.faults, cfg.detector);
  if (cfg.recorder != nullptr) cluster.set_recorder(cfg.recorder);
  if (cfg.frame_probe) cluster.transport().set_frame_probe(cfg.frame_probe);
  rmi::RmiSystem sys(cluster, *model.types,
                     rmi::ExecutorConfig{cfg.dispatch_workers});

  double checksum = 0.0;
  const auto send_method = sys.define_method(
      "ArrayBench.send",
      [&](rmi::CallContext&, auto, std::span<const om::ObjRef> args) {
        // Touch the data so the transfer is observable.
        const om::ObjRef m = args[0];
        checksum += m->get_elem_ref(0)->get_elem<double>(0);
        return rmi::HandlerResult{};
      });
  const auto site_id = sys.add_callsite(
      driver::to_runtime_site(prog, model.tag("send"), send_method));

  om::Heap& h1 = cluster.machine(1).heap();
  const rmi::RemoteRef target = sys.export_object(
      1, h1.alloc(marker_class(*model.types, "ArrayBench")));
  sys.start();

  om::Heap& h0 = cluster.machine(0).heap();
  om::ObjRef mat = h0.alloc_array(model.cls("[L[double;"), cfg.rows);
  for (std::uint32_t rr = 0; rr < cfg.rows; ++rr) {
    om::ObjRef row = h0.alloc_array(model.cls("[double"), cfg.cols);
    auto e = row->elems<double>();
    for (std::uint32_t c = 0; c < cfg.cols; ++c) {
      e[c] = rr * 1000.0 + c;
    }
    mat->set_elem_ref(rr, row);
  }

  // Optional shape-check ablation: a second matrix with different row
  // lengths alternates with the first, defeating the reuse cache's size
  // check (Fig. 13's mismatch path) on every call.
  om::ObjRef alt = nullptr;
  if (cfg.alternate_cols != 0) {
    alt = h0.alloc_array(model.cls("[L[double;"), cfg.rows);
    for (std::uint32_t rr = 0; rr < cfg.rows; ++rr) {
      alt->set_elem_ref(
          rr, h0.alloc_array(model.cls("[double"), cfg.alternate_cols));
    }
  }

  for (int i = 0; i < cfg.iterations; ++i) {
    om::ObjRef to_send = (alt != nullptr && (i & 1)) ? alt : mat;
    to_send->get_elem_ref(0)->elems<double>()[0] = static_cast<double>(i);
    sys.invoke(0, target, site_id, std::array{to_send});
  }
  sys.stop();

  RunResult r = collect_run(cluster, sys);
  r.compile = prog.stats;
  r.check = checksum;  // sum of i = iters*(iters-1)/2 when delivered right
  h0.free_graph(mat);
  if (alt != nullptr) h0.free_graph(alt);
  return r;
}

}  // namespace rmiopt::apps
