// rmioptc — the frontend as a command-line compiler.
//
//   ./build/examples/example_frontend_demo [file.mp] [--level=<level>]
//
// Compiles MiniParty source (default: the paper's Figure 5 program,
// examples/miniparty/figure5_call_sites.mp), runs the heap/cycle/escape
// analyses, and prints the lowered IR, the heap graph, and the generated
// marshaler for every remote call site at the chosen optimization level
// (default: site + reuse + cycle).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "apps/paper_figures.hpp"
#include "driver/compile.hpp"
#include "frontend/compile.hpp"

using namespace rmiopt;

int main(int argc, char** argv) {
  std::string source(apps::figures::source("figure5_call_sites.mp"));
  codegen::OptLevel level = codegen::OptLevel::SiteReuseCycle;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--level=", 8) == 0) {
      const std::string name = argv[i] + 8;
      bool found = false;
      for (const auto l :
           {codegen::OptLevel::Heavy, codegen::OptLevel::Class,
            codegen::OptLevel::Site, codegen::OptLevel::SiteCycle,
            codegen::OptLevel::SiteReuse, codegen::OptLevel::SiteReuseCycle}) {
        if (name == codegen::to_string(l)) {
          level = l;
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr, "unknown level '%s'\n", name.c_str());
        return 1;
      }
    } else {
      std::ifstream in(argv[i]);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", argv[i]);
        return 1;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      source = buf.str();
    }
  }

  try {
    frontend::Unit unit = frontend::compile_source(source);
    std::printf("===== lowered IR =====\n%s\n",
                ir::to_string(*unit.module).c_str());

    analysis::HeapAnalysis heap(*unit.module);
    heap.run();
    std::printf("===== heap graph (%zu nodes, %zu fixpoint iterations) "
                "=====\n%s\n",
                heap.node_count(), heap.iterations(),
                analysis::to_string(heap).c_str());

    const driver::CompiledProgram prog = driver::compile(*unit.module, level);
    std::printf("===== generated marshalers at '%s' =====\n",
                std::string(codegen::to_string(level)).c_str());
    for (const auto& [tag, name] : unit.callsites) {
      const auto& d = prog.site(tag);
      std::printf("--- call site %u: %s\n", tag, name.c_str());
      std::printf("%s", serial::to_pseudocode(*d.plan, *unit.types).c_str());
      std::printf(
          "    [acyclic=%s args_reusable=%s ret_reusable=%s "
          "return_elided=%s inline=%zu dynamic=%zu recursive=%zu]\n\n",
          d.proved_acyclic ? "yes" : "no", d.args_reusable ? "yes" : "no",
          d.ret_reusable ? "yes" : "no", d.return_elided ? "yes" : "no",
          d.inline_nodes, d.dynamic_nodes, d.recursive_nodes);
    }
  } catch (const frontend::ParseError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
