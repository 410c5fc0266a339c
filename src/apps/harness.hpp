// Shared helpers for the benchmark applications.
#pragma once

#include <string>

#include "apps/paper_figures.hpp"
#include "apps/run_result.hpp"
#include "driver/pass_manager.hpp"
#include "net/cluster.hpp"
#include "rmi/runtime.hpp"

namespace rmiopt::apps {

inline RunResult collect_run(net::Cluster& cluster, rmi::RmiSystem& sys) {
  RunResult r;
  r.makespan = cluster.makespan();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    r.per_machine.push_back(sys.stats(static_cast<std::uint16_t>(i)));
    r.total += r.per_machine.back();
  }
  r.net = cluster.stats();
  r.messages = r.net.messages;
  r.bytes = r.net.bytes;
  r.profile = sys.export_profile();
  return r;
}

// Find-or-define for the fieldless classes the apps export their state
// objects under ("LU", "Server", ...).  The .mp programs declare them as
// remote classes, so the apps find them; a class defined here instead
// carries no fields and no IR refers to it, so defining it after
// compilation does not perturb the module's fingerprint, and a shared
// program stays shareable across runs (a PassManager's analyses then hit
// on every run).
inline om::ClassId marker_class(om::TypeRegistry& types,
                                const std::string& name) {
  if (const om::ClassDescriptor* d = types.find_by_name(name)) return d->id;
  return types.define_class(name, {});
}

// Compiles an app's figure model, through the caller's shared PassManager
// when one is configured (analyses and plans then hit across runs and
// levels) and through the one-shot driver::compile otherwise.  Runners
// pass a null `pm` when the model is run-local: a caching manager must
// never hold analyses of a module that dies with the run (the lifetime
// contract in driver/pass_manager.hpp).
inline driver::CompiledProgram compile_model(
    const figures::FigureProgram& model, codegen::OptLevel level,
    driver::PassManager* pm, const driver::CompileOptions& opts = {}) {
  return pm != nullptr ? pm->compile(*model.module, level, opts)
                       : driver::compile(*model.module, level, opts);
}

}  // namespace rmiopt::apps
