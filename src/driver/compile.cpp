#include "driver/compile.hpp"

#include "driver/pass_manager.hpp"

namespace rmiopt::driver {

CompiledProgram compile(const ir::Module& module, OptLevel level,
                        const CompileOptions& options) {
  PassManager::Options pm_options;
  pm_options.cache_analyses = false;
  pm_options.cache_plans = false;
  PassManager pm(pm_options);
  return pm.compile(module, level, options);
}

rmi::CompiledCallSite to_runtime_site(const CompiledProgram& program,
                                      std::uint32_t tag,
                                      std::uint32_t method_id) {
  const codegen::CallSiteDecision& decision = program.site(tag);
  rmi::CompiledCallSite site;
  site.plan = decision.plan->clone();
  site.method_id = method_id;
  site.level = program.level;
  site.tag = tag;
  site.batch_replies = decision.batch_ack;
  return site;
}

}  // namespace rmiopt::driver
