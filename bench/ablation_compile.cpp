// Compile-pipeline ablation: what does the pass manager's memoization buy
// across the full app x level matrix, and is it *safe*?
//
// For every paper program (each examples/miniparty/*.mp file, lowered by
// the frontend) and the five paper levels this binary compiles three
// times:
//
//   cold    — one-shot driver::compile (no caches at all),
//   shared  — through one PassManager (analyses shared across levels/apps,
//             plans cached),
//   replay  — the same PassManager again (everything should hit).
//
// It prints deterministic counters only (pass executions, cache hits and
// misses, per-pass hit rates); measured per-pass wall time is shown only
// with --times so default output is byte-stable.  It also renders every
// decision of every compile through codegen::to_string and EXITS NONZERO
// if a cached compile differs from the cold compile anywhere — CI runs
// this binary as the shared-analysis correctness gate.
//
// Finally it demonstrates profile-guided re-specialization on a real LU
// run: the exported CallSiteProfile demotes a reuse site the run invoked
// too rarely and promotes a hot ACK-only site to batched replies, while
// the untouched sites are cloned without re-running any pass.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/lu.hpp"
#include "apps/paper_figures.hpp"
#include "bench/bench_common.hpp"
#include "driver/pass_manager.hpp"

namespace {

using namespace rmiopt;

std::string render(const driver::CompiledProgram& prog,
                   const om::TypeRegistry& types) {
  std::string out;
  for (const auto& [tag, decision] : prog.sites) {
    out += codegen::to_string(decision, types);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool times = false;
  for (int i = 1; i < argc; ++i) {
    times = times || std::strcmp(argv[i], "--times") == 0;
  }

  struct AppModel {
    std::string name;
    apps::figures::FigureProgram model;
  };
  std::vector<AppModel> models;
  for (const auto& [file, text] : apps::figures::sources()) {
    models.push_back({std::string(file), frontend::compile_source(text)});
  }

  driver::PassManager pm;  // shared analyses + plan cache for the matrix
  bool mismatch = false;

  TextTable matrix({"app", "level", "sites", "passes run", "cache hits",
                    "replay hits"});
  for (auto& app : models) {
    for (codegen::OptLevel level : codegen::kPaperLevels) {
      const driver::CompiledProgram cold =
          driver::compile(*app.model.module, level);
      const driver::CompiledProgram shared =
          pm.compile(*app.model.module, level);
      const driver::CompiledProgram replay =
          pm.compile(*app.model.module, level);

      const std::string want = render(cold, *app.model.types);
      for (const auto* got : {&shared, &replay}) {
        if (render(*got, *app.model.types) != want) {
          std::fprintf(stderr,
                       "FAIL: %s @ %s: cached compile differs from cold\n",
                       app.name.c_str(),
                       std::string(codegen::to_string(level)).c_str());
          mismatch = true;
        }
      }

      matrix.add_row({app.name, std::string(codegen::to_string(level)),
                      std::to_string(cold.sites.size()),
                      std::to_string(shared.stats.total_executions()),
                      std::to_string(shared.stats.total_hits()),
                      std::to_string(replay.stats.total_hits())});
    }
  }
  std::printf(
      "Compile matrix: %zu programs x 5 levels, one shared pass manager\n"
      "(passes run / cache hits are the first shared compile; a replay\n"
      "hits on every pass including plan generation)\n%s\n",
      models.size(), matrix.render().c_str());

  const driver::CompileStats total = pm.stats();
  TextTable passes({"pass", "executions", "cache hits", "cache misses",
                    "hit rate"});
  for (std::size_t i = 0; i < driver::kPassCount; ++i) {
    const auto id = static_cast<driver::PassId>(i);
    const auto& p = total.pass(id);
    const std::uint64_t lookups = p.cache_hits + p.cache_misses;
    passes.add_row(
        {std::string(driver::to_string(id)), std::to_string(p.executions),
         std::to_string(p.cache_hits), std::to_string(p.cache_misses),
         lookups == 0 ? "-"
                      : fmt_fixed(100.0 * static_cast<double>(p.cache_hits) /
                                      static_cast<double>(lookups),
                                  1) + "%"});
  }
  std::printf("Per-pass totals over the whole matrix (fixpoint iterations %s)\n%s\n",
              std::to_string(total.fixpoint_iterations).c_str(),
              passes.render().c_str());

  if (times) {
    TextTable tt({"pass", "wall ms"});
    for (std::size_t i = 0; i < driver::kPassCount; ++i) {
      const auto id = static_cast<driver::PassId>(i);
      tt.add_row({std::string(driver::to_string(id)),
                  fmt_fixed(static_cast<double>(total.pass(id).wall_ns) / 1e6,
                            3)});
    }
    std::printf("Measured per-pass wall time (--times; varies run to run)\n%s\n",
                tt.render().c_str());
  }

  // ---- profile-guided re-specialization on a real LU run -------------------
  // n=16 over 2 machines: fetch_row runs 8 times (every machine-1-owned
  // row), flush 16 times, barrier 32 times — all deterministic, so the
  // demote/promote verdicts below are too.
  auto& lu = std::ranges::find(models, "lu.mp", &AppModel::name)->model;
  apps::LuConfig lucfg;
  lucfg.n = 16;
  lucfg.model = &lu;
  lucfg.pass_manager = &pm;
  const apps::RunResult lurun =
      apps::run_lu(codegen::OptLevel::SiteReuseCycle, lucfg);

  const driver::CompiledProgram prog =
      pm.compile(*lu.module, codegen::OptLevel::SiteReuseCycle);
  driver::RespecializeOptions ropts;
  ropts.cold_reuse_invocations = 8;  // fetch_row's exact count: demoted
  ropts.hot_ack_remote_rpcs = 30;    // barrier qualifies, flush does not
  const driver::CompiledProgram respec =
      pm.respecialize(prog, *lu.module, lurun.profile, ropts);

  TextTable rt({"site", "invocations", "remote rpcs", "verdict"});
  for (const auto& [tag, decision] : prog.sites) {
    const rmi::CallSiteProfileRow* row = lurun.profile.row(tag);
    const auto& fresh = respec.site(tag);
    std::string verdict = "kept";
    const bool had_reuse =
        decision.plan->reuse_args || decision.plan->reuse_ret;
    const bool has_reuse = fresh.plan->reuse_args || fresh.plan->reuse_ret;
    if (had_reuse && !has_reuse) verdict = "demoted (reuse dropped)";
    if (fresh.batch_ack) verdict = "promoted (batched ACKs)";
    rt.add_row({decision.callee_name,
                row ? std::to_string(row->invocations) : "0",
                row ? std::to_string(row->remote_rpcs) : "0", verdict});
  }
  std::printf(
      "Re-specialization of LU @ site+reuse+cycle against an n=16 run\n"
      "(plangen re-ran for %s of %zu sites; every analysis was a cache hit)\n%s\n",
      std::to_string(respec.stats.pass(driver::PassId::PlanGen).executions)
          .c_str(),
      prog.sites.size(), rt.render().c_str());

  if (mismatch) {
    std::fprintf(stderr, "ablation_compile: PLAN MISMATCH (see above)\n");
    return 1;
  }
  std::printf("cold-vs-cached check: all %zu x 5 x 2 compiles identical\n",
              models.size());
  return 0;
}
