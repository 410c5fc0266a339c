// Pass-manager tests: fingerprint-keyed analysis sharing, the plan cache's
// cold-vs-cached bit-identity guarantee, invalidation on module mutation,
// and profile-guided re-specialization.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/paper_figures.hpp"
#include "driver/pass_manager.hpp"
#include "trace/recorder.hpp"

namespace rmiopt::driver {
namespace {

using apps::figures::FigureProgram;
using codegen::OptLevel;

std::string render(const CompiledProgram& prog, const om::TypeRegistry& t) {
  std::string out;
  for (const auto& [tag, d] : prog.sites) out += codegen::to_string(d, t);
  return out;
}

std::vector<FigureProgram> all_models() {
  std::vector<FigureProgram> m;
  for (const auto& [file, text] : apps::figures::sources()) {
    m.push_back(frontend::compile_source(text));
  }
  return m;
}

TEST(PassManager, CachedCompilesAreByteIdenticalToCold) {
  auto models = all_models();
  PassManager::Options off;
  off.cache_analyses = false;
  off.cache_plans = false;
  PassManager uncached(off);
  PassManager cached;  // defaults: everything on
  for (auto& model : models) {
    for (OptLevel level : codegen::kPaperLevels) {
      const CompiledProgram cold = uncached.compile(*model.module, level);
      const CompiledProgram warm = cached.compile(*model.module, level);
      const CompiledProgram replay = cached.compile(*model.module, level);
      EXPECT_EQ(render(cold, *model.types), render(warm, *model.types));
      EXPECT_EQ(render(cold, *model.types), render(replay, *model.types));
      EXPECT_EQ(cold.fingerprint, warm.fingerprint);
    }
  }
}

TEST(PassManager, AnalysesRunOnceAcrossTheLevelSweep) {
  FigureProgram model = apps::figures::make_lu_model();
  PassManager pm;
  for (OptLevel level : codegen::kPaperLevels) {
    pm.compile(*model.module, level);
  }
  const CompileStats s = pm.stats();
  for (PassId id :
       {PassId::Verify, PassId::Heap, PassId::Cycle, PassId::Escape}) {
    EXPECT_EQ(s.pass(id).executions, 1u) << to_string(id);
    EXPECT_EQ(s.pass(id).cache_misses, 1u) << to_string(id);
    EXPECT_EQ(s.pass(id).cache_hits, 4u) << to_string(id);
  }
  // LU has 3 remote call sites; plan generation is per (level, site).
  EXPECT_EQ(s.pass(PassId::PlanGen).executions, 3u * 5u);
  EXPECT_EQ(s.pass(PassId::PlanGen).cache_hits, 0u);

  // A second sweep replays everything, plan generation included.
  for (OptLevel level : codegen::kPaperLevels) {
    const CompiledProgram p = pm.compile(*model.module, level);
    EXPECT_EQ(p.stats.total_executions(), 0u);
    EXPECT_EQ(p.stats.pass(PassId::PlanGen).cache_hits, 3u);
  }
  EXPECT_EQ(pm.cached_modules(), 1u);
  EXPECT_EQ(pm.cached_plans(), 5u);
}

TEST(PassManager, PreciseCyclesIsItsOwnPassAndPlanKey) {
  FigureProgram model = apps::figures::make_figure14();
  PassManager pm;
  const CompiledProgram base = pm.compile(*model.module, OptLevel::SiteCycle);
  EXPECT_EQ(base.stats.pass(PassId::Cycle).executions, 1u);
  EXPECT_EQ(base.stats.pass(PassId::PreciseCycles).executions, 0u);

  CompileOptions opts;
  opts.precise_cycles = true;
  const CompiledProgram precise =
      pm.compile(*model.module, OptLevel::SiteCycle, opts);
  // Same level but a different pass pipeline and a different plan key:
  // the refined analysis runs (no stale reuse of the base variant) and
  // plan generation is a miss, not a hit.
  EXPECT_EQ(precise.stats.pass(PassId::PreciseCycles).executions, 1u);
  EXPECT_EQ(precise.stats.pass(PassId::Cycle).executions, 0u);
  EXPECT_EQ(precise.stats.pass(PassId::PlanGen).executions, 1u);
  EXPECT_EQ(precise.stats.pass(PassId::PlanGen).cache_hits, 0u);
  // The refinement proves the single-site list acyclic — the plans differ,
  // which is exactly why the plan key carries the option.
  EXPECT_NE(render(base, *model.types), render(precise, *model.types));
}

TEST(PassManager, FingerprintIsContentAddressed) {
  FigureProgram a = apps::figures::make_figure12();
  FigureProgram b = apps::figures::make_figure12();
  // Independently built but structurally identical modules hash alike.
  EXPECT_EQ(a.module->fingerprint(), b.module->fingerprint());
  EXPECT_NE(a.module->fingerprint(),
            apps::figures::make_figure14().module->fingerprint());

  // One new allocation site is a semantic change for the heap analysis
  // (alloc-site ids are its logical nodes) — the fingerprint must move.
  b.module->next_alloc_site();
  EXPECT_NE(a.module->fingerprint(), b.module->fingerprint());
}

TEST(PassManager, MarkerClassesDoNotPerturbTheFingerprint) {
  FigureProgram a = apps::figures::make_figure12();
  const std::uint64_t before = a.module->fingerprint();
  // Apps define fieldless export-target classes *after* compilation; they
  // are not referenced by the IR, so the descriptor closure excludes them.
  a.types->define_class("SomeRuntimeMarker", {});
  EXPECT_EQ(a.module->fingerprint(), before);
}

TEST(PassManager, MutationInvalidatesExactlyTheDependentEntries) {
  FigureProgram stable = apps::figures::make_figure12();
  FigureProgram mutating = apps::figures::make_figure12();
  PassManager pm;
  pm.compile(*stable.module, OptLevel::Site);
  // The twin hits on every pass: same content, same fingerprint.
  const CompiledProgram twin = pm.compile(*mutating.module, OptLevel::Site);
  EXPECT_EQ(twin.stats.total_executions(), 0u);

  // Mutate the twin (one new allocation site): its next compile re-runs
  // every analysis and plan generation under the new fingerprint...
  mutating.module->next_alloc_site();
  const CompiledProgram fresh = pm.compile(*mutating.module, OptLevel::Site);
  EXPECT_EQ(fresh.stats.total_hits(), 0u);
  for (PassId id : {PassId::Verify, PassId::Heap, PassId::Cycle,
                    PassId::Escape, PassId::PlanGen}) {
    EXPECT_EQ(fresh.stats.pass(id).executions, 1u) << to_string(id);
  }
  // ...while the untouched module's entries survive and still hit.
  const CompiledProgram still = pm.compile(*stable.module, OptLevel::Site);
  EXPECT_EQ(still.stats.total_executions(), 0u);
  EXPECT_EQ(pm.cached_modules(), 2u);

  // Explicit invalidation drops exactly one module's entries.
  pm.invalidate(fresh.fingerprint);
  EXPECT_EQ(pm.cached_modules(), 1u);
  const CompiledProgram after = pm.compile(*stable.module, OptLevel::Site);
  EXPECT_EQ(after.stats.total_executions(), 0u);
}

TEST(PassManager, RespecializeRecompilesOnlyContradictedSites) {
  FigureProgram model = apps::figures::make_lu_model();
  PassManager pm;
  const CompiledProgram prog =
      pm.compile(*model.module, OptLevel::SiteReuseCycle);
  ASSERT_EQ(prog.sites.size(), 3u);
  const std::uint32_t fetch_tag = model.tag("fetch_row");
  const std::uint32_t flush_tag = model.tag("flush");
  ASSERT_TRUE(prog.site(fetch_tag).plan->reuse_ret);
  ASSERT_TRUE(prog.site(flush_tag).plan->reuse_args);

  // fetch_row ran once: its reuse cache never amortized -> demote.  flush
  // ran plenty -> keep.  barrier: no profile row -> keep.
  rmi::CallSiteProfile profile;
  profile.by_tag[fetch_tag] = {fetch_tag, 1, 1, 0, 0, 0};
  profile.by_tag[flush_tag] = {flush_tag, 500, 500, 400, 0, 0};
  const CompiledProgram re =
      pm.respecialize(prog, *model.module, profile, {});

  // Exactly one site re-ran plan generation; every analysis was a hit.
  EXPECT_EQ(re.stats.pass(PassId::PlanGen).executions, 1u);
  for (PassId id :
       {PassId::Verify, PassId::Heap, PassId::Cycle, PassId::Escape}) {
    EXPECT_EQ(re.stats.pass(id).executions, 0u) << to_string(id);
    EXPECT_EQ(re.stats.pass(id).cache_hits, 1u) << to_string(id);
  }
  EXPECT_EQ(re.sites.size(), prog.sites.size());
  // The demoted site lost its reuse machinery (SiteReuseCycle -> SiteCycle
  // keeps cycle elision), the untouched sites are identical clones.
  EXPECT_FALSE(re.site(fetch_tag).plan->reuse_ret);
  EXPECT_EQ(re.site(fetch_tag).plan->needs_cycle_table,
            prog.site(fetch_tag).plan->needs_cycle_table);
  EXPECT_TRUE(re.site(flush_tag).plan->reuse_args);
  EXPECT_EQ(codegen::to_string(re.site(flush_tag), *model.types),
            codegen::to_string(prog.site(flush_tag), *model.types));
}

TEST(PassManager, RespecializePromotesHotAckSites) {
  FigureProgram model = apps::figures::make_lu_model();
  PassManager pm;
  const CompiledProgram prog =
      pm.compile(*model.module, OptLevel::SiteReuseCycle);
  const std::uint32_t flush_tag = model.tag("flush");
  ASSERT_EQ(prog.site(flush_tag).plan->ret, nullptr);  // ACK-only replies
  ASSERT_FALSE(prog.site(flush_tag).batch_ack);

  rmi::CallSiteProfile profile;
  profile.by_tag[flush_tag] = {flush_tag, 5000, 5000, 0, 0, 0};
  const CompiledProgram re =
      pm.respecialize(prog, *model.module, profile, {});
  EXPECT_EQ(re.stats.pass(PassId::PlanGen).executions, 1u);
  EXPECT_TRUE(re.site(flush_tag).batch_ack);
  // Promotion only flips the reply-batching flag; the marshal plan is the
  // same code.
  EXPECT_EQ(codegen::to_string(re.site(flush_tag), *model.types)
                .find("batch_ack=n"),
            std::string::npos);
  // An agreeing profile is a no-op re-specialization: zero passes run.
  const CompiledProgram again =
      pm.respecialize(re, *model.module, profile, {});
  EXPECT_EQ(again.stats.pass(PassId::PlanGen).executions, 0u);
  EXPECT_TRUE(again.site(flush_tag).batch_ack);
}

TEST(PassManager, RespecializeRejectsAMismatchedModule) {
  FigureProgram model = apps::figures::make_lu_model();
  FigureProgram other = apps::figures::make_lu_model();
  other.module->next_alloc_site();
  PassManager pm;
  const CompiledProgram prog = pm.compile(*model.module, OptLevel::Site);
  EXPECT_THROW(pm.respecialize(prog, *other.module, {}, {}), CompileError);
}

TEST(PassManager, EmitsCompileSpansOnTheCompilerTrack) {
  FigureProgram model = apps::figures::make_figure12();
  trace::MemoryRecorder rec;
  PassManager::Options opts;
  opts.recorder = &rec;
  PassManager pm(opts);
  pm.compile(*model.module, OptLevel::Site);
  const auto passes = rec.events_of(trace::EventKind::CompilePass);
  ASSERT_EQ(passes.size(), 5u);  // verify, heap, cycle, escape, plangen
  for (const auto& e : passes) {
    EXPECT_EQ(e.machine, trace::kCompilerTrack);
    EXPECT_GE(e.dur_ns, 0);
  }
  pm.compile(*model.module, OptLevel::Site);
  EXPECT_EQ(rec.events_of(trace::EventKind::CompileCacheHit).size(), 5u);
}

TEST(PassManager, SiteLookupThrowsTypedCompileError) {
  FigureProgram model = apps::figures::make_figure12();
  PassManager pm;
  const CompiledProgram prog = pm.compile(*model.module, OptLevel::Site);
  EXPECT_THROW(prog.site(0xdead), CompileError);
}

}  // namespace
}  // namespace rmiopt::driver
