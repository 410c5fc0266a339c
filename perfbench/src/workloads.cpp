#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "apps/paper_figures.hpp"
#include "apps/superopt.hpp"
#include "apps/webserver.hpp"
#include "compile_rounds.hpp"
#include "driver/pass_manager.hpp"
#include "replay.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

namespace apps = rmiopt::apps;
namespace driver = rmiopt::driver;
namespace om = rmiopt::om;
using rmiopt::SplitMix64;
using rmiopt::codegen::kPaperLevels;
using rmiopt::codegen::OptLevel;

constexpr int kSetupRepeats = 7;
// Cold + warm round pairs per iteration of the compile workload.
constexpr int kCompileRoundsPerIteration = 100;
// Share of its time a runtime workload spends on compile rounds, run
// after each app run for a matching slice of time.
constexpr double kAppCompileShare = 0.1;
// Calls per level in the layer replay: 5 levels x 400 leaves 20 samples
// beyond each p99.
constexpr int kReplayRounds = 400;

constexpr std::size_t kPageSize = 64 * 1024;
constexpr std::size_t kWebRequests = 1000;

// run_superopt with max_len 2 is deterministic in virtual time: it finds
// 114 equivalent sequences and ends at these makespans, whatever the seed.
constexpr double kSuperoptEquivalences = 114;
constexpr std::array<std::int64_t, 5> kSuperoptMakespanNs = {
    2'828'109'678, 2'513'796'462, 2'121'303'662, 2'513'796'462, 2'121'303'662};

std::size_t level_index(OptLevel level) {
  return static_cast<std::size_t>(
      std::find(kPaperLevels.begin(), kPaperLevels.end(), level) -
      kPaperLevels.begin());
}

std::vector<SourceFile> read_sources(const std::string& dir) {
  std::vector<SourceFile> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".mp") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    out.push_back({entry.path().filename().string(), text.str()});
  }
  std::sort(out.begin(), out.end(),
            [](const SourceFile& a, const SourceFile& b) { return a.name < b.name; });
  if (out.empty()) throw rmiopt::Error("no MiniParty sources in " + dir);
  return out;
}

// ---- object graphs the layer replay sends ------------------------------------

struct SopClasses {
  om::ClassId program, instr, instr_arr, operand;
};

// The app's encoding of a candidate: Program -> Instruction[] -> one
// Instruction per step -> three Operands each (10 objects at length 2).
om::ObjRef build_candidate(om::Heap& heap, const SopClasses& c,
                           const apps::SopProgram& p) {
  const om::TypeRegistry& types = heap.types();
  const om::ClassDescriptor& program = types.get(c.program);
  const om::ClassDescriptor& instr = types.get(c.instr);
  const om::ClassDescriptor& operand = types.get(c.operand);
  om::ObjRef obj = heap.alloc(program);
  om::ObjRef code =
      heap.alloc_array(c.instr_arr, static_cast<std::uint32_t>(p.size()));
  obj->set_ref(program.fields[0], code);
  for (std::size_t i = 0; i < p.size(); ++i) {
    om::ObjRef ins = heap.alloc(instr);
    ins->set<std::int32_t>(instr.fields[0],
                           static_cast<std::int32_t>(p[i].op) * 8 + p[i].dst);
    const apps::SopOperand ops[3] = {p[i].src1, p[i].src2, {}};
    for (int k = 0; k < 3; ++k) {
      om::ObjRef o = heap.alloc(operand);
      o->set<std::int32_t>(operand.fields[0], ops[k].is_imm ? 1 : 0);
      o->set<std::int64_t>(operand.fields[1], ops[k].value);
      ins->set_ref(instr.fields[1 + k], o);
    }
    code->set_elem_ref(static_cast<std::uint32_t>(i), ins);
  }
  return obj;
}

apps::SopProgram seeded_candidate(std::uint64_t seed) {
  SplitMix64 rng(seed);
  auto operand = [&] {
    const auto code = static_cast<std::int64_t>(rng.next_below(
        apps::kSopRegs + apps::kSopImms));
    return code < apps::kSopRegs
               ? apps::SopOperand{false, code}
               : apps::SopOperand{true, code - apps::kSopRegs};
  };
  apps::SopProgram p;
  for (int i = 0; i < 2; ++i) {
    apps::SopInstr in;
    in.op = static_cast<apps::SopOp>(rng.next_below(apps::kSopOps));
    in.dst = static_cast<int>(rng.next_below(apps::kSopRegs));
    in.src1 = operand();
    in.src2 = operand();
    p.push_back(in);
  }
  return p;
}

ReplaySubject candidate_subject(om::TypeRegistry& types, SopClasses classes,
                                const std::array<driver::CompiledProgram, 5>& programs,
                                std::uint32_t tag, std::uint64_t seed) {
  ReplaySubject s;
  s.types = &types;
  s.programs = &programs;
  s.tag = tag;
  s.export_class = "Tester";
  s.make_args = [classes, p = seeded_candidate(seed)](om::Heap& heap) {
    return std::vector<om::ObjRef>{build_candidate(heap, classes, p)};
  };
  return s;
}

std::string page_url(std::size_t page) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "/page%06zu.html", page);
  return buf;
}

// ---- the runtime apps ------------------------------------------------------------

// One paper app driven through its public run_* entry point, sharing one
// figure model and one PassManager across levels and iterations.
class App {
 public:
  virtual ~App() = default;
  virtual const char* span_name() const = 0;
  // One run at `level`; a warm-up run is a small one that fills caches.
  virtual apps::RunResult run(OptLevel level, bool warmup) = 0;
  // Empty when the run's outputs are correct, else what is wrong.
  virtual std::string check(OptLevel level, const apps::RunResult& r,
                            bool warmup) const = 0;
  virtual ReplaySubject subject() = 0;

 protected:
  const std::array<driver::CompiledProgram, 5>& compiled(
      apps::figures::FigureProgram& model, driver::PassManager& pm) {
    for (std::size_t l = 0; l < kPaperLevels.size(); ++l) {
      programs_[l] = pm.compile(*model.module, kPaperLevels[l]);
    }
    return programs_;
  }

 private:
  std::array<driver::CompiledProgram, 5> programs_;
};

class SuperoptApp final : public App {
 public:
  explicit SuperoptApp(std::uint64_t seed) : seed_(seed) {
    cfg_.max_len = 2;
    cfg_.seed = seed;
    cfg_.model = &model_;
    cfg_.pass_manager = &pm_;
  }
  const char* span_name() const override { return "apps.run_superopt"; }

  apps::RunResult run(OptLevel level, bool warmup) override {
    apps::SuperoptConfig cfg = cfg_;
    if (warmup) cfg.max_len = 1;
    return apps::run_superopt(level, cfg);
  }

  std::string check(OptLevel level, const apps::RunResult& r,
                    bool warmup) const override {
    if (warmup) return {};
    std::string why;
    if (r.check != kSuperoptEquivalences) {
      why += "equivalences " + std::to_string(r.check) + " != 114; ";
    }
    const std::int64_t want = kSuperoptMakespanNs[level_index(level)];
    if (r.makespan.as_nanos() != want) {
      why += "makespan " + std::to_string(r.makespan.as_nanos()) +
             " ns != pinned " + std::to_string(want) + " ns; ";
    }
    return why;
  }

  ReplaySubject subject() override {
    const SopClasses classes{model_.cls("Program"), model_.cls("Instruction"),
                             model_.cls("[LInstruction;"),
                             model_.cls("Operand")};
    return candidate_subject(*model_.types, classes, compiled(model_, pm_),
                             model_.tag("test"), seed_);
  }

 private:
  std::uint64_t seed_;
  apps::figures::FigureProgram model_ = apps::figures::make_superopt_model();
  driver::PassManager pm_;  // after model_: its analyses point into it
  apps::SuperoptConfig cfg_;
};

class WebserverApp final : public App {
 public:
  explicit WebserverApp(std::uint64_t seed) : seed_(seed) {
    cfg_.page_size = kPageSize;
    cfg_.requests = kWebRequests;
    cfg_.concurrent_clients = 2;
    cfg_.seed = seed;
    cfg_.model = &model_;
    cfg_.pass_manager = &pm_;
  }
  const char* span_name() const override { return "apps.run_webserver"; }

  apps::RunResult run(OptLevel level, bool warmup) override {
    apps::WebserverConfig cfg = cfg_;
    if (warmup) cfg.requests = 16;
    return apps::run_webserver(level, cfg);
  }

  std::string check(OptLevel, const apps::RunResult& r,
                    bool warmup) const override {
    const std::size_t requests = warmup ? 16 : cfg_.requests;
    std::string why;
    const double want = static_cast<double>(requests * cfg_.page_size);
    if (r.check != want) {
      why += "received " + std::to_string(r.check) + " bytes, want " +
             std::to_string(want) + "; ";
    }
    const auto& t = r.total;
    if (r.failovers + t.call_timeouts + t.machine_down_failures + t.sheds +
            t.cancels_honored + t.deadline_rejects !=
        0) {
      why += "timeouts, overload sheds or cancels occurred; ";
    }
    return why;
  }

  ReplaySubject subject() override {
    ReplaySubject s;
    s.types = model_.types.get();
    s.programs = &compiled(model_, pm_);
    s.tag = model_.tag("get_page");
    s.export_class = "Server";
    SplitMix64 rng(seed_);
    const std::size_t page = rng.next_below(cfg_.pages);
    s.make_args = [url = page_url(page)](om::Heap& heap) {
      return std::vector<om::ObjRef>{heap.alloc_string(url)};
    };
    // The slave's page content (run_webserver fills its table this way).
    std::string body(kPageSize, '\0');
    for (std::size_t i = 0; i < body.size(); ++i) {
      body[i] = static_cast<char>('a' + (page + i) % 26);
    }
    s.make_return = [body = std::move(body)](om::Heap& heap) {
      return heap.alloc_string(body);
    };
    return s;
  }

 private:
  std::uint64_t seed_;
  apps::figures::FigureProgram model_ = apps::figures::make_webserver_model();
  driver::PassManager pm_;  // after model_: its analyses point into it
  apps::WebserverConfig cfg_;
};

// ---- accumulation ------------------------------------------------------------------

struct Tally {
  // Runtime part: every run_* call of the measured loop.
  std::uint64_t rmis = 0;
  std::int64_t rmi_wall_ns = 0;
  Usage rmi_usage;
  rmiopt::rmi::RmiStatsSnapshot rmi_totals;
  rmiopt::net::NetworkStats::Snapshot net_totals;
  // Compile part.
  std::uint64_t compiles = 0;
  std::int64_t compile_wall_ns = 0;
  Usage compile_usage;
  // Per-round samples; the counts are the same in every round.
  std::vector<double> cold_ms, warm_ms, frontend_us;
  std::vector<double> heap_iterations, pass_executions, cache_hits;
  std::array<std::vector<double>, driver::kPassCount> pass_us;
  std::uint64_t warm_hits = 0, warm_misses = 0;
  // Per-iteration rates of the operations the end-to-end metrics count:
  // RMIs on the runtime workloads, (source, level) compiles on compile.
  std::vector<double> iter_ops_per_s, iter_cpu_us_per_op;

  struct Work {
    double ops = 0.0, wall_s = 0.0, cpu_s = 0.0;
  };
  Work work(bool rmi_ops) const {
    if (rmi_ops) {
      return {static_cast<double>(rmis),
              static_cast<double>(rmi_wall_ns) * 1e-9, rmi_usage.cpu_s};
    }
    return {static_cast<double>(compiles),
            static_cast<double>(compile_wall_ns) * 1e-9, compile_usage.cpu_s};
  }
  void end_iteration(const Work& before, bool rmi_ops) {
    const Work now = work(rmi_ops);
    const double ops = now.ops - before.ops;
    iter_ops_per_s.push_back(ratio(ops, now.wall_s - before.wall_s));
    iter_cpu_us_per_op.push_back(ratio((now.cpu_s - before.cpu_s) * 1e6, ops));
  }

  void add_cold(const RoundStats& st) {
    add_round(st);
    cold_ms.push_back(st.wall_ms);
    frontend_us.push_back(st.frontend_us);
    heap_iterations.push_back(
        static_cast<double>(st.compile.fixpoint_iterations));
    pass_executions.push_back(
        static_cast<double>(st.compile.total_executions()));
    for (std::size_t p = 0; p < driver::kPassCount; ++p) {
      pass_us[p].push_back(static_cast<double>(st.compile.passes[p].wall_ns) *
                           1e-3);
    }
  }
  void add_warm(const RoundStats& st) {
    add_round(st);
    warm_ms.push_back(st.wall_ms);
    cache_hits.push_back(static_cast<double>(st.compile.total_hits()));
    warm_hits += st.compile.total_hits();
    warm_misses += st.compile.total_misses();
  }

 private:
  void add_round(const RoundStats& st) {
    compiles += st.compiles;
    compile_wall_ns += static_cast<std::int64_t>(st.wall_ms * 1e6);
    compile_usage += st.usage;
  }
};

void compile_pair(CompileRounds& rounds, SpanLog& log, Tally& tally,
                  Report& report) {
  for (const bool cold : {true, false}) {
    try {
      const RoundStats st = cold ? rounds.cold_round(log) : rounds.warm_round(log);
      cold ? tally.add_cold(st) : tally.add_warm(st);
      report.check(st.mismatches == 0, st.compiles,
                   std::string(cold ? "cold" : "warm") +
                       " plans differ from the reference");
    } catch (const std::exception& e) {
      report.check(false, rounds.size() * kPaperLevels.size(), e.what());
    }
  }
}

void run_app_level(App& app, OptLevel level, std::uint64_t iteration,
                   SpanLog& log, Tally& tally, Report& report) {
  const std::int64_t id = log.reserve();
  const Usage u0 = Usage::now();
  const std::int64_t t0 = now_ns();
  apps::RunResult r;
  std::string why;
  try {
    r = app.run(level, /*warmup=*/false);
    why = app.check(level, r, /*warmup=*/false);
  } catch (const std::exception& e) {
    why = e.what();
  }
  const std::int64_t t1 = now_ns();
  const Usage used = Usage::now() - u0;
  log.add(app.span_name(), t0, t1, -1, iteration, id);
  report.check(why.empty(), std::max<std::uint64_t>(1, r.total.remote_rpcs),
               std::string(app.span_name()) + " at " +
                   std::string(rmiopt::codegen::to_string(level)) + ": " + why);
  tally.rmis += r.total.remote_rpcs;
  tally.rmi_wall_ns += t1 - t0;
  tally.rmi_usage += used;
  tally.rmi_totals += r.total;
  tally.net_totals += r.net;
}

std::unique_ptr<App> make_app(const std::string& workload, std::uint64_t seed) {
  if (workload == "superopt") return std::make_unique<SuperoptApp>(seed);
  return std::make_unique<WebserverApp>(seed);
}

void report_end_to_end(const Tally& t, double setup_s, double rss_mb,
                       Report& report) {
  report.set("ops_per_s", median(t.iter_ops_per_s), "1/s");
  report.set("cpu_us_per_op", median(t.iter_cpu_us_per_op), "us");
  report.set("compile_ms_p50", quantile(t.cold_ms, 0.5), "ms");
  report.set("compile_ms_p90", quantile(t.cold_ms, 0.9), "ms");
  report.set("recompile_ms_p50", quantile(t.warm_ms, 0.5), "ms");
  report.set("setup_s", setup_s, "s");
  report.set("peak_rss_mb", rss_mb, "MB");
}

void report_per_layer(const Tally& t, Report& report) {
  const double rmis = static_cast<double>(t.rmis);
  const auto& s = t.rmi_totals.serial;
  report.set("trace.ops_per_s", median(t.iter_ops_per_s), "1/s");
  report.set("net.ctx_switches_per_rmi",
             ratio(static_cast<double>(t.rmi_usage.ctx_switches), rmis),
             "count");
  report.set("objmodel.objects_alloc_per_rmi",
             ratio(static_cast<double>(s.objects_allocated), rmis), "count");
  report.set("serial.cycle_lookups_per_rmi",
             ratio(static_cast<double>(s.cycle_lookups), rmis), "count");
  report.set("serial.invocations_per_rmi",
             ratio(static_cast<double>(s.serializer_invocations), rmis),
             "count");
  report.set("serial.type_info_bytes_per_rmi",
             ratio(static_cast<double>(s.type_info_bytes), rmis), "B");
  report.set("serial.reused_ratio",
             ratio(static_cast<double>(s.objects_reused),
                   static_cast<double>(s.objects_reused + s.objects_allocated)),
             "ratio");
  report.set("wire.frames_per_rmi",
             ratio(static_cast<double>(t.net_totals.frames), rmis), "count");
  report.set("wire.bytes_per_rmi",
             ratio(static_cast<double>(t.net_totals.bytes), rmis), "B");
  report.set("frontend.compile_source_us", median(t.frontend_us), "us");
  for (const driver::PassId id :
       {driver::PassId::Verify, driver::PassId::Heap, driver::PassId::Cycle,
        driver::PassId::Escape, driver::PassId::PlanGen}) {
    report.set("driver." + std::string(driver::to_string(id)) + "_us",
               median(t.pass_us[static_cast<std::size_t>(id)]), "us");
  }
  report.set("analysis.heap_iterations", median(t.heap_iterations), "count");
  report.set("driver.pass_executions", median(t.pass_executions), "count");
  report.set("driver.cache_hits", median(t.cache_hits), "count");
  report.set("driver.cache_hit_ratio",
             ratio(static_cast<double>(t.warm_hits),
                   static_cast<double>(t.warm_hits + t.warm_misses)),
             "ratio");
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "superopt" || name == "webserver_bulk" || name == "compile";
}

void run_workload(const Options& opt, SpanLog& log, Report& report) {
  const bool rmi_ops = opt.workload != "compile";
  const std::vector<SourceFile> all = read_sources(opt.sources_dir);
  // Independent streams for the app's own seed and the source order.
  SplitMix64 seeds(opt.seed);
  const std::uint64_t app_seed = seeds.next();
  const std::uint64_t order_seed = seeds.next();

  // ---- set-up, repeated; the last instance is kept ---------------------------
  auto timed_setup = [](auto&& setup) {
    std::vector<double> secs;
    for (int i = 0; i < kSetupRepeats; ++i) {
      const std::int64_t t0 = now_ns();
      setup();
      secs.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    return median(secs);
  };
  std::unique_ptr<CompileRounds> rounds;
  Tally warmup;  // set-up rounds are not measured
  double setup_s = timed_setup([&] {
    rounds.reset();
    std::vector<SourceFile> sources = all;
    SplitMix64 rng(order_seed);
    for (std::size_t k = sources.size(); k > 1; --k) {
      std::swap(sources[k - 1], sources[rng.next_below(k)]);
    }
    rounds = std::make_unique<CompileRounds>(std::move(sources));
    SpanLog off(false);
    Report scratch;
    compile_pair(*rounds, off, warmup, scratch);
    if (scratch.failed() != 0) throw rmiopt::Error("warm-up compile failed");
  });

  Tally tally;
  std::unique_ptr<App> app;
  if (rmi_ops) {
    setup_s += timed_setup([&] {
      app.reset();
      app = make_app(opt.workload, app_seed);
      for (OptLevel level : kPaperLevels) {
        const apps::RunResult r = app->run(level, /*warmup=*/true);
        const std::string why = app->check(level, r, /*warmup=*/true);
        if (!why.empty()) throw rmiopt::Error("warm-up run failed: " + why);
      }
    });
  }

  // ---- the measured closed loop ------------------------------------------------
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  // Peak RSS after the first iteration: run_webserver never frees its
  // page tables, so the peak of a whole run would grow with its length.
  double rss_mb = 0.0;
  std::uint64_t iteration = 0;
  do {
    const Tally::Work before = tally.work(rmi_ops);
    if (app) {
      for (OptLevel level : kPaperLevels) {
        const std::int64_t t0 = now_ns();
        run_app_level(*app, level, iteration, log, tally, report);
        // Compile rounds spread over the whole run see the same machine
        // load as the app; a block of them swings with short stalls.
        const std::int64_t t1 = now_ns();
        const auto slice = static_cast<std::int64_t>(
            static_cast<double>(t1 - t0) * kAppCompileShare /
            (1.0 - kAppCompileShare));
        do {
          compile_pair(*rounds, log, tally, report);
        } while (now_ns() < t1 + slice);
      }
    } else {
      for (int k = 0; k < kCompileRoundsPerIteration; ++k) {
        compile_pair(*rounds, log, tally, report);
      }
    }
    tally.end_iteration(before, rmi_ops);
    if (iteration == 0) rss_mb = peak_rss_mb();
    ++iteration;
  } while (now_ns() < deadline);

  if (!opt.trace) {
    report_end_to_end(tally, setup_s, rss_mb, report);
    return;
  }
  report_per_layer(tally, report);
  if (app) {
    replay_layers(app->subject(), kReplayRounds, log, report);
  } else {
    // The compile workload's own plans for the superoptimizer source.
    rmiopt::frontend::Unit& unit = rounds->unit("superopt.mp");
    const SopClasses classes{
        unit.cls("Program"), unit.cls("Instruction"),
        unit.types->register_ref_array(unit.cls("Instruction")),
        unit.cls("Operand")};
    replay_layers(candidate_subject(*unit.types, classes,
                                    rounds->programs("superopt.mp"),
                                    unit.tags_for("Tester.test").at(0),
                                    app_seed),
                  kReplayRounds, log, report);
  }
}

}  // namespace perfbench
