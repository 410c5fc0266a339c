// Shared helpers for the table-reproduction benchmark binaries.
//
// Every binary prints (a) the paper's original table and (b) the measured
// reproduction in the same format, so the two can be compared side by
// side.  Absolute values differ from 2003 hardware by construction; the
// *shape* — ordering of configurations and rough gain factors — is the
// reproduction target (see EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "apps/run_result.hpp"
#include "codegen/opt_level.hpp"
#include "support/error.hpp"
#include "support/table.hpp"
#include "trace/profile.hpp"
#include "trace/recorder.hpp"

namespace rmiopt::bench {

using apps::RunResult;
using codegen::OptLevel;

struct LevelRun {
  OptLevel level;
  RunResult result;
};

inline std::vector<LevelRun> run_levels(
    const std::function<RunResult(OptLevel)>& runner) {
  std::vector<LevelRun> runs;
  for (OptLevel level : codegen::kPaperLevels) {
    runs.push_back(LevelRun{level, runner(level)});
  }
  return runs;
}

// Prints the fault/reliability counters — but only when something actually
// went wrong on the wire, so healthy benchmark output stays bit-for-bit
// identical to a build without fault support.
inline void print_fault_table(const std::vector<LevelRun>& runs) {
  bool any = false;
  for (const auto& run : runs) {
    const auto& n = run.result.net;
    any = any || n.faults() > 0 || n.retransmits > 0;
  }
  if (!any) return;
  TextTable t({"Optimization", "dropped", "dup'd", "reord", "corrupt",
               "retrans", "dedup", "failovers"});
  for (const auto& run : runs) {
    const auto& n = run.result.net;
    t.add_row({std::string(codegen::to_string(run.level)),
               std::to_string(n.dropped), std::to_string(n.duplicated),
               std::to_string(n.reordered), std::to_string(n.corrupted),
               std::to_string(n.retransmits), std::to_string(n.dedup_hits),
               std::to_string(run.result.failovers)});
  }
  std::printf("injected faults and recovery\n%s\n", t.render().c_str());
}

// Prints the zero-copy receive counters — borrowed spans/bytes and the
// frame pool's hit/miss traffic — but only when borrowing actually
// engaged (CostModel::zero_copy_receive on), so default knob-off output
// stays bit-for-bit identical to a build without zero-copy receive
// support.
inline void print_zero_copy_recv_table(const std::vector<LevelRun>& runs) {
  bool any = false;
  for (const auto& run : runs) {
    any = any || run.result.total.serial.recv_segments > 0 ||
          run.result.net.frame_pool_hits > 0 ||
          run.result.net.frame_pool_misses > 0;
  }
  if (!any) return;
  TextTable t({"Optimization", "rx spans", "rx borrowed B", "rx copied B",
               "pool hits", "pool misses"});
  for (const auto& run : runs) {
    const auto& s = run.result.total.serial;
    const auto& n = run.result.net;
    t.add_row({std::string(codegen::to_string(run.level)),
               std::to_string(s.recv_segments),
               std::to_string(s.recv_bytes_borrowed),
               std::to_string(s.bytes_copied_rx),
               std::to_string(n.frame_pool_hits),
               std::to_string(n.frame_pool_misses)});
  }
  std::printf("zero-copy receive\n%s\n", t.render().c_str());
}

// Prints a "seconds | gain over 'class'" table like Tables 1/2/3/5,
// followed by the fault table when fault injection was active and the
// zero-copy receive table when borrowing engaged.
inline void print_runtime_table(const std::string& title,
                                const std::vector<LevelRun>& runs) {
  std::printf("%s\n", title.c_str());
  TextTable t({"Compiler Optimization", "seconds", "gain over 'class'"});
  const double base = runs.front().result.makespan.as_seconds();
  for (const auto& run : runs) {
    const double s = run.result.makespan.as_seconds();
    t.add_row({std::string(codegen::to_string(run.level)), fmt_fixed(s, 4),
               fmt_gain(base, s)});
  }
  std::printf("%s\n", t.render().c_str());
  print_fault_table(runs);
  print_zero_copy_recv_table(runs);
}

// Prints a runtime-statistics table like Tables 4/6/8.  The
// "invocations" column is the count of dynamically dispatched serializer
// calls ("how many calls were made to serialization methods during the
// serialization process", §5.2) — call-site inlining reduces it.
inline void print_stats_table(const std::string& title,
                              const std::vector<LevelRun>& runs) {
  std::printf("%s\n", title.c_str());
  TextTable t({"Optimization", "reused objs", "local rpcs", "remote rpcs",
               "new (MBytes)", "cycle lookups", "invocations"});
  for (const auto& run : runs) {
    const auto& s = run.result.total;
    t.add_row({std::string(codegen::to_string(run.level)),
               std::to_string(s.serial.objects_reused),
               std::to_string(s.local_rpcs), std::to_string(s.remote_rpcs),
               fmt_fixed(s.deserialization_mbytes(), 2),
               std::to_string(s.serial.cycle_lookups),
               std::to_string(s.serial.serializer_invocations)});
  }
  std::printf("%s\n", t.render().c_str());
}

// Prints the compile pipeline's pass/cache counters summed over a level
// sweep — opt-in via RMIOPT_COMPILE_STATS=1, so default table output
// stays byte-for-bit identical run to run.  Only the deterministic
// counters are printed; per-pass wall time varies and never appears.
inline void print_compile_table(const std::vector<LevelRun>& runs) {
  const char* env = std::getenv("RMIOPT_COMPILE_STATS");
  if (env == nullptr || env[0] == '\0' || env[0] == '0') return;
  driver::CompileStats total;
  for (const auto& run : runs) total += run.result.compile;
  TextTable t({"pass", "executions", "cache hits", "cache misses"});
  for (std::size_t i = 0; i < driver::kPassCount; ++i) {
    const auto id = static_cast<driver::PassId>(i);
    const auto& p = total.pass(id);
    t.add_row({std::string(driver::to_string(id)),
               std::to_string(p.executions), std::to_string(p.cache_hits),
               std::to_string(p.cache_misses)});
  }
  std::printf("compile pipeline (level-sweep totals; fixpoint iterations %s)\n%s\n",
              std::to_string(total.fixpoint_iterations).c_str(),
              t.render().c_str());
}

inline void print_paper_reference(const std::string& caption,
                                  const std::vector<std::string>& lines) {
  std::printf("--- paper reference: %s ---\n", caption.c_str());
  for (const auto& l : lines) std::printf("  %s\n", l.c_str());
  std::printf("\n");
}

// ---- tracing ---------------------------------------------------------------

// Prints the per-call-site profile (invocations, p50/p95/max virtual
// latency, bytes, reuse/cycle activity) built from a recorded trace.
inline void print_callsite_profile(const std::string& title,
                                   const trace::MemoryRecorder& recorder,
                                   const trace::CallsiteNameFn& name = {}) {
  const auto rows = trace::build_profile(recorder.events());
  std::printf("%s\n%s\n", title.c_str(),
              trace::render_profile(rows, name).c_str());
}

// Writes the recorded trace as Chrome trace_event JSON (load in
// chrome://tracing or ui.perfetto.dev).  Returns false when the file
// cannot be written.
inline bool write_chrome_trace(const std::string& path,
                               const trace::MemoryRecorder& recorder,
                               const trace::CallsiteNameFn& name = {}) {
  const std::string json = trace::chrome_trace_json(recorder.events(), name);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
}

}  // namespace rmiopt::bench
