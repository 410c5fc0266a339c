// Ablation: tracing overhead and fidelity.
//
// The trace recorder is attached behind a null-pointer hook, so the claim
// to verify is twofold:
//
//  * zero simulation overhead — attaching a recorder must not move a
//    single virtual nanosecond or statistics counter: the simulation is
//    unchanged, only observed.  Every off/on pair below is asserted
//    identical (makespan, RMI stats, network stats); the table reports
//    the *real* wall-clock cost of buffering the events, which is the
//    only price tracing pays.
//  * fidelity under faults — a faulty webserver run must show its
//    retransmits and duplicate-suppression verdicts as events on the
//    affected link, and every network counter must equal the number of
//    its events.
//
// With a path argument, the faulty webserver's Chrome trace JSON is
// written there (load in chrome://tracing or ui.perfetto.dev; CI
// validates the schema and per-track timestamp monotonicity).
#include <chrono>
#include <cstdio>

#include "apps/lu.hpp"
#include "apps/microbench.hpp"
#include "apps/webserver.hpp"
#include "bench/bench_common.hpp"

using namespace rmiopt;
using Clock = std::chrono::steady_clock;

namespace {

struct OffOn {
  apps::RunResult off;
  apps::RunResult on;
  double off_ms = 0.0;  // real wall time, recorder detached
  double on_ms = 0.0;   // real wall time, recorder attached
  std::size_t events = 0;
};

double real_ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Runs `runner` once without and once with a recorder and asserts the
// simulation did not move.  `deterministic` is false for runs whose
// makespan is scheduling-sensitive even without tracing (LU's GM wakeup
// heuristic); those only assert the statistics.
template <typename Runner>
OffOn measure(const char* name, Runner runner, trace::MemoryRecorder& rec,
              bool deterministic = true) {
  OffOn r;
  const auto t0 = Clock::now();
  r.off = runner(nullptr);
  const auto t1 = Clock::now();
  r.on = runner(&rec);
  const auto t2 = Clock::now();
  r.off_ms = real_ms(t0, t1);
  r.on_ms = real_ms(t1, t2);
  r.events = rec.size();
  if (deterministic) {
    RMIOPT_CHECK(r.off.makespan == r.on.makespan,
                 std::string(name) + ": tracing moved the virtual makespan");
    RMIOPT_CHECK(r.off.net == r.on.net,
                 std::string(name) + ": tracing moved the network counters");
  }
  RMIOPT_CHECK(r.off.total == r.on.total,
               std::string(name) + ": tracing moved the RMI statistics");
  RMIOPT_CHECK(r.off.check == r.on.check,
               std::string(name) + ": tracing changed an application result");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const codegen::OptLevel level = codegen::OptLevel::SiteReuseCycle;

  std::printf(
      "tracing ablation: identical simulation with the recorder attached\n"
      "(cells: virtual makespan ms | real run ms off/on | events)\n\n");

  TextTable t({"workload", "virtual (ms)", "real off (ms)", "real on (ms)",
               "events"});

  trace::MemoryRecorder list_rec;
  const OffOn list = measure(
      "linkedlist",
      [&](trace::Recorder* rec) {
        apps::ListBenchConfig cfg;
        cfg.recorder = rec;
        return apps::run_list_bench(level, cfg);
      },
      list_rec);
  t.add_row({"linkedlist x100", fmt_fixed(list.on.makespan.as_seconds() * 1e3, 3),
             fmt_fixed(list.off_ms, 1), fmt_fixed(list.on_ms, 1),
             std::to_string(list.events)});

  trace::MemoryRecorder lu_rec;
  const OffOn lu = measure(
      "lu",
      [&](trace::Recorder* rec) {
        apps::LuConfig cfg;
        cfg.n = 64;
        cfg.recorder = rec;
        return apps::run_lu(level, cfg);
      },
      lu_rec, /*deterministic=*/false);
  t.add_row({"lu 64x64", fmt_fixed(lu.on.makespan.as_seconds() * 1e3, 3),
             fmt_fixed(lu.off_ms, 1), fmt_fixed(lu.on_ms, 1),
             std::to_string(lu.events)});

  trace::MemoryRecorder web_rec;
  const OffOn web = measure(
      "webserver",
      [&](trace::Recorder* rec) {
        apps::WebserverConfig cfg;
        cfg.requests = 200;
        cfg.recorder = rec;
        return apps::run_webserver(level, cfg);
      },
      web_rec);
  t.add_row({"webserver x200", fmt_fixed(web.on.makespan.as_seconds() * 1e3, 3),
             fmt_fixed(web.off_ms, 1), fmt_fixed(web.on_ms, 1),
             std::to_string(web.events)});

  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Every row ran twice; makespan, RMI stats and network counters were\n"
      "asserted identical with and without the recorder (LU: stats only —\n"
      "its makespan is scheduling-sensitive with or without tracing).\n\n");

  // ---- fidelity under faults ----------------------------------------------
  trace::MemoryRecorder faulty_rec;
  apps::WebserverConfig fcfg;
  fcfg.requests = 300;
  fcfg.faults.seed = 99;
  fcfg.faults.set_link(0, 1, {.drop = 0.05, .duplicate = 0.05});
  fcfg.recorder = &faulty_rec;
  const apps::RunResult faulty = apps::run_webserver(level, fcfg);

  const auto retrans = faulty_rec.events_of(trace::EventKind::Retransmit);
  const auto dedup = faulty_rec.events_of(trace::EventKind::DedupDrop);
  std::size_t retrans_01 = 0, dedup_01 = 0;
  for (const auto& e : retrans) retrans_01 += e.machine == 0 && e.peer == 1;
  for (const auto& e : dedup) dedup_01 += e.machine == 0 && e.peer == 1;
  std::printf(
      "faulty webserver (5%% drop + 5%% duplicate on link 0->1, seed 99):\n"
      "  net counters: %llu retransmits, %llu dedup hits\n"
      "  trace events: %zu retransmit spans (%zu on 0->1), "
      "%zu dedup drops (%zu on 0->1)\n",
      static_cast<unsigned long long>(faulty.net.retransmits),
      static_cast<unsigned long long>(faulty.net.dedup_hits),
      retrans.size(), retrans_01, dedup.size(), dedup_01);
  // One note() reports each occurrence's counter and event, so every
  // pair is exactly equal (docs/OBSERVABILITY.md).
  const auto n = [&](trace::EventKind k) {
    return static_cast<std::uint64_t>(faulty_rec.events_of(k).size());
  };
  using E = trace::EventKind;
  const auto& net = faulty.net;
  const struct {
    const char* counter;
    std::uint64_t value, events;
  } pairs[] = {
      {"dropped", net.dropped, n(E::FaultDrop)},
      {"duplicated", net.duplicated, n(E::FaultDuplicate)},
      {"reordered", net.reordered, n(E::FaultReorder)},
      {"corrupted", net.corrupted, n(E::FaultCorrupt)},
      {"retransmits", net.retransmits,
       n(E::Retransmit) + n(E::NackTurnaround)},
      {"dedup_hits", net.dedup_hits, n(E::DedupDrop)},
      {"dedup_late_recoveries", net.dedup_late_recoveries,
       n(E::DedupLateRecovery)},
      {"heartbeats", net.heartbeats, n(E::Heartbeat)},
      {"heartbeat_misses", net.heartbeat_misses, n(E::HeartbeatMiss)},
      {"suspicions", net.suspicions, n(E::MachineSuspected)},
      {"machine_deaths", net.machine_deaths, n(E::MachineDead)},
  };
  for (const auto& p : pairs) {
    RMIOPT_CHECK(p.value == p.events, std::string("network counter ") +
                                          p.counter + " != its trace events");
  }
  RMIOPT_CHECK(retrans_01 == retrans.size() && dedup_01 == dedup.size(),
               "fault events traced off the faulty link 0->1");

  bench::print_callsite_profile("\nper-call-site profile (faulty webserver):",
                                faulty_rec);

  if (argc > 1) {
    if (bench::write_chrome_trace(argv[1], faulty_rec)) {
      std::printf("wrote Chrome trace: %s\n", argv[1]);
    } else {
      std::fprintf(stderr, "cannot write %s\n", argv[1]);
      return 1;
    }
  }
  return 0;
}
