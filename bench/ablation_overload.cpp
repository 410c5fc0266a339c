// Overload ablation: offered load x inbox bound x optimization level,
// on both transports.
//
// Phase 1 (open loop): one sender machine fires RMIOPT_OVERLOAD_CALLS
// fire-and-forget calls at a fixed virtual-time gap — 0.5x/1x/2x/4x the
// modelled admission service time — against a callee whose inbox is
// unbounded (bound 0), loosely bounded (16) or tightly bounded (4).
// Oneway calls keep the sender's clock free of reply merges, so every
// admission decision is a pure function of virtual time: the Sim and
// Loopback transports must agree counter-for-counter.
//
// The flow-control credit is deliberately undersized (2 us per unit of
// excess backlog vs 40 us of service): a sender this aggressive cannot
// be paced to capacity, so sustained overload genuinely reaches the
// bound and sheds.  With the default 20 us credit, backpressure alone
// holds the backlog below any reasonable bound — that regime is covered
// by the zero-shed low-load cells.
//
// Phase 2 (closed loop): synchronous calls carrying a 1 ms budget against
// a callee whose clock sits 10 ms ahead — every one must come back as a
// typed DeadlineExceeded without running the handler.
//
// Checked per cell (the binary aborts on violation, after writing a
// Chrome trace of a re-run to RMIOPT_OVERLOAD_TRACE for CI to attach):
//  * Sim and Loopback agree exactly;
//  * at or below 1x load (or with no bound) nothing is shed and goodput
//    is within 10% of the offered load;
//  * above 1x load with a bound, sheds are nonzero but bounded, and
//    every refusal is a typed Overload — never a ProtocolError, never a
//    hang;
//  * every phase-2 call fails as DeadlineExceeded.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_common.hpp"
#include "rmi/runtime.hpp"
#include "trace/recorder.hpp"

using namespace rmiopt;
using codegen::OptLevel;

namespace {

constexpr std::uint64_t kDeadlineCalls = 10;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::strtoull(v, nullptr, 10)
                                    : fallback;
}

struct CellResult {
  std::uint64_t admitted = 0;
  std::uint64_t sheds = 0;
  std::uint64_t credit_stalls = 0;
  std::uint64_t deadline_rejects = 0;
  std::uint64_t other_errors = 0;  // anything untyped: must stay 0

  friend bool operator==(const CellResult&, const CellResult&) = default;
};

CellResult run_cell(OptLevel level, net::TransportKind transport,
                    std::size_t bound, std::int64_t gap_ns,
                    std::uint64_t calls, trace::Recorder* rec) {
  om::TypeRegistry types;
  net::Cluster cluster(2, types, serial::CostModel{}, transport);
  if (rec != nullptr) cluster.set_recorder(rec);
  rmi::ExecutorConfig exec;
  exec.inbox_bound = bound;
  exec.credit_stall_ns = 2'000;  // undersized credit: see header comment
  rmi::RmiSystem sys(cluster, types, exec);
  const std::int64_t service = exec.admission_service_ns;

  const auto mid = sys.define_method(
      "sink", [](rmi::CallContext&, auto, auto) {
        return rmi::HandlerResult{};
      });
  rmi::CompiledCallSite cs;
  cs.method_id = mid;
  cs.plan = std::make_unique<serial::CallSitePlan>();
  cs.plan->name = "overload.sink";
  cs.level = level;
  const auto site = sys.add_callsite(std::move(cs));
  const rmi::RemoteRef ref = sys.export_object(1, nullptr);
  sys.start();

  CellResult r;
  net::VirtualClock& clock = cluster.machine(0).clock();
  for (std::uint64_t i = 0; i < calls; ++i) {
    clock.advance(SimTime::nanos(gap_ns));
    try {
      sys.invoke_oneway(0, ref, site, {});
      ++r.admitted;
    } catch (const rmi::Overload&) {
      ++r.sheds;
    } catch (const Error&) {
      ++r.other_errors;
    }
  }
  r.credit_stalls = sys.stats(0).credit_stalls;

  // Phase 2: drain the modelled backlog, then issue budgeted calls
  // against a callee whose clock is far ahead — each must be refused
  // with a typed DeadlineExceeded before its handler runs.
  clock.advance(
      SimTime::nanos(static_cast<std::int64_t>(calls + 1) * service));
  for (std::uint64_t i = 0; i < kDeadlineCalls; ++i) {
    cluster.machine(1).clock().merge_at_least(
        SimTime::nanos(clock.now().as_nanos() + 10'000'000));
    try {
      sys.invoke(0, ref, site, {}, {},
                 rmi::CallOptions{.budget_ns = 1'000'000});
      ++r.other_errors;  // a success here means the deadline gate failed
    } catch (const rmi::DeadlineExceeded&) {
      ++r.deadline_rejects;
    } catch (const Error&) {
      ++r.other_errors;
    }
  }
  sys.stop();
  return r;
}

void dump_failure_trace(OptLevel level, std::size_t bound, std::int64_t gap,
                        std::uint64_t calls) {
  const char* path = std::getenv("RMIOPT_OVERLOAD_TRACE");
  if (path == nullptr || *path == '\0') path = "overload_failure_trace.json";
  trace::MemoryRecorder rec;
  try {
    run_cell(level, net::TransportKind::Sim, bound, gap, calls, &rec);
  } catch (const Error&) {
    // A partial trace of the failing cell is still the artifact we want.
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  const std::string json = chrome_trace_json(rec.events());
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "overload: failing-cell trace written to %s\n", path);
}

void require(bool ok, const std::string& what, OptLevel level,
             std::size_t bound, std::int64_t gap, std::uint64_t calls) {
  if (ok) return;
  dump_failure_trace(level, bound, gap, calls);
  RMIOPT_CHECK(false, what);
}

}  // namespace

int main() {
  const std::uint64_t calls = env_u64("RMIOPT_OVERLOAD_CALLS", 200);
  const std::int64_t service = rmi::ExecutorConfig{}.admission_service_ns;
  struct Load {
    const char* name;
    std::int64_t gap_ns;
    bool overload;  // offered rate above the modelled service rate
  };
  const Load loads[] = {
      {"0.5x", 2 * service, false},
      {"1x", service, false},
      {"2x", service / 2, true},
      {"4x", service / 4, true},
  };
  const std::size_t bounds[] = {0, 16, 4};

  std::printf(
      "overload ablation: %llu oneway calls per cell, %llu budgeted calls,\n"
      "offered load x inbox bound x optimization level, Sim vs Loopback\n\n",
      static_cast<unsigned long long>(calls),
      static_cast<unsigned long long>(kDeadlineCalls));

  TextTable t({"Optimization", "bound", "offered", "admitted", "sheds",
               "credit stalls", "deadline rejects"});
  for (OptLevel level : codegen::kPaperLevels) {
    for (const std::size_t bound : bounds) {
      for (const Load& load : loads) {
        const CellResult sim = run_cell(level, net::TransportKind::Sim,
                                        bound, load.gap_ns, calls, nullptr);
        const CellResult loop =
            run_cell(level, net::TransportKind::Loopback, bound,
                     load.gap_ns, calls, nullptr);
        const std::string where =
            std::string("level=") + std::string(to_string(level)) +
            " bound=" + std::to_string(bound) + " load=" + load.name;
        require(sim == loop,
                "Sim and Loopback transports disagree (" + where + ")",
                level, bound, load.gap_ns, calls);
        require(sim.other_errors == 0,
                "untyped failure escaped the overload layer (" + where + ")",
                level, bound, load.gap_ns, calls);
        require(sim.admitted + sim.sheds == calls,
                "calls lost without a verdict (" + where + ")", level,
                bound, load.gap_ns, calls);
        require(sim.deadline_rejects == kDeadlineCalls,
                "expired-budget call not refused as DeadlineExceeded (" +
                    where + ")",
                level, bound, load.gap_ns, calls);
        if (bound == 0 || !load.overload) {
          require(sim.sheds == 0,
                  "shed below the inbox bound (" + where + ")", level,
                  bound, load.gap_ns, calls);
          // Goodput within 10% of the offered load (here: all of it).
          require(sim.admitted * 10 >= calls * 9,
                  "goodput below 90% of offered load (" + where + ")",
                  level, bound, load.gap_ns, calls);
        } else {
          require(sim.sheds > 0 && sim.sheds < calls,
                  "sustained overload not shed (or starved) (" + where +
                      ")",
                  level, bound, load.gap_ns, calls);
        }
        t.add_row({std::string(to_string(level)),
                   bound == 0 ? "off" : std::to_string(bound), load.name,
                   std::to_string(sim.admitted), std::to_string(sim.sheds),
                   std::to_string(sim.credit_stalls),
                   std::to_string(sim.deadline_rejects)});
      }
    }
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Every cell agreed across transports; below the bound goodput\n"
      "tracked the offered load with zero sheds, above it the excess was\n"
      "shed with typed Overload verdicts and expired budgets were refused\n"
      "as DeadlineExceeded before the handler ran.\n");
  return 0;
}
