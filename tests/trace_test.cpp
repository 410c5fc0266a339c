// Tests for the virtual-time trace recorder (src/trace/): the
// zero-perturbation contract (attaching a recorder observes the
// simulation, never moves it), event/counter agreement, the per-call-site
// profile, per-call-site statistics under concurrent dispatch, and the
// Chrome trace_event exporter.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/microbench.hpp"
#include "apps/webserver.hpp"
#include "net/fault.hpp"
#include "rmi/runtime.hpp"
#include "trace/profile.hpp"
#include "trace/recorder.hpp"

namespace rmiopt {
namespace {

using codegen::OptLevel;

// ---- zero perturbation ------------------------------------------------------

TEST(Trace, RecorderLeavesTheSimulationUntouched) {
  const apps::ArrayBenchConfig off;
  const apps::RunResult a = apps::run_array_bench(OptLevel::SiteReuseCycle, off);

  trace::MemoryRecorder rec;
  apps::ArrayBenchConfig on;
  on.recorder = &rec;
  const apps::RunResult b = apps::run_array_bench(OptLevel::SiteReuseCycle, on);

  EXPECT_EQ(a.makespan.as_nanos(), b.makespan.as_nanos());
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.net, b.net);
  EXPECT_DOUBLE_EQ(a.check, b.check);
  EXPECT_GT(rec.size(), 0u);  // and yet the trace is not empty
}

// ---- events agree with the runtime counters --------------------------------

TEST(Trace, CallSpansMatchTheRmiCounters) {
  trace::MemoryRecorder rec;
  apps::WebserverConfig cfg;
  cfg.requests = 50;
  cfg.recorder = &rec;
  const apps::RunResult r =
      apps::run_webserver(OptLevel::SiteReuseCycle, cfg);

  const auto calls = rec.events_of(trace::EventKind::Call);
  EXPECT_EQ(calls.size(), r.total.remote_rpcs);
  EXPECT_EQ(rec.events_of(trace::EventKind::LocalCall).size(),
            r.total.local_rpcs);
  EXPECT_EQ(rec.events_of(trace::EventKind::HandlerRun).size(),
            r.total.remote_rpcs);
  for (const auto& e : calls) {
    EXPECT_EQ(e.track, trace::TrackKind::Machine);
    EXPECT_GT(e.dur_ns, 0);  // a remote call always costs virtual time
    EXPECT_NE(e.callsite, trace::Event::kNoCallsite);
    EXPECT_GT(e.bytes, 0u);  // request + reply payload bytes
  }
  // A healthy run has no reliability events.
  EXPECT_TRUE(rec.events_of(trace::EventKind::Retransmit).empty());
  EXPECT_TRUE(rec.events_of(trace::EventKind::DedupDrop).empty());
  EXPECT_TRUE(rec.events_of(trace::EventKind::CallTimeout).empty());
}

// Every counted occurrence that also has a trace event must report the
// two in agreement: each scenario drives one occurrence on a small
// two- or three-machine system with a recorder attached, then every RMI
// and network counter is compared with the number of its events.
struct Counts {
  rmi::RmiStatsSnapshot rmi;
  net::NetworkStats::Snapshot net;
};

class OccurrenceRig {
 public:
  explicit OccurrenceRig(trace::Recorder* rec, std::size_t machines = 2,
                         const rmi::ExecutorConfig& exec = {},
                         const net::FaultPlan& faults = {},
                         const net::FailureDetectorConfig& detector = {},
                         const wire::SessionConfig& session = {})
      : cluster(machines, types, {}, net::TransportKind::Sim, session, faults,
                detector),
        sys(cluster, types, exec) {
    cluster.set_recorder(rec);  // before any traffic flows
  }

  std::uint32_t site(rmi::Handler handler) {
    rmi::CompiledCallSite cs;
    cs.method_id = sys.define_method("occ", std::move(handler));
    cs.plan = std::make_unique<serial::CallSitePlan>();
    cs.plan->name = "occ.site";
    return sys.add_callsite(std::move(cs));
  }
  rmi::RemoteRef ref(std::uint16_t machine) {
    return sys.export_object(machine,
                             cluster.machine(machine).heap().alloc_string("x"));
  }
  // An argument-free Call as if an end-to-end duplicate of `seq` had
  // slipped past the transport dedup.
  void inject_duplicate(std::uint32_t site, rmi::RemoteRef to,
                        std::uint32_t seq, bool oneway) {
    wire::Message m;
    m.header = {.kind = wire::MsgKind::Call, .callsite_id = site,
                .target_export = to.export_id, .seq = seq,
                .source_machine = 0, .dest_machine = to.machine,
                .flags = oneway ? wire::kFlagOneway : std::uint8_t{0}};
    m.payload.put_varint(0);  // no scalars
    cluster.send(std::move(m));
  }
  // Dispatchers process injected messages asynchronously: poll (real
  // time, generous bound) before stopping.
  void wait_until(const std::function<bool()>& done) {
    for (int i = 0; i < 5000 && !done(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(done());
  }
  Counts finish() {
    sys.stop();
    return {sys.total_stats(), cluster.stats()};
  }

  om::TypeRegistry types;
  net::Cluster cluster;
  rmi::RmiSystem sys;
};

rmi::HandlerResult noop(rmi::CallContext&, std::span<const std::int64_t>,
                        std::span<const om::ObjRef>) {
  return {};
}

// A handler that parks until opened, then burns `burn_ns` of its
// machine's virtual time.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  bool open = false;

  rmi::Handler handler(std::int64_t burn_ns) {
    return [this, burn_ns](rmi::CallContext& ctx, auto, auto) {
      std::unique_lock lock(mu);
      ++entered;
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(10), [&] { return open; });
      ctx.machine().clock().advance(SimTime::nanos(burn_ns));
      return rmi::HandlerResult{};
    };
  }
  void await_entered(int n) {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return entered == n; }));
  }
  void release() {
    std::scoped_lock lock(mu);
    open = true;
    cv.notify_all();
  }
};

net::FaultPlan duplicating_plan() {
  net::FaultPlan plan;
  plan.seed = 7;
  plan.set_link(0, 1, {.duplicate = 1.0});
  return plan;
}

struct OccurrenceScenario {
  const char* name;
  std::uint64_t rmi::RmiStatsSnapshot::*exercised;  // nonzero, if given
  Counts (*run)(trace::Recorder*);
  // Events the scenario must record at least once.
  std::vector<trace::EventKind> occurs = {};
};

void PrintTo(const OccurrenceScenario& s, std::ostream* os) { *os << s.name; }

const OccurrenceScenario kOccurrenceScenarios[] = {
    {"CallerSideDeadlineReject", &rmi::RmiStatsSnapshot::deadline_rejects,
     [](trace::Recorder* rec) {
       OccurrenceRig rig(rec, 3);
       const rmi::RemoteRef inner_ref = rig.ref(2);
       const auto inner = rig.site(noop);
       // The outer handler burns its whole budget, then fans out: the
       // nested call is refused at its own send.
       const auto outer = rig.site([&](rmi::CallContext& ctx, auto, auto) {
         ctx.machine().clock().advance(SimTime::millis(10));
         rig.sys.invoke(1, inner_ref, inner, {});
         return rmi::HandlerResult{};
       });
       const rmi::RemoteRef outer_ref = rig.ref(1);
       rig.sys.start();
       EXPECT_THROW(rig.sys.invoke(0, outer_ref, outer, {}, {},
                                   rmi::CallOptions{.budget_ns = 1'000'000}),
                    rmi::DeadlineExceeded);
       return rig.finish();
     }},
    {"CalleeSideDeadlineReject", &rmi::RmiStatsSnapshot::deadline_rejects,
     [](trace::Recorder* rec) {
       OccurrenceRig rig(rec);
       const auto site = rig.site(noop);
       const rmi::RemoteRef ref = rig.ref(1);
       rig.sys.start();
       rig.cluster.machine(1).clock().advance(SimTime::millis(50));
       EXPECT_THROW(rig.sys.invoke(0, ref, site, {}, {},
                                   rmi::CallOptions{.budget_ns = 1'000}),
                    rmi::DeadlineExceeded);
       return rig.finish();
     }},
    {"ExecutorSideDeadlineReject", &rmi::RmiStatsSnapshot::deadline_rejects,
     [](trace::Recorder* rec) {
       // Both workers park; a budgeted call queues behind them and its
       // deadline passes while the parked handlers burn the callee's
       // clock, so the worker that picks it up refuses it.
       rmi::ExecutorConfig exec;
       exec.dispatch_workers = 2;
       OccurrenceRig rig(rec, 2, exec);
       Gate gate;
       const auto park = rig.site(gate.handler(50'000'000));
       const auto site = rig.site(noop);
       const rmi::RemoteRef ref = rig.ref(1);
       rig.sys.start();
       rmi::RmiFuture f1 = rig.sys.invoke_async(0, ref, park, {});
       rmi::RmiFuture f2 = rig.sys.invoke_async(0, ref, park, {});
       gate.await_entered(2);
       rmi::RmiFuture f3 =
           rig.sys.invoke_async(0, ref, site, {}, {},
                                rmi::CallOptions{.budget_ns = 1'000'000});
       std::this_thread::sleep_for(std::chrono::milliseconds(100));
       gate.release();
       f1.get();
       f2.get();
       EXPECT_THROW(f3.get(), rmi::DeadlineExceeded);
       return rig.finish();
     }},
    {"Shed", &rmi::RmiStatsSnapshot::sheds,
     [](trace::Recorder* rec) {
       rmi::ExecutorConfig exec;
       exec.inbox_bound = 1;
       exec.credit_stall_ns = 0;
       exec.admission_service_ns = SimTime::seconds(1).as_nanos();
       OccurrenceRig rig(rec, 2, exec);
       const auto site = rig.site(noop);
       const rmi::RemoteRef ref = rig.ref(1);
       rig.sys.start();
       rig.sys.invoke_oneway(0, ref, site, {});
       EXPECT_THROW(rig.sys.invoke_oneway(0, ref, site, {}), rmi::Overload);
       EXPECT_THROW(rig.sys.invoke(0, ref, site, {}), rmi::Overload);
       return rig.finish();
     }},
    {"CreditStall", &rmi::RmiStatsSnapshot::credit_stalls,
     [](trace::Recorder* rec) {
       rmi::ExecutorConfig exec;
       exec.inbox_bound = 4;
       exec.inbox_highwater = 2;
       exec.admission_service_ns = SimTime::seconds(1).as_nanos();
       OccurrenceRig rig(rec, 2, exec);
       const auto site = rig.site(noop);
       const rmi::RemoteRef ref = rig.ref(1);
       rig.sys.start();
       for (int i = 0; i < 4; ++i) rig.sys.invoke_oneway(0, ref, site, {});
       return rig.finish();
     }},
    {"CancelSentAndHonored", &rmi::RmiStatsSnapshot::cancels_honored,
     [](trace::Recorder* rec) {
       rmi::ExecutorConfig exec;
       exec.dispatch_workers = 2;  // the dispatcher stays free for the Cancel
       OccurrenceRig rig(rec, 2, exec);
       // The handler parks until the Cancel has flagged its call, so the
       // worker's poll after the handler always sees it.
       std::atomic<bool> entered{false};
       const auto park = rig.site([&](rmi::CallContext& ctx, auto, auto) {
         entered = true;
         for (int i = 0; i < 10'000 && !ctx.cancelled(); ++i) {
           std::this_thread::sleep_for(std::chrono::milliseconds(1));
         }
         return rmi::HandlerResult{};
       });
       const rmi::RemoteRef ref = rig.ref(1);
       rig.sys.start();
       rmi::RmiFuture f = rig.sys.invoke_async(0, ref, park, {});
       rig.wait_until([&] { return entered.load(); });
       f.cancel();
       EXPECT_THROW(f.get(), rmi::Cancelled);
       return rig.finish();
     }},
    {"InProgressDuplicate", &rmi::RmiStatsSnapshot::duplicate_calls,
     [](trace::Recorder* rec) {
       OccurrenceRig rig(rec, 2, {}, duplicating_plan());
       const auto site = rig.site([](rmi::CallContext&, auto, auto) {
         return rmi::HandlerResult{.deferred = true};  // never replies
       });
       const rmi::RemoteRef ref = rig.ref(1);
       rig.sys.start();
       rig.inject_duplicate(site, ref, 77, /*oneway=*/false);
       rig.inject_duplicate(site, ref, 77, /*oneway=*/false);
       rig.wait_until([&] { return rig.sys.stats(1).duplicate_calls >= 1; });
       return rig.finish();
     }},
    {"ReplayedDuplicate", &rmi::RmiStatsSnapshot::replayed_replies,
     [](trace::Recorder* rec) {
       OccurrenceRig rig(rec, 2, {}, duplicating_plan());
       const auto site = rig.site(noop);
       const rmi::RemoteRef ref = rig.ref(1);
       rig.sys.start();
       rig.sys.invoke(0, ref, site, {});  // the system's first call: seq 1
       rig.inject_duplicate(site, ref, 1, /*oneway=*/false);
       rig.wait_until([&] { return rig.sys.stats(0).stray_replies >= 1; });
       return rig.finish();
     }},
    {"OnewayDuplicate", &rmi::RmiStatsSnapshot::duplicate_calls,
     [](trace::Recorder* rec) {
       // The duplicate arrives after the oneway call completed (one
       // worker runs it inline before the dispatcher reads on), so it
       // meets the call's tombstone rather than an in-progress entry.
       OccurrenceRig rig(rec, 2, {}, duplicating_plan());
       const auto site = rig.site(noop);
       const rmi::RemoteRef ref = rig.ref(1);
       rig.sys.start();
       rig.sys.invoke_oneway(0, ref, site, {});  // seq 1
       rig.inject_duplicate(site, ref, 1, /*oneway=*/true);
       rig.wait_until([&] { return rig.sys.stats(1).duplicate_calls >= 1; });
       return rig.finish();
     }},
    {"OnewaySend", &rmi::RmiStatsSnapshot::oneway_calls,
     [](trace::Recorder* rec) {
       OccurrenceRig rig(rec);
       const auto site = rig.site(noop);
       const rmi::RemoteRef remote = rig.ref(1);
       const rmi::RemoteRef local = rig.ref(0);
       rig.sys.start();
       rig.sys.invoke_oneway(0, remote, site, {});
       rig.sys.invoke_oneway(0, remote, site, {});
       rig.sys.invoke_oneway(0, local, site, {});
       return rig.finish();
     }},
    {"MachineDown", &rmi::RmiStatsSnapshot::machine_down_failures,
     [](trace::Recorder* rec) {
       net::FaultPlan faults;
       faults.crash_at(1, 0);
       net::FailureDetectorConfig detector;
       detector.enabled = true;
       OccurrenceRig rig(rec, 3, {}, faults, detector);
       const auto site = rig.site(noop);
       const rmi::RemoteRef ref = rig.ref(1);
       rig.sys.start();
       EXPECT_THROW(rig.sys.invoke(0, ref, site, {}), rmi::MachineDown);
       EXPECT_THROW(rig.sys.invoke_oneway(0, ref, site, {}), rmi::RmiTimeout);
       return rig.finish();
     },
     {trace::EventKind::FaultDrop, trace::EventKind::Retransmit,
      trace::EventKind::HeartbeatMiss, trace::EventKind::MachineDead}},
    {"LinkFaults", nullptr,
     [](trace::Recorder* rec) {
       // All four injected faults on the call link; replies travel clean.
       net::FaultPlan faults;
       faults.seed = 5;
       faults.set_link(0, 1, {.drop = 0.2, .duplicate = 0.2, .reorder = 0.2,
                              .corrupt = 0.2});
       OccurrenceRig rig(rec, 2, {}, faults);
       const auto site = rig.site(noop);
       const rmi::RemoteRef ref = rig.ref(1);
       rig.sys.start();
       for (int i = 0; i < 40; ++i) rig.sys.invoke(0, ref, site, {});
       return rig.finish();
     },
     {trace::EventKind::FaultDrop, trace::EventKind::FaultDuplicate,
      trace::EventKind::FaultReorder, trace::EventKind::FaultCorrupt,
      trace::EventKind::Retransmit, trace::EventKind::NackTurnaround,
      trace::EventKind::DedupDrop}},
    {"Coalescing", nullptr,
     [](trace::Recorder* rec) {
       wire::SessionConfig session;
       session.max_batch_messages = 8;  // ACKs coalesce, Calls flush
       OccurrenceRig rig(rec, 2, {}, {}, {}, session);
       std::atomic<int> handled{0};
       const auto site = rig.site([&](rmi::CallContext&, auto, auto) {
         ++handled;
         return rmi::HandlerResult{};
       });
       const rmi::RemoteRef ref = rig.ref(1);
       rig.sys.start();
       // Nobody awaits the ACKs, so all three wait in the reply link's
       // queue until stop() flushes them as one frame.
       for (int i = 0; i < 3; ++i) rig.sys.invoke_async(0, ref, site, {});
       rig.wait_until([&] { return rig.cluster.queued_messages() == 3; });
       EXPECT_EQ(handled.load(), 3);
       return rig.finish();
     },
     {trace::EventKind::SessionEnqueue}},
};

class CountersMatchEvents
    : public ::testing::TestWithParam<OccurrenceScenario> {};

TEST_P(CountersMatchEvents, EveryCounterEqualsItsTraceEvents) {
  trace::MemoryRecorder rec;
  const Counts counts = GetParam().run(&rec);
  const rmi::RmiStatsSnapshot& s = counts.rmi;
  const net::NetworkStats::Snapshot& net = counts.net;
  if (GetParam().exercised != nullptr) {
    EXPECT_GT(s.*GetParam().exercised, 0u);
  }
  auto n = [&](trace::EventKind k) {
    return static_cast<std::uint64_t>(rec.events_of(k).size());
  };
  for (const trace::EventKind k : GetParam().occurs) {
    EXPECT_GT(n(k), 0u) << trace::to_string(k);
  }
  using E = trace::EventKind;
  EXPECT_EQ(s.deadline_rejects, n(E::DeadlineReject));
  EXPECT_EQ(s.sheds, n(E::OverloadShed));
  EXPECT_EQ(s.credit_stalls, n(E::CreditStall));
  EXPECT_EQ(s.cancels_sent, n(E::CancelSent));
  EXPECT_EQ(s.cancels_honored, n(E::CancelHonored));
  EXPECT_EQ(s.oneway_calls, n(E::OnewaySend));
  EXPECT_EQ(s.call_timeouts, n(E::CallTimeout));
  EXPECT_EQ(s.reply_cache_pins, n(E::ReplyCachePinned));
  EXPECT_EQ(s.replayed_replies, n(E::ReplyReplayed));
  EXPECT_EQ(s.duplicate_calls, n(E::DuplicateDropped) + n(E::ReplyReplayed));

  EXPECT_EQ(net.dropped, n(E::FaultDrop));
  EXPECT_EQ(net.duplicated, n(E::FaultDuplicate));
  EXPECT_EQ(net.reordered, n(E::FaultReorder));
  EXPECT_EQ(net.corrupted, n(E::FaultCorrupt));
  EXPECT_EQ(net.retransmits, n(E::Retransmit) + n(E::NackTurnaround));
  EXPECT_EQ(net.dedup_hits, n(E::DedupDrop));
  EXPECT_EQ(net.dedup_late_recoveries, n(E::DedupLateRecovery));
  EXPECT_EQ(net.heartbeats, n(E::Heartbeat));
  EXPECT_EQ(net.heartbeat_misses, n(E::HeartbeatMiss));
  EXPECT_EQ(net.suspicions, n(E::MachineSuspected));
  EXPECT_EQ(net.machine_deaths, n(E::MachineDead));
  // Every carried frame is one Flight: its messages, and those that
  // shared it with others.
  std::uint64_t carried = 0, shared = 0;
  for (const trace::Event& e : rec.events_of(E::Flight)) {
    carried += e.count;
    if (e.count > 1) shared += e.count;
  }
  EXPECT_EQ(net.messages, carried);
  EXPECT_EQ(net.coalesced, shared);
}

INSTANTIATE_TEST_SUITE_P(
    Trace, CountersMatchEvents, ::testing::ValuesIn(kOccurrenceScenarios),
    [](const ::testing::TestParamInfo<OccurrenceScenario>& info) {
      return std::string(info.param.name);
    });

TEST(Trace, SerializePassesCarryRealTimeAndVirtualCost) {
  trace::MemoryRecorder rec;
  apps::ArrayBenchConfig cfg;
  cfg.iterations = 10;
  cfg.recorder = &rec;
  apps::run_array_bench(OptLevel::SiteReuseCycle, cfg);

  const auto ser = rec.events_of(trace::EventKind::Serialize);
  const auto deser = rec.events_of(trace::EventKind::Deserialize);
  ASSERT_FALSE(ser.empty());
  ASSERT_FALSE(deser.empty());
  std::uint64_t bytes = 0;
  for (const auto& e : ser) {
    EXPECT_GT(e.dur_ns, 0);   // virtual CPU cost of the pass
    EXPECT_GT(e.real_ns, 0);  // wall-clock duration of the pass
    bytes += e.bytes;
  }
  EXPECT_GT(bytes, 0u);  // the request passes copied the matrix rows
}

// ---- fault fidelity ---------------------------------------------------------

TEST(Trace, FaultEventsAppearOnlyOnTheFaultyLink) {
  trace::MemoryRecorder rec;
  apps::WebserverConfig cfg;
  cfg.requests = 300;
  cfg.faults.seed = 99;
  cfg.faults.set_link(0, 1, {.drop = 0.05, .duplicate = 0.05});
  cfg.recorder = &rec;
  const apps::RunResult r =
      apps::run_webserver(OptLevel::SiteReuseCycle, cfg);
  EXPECT_DOUBLE_EQ(r.check,
                   static_cast<double>(cfg.requests * cfg.page_size));

  const auto retrans = rec.events_of(trace::EventKind::Retransmit);
  ASSERT_GT(r.net.retransmits, 0u);  // the seed must actually drop frames
  EXPECT_EQ(retrans.size(), r.net.retransmits);
  for (const auto& e : retrans) {
    EXPECT_EQ(e.track, trace::TrackKind::Link);
    EXPECT_EQ(e.machine, 0);  // only the faulty direction retransmits
    EXPECT_EQ(e.peer, 1);
    EXPECT_GT(e.dur_ns, 0);  // the span covers the charged backoff
  }
  ASSERT_GT(r.net.dedup_hits, 0u);  // and duplicate frames were suppressed
  const auto dedup = rec.events_of(trace::EventKind::DedupDrop);
  EXPECT_EQ(dedup.size(), r.net.dedup_hits);
  for (const auto& e : dedup) {
    EXPECT_EQ(e.machine, 0);
    EXPECT_EQ(e.peer, 1);
  }
}

// ---- per-call-site profile --------------------------------------------------

TEST(Trace, ProfileAggregatesInvocationsAndLatency) {
  trace::MemoryRecorder rec;
  apps::WebserverConfig cfg;
  cfg.requests = 50;
  cfg.recorder = &rec;
  const apps::RunResult r =
      apps::run_webserver(OptLevel::SiteReuseCycle, cfg);

  const auto rows = trace::build_profile(rec.events());
  ASSERT_FALSE(rows.empty());
  std::uint64_t invocations = 0, remote = 0;
  for (const auto& row : rows) {
    invocations += row.invocations;
    remote += row.remote;
    EXPECT_LE(row.p50_ns, row.p95_ns);
    EXPECT_LE(row.p95_ns, row.max_ns);
  }
  EXPECT_EQ(invocations, r.total.remote_rpcs + r.total.local_rpcs);
  EXPECT_EQ(remote, r.total.remote_rpcs);

  const std::string table = trace::render_profile(
      rows, [](std::uint32_t id) { return "cs" + std::to_string(id); });
  EXPECT_NE(table.find("cs"), std::string::npos);
  EXPECT_NE(table.find("p95"), std::string::npos);
}

// ---- per-call-site statistics under concurrent dispatch ---------------------

// The paper gathered its per-call-site tables "on a separate run with an
// instrumented runtime"; here the per-site ledger must stay consistent
// with the global one even when handlers execute on a worker pool and
// callers race: summing callsite_stats over every site reproduces
// total_stats exactly.
TEST(TraceProfile, SnapshotTotalsEqualTheSumOverCallsitesUnderWorkers) {
  om::TypeRegistry types;
  const om::ClassId cls =
      types.define_class("Payload", {{"x", om::TypeKind::Int}});
  net::Cluster cluster(3, types);
  rmi::ExecutorConfig exec;
  exec.dispatch_workers = 2;
  rmi::RmiSystem sys(cluster, types, exec);

  const auto mid = sys.define_method(
      "noop", [](rmi::CallContext&, auto, auto) {
        return rmi::HandlerResult{};
      });
  auto make_site = [&](const char* name, bool with_arg) {
    rmi::CompiledCallSite cs;
    cs.method_id = mid;
    cs.plan = std::make_unique<serial::CallSitePlan>();
    cs.plan->name = name;
    cs.plan->needs_cycle_table = true;
    if (with_arg) cs.plan->args.push_back(serial::make_dynamic_node(cls));
    return sys.add_callsite(std::move(cs));
  };
  const auto site_a = make_site("siteA", /*with_arg=*/true);
  const auto site_b = make_site("siteB", /*with_arg=*/false);
  const rmi::RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(cls));
  sys.start();

  std::thread t0([&] {
    om::Heap& h = cluster.machine(0).heap();
    const om::ObjRef arg = h.alloc(cls);
    for (int i = 0; i < 20; ++i) {
      sys.invoke(0, ref, site_a, std::array{arg});
      sys.invoke(0, ref, site_b, {});
    }
    h.free(arg);
  });
  std::thread t2([&] {
    om::Heap& h = cluster.machine(2).heap();
    const om::ObjRef arg = h.alloc(cls);
    for (int i = 0; i < 20; ++i) {
      sys.invoke(2, ref, site_a, std::array{arg});
      sys.invoke(1, ref, site_b, {});  // local at the callee
    }
    h.free(arg);
  });
  t0.join();
  t2.join();
  sys.stop();

  rmi::RmiStatsSnapshot sum;
  for (std::uint32_t i = 0; i < sys.callsite_count(); ++i) {
    sum += sys.callsite_stats(i);
  }
  const rmi::RmiStatsSnapshot total = sys.total_stats();
  EXPECT_EQ(sum, total);
  EXPECT_EQ(total.remote_rpcs, 60u);
  EXPECT_EQ(total.local_rpcs, 20u);
}

// ---- Chrome trace exporter --------------------------------------------------

TEST(Trace, ChromeTraceJsonHasNamedTracksAndMonotoneTimestamps) {
  trace::MemoryRecorder rec;
  apps::WebserverConfig cfg;
  cfg.requests = 30;
  cfg.recorder = &rec;
  apps::run_webserver(OptLevel::SiteReuseCycle, cfg);

  const std::string json = trace::chrome_trace_json(rec.events());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"machine 0\""), std::string::npos);
  EXPECT_NE(json.find("\"link 0->1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // spans
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instants

  // Per-track virtual timestamps are sorted: within each (pid, tid) the
  // exporter emits monotonically non-decreasing `ts`.  Walk the emitted
  // objects (flat except for "args") and track the last ts per tid.
  std::map<long long, double> last_ts;
  std::size_t timed_events = 0;
  for (std::size_t pos = json.find("{\"name\""); pos != std::string::npos;
       pos = json.find("{\"name\"", pos + 1)) {
    const std::size_t end = json.find("}}", pos);
    ASSERT_NE(end, std::string::npos);
    const std::string obj = json.substr(pos, end - pos);
    const std::size_t tid_at = obj.find("\"tid\":");
    const std::size_t ts_at = obj.find("\"ts\":");
    if (tid_at == std::string::npos || ts_at == std::string::npos) continue;
    const long long tid = std::strtoll(obj.c_str() + tid_at + 6, nullptr, 10);
    const double ts = std::strtod(obj.c_str() + ts_at + 5, nullptr);
    EXPECT_GE(ts, 0.0);
    auto [it, fresh] = last_ts.try_emplace(tid, ts);
    if (!fresh) {
      EXPECT_LE(it->second, ts) << "track " << tid << " went backwards";
      it->second = ts;
    }
    ++timed_events;
  }
  EXPECT_GT(timed_events, 0u);
  EXPECT_GT(last_ts.size(), 2u);  // several machine + link tracks
}

}  // namespace
}  // namespace rmiopt
