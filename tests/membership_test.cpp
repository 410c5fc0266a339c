// Tests for the heartbeat failure detector, fast-fail call routing
// (rmi::MachineDown) and the name service's automatic failover.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "apps/microbench.hpp"
#include "apps/webserver.hpp"
#include "net/cluster.hpp"
#include "net/failure_detector.hpp"
#include "rmi/name_service.hpp"
#include "rmi/runtime.hpp"

namespace rmiopt {
namespace {

using codegen::OptLevel;

net::FailureDetectorConfig enabled_detector() {
  net::FailureDetectorConfig d;
  d.enabled = true;
  return d;
}

// ---- detector unit tests ----------------------------------------------------

TEST(FailureDetector, DisabledConfigLeavesTheClusterDetectorless) {
  om::TypeRegistry types;
  net::Cluster cluster(2, types);
  EXPECT_EQ(cluster.detector(), nullptr);
  EXPECT_EQ(cluster.stats().heartbeats, 0u);
  EXPECT_EQ(cluster.stats().machine_deaths, 0u);
}

TEST(FailureDetector, DeclaresACrashedMachineDeadWithinTheBudget) {
  net::FaultPlan plan;
  plan.seed = 7;
  plan.crash_at(1, 100'000);
  const net::FailureDetectorConfig cfg = enabled_detector();
  net::NetworkStats stats;
  net::FailureDetector fd(cfg, 3, &plan, stats);

  // Nothing is declared before virtual time reaches the miss rounds.
  fd.poll(SimTime::nanos(90'000));
  EXPECT_FALSE(fd.dead(1));

  fd.poll(SimTime::nanos(10'000'000));
  EXPECT_TRUE(fd.dead(1));
  EXPECT_EQ(fd.liveness(2), net::Liveness::Alive);
  const std::int64_t dead_at = fd.declared_dead_at(1).as_nanos();
  EXPECT_GT(dead_at, 100'000);
  EXPECT_LE(dead_at, 100'000 + cfg.detection_budget_ns());
  const auto c = stats.snapshot();
  EXPECT_EQ(c.machine_deaths, 1u);
  EXPECT_EQ(c.suspicions, 1u);
  EXPECT_GE(c.heartbeat_misses, cfg.confirm_after_misses);
}

TEST(FailureDetector, CrashExactlyAtARoundBoundaryCountsAsAMiss) {
  net::FaultPlan plan;
  plan.crash_at(1, 80'000);  // exactly round 2's probe time
  const net::FailureDetectorConfig cfg = enabled_detector();
  net::NetworkStats stats;
  net::FailureDetector fd(cfg, 2, &plan, stats);
  fd.poll(SimTime::nanos(1'000'000));
  ASSERT_TRUE(fd.dead(1));
  // crashed() is boundary-inclusive: the round *at* the crash instant is
  // already a miss, so the 6th consecutive miss — the confirmation — lands
  // exactly confirm-1 rounds later.
  const std::int64_t expect =
      80'000 +
      static_cast<std::int64_t>(cfg.confirm_after_misses - 1) *
          cfg.heartbeat_period_ns;
  EXPECT_EQ(fd.declared_dead_at(1).as_nanos(), expect);
}

TEST(FailureDetector, DeathIsLatchedAndCallbacksFireExactlyOnce) {
  net::FaultPlan plan;
  plan.crash_at(1, 0);
  net::NetworkStats stats;
  net::FailureDetector fd(enabled_detector(), 2, &plan, stats);
  std::atomic<int> fired{0};
  fd.on_death([&](std::uint16_t machine, SimTime) {
    EXPECT_EQ(machine, 1);
    ++fired;
  });
  fd.poll(SimTime::nanos(1'000'000));
  fd.poll(SimTime::nanos(2'000'000));
  fd.poll(SimTime::nanos(3'000'000));
  EXPECT_TRUE(fd.dead(1));
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(stats.snapshot().machine_deaths, 1u);
}

TEST(FailureDetector, MonitorCrashHaltsProbingInsteadOfMassDeclaring) {
  net::FaultPlan plan;
  plan.crash_at(0, 50'000);  // the monitor itself dies
  plan.crash_at(1, 50'000);
  net::NetworkStats stats;
  net::FailureDetector fd(enabled_detector(), 3, &plan, stats);
  fd.poll(SimTime::nanos(10'000'000));
  // Probing halted at the first round past the monitor's crash: nobody is
  // declared dead (peers still fail over via the ARQ budget).
  EXPECT_FALSE(fd.dead(1));
  EXPECT_FALSE(fd.dead(2));
  EXPECT_EQ(stats.snapshot().machine_deaths, 0u);
}

// ---- healthy-path inertness -------------------------------------------------

// An enabled detector on a fault-free run must not perturb the modelled
// timeline: probes are NIC-level keepalives that charge no CPU clock.
TEST(FailureDetector, EnabledDetectorLeavesAHealthyRunsTimelineUntouched) {
  apps::ListBenchConfig base;
  base.iterations = 20;
  apps::ListBenchConfig probed = base;
  probed.detector = enabled_detector();

  const apps::RunResult off = run_list_bench(OptLevel::SiteCycle, base);
  const apps::RunResult on = run_list_bench(OptLevel::SiteCycle, probed);

  EXPECT_EQ(off.makespan.as_nanos(), on.makespan.as_nanos());
  EXPECT_EQ(off.total, on.total);
  EXPECT_DOUBLE_EQ(off.check, on.check);
  EXPECT_GT(on.net.heartbeats, 0u);
  EXPECT_EQ(on.net.heartbeat_misses, 0u);
  EXPECT_EQ(on.net.machine_deaths, 0u);
  // Apart from the probe counters the traffic is identical.
  net::NetworkStats::Snapshot scrubbed = on.net;
  scrubbed.heartbeats = 0;
  EXPECT_EQ(off.net, scrubbed);
}

// ---- determinism across transports ------------------------------------------

// Detection latency is quantized to virtual-time probe rounds, so the
// failure timeline must be identical on the sequential SimTransport and
// the threaded LoopbackTransport.  (Total heartbeats can differ by a few
// trailing rounds — how far the last poll got is real-time dependent —
// but misses, suspicions, deaths and the app outcome may not.)
TEST(FailureDetector, DetectionTimelineIsDeterministicAcrossBackends) {
  apps::WebserverConfig cfg;
  cfg.machines = 4;
  cfg.requests = 40;
  cfg.pages = 16;
  cfg.page_size = 256;
  cfg.faults.seed = 11;
  cfg.faults.crash_at(2, 200'000);
  cfg.detector = enabled_detector();

  cfg.transport = net::TransportKind::Sim;
  const apps::RunResult sim = run_webserver(OptLevel::SiteReuseCycle, cfg);
  cfg.transport = net::TransportKind::Loopback;
  const apps::RunResult loop = run_webserver(OptLevel::SiteReuseCycle, cfg);

  // The makespan of a crash-failover run carries the same small
  // scheduling jitter documented for the LU bench (concurrent dispatch
  // interleaves max-merges with sum-advances, and a frame racing the
  // crash boundary reads a concurrently-advancing clock), so the two
  // backends agree only to within a few event charges — observed
  // jitter is one 60 ns free charge.  The detector's own timeline
  // below is exact; per-nanosecond death times are pinned by the
  // single-threaded tests above.
  EXPECT_NEAR(static_cast<double>(sim.makespan.as_nanos()),
              static_cast<double>(loop.makespan.as_nanos()), 10'000.0);
  EXPECT_EQ(sim.net.heartbeat_misses, loop.net.heartbeat_misses);
  EXPECT_EQ(sim.net.suspicions, loop.net.suspicions);
  EXPECT_EQ(sim.net.machine_deaths, loop.net.machine_deaths);
  EXPECT_EQ(sim.net.machine_deaths, 1u);
  EXPECT_EQ(sim.failovers, loop.failovers);
  EXPECT_DOUBLE_EQ(sim.check, loop.check);
  EXPECT_DOUBLE_EQ(sim.check,
                   static_cast<double>(cfg.requests * cfg.page_size));
}

// ---- fast-fail (rmi::MachineDown) -------------------------------------------

class FastFailTest : public ::testing::Test {
 protected:
  std::uint32_t void_site(rmi::RmiSystem& sys, std::uint32_t method) {
    rmi::CompiledCallSite cs;
    cs.method_id = method;
    cs.plan = std::make_unique<serial::CallSitePlan>();
    cs.plan->name = "ff.site";
    return sys.add_callsite(std::move(cs));
  }

  om::TypeRegistry types;
};

TEST_F(FastFailTest, CallToADeadMachineFailsInDetectionTimeNotArqTime) {
  net::FaultPlan faults;
  faults.crash_at(1, 0);
  net::Cluster cluster(3, types, {}, net::TransportKind::Sim, {}, faults,
                       enabled_detector());
  rmi::RmiSystem sys(cluster, types);
  const auto mid = sys.define_method(
      "noop", [](rmi::CallContext&, auto, auto) {
        return rmi::HandlerResult{};
      });
  const auto site = void_site(sys, mid);
  const rmi::RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc_string("x"));
  sys.start();

  try {
    sys.invoke(0, ref, site, {});
    FAIL() << "expected MachineDown";
  } catch (const rmi::MachineDown& e) {
    EXPECT_EQ(e.machine(), 1);
  }
  // The typed failure is a RmiTimeout subclass: existing recovery loops
  // catch it unchanged.
  EXPECT_THROW(sys.invoke(0, ref, site, {}), rmi::RmiTimeout);

  // Fast: the caller burned at most a few ARQ attempts before the
  // detector confirmed the death — far less than the full retransmit
  // budget of 6'660'000 ns per failed call.
  EXPECT_LT(cluster.machine(0).clock().now().as_nanos(), 2'000'000);
  const auto stats = sys.stats(0);
  EXPECT_EQ(stats.machine_down_failures, 2u);
  EXPECT_EQ(stats.call_timeouts, 2u);
  EXPECT_EQ(cluster.stats().machine_deaths, 1u);
  sys.stop();
}

TEST_F(FastFailTest, DeathConfirmedMidWaitReleasesABlockedCaller) {
  net::FaultPlan faults;
  faults.crash_at(1, 500'000);
  net::Cluster cluster(3, types, {}, net::TransportKind::Sim, {}, faults,
                       enabled_detector());
  rmi::RmiSystem sys(cluster, types);
  // Machine 1 swallows the call (deferred, never replies) — as a machine
  // that crashes mid-handler would.
  const auto park_mid = sys.define_method(
      "park", [](rmi::CallContext&, auto, auto) {
        return rmi::HandlerResult{.deferred = true};
      });
  const auto tick_mid = sys.define_method(
      "tick", [](rmi::CallContext&, auto, auto) {
        return rmi::HandlerResult{};
      });
  const auto park = void_site(sys, park_mid);
  const auto tick = void_site(sys, tick_mid);
  const rmi::RemoteRef parked =
      sys.export_object(1, cluster.machine(1).heap().alloc_string("p"));
  const rmi::RemoteRef ticker =
      sys.export_object(2, cluster.machine(2).heap().alloc_string("t"));
  sys.start();

  std::atomic<bool> released{false};
  std::thread caller([&] {
    // No real-time backstop: only the death confirmation can release us.
    EXPECT_THROW(sys.invoke(0, parked, park, {}), rmi::MachineDown);
    released = true;
  });
  // Unrelated traffic advances virtual time past crash + budget; the
  // blocked caller's poll then confirms the death and fail_pending_to
  // releases it.
  while (!released.load()) {
    sys.invoke(0, ticker, tick, {});
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  caller.join();

  // The confirmation landed on the first probe round whose 6th
  // consecutive miss follows the 500'000 ns crash: rounds are quantized,
  // so the timestamp is exact, not schedule-dependent.
  const net::FailureDetectorConfig cfg = enabled_detector();
  const std::int64_t first_missed_round =
      ((500'000 + cfg.heartbeat_period_ns - 1) / cfg.heartbeat_period_ns) *
      cfg.heartbeat_period_ns;
  const std::int64_t expect =
      first_missed_round +
      static_cast<std::int64_t>(cfg.confirm_after_misses - 1) *
          cfg.heartbeat_period_ns;
  EXPECT_EQ(cluster.detector()->declared_dead_at(1).as_nanos(), expect);
  EXPECT_EQ(sys.stats(0).machine_down_failures, 1u);
  sys.stop();
}

// At-most-once across failover: the caller gives up on a *live* callee
// (slow, not dead), re-issues the call elsewhere, and the original callee
// completes afterwards.  The late reply must be dropped as a stray and
// each handler must have run exactly once.
TEST_F(FastFailTest, CallerFailsOverWhileTheOriginalCalleeStillCompletes) {
  net::Cluster cluster(3, types);
  rmi::ExecutorConfig exec;
  exec.call_timeout_ms = 200;  // short real-time backstop forces the retry
  rmi::RmiSystem sys(cluster, types, exec);

  std::optional<rmi::ReplyToken> held;
  std::mutex held_mu;
  std::atomic<int> slow_runs{0};
  std::atomic<int> fast_runs{0};
  const auto slow_mid = sys.define_method(
      "slow", [&](rmi::CallContext& ctx, auto, auto) {
        ++slow_runs;
        std::scoped_lock lock(held_mu);
        held = ctx.reply_token();
        return rmi::HandlerResult{.deferred = true};
      });
  const auto fast_mid = sys.define_method(
      "fast", [&](rmi::CallContext&, auto, auto) {
        ++fast_runs;
        return rmi::HandlerResult{};
      });
  const auto slow = void_site(sys, slow_mid);
  const auto fast = void_site(sys, fast_mid);
  const rmi::RemoteRef primary =
      sys.export_object(1, cluster.machine(1).heap().alloc_string("a"));
  const rmi::RemoteRef replica =
      sys.export_object(2, cluster.machine(2).heap().alloc_string("b"));
  sys.start();

  EXPECT_THROW(sys.invoke(0, primary, slow, {}), rmi::RmiTimeout);
  // Fail over: the replica answers.
  EXPECT_EQ(sys.invoke(0, replica, fast, {}), nullptr);
  // The original callee finally completes; its reply finds no pending
  // call and is dropped as a stray, never delivered to the replica's seq.
  {
    std::scoped_lock lock(held_mu);
    ASSERT_TRUE(held.has_value());
    sys.send_reply(*held, nullptr, false);
  }
  for (int i = 0; i < 5000 && sys.stats(0).stray_replies < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sys.stop();

  EXPECT_EQ(slow_runs.load(), 1);
  EXPECT_EQ(fast_runs.load(), 1);
  EXPECT_EQ(sys.stats(0).stray_replies, 1u);
  EXPECT_EQ(sys.stats(0).call_timeouts, 1u);
}

// ---- name-service failover --------------------------------------------------

class ReplicatedNamesTest : public ::testing::Test {
 protected:
  ReplicatedNamesTest()
      : cluster(3, types), sys(cluster, types), names(sys, types) {
    refs.push_back(
        sys.export_object(1, cluster.machine(1).heap().alloc_string("a")));
    refs.push_back(
        sys.export_object(2, cluster.machine(2).heap().alloc_string("b")));
    sys.start();
  }
  ~ReplicatedNamesTest() override { sys.stop(); }

  om::TypeRegistry types;
  net::Cluster cluster;
  rmi::RmiSystem sys;
  rmi::NameService names;
  std::vector<rmi::RemoteRef> refs;
};

TEST_F(ReplicatedNamesTest, ReportedFailureAdvancesToTheNextReplica) {
  names.bind_replicated(1, "svc", refs, /*preferred=*/0);
  rmi::RemoteRef r = names.lookup(0, "svc");
  EXPECT_EQ(r.machine, refs[0].machine);
  EXPECT_EQ(names.failovers(), 0u);

  names.report_failure(0, "svc", refs[0].machine);
  r = names.lookup(0, "svc");
  EXPECT_EQ(r.machine, refs[1].machine);
  EXPECT_EQ(names.failovers(), 1u);

  // Reporting a machine the binding no longer points at is a no-op.
  names.report_failure(0, "svc", refs[0].machine);
  EXPECT_EQ(names.lookup(0, "svc").machine, refs[1].machine);
  EXPECT_EQ(names.failovers(), 1u);
}

TEST_F(ReplicatedNamesTest, ExhaustedReplicaGroupRaisesARemoteException) {
  names.bind_replicated(1, "solo", std::span(refs.data(), 1));
  EXPECT_THROW(names.report_failure(0, "solo", refs[0].machine),
               rmi::RemoteException);
  EXPECT_THROW(names.report_failure(0, "missing", 1), rmi::RemoteException);
}

TEST_F(ReplicatedNamesTest, PlainBindAndRebindStillWork) {
  names.bind(1, "plain", refs[0]);
  EXPECT_THROW(names.bind(1, "plain", refs[1]), rmi::RemoteException);
  EXPECT_EQ(names.lookup(0, "plain").machine, refs[0].machine);
  names.rebind(2, "plain", refs[1]);
  EXPECT_EQ(names.lookup(0, "plain").machine, refs[1].machine);
  // A plain binding has no replica group to fail over to.
  EXPECT_THROW(names.report_failure(0, "plain", refs[1].machine),
               rmi::RemoteException);
}

// End-to-end: detector-driven auto-rebind.  The registry re-points the
// dead slave's name before the master even observes the failure, inside
// one detection budget — far under the 6'660'000 ns ARQ budget.
TEST(ReplicatedNamesE2E, DetectorRebindsAheadOfTheArqBudget) {
  apps::WebserverConfig cfg;
  cfg.machines = 4;
  cfg.requests = 40;
  cfg.pages = 16;
  cfg.page_size = 256;
  cfg.faults.crash_at(2, 0);  // a slave is dead from the start
  cfg.detector = enabled_detector();
  const apps::RunResult r = run_webserver(OptLevel::SiteReuseCycle, cfg);
  EXPECT_DOUBLE_EQ(r.check, static_cast<double>(cfg.requests * cfg.page_size));
  EXPECT_GE(r.failovers, 1u);
  EXPECT_EQ(r.net.machine_deaths, 1u);
  EXPECT_GE(r.total.machine_down_failures, 0u);
  // Every failed call was cut short by detection, so the run's makespan
  // stays well under what even one full ARQ budget per request would cost.
  EXPECT_LT(r.makespan.as_nanos(),
            static_cast<std::int64_t>(cfg.requests) * 6'660'000);
}

}  // namespace
}  // namespace rmiopt
