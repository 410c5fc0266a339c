// Fault-injection tests: the seeded FaultPlan, the session ARQ, the
// receive-side dedup window, at-most-once RMI semantics, and end-to-end
// fault masking across the paper applications.
//
// The contract under test (docs/FAULTS.md): with any seeded plan of
// drop/duplicate/reorder/corrupt faults, every application completes with
// its fault-free result — faults cost virtual time, never correctness —
// and two runs with the same seed are identical, makespan and counters
// included.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "apps/lu.hpp"
#include "apps/microbench.hpp"
#include "apps/superopt.hpp"
#include "apps/webserver.hpp"
#include "net/fault.hpp"
#include "rmi/runtime.hpp"
#include "wire/session.hpp"

namespace rmiopt {
namespace {

using codegen::OptLevel;

// ---- DedupWindow ------------------------------------------------------------

TEST(DedupWindow, FreshDuplicateStale) {
  wire::DedupWindow w;
  EXPECT_EQ(w.accept(0), wire::DedupWindow::Verdict::Fresh);
  // A retransmit of a delivered seq arrives *behind* the horizon: stale.
  EXPECT_EQ(w.accept(0), wire::DedupWindow::Verdict::Stale);
  // An out-of-order seq is held above the horizon; its copy is a
  // duplicate, not stale.
  EXPECT_EQ(w.accept(2), wire::DedupWindow::Verdict::Fresh);
  EXPECT_EQ(w.accept(2), wire::DedupWindow::Verdict::Duplicate);
  EXPECT_EQ(w.accept(1), wire::DedupWindow::Verdict::Fresh);
  EXPECT_EQ(w.horizon(), 3u);  // contiguous prefix delivered
}

TEST(DedupWindow, OutOfOrderSequencesAreAcceptedOnce) {
  wire::DedupWindow w;
  EXPECT_EQ(w.accept(0), wire::DedupWindow::Verdict::Fresh);
  EXPECT_EQ(w.accept(5), wire::DedupWindow::Verdict::Fresh);
  EXPECT_EQ(w.accept(3), wire::DedupWindow::Verdict::Fresh);
  EXPECT_EQ(w.accept(5), wire::DedupWindow::Verdict::Duplicate);
  EXPECT_EQ(w.accept(1), wire::DedupWindow::Verdict::Fresh);
  EXPECT_EQ(w.accept(2), wire::DedupWindow::Verdict::Fresh);
  // 0..3 and 5 seen; horizon advanced over the contiguous 0..3.
  EXPECT_EQ(w.horizon(), 4u);
  EXPECT_EQ(w.accept(0), wire::DedupWindow::Verdict::Stale);
  EXPECT_EQ(w.accept(4), wire::DedupWindow::Verdict::Fresh);
  EXPECT_EQ(w.horizon(), 6u);  // ...and now over 4 and 5
  EXPECT_EQ(w.accept(5), wire::DedupWindow::Verdict::Stale);
}

TEST(DedupWindow, CapacityBoundForcesTheHorizonForward) {
  wire::DedupWindow w(/*capacity=*/4);
  for (std::uint64_t seq : {10u, 20u, 30u, 40u, 50u}) {
    EXPECT_EQ(w.accept(seq), wire::DedupWindow::Verdict::Fresh);
  }
  // The fifth out-of-order entry slid the window past the oldest.
  EXPECT_EQ(w.horizon(), 11u);
  EXPECT_EQ(w.accept(10), wire::DedupWindow::Verdict::Stale);
  EXPECT_EQ(w.accept(11), wire::DedupWindow::Verdict::Fresh);
}

// Regression: a forced horizon slide skips over sequences that were never
// delivered.  Those gap sequences used to be classified Stale when their
// (delayed or retransmitted) frame finally arrived — a silently dropped
// message.  The window now remembers skipped-over sequences and admits
// them exactly once.
TEST(DedupWindow, ForcedSlideKeepsSkippedSequencesRecoverable) {
  wire::DedupWindow w(/*capacity=*/4);
  EXPECT_EQ(w.accept(0), wire::DedupWindow::Verdict::Fresh);
  // 5..8 pile up out of order; 9 overflows the window and forces the
  // horizon past the still-missing 1..4.
  for (std::uint64_t s = 5; s <= 9; ++s) {
    EXPECT_EQ(w.accept(s), wire::DedupWindow::Verdict::Fresh);
  }
  EXPECT_EQ(w.forced_slides(), 1u);
  // The stragglers arrive after the slide: each delivers exactly once.
  for (std::uint64_t s = 1; s <= 4; ++s) {
    EXPECT_EQ(w.accept(s), wire::DedupWindow::Verdict::Fresh) << "seq " << s;
    EXPECT_EQ(w.accept(s), wire::DedupWindow::Verdict::Stale) << "seq " << s;
  }
  EXPECT_EQ(w.late_recoveries(), 4u);
  EXPECT_EQ(w.skipped_expired(), 0u);
}

// Sustained heavy reorder: every batch of 5 frames overtakes the 4 before
// it, forcing a slide per batch.  Every sequence must still deliver
// exactly once — no drops (Stale on first arrival), no double delivery.
TEST(DedupWindow, HeavyReorderDeliversEveryFrameExactlyOnce) {
  wire::DedupWindow w(/*capacity=*/4);
  std::uint64_t accepted = 0;
  auto deliver = [&](std::uint64_t s) {
    if (w.accept(s) == wire::DedupWindow::Verdict::Fresh) ++accepted;
    // A second copy of the same frame must never deliver again.
    EXPECT_NE(w.accept(s), wire::DedupWindow::Verdict::Fresh) << "seq " << s;
  };
  deliver(0);
  constexpr std::uint64_t kRounds = 50;
  for (std::uint64_t base = 1; base < 1 + 9 * kRounds; base += 9) {
    for (std::uint64_t s = base + 4; s <= base + 8; ++s) deliver(s);
    for (std::uint64_t s = base; s <= base + 3; ++s) deliver(s);
  }
  EXPECT_EQ(accepted, 1 + 9 * kRounds);  // exactly once, every frame
  EXPECT_EQ(w.forced_slides(), kRounds);
  EXPECT_EQ(w.late_recoveries(), 4 * kRounds);
  EXPECT_EQ(w.skipped_expired(), 0u);
}

// The recovery set is bounded: a slide over a gap wider than the window
// keeps only the newest `capacity` skipped sequences and counts the rest
// as expired — those are the only frames the window may still drop, and
// the counter makes the loss observable.
TEST(DedupWindow, SkippedSetIsBoundedAndExpiredGapsStayStale) {
  wire::DedupWindow w(/*capacity=*/4);
  EXPECT_EQ(w.accept(0), wire::DedupWindow::Verdict::Fresh);
  for (std::uint64_t s = 100; s <= 104; ++s) {
    EXPECT_EQ(w.accept(s), wire::DedupWindow::Verdict::Fresh);
  }
  EXPECT_EQ(w.forced_slides(), 1u);
  EXPECT_EQ(w.skipped_expired(), 95u);  // gap 1..99 minus the kept 96..99
  EXPECT_EQ(w.accept(97), wire::DedupWindow::Verdict::Fresh);  // kept tail
  EXPECT_EQ(w.accept(50), wire::DedupWindow::Verdict::Stale);  // expired
  EXPECT_EQ(w.late_recoveries(), 1u);
}

// ---- FaultPlan --------------------------------------------------------------

TEST(FaultPlan, DiceAreAPureFunctionOfTheFrameIdentity) {
  net::FaultPlan plan;
  plan.seed = 99;
  SplitMix64 a = plan.dice(0, 1, 7, 0);
  SplitMix64 b = plan.dice(0, 1, 7, 0);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.next(), b.next());

  // Any component of the identity perturbs the stream.
  SplitMix64 c = plan.dice(0, 1, 7, 1);
  SplitMix64 d = plan.dice(1, 0, 7, 0);
  SplitMix64 e = plan.dice(0, 1, 8, 0);
  const std::uint64_t base = plan.dice(0, 1, 7, 0).next();
  EXPECT_NE(c.next(), base);
  EXPECT_NE(d.next(), base);
  EXPECT_NE(e.next(), base);
}

TEST(FaultPlan, InertPlanIsDisabledAndPerLinkOverridesApply) {
  net::FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.set_link(0, 1, {.drop = 0.5});
  EXPECT_TRUE(plan.enabled());
  EXPECT_DOUBLE_EQ(plan.link(0, 1).drop, 0.5);
  EXPECT_DOUBLE_EQ(plan.link(1, 0).drop, 0.0);  // directed

  net::FaultPlan crash_only;
  crash_only.crash_at(2, 1'000);
  EXPECT_TRUE(crash_only.enabled());
  EXPECT_FALSE(crash_only.crashed(2, 999));
  EXPECT_TRUE(crash_only.crashed(2, 1'000));
  EXPECT_FALSE(crash_only.crashed(1, 5'000));
}

// ---- session ARQ ------------------------------------------------------------

wire::Message arq_msg() {
  wire::Message m;
  m.header.kind = wire::MsgKind::Call;
  m.header.source_machine = 0;
  m.header.dest_machine = 1;
  return m;
}

TEST(SessionArq, TimeoutsAreChargedWithExponentialBackoffThenRetransmit) {
  std::int64_t charged = 0;
  std::uint64_t retransmits = 0;
  wire::Session s(0, 1, wire::SessionConfig{},
                  [&](wire::Occurrence what, auto, std::int64_t wait_ns, auto,
                      auto) {
                    charged += wait_ns;
                    retransmits += what == wire::Occurrence::Retransmit;
                  });
  int attempts = 0;
  const wire::FrameSink sink = [&](const wire::Frame&) {
    return ++attempts < 3 ? wire::SendOutcome::Timeout
                          : wire::SendOutcome::Delivered;
  };
  s.post(arq_msg(), sink);
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(retransmits, 2u);
  EXPECT_EQ(charged, 60'000 + 120'000);  // doubling timer
}

TEST(SessionArq, NackedFramesPayOnlyTheTurnaround) {
  std::int64_t charged = 0;
  wire::Session s(0, 1, wire::SessionConfig{},
                  [&](wire::Occurrence, auto, std::int64_t wait_ns, auto,
                      auto) { charged += wait_ns; });
  int attempts = 0;
  const wire::FrameSink sink = [&](const wire::Frame&) {
    return ++attempts < 2 ? wire::SendOutcome::Nacked
                          : wire::SendOutcome::Delivered;
  };
  s.post(arq_msg(), sink);
  EXPECT_EQ(charged, 30'000);
}

TEST(SessionArq, ADeadLinkRaisesProtocolErrorAfterTheRetransmitBudget) {
  wire::SessionConfig cfg;
  cfg.max_retransmits = 3;
  wire::Session s(0, 1, cfg, nullptr);
  int attempts = 0;
  const wire::FrameSink sink = [&](const wire::Frame&) {
    ++attempts;
    return wire::SendOutcome::Timeout;
  };
  EXPECT_THROW(s.post(arq_msg(), sink), ProtocolError);
  EXPECT_EQ(attempts, 4);  // initial send + 3 retransmits
}

// ---- end-to-end fault masking ----------------------------------------------

net::FaultPlan lossy_plan(std::uint64_t seed) {
  net::FaultPlan plan;
  plan.seed = seed;
  plan.default_link = {.drop = 0.05, .duplicate = 0.03, .reorder = 0.03,
                       .corrupt = 0.02};
  return plan;
}

TEST(FaultMasking, ArrayBenchIsCorrectAtEveryLevel) {
  for (OptLevel level : codegen::kPaperLevels) {
    apps::ArrayBenchConfig cfg;
    cfg.iterations = 20;
    const apps::RunResult clean = apps::run_array_bench(level, cfg);
    cfg.faults = lossy_plan(7);
    const apps::RunResult faulty = apps::run_array_bench(level, cfg);

    EXPECT_EQ(faulty.check, clean.check) << codegen::to_string(level);
    // The serializer/RPC event counts are untouched: retransmission lives
    // entirely below the RMI layer.
    EXPECT_EQ(faulty.total, clean.total) << codegen::to_string(level);
    EXPECT_GT(faulty.net.faults(), 0u);
    EXPECT_GT(faulty.net.retransmits, 0u);
    EXPECT_GE(faulty.makespan.as_nanos(), clean.makespan.as_nanos());
  }
}

TEST(FaultMasking, LinkedListBenchIsCorrectAtEveryLevel) {
  for (OptLevel level : codegen::kPaperLevels) {
    apps::ListBenchConfig cfg;
    cfg.iterations = 40;  // enough frames that the 5% drop rate must hit
    const apps::RunResult clean = apps::run_list_bench(level, cfg);
    cfg.faults = lossy_plan(11);
    const apps::RunResult faulty = apps::run_list_bench(level, cfg);
    EXPECT_EQ(faulty.check, clean.check) << codegen::to_string(level);
    EXPECT_EQ(faulty.total, clean.total) << codegen::to_string(level);
    EXPECT_GT(faulty.net.faults(), 0u);
  }
}

TEST(FaultMasking, LuStaysNumericallyCorrectAtEveryLevel) {
  for (OptLevel level : codegen::kPaperLevels) {
    apps::LuConfig cfg;
    cfg.n = 16;
    cfg.faults = lossy_plan(13);
    const apps::RunResult r = apps::run_lu(level, cfg);
    EXPECT_LT(r.check, 1e-9) << codegen::to_string(level);
    EXPECT_GT(r.net.faults(), 0u);
  }
}

TEST(FaultMasking, SuperoptFindsTheSameSequencesAtEveryLevel) {
  for (OptLevel level : codegen::kPaperLevels) {
    apps::SuperoptConfig cfg;
    const apps::RunResult clean = apps::run_superopt(level, cfg);
    cfg.faults = lossy_plan(17);
    const apps::RunResult faulty = apps::run_superopt(level, cfg);
    EXPECT_EQ(faulty.check, clean.check) << codegen::to_string(level);
    EXPECT_GT(faulty.net.faults(), 0u);
  }
}

TEST(FaultMasking, WebserverServesEveryPageAtEveryLevel) {
  for (OptLevel level : codegen::kPaperLevels) {
    apps::WebserverConfig cfg;
    cfg.requests = 100;
    cfg.faults = lossy_plan(19);
    const apps::RunResult r = apps::run_webserver(level, cfg);
    EXPECT_DOUBLE_EQ(r.check, 100.0 * cfg.page_size)
        << codegen::to_string(level);
    EXPECT_GT(r.net.faults(), 0u);
    EXPECT_EQ(r.failovers, 0u);  // lossy but nobody died
  }
}

// ---- seeded determinism -----------------------------------------------------

TEST(FaultDeterminism, SameSeedSameRunBitForBit) {
  apps::ArrayBenchConfig cfg;
  cfg.iterations = 20;
  cfg.faults = lossy_plan(23);
  const apps::RunResult a =
      apps::run_array_bench(OptLevel::SiteReuseCycle, cfg);
  const apps::RunResult b =
      apps::run_array_bench(OptLevel::SiteReuseCycle, cfg);
  EXPECT_EQ(a.makespan.as_nanos(), b.makespan.as_nanos());
  EXPECT_EQ(a.net, b.net);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.check, b.check);
}

TEST(FaultDeterminism, DifferentSeedDifferentFaultSchedule) {
  apps::ArrayBenchConfig cfg;
  cfg.iterations = 20;
  cfg.faults = lossy_plan(23);
  const apps::RunResult a =
      apps::run_array_bench(OptLevel::SiteReuseCycle, cfg);
  cfg.faults = lossy_plan(24);
  const apps::RunResult b =
      apps::run_array_bench(OptLevel::SiteReuseCycle, cfg);
  EXPECT_EQ(a.check, b.check);  // both still correct
  EXPECT_NE(a.makespan.as_nanos(), b.makespan.as_nanos());
}

TEST(FaultDeterminism, SimAndLoopbackBackendsAgreeUnderTheSamePlan) {
  apps::ArrayBenchConfig cfg;
  cfg.iterations = 20;
  cfg.faults = lossy_plan(29);
  cfg.transport = net::TransportKind::Sim;
  const apps::RunResult sim =
      apps::run_array_bench(OptLevel::SiteReuseCycle, cfg);
  cfg.transport = net::TransportKind::Loopback;
  const apps::RunResult loop =
      apps::run_array_bench(OptLevel::SiteReuseCycle, cfg);
  EXPECT_EQ(sim.makespan.as_nanos(), loop.makespan.as_nanos());
  EXPECT_EQ(sim.net, loop.net);
  EXPECT_EQ(sim.total, loop.total);
  EXPECT_EQ(sim.check, loop.check);
}

TEST(FaultDeterminism, FaultFreePlanLeavesTheRunUntouched) {
  apps::ArrayBenchConfig cfg;
  cfg.iterations = 20;
  const apps::RunResult bare =
      apps::run_array_bench(OptLevel::SiteReuseCycle, cfg);
  cfg.faults.seed = 42;  // a seed alone injects nothing
  const apps::RunResult seeded =
      apps::run_array_bench(OptLevel::SiteReuseCycle, cfg);
  EXPECT_EQ(bare.makespan.as_nanos(), seeded.makespan.as_nanos());
  EXPECT_EQ(bare.net, seeded.net);
  EXPECT_EQ(seeded.net.faults(), 0u);
  EXPECT_EQ(seeded.net.retransmits, 0u);
}

// ---- crashes and failover ---------------------------------------------------

TEST(Failover, WebserverMasksASlaveDeadFromStartup) {
  apps::WebserverConfig cfg;
  cfg.machines = 4;  // master + 3 slaves
  cfg.requests = 60;
  cfg.faults.crash_at(2, 0);  // slave machine 2 never comes up
  const apps::RunResult r =
      apps::run_webserver(OptLevel::SiteReuseCycle, cfg);
  EXPECT_DOUBLE_EQ(r.check, 60.0 * cfg.page_size);
  EXPECT_GE(r.failovers, 1u);
  EXPECT_GT(r.net.dropped, 0u);
  EXPECT_GE(r.total.call_timeouts, 1u);  // the dead slave's bind attempt
}

TEST(Failover, WebserverReRoutesMidRunWhenALinkDies) {
  apps::WebserverConfig cfg;
  cfg.machines = 3;  // master + 2 slaves
  cfg.requests = 60;
  // The master's link to slave machine 1 silently eats every frame: the
  // first request routed there exhausts the ARQ, raises RmiTimeout, and
  // the master re-binds that slave's name to the survivor.
  cfg.faults.set_link(0, 1, {.drop = 1.0});
  // The slave's bind *call* gets through but its reply is eaten, so that
  // caller can only recover via the real-time backstop — keep it short.
  cfg.call_timeout_ms = 1'000;
  const apps::RunResult r =
      apps::run_webserver(OptLevel::SiteReuseCycle, cfg);
  EXPECT_DOUBLE_EQ(r.check, 60.0 * cfg.page_size);
  EXPECT_GE(r.failovers, 1u);
  EXPECT_GE(r.total.call_timeouts, 1u);
}

// ---- at-most-once and typed recoverable errors ------------------------------

class AtMostOnceTest : public ::testing::Test {
 protected:
  AtMostOnceTest() : cluster(2, types), sys(cluster, types) {}
  ~AtMostOnceTest() override { sys.stop(); }

  // Argument-free, return-free call site (the at-most-once machinery is
  // payload-agnostic).
  std::uint32_t add_site(std::uint32_t method) {
    rmi::CompiledCallSite cs;
    cs.method_id = method;
    cs.plan = std::make_unique<serial::CallSitePlan>();
    cs.plan->name = "amo.site";
    return sys.add_callsite(std::move(cs));
  }

  // Same, returning an object (class-mode dynamic root).
  std::uint32_t add_returning_site(std::uint32_t method) {
    rmi::CompiledCallSite cs;
    cs.method_id = method;
    cs.plan = std::make_unique<serial::CallSitePlan>();
    cs.plan->name = "amo.page";
    cs.plan->ret = serial::make_dynamic_node(om::kNoClass);
    cs.plan->needs_cycle_table = true;
    return sys.add_callsite(std::move(cs));
  }

  // Crafted messages are processed by the dispatcher threads; poll the
  // counters (real time, generous bound) instead of racing stop().
  static void wait_until(const std::function<bool()>& done) {
    for (int i = 0; i < 5000 && !done(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(done());
  }

  // A hand-crafted argument-free Call, as the dispatcher would see it
  // after a (hypothetical) end-to-end duplication.
  wire::Message craft_call(std::uint32_t callsite, std::uint32_t export_id,
                           std::uint32_t seq) {
    wire::Message m;
    m.header.kind = wire::MsgKind::Call;
    m.header.callsite_id = callsite;
    m.header.target_export = export_id;
    m.header.seq = seq;
    m.header.source_machine = 0;
    m.header.dest_machine = 1;
    m.payload.put_varint(0);  // no scalars
    return m;
  }

  om::TypeRegistry types;
  net::Cluster cluster;
  rmi::RmiSystem sys;
};

TEST_F(AtMostOnceTest, DuplicateOfACompletedCallReplaysTheCachedReply) {
  std::atomic<int> executions{0};
  const auto mid = sys.define_method("count", [&](rmi::CallContext&, auto,
                                                  auto) {
    ++executions;
    return rmi::HandlerResult{};
  });
  const auto site = add_site(mid);
  const rmi::RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc_string("t"));
  sys.start();

  EXPECT_EQ(sys.invoke(0, ref, site, {}), nullptr);
  // Re-inject the same logical call (the runtime assigned it seq 1), as
  // if an end-to-end duplicate had slipped past the transport dedup.
  cluster.send(craft_call(site, ref.export_id, 1));
  wait_until([&] { return sys.stats(0).stray_replies >= 1; });
  sys.stop();

  EXPECT_EQ(executions.load(), 1);  // the handler never ran twice
  const auto callee = sys.stats(1);
  EXPECT_EQ(callee.duplicate_calls, 1u);
  EXPECT_EQ(callee.replayed_replies, 1u);
  // The replayed Ack found no pending call at the caller: dropped, counted.
  EXPECT_EQ(sys.stats(0).stray_replies, 1u);
}

TEST_F(AtMostOnceTest, DuplicateOfALargeReplyIsReplayedByteIdentically) {
  std::atomic<int> executions{0};
  const std::string page(64 * 1024, 'p');
  const auto mid = sys.define_method(
      "page", [&](rmi::CallContext& ctx, auto, auto) {
        ++executions;
        return rmi::HandlerResult{.value = ctx.heap().alloc_string(page),
                                  .give_ownership = true};
      });
  const auto site = add_returning_site(mid);
  const rmi::RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc_string("t"));
  // Every reply the callee puts on the wire: header fields and payload.
  std::mutex seen_mu;
  std::vector<std::pair<wire::MessageHeader, std::vector<std::uint8_t>>> seen;
  cluster.transport().set_frame_probe(
      [&](std::uint16_t src, std::uint16_t, const wire::Frame& frame) {
        if (src != 1) return;
        std::scoped_lock lock(seen_mu);
        for (const wire::Message& m : frame.messages) {
          const auto bytes = m.payload.contents();
          seen.emplace_back(m.header, std::vector<std::uint8_t>(
                                          bytes.begin(), bytes.end()));
        }
      });
  sys.start();

  om::ObjRef value = sys.invoke(0, ref, site, {});
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->as_string_view(), page);
  cluster.machine(0).heap().free_graph(value);
  cluster.send(craft_call(site, ref.export_id, 1));  // the runtime's seq 1
  wait_until([&] { return sys.stats(0).stray_replies >= 1; });
  sys.stop();
  cluster.transport().set_frame_probe(nullptr);

  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(sys.stats(1).replayed_replies, 1u);
  ASSERT_EQ(seen.size(), 2u);
  const auto& [first, first_bytes] = seen[0];
  const auto& [replay, replay_bytes] = seen[1];
  EXPECT_EQ(first.kind, wire::MsgKind::Return);
  EXPECT_EQ(replay.kind, first.kind);
  EXPECT_EQ(replay.callsite_id, first.callsite_id);
  EXPECT_EQ(replay.seq, first.seq);
  EXPECT_EQ(replay.source_machine, first.source_machine);
  EXPECT_EQ(replay.dest_machine, first.dest_machine);
  EXPECT_GT(first_bytes.size(), page.size());
  EXPECT_EQ(replay_bytes, first_bytes);
}

TEST_F(AtMostOnceTest, ByteBoundKeepsTheLatestReplyAndPinsInFlightCalls) {
  std::atomic<int> page_runs{0}, parked{0};
  const std::string page(64 * 1024, 'q');
  const auto page_mid = sys.define_method(
      "page", [&](rmi::CallContext& ctx, auto, auto) {
        ++page_runs;
        return rmi::HandlerResult{.value = ctx.heap().alloc_string(page),
                                  .give_ownership = true};
      });
  const auto park_mid = sys.define_method(
      "park", [&](rmi::CallContext&, auto, auto) {
        ++parked;
        return rmi::HandlerResult{.deferred = true};  // never replies
      });
  const auto page_site = add_returning_site(page_mid);
  const auto park_site = add_site(park_mid);
  const rmi::RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc_string("t"));
  sys.start();

  // 100 replies of 64 KiB: 6.4 MiB, well past the cache's 4 MiB bound.
  constexpr std::uint32_t kCalls = 100;
  for (std::uint32_t i = 0; i < kCalls; ++i) {
    cluster.machine(0).heap().free_graph(sys.invoke(0, ref, page_site, {}));
  }
  // A duplicate of the latest call (the runtime numbered them 1..100) is
  // replayed, not re-run.
  cluster.send(craft_call(page_site, ref.export_id, kCalls));
  // A duplicate of an in-flight call is dropped.
  cluster.send(craft_call(park_site, ref.export_id, 5000));
  cluster.send(craft_call(park_site, ref.export_id, 5000));
  // The byte bound released the oldest replies: a duplicate of the first
  // call is past the window and admitted afresh.
  cluster.send(craft_call(page_site, ref.export_id, 1));
  wait_until([&] { return sys.stats(0).stray_replies >= 2; });
  sys.stop();

  const auto callee = sys.stats(1);
  EXPECT_EQ(callee.replayed_replies, 1u);
  EXPECT_EQ(callee.duplicate_calls, 2u);  // the replay and the drop
  EXPECT_EQ(parked.load(), 1);
  EXPECT_EQ(page_runs.load(), static_cast<int>(kCalls) + 1);
}

TEST_F(AtMostOnceTest, AReplyPastTheByteBoundAloneIsStillReplayed) {
  std::atomic<int> executions{0};
  const std::string huge(5 << 20, 'h');  // one reply past the 4 MiB bound
  const auto mid = sys.define_method(
      "huge", [&](rmi::CallContext& ctx, auto, auto) {
        ++executions;
        return rmi::HandlerResult{.value = ctx.heap().alloc_string(huge),
                                  .give_ownership = true};
      });
  const auto site = add_returning_site(mid);
  const rmi::RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc_string("t"));
  sys.start();

  cluster.machine(0).heap().free_graph(sys.invoke(0, ref, site, {}));
  cluster.send(craft_call(site, ref.export_id, 1));
  wait_until([&] { return sys.stats(0).stray_replies >= 1; });
  sys.stop();

  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(sys.stats(1).replayed_replies, 1u);
}

TEST_F(AtMostOnceTest, DuplicateOfAnInFlightCallIsDropped) {
  std::atomic<int> executions{0};
  const auto mid = sys.define_method("defer", [&](rmi::CallContext&, auto,
                                                  auto) {
    ++executions;
    return rmi::HandlerResult{.deferred = true};  // never replies
  });
  const auto site = add_site(mid);
  const rmi::RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc_string("t"));
  sys.start();

  cluster.send(craft_call(site, ref.export_id, 77));
  cluster.send(craft_call(site, ref.export_id, 77));
  wait_until([&] { return sys.stats(1).duplicate_calls >= 1; });
  sys.stop();

  EXPECT_EQ(executions.load(), 1);
  const auto callee = sys.stats(1);
  EXPECT_EQ(callee.duplicate_calls, 1u);
  EXPECT_EQ(callee.replayed_replies, 0u);  // nothing to replay yet
}

// Regression: with more concurrent in-flight calls than the reply cache
// holds, FIFO eviction used to release entries whose handler was still
// running (or deferred) — a duplicate arriving then was admitted as a
// fresh call and the handler ran twice.  In-flight entries are now
// pinned: eviction skips (and counts) them until they reply.
TEST(ReplyCachePinning, InFlightEntriesSurviveEvictionPastCapacity) {
  om::TypeRegistry types;
  net::Cluster cluster(2, types);
  rmi::ExecutorConfig exec;
  exec.reply_cache_capacity = 2;  // tiny: 5 concurrent calls overflow it
  rmi::RmiSystem sys(cluster, types, exec);

  std::atomic<int> executions{0};
  const auto mid = sys.define_method(
      "park", [&](rmi::CallContext&, auto, auto) {
        ++executions;
        return rmi::HandlerResult{.deferred = true};  // never replies
      });
  rmi::CompiledCallSite cs;
  cs.method_id = mid;
  cs.plan = std::make_unique<serial::CallSitePlan>();
  cs.plan->name = "pin.site";
  const auto site = sys.add_callsite(std::move(cs));
  const rmi::RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc_string("t"));
  sys.start();

  auto craft = [&](std::uint32_t seq) {
    wire::Message m;
    m.header.kind = wire::MsgKind::Call;
    m.header.callsite_id = site;
    m.header.target_export = ref.export_id;
    m.header.seq = seq;
    m.header.source_machine = 0;
    m.header.dest_machine = 1;
    m.payload.put_varint(0);  // no scalars
    return m;
  };
  auto wait_until = [](const std::function<bool()>& done) {
    for (int i = 0; i < 5000 && !done(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(done());
  };

  constexpr int kCalls = 5;  // all deferred: all 5 in flight at once
  for (std::uint32_t seq = 1; seq <= kCalls; ++seq) {
    cluster.send(craft(seq));
  }
  wait_until([&] { return executions.load() == kCalls; });
  // Admitting calls 3..5 pushed the cache past capacity; eviction must
  // have skipped (and counted) the pinned in-flight entries.
  EXPECT_GT(sys.stats(1).reply_cache_pins, 0u);

  // Duplicates of every call — including the oldest, which unpinned FIFO
  // eviction would have forgotten — must be suppressed.
  for (std::uint32_t seq = 1; seq <= kCalls; ++seq) {
    cluster.send(craft(seq));
  }
  wait_until([&] { return sys.stats(1).duplicate_calls >= kCalls; });
  sys.stop();

  EXPECT_EQ(executions.load(), kCalls);  // no handler ever ran twice
  EXPECT_EQ(sys.stats(1).duplicate_calls, 5u);
  EXPECT_EQ(sys.stats(1).replayed_replies, 0u);  // none had replied yet
}

TEST_F(AtMostOnceTest, StrayReplyIsCountedNotFatal) {
  sys.start();
  wire::Message stray;
  stray.header.kind = wire::MsgKind::Ack;
  stray.header.seq = 4242;  // nobody is waiting
  stray.header.source_machine = 1;
  stray.header.dest_machine = 0;
  cluster.send(std::move(stray));
  wait_until([&] { return sys.stats(0).stray_replies >= 1; });
  sys.stop();
  EXPECT_EQ(sys.stats(0).stray_replies, 1u);
}

TEST_F(AtMostOnceTest, BadExportIdBecomesARemoteExceptionNotAnAbort) {
  const auto mid = sys.define_method(
      "noop", [](rmi::CallContext&, auto, auto) {
        return rmi::HandlerResult{};
      });
  const auto site = add_site(mid);
  sys.export_object(1, cluster.machine(1).heap().alloc_string("t"));
  sys.start();
  EXPECT_THROW(sys.invoke(0, rmi::RemoteRef{1, 999}, site, {}),
               rmi::RemoteException);
}

TEST_F(AtMostOnceTest, UnknownCallSiteIsAnsweredExceptionally) {
  sys.start();
  wire::Message bogus = craft_call(/*callsite=*/12345, 0, 555);
  cluster.send(std::move(bogus));
  // The callee answered with a typed exception; nobody was waiting for
  // it at the caller, so it lands as a stray reply.  No process died.
  wait_until([&] { return sys.stats(0).stray_replies >= 1; });
  sys.stop();
  EXPECT_EQ(sys.stats(0).stray_replies, 1u);
}

TEST(RmiTimeoutTest, CallToACrashedMachineRaisesTypedTimeout) {
  om::TypeRegistry types;
  net::FaultPlan plan;
  plan.crash_at(1, 0);
  net::Cluster cluster(2, types, serial::CostModel{},
                       net::TransportKind::Sim, wire::SessionConfig{}, plan);
  rmi::RmiSystem sys(cluster, types);
  const auto mid = sys.define_method(
      "noop", [](rmi::CallContext&, auto, auto) {
        return rmi::HandlerResult{};
      });
  rmi::CompiledCallSite cs;
  cs.method_id = mid;
  cs.plan = std::make_unique<serial::CallSitePlan>();
  cs.plan->name = "crash.site";
  const auto site = sys.add_callsite(std::move(cs));
  const rmi::RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc_string("t"));
  sys.start();
  EXPECT_THROW(sys.invoke(0, ref, site, {}), rmi::RmiTimeout);
  EXPECT_EQ(sys.stats(0).call_timeouts, 1u);
  EXPECT_GT(cluster.stats().dropped, 0u);
  sys.stop();
}

}  // namespace
}  // namespace rmiopt
