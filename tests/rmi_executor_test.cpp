// Tests for the dispatch executor and for multi-worker RMI semantics:
// true handler concurrency, deferred replies completed off-thread, and
// reuse-cache integrity when several handlers of the same call site run
// at once (§3.3's locking discipline under real contention).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "apps/lu.hpp"
#include "apps/microbench.hpp"
#include "apps/webserver.hpp"
#include "rmi/executor.hpp"
#include "rmi/runtime.hpp"

namespace rmiopt::rmi {
namespace {

using namespace std::chrono_literals;
using om::ClassId;
using om::ObjRef;
using om::TypeKind;

// ---- DispatchExecutor unit tests ------------------------------------------

TEST(DispatchExecutor, SingleWorkerRunsInlineOnTheCallingThread) {
  DispatchExecutor ex(1);
  EXPECT_EQ(ex.workers(), 1u);
  std::thread::id ran_on{};
  ex.execute([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  ex.drain_and_stop();
}

TEST(DispatchExecutor, PoolOverlapsTasks) {
  // Four tasks rendezvous: each waits (bounded) until all four have
  // started.  Only a pool that truly overlaps them can satisfy this.
  constexpr std::size_t kTasks = 4;
  DispatchExecutor ex(kTasks);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t started = 0;
  bool all_overlapped = true;
  for (std::size_t i = 0; i < kTasks; ++i) {
    ex.execute([&] {
      std::unique_lock lock(mu);
      ++started;
      cv.notify_all();
      if (!cv.wait_for(lock, 10s, [&] { return started == kTasks; })) {
        all_overlapped = false;
      }
    });
  }
  ex.drain_and_stop();
  EXPECT_TRUE(all_overlapped);
  EXPECT_EQ(started, kTasks);
}

TEST(DispatchExecutor, DrainAndStopCompletesAllQueuedWork) {
  DispatchExecutor ex(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 200; ++i) {
    ex.execute([&] { ++done; });
  }
  ex.drain_and_stop();
  EXPECT_EQ(done.load(), 200);
  ex.drain_and_stop();  // idempotent
  EXPECT_EQ(done.load(), 200);
}

// ---- multi-worker RMI semantics -------------------------------------------

class ExecutorRmiTest : public ::testing::Test {
 protected:
  // Machines 0 and 1 call into machine 2, whose handlers may overlap.
  ExecutorRmiTest()
      : cluster(3, types), sys(cluster, types, ExecutorConfig{2}) {
    point_id = types.define_class(
        "Point", {{"x", TypeKind::Double}, {"y", TypeKind::Double}});
  }

  ~ExecutorRmiTest() override { sys.stop(); }

  CompiledCallSite site_with_arg(std::uint32_t method, bool reuse_args) {
    CompiledCallSite cs;
    cs.method_id = method;
    cs.plan = std::make_unique<serial::CallSitePlan>();
    cs.plan->name = "executor.test.site";
    auto node = std::make_unique<serial::NodePlan>();
    node->expected_class = point_id;
    cs.plan->args.push_back(std::move(node));
    cs.plan->needs_cycle_table = false;
    cs.plan->reuse_args = reuse_args;
    return cs;
  }

  CompiledCallSite site_no_args(std::uint32_t method) {
    CompiledCallSite cs;
    cs.method_id = method;
    cs.plan = std::make_unique<serial::CallSitePlan>();
    cs.plan->name = "executor.test.site";
    return cs;
  }

  ObjRef make_point(om::Heap& heap, double x, double y) {
    const om::ClassDescriptor& c = types.get(point_id);
    ObjRef p = heap.alloc(c);
    p->set<double>(c.fields[0], x);
    p->set<double>(c.fields[1], y);
    return p;
  }

  om::TypeRegistry types;
  net::Cluster cluster;
  RmiSystem sys;
  ClassId point_id = om::kNoClass;
};

TEST_F(ExecutorRmiTest, HandlersOfOneMachineRunConcurrently) {
  // Both calls rendezvous inside the handler: each waits (bounded) for
  // the other to arrive.  With the paper's single inline dispatcher the
  // second call could never start before the first finishes, so the peak
  // in-flight count proves the pool is live.
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  int peak = 0;
  const auto mid = sys.define_method("meet", [&](CallContext&, auto, auto) {
    std::unique_lock lock(mu);
    ++arrived;
    peak = std::max(peak, arrived);
    cv.notify_all();
    cv.wait_for(lock, 10s, [&] { return arrived >= 2; });
    return HandlerResult{};
  });
  const auto site = sys.add_callsite(site_no_args(mid));
  const RemoteRef ref =
      sys.export_object(2, cluster.machine(2).heap().alloc(point_id));
  sys.start();

  std::thread a([&] { sys.invoke(0, ref, site, {}); });
  std::thread b([&] { sys.invoke(1, ref, site, {}); });
  a.join();
  b.join();
  EXPECT_EQ(arrived, 2);
  EXPECT_EQ(peak, 2);  // the handlers overlapped
}

TEST_F(ExecutorRmiTest, DeferredRepliesReleaseConcurrentCallers) {
  // A two-party barrier: each handler defers; the second arrival releases
  // both via send_reply from the handler thread.  Exercises the
  // thread-safe reply path under pool execution.
  std::mutex mu;
  std::vector<ReplyToken> waiting;
  const auto mid =
      sys.define_method("barrier", [&](CallContext& ctx, auto, auto) {
        std::scoped_lock lock(mu);
        waiting.push_back(ctx.reply_token());
        if (waiting.size() == 2) {
          for (const ReplyToken& t : waiting) {
            sys.send_reply(t, nullptr);
          }
          waiting.clear();
        }
        return HandlerResult{.deferred = true};
      });
  const auto site = sys.add_callsite(site_no_args(mid));
  const RemoteRef ref =
      sys.export_object(2, cluster.machine(2).heap().alloc(point_id));
  sys.start();

  std::atomic<int> returned{0};
  std::thread a([&] {
    sys.invoke(0, ref, site, {});
    ++returned;
  });
  std::thread b([&] {
    sys.invoke(1, ref, site, {});
    ++returned;
  });
  a.join();
  b.join();
  // The releasing handler may still be clearing `waiting` after both
  // replies went out: join it before this frame's locals are destroyed.
  sys.stop();
  EXPECT_EQ(returned.load(), 2);
}

TEST_F(ExecutorRmiTest, ReuseCacheStaysCoherentUnderConcurrentCallers) {
  // Two caller machines hammer the same reuse_args call site.  Whatever
  // the interleaving, every deserialized argument graph must be accounted
  // for exactly once (fresh allocation or recycled from the slot) and the
  // handler must always observe the values its caller sent.
  std::atomic<int> mismatches{0};
  const auto mid = sys.define_method(
      "consume", [&](CallContext&, auto, std::span<const ObjRef> args) {
        const om::ClassDescriptor& c = types.get(point_id);
        const double x = args[0]->get<double>(c.fields[0]);
        const double y = args[0]->get<double>(c.fields[1]);
        if (y != -x) ++mismatches;  // callers always send (v, -v)
        return HandlerResult{};
      });
  const auto site = sys.add_callsite(site_with_arg(mid, /*reuse_args=*/true));
  const RemoteRef ref =
      sys.export_object(2, cluster.machine(2).heap().alloc(point_id));
  sys.start();

  constexpr int kCallsPerCaller = 100;
  auto hammer = [&](std::uint16_t caller) {
    om::Heap& heap = cluster.machine(caller).heap();
    ObjRef arg = make_point(heap, 0, 0);
    const om::ClassDescriptor& c = types.get(point_id);
    for (int i = 0; i < kCallsPerCaller; ++i) {
      const double v = caller * 1000.0 + i;
      arg->set<double>(c.fields[0], v);
      arg->set<double>(c.fields[1], -v);
      sys.invoke(caller, ref, site, std::array{arg});
    }
    heap.free_graph(arg);
  };
  std::thread a([&] { hammer(0); });
  std::thread b([&] { hammer(1); });
  a.join();
  b.join();
  sys.stop();  // join dispatchers before reading callee counters

  EXPECT_EQ(mismatches.load(), 0);
  const auto s2 = sys.stats(2);
  // Every one of the 200 argument graphs was either freshly allocated or
  // recycled from the per-site slot — none double-counted, none lost.
  EXPECT_EQ(s2.serial.objects_allocated + s2.serial.objects_reused,
            2u * kCallsPerCaller);
  EXPECT_GT(s2.serial.objects_reused, 0u);
  EXPECT_EQ(sys.stats(0).remote_rpcs + sys.stats(1).remote_rpcs,
            2u * kCallsPerCaller);
}

// ---- full applications under a worker pool --------------------------------

TEST(ExecutorApps, ApplicationsStayCorrectWithTwoWorkers) {
  apps::ArrayBenchConfig array_cfg;
  array_cfg.iterations = 50;
  array_cfg.dispatch_workers = 2;
  const auto array = apps::run_array_bench(
      codegen::OptLevel::SiteReuseCycle, array_cfg);
  EXPECT_DOUBLE_EQ(array.check, 50.0 * 49.0 / 2.0);  // sum of iteration ids

  apps::WebserverConfig web_cfg;
  web_cfg.requests = 100;
  web_cfg.concurrent_clients = 4;
  web_cfg.dispatch_workers = 2;
  const auto web =
      apps::run_webserver(codegen::OptLevel::SiteReuseCycle, web_cfg);
  EXPECT_DOUBLE_EQ(web.check, 100.0 * web_cfg.page_size);

  // LU's step barrier is a deferred-reply RMI; the pool must not break it.
  apps::LuConfig lu_cfg;
  lu_cfg.n = 16;
  lu_cfg.dispatch_workers = 2;
  const auto lu = apps::run_lu(codegen::OptLevel::SiteReuseCycle, lu_cfg);
  EXPECT_LT(lu.check, 1e-9);
}

}  // namespace
}  // namespace rmiopt::rmi
