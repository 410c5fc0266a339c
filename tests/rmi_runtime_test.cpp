// Integration tests for the RMI runtime over the simulated cluster:
// remote/local invocation, ACK elision, reuse caches, deferred replies,
// statistics, and virtual-time accounting.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "rmi/runtime.hpp"

namespace rmiopt::rmi {
namespace {

using om::ClassId;
using om::ObjRef;
using om::TypeKind;

// Real-time wait until `m`'s dispatcher is parked in receive_blocking, so
// the next call to it would be taken at once.
void wait_idle(const net::Machine& m) {
  while (m.blocked_receivers() == 0) std::this_thread::yield();
}

class RmiTest : public ::testing::Test {
 protected:
  RmiTest() : cluster(2, types), sys(cluster, types) {
    point_id = types.define_class(
        "Point", {{"x", TypeKind::Double}, {"y", TypeKind::Double}});
    row_id = types.register_prim_array(TypeKind::Double);
    mat_id = types.register_ref_array(row_id);
  }

  ~RmiTest() override { sys.stop(); }

  // A class-mode call site: dynamic roots, cycle table on, no reuse.
  CompiledCallSite class_site(std::uint32_t method, bool with_ret,
                              std::vector<ClassId> arg_classes) {
    CompiledCallSite cs;
    cs.method_id = method;
    cs.plan = std::make_unique<serial::CallSitePlan>();
    cs.plan->name = "test.site";
    for (ClassId c : arg_classes) {
      cs.plan->args.push_back(serial::make_dynamic_node(c));
    }
    if (with_ret) cs.plan->ret = serial::make_dynamic_node(om::kNoClass);
    cs.plan->needs_cycle_table = true;
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
  ClassId row_id = om::kNoClass;
  ClassId mat_id = om::kNoClass;
};

TEST_F(RmiTest, RemoteCallRoundTripsValue) {
  // Method: swap the point's coordinates and return a fresh point.
  const auto mid = sys.define_method(
      "swap", [&](CallContext& ctx, auto, std::span<const ObjRef> args) {
        const om::ClassDescriptor& c = types.get(point_id);
        ObjRef in = args[0];
        ObjRef out = make_point(ctx.heap(), in->get<double>(c.fields[1]),
                                in->get<double>(c.fields[0]));
        return HandlerResult{.value = out, .give_ownership = true};
      });
  const auto site = sys.add_callsite(class_site(mid, true, {point_id}));
  ObjRef target = cluster.machine(1).heap().alloc(point_id);
  const RemoteRef ref = sys.export_object(1, target);
  sys.start();

  om::Heap& h0 = cluster.machine(0).heap();
  ObjRef arg = make_point(h0, 3.0, 4.0);
  ObjRef result = sys.invoke(0, ref, site, std::array{arg});

  ASSERT_NE(result, nullptr);
  const om::ClassDescriptor& c = types.get(point_id);
  EXPECT_DOUBLE_EQ(result->get<double>(c.fields[0]), 4.0);
  EXPECT_DOUBLE_EQ(result->get<double>(c.fields[1]), 3.0);

  // The callee frees argument graphs *after* replying; join the
  // dispatchers before reading callee-side counters.
  sys.stop();
  const auto s0 = sys.stats(0);
  const auto s1 = sys.stats(1);
  EXPECT_EQ(s0.remote_rpcs, 1u);
  EXPECT_EQ(s0.local_rpcs, 0u);
  EXPECT_EQ(s1.serial.objects_allocated, 1u);  // the deserialized argument
  EXPECT_EQ(s1.serial.objects_freed, 2u);      // arg + owned return value
  h0.free(arg);
  h0.free(result);
}

TEST_F(RmiTest, SelfIsTheExportedObject) {
  ObjRef target = nullptr;
  const auto mid = sys.define_method(
      "check", [&](CallContext& ctx, auto, auto) {
        EXPECT_EQ(ctx.self(), target);
        return HandlerResult{};
      });
  CompiledCallSite cs = class_site(mid, false, {});
  const auto site = sys.add_callsite(std::move(cs));
  target = make_point(cluster.machine(1).heap(), 1, 2);
  const RemoteRef ref = sys.export_object(1, target);
  sys.start();
  EXPECT_EQ(sys.invoke(0, ref, site, {}), nullptr);
}

TEST_F(RmiTest, ScalarsTravelWithoutPlans) {
  std::int64_t seen = 0;
  const auto mid = sys.define_method(
      "scal", [&](CallContext&, std::span<const std::int64_t> s, auto) {
        seen = s[0] + s[1];
        return HandlerResult{};
      });
  const auto site = sys.add_callsite(class_site(mid, false, {}));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(point_id));
  sys.start();
  sys.invoke(0, ref, site, {}, std::array<std::int64_t, 2>{40, 2});
  EXPECT_EQ(seen, 42);
}

TEST_F(RmiTest, VoidCallReturnsAckAndNothingIsDeserialized) {
  const auto mid =
      sys.define_method("noop", [](CallContext&, auto, auto) {
        return HandlerResult{};
      });
  const auto site = sys.add_callsite(class_site(mid, false, {point_id}));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(point_id));
  sys.start();
  om::Heap& h0 = cluster.machine(0).heap();
  ObjRef arg = make_point(h0, 1, 2);
  EXPECT_EQ(sys.invoke(0, ref, site, std::array{arg}), nullptr);
  // The caller allocated nothing for the reply.
  EXPECT_EQ(sys.stats(0).serial.objects_allocated, 0u);
  h0.free(arg);
}

TEST_F(RmiTest, ReturnElisionSendsAckEvenWhenHandlerReturnsValue) {
  // §3.1: the call site ignores the return value, so the compiler elides
  // it (plan.ret == nullptr) and the callee discards the handler's value.
  const auto mid = sys.define_method(
      "produce", [&](CallContext& ctx, auto, auto) {
        return HandlerResult{.value = make_point(ctx.heap(), 9, 9),
                             .give_ownership = true};
      });
  const auto site = sys.add_callsite(class_site(mid, false, {}));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(point_id));
  sys.start();
  EXPECT_EQ(sys.invoke(0, ref, site, {}), nullptr);
  // The produced value was freed at the callee, not serialized.
  EXPECT_EQ(sys.stats(1).serial.objects_freed, 1u);
  EXPECT_EQ(sys.stats(0).serial.objects_allocated, 0u);
}

TEST_F(RmiTest, LocalCallClonesArgumentsAndReturnValue) {
  ObjRef observed = nullptr;
  const auto mid = sys.define_method(
      "id", [&](CallContext&, auto, std::span<const ObjRef> args) {
        observed = args[0];
        return HandlerResult{.value = args[0]};
      });
  const auto site = sys.add_callsite(class_site(mid, true, {point_id}));
  om::Heap& h0 = cluster.machine(0).heap();
  const RemoteRef ref = sys.export_object(0, h0.alloc(point_id));
  sys.start();

  ObjRef arg = make_point(h0, 7.0, 8.0);
  ObjRef result = sys.invoke(0, ref, site, std::array{arg});
  // Copy semantics: the handler saw a clone, and the caller got a clone of
  // the handler's return — three distinct objects, equal contents.
  EXPECT_NE(observed, arg);
  EXPECT_NE(result, arg);
  EXPECT_NE(result, observed);
  EXPECT_TRUE(om::deep_equals(result, arg));
  EXPECT_EQ(sys.stats(0).local_rpcs, 1u);
  EXPECT_EQ(sys.stats(0).remote_rpcs, 0u);
  h0.free(arg);
  h0.free(result);
}

TEST_F(RmiTest, ArgsConsumedKeepsHandlerOwnership) {
  std::vector<ObjRef> kept;
  const auto mid = sys.define_method(
      "keep", [&](CallContext&, auto, std::span<const ObjRef> args) {
        kept.push_back(args[0]);
        return HandlerResult{.args_consumed = true};
      });
  const auto site = sys.add_callsite(class_site(mid, false, {point_id}));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(point_id));
  sys.start();
  om::Heap& h0 = cluster.machine(0).heap();
  ObjRef arg = make_point(h0, 1, 1);
  sys.invoke(0, ref, site, std::array{arg});
  sys.invoke(0, ref, site, std::array{arg});
  ASSERT_EQ(kept.size(), 2u);
  // The kept graphs are alive and distinct.
  EXPECT_NE(kept[0], kept[1]);
  EXPECT_TRUE(om::deep_equals(kept[0], kept[1]));
  EXPECT_EQ(sys.stats(1).serial.objects_freed, 0u);
  h0.free(arg);
  cluster.machine(1).heap().free(kept[0]);
  cluster.machine(1).heap().free(kept[1]);
}

TEST_F(RmiTest, ReuseArgsRecyclesDeserializedGraphAcrossCalls) {
  // site+reuse: a double[16][16] argument, per the paper's array bench.
  ObjRef first_seen = nullptr;
  ObjRef second_seen = nullptr;
  const auto mid = sys.define_method(
      "send", [&](CallContext&, auto, std::span<const ObjRef> args) {
        (first_seen == nullptr ? first_seen : second_seen) = args[0];
        return HandlerResult{};
      });

  CompiledCallSite cs;
  cs.method_id = mid;
  cs.plan = std::make_unique<serial::CallSitePlan>();
  cs.plan->name = "ArrayBench.benchmark.send#0";
  auto row = std::make_unique<serial::NodePlan>();
  row->expected_class = row_id;
  auto mat = std::make_unique<serial::NodePlan>();
  mat->expected_class = mat_id;
  mat->elem_plan = std::move(row);
  cs.plan->args.push_back(std::move(mat));
  cs.plan->needs_cycle_table = false;  // proven acyclic
  cs.plan->reuse_args = true;          // escape analysis: does not escape
  const auto site = sys.add_callsite(std::move(cs));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(point_id));
  sys.start();

  om::Heap& h0 = cluster.machine(0).heap();
  ObjRef m = h0.alloc_array(mat_id, 16);
  for (std::uint32_t r = 0; r < 16; ++r) {
    m->set_elem_ref(r, h0.alloc_array(row_id, 16));
  }
  sys.invoke(0, ref, site, std::array{m});
  sys.invoke(0, ref, site, std::array{m});

  // The callee saw the *same* (recycled) array object on the second call.
  EXPECT_EQ(first_seen, second_seen);
  const auto s1 = sys.stats(1);
  EXPECT_EQ(s1.serial.objects_allocated, 17u);  // only the first call
  EXPECT_EQ(s1.serial.objects_reused, 17u);     // entire second call
  EXPECT_EQ(s1.serial.cycle_lookups, 0u);       // cycle table elided
  h0.free_graph(m);
}

TEST_F(RmiTest, ReuseRetRecyclesReturnGraphAtCaller) {
  const auto mid = sys.define_method(
      "get", [&](CallContext& ctx, auto, auto) {
        return HandlerResult{.value = make_point(ctx.heap(), 5, 6),
                             .give_ownership = true};
      });
  CompiledCallSite cs;
  cs.method_id = mid;
  cs.plan = std::make_unique<serial::CallSitePlan>();
  cs.plan->name = "get#0";
  auto ret = std::make_unique<serial::NodePlan>();
  ret->expected_class = point_id;
  cs.plan->ret = std::move(ret);
  cs.plan->needs_cycle_table = false;
  cs.plan->reuse_ret = true;
  const auto site = sys.add_callsite(std::move(cs));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(point_id));
  sys.start();

  ObjRef r1 = sys.invoke(0, ref, site, {});
  ObjRef r2 = sys.invoke(0, ref, site, {});
  EXPECT_EQ(r1, r2);  // recycled caller-side graph
  EXPECT_EQ(sys.stats(0).serial.objects_allocated, 1u);
  EXPECT_EQ(sys.stats(0).serial.objects_reused, 1u);
}

// The runtime owns the caller-side return graph at a reuse_ret site: it
// must stay valid past stop() (the caller may still hold it) and be freed
// when the system is destroyed.
TEST(RmiLifetime, ReturnReuseGraphsAreFreedWithTheSystem) {
  om::TypeRegistry types;
  const ClassId point = types.define_class("Point", {{"x", TypeKind::Double}});
  net::Cluster cluster(2, types);
  om::Heap& caller_heap = cluster.machine(0).heap();
  const std::uint64_t before = caller_heap.stats().live_objects();
  {
    RmiSystem sys(cluster, types);
    const auto mid = sys.define_method(
        "get", [&](CallContext& ctx, auto, auto) {
          return HandlerResult{.value = ctx.heap().alloc(point),
                               .give_ownership = true};
        });
    CompiledCallSite cs;
    cs.method_id = mid;
    cs.plan = std::make_unique<serial::CallSitePlan>();
    cs.plan->name = "get#0";
    cs.plan->ret = std::make_unique<serial::NodePlan>();
    cs.plan->ret->expected_class = point;
    cs.plan->needs_cycle_table = false;
    cs.plan->reuse_ret = true;
    const auto site = sys.add_callsite(std::move(cs));
    const RemoteRef ref =
        sys.export_object(1, cluster.machine(1).heap().alloc(point));
    sys.start();
    const ObjRef r1 = sys.invoke(0, ref, site, {});
    EXPECT_EQ(sys.invoke(0, ref, site, {}), r1);
    sys.stop();
    EXPECT_EQ(caller_heap.stats().live_objects(), before + 1);  // still the caller's
  }
  EXPECT_EQ(caller_heap.stats().live_objects(), before);
}

// Concurrent callers of one reuse_ret site: a caller puts its value back
// into the slot while another caller's value sits there.  The displaced
// graph may still be held by its caller, so it must stay live — recycled
// by a later caller that finds the slot taken, so the site never holds
// more return graphs than it has callers — and be freed, not leaked, when
// the system is gone.  A pooled callee answers the callers together, and
// a 513-object reply takes the caller longer to read into its cached
// graph than the callee to write.
TEST(RmiLifetime, ConcurrentReturnReuseLeavesNoGraphBehind) {
  om::TypeRegistry types;
  const ClassId row = types.register_prim_array(TypeKind::Double);
  const ClassId mat = types.register_ref_array(row);
  const ClassId svc = types.define_class("Svc", {});
  net::Cluster cluster(2, types);
  om::Heap& caller_heap = cluster.machine(0).heap();
  const std::uint64_t before = caller_heap.stats().live_objects();
  {
    RmiSystem sys(cluster, types, ExecutorConfig{/*dispatch_workers=*/4});
    om::Heap& callee_heap = cluster.machine(1).heap();
    constexpr std::uint32_t kRows = 512;
    const ObjRef table = callee_heap.alloc_array(mat, kRows);
    for (std::uint32_t r = 0; r < kRows; ++r) {
      table->set_elem_ref(r, callee_heap.alloc_array(row, 1));
    }
    const auto mid = sys.define_method(
        "get", [&](CallContext&, auto, auto) {
          return HandlerResult{.value = table};
        });
    CompiledCallSite cs;
    cs.method_id = mid;
    cs.plan = std::make_unique<serial::CallSitePlan>();
    cs.plan->name = "get#0";
    cs.plan->ret = std::make_unique<serial::NodePlan>();
    cs.plan->ret->expected_class = mat;
    cs.plan->ret->elem_plan = std::make_unique<serial::NodePlan>();
    cs.plan->ret->elem_plan->expected_class = row;
    cs.plan->needs_cycle_table = false;
    cs.plan->reuse_ret = true;
    const auto site = sys.add_callsite(std::move(cs));
    const RemoteRef ref = sys.export_object(1, callee_heap.alloc(svc));
    sys.start();
    std::vector<std::thread> callers;
    for (int t = 0; t < 4; ++t) {
      callers.emplace_back([&] {
        for (int i = 0; i < 250; ++i) (void)sys.invoke(0, ref, site, {});
      });
    }
    for (std::thread& t : callers) t.join();
    EXPECT_LE(caller_heap.stats().live_objects() - before,
              callers.size() * (kRows + 1));
    sys.stop();
  }
  EXPECT_EQ(caller_heap.stats().live_objects(), before);
}

// Concurrent executions of one reuse_args site on a pooled callee: an
// execution puts its arguments back while another's sit in the slot.
// Nothing holds the displaced graph, so it is freed at once.
TEST(RmiLifetime, ConcurrentArgumentReuseLeavesNoGraphBehind) {
  om::TypeRegistry types;
  const ClassId row = types.register_prim_array(TypeKind::Double);
  const ClassId svc = types.define_class("Svc", {});
  net::Cluster cluster(2, types);
  om::Heap& callee_heap = cluster.machine(1).heap();
  const ObjRef target = callee_heap.alloc(svc);
  const std::uint64_t before = callee_heap.stats().live_objects();
  {
    RmiSystem sys(cluster, types, ExecutorConfig{/*dispatch_workers=*/4});
    const auto mid = sys.define_method(
        "put", [](CallContext&, auto, auto) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
          return HandlerResult{};
        });
    CompiledCallSite cs;
    cs.method_id = mid;
    cs.plan = std::make_unique<serial::CallSitePlan>();
    cs.plan->name = "put#0";
    cs.plan->args.push_back(std::make_unique<serial::NodePlan>());
    cs.plan->args[0]->expected_class = row;
    cs.plan->needs_cycle_table = false;
    cs.plan->reuse_args = true;
    const auto site = sys.add_callsite(std::move(cs));
    const RemoteRef ref = sys.export_object(1, target);
    sys.start();
    std::vector<std::thread> callers;
    for (int t = 0; t < 4; ++t) {
      callers.emplace_back([&] {
        om::Heap& heap = cluster.machine(0).heap();
        const ObjRef arg = heap.alloc_array(row, 16);
        for (int i = 0; i < 200; ++i) {
          (void)sys.invoke(0, ref, site, std::array{arg});
        }
        heap.free(arg);
      });
    }
    for (std::thread& t : callers) t.join();
    sys.stop();
  }
  EXPECT_EQ(callee_heap.stats().live_objects(), before);
  callee_heap.free(target);
}

// A batching session on the reply link holds a deferred Ack back until
// the next reply flushes it, so one send during a call delivers two
// replies: the deferred Ack and the call's own.  Machine 0's dispatcher is
// idle, so both are claimed for their callers, and both callers resume
// only after the call has freed its argument.
TEST(RmiClaim, CoalescedRepliesAllWaitForTheCallThatSentThem) {
  om::TypeRegistry types;
  const ClassId svc = types.define_class("Svc", {});
  const ClassId row = types.register_prim_array(TypeKind::Double);
  const ClassId mat = types.register_ref_array(row);
  wire::SessionConfig batching;
  batching.max_batch_messages = 2;  // the second reply flushes the first
  net::Cluster cluster(2, types, {}, net::TransportKind::Sim, batching);
  RmiSystem sys(cluster, types);
  std::mutex mu;
  std::vector<ReplyToken> waiting;
  const auto mid = sys.define_method(
      "barrier", [&](CallContext& ctx, auto, auto) -> HandlerResult {
        std::scoped_lock lock(mu);
        waiting.push_back(ctx.reply_token());
        if (waiting.size() < 2) return HandlerResult{.deferred = true};
        ctx.system().send_reply(waiting.front(), nullptr);  // queued
        waiting.clear();
        return HandlerResult{};
      });
  CompiledCallSite cs;
  cs.method_id = mid;
  cs.plan = std::make_unique<serial::CallSitePlan>();
  cs.plan->name = "barrier#0";
  cs.plan->args.push_back(serial::make_dynamic_node(mat));
  cs.plan->needs_cycle_table = true;
  const auto site = sys.add_callsite(std::move(cs));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(svc));
  om::Heap& h0 = cluster.machine(0).heap();
  ObjRef small = h0.alloc_array(mat, 1);
  small->set_elem_ref(0, h0.alloc_array(row, 1));
  constexpr std::uint32_t kRows = 20'000;  // freeing them takes real time
  ObjRef big = h0.alloc_array(mat, kRows);
  for (std::uint32_t r = 0; r < kRows; ++r) {
    big->set_elem_ref(r, h0.alloc_array(row, 1));
  }
  sys.start();
  while (cluster.machine(0).blocked_receivers() == 0) {
    std::this_thread::yield();
  }

  std::int64_t deferred_caller_saw = -1;
  std::thread first([&] {
    sys.invoke(0, ref, site, std::array{small});
    deferred_caller_saw = cluster.machine(1).clock().now().as_nanos();
  });
  while (true) {
    {
      std::scoped_lock lock(mu);
      if (!waiting.empty()) break;
    }
    std::this_thread::yield();
  }
  sys.invoke(0, ref, site, std::array{big});
  const std::int64_t releasing_caller_saw =
      cluster.machine(1).clock().now().as_nanos();
  first.join();
  sys.stop();
  const std::int64_t callee_end = cluster.machine(1).clock().now().as_nanos();
  EXPECT_EQ(deferred_caller_saw, callee_end);
  EXPECT_EQ(releasing_caller_saw, callee_end);
  h0.free_graph(small);
  h0.free_graph(big);
}

TEST_F(RmiTest, DeferredReplyCompletesLater) {
  // A two-party barrier: first caller's reply is deferred until the second
  // arrives.
  std::mutex mu;
  std::vector<ReplyToken> waiting;
  const auto mid = sys.define_method(
      "barrier", [&](CallContext& ctx, auto, auto) -> HandlerResult {
        std::scoped_lock lock(mu);
        waiting.push_back(ctx.reply_token());
        if (waiting.size() < 2) return HandlerResult{.deferred = true};
        for (const auto& t : waiting) {
          if (t.seq != ctx.reply_token().seq) {
            ctx.system().send_reply(t, nullptr);
          }
        }
        waiting.clear();
        return HandlerResult{};
      });
  const auto site = sys.add_callsite(class_site(mid, false, {}));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(point_id));
  sys.start();

  std::atomic<int> done{0};
  std::thread t0([&] {
    sys.invoke(0, ref, site, {});
    ++done;
  });
  // Give the first call time to arrive and block.
  while (true) {
    {
      std::scoped_lock lock(mu);
      if (!waiting.empty()) break;
    }
    std::this_thread::yield();
  }
  EXPECT_EQ(done.load(), 0);
  sys.invoke(1, ref, site, {});  // local call releases the barrier
  t0.join();
  EXPECT_EQ(done.load(), 1);
}

TEST_F(RmiTest, ClaimedReplyResumesTheCallerOnlyAfterTheCallEnds) {
  // The callee frees the argument graph after its Ack has gone out.  The
  // caller's dispatcher is idle, so the sending thread claims the Ack for
  // the caller — and holds it until the call ends: by the time invoke
  // returns, every charge of the call is on the callee's clock.
  const auto mid = sys.define_method(
      "noop", [](CallContext&, auto, auto) { return HandlerResult{}; });
  const auto site = sys.add_callsite(class_site(mid, false, {mat_id}));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(point_id));
  om::Heap& h0 = cluster.machine(0).heap();
  constexpr std::uint32_t kRows = 20'000;  // freeing them takes real time
  ObjRef m = h0.alloc_array(mat_id, kRows);
  for (std::uint32_t r = 0; r < kRows; ++r) {
    m->set_elem_ref(r, h0.alloc_array(row_id, 1));
  }
  sys.start();
  while (cluster.machine(0).blocked_receivers() == 0) {
    std::this_thread::yield();
  }

  sys.invoke(0, ref, site, std::array{m});
  const std::int64_t callee_at_return =
      cluster.machine(1).clock().now().as_nanos();
  sys.stop();
  EXPECT_EQ(cluster.machine(1).clock().now().as_nanos(), callee_at_return);
  h0.free_graph(m);
}

TEST_F(RmiTest, VirtualTimeAdvancesWithCalls) {
  const auto mid = sys.define_method(
      "noop", [](CallContext&, auto, auto) { return HandlerResult{}; });
  const auto site = sys.add_callsite(class_site(mid, false, {}));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(point_id));
  sys.start();

  sys.invoke(0, ref, site, {});
  const SimTime after_one = cluster.machine(0).clock().now();
  // An empty optimized round trip should be in the tens of microseconds
  // (§3.3 quotes ~40 µs per optimized RMI on Myrinet).
  EXPECT_GT(after_one.as_micros(), 20.0);
  EXPECT_LT(after_one.as_micros(), 100.0);

  for (int i = 0; i < 9; ++i) sys.invoke(0, ref, site, {});
  const SimTime after_ten = cluster.machine(0).clock().now();
  EXPECT_GT(after_ten.as_nanos(), after_one.as_nanos() * 8);
}

TEST_F(RmiTest, BiggerPayloadsTakeLongerVirtualTime) {
  const auto mid = sys.define_method(
      "noop", [](CallContext&, auto, auto) { return HandlerResult{}; });
  const auto site = sys.add_callsite(class_site(mid, false, {row_id}));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(point_id));
  sys.start();

  om::Heap& h0 = cluster.machine(0).heap();
  ObjRef small = h0.alloc_array(row_id, 8);
  ObjRef large = h0.alloc_array(row_id, 64 * 1024);

  sys.invoke(0, ref, site, std::array{small});
  const SimTime t1 = cluster.machine(0).clock().now();
  sys.invoke(0, ref, site, std::array{large});
  const SimTime t2 = cluster.machine(0).clock().now();
  EXPECT_GT((t2 - t1).as_nanos(), t1.as_nanos() * 2);
  h0.free(small);
  h0.free(large);
}

TEST_F(RmiTest, NetworkStatsCountMessagesAndBytes) {
  const auto mid = sys.define_method(
      "noop", [](CallContext&, auto, auto) { return HandlerResult{}; });
  const auto site = sys.add_callsite(class_site(mid, false, {}));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(point_id));
  sys.start();
  sys.invoke(0, ref, site, {});
  EXPECT_EQ(cluster.stats().messages, 2u);  // call + ack
  EXPECT_GT(cluster.stats().bytes, 0u);
}

TEST_F(RmiTest, HeavyProtocolCostsMoreThanClassProtocol) {
  const auto mid = sys.define_method(
      "noop", [](CallContext&, auto, auto) { return HandlerResult{}; });
  const auto class_s = sys.add_callsite(class_site(mid, false, {point_id}));
  CompiledCallSite heavy = class_site(mid, false, {});
  heavy.plan->args.push_back(
      serial::make_dynamic_node(point_id, serial::TypeInfoMode::FullName));
  const auto heavy_s = sys.add_callsite(std::move(heavy));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(point_id));
  sys.start();

  om::Heap& h0 = cluster.machine(0).heap();
  ObjRef p = make_point(h0, 1, 2);
  const auto bytes_before = cluster.stats().bytes;
  sys.invoke(0, ref, class_s, std::array{p});
  const auto class_bytes = cluster.stats().bytes - bytes_before;
  sys.invoke(0, ref, heavy_s, std::array{p});
  const auto heavy_bytes =
      cluster.stats().bytes - bytes_before - class_bytes;
  EXPECT_GT(heavy_bytes, class_bytes);
  h0.free(p);
}

TEST_F(RmiTest, ArgumentOutsideTheDeclaredClassIsRejectedBeforeTheHandler) {
  // The site declares a Point but the caller passes a double[1]: the
  // callee's unmarshaler must refuse the stream rather than hand the
  // handler an 8-byte array to read two doubles from.
  bool ran = false;
  const auto mid = sys.define_method(
      "norm", [&](CallContext&, auto, auto) {
        ran = true;
        return HandlerResult{};
      });
  const auto site = sys.add_callsite(class_site(mid, false, {point_id}));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(point_id));
  sys.start();

  om::Heap& h0 = cluster.machine(0).heap();
  ObjRef row = h0.alloc_array(row_id, 1);
  try {
    sys.invoke(0, ref, site, std::array{row});
    ADD_FAILURE() << "a double[] passed as a Point was accepted";
  } catch (const RemoteException& e) {
    EXPECT_NE(std::string(e.what()).find("undecodable call"),
              std::string::npos)
        << e.what();
  }
  sys.stop();
  EXPECT_FALSE(ran);
  h0.free(row);
}

TEST_F(RmiTest, ConcurrentCallersFromOneMachineAreMatchedBySeq) {
  const auto mid = sys.define_method(
      "echo", [&](CallContext& ctx, std::span<const std::int64_t> s,
                  auto) {
        ObjRef p = make_point(ctx.heap(), static_cast<double>(s[0]), 0);
        return HandlerResult{.value = p, .give_ownership = true};
      });
  const auto site = sys.add_callsite(class_site(mid, true, {}));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(point_id));
  sys.start();

  constexpr int kThreads = 4;
  constexpr int kCalls = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCalls; ++i) {
        const std::int64_t tag = t * 1000 + i;
        ObjRef r = sys.invoke(0, ref, site, {},
                              std::array<std::int64_t, 1>{tag});
        const om::ClassDescriptor& c = types.get(point_id);
        if (r == nullptr ||
            r->get<double>(c.fields[0]) != static_cast<double>(tag)) {
          ++failures;
        }
        cluster.machine(0).heap().free(r);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(sys.stats(0).remote_rpcs,
            static_cast<std::uint64_t>(kThreads * kCalls));
}

// ---- calls served by the calling thread -------------------------------------

TEST_F(RmiTest, SoleCallersInvokeRunsTheHandlerOnTheCallingThread) {
  std::vector<std::thread::id> ran_on;
  const auto mid = sys.define_method(
      "echo", [&](CallContext& ctx, std::span<const std::int64_t> s, auto) {
        ran_on.push_back(std::this_thread::get_id());
        ObjRef p = make_point(ctx.heap(), static_cast<double>(s[0]), 0);
        return HandlerResult{.value = p, .give_ownership = true};
      });
  const auto site = sys.add_callsite(class_site(mid, true, {}));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(point_id));
  sys.start();
  wait_idle(cluster.machine(1));
  for (std::int64_t i = 0; i < 3; ++i) {
    const ObjRef r =
        sys.invoke(0, ref, site, {}, std::array<std::int64_t, 1>{i});
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->get<double>(types.get(point_id).fields[0]),
              static_cast<double>(i));
    cluster.machine(0).heap().free(r);
  }
  ASSERT_EQ(ran_on.size(), 3u);
  for (const std::thread::id id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  // The callee's dispatcher never woke.
  EXPECT_EQ(cluster.machine(1).blocked_receivers(), 1u);
  EXPECT_EQ(sys.stats(0).remote_rpcs, 3u);
}

TEST_F(RmiTest, InvokeAsyncLeavesTheCallToTheDispatcher) {
  std::thread::id ran_on;
  const auto mid = sys.define_method("noop", [&](CallContext&, auto, auto) {
    ran_on = std::this_thread::get_id();
    return HandlerResult{};
  });
  const auto site = sys.add_callsite(class_site(mid, false, {}));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(point_id));
  sys.start();
  wait_idle(cluster.machine(1));
  EXPECT_EQ(sys.invoke_async(0, ref, site, {}).get(), nullptr);
  EXPECT_NE(ran_on, std::thread::id{});
  EXPECT_NE(ran_on, std::this_thread::get_id());
}

TEST_F(RmiTest, OnewayCallIsLeftToTheDispatcher) {
  std::atomic<bool> ran{false};
  std::thread::id ran_on;
  const auto mid = sys.define_method("fire", [&](CallContext&, auto, auto) {
    ran_on = std::this_thread::get_id();
    ran = true;
    return HandlerResult{};
  });
  const auto site = sys.add_callsite(class_site(mid, false, {}));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(point_id));
  sys.start();
  wait_idle(cluster.machine(1));
  sys.invoke_oneway(0, ref, site, {});
  while (!ran.load()) std::this_thread::yield();
  EXPECT_NE(ran_on, std::this_thread::get_id());
}

TEST(RmiClaim, PooledCalleeRunsTheHandlerOnItsWorkers) {
  om::TypeRegistry types;
  const ClassId svc = types.define_class("Svc", {});
  net::Cluster cluster(2, types);
  RmiSystem sys(cluster, types, ExecutorConfig{/*dispatch_workers=*/2});
  std::thread::id ran_on;
  const auto mid = sys.define_method("noop", [&](CallContext&, auto, auto) {
    ran_on = std::this_thread::get_id();
    return HandlerResult{};
  });
  CompiledCallSite cs;
  cs.method_id = mid;
  cs.plan = std::make_unique<serial::CallSitePlan>();
  cs.plan->name = "noop#0";
  const auto site = sys.add_callsite(std::move(cs));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(svc));
  sys.start();
  wait_idle(cluster.machine(1));
  EXPECT_EQ(sys.invoke(0, ref, site, {}), nullptr);
  EXPECT_NE(ran_on, std::thread::id{});
  EXPECT_NE(ran_on, std::this_thread::get_id());
  sys.stop();
}

TEST_F(RmiTest, SecondCallingThreadEndsServingOnTheCaller) {
  std::vector<std::thread::id> ran_on;
  const auto mid = sys.define_method("noop", [&](CallContext&, auto, auto) {
    ran_on.push_back(std::this_thread::get_id());
    return HandlerResult{};
  });
  const auto site = sys.add_callsite(class_site(mid, false, {}));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(point_id));
  sys.start();
  const std::thread::id self = std::this_thread::get_id();
  wait_idle(cluster.machine(1));
  sys.invoke(0, ref, site, {});
  std::thread::id other;
  std::thread second([&] {
    other = std::this_thread::get_id();
    wait_idle(cluster.machine(1));
    sys.invoke(0, ref, site, {});
  });
  second.join();
  for (int i = 0; i < 2; ++i) {
    wait_idle(cluster.machine(1));
    sys.invoke(0, ref, site, {});
  }
  ASSERT_EQ(ran_on.size(), 4u);
  EXPECT_EQ(ran_on[0], self);
  // From the second thread's first call on, every call is dispatched.
  for (std::size_t i = 1; i < ran_on.size(); ++i) {
    EXPECT_NE(ran_on[i], self) << "call " << i;
    EXPECT_NE(ran_on[i], other) << "call " << i;
  }
}

TEST_F(RmiTest, ClaimedCallWhoseHandlerThrowsStillReleasesTheCallee) {
  std::vector<std::thread::id> ran_on;
  bool fail = true;
  const auto mid = sys.define_method(
      "flaky", [&](CallContext&, auto, auto) -> HandlerResult {
        ran_on.push_back(std::this_thread::get_id());
        if (std::exchange(fail, false)) throw Error("flaky handler");
        return HandlerResult{};
      });
  const auto site = sys.add_callsite(class_site(mid, false, {}));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(point_id));
  sys.start();
  wait_idle(cluster.machine(1));
  EXPECT_THROW(sys.invoke(0, ref, site, {}), RemoteException);
  EXPECT_EQ(sys.invoke(0, ref, site, {}), nullptr);
  ASSERT_EQ(ran_on.size(), 2u);
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  EXPECT_EQ(ran_on[1], std::this_thread::get_id());
}

// The real-time backstop (ExecutorConfig::call_timeout_ms) bounds the wait
// for a reply the callee's dispatcher sends.  A call the calling thread
// serves itself has no such wait: like a handler on the dispatcher, it is
// bounded only by its handler.
TEST(RmiClaim, BackstopBoundsOnlyACallLeftToTheDispatcher) {
  om::TypeRegistry types;
  const ClassId svc = types.define_class("Svc", {});
  net::Cluster cluster(2, types);
  ExecutorConfig cfg;
  cfg.call_timeout_ms = 50;
  RmiSystem sys(cluster, types, cfg);
  std::vector<std::thread::id> ran_on;
  const auto mid = sys.define_method("slow", [&](CallContext&, auto, auto) {
    ran_on.push_back(std::this_thread::get_id());
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return HandlerResult{};
  });
  CompiledCallSite cs;
  cs.method_id = mid;
  cs.plan = std::make_unique<serial::CallSitePlan>();
  cs.plan->name = "slow#0";
  const auto site = sys.add_callsite(std::move(cs));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(svc));
  sys.start();
  wait_idle(cluster.machine(1));
  EXPECT_EQ(sys.invoke(0, ref, site, {}), nullptr);
  wait_idle(cluster.machine(1));
  EXPECT_THROW(sys.invoke_async(0, ref, site, {}).get(), RmiTimeout);
  sys.stop();
  ASSERT_EQ(ran_on.size(), 2u);
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  EXPECT_NE(ran_on[1], std::this_thread::get_id());
}

// The call frame reaches the callee, is claimed, and then the send fails:
// the link duplicates every call frame, and the transport's frame probe
// throws on the duplicate's submission.  The calling thread still serves
// the delivered call and releases the callee.
TEST(RmiClaim, ClaimedCallWhoseSendThrowsAfterDeliveryStillReleasesTheCallee) {
  om::TypeRegistry types;
  const ClassId svc = types.define_class("Svc", {});
  net::FaultPlan plan;
  plan.set_link(0, 1, {.duplicate = 1.0});
  net::Cluster cluster(2, types, {}, net::TransportKind::Sim, {}, plan);
  RmiSystem sys(cluster, types);
  std::vector<std::thread::id> ran_on;
  const auto mid = sys.define_method("noop", [&](CallContext&, auto, auto) {
    ran_on.push_back(std::this_thread::get_id());
    return HandlerResult{};
  });
  CompiledCallSite cs;
  cs.method_id = mid;
  cs.plan = std::make_unique<serial::CallSitePlan>();
  cs.plan->name = "noop#0";
  const auto site = sys.add_callsite(std::move(cs));
  const RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(svc));
  int call_frames = 0;
  cluster.transport().set_frame_probe(
      [&](std::uint16_t src, std::uint16_t, const wire::Frame&) {
        if (src == 0 && ++call_frames == 2) {
          throw Error("link failed after delivering the call");
        }
      });
  sys.start();
  wait_idle(cluster.machine(1));
  EXPECT_THROW(sys.invoke(0, ref, site, {}), Error);
  ASSERT_EQ(ran_on.size(), 1u);
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  EXPECT_EQ(sys.invoke(0, ref, site, {}), nullptr);
  ASSERT_EQ(ran_on.size(), 2u);
  EXPECT_EQ(ran_on[1], std::this_thread::get_id());
  sys.stop();
  cluster.transport().set_frame_probe(nullptr);
}

}  // namespace
}  // namespace rmiopt::rmi
