// Regression test for a silent deadlock: a handler that performs a nested
// *synchronous* remote invoke from the dispatcher thread, on a machine
// configured with dispatch_workers == 1, waits for a reply only that same
// (blocked) thread could process.  The call used to hang forever on a
// healthy link.  The runtime now detects the re-entrant wait at the
// executor boundary and fails fast with the typed, recoverable
// NestedInvokeDeadlock error naming the sizing rule.  The same holds when
// the outer call is served by the thread that sent it (a sole caller's
// invoke to an idle machine): that thread then acts as the dispatcher.
#include <gtest/gtest.h>

#include <thread>

#include "rmi/runtime.hpp"

namespace rmiopt::rmi {
namespace {

// The outer call, served either by the calling thread (`claimed`: a sole
// caller's invoke to an idle machine) or by the callee's dispatcher
// (invoke_async(...).get() is never served by its caller).
om::ObjRef call_outer(RmiSystem& sys, bool claimed, RemoteRef ref,
                      std::uint32_t site) {
  while (sys.cluster().machine(ref.machine).blocked_receivers() == 0) {
    std::this_thread::yield();
  }
  return claimed ? sys.invoke(0, ref, site, {})
                 : sys.invoke_async(0, ref, site, {}).get();
}

CompiledCallSite empty_site(std::uint32_t method) {
  CompiledCallSite cs;
  cs.method_id = method;
  cs.plan = std::make_unique<serial::CallSitePlan>();
  cs.plan->name = "nested.site";
  return cs;
}

TEST(NestedDeadlock, SingleWorkerNestedInvokeFailsFastWithTheRule) {
  om::TypeRegistry types;
  net::Cluster cluster(3, types);
  RmiSystem sys(cluster, types, ExecutorConfig{/*dispatch_workers=*/1});

  std::string caught;
  std::thread::id served_on;
  const auto leaf_mid = sys.define_method(
      "leaf", [](CallContext&, auto, auto) {
        return HandlerResult{};
      });
  const auto leaf_site = sys.add_callsite(empty_site(leaf_mid));

  RemoteRef leaf_ref;
  const auto nested_mid = sys.define_method(
      "nested", [&](CallContext&, auto, auto) -> HandlerResult {
        served_on = std::this_thread::get_id();
        // Machine 1's dispatcher performs a synchronous invoke to
        // machine 2 — the re-entrant wait the guard must refuse.
        try {
          (void)sys.invoke(1, leaf_ref, leaf_site, {});
        } catch (const NestedInvokeDeadlock& e) {
          caught = e.what();
          throw;
        }
        return HandlerResult{};
      });
  const auto nested_site = sys.add_callsite(empty_site(nested_mid));

  const om::ClassId svc = types.define_class("Svc", {});
  const RemoteRef nested_ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(svc));
  leaf_ref = sys.export_object(2, cluster.machine(2).heap().alloc(svc));
  sys.start();

  for (const bool claimed : {true, false}) {
    SCOPED_TRACE(claimed ? "claimed by the caller" : "dispatched");
    caught.clear();
    // The outer caller sees the handler's failure as a RemoteException —
    // promptly, not after a retransmit budget or a wall-clock eternity.
    try {
      (void)call_outer(sys, claimed, nested_ref, nested_site);
      FAIL() << "nested invoke did not fail";
    } catch (const RemoteException& e) {
      EXPECT_NE(std::string(e.what()).find("dispatch_workers"),
                std::string::npos);
    }
    EXPECT_EQ(served_on == std::this_thread::get_id(), claimed);

    // The handler-side error is the typed class and names the rule and
    // the escape hatches.
    EXPECT_NE(caught.find("would deadlock"), std::string::npos);
    EXPECT_NE(caught.find("dispatch_workers >= 2"), std::string::npos);
    EXPECT_NE(caught.find("invoke_oneway"), std::string::npos);
  }

  sys.stop();
}

TEST(NestedDeadlock, HandlerCanCatchAndRecover) {
  om::TypeRegistry types;
  net::Cluster cluster(3, types);
  RmiSystem sys(cluster, types, ExecutorConfig{/*dispatch_workers=*/1});

  const auto leaf_mid = sys.define_method(
      "leaf", [](CallContext&, auto, auto) {
        return HandlerResult{};
      });
  const auto leaf_site = sys.add_callsite(empty_site(leaf_mid));

  RemoteRef leaf_ref;
  std::thread::id served_on;
  const auto nested_mid = sys.define_method(
      "nested", [&](CallContext&, auto, auto) {
        served_on = std::this_thread::get_id();
        // Recoverable by contract: the handler catches the typed error,
        // degrades gracefully, and still produces its own reply.
        try {
          (void)sys.invoke(1, leaf_ref, leaf_site, {});
        } catch (const NestedInvokeDeadlock&) {
          // fall through: reply without the nested result
        }
        return HandlerResult{};
      });
  const auto nested_site = sys.add_callsite(empty_site(nested_mid));

  const om::ClassId svc = types.define_class("Svc", {});
  const RemoteRef nested_ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(svc));
  leaf_ref = sys.export_object(2, cluster.machine(2).heap().alloc(svc));
  sys.start();

  for (const bool claimed : {true, false}) {
    SCOPED_TRACE(claimed ? "claimed by the caller" : "dispatched");
    // No throw: the handler recovered and the call completes normally.
    EXPECT_EQ(call_outer(sys, claimed, nested_ref, nested_site), nullptr);
    EXPECT_EQ(served_on == std::this_thread::get_id(), claimed);
  }

  sys.stop();
}

TEST(NestedDeadlock, TwoWorkersAllowNestedInvokes) {
  om::TypeRegistry types;
  net::Cluster cluster(3, types);
  RmiSystem sys(cluster, types, ExecutorConfig{/*dispatch_workers=*/2});

  const auto leaf_mid = sys.define_method(
      "leaf", [](CallContext&, auto, auto) {
        return HandlerResult{};
      });
  const auto leaf_site = sys.add_callsite(empty_site(leaf_mid));

  RemoteRef leaf_ref;
  std::atomic<bool> nested_ok{false};
  const auto nested_mid = sys.define_method(
      "nested", [&](CallContext&, auto, auto) {
        (void)sys.invoke(1, leaf_ref, leaf_site, {});
        nested_ok = true;
        return HandlerResult{};
      });
  const auto nested_site = sys.add_callsite(empty_site(nested_mid));

  const om::ClassId svc = types.define_class("Svc", {});
  const RemoteRef nested_ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(svc));
  leaf_ref = sys.export_object(2, cluster.machine(2).heap().alloc(svc));
  sys.start();

  EXPECT_EQ(sys.invoke(0, nested_ref, nested_site, {}), nullptr);
  EXPECT_TRUE(nested_ok.load());

  sys.stop();
}

}  // namespace
}  // namespace rmiopt::rmi
