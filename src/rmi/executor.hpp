// The dispatch executor: who runs an incoming call's handler.
//
// The paper's runtime (Manta-JavaParty, §5) hardwires "one dispatcher
// thread drains the network and runs the handler inline".  That policy is
// now explicit and configurable: each machine's dispatcher still drains
// its inbox and deserializes arguments (the unmarshaler-lock discipline
// of §4), but *handler execution* goes through a DispatchExecutor.
//
//  * workers == 1 (default): the task runs inline on the dispatcher
//    thread — byte-for-byte the paper's semantics, no pool threads exist.
//  * workers >= 2: tasks queue to a pool and handlers execute
//    concurrently.  Correctness under concurrency rests on the per-call-
//    site reuse-cache locking of §3.3 (ReuseSlot's mutex + the Figure 13
//    null-guard) and on the thread-safe reply path; CPU time still
//    serializes on the machine's single virtual clock, so N workers model
//    latency hiding, not extra CPUs.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rmiopt::rmi {

struct ExecutorConfig {
  // Handler-execution workers per machine.  1 preserves the paper's
  // single-dispatcher semantics (and every benchmark result); N >= 2
  // enables concurrent handler execution.
  std::size_t dispatch_workers = 1;

  // Real-time backstop on a blocked synchronous call, in milliseconds.
  // Any value <= 0 *disables* the backstop: the caller waits forever (the
  // defined semantics — 0 and negative values are equivalent, tested by
  // OverloadTest.NonPositiveCallTimeoutDisablesTheBackstop).  Link
  // failures surface *synchronously* through the virtual-time ARQ (the
  // send itself throws, converted to a typed RmiTimeout), so on the
  // deterministic paths this timer never fires; it only converts a
  // genuinely lost reply — e.g. a callee that crashed after accepting the
  // call — from a hang into an RmiTimeout.  When it fires, the caller
  // also sends a best-effort CancelRequest so the callee can stop
  // computing a reply nobody will read.  It bounds only a call the
  // callee's dispatcher serves: a synchronous call its own thread serves
  // (see the execution model in runtime.hpp) has its reply in hand before
  // the wait starts, and like the dispatcher's inline worker is bounded
  // only by its handler.
  std::int64_t call_timeout_ms = 30'000;

  // ---- deadlines (virtual-time, disabled by default) ----------------------
  // Default per-call budget in virtual nanoseconds: every invoke with no
  // explicit CallOptions budget carries `now + default_deadline_ns` as an
  // absolute deadline in its wire header.  0 (default) = calls carry no
  // deadline and the wire image is unchanged.
  std::int64_t default_deadline_ns = 0;
  // Slack subtracted when a handler's nested invoke inherits its parent
  // call's remaining budget: child deadline = parent deadline - slack, so
  // a deep chain fails fast at the first hop that cannot finish in time.
  std::int64_t deadline_slack_ns = 5'000;

  // ---- admission control (disabled by default) ----------------------------
  // Bound on the modelled per-callee inbox depth, in calls.  0 (default)
  // = unbounded: no admission state is kept and the invoke path is
  // untouched.  When set, each callee machine runs a deterministic
  // virtual-time queue model (see rmi/admission.hpp): calls that would
  // push the backlog past the bound are shed with a typed Overload; calls
  // landing between the high-water mark and the bound are admitted but
  // charge the *sender* a flow-control credit stall in virtual time
  // (backpressure), so a cooperative sender slows to the callee's
  // capacity before anything is shed.
  std::size_t inbox_bound = 0;
  // High-water mark where backpressure starts.  0 = inbox_bound / 2.
  std::size_t inbox_highwater = 0;
  // Virtual nanoseconds of send delay charged per unit of backlog above
  // the high-water mark (the flow-control credit stall).
  std::int64_t credit_stall_ns = 20'000;
  // Modelled virtual service time of one admitted call, used by the
  // admission queue model to drain backlog as virtual time passes.
  // Defaults to roughly one optimized RMI round trip (§3.3: ~40 µs).
  std::int64_t admission_service_ns = 40'000;

  // At-most-once reply-cache entries kept per callee machine.  The FIFO
  // eviction only releases *completed* entries; in-flight calls are
  // pinned (and counted) until they reply, so the cache may transiently
  // exceed this bound by the number of concurrent in-flight calls.
  std::size_t reply_cache_capacity = 4096;
};

class DispatchExecutor {
 public:
  explicit DispatchExecutor(std::size_t workers = 1);
  ~DispatchExecutor();
  DispatchExecutor(const DispatchExecutor&) = delete;
  DispatchExecutor& operator=(const DispatchExecutor&) = delete;

  std::size_t workers() const { return workers_; }

  // Runs `task` inline when single-threaded, else enqueues it to the
  // pool.  Tasks submitted by one thread start in submission order.
  void execute(std::function<void()> task);

  // Waits for every queued and in-flight task, then joins the pool.
  // Idempotent; called by RmiSystem::stop after the dispatchers exit.
  void drain_and_stop();

 private:
  void worker_loop();

  const std::size_t workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // queue non-empty or stopping
  std::condition_variable idle_cv_;  // queue empty and nothing running
  std::deque<std::function<void()>> queue_;
  std::size_t running_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> pool_;
};

}  // namespace rmiopt::rmi
