// The RMI runtime: marshaler/unmarshaler dispatch, call execution,
// argument/return-value reuse caches, and per-machine statistics.
//
// Execution model (mirrors Manta-JavaParty, §5):
//  * every machine runs one dispatcher thread that drains its inbox —
//    "at any time only one thread can drain the network";
//  * a synchronous invoke goes straight to an idle callee while every
//    call this system has issued came from one host thread: when the
//    callee would take the call at once (inbox empty, dispatcher blocked
//    in receive_blocking, one dispatch worker) the calling thread claims
//    it as it is delivered (claim_call, net/machine.hpp) and, once the
//    send returns, serves it itself through dispatch(), the one routine
//    the dispatcher runs for every message, while the callee machine is
//    busy.  Which host thread runs a machine's dispatch is a detail of
//    the simulator: with one calling thread each clock is charged in the
//    same order either way.  Its reply is in hand before the caller
//    starts to wait, so the real-time backstop (ExecutorConfig::
//    call_timeout_ms) does not bound it: like the dispatcher's inline
//    worker, it is bounded only by its handler.  Several calling threads,
//    invoke_async, invoke_oneway, nested invokes and dispatch_workers >= 2
//    keep the dispatcher;
//  * a reply goes straight to the caller waiting for it when its machine
//    would take the reply at once (inbox empty, dispatcher blocked in
//    receive_blocking) and serves no calls besides (net/machine.hpp):
//    the sending thread charges the receive, notes ReplyDeliver and
//    fulfils the caller's promise (claim_reply), as a Manta thread that
//    waits for a reply polls it off the network itself — at the end of
//    the call when that thread is answering one, so the call's last
//    charges (its argument frees) precede the caller's next step.  Any
//    other reply queues and the dispatcher fulfils it, so a reply never
//    overtakes the calls queued ahead of it.  A claimed call's reply
//    comes back this way, so such a call wakes no other thread;
//  * incoming Call messages are deserialized by whoever dispatches them
//    (the paper holds the unmarshaler lock until the user's code starts),
//    then the user handler runs through the machine's DispatchExecutor:
//    inline with the default single worker (the paper's model),
//    concurrently on a pool with ExecutorConfig::dispatch_workers >= 2;
//  * handlers may *defer* their reply (blocking semantics, e.g. a barrier)
//    and reply later via send_reply() from any thread;
//  * a same-machine ("local") RMI does not cross the network: arguments
//    and return value are deep-cloned to preserve RMI's copy semantics
//    (paper §1) and counted as local rpcs.
//
// One call pipeline (docs/CODEMAP.md).  invoke, invoke_async and
// invoke_oneway, remote or local, all run the same ordered stages: gate
// (deadline) → admit (admission, credit stall, re-gate) → marshal → send
// → await → unmarshal.  A call kind only skips stages: a oneway call has
// no pending slot, await or unmarshal, and a same-machine call replaces
// marshal and send with clone + run handler.  On the callee,
// execute_call() is the one place a user handler runs and answer() the
// one reply routine.  Every counted or traced occurrence goes through
// note(), which bumps the counter and records the trace event from one
// table (docs/OBSERVABILITY.md), so the two cannot disagree.
//
// Per optimization level, the driver installs a CompiledCallSite for every
// static call site: the marshal plan (class-mode or call-site-specific),
// the needs-cycle-table flag, and the reuse flags.  The runtime simply
// executes what the compiler produced.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "codegen/opt_level.hpp"
#include "net/cluster.hpp"
#include "rmi/admission.hpp"
#include "rmi/executor.hpp"
#include "rmi/remote_ref.hpp"
#include "rmi/stats.hpp"
#include "serial/class_plans.hpp"
#include "serial/plan.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace rmiopt::rmi {

// A compiled call site: everything the compiler decided about one static
// RMI call site.  The plan carries every wire-protocol decision, down to
// whether its dynamic nodes write class ids or class names.
struct CompiledCallSite {
  std::unique_ptr<serial::CallSitePlan> plan;
  std::uint32_t method_id = 0;
  // The optimization level this site was compiled at (set by
  // driver::to_runtime_site).  Labels reports and picks the per-call stub
  // the cost model charges: call-site-generated marshalers are
  // straight-line code, generic (class and introspect mode) stubs pay
  // per-call boxing/dispatch/skeleton indirections (§1).
  codegen::OptLevel level = codegen::OptLevel::Class;
  // The compile-time call-site tag (RemoteCall instruction), so runtime
  // statistics can be exported back to the driver keyed the way the
  // compiler keys its decisions.  0 when the site was hand-built.
  std::uint32_t tag = 0;
  // Profile-guided promotion: replies from this site are marked
  // coalescible for a *batching* session (§3.1 ACK batching).  Inert
  // under the default non-batching session config.
  bool batch_replies = false;
};

class RmiSystem;

// Thrown at the caller when the remote method raised; carries the remote
// message (Java RMI's RemoteException/cause chain collapsed to a string).
class RemoteException : public Error {
 public:
  explicit RemoteException(const std::string& what) : Error(what) {}
};

// Thrown at the caller when a remote call cannot complete: the link's ARQ
// exhausted its retransmit budget (the callee is crashed or unreachable),
// or the reply never arrived within the real-time backstop.  The call may
// or may not have executed on the callee — at-most-once, not exactly-once
// — so callers that retry must route around the failed machine (see the
// webserver's failover) rather than blindly re-invoke.
class RmiTimeout : public Error {
 public:
  explicit RmiTimeout(const std::string& what) : Error(what) {}
};

// The failure detector confirmed the callee (or the caller's own machine)
// dead, so the call failed in detection time instead of exhausting the
// retransmit budget.  A subclass of RmiTimeout: existing failover code
// that catches the base type keeps working, while callers that care can
// route on the typed form and the machine id.  Same at-most-once caveat
// as the base class — the call may have executed before the death.
class MachineDown : public RmiTimeout {
 public:
  MachineDown(std::uint16_t machine, const std::string& what)
      : RmiTimeout(what), machine_(machine) {}
  std::uint16_t machine() const { return machine_; }

 private:
  std::uint16_t machine_;
};

// The call's virtual-time deadline passed before the callee could start
// (or finish) it: the handler did NOT run at this hop — the callee
// refuses expired work instead of computing replies nobody will read.
// Subclass of RmiTimeout so existing failover code keeps working.
class DeadlineExceeded : public RmiTimeout {
 public:
  explicit DeadlineExceeded(const std::string& what) : RmiTimeout(what) {}
};

// Admission control shed the call: the callee's modelled inbox is at its
// bound.  The handler did not run and nothing was sent, so the caller may
// retry with backoff — ideally after its virtual clock has advanced past
// the backlog (see docs/FAULTS.md, "Overload & deadlines").
class Overload : public Error {
 public:
  explicit Overload(const std::string& what) : Error(what) {}
};

// The call was cancelled — by RmiFuture::cancel() or the caller's
// real-time backstop — and the callee abandoned it before the reply.
// At-most-once still holds: the handler ran zero or one times, never two.
class Cancelled : public Error {
 public:
  explicit Cancelled(const std::string& what) : Error(what) {}
};

// A handler running inline as its machine's only dispatcher
// (ExecutorConfig::dispatch_workers == 1, the paper's model) — on the
// dispatcher thread, or on the calling thread that claimed its call —
// blocked on a nested synchronous remote invoke.  The reply can only be
// dispatched by the very thread that is blocked waiting for it (a busy
// dispatcher is not blocked in receive_blocking, and a machine serving a
// claimed call is busy, so the reply is never claimed for the caller
// either), so without this check the call would hang until the 30 s
// real-time backstop.  Recoverable: the nested call is failed
// *before* the wait, the handler can catch it (or surface it to its own
// caller as a RemoteException), and the system keeps running.  The sizing
// rule: nested synchronous RMI requires dispatch_workers >= 2 on the
// calling machine — or use invoke_oneway / invoke_async with the future
// consumed off the dispatcher thread.
class NestedInvokeDeadlock : public Error {
 public:
  explicit NestedInvokeDeadlock(const std::string& what) : Error(what) {}
};

// Per-invocation options for invoke / invoke_async / invoke_oneway.
struct CallOptions {
  // Explicit virtual-time budget for this call, in nanoseconds; the call
  // carries `caller_now + budget_ns` as an absolute deadline in its wire
  // header.  0 = fall back to ExecutorConfig::default_deadline_ns (and to
  // the ambient parent deadline when invoked from inside a handler —
  // nested calls always inherit `parent_deadline - deadline_slack_ns`,
  // whichever bound is tighter).
  std::int64_t budget_ns = 0;
};

// Cooperative cancellation flag for one in-flight call.  The dispatcher
// sets it when a CancelRequest arrives; executor workers poll it at the
// reuse-slot boundaries (before the handler starts, and again before the
// reply is sent) and abandon the call with a typed Cancelled reject.
class CancelToken {
 public:
  void request() { cancelled_.store(true, std::memory_order_relaxed); }
  bool requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

struct AsyncCallState;

// A handle to one in-flight invocation started by RmiSystem::invoke_async.
// Move-only.  get() blocks for the reply, deserializes it on the caller's
// clock and returns the value (or throws the call's typed failure);
// cancel() sends a best-effort CancelRequest — the callee abandons the
// call at its next poll boundary and the reply comes back as Cancelled,
// unless a real reply already won the race.  Dropping an un-consumed
// future abandons the call: a late reply is counted as a stray, never an
// error.  The future must not outlive its RmiSystem.
class RmiFuture {
 public:
  RmiFuture() noexcept;
  ~RmiFuture();
  RmiFuture(RmiFuture&&) noexcept;
  RmiFuture& operator=(RmiFuture&&) noexcept;
  RmiFuture(const RmiFuture&) = delete;
  RmiFuture& operator=(const RmiFuture&) = delete;

  bool valid() const;
  // Blocks until the reply arrives, then deserializes and returns it.
  // Consumes the future.  Throws the typed failure: RemoteException,
  // RmiTimeout / MachineDown / DeadlineExceeded, Overload, Cancelled.
  om::ObjRef get();
  // True once the reply is ready (get() will not block).  Real-time wait;
  // purely observational — no virtual time is charged.
  bool wait_for(std::int64_t real_ms);
  // Best-effort cancellation: sends one CancelRequest to the callee.
  // Idempotent; never blocks; get() remains callable and reports how the
  // race resolved (Cancelled, or the real reply).
  void cancel();

 private:
  friend class RmiSystem;
  explicit RmiFuture(std::shared_ptr<AsyncCallState> state) noexcept;

  std::shared_ptr<AsyncCallState> state_;
};

struct HandlerResult {
  om::ObjRef value = nullptr;
  // Callee frees the value graph after the reply is serialized (for return
  // values allocated per call; leave false for values owned by app state).
  bool give_ownership = false;
  // Handler took ownership of the argument graphs (they escaped, e.g. into
  // a queue); the runtime must not free them.
  bool args_consumed = false;
  // Reply will be produced later via RmiSystem::send_reply(token, ...).
  bool deferred = false;
  // Remote exception: `error` is marshaled back and invoke() throws a
  // RemoteException at the caller.  Handlers may also simply throw
  // rmiopt::Error — the dispatcher converts it to this form.
  bool is_exception = false;
  std::string error;

  static HandlerResult exception(std::string message) {
    HandlerResult r;
    r.is_exception = true;
    r.error = std::move(message);
    return r;
  }
};

class CallContext {
 public:
  CallContext(RmiSystem& sys, net::Machine& machine, om::ObjRef self,
              ReplyToken token, std::int64_t deadline_ns = 0,
              const CancelToken* cancel = nullptr)
      : sys_(sys),
        machine_(machine),
        self_(self),
        token_(token),
        deadline_ns_(deadline_ns),
        cancel_(cancel) {}

  RmiSystem& system() { return sys_; }
  net::Machine& machine() { return machine_; }
  om::Heap& heap() { return machine_.heap(); }
  om::ObjRef self() const { return self_; }
  ReplyToken reply_token() const { return token_; }
  // The absolute virtual-time deadline this call carries (0 = none) and
  // its cancellation flag, so long-running handlers can bail out
  // cooperatively instead of computing replies nobody will read.
  std::int64_t deadline_ns() const { return deadline_ns_; }
  bool cancelled() const { return cancel_ != nullptr && cancel_->requested(); }

 private:
  RmiSystem& sys_;
  net::Machine& machine_;
  om::ObjRef self_;
  ReplyToken token_;
  std::int64_t deadline_ns_ = 0;
  const CancelToken* cancel_ = nullptr;
};

// A remote method implementation.  `scalars` carries primitive parameters
// (they need no marshal plan); `args` carries the object parameters.
using Handler = std::function<HandlerResult(
    CallContext&, std::span<const std::int64_t> scalars,
    std::span<const om::ObjRef> args)>;

class RmiSystem {
 public:
  RmiSystem(net::Cluster& cluster, const om::TypeRegistry& types,
            const ExecutorConfig& executor = {});
  ~RmiSystem();
  RmiSystem(const RmiSystem&) = delete;
  RmiSystem& operator=(const RmiSystem&) = delete;

  // ---- setup (before start) ----------------------------------------------
  std::uint32_t define_method(std::string name, Handler handler);
  std::uint32_t add_callsite(CompiledCallSite site);
  RemoteRef export_object(std::uint16_t machine, om::ObjRef obj);

  // Spawns one dispatcher thread per machine and installs each machine's
  // claim hook (calls and replies).
  void start();
  // Removes the claim hooks, then drains and joins the dispatchers.
  void stop();

  // ---- invocation ----------------------------------------------------------
  // Synchronous RMI from `caller` to `target` — the stages of
  // invoke_async(...).get(), so there is exactly one code path; only the
  // thread that serves the call may differ (the execution model above).
  // Returns
  // the deserialized return value: caller-owned, EXCEPT at reuse_ret call
  // sites where the runtime retains ownership, recycles the graph on the
  // next call through the site and frees it in ~RmiSystem (not in stop(),
  // so a value the caller still holds stays valid until destruction).
  om::ObjRef invoke(std::uint16_t caller, RemoteRef target,
                    std::uint32_t callsite_id,
                    std::span<const om::ObjRef> args,
                    std::span<const std::int64_t> scalars = {},
                    const CallOptions& opts = {});

  // Asynchronous RMI: serializes, charges and sends on the caller's clock
  // *now*, returns a future for the reply — so one app thread can
  // pipeline many calls.  Pre-send failures (expired deadline, admission
  // shed, unreachable callee) throw eagerly from this call; in-flight
  // failures surface from RmiFuture::get().  A same-machine target runs
  // the handler inline (the local path is synchronous by construction)
  // and the returned future is already ready.
  RmiFuture invoke_async(std::uint16_t caller, RemoteRef target,
                         std::uint32_t callsite_id,
                         std::span<const om::ObjRef> args,
                         std::span<const std::int64_t> scalars = {},
                         const CallOptions& opts = {});

  // Fire-and-forget RMI for ACK-elided sites: the callee runs the handler
  // but sends no reply of any kind (not even an Ack), and the caller
  // keeps no pending state.  Return values and handler exceptions are
  // discarded; at-most-once duplicate suppression still applies.  Send
  // failures (dead callee, expired deadline, shed) still throw eagerly —
  // they are synchronous, deterministic verdicts, not reply timeouts.
  void invoke_oneway(std::uint16_t caller, RemoteRef target,
                     std::uint32_t callsite_id,
                     std::span<const om::ObjRef> args,
                     std::span<const std::int64_t> scalars = {},
                     const CallOptions& opts = {});

  // Completes a deferred call.  Thread-safe; callable from any thread.
  void send_reply(const ReplyToken& token, om::ObjRef value,
                  bool give_ownership = false);
  // Completes a deferred call exceptionally.
  void send_exception(const ReplyToken& token, std::string message);

  // ---- introspection ---------------------------------------------------------
  RmiStatsSnapshot stats(std::uint16_t machine) const;
  RmiStatsSnapshot total_stats() const;
  // Per-call-site counters (the paper gathered its Tables 4/6/8 "on a
  // separate run of the program with an instrumented runtime system").
  RmiStatsSnapshot callsite_stats(std::uint32_t callsite_id) const;
  // Number of registered call sites (ids are 0..count-1).
  std::size_t callsite_count() const { return callsites_.size(); }
  // A formatted per-call-site report: one row per site with rpc counts,
  // reuse, allocation volume and cycle lookups.
  std::string report() const;
  // The per-call-site profile keyed by compile-time tag — the feedback
  // input of driver::respecialize.  Runtime sites sharing one tag (rare)
  // are summed; hand-built sites with tag 0 are skipped.
  CallSiteProfile export_profile() const;
  net::Cluster& cluster() { return cluster_; }
  const serial::ClassPlanRegistry& class_plans() const { return class_plans_; }
  const CompiledCallSite& callsite(std::uint32_t id) const;

 private:
  friend class RmiFuture;
  friend struct AsyncCallState;

  struct PendingReply {
    bool is_local = false;
    om::ObjRef local_value = nullptr;
    bool is_exception = false;
    std::string error;
    // The callee was declared dead while the call was in flight
    // (fail_pending_to): await_pending converts this to MachineDown.
    bool machine_down = false;
    wire::Message msg;
  };

  // One in-flight synchronous call, keyed by seq in MachineContext::
  // pending.  `dest` lets fail_pending_to find every call addressed to a
  // machine the detector just declared dead.
  struct PendingSlot {
    std::promise<PendingReply> promise;
    std::uint16_t dest = 0;
  };

  struct ReuseSlot {
    std::mutex mu;
    // One cached graph per object argument (or one entry for the return
    // value).  nullptr while in use by another thread — the Figure 13
    // "temp_arr = null" guard.  Under concurrent executions of the same
    // call site the late finisher's graph wins the slot, like the paper's
    // per-site static under its unmarshaler lock.  On the callee nothing
    // holds the graph it displaces any more, so it is freed at once.  A
    // caller may still hold a displaced return value, so it is kept in
    // `displaced` and recycled, like the slot's graph, by the next caller
    // that finds the slot taken: a site never has more return graphs
    // than concurrent callers.  ~RmiSystem frees what is left.
    std::vector<om::ObjRef> cached;
    std::vector<om::ObjRef> displaced;
  };

  // Callee-side at-most-once record of one remote call: in progress until
  // the reply is cached, then replayable verbatim for late duplicates.
  // A cancelled or rejected call caches its Reject message here — the
  // tombstone: a duplicate replays the typed refusal, never re-executes.
  // The entry shares the reply's frozen payload image with the frame on
  // the wire; it holds no copy of its own.
  struct ReplyCacheEntry {
    bool replied = false;
    wire::Message reply;
  };

  // Completed reply-cache entries are released, oldest first, once the
  // payload bytes they hold pass this bound on one callee — beside the
  // entry-count FIFO (ExecutorConfig::reply_cache_capacity).  4 MiB keeps
  // 64 of the webserver's 64 KiB pages replayable.
  static constexpr std::size_t kReplyCacheBytes = std::size_t{4} << 20;

  struct MachineContext {
    RmiStats stats;
    std::vector<om::ObjRef> exports;
    std::mutex exports_mu;
    std::mutex pending_mu;
    std::unordered_map<std::uint32_t, PendingSlot> pending;
    // At-most-once state, keyed on call_key(caller, seq): every remote
    // call this machine has accepted.  Bounded FIFO eviction — the window
    // must outlive any plausible duplicate, not the whole run.
    std::mutex amo_mu;
    std::unordered_map<std::uint64_t, ReplyCacheEntry> reply_cache;
    std::deque<std::uint64_t> reply_cache_order;
    std::size_t reply_cache_bytes = 0;  // payload bytes of cached replies
    // callsite id -> reuse state (callee side for args, caller side for ret)
    std::unordered_map<std::uint32_t, std::unique_ptr<ReuseSlot>> arg_cache;
    std::unordered_map<std::uint32_t, std::unique_ptr<ReuseSlot>> ret_cache;
    std::mutex cache_mu;
    // Deterministic virtual-time admission model for calls *into* this
    // machine, evaluated on the sender's thread (rmi/admission.hpp).
    // Inert (enabled() == false) under the default unbounded config.
    std::unique_ptr<AdmissionController> admission;
    // Cancellation flags for calls currently decoding/executing here,
    // keyed on call_key(caller, seq).  Registered by the dispatcher on
    // Fresh admission, erased when execute_call finishes; the per-link
    // FIFO guarantees a CancelRequest is processed after its Call.
    std::mutex cancel_mu;
    std::unordered_map<std::uint64_t, std::shared_ptr<CancelToken>>
        cancel_tokens;
    std::thread dispatcher;
    std::unique_ptr<DispatchExecutor> executor;
  };

  // A call ready to run — decoded by the dispatcher (remote) or cloned by
  // the caller (local): everything execute_call needs on any thread.
  struct DecodedCall {
    std::uint32_t callsite_id = 0;
    std::uint32_t seq = 0;
    std::uint16_t source = 0;
    std::uint32_t target_export = 0;
    std::vector<std::int64_t> scalars;
    std::vector<om::ObjRef> args;
    ReuseSlot* slot = nullptr;  // set: reinsert args into it after
    std::int64_t deadline_ns = 0;  // absolute deadline from the header
    bool oneway = false;           // fire-and-forget: never reply
    std::shared_ptr<CancelToken> cancel;  // polled at reuse-slot boundaries
  };

  // ---- the caller-side pipeline -------------------------------------------
  // A synchronous call may be served by its own sending thread (send_call);
  // an async or oneway call is always left to the callee's dispatcher.
  enum class CallKind : std::uint8_t { Sync, Async, Oneway };
  // Runs every stage a call kind does not skip, in order; `st` carries the
  // call from the first stage to its result.  A same-machine call runs
  // inline and leaves its outcome in `st` (the returned future is ready).
  void issue(AsyncCallState& st, CallKind kind, std::uint16_t caller,
             RemoteRef target, std::uint32_t callsite_id,
             std::span<const om::ObjRef> args,
             std::span<const std::int64_t> scalars, const CallOptions& opts);
  // Gate: a call whose deadline has already passed fails fast, typed,
  // before anything is serialized or sent.
  void gate(const AsyncCallState& st, std::int64_t deadline, const char* why);
  // Admit: admission control against the callee's inbox model — credit
  // stall, shed, then the gate again (the stall consumed budget).
  void admit(const AsyncCallState& st, std::int64_t deadline);
  // Marshal: header, scalar prologue, writer, seal and accounting.
  wire::Message marshal(AsyncCallState& st, const CompiledCallSite& site,
                        std::span<const om::ObjRef> args,
                        std::span<const std::int64_t> scalars,
                        std::int64_t deadline);
  // Send: hands the Call to the cluster, mapping MachineDeadError and
  // ProtocolError to the typed MachineDown / RmiTimeout.  A synchronous
  // call from the sole calling thread may be claimed as it is delivered;
  // it is then served here, after the send returns (or throws), and the
  // callee machine released.
  void send_call(AsyncCallState& st, bool may_serve, wire::Message msg);
  // Await + unmarshal (RmiFuture::get, or inline for a local call).
  om::ObjRef finish_call(AsyncCallState& st);
  // Blocks until the reply arrives.  With a failure detector attached the
  // real-time wait is sliced so a blocked caller periodically polls the
  // detector at the cluster makespan and fails over with MachineDown as
  // soon as the callee is confirmed dead (its burning ARQ advances virtual
  // time even when the caller's own thread is parked).  A Reject reply is
  // mapped here to its typed exception (DeadlineExceeded / Overload /
  // Cancelled); a real-time backstop expiry sends a best-effort cancel
  // before throwing so the callee can stop computing an unread reply.
  PendingReply await_pending(AsyncCallState& st);
  // "call seq S via site N (...) to machine M" ("oneway call ..." too).
  std::string call_desc(const AsyncCallState& st) const;

  // ---- the callee side ---------------------------------------------------
  void dispatch_loop(std::uint16_t machine_id);
  // One received message, on the dispatcher or on the thread that claimed
  // the call: at-most-once admission, the deadline gate, decode and the
  // handler for a Call; the cancel flag for a Cancel; the caller's promise
  // for a reply.  The thread acts as the machine's dispatcher meanwhile
  // (the NestedInvokeDeadlock guard).
  void dispatch(std::uint16_t machine_id, net::Envelope env);
  // Deserialize the call while "holding the network" (the unmarshaler-
  // lock discipline of §4).
  DecodedCall decode_call(std::uint16_t machine_id, net::Envelope env);
  // The one place a user handler runs — on the executor for a remote call,
  // inline for a local one: cancel/deadline polls (remote only), export
  // lookup, the ambient deadline, Error → exception mapping, then reply
  // first and release or retain the arguments after.
  void execute_call(std::uint16_t machine_id, DecodedCall& call,
                    std::span<const std::int64_t> scalars);
  // The one reply routine: `kind` is Return (a value, or an Ack when the
  // site returns nothing), Exception (`text`) or Reject (`code`, `text`).
  // A local reply fulfills the pending slot; a remote one is cached as the
  // at-most-once record and sent.  A oneway call only records its
  // tombstone (a bare Ack, or the Reject): nobody is waiting.
  void answer(const ReplyToken& token, wire::MsgKind kind, om::ObjRef value,
              bool give_ownership, const std::string& text = {},
              wire::RejectCode code = wire::RejectCode::Cancelled);
  // Best-effort CancelRequest for an in-flight remote call.  Never
  // throws: an undeliverable cancel just means the callee computes a
  // reply the caller will drop as a stray.
  void send_cancel_raw(std::uint16_t caller, std::uint16_t dest,
                       std::uint32_t callsite_id, std::uint32_t seq);
  // The absolute deadline a call starting at `now_ns` carries: explicit
  // budget or configured default, tightened by the ambient parent
  // deadline minus slack when invoked from inside a handler.  0 = none.
  std::int64_t compute_deadline(std::int64_t now_ns,
                                const CallOptions& opts) const;
  // "site N (name, level)" — failure messages carry the call-site id and
  // opt level so chaos failures are attributable without a trace.
  std::string site_desc(std::uint32_t callsite_id) const;
  ReuseSlot& reuse_slot(MachineContext& ctx, bool ret_side,
                        std::uint32_t callsite_id, std::size_t arity);
  // Frees every graph cached in the argument (or return-value) reuse
  // slots, the union per machine exactly once.
  void free_reuse_caches(bool ret_side);
  // Charges `pass` to the machine's clock and adds it (plus rpc counts) to
  // the machine's and the call site's statistics.
  void account(std::uint16_t machine_id, std::uint32_t callsite_id,
               const serial::SerialStats& pass, int local_rpcs = 0,
               int remote_rpcs = 0);
  // Per-call marshaler/skeleton machinery: generic stubs additionally box
  // every argument/scalar/return value (§1's "method table lookups and
  // skeleton indirections").
  void charge_stub(std::uint16_t machine_id, const CompiledCallSite& site,
                   std::size_t nargs, std::size_t nscalars);
  // Frees the union of the graphs under `roots` (call arguments, or a
  // give_ownership return value), counting the frees into `pass`.
  void free_graphs(om::Heap& heap, std::span<const om::ObjRef> roots,
                   serial::SerialStats& pass);
  void erase_pending(MachineContext& ctx, std::uint32_t seq);
  // Dispatcher-facing: a reply whose call is not pending (a stray from
  // the network) is reported as false, never fatal.  Fulfillment erases
  // the entry, so a second reply for the same seq — e.g. a late real
  // reply after fail_pending_to already failed the call — is a counted
  // stray, never a write to a consumed promise.
  bool try_fulfill_pending(MachineContext& ctx, std::uint32_t seq,
                           PendingReply reply);
  // Machine `machine_id`'s claim hook (net::Machine::Claim) for a reply,
  // run on the reply's sending thread under the inbox lock.  Under
  // pending_mu it declines a reply with no live slot (the dispatcher then
  // counts the stray), or charges the receive, notes ReplyDeliver, takes
  // the slot and fulfils the caller's promise — or, while the sending
  // thread is finishing a call, holds it (held_replies_).
  bool claim_reply(std::uint16_t machine_id, wire::Message& msg,
                   const std::function<void()>& charge);
  // The same hook for a call: takes it, charged, only when it is the
  // synchronous call this thread is sending and may serve (send_call).
  // It runs under the session and inbox locks, so it only takes.
  bool claim_call(std::uint16_t machine_id, net::Envelope& env,
                  const std::function<void()>& charge);
  // Notes that the current thread issues a call.  False once calls have
  // come from more than one host thread: from then on no call is claimed,
  // since with several calling threads the order in which they charge the
  // shared clocks is the host's, and a claim would move it.
  bool sole_caller();
  // A reply claimed while its sending thread finishes the call it answers
  // (execute_call, from the reply on): the call's own reply, and any
  // queued replies a batching session flushes with it.  The callers are
  // released when that call ends, once its remaining charges (the
  // argument frees) are on the callee's clock: a caller woken during them
  // could act on that machine (a local call, or another of its threads)
  // before they land, and the makespan would depend on which thread ran
  // first.
  struct HeldReply {
    std::promise<PendingReply> promise;
    PendingReply reply;
  };
  // Where this thread holds such replies; null outside that window.
  static thread_local std::vector<HeldReply>* held_replies_;
  // Fails every pending call addressed to `machine` with machine_down —
  // the failure detector's death callback, releasing callers already
  // blocked before the death was confirmed.
  void fail_pending_to(std::uint16_t machine);

  // ---- at-most-once ---------------------------------------------------------
  static constexpr std::uint64_t call_key(std::uint16_t caller,
                                          std::uint32_t seq) {
    return (static_cast<std::uint64_t>(caller) << 32) | seq;
  }
  enum class CallAdmission { Fresh, InProgress, Replied };
  // Classifies an incoming Call against the reply cache; Fresh admits it
  // (and records it in progress), Replied fills `*replay` with the cached
  // reply message.  `machine_id` is the callee (for stats/trace of forced
  // pins).  Eviction only releases completed entries — an in-flight
  // call's entry is pinned until its reply is cached, so a delayed
  // duplicate can never be re-admitted as Fresh while the handler runs.
  CallAdmission admit_call(std::uint16_t machine_id, MachineContext& ctx,
                           std::uint64_t key, wire::Message* replay);
  // Records the outgoing reply so a duplicate of its call can be answered
  // by replay instead of re-execution.
  void cache_reply(std::uint16_t machine_id, MachineContext& ctx,
                   std::uint64_t key, const wire::Message& reply);
  // Under amo_mu: releases completed entries, oldest first, while the
  // cache is past reply_cache_capacity entries or kReplyCacheBytes of
  // payload.  In-flight entries are pinned (moved to the back, counted);
  // `keep`, the entry just recorded, is never released.
  void evict_replies(std::uint16_t machine_id, MachineContext& ctx,
                     std::uint64_t keep);

  // ---- occurrences: counters and trace events ----------------------------
  // Everything the runtime counts or traces.  note() looks each one up in
  // one table that names its RmiStats counter(s) and its trace event.
  enum class Occurrence : std::uint8_t {
    LocalRpc, RemoteRpc, OnewaySend, CallDone, LocalCallDone, HandlerRun,
    ReplyDeliver, StrayReply, UndeliverableReply, CallTimeout, MachineDown,
    DeadlineReject, Shed, CreditStall, CancelSent, CancelHonored,
    DuplicateDropped, ReplyReplayed, ReplyCachePinned,
  };
  // Bumps the occurrence's always-on counter(s) and, with a recorder
  // attached, records its event on `machine_id`'s track: an instant at the
  // current clock, or a span from `start_ns` (taken with span_start).
  void note(Occurrence what, std::uint16_t machine_id,
            std::uint32_t callsite_id, std::uint32_t seq,
            std::int64_t start_ns = 0, std::uint64_t bytes = 0);
  // The start of a span note()d later: the machine's clock with a
  // recorder attached, else 0 — the null-recorder path reads no clock.
  std::int64_t span_start(std::uint16_t machine_id) const;
  // The recorder attached to the cluster (nullptr when tracing is off —
  // the default).
  trace::Recorder* recorder() const { return cluster_.recorder(); }
  // Builds the pass-trace context for a SerialWriter/SerialReader: null
  // recorder yields an inert context (no clock read, nothing recorded).
  trace::PassTrace pass_trace(trace::EventKind kind, std::uint16_t machine_id,
                              std::uint32_t callsite_id,
                              std::uint32_t seq) const;

  net::Cluster& cluster_;
  const ExecutorConfig exec_cfg_;
  serial::ClassPlanRegistry class_plans_;
  mutable std::mutex site_stats_mu_;
  std::unordered_map<std::uint32_t, RmiStatsSnapshot> site_stats_;
  std::vector<std::unique_ptr<MachineContext>> contexts_;
  std::vector<std::pair<std::string, Handler>> methods_;
  std::vector<CompiledCallSite> callsites_;
  std::atomic<std::uint32_t> next_seq_{1};
  // The host thread that issued the first call, and whether another has
  // called since (sole_caller).
  std::atomic<std::thread::id> first_caller_{};
  std::atomic<bool> many_callers_{false};
  bool started_ = false;
};

}  // namespace rmiopt::rmi
