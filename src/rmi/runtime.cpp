#include "rmi/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <optional>
#include <unordered_set>
#include <utility>

namespace rmiopt::rmi {

namespace {

// Sets a thread-local for the scope and restores its old value after.
template <class T>
class ThreadLocalScope {
 public:
  ThreadLocalScope(T& var, T value)
      : var_(var), saved_(std::exchange(var, value)) {}
  ~ThreadLocalScope() { var_ = saved_; }
  ThreadLocalScope(const ThreadLocalScope&) = delete;
  ThreadLocalScope& operator=(const ThreadLocalScope&) = delete;

 private:
  T& var_;
  T saved_;
};

// The deadline of the call whose handler this thread is currently
// running (0 = none).  Nested invokes issued from inside a handler read
// it to inherit the remaining budget; it is set strictly around handler
// execution, so app threads and idle workers always see 0.
thread_local std::int64_t t_ambient_deadline_ns = 0;

// The machine whose messages this thread is dispatching (RmiSystem::
// dispatch): set on a dispatcher thread, and on a calling thread while it
// serves the call it claimed.  `sys` is null outside dispatch().
struct Dispatching {
  const RmiSystem* sys = nullptr;
  std::uint16_t machine = 0;
};
thread_local Dispatching t_dispatching;

// The synchronous call this thread is sending and may serve itself.  Set
// only around that call's send; the claim hook moves the call, charged,
// into `taken` when the callee would take it at once.
struct CallClaim {
  const RmiSystem* sys = nullptr;
  std::uint16_t callee = 0;
  std::uint32_t seq = 0;
  std::optional<net::Envelope> taken;
};
thread_local CallClaim* t_call_claim = nullptr;

// Scatter-gather send (CostModel::zero_copy_send): serialize into a
// gather list so inline primitive-array rows ride as borrowed segments.
void maybe_gather(wire::Message& msg, const serial::CostModel& cmodel) {
  if (cmodel.zero_copy_send) {
    msg.gathered = std::make_shared<support::GatherBuffer>(
        cmodel.gather_min_borrow_bytes, cmodel.gather_pin_copy_threshold);
  }
}

// Deep-clones `obj` for a same-machine call (RMI copy semantics, §1),
// counting the copy into `pass`.
om::ObjRef clone_counted(om::Heap& heap, om::ObjRef obj,
                         serial::SerialStats& pass) {
  om::ObjRef c = obj ? om::deep_clone(heap, obj) : nullptr;
  const om::GraphExtent ext = om::graph_extent(c);
  pass.objects_allocated += ext.objects;
  pass.bytes_allocated += ext.bytes;
  pass.bytes_copied += ext.bytes;
  return c;
}

// One value through the writer into whichever body `msg` carries.
void write_value(serial::SerialWriter& w, wire::Message& msg,
                 const serial::NodePlan& plan, om::ObjRef value) {
  if (msg.gathered) {
    w.write(*msg.gathered, plan, value);
  } else {
    w.write(msg.payload, plan, value);
  }
}

}  // namespace

// Shared state of one call, from the gate to its result: invoke_async
// allocates it for the RmiFuture, invoke_oneway keeps it on the stack
// (nothing comes back).  A local call already ran inline and its outcome
// is stored directly.
struct AsyncCallState {
  RmiSystem* sys = nullptr;
  std::uint16_t caller = 0;
  RemoteRef target;
  std::uint32_t callsite_id = 0;
  std::uint32_t seq = 0;
  bool oneway = false;
  bool is_local = false;
  om::ObjRef local_value = nullptr;
  std::exception_ptr local_error;
  std::future<RmiSystem::PendingReply> fut;
  std::int64_t call_start_ns = 0;  // caller-perceived Call span (tracing)
  std::uint64_t request_bytes = 0;
  std::atomic<bool> cancel_sent{false};
};

// ---- RmiFuture --------------------------------------------------------------

RmiFuture::RmiFuture() noexcept = default;
RmiFuture::~RmiFuture() = default;
RmiFuture::RmiFuture(RmiFuture&&) noexcept = default;
RmiFuture& RmiFuture::operator=(RmiFuture&&) noexcept = default;
RmiFuture::RmiFuture(std::shared_ptr<AsyncCallState> state) noexcept
    : state_(std::move(state)) {}

bool RmiFuture::valid() const { return state_ != nullptr; }

om::ObjRef RmiFuture::get() {
  RMIOPT_CHECK(state_ != nullptr, "get() on an invalid RmiFuture");
  const std::shared_ptr<AsyncCallState> st = std::move(state_);
  if (st->is_local) {
    if (st->local_error) std::rethrow_exception(st->local_error);
    return st->local_value;
  }
  return st->sys->finish_call(*st);
}

bool RmiFuture::wait_for(std::int64_t real_ms) {
  RMIOPT_CHECK(state_ != nullptr, "wait_for() on an invalid RmiFuture");
  if (state_->is_local) return true;
  return state_->fut.wait_for(std::chrono::milliseconds(
             real_ms > 0 ? real_ms : 0)) == std::future_status::ready;
}

void RmiFuture::cancel() {
  if (state_ == nullptr || state_->is_local) return;
  if (state_->cancel_sent.exchange(true)) return;  // idempotent
  state_->sys->send_cancel_raw(state_->caller, state_->target.machine,
                               state_->callsite_id, state_->seq);
}

RmiSystem::RmiSystem(net::Cluster& cluster, const om::TypeRegistry& types,
                     const ExecutorConfig& executor)
    : cluster_(cluster), exec_cfg_(executor), class_plans_(types) {
  contexts_.reserve(cluster.size());
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    contexts_.push_back(std::make_unique<MachineContext>());
    contexts_.back()->executor =
        std::make_unique<DispatchExecutor>(executor.dispatch_workers);
    contexts_.back()->admission = std::make_unique<AdmissionController>(
        executor.inbox_bound, executor.inbox_highwater,
        executor.credit_stall_ns, executor.admission_service_ns);
  }
}

RmiSystem::~RmiSystem() {
  stop();
  // Return-value caches go last: their top graph is the value the caller
  // last received at a reuse_ret site, valid until the system is gone.
  free_reuse_caches(/*ret_side=*/true);
}

std::uint32_t RmiSystem::define_method(std::string name, Handler handler) {
  RMIOPT_CHECK(!started_, "define_method after start");
  methods_.emplace_back(std::move(name), std::move(handler));
  return static_cast<std::uint32_t>(methods_.size() - 1);
}

std::uint32_t RmiSystem::add_callsite(CompiledCallSite site) {
  RMIOPT_CHECK(site.plan != nullptr, "call site needs a plan");
  RMIOPT_CHECK(site.method_id < methods_.size(),
               "call site references unknown method");
  const auto id = static_cast<std::uint32_t>(callsites_.size());
  site.plan->id = id;
  callsites_.push_back(std::move(site));
  return id;
}

const CompiledCallSite& RmiSystem::callsite(std::uint32_t id) const {
  RMIOPT_CHECK(id < callsites_.size(), "unknown call site");
  return callsites_[id];
}

RemoteRef RmiSystem::export_object(std::uint16_t machine, om::ObjRef obj) {
  MachineContext& ctx = *contexts_.at(machine);
  std::scoped_lock lock(ctx.exports_mu);
  ctx.exports.push_back(obj);
  return RemoteRef{machine,
                   static_cast<std::uint32_t>(ctx.exports.size() - 1)};
}

void RmiSystem::start() {
  RMIOPT_CHECK(!started_, "already started");
  started_ = true;
  if (net::FailureDetector* fd = cluster_.detector()) {
    // Fast-fail propagation: a confirmed death immediately releases every
    // caller blocked on that machine.  The callback outlives traffic, not
    // this object — the cluster (and its detector) must outlive the
    // RmiSystem, which the construction order of every app guarantees;
    // after stop() nothing polls, so the callback can no longer fire.
    fd->on_death([this](std::uint16_t machine, SimTime) {
      fail_pending_to(machine);
    });
  }
  for (std::size_t i = 0; i < contexts_.size(); ++i) {
    const auto id = static_cast<std::uint16_t>(i);
    cluster_.machine(id).set_claim(
        [this, id](net::Envelope& env, const std::function<void()>& charge) {
          return env.msg.header.kind == wire::MsgKind::Call
                     ? claim_call(id, env, charge)
                     : claim_reply(id, env.msg, charge);
        });
    contexts_[i]->dispatcher = std::thread([this, id] { dispatch_loop(id); });
  }
}

void RmiSystem::stop() {
  if (!started_) return;
  // From here every message queues for the dispatchers, and no machine
  // can call into this object after it is gone.
  for (std::size_t i = 0; i < contexts_.size(); ++i) {
    cluster_.machine(i).set_claim({});
  }
  cluster_.shutdown();
  for (auto& ctx : contexts_) {
    if (ctx->dispatcher.joinable()) ctx->dispatcher.join();
  }
  // Dispatchers are gone; let the pools finish whatever they queued.
  for (auto& ctx : contexts_) ctx->executor->drain_and_stop();
  // Handlers that finished during the executor drain may have posted
  // replies/ACKs *after* the shutdown flush above; under a batching
  // session config those sit coalesced in a session queue and would be
  // silently dropped.  Drain every session again now that no handler can
  // produce more traffic.
  cluster_.flush();
  // Callee-side reuse caches are runtime-owned (§3.3): release them now
  // that nothing can dispatch into them.  Return-value caches wait for
  // the destructor — their top graph is the value the caller last
  // received and may still hold.
  free_reuse_caches(/*ret_side=*/false);
  started_ = false;
}

void RmiSystem::free_reuse_caches(bool ret_side) {
  // Slots may share substructure across arguments, so free the union per
  // machine exactly once.
  for (std::size_t id = 0; id < contexts_.size(); ++id) {
    MachineContext& ctx = *contexts_[id];
    std::unordered_set<om::Object*> graphs;
    {
      std::scoped_lock lock(ctx.cache_mu);
      for (auto& [site, slot] : ret_side ? ctx.ret_cache : ctx.arg_cache) {
        std::scoped_lock slot_lock(slot->mu);
        for (om::ObjRef o : slot->cached) om::collect_graph(o, graphs);
        for (om::ObjRef o : slot->displaced) om::collect_graph(o, graphs);
        slot->cached.clear();
        slot->displaced.clear();
      }
    }
    om::Heap& heap = cluster_.machine(static_cast<std::uint16_t>(id)).heap();
    for (om::Object* o : graphs) heap.free(o);
  }
}

void RmiSystem::account(std::uint16_t machine_id, std::uint32_t callsite_id,
                        const serial::SerialStats& pass, int local_rpcs,
                        int remote_rpcs) {
  cluster_.machine(machine_id).clock().advance(
      pass.cpu_cost(cluster_.cost()));
  contexts_.at(machine_id)->stats.add_pass(pass);
  if (callsite_id >= callsites_.size()) return;  // an id off the wire
  std::scoped_lock lock(site_stats_mu_);
  RmiStatsSnapshot& s = site_stats_[callsite_id];
  s.serial += pass;
  s.local_rpcs += static_cast<std::uint64_t>(local_rpcs);
  s.remote_rpcs += static_cast<std::uint64_t>(remote_rpcs);
}

// ---- occurrences: counters and trace events ---------------------------------

void RmiSystem::note(Occurrence what, std::uint16_t machine_id,
                     std::uint32_t callsite_id, std::uint32_t seq,
                     std::int64_t start_ns, std::uint64_t bytes) {
  using S = RmiStatsSnapshot;
  using E = trace::EventKind;
  enum Mark : std::uint8_t { kUntraced, kInstant, kSpan };
  struct Row {
    RmiStats::Counter counter;  // nullptr: trace only
    RmiStats::Counter also;     // a second counter the occurrence implies
    Mark mark;
    E event;
  };
  // The one table: rows in Occurrence order (docs/OBSERVABILITY.md).
  static constexpr Row kTable[] = {
      {&S::local_rpcs, nullptr, kUntraced, {}},             // LocalRpc
      {&S::remote_rpcs, nullptr, kUntraced, {}},            // RemoteRpc
      {&S::oneway_calls, nullptr, kInstant, E::OnewaySend},
      {nullptr, nullptr, kSpan, E::Call},                   // CallDone
      {nullptr, nullptr, kSpan, E::LocalCall},              // LocalCallDone
      {nullptr, nullptr, kSpan, E::HandlerRun},
      {nullptr, nullptr, kInstant, E::ReplyDeliver},
      {&S::stray_replies, nullptr, kUntraced, {}},          // StrayReply
      {&S::undeliverable_replies, nullptr, kUntraced, {}},  // Undeliverable
      {&S::call_timeouts, nullptr, kInstant, E::CallTimeout},
      {&S::call_timeouts, &S::machine_down_failures, kInstant, E::CallTimeout},
      {&S::deadline_rejects, nullptr, kInstant, E::DeadlineReject},
      {&S::sheds, nullptr, kInstant, E::OverloadShed},      // Shed
      {&S::credit_stalls, nullptr, kSpan, E::CreditStall},
      {&S::cancels_sent, nullptr, kInstant, E::CancelSent},
      {&S::cancels_honored, nullptr, kInstant, E::CancelHonored},
      {&S::duplicate_calls, nullptr, kInstant, E::DuplicateDropped},
      {&S::duplicate_calls, &S::replayed_replies, kInstant, E::ReplyReplayed},
      {&S::reply_cache_pins, nullptr, kInstant, E::ReplyCachePinned},
  };
  static_assert(std::size(kTable) ==
                static_cast<std::size_t>(Occurrence::ReplyCachePinned) + 1);
  const Row& row = kTable[static_cast<std::size_t>(what)];
  if (row.counter != nullptr) {
    contexts_.at(machine_id)->stats.count(row.counter, row.also);
  }
  trace::Recorder* const rec = recorder();
  if (rec == nullptr || row.mark == kUntraced) return;
  const std::int64_t now =
      cluster_.machine(machine_id).clock().now().as_nanos();
  const std::int64_t start = row.mark == kSpan ? start_ns : now;
  rec->record({.kind = row.event, .machine = machine_id, .start_ns = start,
               .dur_ns = now > start ? now - start : 0,
               .callsite = callsite_id, .seq = seq, .bytes = bytes});
}

std::int64_t RmiSystem::span_start(std::uint16_t machine_id) const {
  if (recorder() == nullptr) return 0;  // inert: no clock read
  return cluster_.machine(machine_id).clock().now().as_nanos();
}

trace::PassTrace RmiSystem::pass_trace(trace::EventKind kind,
                                       std::uint16_t machine_id,
                                       std::uint32_t callsite_id,
                                       std::uint32_t seq) const {
  trace::PassTrace pt;
  pt.recorder = recorder();
  if (pt.recorder == nullptr) return pt;  // inert: no clock read
  pt.kind = kind;
  pt.machine = machine_id;
  pt.callsite = callsite_id;
  pt.seq = seq;
  pt.virtual_start_ns = cluster_.machine(machine_id).clock().now().as_nanos();
  pt.cost = &cluster_.cost();
  return pt;
}

void RmiSystem::charge_stub(std::uint16_t machine_id,
                            const CompiledCallSite& site, std::size_t nargs,
                            std::size_t nscalars) {
  const serial::CostModel& c = cluster_.cost();
  const bool site_specific = codegen::site_specific(site.level);
  std::int64_t ns = site_specific ? c.site_stub_ns : c.generic_stub_ns;
  if (!site_specific) {
    const std::size_t boxed =
        nargs + nscalars + (site.plan->ret != nullptr ? 1 : 0);
    ns += static_cast<std::int64_t>(boxed) * c.generic_arg_box_ns;
  }
  cluster_.machine(machine_id).clock().advance(SimTime::nanos(ns));
}

std::string RmiSystem::site_desc(std::uint32_t callsite_id) const {
  if (callsite_id >= callsites_.size()) {
    return "site " + std::to_string(callsite_id) + " (unknown)";
  }
  const CompiledCallSite& s = callsites_[callsite_id];
  return "site " + std::to_string(callsite_id) + " (" + s.plan->name + ", " +
         std::string(codegen::to_string(s.level)) + ")";
}

std::string RmiSystem::call_desc(const AsyncCallState& st) const {
  return std::string(st.oneway ? "oneway call seq " : "call seq ") +
         std::to_string(st.seq) + " via " + site_desc(st.callsite_id) +
         " to machine " + std::to_string(st.target.machine);
}

std::int64_t RmiSystem::compute_deadline(std::int64_t now_ns,
                                         const CallOptions& opts) const {
  std::int64_t base = 0;
  if (opts.budget_ns > 0) {
    base = now_ns + opts.budget_ns;
  } else if (exec_cfg_.default_deadline_ns > 0) {
    base = now_ns + exec_cfg_.default_deadline_ns;
  }
  std::int64_t inherited = 0;
  if (t_ambient_deadline_ns != 0) {
    inherited = t_ambient_deadline_ns - exec_cfg_.deadline_slack_ns;
    // 0 means "no deadline"; an inherited budget that erodes to exactly 0
    // is *expired*, so keep it distinguishable (any nonzero value <= now
    // reads as expired downstream).
    if (inherited == 0) inherited = -1;
  }
  if (base == 0) return inherited;
  if (inherited == 0) return base;
  return std::min(base, inherited);
}

void RmiSystem::send_cancel_raw(std::uint16_t caller, std::uint16_t dest,
                                std::uint32_t callsite_id,
                                std::uint32_t seq) {
  note(Occurrence::CancelSent, caller, callsite_id, seq);
  wire::Message c;
  c.header.kind = wire::MsgKind::Cancel;
  c.header.callsite_id = callsite_id;
  c.header.seq = seq;
  c.header.source_machine = caller;
  c.header.dest_machine = dest;
  try {
    cluster_.send(std::move(c));
  } catch (const Error&) {
    // Best-effort by contract: an undeliverable cancel only means the
    // callee computes a reply the caller will drop as a stray.
  }
}

void RmiSystem::erase_pending(MachineContext& ctx, std::uint32_t seq) {
  std::scoped_lock lock(ctx.pending_mu);
  ctx.pending.erase(seq);
}

RmiSystem::PendingReply RmiSystem::await_pending(AsyncCallState& st) {
  MachineContext& ctx = *contexts_.at(st.caller);
  const std::uint16_t dest = st.target.machine;
  const std::int64_t budget_ms = exec_cfg_.call_timeout_ms;
  net::FailureDetector* const fd = cluster_.detector();
  bool timed_out = false, dead = false;
  if (fd == nullptr) {
    timed_out =
        budget_ms > 0 &&
        st.fut.wait_for(std::chrono::milliseconds(budget_ms)) ==
            std::future_status::timeout;
  } else {
    // Slice the real-time wait: between slices, drive the probe rounds
    // with the cluster-wide makespan (the dead callee's own burning ARQ
    // advances virtual time even while this thread is parked) and bail
    // out the moment `dest` is confirmed dead.  Slices are real time, so
    // they affect only how promptly a blocked caller notices; the death
    // declaration itself stays on the deterministic virtual-time axis.
    constexpr std::int64_t kSliceMs = 2;
    for (std::int64_t waited_ms = 0;;) {
      if (st.fut.wait_for(std::chrono::milliseconds(kSliceMs)) ==
          std::future_status::ready) {
        break;
      }
      fd->poll(cluster_.makespan());
      if (fd->dead(dest) &&
          st.fut.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
        dead = true;
        break;
      }
      waited_ms += kSliceMs;
      if (budget_ms > 0 && waited_ms >= budget_ms) {
        timed_out = true;
        break;
      }
    }
  }
  auto what = [&](const std::string& why) {  // built on failure paths only
    return call_desc(st) + ": " + why;
  };
  if (dead || timed_out) erase_pending(ctx, st.seq);
  if (dead) {
    note(Occurrence::MachineDown, st.caller, st.callsite_id, st.seq);
    throw MachineDown(dest,
                      what("machine declared dead while awaiting the reply"));
  }
  if (timed_out) {
    // The callee may still be computing: tell it to stop (best-effort) so
    // the reply nobody will read is abandoned at the next poll boundary.
    if (dest != st.caller) {
      send_cancel_raw(st.caller, dest, st.callsite_id, st.seq);
    }
    note(Occurrence::CallTimeout, st.caller, st.callsite_id, st.seq);
    throw RmiTimeout(what("no reply within " + std::to_string(budget_ms) +
                          " ms"));
  }
  // The entry is already gone: whoever fulfilled the promise erased it.
  PendingReply rep = st.fut.get();
  if (rep.machine_down) {
    note(Occurrence::MachineDown, st.caller, st.callsite_id, st.seq);
    throw MachineDown(dest, what("machine declared dead"));
  }
  if (rep.is_exception) throw RemoteException(rep.error);
  if (!rep.is_local && rep.msg.header.kind == wire::MsgKind::Exception) {
    throw RemoteException(rep.msg.payload.get_string());
  }
  if (!rep.is_local && rep.msg.header.kind == wire::MsgKind::Reject) {
    // The callee refused (or abandoned) the call without running its
    // handler to completion: map the code back to the typed exception.
    const auto code = static_cast<wire::RejectCode>(rep.msg.payload.get_u8());
    const std::string msg = what(rep.msg.payload.get_string());
    switch (code) {
      case wire::RejectCode::DeadlineExceeded:
        note(Occurrence::CallTimeout, st.caller, st.callsite_id, st.seq);
        throw DeadlineExceeded(msg);
      case wire::RejectCode::Overload:
        throw Overload(msg);
      case wire::RejectCode::Cancelled:
        throw Cancelled(msg);
    }
    note(Occurrence::CallTimeout, st.caller, st.callsite_id, st.seq);
    throw RmiTimeout(msg);  // unknown code from a newer peer
  }
  return rep;
}

bool RmiSystem::try_fulfill_pending(MachineContext& ctx, std::uint32_t seq,
                                    PendingReply reply) {
  std::promise<PendingReply> prom;
  {
    std::scoped_lock lock(ctx.pending_mu);
    auto it = ctx.pending.find(seq);
    if (it == ctx.pending.end()) return false;
    prom = std::move(it->second.promise);
    // Erase now: a promise fulfills exactly once, so leaving the consumed
    // slot behind would let a second reply for this seq (late real reply
    // after a fail_pending_to, or a duplicate) hit a moved-from promise.
    ctx.pending.erase(it);
  }
  prom.set_value(std::move(reply));
  return true;
}

thread_local std::vector<RmiSystem::HeldReply>* RmiSystem::held_replies_ =
    nullptr;

bool RmiSystem::claim_reply(std::uint16_t machine_id, wire::Message& msg,
                            const std::function<void()>& charge) {
  MachineContext& ctx = *contexts_[machine_id];
  std::promise<PendingReply> prom;
  {
    std::scoped_lock lock(ctx.pending_mu);
    auto it = ctx.pending.find(msg.header.seq);
    if (it == ctx.pending.end()) return false;  // a stray: it queues
    // Charged under pending_mu, so the slot cannot be failed or abandoned
    // between the check and the charge.
    charge();
    note(Occurrence::ReplyDeliver, machine_id, msg.header.callsite_id,
         msg.header.seq);
    prom = std::move(it->second.promise);
    ctx.pending.erase(it);
  }
  PendingReply rep{.msg = std::move(msg)};
  if (held_replies_ != nullptr) {
    held_replies_->push_back(HeldReply{std::move(prom), std::move(rep)});
  } else {
    prom.set_value(std::move(rep));
  }
  return true;
}

bool RmiSystem::claim_call(std::uint16_t machine_id, net::Envelope& env,
                           const std::function<void()>& charge) {
  CallClaim* const claim = t_call_claim;
  if (claim == nullptr || claim->sys != this || claim->callee != machine_id ||
      claim->seq != env.msg.header.seq) {
    return false;  // another thread's call, or one left to the dispatcher
  }
  charge();
  claim->taken = std::move(env);
  return true;
}

bool RmiSystem::sole_caller() {
  if (many_callers_.load()) return false;
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id first = first_caller_.load();
  if (first == std::thread::id{} &&
      first_caller_.compare_exchange_strong(first, self)) {
    return true;
  }
  if (first == self) return true;
  many_callers_.store(true);
  return false;
}

void RmiSystem::fail_pending_to(std::uint16_t machine) {
  for (auto& ctxp : contexts_) {
    std::vector<std::promise<PendingReply>> victims;
    {
      std::scoped_lock lock(ctxp->pending_mu);
      for (auto it = ctxp->pending.begin(); it != ctxp->pending.end();) {
        if (it->second.dest == machine) {
          victims.push_back(std::move(it->second.promise));
          it = ctxp->pending.erase(it);
        } else {
          ++it;
        }
      }
    }
    // Fulfill outside the lock: the woken caller's first act is to take
    // pending_mu for its own erase (now a no-op).
    for (std::promise<PendingReply>& p : victims) {
      PendingReply rep;
      rep.machine_down = true;
      p.set_value(std::move(rep));
    }
  }
}

// ---- at-most-once -----------------------------------------------------------

RmiSystem::CallAdmission RmiSystem::admit_call(std::uint16_t machine_id,
                                               MachineContext& ctx,
                                               std::uint64_t key,
                                               wire::Message* replay) {
  std::scoped_lock lock(ctx.amo_mu);
  auto it = ctx.reply_cache.find(key);
  if (it != ctx.reply_cache.end()) {
    if (!it->second.replied) return CallAdmission::InProgress;
    *replay = it->second.reply;  // shares the cached payload image
    return CallAdmission::Replied;
  }
  ctx.reply_cache.emplace(key, ReplyCacheEntry{});
  ctx.reply_cache_order.push_back(key);
  evict_replies(machine_id, ctx, key);
  return CallAdmission::Fresh;
}

void RmiSystem::cache_reply(std::uint16_t machine_id, MachineContext& ctx,
                            std::uint64_t key, const wire::Message& reply) {
  std::scoped_lock lock(ctx.amo_mu);
  auto it = ctx.reply_cache.find(key);
  if (it == ctx.reply_cache.end()) return;  // already evicted
  it->second.replied = true;
  it->second.reply = reply;  // shares the frozen payload image
  ctx.reply_cache_bytes += reply.payload_size();
  evict_replies(machine_id, ctx, key);
}

void RmiSystem::evict_replies(std::uint16_t machine_id, MachineContext& ctx,
                              std::uint64_t keep) {
  // Bounded FIFO eviction of *completed* entries only.  An in-flight
  // entry (admitted, not yet replied) is the sole record that its call is
  // executing: evicting it would let a delayed duplicate be re-admitted
  // as Fresh and the handler run twice.  Such entries are pinned — moved
  // to the back of the order and counted — and the cache transiently
  // exceeds its bounds by the number of concurrent in-flight calls.
  std::size_t scanned = 0;
  while ((ctx.reply_cache.size() > exec_cfg_.reply_cache_capacity ||
          ctx.reply_cache_bytes > kReplyCacheBytes) &&
         scanned < ctx.reply_cache_order.size()) {
    ++scanned;
    const std::uint64_t victim = ctx.reply_cache_order.front();
    ctx.reply_cache_order.pop_front();
    auto vit = ctx.reply_cache.find(victim);
    if (vit == ctx.reply_cache.end()) continue;  // already released
    if (!vit->second.replied) {
      ctx.reply_cache_order.push_back(victim);  // pinned: still in flight
      note(Occurrence::ReplyCachePinned, machine_id, trace::Event::kNoCallsite,
           static_cast<std::uint32_t>(victim));
      continue;
    }
    if (victim == keep) {  // a reply alone past the byte bound stays
      ctx.reply_cache_order.push_back(victim);
      continue;
    }
    ctx.reply_cache_bytes -= vit->second.reply.payload_size();
    ctx.reply_cache.erase(vit);
  }
}

RmiSystem::ReuseSlot& RmiSystem::reuse_slot(MachineContext& ctx,
                                            bool ret_side,
                                            std::uint32_t callsite_id,
                                            std::size_t arity) {
  std::scoped_lock lock(ctx.cache_mu);
  auto& map = ret_side ? ctx.ret_cache : ctx.arg_cache;
  auto& slot = map[callsite_id];
  if (!slot) slot = std::make_unique<ReuseSlot>();
  // `cached` is guarded by the slot's own mutex: an executor may be
  // putting arguments back into it right now.
  std::scoped_lock slot_lock(slot->mu);
  if (slot->cached.size() < arity) slot->cached.resize(arity, nullptr);
  return *slot;
}

void RmiSystem::free_graphs(om::Heap& heap, std::span<const om::ObjRef> roots,
                            serial::SerialStats& pass) {
  // Arguments may share substructure (Figure 8 passes the same object
  // twice), so free the *union* of the graphs exactly once.
  std::unordered_set<om::Object*> all;
  for (om::ObjRef r : roots) om::collect_graph(r, all);
  for (om::Object* o : all) {
    heap.free(o);
    ++pass.objects_freed;
  }
}

// ---- invocation: the caller-side pipeline -----------------------------------

om::ObjRef RmiSystem::invoke(std::uint16_t caller, RemoteRef target,
                             std::uint32_t callsite_id,
                             std::span<const om::ObjRef> args,
                             std::span<const std::int64_t> scalars,
                             const CallOptions& opts) {
  // The one code path: synchronous RMI is an async send consumed at once,
  // which its sending thread may serve itself (send_call).
  auto st = std::make_shared<AsyncCallState>();
  issue(*st, CallKind::Sync, caller, target, callsite_id, args, scalars, opts);
  return RmiFuture(std::move(st)).get();
}

RmiFuture RmiSystem::invoke_async(std::uint16_t caller, RemoteRef target,
                                  std::uint32_t callsite_id,
                                  std::span<const om::ObjRef> args,
                                  std::span<const std::int64_t> scalars,
                                  const CallOptions& opts) {
  auto st = std::make_shared<AsyncCallState>();
  issue(*st, CallKind::Async, caller, target, callsite_id, args, scalars,
        opts);
  return RmiFuture(std::move(st));
}

void RmiSystem::invoke_oneway(std::uint16_t caller, RemoteRef target,
                              std::uint32_t callsite_id,
                              std::span<const om::ObjRef> args,
                              std::span<const std::int64_t> scalars,
                              const CallOptions& opts) {
  AsyncCallState st;
  issue(st, CallKind::Oneway, caller, target, callsite_id, args, scalars,
        opts);
  if (st.local_error) std::rethrow_exception(st.local_error);
}

void RmiSystem::issue(AsyncCallState& st, CallKind kind, std::uint16_t caller,
                      RemoteRef target, std::uint32_t callsite_id,
                      std::span<const om::ObjRef> args,
                      std::span<const std::int64_t> scalars,
                      const CallOptions& opts) {
  const CompiledCallSite& site = callsite(callsite_id);
  RMIOPT_CHECK(args.size() == site.plan->args.size(),
               "argument count does not match call-site plan");
  st.sys = this;
  st.caller = caller;
  st.target = target;
  st.callsite_id = callsite_id;
  st.seq = next_seq_.fetch_add(1);
  const bool oneway = kind == CallKind::Oneway;
  st.oneway = oneway;
  st.is_local = target.machine == caller;
  // A synchronous call from the sole calling thread, issued outside any
  // dispatch, may be served by this thread (send_call).  Every call counts
  // towards sole_caller(), so it is asked first.
  const bool may_serve = sole_caller() && kind == CallKind::Sync &&
                         exec_cfg_.dispatch_workers == 1 &&
                         t_dispatching.sys == nullptr;
  MachineContext& cctx = *contexts_.at(caller);
  net::Machine& m = cluster_.machine(caller);

  const std::int64_t deadline =
      compute_deadline(m.clock().now().as_nanos(), opts);
  gate(st, deadline, "budget exhausted before the send");
  if (!st.is_local) admit(st, deadline);

  note(st.is_local ? Occurrence::LocalRpc : Occurrence::RemoteRpc, caller,
       callsite_id, st.seq);
  if (oneway) {
    note(Occurrence::OnewaySend, caller, callsite_id, st.seq);
  } else {
    // Caller-perceived Call span: from here to the reply's deserialization.
    st.call_start_ns = span_start(caller);
    std::scoped_lock lock(cctx.pending_mu);
    PendingSlot& slot = cctx.pending[st.seq];
    slot.dest = target.machine;
    st.fut = slot.promise.get_future();
  }
  // Per-call marshaler machinery: generic stub vs generated code (§3.1).
  charge_stub(caller, site, args.size(), scalars.size());

  if (!st.is_local) {
    send_call(st, may_serve, marshal(st, site, args, scalars, deadline));
    return;
  }
  // A same-machine call replaces marshal and send with clone + run
  // handler: RMI parameter-passing semantics must hold regardless of
  // placement (§1), so the argument graphs are deep-cloned.  The local
  // path is synchronous by construction (the handler runs inline on this
  // thread), so the reply is awaited now and the future comes back ready.
  DecodedCall call{.callsite_id = callsite_id, .seq = st.seq, .source = caller,
                   .target_export = target.export_id, .deadline_ns = deadline,
                   .oneway = oneway};
  serial::SerialStats pass;
  call.args.reserve(args.size());
  for (om::ObjRef a : args) {
    call.args.push_back(clone_counted(m.heap(), a, pass));
  }
  account(caller, callsite_id, pass, 1, 0);
  try {
    execute_call(caller, call, scalars);
    if (!oneway) st.local_value = finish_call(st);
  } catch (...) {
    st.local_error = std::current_exception();
  }
}

void RmiSystem::gate(const AsyncCallState& st, std::int64_t deadline,
                     const char* why) {
  // Fail fast at the first hop that cannot finish in time: do not
  // serialize, do not send.
  const std::int64_t now = cluster_.machine(st.caller).clock().now().as_nanos();
  if (deadline == 0 || now < deadline) return;
  note(Occurrence::DeadlineReject, st.caller, st.callsite_id, st.seq);
  throw DeadlineExceeded(call_desc(st) + ": " + why);
}

void RmiSystem::admit(const AsyncCallState& st, std::int64_t deadline) {
  // Admission control, evaluated against the callee's deterministic
  // virtual-time inbox model *before* any work is invested in the call.
  AdmissionController& adm = *contexts_.at(st.target.machine)->admission;
  if (!adm.enabled()) return;
  net::VirtualClock& clock = cluster_.machine(st.caller).clock();
  const AdmissionController::Decision d = adm.admit(clock.now().as_nanos());
  if (d.stall_ns > 0) {
    // Backpressure: the flow-control credit delays this sender's
    // virtual-time send, pacing it to the callee's capacity.
    const std::int64_t stall_start = span_start(st.caller);
    clock.advance(SimTime::nanos(d.stall_ns));
    note(Occurrence::CreditStall, st.caller, st.callsite_id, st.seq,
         stall_start);
  }
  if (!d.admitted) {
    note(Occurrence::Shed, st.caller, st.callsite_id, st.seq);
    throw Overload(call_desc(st) + " shed: inbox at its bound (" +
                   std::to_string(exec_cfg_.inbox_bound) +
                   "); retry with backoff");
  }
  // The stall consumed part of the budget; re-check before sending.
  gate(st, deadline, "budget exhausted by flow-control backpressure");
}

wire::Message RmiSystem::marshal(AsyncCallState& st,
                                 const CompiledCallSite& site,
                                 std::span<const om::ObjRef> args,
                                 std::span<const std::int64_t> scalars,
                                 std::int64_t deadline) {
  const serial::CallSitePlan& plan = *site.plan;
  wire::Message msg;
  msg.header = {.kind = wire::MsgKind::Call, .callsite_id = st.callsite_id,
                .target_export = st.target.export_id, .seq = st.seq,
                .source_machine = st.caller, .dest_machine = st.target.machine,
                .flags = st.oneway ? wire::kFlagOneway : std::uint8_t{0},
                .deadline_ns = deadline};

  maybe_gather(msg, cluster_.cost());
  auto put_scalars = [&](auto& out) {
    out.put_varint(scalars.size());
    for (const std::int64_t s : scalars) out.put_i64(s);
  };
  if (msg.gathered) {
    put_scalars(*msg.gathered);
  } else {
    put_scalars(msg.payload);
  }
  serial::SerialStats pass;
  {
    serial::SerialWriter w(class_plans_, pass, plan.needs_cycle_table,
                           pass_trace(trace::EventKind::Serialize, st.caller,
                                      st.callsite_id, st.seq));
    for (std::size_t i = 0; i < args.size(); ++i) {
      write_value(w, msg, *plan.args[i], args[i]);
    }
  }
  // Pin/fold borrowed spans *before* the caller can touch its argument
  // graphs again: from here on the payload image is frozen, so ARQ
  // retransmits and fault-plan copies stay byte-identical.
  msg.seal_gathered();
  st.request_bytes = msg.payload_size();
  account(st.caller, st.callsite_id, pass, 0, 1);
  return msg;
}

void RmiSystem::send_call(AsyncCallState& st, bool may_serve,
                          wire::Message msg) {
  CallClaim claim{.sys = this, .callee = st.target.machine, .seq = st.seq};
  std::exception_ptr failure;
  {
    const ThreadLocalScope<CallClaim*> window(t_call_claim,
                                              may_serve ? &claim : nullptr);
    try {
      cluster_.send(std::move(msg));
    } catch (...) {
      failure = std::current_exception();
    }
  }
  if (claim.taken) {
    // This thread claimed the call as it was delivered: serve it as the
    // callee's dispatcher would — also when the send failed after the
    // delivery — and release the callee whatever the handler does.
    struct Release {
      net::Machine& m;
      ~Release() { m.release(); }
    } release{cluster_.machine(st.target.machine)};
    dispatch(st.target.machine, std::move(*claim.taken));
  }
  if (failure == nullptr) return;
  try {
    std::rethrow_exception(failure);
  } catch (const MachineDeadError& e) {
    // The failure detector already confirmed the endpoint dead: fail the
    // call immediately with the typed form instead of waiting out the ARQ
    // retransmit budget.
    erase_pending(*contexts_.at(st.caller), st.seq);  // oneway: a no-op
    note(Occurrence::MachineDown, st.caller, st.callsite_id, st.seq);
    throw MachineDown(e.machine(),
                      call_desc(st) + " failed fast: " + e.what());
  } catch (const ProtocolError& e) {
    // The link's ARQ gave up: the callee is crashed or unreachable.  The
    // failure is synchronous (virtual-time timers, not wall-clock), so it
    // converts directly into the typed caller-visible form.
    erase_pending(*contexts_.at(st.caller), st.seq);
    note(Occurrence::CallTimeout, st.caller, st.callsite_id, st.seq);
    throw RmiTimeout(call_desc(st) + " undeliverable: " + e.what());
  }
}

om::ObjRef RmiSystem::finish_call(AsyncCallState& st) {
  const std::uint16_t caller = st.caller;
  const std::uint32_t callsite_id = st.callsite_id;
  const std::uint32_t seq = st.seq;
  const CompiledCallSite& site = callsite(callsite_id);
  const serial::CallSitePlan& plan = *site.plan;
  MachineContext& cctx = *contexts_.at(caller);
  net::Machine& m = cluster_.machine(caller);

  // Nested-invoke deadlock guard: with a single dispatch worker, a handler
  // that performs a synchronous remote invoke while its thread acts as the
  // calling machine's dispatcher (the dispatcher thread, or a thread
  // serving a claimed call there) waits for a reply only that same thread
  // could process.  Before this check the call hung until the retransmit
  // budget drained (or forever on a fault-free link).  Fail fast with a
  // typed, recoverable error instead — unless the reply is somehow already
  // in hand.
  if (!st.is_local && exec_cfg_.dispatch_workers == 1 &&
      t_dispatching.sys == this && t_dispatching.machine == caller &&
      st.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    erase_pending(cctx, seq);
    note(Occurrence::CallTimeout, caller, callsite_id, seq);
    // Best-effort: tell the callee not to bother computing the reply.
    send_cancel_raw(caller, st.target.machine, callsite_id, seq);
    throw NestedInvokeDeadlock(
        "nested synchronous invoke via " + site_desc(callsite_id) +
        " from the dispatcher thread of machine " + std::to_string(caller) +
        " would deadlock: dispatch_workers == 1, so the reply could only be "
        "processed by the thread that is blocked waiting for it. Configure "
        "dispatch_workers >= 2 on the calling machine, or use invoke_oneway "
        "/ invoke_async with the future consumed off the dispatcher thread.");
  }

  PendingReply rep = await_pending(st);
  if (rep.is_local) {
    note(Occurrence::LocalCallDone, caller, callsite_id, seq,
         st.call_start_ns);
    return rep.local_value;
  }
  const std::uint64_t reply_bytes = rep.msg.payload.size();
  om::ObjRef value = nullptr;
  if (rep.msg.header.kind != wire::MsgKind::Ack) {  // an Ack has no body
    serial::SerialStats rpass;
    serial::SerialReader r(
        class_plans_, m.heap(), rpass, plan.needs_cycle_table,
        pass_trace(trace::EventKind::Deserialize, caller, callsite_id, seq));
    // Zero-copy receive: a reply decoded from a pinned frame may borrow its
    // large primitive-array rows instead of copying them out.
    if (cluster_.cost().zero_copy_receive) {
      r.enable_borrow(cluster_.cost().gather_min_borrow_bytes);
    }
    if (plan.reuse_ret) {
      ReuseSlot& slot = reuse_slot(cctx, /*ret_side=*/true, callsite_id, 1);
      om::ObjRef cached = nullptr;
      {
        std::scoped_lock lock(slot.mu);
        cached = slot.cached[0];
        slot.cached[0] = nullptr;  // multithreading guard (Fig. 13)
        // The slot's graph is out with another caller: recycle a past
        // value of this site that a concurrent caller displaced instead.
        if (cached == nullptr && !slot.displaced.empty()) {
          cached = slot.displaced.back();
          slot.displaced.pop_back();
        }
      }
      value = r.read_reusing(rep.msg.payload, *plan.ret, cached);
      {
        std::scoped_lock lock(slot.mu);
        // A concurrent caller of this site put its value back meanwhile:
        // it may still hold that graph, so the slot keeps it for the next
        // caller that finds the slot empty.
        if (slot.cached[0] != nullptr) {
          slot.displaced.push_back(slot.cached[0]);
        }
        slot.cached[0] = value;
      }
    } else {
      value = r.read(rep.msg.payload, *plan.ret);
    }
    account(caller, callsite_id, rpass);
  }
  note(Occurrence::CallDone, caller, callsite_id, seq, st.call_start_ns,
       st.request_bytes + reply_bytes);
  return value;
}

// ---- replies ----------------------------------------------------------------

void RmiSystem::send_reply(const ReplyToken& token, om::ObjRef value,
                           bool give_ownership) {
  answer(token, wire::MsgKind::Return, value, give_ownership);
}

void RmiSystem::send_exception(const ReplyToken& token, std::string message) {
  answer(token, wire::MsgKind::Exception, nullptr, false, message);
}

void RmiSystem::answer(const ReplyToken& token, wire::MsgKind kind,
                       om::ObjRef value, bool give_ownership,
                       const std::string& text, wire::RejectCode code) {
  const std::uint16_t callee_id = token.callee_machine;
  MachineContext& callee_ctx = *contexts_.at(callee_id);
  om::Heap& heap = cluster_.machine(callee_id).heap();
  const bool local = token.caller_machine == callee_id;
  wire::Message reply;
  reply.header = {.kind = kind, .callsite_id = token.callsite_id,
                  .seq = token.seq, .source_machine = callee_id,
                  .dest_machine = token.caller_machine};
  om::ObjRef local_value = nullptr;
  serial::SerialStats pass;
  if (token.oneway && kind != wire::MsgKind::Reject) {
    // Fire-and-forget: the outcome has nowhere to go.  The tombstone is a
    // bare "done" marker, so a duplicate is suppressed, never re-run.
    reply.header.kind = wire::MsgKind::Ack;
  } else if (kind == wire::MsgKind::Return) {
    const CompiledCallSite& site = callsite(token.callsite_id);
    const serial::CallSitePlan& plan = *site.plan;
    const bool has_ret = plan.ret != nullptr;
    if (local && has_ret && value != nullptr) {
      local_value = clone_counted(heap, value, pass);  // local reply
    } else if (!local) {
      reply.header.kind = has_ret ? wire::MsgKind::Return : wire::MsgKind::Ack;
      reply.coalesce_hint = site.batch_replies;
      if (has_ret) {
        maybe_gather(reply, cluster_.cost());
        serial::SerialWriter w(class_plans_, pass, plan.needs_cycle_table,
                               pass_trace(trace::EventKind::Serialize,
                                          callee_id, token.callsite_id,
                                          token.seq));
        write_value(w, reply, *plan.ret, value);
      }
      // Seal before the give_ownership free below and before the reply
      // cache records the reply: borrowed spans may alias `value`'s
      // payload rows, and from here the frame image must be frozen
      // (replayed duplicates and ARQ retransmits must match the first
      // transmission byte for byte).
      reply.seal_gathered();
    }
  } else if (kind == wire::MsgKind::Exception) {
    reply.payload.put_string(text);
  } else {
    reply.payload.put_u8(static_cast<std::uint8_t>(code));
    reply.payload.put_string(text);
  }
  // A per-call return value is freed once the reply no longer needs it —
  // also when the reply is a oneway tombstone or a cancellation Reject.
  if (give_ownership) free_graphs(heap, std::span(&value, 1), pass);
  account(callee_id, token.callsite_id, pass);

  if (local) {
    if (token.oneway) return;
    PendingReply rep{.is_local = true, .local_value = local_value,
                     .is_exception = kind != wire::MsgKind::Return,
                     .error = text};
    // Local-path replies are produced by the runtime itself, so a missing
    // entry here is a programmer error, not network noise.
    RMIOPT_CHECK(try_fulfill_pending(callee_ctx, token.seq, std::move(rep)),
                 "reply without matching call");
    return;
  }
  // At-most-once: keep the reply (or the oneway tombstone) so a duplicate
  // of this call is answered by replay instead of re-executing the handler.
  // Frozen first, the contiguous payload becomes a refcounted image that
  // the cache entry and the frame on the wire share, as a sealed gathered
  // payload already is: the cache holds no copy of its own.
  reply.payload.freeze();
  cache_reply(callee_id, callee_ctx, call_key(token.caller_machine, token.seq),
              reply);
  if (token.oneway) return;  // nobody is waiting
  try {
    cluster_.send(std::move(reply));
  } catch (const ProtocolError&) {
    // The caller's machine is unreachable; the call has already executed,
    // so all we can do is count the lost reply.  A surviving caller will
    // surface its own RmiTimeout.
    note(Occurrence::UndeliverableReply, callee_id, token.callsite_id,
         token.seq);
  }
}

// ---- dispatcher ---------------------------------------------------------------

void RmiSystem::dispatch_loop(std::uint16_t machine_id) {
  net::Machine& m = cluster_.machine(machine_id);
  while (auto env = m.receive_blocking()) {
    dispatch(machine_id, std::move(*env));
  }
}

void RmiSystem::dispatch(std::uint16_t machine_id, net::Envelope env) {
  const ThreadLocalScope<Dispatching> acting(t_dispatching,
                                             {this, machine_id});
  net::Machine& m = cluster_.machine(machine_id);
  MachineContext& ctx = *contexts_.at(machine_id);
  const wire::MessageHeader h = env.msg.header;
  if (h.kind == wire::MsgKind::Call) {
    const bool oneway = (h.flags & wire::kFlagOneway) != 0;
    // At-most-once: a duplicate of a call already executing is dropped;
    // a duplicate of a call already answered gets the cached reply
    // re-sent verbatim (the handler never runs twice).  A duplicate of
    // a oneway call is dropped too — its completion marker is never a
    // real reply.
    const std::uint64_t key = call_key(h.source_machine, h.seq);
    wire::Message replay;
    const CallAdmission admission = admit_call(machine_id, ctx, key, &replay);
    if (admission == CallAdmission::InProgress ||
        (admission == CallAdmission::Replied && oneway)) {
      note(Occurrence::DuplicateDropped, machine_id, h.callsite_id, h.seq);
      return;
    }
    if (admission == CallAdmission::Replied) {
      note(Occurrence::ReplyReplayed, machine_id, h.callsite_id, h.seq);
      try {
        cluster_.send(std::move(replay));
      } catch (const ProtocolError&) {
        note(Occurrence::UndeliverableReply, machine_id, h.callsite_id,
             h.seq);
      }
      return;
    }
    const ReplyToken token{h.callsite_id, h.seq, h.source_machine,
                           machine_id, oneway};
    if (h.callsite_id >= callsites_.size()) {
      // Externally-derived index: answer with a typed remote exception
      // instead of bringing the callee down.
      send_exception(token, "unknown call site " +
                                std::to_string(h.callsite_id));
      return;
    }
    // Deadline gate: refuse to even *decode* a call whose deadline has
    // passed — the caller already timed out, so every cycle spent here
    // is wasted.  The Reject is cached as the call's tombstone.
    if (h.deadline_ns != 0 &&
        m.clock().now().as_nanos() >= h.deadline_ns) {
      note(Occurrence::DeadlineReject, machine_id, h.callsite_id, h.seq);
      answer(token, wire::MsgKind::Reject, nullptr, false,
             "deadline expired before dispatch at " +
                 site_desc(h.callsite_id),
             wire::RejectCode::DeadlineExceeded);
      return;
    }
    // Deserialize while dispatching (the unmarshaler lock discipline of
    // §4), then hand the handler to the executor — inline with one
    // worker, concurrent with a pool.
    std::shared_ptr<DecodedCall> call;
    try {
      call = std::make_shared<DecodedCall>(
          decode_call(machine_id, std::move(env)));
    } catch (const Error& e) {
      // A call whose payload does not match its plan (possible only
      // from hand-crafted or damaged-but-checksum-colliding input) is
      // answered exceptionally, not fatally.
      send_exception(token, std::string("undecodable call: ") + e.what());
      return;
    }
    // Register the cancellation flag before the handler is queued.  The
    // per-link FIFO means a CancelRequest for this call can only be
    // processed after this point, so the lookup below never misses a
    // cancellable call.
    call->cancel = std::make_shared<CancelToken>();
    {
      std::scoped_lock lock(ctx.cancel_mu);
      ctx.cancel_tokens[key] = call->cancel;
    }
    ctx.executor->execute([this, machine_id, call] {
      execute_call(machine_id, *call, call->scalars);
    });
    return;
  }
  if (h.kind == wire::MsgKind::Cancel) {
    // Best-effort cancellation: flag the call if it is still here.  A
    // miss means the call already completed (or was never admitted) —
    // the cancel simply lost the race.
    std::shared_ptr<CancelToken> tok;
    {
      std::scoped_lock lock(ctx.cancel_mu);
      auto it = ctx.cancel_tokens.find(call_key(h.source_machine, h.seq));
      if (it != ctx.cancel_tokens.end()) tok = it->second;
    }
    if (tok) tok->request();
    return;
  }
  if (h.kind == wire::MsgKind::Heartbeat) {
    // Defensive: detector probes never become messages (the detector
    // rolls them in place), but a hand-crafted frame could carry the
    // kind.  Swallow it rather than misread it as a reply.
    return;
  }
  // A reply: wake the caller blocked on this sequence number.  A reply
  // nobody is waiting for (stray duplicate, or the caller already timed
  // out) is dropped and counted, never fatal.
  PendingReply rep;
  rep.is_local = false;
  const std::uint32_t seq = h.seq;
  rep.msg = std::move(env.msg);
  if (try_fulfill_pending(ctx, seq, std::move(rep))) {
    note(Occurrence::ReplyDeliver, machine_id, h.callsite_id, seq);
  } else {
    note(Occurrence::StrayReply, machine_id, h.callsite_id, seq);
  }
}

RmiSystem::DecodedCall RmiSystem::decode_call(std::uint16_t machine_id,
                                              net::Envelope env) {
  net::Machine& m = cluster_.machine(machine_id);
  MachineContext& ctx = *contexts_.at(machine_id);
  const wire::MessageHeader& h = env.msg.header;
  const CompiledCallSite& site = callsite(h.callsite_id);
  const serial::CallSitePlan& plan = *site.plan;

  DecodedCall call;
  call.callsite_id = h.callsite_id;
  call.seq = h.seq;
  call.source = h.source_machine;
  call.target_export = h.target_export;
  call.deadline_ns = h.deadline_ns;
  call.oneway = (h.flags & wire::kFlagOneway) != 0;

  // Scalars.
  const std::size_t nscalars = env.msg.payload.get_varint();
  // Skeleton machinery (generic vs generated unmarshaler).
  charge_stub(machine_id, site, plan.args.size(), nscalars);
  call.scalars.resize(nscalars);
  for (auto& s : call.scalars) s = env.msg.payload.get_i64();

  // Object arguments.
  serial::SerialStats pass;
  serial::SerialReader reader(
      class_plans_, m.heap(), pass, plan.needs_cycle_table,
      pass_trace(trace::EventKind::Deserialize, machine_id, h.callsite_id,
                 h.seq));
  // Zero-copy receive: argument decodes from a pinned frame may borrow
  // large primitive-array rows straight out of it (threshold shared with
  // the send-side gather — the crossover is the same iovec-vs-memcpy trade
  // in the other direction).
  if (cluster_.cost().zero_copy_receive) {
    reader.enable_borrow(cluster_.cost().gather_min_borrow_bytes);
  }
  call.args.assign(plan.args.size(), nullptr);
  std::vector<om::ObjRef> cached;
  if (plan.reuse_args) {
    call.slot = &reuse_slot(ctx, /*ret_side=*/false, h.callsite_id,
                            plan.args.size());
    std::scoped_lock lock(call.slot->mu);
    cached = call.slot->cached;
    // Guard against concurrent executions of this unmarshaler (Fig. 13:
    // "temp_arr = null" while in use).
    std::fill(call.slot->cached.begin(), call.slot->cached.end(), nullptr);
    // The slot is detached: if the decode throws mid-argument, the reader
    // must release the old graphs (even ones the stream never reached).
    reader.adopt_cache_roots(cached);
  }
  for (std::size_t i = 0; i < call.args.size(); ++i) {
    if (call.slot != nullptr) {
      call.args[i] = reader.read_reusing(env.msg.payload, *plan.args[i],
                                         cached[i]);
    } else {
      call.args[i] = reader.read(env.msg.payload, *plan.args[i]);
    }
  }
  account(machine_id, h.callsite_id, pass);
  return call;
}

void RmiSystem::execute_call(std::uint16_t machine_id, DecodedCall& call,
                             std::span<const std::int64_t> scalars) {
  net::Machine& m = cluster_.machine(machine_id);
  MachineContext& ctx = *contexts_.at(machine_id);
  const CompiledCallSite& site = callsite(call.callsite_id);
  const bool local = call.source == machine_id;
  m.clock().advance(SimTime::nanos(cluster_.cost().upcall_dispatch_ns));

  const ReplyToken token{call.callsite_id, call.seq, call.source, machine_id,
                         call.oneway};
  HandlerResult res;
  // How the call is answered; a Reject carries `code` and res.error.
  wire::MsgKind kind = wire::MsgKind::Return;
  wire::RejectCode code = wire::RejectCode::Cancelled;
  // Reuse-slot boundary poll #1 (remote calls only — a local call has no
  // cancel token and already passed the caller's gate): a call cancelled
  // (or expired) while it sat in the executor queue is refused without
  // running the handler.
  if (call.cancel && call.cancel->requested()) {
    note(Occurrence::CancelHonored, machine_id, call.callsite_id, call.seq);
    kind = wire::MsgKind::Reject;
    res.error = "cancelled before execution at " + site_desc(call.callsite_id);
  } else if (!local && call.deadline_ns != 0 &&
             m.clock().now().as_nanos() >= call.deadline_ns) {
    note(Occurrence::DeadlineReject, machine_id, call.callsite_id, call.seq);
    kind = wire::MsgKind::Reject;
    code = wire::RejectCode::DeadlineExceeded;
    res.error = "deadline expired before execution at " +
                site_desc(call.callsite_id);
  } else {
    const std::int64_t handler_start_ns = local ? 0 : span_start(machine_id);
    try {
      om::ObjRef self = nullptr;
      {
        std::scoped_lock lock(ctx.exports_mu);
        // Externally-derived index: a bad export id becomes a remote
        // exception at the caller, not a callee abort.
        if (call.target_export >= ctx.exports.size()) {
          throw Error("unknown export id " +
                      std::to_string(call.target_export));
        }
        self = ctx.exports[call.target_export];
      }
      CallContext cc(*this, m, self, token, call.deadline_ns,
                     call.cancel.get());
      // Nested invokes inherit the remaining budget via the ambient
      // deadline (minus ExecutorConfig::deadline_slack_ns per hop).
      const ThreadLocalScope<std::int64_t> scope(t_ambient_deadline_ns,
                                                 call.deadline_ns);
      res = methods_[site.method_id].second(cc, scalars, call.args);
      if (res.is_exception) kind = wire::MsgKind::Exception;
    } catch (const DeadlineExceeded& e) {
      // A nested invoke that failed fast on deadline or admission
      // propagates its *typed* verdict to this call's caller (as a Reject,
      // which the caller maps back), so a deep chain fails with the true
      // reason.  A local caller sees any failure as a RemoteException.
      res = HandlerResult::exception(e.what());
      kind = wire::MsgKind::Reject;
      code = wire::RejectCode::DeadlineExceeded;
    } catch (const Overload& e) {
      res = HandlerResult::exception(e.what());
      kind = wire::MsgKind::Reject;
      code = wire::RejectCode::Overload;
    } catch (const Error& e) {
      res = HandlerResult::exception(e.what());
      kind = wire::MsgKind::Exception;
    }
    if (!local) {
      note(Occurrence::HandlerRun, machine_id, call.callsite_id, call.seq,
           handler_start_ns);
    }
    // Reuse-slot boundary poll #2: a cancel that arrived while the handler
    // ran abandons the computed reply — the caller is gone; the tombstone
    // answers any duplicate with Cancelled instead of re-execution.
    if (!res.deferred && call.cancel && call.cancel->requested()) {
      note(Occurrence::CancelHonored, machine_id, call.callsite_id, call.seq);
      kind = wire::MsgKind::Reject;
      code = wire::RejectCode::Cancelled;
      res.error = "reply abandoned after cancellation at " +
                  site_desc(call.callsite_id);
    }
  }

  // From the reply on, every reply this thread's sends claim is held
  // until the call ends (held_replies_), after the charges below, and then
  // released in the order it was claimed.
  struct Hold {
    std::vector<HeldReply> replies;
    std::vector<HeldReply>* saved;
    Hold() : saved(std::exchange(held_replies_, &replies)) {}
    ~Hold() {
      held_replies_ = saved;
      for (HeldReply& r : replies) r.promise.set_value(std::move(r.reply));
    }
    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;
  } hold;
  // Reply first: the return value may alias the argument graphs, so the
  // arguments stay live until the reply is serialized (as a GC would
  // ensure).  Handlers whose *deferred* reply uses argument data must set
  // args_consumed and manage the graphs themselves.
  if (!res.deferred) {
    answer(token, kind, res.value, res.give_ownership, res.error, code);
  }
  if (call.slot != nullptr) {
    RMIOPT_CHECK(!res.args_consumed,
                 "reuse_args call site must not consume its arguments");
    {
      // Retain for the next invocation (§3.3): the slot takes this call's
      // graphs, and call.args what the slot held — all null unless another
      // execution of this site (dispatch_workers >= 2) put its arguments
      // back meanwhile.  Nothing holds those any more: they are freed now.
      std::scoped_lock lock(call.slot->mu);
      call.slot->cached.swap(call.args);
    }
    if (std::any_of(call.args.begin(), call.args.end(),
                    [](om::ObjRef o) { return o != nullptr; })) {
      serial::SerialStats freep;
      free_graphs(m.heap(), call.args, freep);
      account(machine_id, call.callsite_id, freep);
    }
  } else if (!res.args_consumed) {
    serial::SerialStats freep;
    free_graphs(m.heap(), call.args, freep);
    account(machine_id, call.callsite_id, freep);
  }
  // The cancellation flag is only live while the call is here: once the
  // reply (or reject) is decided, a late cancel has lost the race.
  if (call.cancel) {
    std::scoped_lock lock(ctx.cancel_mu);
    ctx.cancel_tokens.erase(call_key(call.source, call.seq));
  }
}

RmiStatsSnapshot RmiSystem::callsite_stats(std::uint32_t callsite_id) const {
  std::scoped_lock lock(site_stats_mu_);
  auto it = site_stats_.find(callsite_id);
  return it == site_stats_.end() ? RmiStatsSnapshot{} : it->second;
}

std::string RmiSystem::report() const {
  std::string out =
      "call site                                 level                 "
      "local      remote     reused     new(KB)    cycle lookups\n";
  for (std::size_t id = 0; id < callsites_.size(); ++id) {
    const RmiStatsSnapshot s =
        callsite_stats(static_cast<std::uint32_t>(id));
    char line[256];
    std::snprintf(line, sizeof line,
                  "%-40s  %-20s  %-9llu  %-9llu  %-9llu  %-9.1f  %llu\n",
                  callsites_[id].plan->name.c_str(),
                  std::string(codegen::to_string(callsites_[id].level))
                      .c_str(),
                  static_cast<unsigned long long>(s.local_rpcs),
                  static_cast<unsigned long long>(s.remote_rpcs),
                  static_cast<unsigned long long>(s.serial.objects_reused),
                  static_cast<double>(s.serial.bytes_allocated) / 1024.0,
                  static_cast<unsigned long long>(s.serial.cycle_lookups));
    out += line;
  }
  return out;
}

CallSiteProfile RmiSystem::export_profile() const {
  CallSiteProfile profile;
  for (std::size_t id = 0; id < callsites_.size(); ++id) {
    const std::uint32_t tag = callsites_[id].tag;
    if (tag == 0) continue;  // hand-built site: no compile-time identity
    const RmiStatsSnapshot s = callsite_stats(static_cast<std::uint32_t>(id));
    CallSiteProfileRow& row = profile.by_tag[tag];
    row.tag = tag;
    row.invocations += s.local_rpcs + s.remote_rpcs;
    row.remote_rpcs += s.remote_rpcs;
    row.reused_objects += s.serial.objects_reused;
    row.cycle_lookups += s.serial.cycle_lookups;
    row.bytes_allocated += s.serial.bytes_allocated;
  }
  return profile;
}

RmiStatsSnapshot RmiSystem::stats(std::uint16_t machine) const {
  return contexts_.at(machine)->stats.snapshot();
}

RmiStatsSnapshot RmiSystem::total_stats() const {
  RmiStatsSnapshot total;
  for (const auto& ctx : contexts_) total += ctx->stats.snapshot();
  return total;
}

}  // namespace rmiopt::rmi
