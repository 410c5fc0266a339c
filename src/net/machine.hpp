// A simulated cluster node: heap + virtual clock + message inbox.
//
// Receive semantics follow the paper's modified GM (§5): the runtime polls
// the network from user level when it has nothing else to do; a message
// that was already pending when the receiver looked costs only a poll
// (recv_poll_ns), while a message the receiver had to *wait* for wakes the
// blocked kernel poll thread (poll_wakeup_ns) and merges the arrival time
// into the receiver's clock.
//
// Who receives.  A message is normally taken by a thread blocked in
// receive_blocking (the RMI runtime's dispatcher).  A message the machine
// would take at once — its inbox is empty, a receiver is blocked and no
// claimed call is being served — is first offered to the installed claim
// hook on the sending thread, as a Manta thread that waits for a message
// polls it off the network itself.  A claimed message is charged exactly
// as receive_blocking would charge it and never wakes the blocked
// receiver.  Two kinds are offered:
//  * a reply (Return, Ack, Exception or Reject), which the hook hands to
//    the caller waiting for it.  A machine that is sent a call after it
//    has taken a reply both calls and serves: its callers and its
//    receiver then advance its one clock concurrently, and the virtual
//    times depend on the order in which the threads happen to run.  A
//    reply claim would change that order (the caller resumes a thread
//    handoff earlier), so such a machine never offers a reply again;
//  * a call, which the claiming thread then serves itself.  The machine
//    is busy from the claim until release(): the receiver takes nothing,
//    nothing is offered, and every message that arrives queues in order,
//    exactly as it would behind a receiver busy with that call.
// Every other message, and every message the hook declines, queues.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "net/clock.hpp"
#include "net/transport.hpp"
#include "objmodel/heap.hpp"
#include "serial/cost_model.hpp"
#include "support/frame_pool.hpp"
#include "wire/protocol.hpp"
#include "wire/session.hpp"

namespace rmiopt::net {

struct Envelope {
  wire::Message msg;
  SimTime arrival;  // virtual time the message reaches the receiver's NIC
};

class Machine {
 public:
  // Dedup verdicts are reported through `stats`, the cluster's.
  Machine(std::uint16_t id, const om::TypeRegistry& types,
          const serial::CostModel& cost, NetworkStats& stats)
      : id_(id), heap_(types), cost_(cost), stats_(stats) {}
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  std::uint16_t id() const { return id_; }
  om::Heap& heap() { return heap_; }
  VirtualClock& clock() { return clock_; }

  // Receive-ring freelist for the zero-copy delivery path; transports
  // acquire a block here when CostModel::zero_copy_receive is on.  Only
  // ever touched with the knob on, so its counters stay zero otherwise.
  support::FramePool& frame_pool() { return pool_; }

  // Called by the cluster: enqueue a message that arrives at `arrival`,
  // unless the claim hook takes it (see below).
  void deliver(wire::Message msg, SimTime arrival);

  // Offered a message this machine would take at once (see the top of
  // this file); runs on the sending thread under the inbox lock, so it
  // may only decide and take.  To decline, it returns false without
  // touching `env`, which then queues intact.  To claim, it calls `charge`
  // exactly once — the GM receive, as receive_blocking would apply it —
  // then takes `env.msg` and returns true; a claimed call leaves the
  // machine busy until release().  The hook must not call back into this
  // machine.
  using Claim =
      std::function<bool(Envelope& env, const std::function<void()>& charge)>;
  // Installs (or, with an empty hook, removes) the claim hook under the
  // inbox lock: once this returns, deliver() no longer runs the old one.
  void set_claim(Claim claim);

  // Ends the busy state a claimed call started, once its claimer has
  // served it: the blocked receiver then takes what queued meanwhile.
  void release();

  // Threads currently blocked in receive_blocking with nothing to take.
  std::size_t blocked_receivers() const;

  // Receive-side NIC dedup: classifies `link_seq` of a frame arriving
  // from `src` against this machine's per-source sliding window.  Only a
  // Fresh verdict may be delivered; Duplicate (ARQ retransmit or injected
  // copy) and Stale (reordered copy behind the window) must be discarded
  // by the transport.  A discard is noted as a DedupDrop, a delayed frame
  // delivered below a forced horizon as a DedupLateRecovery.
  wire::DedupWindow::Verdict accept_link_seq(std::uint16_t src,
                                             std::uint64_t link_seq);

  // Blocks until a message is available, or the machine is closed, and
  // no claimed call is being served.  Applies the GM poll/wakeup cost
  // model to the virtual clock.
  std::optional<Envelope> receive_blocking();

  // After close(), receive_blocking drains the queue and then returns
  // nullopt.
  void close();

  // Adds the counters this machine's receive path keeps without events —
  // its windows' forced slides and expiries (over all source links) and
  // its frame pool's hits and misses — to `s`.
  void add_receive_counters(NetworkStats::Snapshot& s) const;

 private:
  const std::uint16_t id_;
  om::Heap heap_;
  VirtualClock clock_;
  const serial::CostModel& cost_;
  NetworkStats& stats_;
  support::FramePool pool_;

  // Applies the GM poll/wakeup cost model for a message that arrives at
  // `arrival` and is taken now.  Both receive paths (receive_blocking and
  // a claim) call it under mu_.
  void charge_receive(SimTime arrival);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Envelope> inbox_;
  std::unordered_map<std::uint16_t, wire::DedupWindow> dedup_;  // by source
  bool closed_ = false;
  std::size_t blocked_receivers_ = 0;
  Claim claim_;
  bool busy_ = false;        // a claimed call is being served
  bool took_reply_ = false;  // a reply has arrived here
  bool serves_too_ = false;  // then a call did: replies are never offered
  // Virtual time of the last receive: a host that drained the network
  // recently is considered to be polling (no kernel wakeup charge).
  SimTime last_receive_;
};

}  // namespace rmiopt::net
