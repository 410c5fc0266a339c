// A simulated cluster node: heap + virtual clock + message inbox.
//
// Receive semantics follow the paper's modified GM (§5): the runtime polls
// the network from user level when it has nothing else to do; a message
// that was already pending when the receiver looked costs only a poll
// (recv_poll_ns), while a message the receiver had to *wait* for wakes the
// blocked kernel poll thread (poll_wakeup_ns) and merges the arrival time
// into the receiver's clock.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
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

  // Called by the cluster: enqueue a message that arrives at `arrival`.
  void deliver(wire::Message msg, SimTime arrival);

  // Receive-side NIC dedup: classifies `link_seq` of a frame arriving
  // from `src` against this machine's per-source sliding window.  Only a
  // Fresh verdict may be delivered; Duplicate (ARQ retransmit or injected
  // copy) and Stale (reordered copy behind the window) must be discarded
  // by the transport.  A discard is noted as a DedupDrop, a delayed frame
  // delivered below a forced horizon as a DedupLateRecovery.
  wire::DedupWindow::Verdict accept_link_seq(std::uint16_t src,
                                             std::uint64_t link_seq);

  // Blocks until a message is available or the machine is closed.
  // Applies the GM poll/wakeup cost model to the virtual clock.
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

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Envelope> inbox_;
  std::unordered_map<std::uint16_t, wire::DedupWindow> dedup_;  // by source
  bool closed_ = false;
  // Virtual time of the last receive: a host that drained the network
  // recently is considered to be polling (no kernel wakeup charge).
  SimTime last_receive_;
};

}  // namespace rmiopt::net
