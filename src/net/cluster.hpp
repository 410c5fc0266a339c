// The simulated cluster: N machines, one session per directed link, and a
// pluggable transport backend.
//
// send() routes a message through the (src,dst) session — which stamps
// the link sequence and applies the optional coalescing policy — and the
// resulting frames through the transport, which charges the sender's CPU
// for the GM send descriptor, computes the arrival time from one-way
// latency plus the frame's wire size over the modelled bandwidth, and
// delivers to the destination inbox.  Payload bytes are moved, never
// copied — the copy cost is charged virtually by the serializer's cost
// model.
//
// The cluster owns the network's one reporting point, a NetworkStats
// (net/transport.hpp) holding every counter and the recorder pointer,
// and hands it to the sessions, transport, machines and detector.
#pragma once

#include <memory>
#include <vector>

#include "net/failure_detector.hpp"
#include "net/fault.hpp"
#include "net/machine.hpp"
#include "net/transport.hpp"
#include "wire/session.hpp"

namespace rmiopt::net {

class Cluster {
 public:
  // With a non-trivial `faults` plan the chosen backend is wrapped in a
  // FaultyTransport and the plan executed; an all-zero plan (the default)
  // leaves the backend bare and the byte stream bit-for-bit identical to
  // a build without fault support.  An enabled `detector` config adds the
  // heartbeat failure detector: sends then poll probe rounds and fail
  // fast (MachineDeadError) once an endpoint is confirmed dead.
  Cluster(std::size_t machine_count, const om::TypeRegistry& types,
          const serial::CostModel& cost = {},
          TransportKind transport = TransportKind::Sim,
          const wire::SessionConfig& session = {},
          const FaultPlan& faults = {},
          const FailureDetectorConfig& detector = {});

  std::size_t size() const { return machines_.size(); }
  Machine& machine(std::size_t i) { return *machines_.at(i); }
  const serial::CostModel& cost() const { return cost_; }

  // Sends `msg` from its header's source machine to its dest machine.
  // With a coalescing session config, small replies may be held back
  // until a flush trigger (a Call on the same link, a full queue, or an
  // explicit flush()).  Throws ProtocolError when the link's ARQ exhausts
  // its retransmit budget (only possible under an active fault plan), or
  // the typed MachineDeadError subclass as soon as the failure detector
  // confirms either endpoint dead — in-ARQ frames included, so a call to
  // a dead machine fails in detection time, not retransmit-budget time.
  void send(wire::Message msg);

  // The failure detector (nullptr unless an enabled config was passed at
  // construction).  Callers outside the send path — e.g. an RMI caller
  // blocked on a reply — poll() it with makespan() so deaths are declared
  // even when no new traffic flows.
  FailureDetector* detector() { return detector_.get(); }

  // Forces every session's held-back messages out.
  void flush();

  // Messages currently held back in session coalescing queues, summed over
  // every directed link.  Zero after a flush; the runtime's stop() asserts
  // nothing is left stranded at shutdown.
  std::size_t queued_messages() const;

  // Flushes, then closes every machine's inbox (dispatchers drain and
  // stop).
  void shutdown();

  // Every network counter, plus the machines' receive-window and
  // frame-pool counters.
  NetworkStats::Snapshot stats() const;

  // The backend itself (for its frame probe).
  Transport& transport() { return *transport_; }

  // Attaches a trace recorder: sets the one pointer every layer's
  // occurrences are recorded through.  nullptr detaches.  Call before
  // traffic flows; the RMI runtime reads recorder() for its own spans.
  void set_recorder(trace::Recorder* recorder) {
    stats_.set_recorder(recorder);
  }
  trace::Recorder* recorder() const { return stats_.recorder(); }

  // Virtual makespan: the maximum clock across machines — the cluster-wide
  // "wall time" a benchmark reports.
  SimTime makespan() const;

 private:
  wire::Session& session(std::uint16_t src, std::uint16_t dst);
  // Throws MachineDeadError when the detector has confirmed either
  // endpoint dead.  Only called with detector_ present.
  void fail_if_dead(std::uint16_t src, std::uint16_t dst) const;

  serial::CostModel cost_;
  NetworkStats stats_;
  std::unique_ptr<Transport> transport_;
  std::unique_ptr<FailureDetector> detector_;
  std::vector<std::unique_ptr<Machine>> machines_;
  // Directed links, indexed src * size() + dst; the src == dst diagonal
  // is unused (local RMIs never reach the network).
  std::vector<std::unique_ptr<wire::Session>> sessions_;
};

}  // namespace rmiopt::net
