// The pluggable transport layer.
//
// A Transport moves framed messages between two machines and charges the
// virtual cost of doing so.  The Myrinet/GM arithmetic of the paper (§5)
// — send-descriptor overhead, one-way latency, bandwidth, fragmentation —
// lives in the shared base class, so every backend prices traffic
// identically and makespans are backend-independent; what a backend
// chooses is the *mechanism*:
//
//  * SimTransport — the byte-oriented network model: every frame is
//    serialized to its physical image (wire/framing.hpp), "transmitted",
//    decoded at the receiver's NIC, and run through the receiver's
//    per-link dedup window.  This is the default and exercises the
//    framing layer (including its checksum) on every message.
//  * LoopbackTransport — in-process delivery: frames move as structs,
//    no byte image exists.  Proves the runtime above never depends on
//    the frame encoding, and is the natural seat for future co-located
//    (shared-memory) backends.
//  * FaultyTransport — a decorator around either backend that executes a
//    seeded net::FaultPlan: frames are dropped, duplicated, delivered
//    stale (reorder), or bit-flipped, and machines crash at scheduled
//    virtual times.  Its submit() reports the outcome so the session's
//    ARQ can retransmit; every wasted transmission is charged through
//    the same charge_and_schedule path as healthy traffic, keeping runs
//    reproducible seed for seed.
//
// Every backend reports its flights and faults through the cluster's one
// NetworkStats; none keeps counters of its own.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "net/fault.hpp"
#include "serial/cost_model.hpp"
#include "support/sim_time.hpp"
#include "trace/trace.hpp"
#include "wire/framing.hpp"
#include "wire/session.hpp"

namespace rmiopt::net {

class Machine;

using wire::Occurrence;

// The network stack's counters and its one reporting point.
//
// Everything the network counts or traces is a wire::Occurrence: the
// sessions' enqueues, frames, retransmits and NACKs, the transports'
// flights and injected faults, the receive windows' verdicts and the
// failure detector's probe rounds.  note() looks each one up in one table
// (transport.cpp, docs/OBSERVABILITY.md) that names its counter(s) and
// amounts and its trace event and track; it bumps the counters and, with
// a recorder attached, records the event, so a counter and the event for
// the same occurrence cannot disagree.  net::Cluster owns the one
// instance and hands it to every layer below it.
class NetworkStats {
 public:
  struct Snapshot {
    std::uint64_t messages = 0;   // logical wire::Messages carried
    std::uint64_t bytes = 0;      // charged wire bytes (header + payload)
    std::uint64_t frames = 0;     // physical frames transmitted
    std::uint64_t coalesced = 0;  // messages that shared a frame with others
    std::uint64_t gathered_messages = 0;  // messages sent scatter-gather

    // Receive-side frame pooling (filled in by Cluster::stats() from the
    // per-machine pools; both zero unless CostModel::zero_copy_receive
    // routed delivery through pooled, pinned frame buffers).
    std::uint64_t frame_pool_hits = 0;    // deliveries served by the freelist
    std::uint64_t frame_pool_misses = 0;  // freelist dry: fresh buffer

    // Fault/reliability counters — all zero on a healthy network.
    std::uint64_t dropped = 0;      // frames lost in transit
    std::uint64_t duplicated = 0;   // extra copies injected
    std::uint64_t reordered = 0;    // stale copies delivered late
    std::uint64_t corrupted = 0;    // frames rejected by the checksum
    std::uint64_t retransmits = 0;  // ARQ re-sends of an undelivered frame
    std::uint64_t dedup_hits = 0;   // frames discarded by a receive window

    // Receive-window health — all zero on a healthy network.  Slides and
    // expiries are the windows' own (Machine::add_receive_counters).
    std::uint64_t dedup_forced_slides = 0;   // horizon forced past a gap
    std::uint64_t dedup_late_recoveries = 0; // delayed frames still delivered
    std::uint64_t dedup_skipped_expired = 0; // gap entries that aged out

    // Failure detection (all zero with the detector disabled, the
    // default).
    std::uint64_t heartbeats = 0;        // probes that reached the monitor
    std::uint64_t heartbeat_misses = 0;  // expected probes that did not
    std::uint64_t suspicions = 0;        // machines marked Suspected
    std::uint64_t machine_deaths = 0;    // machines confirmed dead

    Snapshot& operator+=(const Snapshot& o);

    std::uint64_t faults() const {
      return dropped + duplicated + reordered + corrupted;
    }

    // Field-by-field equality (the determinism tests compare whole runs).
    friend bool operator==(const Snapshot&, const Snapshot&) = default;
  };

  // Reads machine `m`'s virtual clock in nanoseconds.  note() calls it
  // only with a recorder attached, for the rows stamped "now".
  using ClockFn = std::function<std::int64_t(std::uint16_t m)>;

  explicit NetworkStats(ClockFn now_ns = nullptr)
      : now_ns_(std::move(now_ns)) {}
  NetworkStats(const NetworkStats&) = delete;
  NetworkStats& operator=(const NetworkStats&) = delete;

  // Reports one occurrence on the link `machine` -> `peer` (for the
  // detector's verdicts, on machine `machine`).  `seq` is the frame's
  // link_seq or the probe round.  `ns` is the wait that just ended on the
  // sender (Retransmit, Nack), the frame's arrival time (Flight) or the
  // probe round's virtual time (detector rows); other rows ignore it.
  // `count`, `bytes` and `gathered` are the frame's messages, bytes and
  // scatter-gather messages, for the rows whose amounts use them.  Without
  // a recorder, note() bumps counters and reads no clock.
  void note(Occurrence what, std::uint16_t machine, std::uint16_t peer,
            std::uint64_t seq, std::int64_t ns = 0, std::uint32_t count = 0,
            std::uint64_t bytes = 0, std::uint32_t gathered = 0);

  Snapshot snapshot() const;

  // Attaches a trace recorder (nullptr detaches).  Call before traffic
  // flows.
  void set_recorder(trace::Recorder* recorder) { recorder_ = recorder; }
  trace::Recorder* recorder() const { return recorder_; }

 private:
  const ClockFn now_ns_;
  trace::Recorder* recorder_ = nullptr;
  // Bumped and read field by field through relaxed std::atomic_ref:
  // senders on different links, dispatchers and detector polls note
  // concurrently, and the per-frame path takes no lock.
  mutable Snapshot live_;
};

enum class TransportKind {
  Sim,       // byte-framed Myrinet/GM model (default)
  Loopback,  // in-process struct delivery, same cost model
};

class Transport {
 public:
  Transport(const serial::CostModel& cost, NetworkStats& stats)
      : cost_(cost), stats_(stats) {}
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // Moves `frame` from `sender` to `receiver`: charges the sender's
  // clock, computes the arrival time, and delivers every member message
  // to the receiver's inbox (all with the frame's arrival time — the
  // frame crosses the wire as one unit).  Returns the attempt's outcome
  // so the session ARQ can retransmit; the healthy backends always
  // deliver (duplicates discarded by the receive window still count as
  // Delivered — the receiver has the frame).
  virtual wire::SendOutcome submit(Machine& sender, Machine& receiver,
                                   const wire::Frame& frame) = 0;

  // Observes every frame a healthy backend is about to carry (called once
  // per submit, before delivery, from the sending thread).  Benches use it
  // to digest the physical frame image and prove backend equivalence; it
  // plays no part in delivery or cost.  nullptr detaches.
  using FrameProbe = std::function<void(std::uint16_t src, std::uint16_t dst,
                                        const wire::Frame& frame)>;
  virtual void set_frame_probe(FrameProbe probe) {
    frame_probe_ = std::move(probe);
  }

 protected:
  // Shared GM arithmetic: charges the sender the send-descriptor cost and
  // returns the frame's arrival time at the receiver's NIC (one-way
  // latency + bytes over the modelled bandwidth + per-fragment pipeline
  // overhead for frames larger than one MTU).
  SimTime charge_and_schedule(Machine& sender, std::size_t charged_bytes);

  // A healthy backend's departure of `frame`: charges it, notes its Flight
  // and shows it to the frame probe.  Returns its arrival time.
  SimTime depart(Machine& sender, const Machine& receiver,
                 const wire::Frame& frame);

  const serial::CostModel& cost_;
  NetworkStats& stats_;
  FrameProbe frame_probe_;
};

// Byte-framed network model: encode -> transmit -> decode -> dedup.
class SimTransport final : public Transport {
 public:
  using Transport::Transport;
  wire::SendOutcome submit(Machine& sender, Machine& receiver,
                           const wire::Frame& frame) override;
};

// In-process delivery: the frame never becomes bytes.
class LoopbackTransport final : public Transport {
 public:
  using Transport::Transport;
  wire::SendOutcome submit(Machine& sender, Machine& receiver,
                           const wire::Frame& frame) override;
};

// Decorator executing a seeded FaultPlan over an inner backend.  Every
// decision is a pure function of (plan seed, link, link_seq, attempt), so
// runs are reproducible regardless of thread timing; see net/fault.hpp.
class FaultyTransport final : public Transport {
 public:
  // The decorator reports its faults; the inner backend reports the
  // flights of whatever it actually delivers.
  FaultyTransport(const serial::CostModel& cost, NetworkStats& stats,
                  std::unique_ptr<Transport> inner, FaultPlan plan);

  wire::SendOutcome submit(Machine& sender, Machine& receiver,
                           const wire::Frame& frame) override;

  // The probe belongs on the inner backend: it should see what is actually
  // carried (retries, duplicates, late copies), not what the fault plan
  // swallowed.
  void set_frame_probe(FrameProbe probe) override {
    inner_->set_frame_probe(std::move(probe));
  }

  const FaultPlan& plan() const { return plan_; }

 private:
  struct LinkState {
    std::uint64_t last_seq = ~0ull;  // frame currently being attempted
    std::uint32_t attempt = 0;       // consecutive attempts of last_seq
    // A copy scheduled to arrive *late*: it is re-submitted (and then
    // discarded by the receive window as stale) behind the next frame on
    // this link — the only reordering a stop-and-wait link can exhibit.
    std::unique_ptr<wire::Frame> late;
  };

  LinkState& link_state(std::uint16_t src, std::uint16_t dst);

  const FaultPlan plan_;
  std::unique_ptr<Transport> inner_;
  std::mutex mu_;
  std::unordered_map<std::uint32_t, LinkState> links_;
};

std::unique_ptr<Transport> make_transport(TransportKind kind,
                                          const serial::CostModel& cost,
                                          NetworkStats& stats);

}  // namespace rmiopt::net
