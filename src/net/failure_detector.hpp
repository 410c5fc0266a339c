// Heartbeat-based failure detection and cluster membership.
//
// Every machine except the monitor emits one liveness heartbeat per probe
// round to the monitor (machine 0 by default).  Rounds live on the
// *virtual* time axis at fixed multiples of
// `heartbeat_period_ns` and are executed lazily: any thread that observes
// the cluster's virtual clock past a round boundary runs the outstanding
// rounds, in order, under one lock.  A round's outcome for a machine is a
// pure function of (round index, the fault plan's crash schedule, the
// plan's seeded dice for the heartbeat link), never of which real thread
// happened to run it — so detection latency is deterministic seed-for-seed
// on both SimTransport and LoopbackTransport.
//
// Misses escalate: `suspect_after_misses` consecutive misses mark a
// machine Suspected, `confirm_after_misses` confirm it Dead.  Death is
// latched — a confirmed-dead machine never rejoins — and fires the
// registered callbacks exactly once (fast-fail in the RMI layer, rebinding
// in the name service).  A heartbeat is missed when the sender has crashed
// by the round time, or when the plan's seeded dice drop it on the wire
// (the same per-link drop probability app traffic sees); a hit resets the
// miss counter and clears suspicion.
//
// Heartbeats are modelled as NIC-level keepalives: a probe is rolled in
// place, never built as a message — it never enters a session, a
// transport or a machine's inbox, never charges a CPU clock, and never
// retransmits; a miss IS the protocol's signal.  This keeps the
// app-traffic timeline and its dedup windows untouched, so with the
// detector disabled (the default) nothing whatsoever changes, and with it
// enabled the virtual makespan of healthy traffic is unperturbed.  Every
// heartbeat, miss, suspicion and death is noted on the cluster's
// NetworkStats, stamped with its probe round's virtual time.
//
// Known limitation: the monitor is the membership anchor.  If the monitor
// itself crashes, probing halts and no further machine can be declared
// dead (its peers still fail over via the ARQ budget + the real-time
// backstop).  Apps that crash machines keep machine 0 alive.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "net/fault.hpp"
#include "net/transport.hpp"
#include "support/sim_time.hpp"

namespace rmiopt::net {

struct FailureDetectorConfig {
  bool enabled = false;
  // The machine that collects heartbeats and declares deaths.
  std::uint16_t monitor = 0;
  // Virtual time between probe rounds.  The default is one ARQ
  // retransmit timer (~ round trip + dispatch slack on the modelled GM
  // network), so detection resolves well inside one retransmit budget.
  std::int64_t heartbeat_period_ns = 40'000;
  // Consecutive misses before a machine is Suspected / confirmed Dead.
  // The confirm threshold also bounds false positives under lossy links:
  // with per-link drop rate p the chance of a spurious death per round is
  // p^confirm (6 misses at p = 0.08 is ~2.6e-7).
  std::size_t suspect_after_misses = 2;
  std::size_t confirm_after_misses = 6;

  // Worst-case detection latency: a machine that crashes just after
  // emitting round k is first missed at round k+1 and confirmed
  // `confirm_after_misses` rounds later.
  std::int64_t detection_budget_ns() const {
    return static_cast<std::int64_t>(confirm_after_misses + 1) *
           heartbeat_period_ns;
  }
};

enum class Liveness : std::uint8_t { Alive, Suspected, Dead };

class FailureDetector {
 public:
  // `declared_at` is the probe-round virtual time the death latched at.
  using DeathCallback =
      std::function<void(std::uint16_t machine, SimTime declared_at)>;

  // `plan` supplies the crash schedule and the heartbeat-drop dice;
  // nullptr (no faults installed) means every expected probe is a hit.
  // Probe rounds are noted on `stats`.  Both must outlive the detector
  // (the cluster owns all three).
  FailureDetector(const FailureDetectorConfig& cfg, std::size_t machine_count,
                  const FaultPlan* plan, NetworkStats& stats);

  // Registers a death observer.  Call before traffic flows (registration
  // is not synchronized against poll()); callbacks run outside the
  // detector lock, exactly once per machine, on whichever thread's poll
  // confirmed the death.  Callbacks must not re-enter poll().
  void on_death(DeathCallback cb);

  // Runs every probe round whose virtual time is <= now.  Cheap when no
  // round is due (one relaxed atomic load); safe to call concurrently.
  void poll(SimTime now);

  Liveness liveness(std::uint16_t machine) const;
  bool dead(std::uint16_t machine) const {
    return liveness(machine) == Liveness::Dead;
  }
  // Probe-round time the machine was confirmed dead at (SimTime() if it
  // has not been).
  SimTime declared_dead_at(std::uint16_t machine) const;

 private:
  struct State {
    std::size_t misses = 0;
    std::int64_t dead_at_ns = -1;
  };

  // Callers hold mu_.  Appends confirmed deaths to `deaths` instead of
  // firing callbacks inline (they run after the lock drops).
  void run_round(std::int64_t round_ns,
                 std::vector<std::pair<std::uint16_t, SimTime>>& deaths);

  const FailureDetectorConfig cfg_;
  const std::size_t machines_;
  const FaultPlan* const plan_;  // may be null: no faults, all probes hit
  NetworkStats& stats_;
  std::vector<DeathCallback> callbacks_;

  // Lock-free liveness view for the fast-fail hot path (Cluster::send
  // consults it per frame attempt).
  std::unique_ptr<std::atomic<std::uint8_t>[]> liveness_;
  // Fast-exit gate: the virtual time of the next unexecuted round.
  std::atomic<std::int64_t> next_round_gate_;

  mutable std::mutex mu_;
  std::int64_t next_round_ns_;  // under mu_; mirrors next_round_gate_
  std::uint64_t round_ = 0;     // index of the next round, for the dice
  bool halted_ = false;         // monitor crashed: probing stopped
  std::vector<State> states_;
};

}  // namespace rmiopt::net
