#include "net/failure_detector.hpp"

#include <limits>

#include "support/error.hpp"

namespace rmiopt::net {

namespace {

// Heartbeat dice roll a stream disjoint from app traffic: the source
// machine is flagged so the (src, dst) link key can never collide with a
// real directed link's.
constexpr std::uint16_t kProbeSrcFlag = 0x8000;

}  // namespace

FailureDetector::FailureDetector(const FailureDetectorConfig& cfg,
                                 std::size_t machine_count,
                                 const FaultPlan* plan, NetworkStats& stats)
    : cfg_(cfg),
      machines_(machine_count),
      plan_(plan),
      stats_(stats),
      next_round_gate_(cfg.heartbeat_period_ns),
      next_round_ns_(cfg.heartbeat_period_ns),
      states_(machine_count) {
  RMIOPT_CHECK(cfg.monitor < machine_count,
               "failure-detector monitor is not a cluster machine");
  RMIOPT_CHECK(cfg.heartbeat_period_ns > 0,
               "heartbeat period must be positive");
  RMIOPT_CHECK(cfg.confirm_after_misses >= cfg.suspect_after_misses &&
                   cfg.suspect_after_misses > 0,
               "confirm threshold must be at or past the suspect threshold");
  liveness_ = std::make_unique<std::atomic<std::uint8_t>[]>(machine_count);
  for (std::size_t m = 0; m < machine_count; ++m) {
    liveness_[m].store(static_cast<std::uint8_t>(Liveness::Alive),
                       std::memory_order_relaxed);
  }
}

void FailureDetector::on_death(DeathCallback cb) {
  callbacks_.push_back(std::move(cb));
}

Liveness FailureDetector::liveness(std::uint16_t machine) const {
  if (machine >= machines_) return Liveness::Alive;
  return static_cast<Liveness>(liveness_[machine].load(
      std::memory_order_acquire));
}

SimTime FailureDetector::declared_dead_at(std::uint16_t machine) const {
  std::scoped_lock lock(mu_);
  const std::int64_t at = states_.at(machine).dead_at_ns;
  return at < 0 ? SimTime() : SimTime::nanos(at);
}

void FailureDetector::poll(SimTime now) {
  const std::int64_t now_ns = now.as_nanos();
  if (now_ns < next_round_gate_.load(std::memory_order_relaxed)) return;
  std::vector<std::pair<std::uint16_t, SimTime>> deaths;
  {
    std::scoped_lock lock(mu_);
    while (!halted_ && next_round_ns_ <= now_ns) {
      run_round(next_round_ns_, deaths);
      ++round_;
      next_round_ns_ += cfg_.heartbeat_period_ns;
      next_round_gate_.store(next_round_ns_, std::memory_order_relaxed);
    }
    if (halted_) {
      next_round_gate_.store(std::numeric_limits<std::int64_t>::max(),
                             std::memory_order_relaxed);
    }
  }
  // Callbacks run unlocked: they may send RMIs or take unrelated locks.
  // Latching under mu_ guarantees each death is in exactly one thread's
  // `deaths` batch, so observers fire exactly once per machine.
  for (const auto& [machine, at] : deaths) {
    for (const DeathCallback& cb : callbacks_) cb(machine, at);
  }
}

void FailureDetector::run_round(
    std::int64_t round_ns,
    std::vector<std::pair<std::uint16_t, SimTime>>& deaths) {
  if (plan_ != nullptr && plan_->crashed(cfg_.monitor, round_ns)) {
    // The membership anchor itself died; probing stops (header caveat).
    halted_ = true;
    return;
  }
  for (std::uint16_t m = 0; m < machines_; ++m) {
    if (m == cfg_.monitor) continue;
    State& st = states_[m];
    if (st.dead_at_ns >= 0) continue;  // death is latched
    bool heard = true;
    if (plan_ != nullptr && plan_->crashed(m, round_ns)) {
      // A crash exactly at the round boundary counts as a miss: crashed()
      // is inclusive, matching the transport's frame-level semantics.
      heard = false;
    } else if (plan_ != nullptr) {
      // Probes cross the same lossy link as m -> monitor app traffic,
      // rolled on a disjoint seeded stream (keyed by round, so skipped
      // rounds of other machines never shift it).  No ARQ for probes: the
      // miss bookkeeping below IS the protocol.
      const double p = plan_->link(m, cfg_.monitor).drop;
      if (p > 0.0) {
        SplitMix64 roll = plan_->dice(m | kProbeSrcFlag, cfg_.monitor,
                                      round_, 0);
        heard = roll.next_double() >= p;
      }
    }
    if (heard) {
      stats_.note(Occurrence::Heartbeat, m, cfg_.monitor, round_, round_ns);
      st.misses = 0;
      if (liveness_[m].load(std::memory_order_relaxed) ==
          static_cast<std::uint8_t>(Liveness::Suspected)) {
        liveness_[m].store(static_cast<std::uint8_t>(Liveness::Alive),
                           std::memory_order_release);
      }
      continue;
    }
    stats_.note(Occurrence::HeartbeatMiss, m, cfg_.monitor, round_, round_ns);
    ++st.misses;
    if (st.misses == cfg_.suspect_after_misses &&
        cfg_.suspect_after_misses < cfg_.confirm_after_misses) {
      liveness_[m].store(static_cast<std::uint8_t>(Liveness::Suspected),
                         std::memory_order_release);
      stats_.note(Occurrence::Suspected, m, cfg_.monitor, round_, round_ns);
    }
    if (st.misses >= cfg_.confirm_after_misses) {
      st.dead_at_ns = round_ns;
      liveness_[m].store(static_cast<std::uint8_t>(Liveness::Dead),
                         std::memory_order_release);
      stats_.note(Occurrence::Dead, m, cfg_.monitor, round_, round_ns);
      deaths.emplace_back(m, SimTime::nanos(round_ns));
    }
  }
}

}  // namespace rmiopt::net
