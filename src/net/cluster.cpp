#include "net/cluster.hpp"

#include "support/error.hpp"

namespace rmiopt::net {

Cluster::Cluster(std::size_t machine_count, const om::TypeRegistry& types,
                 const serial::CostModel& cost, TransportKind transport,
                 const wire::SessionConfig& session, const FaultPlan& faults,
                 const FailureDetectorConfig& detector)
    : cost_(cost),
      stats_([this](std::uint16_t m) {
        return machines_[m]->clock().now().as_nanos();
      }),
      transport_(make_transport(transport, cost_, stats_)) {
  RMIOPT_CHECK(machine_count >= 1, "cluster needs at least one machine");
  if (faults.enabled()) {
    transport_ = std::make_unique<FaultyTransport>(
        cost_, stats_, std::move(transport_), faults);
  }
  if (detector.enabled) {
    // The detector reads the crash schedule and the heartbeat-drop dice
    // straight from the installed plan (null when the plan is inert: every
    // expected probe then hits and no machine is ever declared dead).
    const auto* faulty = dynamic_cast<FaultyTransport*>(transport_.get());
    detector_ = std::make_unique<FailureDetector>(
        detector, machine_count, faulty != nullptr ? &faulty->plan() : nullptr,
        stats_);
  }
  machines_.reserve(machine_count);
  for (std::size_t i = 0; i < machine_count; ++i) {
    machines_.push_back(std::make_unique<Machine>(
        static_cast<std::uint16_t>(i), types, cost_, stats_));
  }
  sessions_.resize(machine_count * machine_count);
  for (std::size_t s = 0; s < machine_count; ++s) {
    for (std::size_t d = 0; d < machine_count; ++d) {
      if (s == d) continue;
      // Retransmit/NACK timers are virtual time the *sender* spends
      // waiting, so they are charged to the source machine.
      Machine& src = *machines_[s];
      const auto to = static_cast<std::uint16_t>(d);
      sessions_[s * machine_count + d] = std::make_unique<wire::Session>(
          src.id(), to, session,
          [this, &src, to](wire::Occurrence what, std::uint64_t link_seq,
                           std::int64_t wait_ns, std::uint32_t count,
                           std::uint64_t bytes) {
            if (wait_ns > 0) src.clock().advance(SimTime::nanos(wait_ns));
            stats_.note(what, src.id(), to, link_seq, wait_ns, count, bytes);
          });
    }
  }
}

wire::Session& Cluster::session(std::uint16_t src, std::uint16_t dst) {
  return *sessions_[static_cast<std::size_t>(src) * machines_.size() + dst];
}

void Cluster::send(wire::Message msg) {
  const auto src = msg.header.source_machine;
  const auto dst = msg.header.dest_machine;
  RMIOPT_CHECK(src < machines_.size() && dst < machines_.size(),
               "message addressed to unknown machine");
  RMIOPT_CHECK(src != dst, "loopback messages do not cross the network");

  Machine& sender = *machines_[src];
  Machine& receiver = *machines_[dst];
  // Fast-fail: the sender's clock drives the probe rounds, and traffic to
  // (or from) a confirmed-dead machine is refused before it queues.
  if (detector_ != nullptr) {
    detector_->poll(sender.clock().now());
    fail_if_dead(src, dst);
  }
  // The sink runs under the session lock, so one link's frames reach the
  // transport — and the receiver's inbox — in link_seq order even when
  // several threads send concurrently.
  session(src, dst).post(std::move(msg), [&](const wire::Frame& frame) {
    if (detector_ != nullptr) {
      // Re-check between ARQ attempts: the backoff just charged may have
      // crossed enough probe rounds to confirm the peer dead, in which
      // case the in-flight frame is abandoned mid-budget.
      detector_->poll(sender.clock().now());
      fail_if_dead(src, dst);
    }
    return transport_->submit(sender, receiver, frame);
  });
}

void Cluster::fail_if_dead(std::uint16_t src, std::uint16_t dst) const {
  if (detector_->dead(dst)) {
    throw MachineDeadError(
        dst, "machine " + std::to_string(dst) +
                 " declared dead by the failure detector; dropping traffic "
                 "from machine " + std::to_string(src));
  }
  if (detector_->dead(src)) {
    throw MachineDeadError(
        src, "local machine " + std::to_string(src) +
                 " declared dead by the failure detector; refusing to send");
  }
}

void Cluster::flush() {
  for (std::size_t s = 0; s < machines_.size(); ++s) {
    for (std::size_t d = 0; d < machines_.size(); ++d) {
      if (s == d) continue;
      session(static_cast<std::uint16_t>(s), static_cast<std::uint16_t>(d))
          .flush([&](const wire::Frame& frame) {
            return transport_->submit(*machines_[s], *machines_[d], frame);
          });
    }
  }
}

std::size_t Cluster::queued_messages() const {
  std::size_t n = 0;
  for (const auto& s : sessions_) {
    if (s != nullptr) n += s->queued();
  }
  return n;
}

void Cluster::shutdown() {
  flush();
  for (auto& m : machines_) m->close();
}

NetworkStats::Snapshot Cluster::stats() const {
  NetworkStats::Snapshot total = stats_.snapshot();
  for (const auto& m : machines_) m->add_receive_counters(total);
  return total;
}

SimTime Cluster::makespan() const {
  SimTime t;
  for (const auto& m : machines_) t = max(t, m->clock().now());
  return t;
}

}  // namespace rmiopt::net
