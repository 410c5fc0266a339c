#include "net/machine.hpp"

namespace rmiopt::net {

namespace {

bool is_reply(wire::MsgKind kind) {
  return kind == wire::MsgKind::Return || kind == wire::MsgKind::Ack ||
         kind == wire::MsgKind::Exception || kind == wire::MsgKind::Reject;
}

}  // namespace

void Machine::deliver(wire::Message msg, SimTime arrival) {
  {
    std::scoped_lock lock(mu_);
    const bool call = msg.header.kind == wire::MsgKind::Call;
    const bool reply = is_reply(msg.header.kind);
    // A call after a reply: the machine calls and serves, and from now on
    // never offers a reply (see machine.hpp).
    if (call && took_reply_) serves_too_ = true;
    took_reply_ = took_reply_ || reply;
    Envelope env{std::move(msg), arrival};
    // Only a message the machine would take at once may skip the inbox.
    // Behind a queued message, or while the receiver (or a claimer) is
    // busy, it queues: a claim then would let it overtake the messages
    // waiting ahead of it.
    const bool idle = claim_ && inbox_.empty() && blocked_receivers_ > 0 &&
                      !closed_ && !busy_;
    if (idle && (call || (reply && !serves_too_)) &&
        claim_(env, [&] { charge_receive(arrival); })) {
      busy_ = call;
      return;
    }
    inbox_.push_back(std::move(env));
  }
  cv_.notify_all();
}

void Machine::set_claim(Claim claim) {
  std::scoped_lock lock(mu_);
  claim_ = std::move(claim);
}

void Machine::release() {
  bool wake = false;
  {
    std::scoped_lock lock(mu_);
    busy_ = false;
    wake = !inbox_.empty() || closed_;
  }
  // Waking a receiver with nothing to take would cost a thread handoff.
  if (wake) cv_.notify_all();
}

std::size_t Machine::blocked_receivers() const {
  std::scoped_lock lock(mu_);
  return blocked_receivers_;
}

wire::DedupWindow::Verdict Machine::accept_link_seq(std::uint16_t src,
                                                    std::uint64_t link_seq) {
  std::scoped_lock lock(mu_);
  wire::DedupWindow& window = dedup_[src];
  const std::uint64_t recoveries_before = window.late_recoveries();
  const wire::DedupWindow::Verdict v = window.accept(link_seq);
  if (v != wire::DedupWindow::Verdict::Fresh) {
    stats_.note(Occurrence::DedupDrop, src, id_, link_seq);
  } else if (window.late_recoveries() != recoveries_before) {
    stats_.note(Occurrence::DedupLateRecovery, src, id_, link_seq);
  }
  return v;
}

void Machine::add_receive_counters(NetworkStats::Snapshot& s) const {
  const support::FramePool::Counters pool = pool_.counters();
  s.frame_pool_hits += pool.hits;
  s.frame_pool_misses += pool.misses;
  std::scoped_lock lock(mu_);
  for (const auto& [src, window] : dedup_) {
    s.dedup_forced_slides += window.forced_slides();
    s.dedup_skipped_expired += window.skipped_expired();
  }
}

std::optional<Envelope> Machine::receive_blocking() {
  std::unique_lock lock(mu_);
  const auto ready = [&] { return !busy_ && (!inbox_.empty() || closed_); };
  if (!ready()) {
    ++blocked_receivers_;
    cv_.wait(lock, ready);
    --blocked_receivers_;
  }
  if (inbox_.empty()) return std::nullopt;
  Envelope env = std::move(inbox_.front());
  inbox_.pop_front();
  charge_receive(env.arrival);
  return env;
}

void Machine::charge_receive(SimTime arrival) {
  // GM cost model (§5): a machine with a data-request outstanding *polls*
  // the network, so a message it waited for costs only a user-level poll;
  // the same holds while it is draining a backlog (every receive is a
  // poll).  The blocked kernel poll thread only wakes — and charges a
  // thread switch — when a message sat pending past the 20 µs threshold
  // while the host had not touched the network for at least as long.
  const SimTime before = clock_.now();
  const bool waited = clock_.merge_at_least(arrival);
  const SimTime threshold = SimTime::nanos(cost_.poll_wakeup_ns);
  const bool kernel_wakeup = !waited &&
                             (before - arrival) > threshold &&
                             (before - last_receive_) > threshold;
  clock_.advance(SimTime::nanos(kernel_wakeup ? cost_.poll_wakeup_ns
                                              : cost_.recv_poll_ns));
  last_receive_ = clock_.now();
}

void Machine::close() {
  {
    std::scoped_lock lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

}  // namespace rmiopt::net
