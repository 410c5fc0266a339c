#include "wire/session.hpp"

#include <string>

#include "support/error.hpp"

namespace rmiopt::wire {

bool Session::coalescible(const Message& msg) const {
  return msg.header.kind != MsgKind::Call &&
         (msg.payload_size() <= cfg_.max_batch_payload || msg.coalesce_hint);
}

void Session::seal_and_emit(const FrameSink& sink) {
  if (queue_.empty()) return;
  Frame frame;
  frame.link_seq = next_link_seq_++;
  frame.messages = std::move(queue_);
  queue_.clear();
  std::uint64_t payload = 0;
  for (const Message& m : frame.messages) payload += m.payload_size();
  report_(Occurrence::FrameEmit, frame.link_seq, 0,
          static_cast<std::uint32_t>(frame.messages.size()), payload);

  // Stop-and-wait ARQ.  The sink's return value is the (implicit) ACK or
  // NACK; the waiting it stands for is charged in virtual time.  A
  // healthy link delivers on the first attempt and pays nothing here.
  std::size_t doublings = 0;
  for (std::size_t attempt = 0;; ++attempt) {
    const SendOutcome out = sink(frame);
    if (out == SendOutcome::Delivered) return;
    if (attempt >= cfg_.max_retransmits) {
      throw ProtocolError(
          "link " + std::to_string(src_) + "->" + std::to_string(dst_) +
          " dead: frame " + std::to_string(frame.link_seq) +
          " undelivered after " + std::to_string(attempt + 1) + " attempts");
    }
    if (out == SendOutcome::Nacked) {
      // The receiver told us promptly; pay one control round trip.
      report_(Occurrence::Nack, frame.link_seq, cfg_.nack_turnaround_ns, 0, 0);
    } else {
      // Silence: wait out the timer, backing off exponentially.
      const std::int64_t backoff = cfg_.retransmit_timeout_ns << doublings;
      report_(Occurrence::Retransmit, frame.link_seq, backoff, 0, 0);
      if (doublings < cfg_.max_backoff_doublings) ++doublings;
    }
  }
}

void Session::post(Message msg, const FrameSink& sink) {
  RMIOPT_CHECK(msg.header.source_machine == src_ &&
                   msg.header.dest_machine == dst_,
               "message posted to the wrong session");
  // A gathered payload must stop aliasing application memory before it can
  // sit in the coalescing queue or be retransmitted: seal (pin/fold the
  // borrowed spans) at the session boundary.  No-op when already sealed by
  // the runtime, and for contiguous payloads.
  msg.seal_gathered();
  std::scoped_lock lock(mu_);
  // The queue is emitted in posting order, so appending before deciding
  // whether to transmit preserves the per-link FIFO the inbox relies on.
  const bool hold = cfg_.batching() && coalescible(msg);
  const std::uint64_t payload = msg.payload_size();
  queue_.push_back(std::move(msg));
  if (hold && queue_.size() < cfg_.max_batch_messages) {
    report_(Occurrence::Enqueue, next_link_seq_, 0,
            static_cast<std::uint32_t>(queue_.size()), payload);
    return;
  }
  seal_and_emit(sink);
}

void Session::flush(const FrameSink& sink) {
  std::scoped_lock lock(mu_);
  seal_and_emit(sink);
}

std::size_t Session::queued() const {
  std::scoped_lock lock(mu_);
  return queue_.size();
}

}  // namespace rmiopt::wire
