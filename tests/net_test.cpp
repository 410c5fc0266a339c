// Unit tests for the simulated cluster: virtual clocks, GM-style message
// cost accounting, inbox semantics, and the network model's arithmetic.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "net/cluster.hpp"
#include "serial/stats.hpp"

namespace rmiopt::net {
namespace {

serial::CostModel test_cost() {
  serial::CostModel c;
  c.send_overhead_ns = 1000;
  c.msg_latency_ns = 10'000;
  c.wire_byte_ns = 2.0;
  c.recv_poll_ns = 500;
  c.poll_wakeup_ns = 20'000;
  return c;
}

wire::Message make_msg(std::uint16_t from, std::uint16_t to,
                       std::size_t payload_bytes = 0) {
  wire::Message m;
  m.header.kind = wire::MsgKind::Call;
  m.header.source_machine = from;
  m.header.dest_machine = to;
  for (std::size_t i = 0; i < payload_bytes; ++i) m.payload.put_u8(0);
  return m;
}

TEST(VirtualClock, AdvanceAccumulatesAndMergeTakesMax) {
  VirtualClock c;
  c.advance(SimTime::micros(5));
  EXPECT_EQ(c.now().as_micros(), 5.0);
  EXPECT_FALSE(c.merge_at_least(SimTime::micros(3)));  // already past
  EXPECT_TRUE(c.merge_at_least(SimTime::micros(9)));
  EXPECT_EQ(c.now().as_micros(), 9.0);
}

TEST(VirtualClock, ConcurrentAdvancesSumExactly) {
  VirtualClock c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10'000; ++i) c.advance(SimTime::nanos(3));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.now().as_nanos(), 4 * 10'000 * 3);
}

TEST(Cluster, SendChargesSenderAndSchedulesArrival) {
  om::TypeRegistry types;
  Cluster cluster(2, types, test_cost());
  Machine& m0 = cluster.machine(0);
  Machine& m1 = cluster.machine(1);

  wire::Message msg = make_msg(0, 1, 100);
  const std::size_t wire_bytes = msg.wire_size();
  cluster.send(std::move(msg));

  // Sender paid only the send overhead.
  EXPECT_EQ(m0.clock().now().as_nanos(), 1000);
  // Receiver was idle: merges to arrival = send_overhead + latency +
  // bytes * wire_byte_ns, plus the (cheap, polled) receive cost.
  const auto env = m1.receive_blocking();
  ASSERT_TRUE(env.has_value());
  const std::int64_t expected_arrival =
      1000 + 10'000 + static_cast<std::int64_t>(2.0 * wire_bytes);
  EXPECT_EQ(env->arrival.as_nanos(), expected_arrival);
  EXPECT_EQ(m1.clock().now().as_nanos(), expected_arrival + 500);
}

TEST(Cluster, PendingMessagePastThresholdPaysKernelWakeup) {
  om::TypeRegistry types;
  Cluster cluster(2, types, test_cost());
  Machine& m1 = cluster.machine(1);

  cluster.send(make_msg(0, 1));
  // The receiver was busy far past the 20 µs GM threshold.
  m1.clock().advance(SimTime::millis(1));
  const auto before = m1.clock().now();
  (void)m1.receive_blocking();
  EXPECT_EQ((m1.clock().now() - before).as_nanos(), 20'000);
}

TEST(Cluster, RecentlyPendingMessageIsJustPolled) {
  om::TypeRegistry types;
  Cluster cluster(2, types, test_cost());
  Machine& m1 = cluster.machine(1);

  cluster.send(make_msg(0, 1));
  // Busy, but for less than the threshold beyond the arrival time.
  m1.clock().advance(SimTime::micros(25));
  const auto before = m1.clock().now();
  (void)m1.receive_blocking();
  EXPECT_EQ((m1.clock().now() - before).as_nanos(), 500);
}

TEST(Cluster, LargeMessagesPayPerFragmentOverhead) {
  om::TypeRegistry types;
  serial::CostModel cost = test_cost();
  cost.fragment_bytes = 1024;
  cost.fragment_overhead_ns = 700;
  Cluster cluster(2, types, cost);

  cluster.send(make_msg(0, 1, 100));     // 1 fragment
  cluster.send(make_msg(0, 1, 5000));    // spans ~5 fragments
  const auto small = cluster.machine(1).receive_blocking();
  const auto large = cluster.machine(1).receive_blocking();
  const auto small_net =
      small->arrival.as_nanos() - 1000;  // minus sender overhead charge
  const auto large_net = large->arrival.as_nanos() - 2000;
  // Beyond the linear byte cost, the large message pays fragment overheads.
  const std::size_t small_bytes = 100 + wire::kChargedHeaderBytes;
  const std::size_t large_bytes = 5000 + wire::kChargedHeaderBytes;
  const auto expected_delta =
      static_cast<std::int64_t>(2.0 * (large_bytes - small_bytes)) +
      static_cast<std::int64_t>(large_bytes / 1024) * 700;
  EXPECT_EQ(large_net - small_net, expected_delta);
}

TEST(Cluster, BacklogDrainingPollsInsteadOfWaking) {
  // A dispatcher draining messages back-to-back is polling: only the
  // first pickup after a long network-idle period pays the kernel wakeup.
  om::TypeRegistry types;
  Cluster cluster(2, types, test_cost());
  Machine& m1 = cluster.machine(1);
  for (int i = 0; i < 4; ++i) cluster.send(make_msg(0, 1));
  m1.clock().advance(SimTime::millis(1));  // busy way past the threshold

  auto before = m1.clock().now();
  (void)m1.receive_blocking();
  EXPECT_EQ((m1.clock().now() - before).as_nanos(), 20'000);  // wakeup once
  for (int i = 0; i < 3; ++i) {
    before = m1.clock().now();
    (void)m1.receive_blocking();
    EXPECT_EQ((m1.clock().now() - before).as_nanos(), 500);  // then polls
  }
}

TEST(Cluster, MessagesArriveInOrderPerSender) {
  om::TypeRegistry types;
  Cluster cluster(2, types, test_cost());
  Machine& m1 = cluster.machine(1);
  for (int i = 0; i < 5; ++i) {
    wire::Message m = make_msg(0, 1);
    m.header.seq = static_cast<std::uint32_t>(i);
    cluster.send(std::move(m));
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(m1.receive_blocking()->msg.header.seq,
              static_cast<std::uint32_t>(i));
  }
}

TEST(Cluster, ReceiveBlocksUntilDelivery) {
  om::TypeRegistry types;
  Cluster cluster(2, types, test_cost());
  Machine& m1 = cluster.machine(1);

  std::atomic<bool> received{false};
  std::thread receiver([&] {
    const auto env = m1.receive_blocking();
    received = env.has_value();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(received.load());
  cluster.send(make_msg(0, 1));
  receiver.join();
  EXPECT_TRUE(received.load());
}

TEST(Cluster, CloseDrainsThenReturnsNullopt) {
  om::TypeRegistry types;
  Cluster cluster(2, types, test_cost());
  Machine& m1 = cluster.machine(1);
  cluster.send(make_msg(0, 1));
  cluster.shutdown();
  EXPECT_TRUE(m1.receive_blocking().has_value());   // drains the queue
  EXPECT_FALSE(m1.receive_blocking().has_value());  // then reports closed
}

TEST(Cluster, LoopbackSendIsRejected) {
  om::TypeRegistry types;
  Cluster cluster(2, types, test_cost());
  EXPECT_THROW(cluster.send(make_msg(1, 1)), Error);
  EXPECT_THROW(cluster.send(make_msg(0, 7)), Error);
}

TEST(Cluster, NetworkStatsCountTraffic) {
  om::TypeRegistry types;
  Cluster cluster(3, types, test_cost());
  cluster.send(make_msg(0, 1, 10));
  cluster.send(make_msg(1, 2, 20));
  const NetworkStats::Snapshot s = cluster.stats();
  EXPECT_EQ(s.messages, 2u);
  EXPECT_EQ(s.bytes, 2 * wire::kChargedHeaderBytes + 30);
  // Without coalescing every message travels in its own frame.
  EXPECT_EQ(s.frames, 2u);
  EXPECT_EQ(s.coalesced, 0u);
}

// ---- the claim hook: replies ------------------------------------------------

wire::Message make_reply(std::uint16_t from, std::uint16_t to,
                         std::uint32_t seq) {
  wire::Message m = make_msg(from, to);
  m.header.kind = wire::MsgKind::Return;
  m.header.seq = seq;
  m.payload.put_string("reply body");
  return m;
}

// Real-time poll (generous bound) until a thread is parked in
// receive_blocking on `m`'s empty inbox.
void wait_for_blocked_receiver(const Machine& m) {
  for (int i = 0; i < 5000 && m.blocked_receivers() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(m.blocked_receivers(), 1u);
}

// A claim hook that declines every call and offers replies to `take`.
template <class F>
Machine::Claim reply_claim(F take) {
  return [take](Envelope& env, const std::function<void()>& charge) mutable {
    return env.msg.header.kind != wire::MsgKind::Call &&
           take(env.msg, charge);
  };
}

TEST(ReplyClaim, ReplyQueuesWhenNoReceiverWaits) {
  om::TypeRegistry types;
  Cluster cluster(2, types, test_cost());
  Machine& m1 = cluster.machine(1);
  int offered = 0;
  m1.set_claim(reply_claim([&](wire::Message&, const std::function<void()>&) {
    ++offered;
    return true;
  }));
  cluster.send(make_reply(0, 1, 7));
  EXPECT_EQ(offered, 0);
  m1.set_claim({});
  const auto env = m1.receive_blocking();
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->msg.header.seq, 7u);
}

TEST(ReplyClaim, ReplyBehindAQueuedMessageQueues) {
  om::TypeRegistry types;
  Cluster cluster(2, types, test_cost());
  Machine& m1 = cluster.machine(1);
  std::atomic<int> offered{0};
  m1.set_claim(reply_claim([&](wire::Message&, const std::function<void()>&) {
    ++offered;
    return true;
  }));
  // The receiver takes exactly one message.  When the reply is delivered
  // it is either still blocked with the call queued ahead of the reply, or
  // busy with the call: the machine would not take the reply at once.
  std::optional<Envelope> first;
  std::thread receiver([&] { first = m1.receive_blocking(); });
  wait_for_blocked_receiver(m1);
  cluster.send(make_msg(0, 1));
  cluster.send(make_reply(0, 1, 9));
  receiver.join();
  EXPECT_EQ(offered.load(), 0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->msg.header.kind, wire::MsgKind::Call);
  m1.set_claim({});
  const auto second = m1.receive_blocking();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->msg.header.seq, 9u);
}

TEST(ReplyClaim, IdleReceiverLetsTheHookTakeAChargedReply) {
  om::TypeRegistry types;
  Cluster cluster(2, types, test_cost());
  Machine& m1 = cluster.machine(1);
  std::optional<Envelope> woken;
  std::thread receiver([&] { woken = m1.receive_blocking(); });
  wait_for_blocked_receiver(m1);

  int offered = 0;
  std::int64_t clock_at_take = -1;
  wire::Message taken;
  m1.set_claim(reply_claim(
      [&](wire::Message& msg, const std::function<void()>& charge) {
        ++offered;
        charge();
        clock_at_take = m1.clock().now().as_nanos();
        taken = std::move(msg);
        return true;
      }));
  wire::Message reply = make_reply(0, 1, 11);
  const std::size_t wire_bytes = reply.wire_size();
  cluster.send(std::move(reply));

  EXPECT_EQ(offered, 1);
  EXPECT_EQ(taken.header.seq, 11u);
  EXPECT_EQ(taken.payload.get_string(), "reply body");
  // Merge to the arrival, then one user-level poll — what receive_blocking
  // would have charged — before the hook handed the reply on.
  const std::int64_t arrival =
      1000 + 10'000 + static_cast<std::int64_t>(2.0 * wire_bytes);
  EXPECT_EQ(clock_at_take, arrival + 500);
  EXPECT_EQ(m1.clock().now().as_nanos(), arrival + 500);
  // The receiver never woke: it is still blocked, and a call still goes
  // to it through the inbox.
  EXPECT_EQ(m1.blocked_receivers(), 1u);
  cluster.send(make_msg(0, 1));
  receiver.join();
  ASSERT_TRUE(woken.has_value());
  EXPECT_EQ(woken->msg.header.kind, wire::MsgKind::Call);
  EXPECT_EQ(offered, 1);  // the hook declines calls
  m1.set_claim({});
}

TEST(ReplyClaim, MachineSentACallAfterAReplyStopsOfferingReplies) {
  om::TypeRegistry types;
  Cluster cluster(2, types, test_cost());
  Machine& m1 = cluster.machine(1);
  std::atomic<int> offered{0};
  m1.set_claim(reply_claim(
      [&](wire::Message& msg, const std::function<void()>& charge) {
        ++offered;
        charge();
        const wire::Message taken = std::move(msg);
        return true;
      }));

  // A call before any reply (a registry's bootstrap binds) leaves the
  // machine a pure caller: its first reply is offered and claimed.
  std::optional<Envelope> env;
  std::thread receiver([&] { env = m1.receive_blocking(); });
  wait_for_blocked_receiver(m1);
  cluster.send(make_msg(0, 1));
  receiver.join();
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->msg.header.kind, wire::MsgKind::Call);

  receiver = std::thread([&] { env = m1.receive_blocking(); });
  wait_for_blocked_receiver(m1);
  cluster.send(make_reply(0, 1, 21));
  EXPECT_EQ(offered.load(), 1);

  // A call after that reply: the machine now serves as well, and from
  // here on a reply queues even for an idle receiver.
  cluster.send(make_msg(0, 1));
  receiver.join();
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->msg.header.kind, wire::MsgKind::Call);
  receiver = std::thread([&] { env = m1.receive_blocking(); });
  wait_for_blocked_receiver(m1);
  cluster.send(make_reply(0, 1, 23));
  EXPECT_EQ(offered.load(), 1);
  if (offered.load() != 1) cluster.send(make_msg(0, 1));  // free the receiver
  receiver.join();
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->msg.header.kind, wire::MsgKind::Return);
  EXPECT_EQ(env->msg.header.seq, 23u);
  m1.set_claim({});
}

TEST(ReplyClaim, DeclinedReplyIsReceivedIntactAndChargedOnce) {
  om::TypeRegistry types;
  Cluster cluster(2, types, test_cost());
  Machine& m1 = cluster.machine(1);
  std::atomic<int> offered{0};
  m1.set_claim(reply_claim([&](wire::Message&, const std::function<void()>&) {
    ++offered;
    return false;
  }));
  std::optional<Envelope> env;
  std::thread receiver([&] { env = m1.receive_blocking(); });
  wait_for_blocked_receiver(m1);
  wire::Message reply = make_reply(0, 1, 13);
  const std::size_t wire_bytes = reply.wire_size();
  cluster.send(std::move(reply));
  receiver.join();
  m1.set_claim({});

  EXPECT_EQ(offered.load(), 1);
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->msg.header.kind, wire::MsgKind::Return);
  EXPECT_EQ(env->msg.header.seq, 13u);
  EXPECT_EQ(env->msg.payload.get_string(), "reply body");
  const std::int64_t arrival =
      1000 + 10'000 + static_cast<std::int64_t>(2.0 * wire_bytes);
  EXPECT_EQ(env->arrival.as_nanos(), arrival);
  EXPECT_EQ(m1.clock().now().as_nanos(), arrival + 500);
}

// ---- the claim hook: calls --------------------------------------------------

wire::Message make_call(std::uint16_t from, std::uint16_t to,
                        std::uint32_t seq) {
  wire::Message m = make_msg(from, to, 8);
  m.header.seq = seq;
  return m;
}

// A claim hook that takes every call it is offered, charged, into
// `taken`, and declines replies.
struct CallTaker {
  Machine& m;
  std::atomic<int> offered{0};
  std::vector<std::uint32_t> taken;
  std::int64_t clock_at_take = -1;

  Machine::Claim hook() {
    return [this](Envelope& env, const std::function<void()>& charge) {
      if (env.msg.header.kind != wire::MsgKind::Call) return false;
      ++offered;
      charge();
      clock_at_take = m.clock().now().as_nanos();
      taken.push_back(env.msg.header.seq);
      const wire::Message gone = std::move(env.msg);
      return true;
    };
  }
};

TEST(CallClaim, CallToAnIdleMachineIsOfferedAndChargedBeforeTheHookReturns) {
  om::TypeRegistry types;
  Cluster cluster(2, types, test_cost());
  Machine& m1 = cluster.machine(1);
  std::optional<Envelope> woken;
  std::thread receiver([&] { woken = m1.receive_blocking(); });
  wait_for_blocked_receiver(m1);
  CallTaker taker{m1};
  m1.set_claim(taker.hook());

  wire::Message call = make_call(0, 1, 31);
  const std::size_t wire_bytes = call.wire_size();
  cluster.send(std::move(call));
  EXPECT_EQ(taker.offered.load(), 1);
  ASSERT_EQ(taker.taken.size(), 1u);
  EXPECT_EQ(taker.taken[0], 31u);
  // Merge to the arrival, then one user-level poll, inside the hook.
  const std::int64_t arrival =
      1000 + 10'000 + static_cast<std::int64_t>(2.0 * wire_bytes);
  EXPECT_EQ(taker.clock_at_take, arrival + 500);
  EXPECT_EQ(m1.clock().now().as_nanos(), arrival + 500);
  // The receiver never woke.  After the release the machine is idle
  // again: the next call is offered too.
  EXPECT_EQ(m1.blocked_receivers(), 1u);
  m1.release();
  cluster.send(make_call(0, 1, 32));
  EXPECT_EQ(taker.offered.load(), 2);
  m1.release();
  m1.set_claim({});
  cluster.send(make_call(0, 1, 33));
  receiver.join();
  ASSERT_TRUE(woken.has_value());
  EXPECT_EQ(woken->msg.header.seq, 33u);
}

TEST(CallClaim, MessagesDeliveredWhileAClaimedCallIsServedQueueUntilRelease) {
  om::TypeRegistry types;
  Cluster cluster(2, types, test_cost());
  Machine& m1 = cluster.machine(1);
  std::atomic<bool> returned{false};
  std::optional<Envelope> woken;
  std::thread receiver([&] {
    woken = m1.receive_blocking();
    returned = true;
  });
  wait_for_blocked_receiver(m1);
  CallTaker taker{m1};
  m1.set_claim(taker.hook());

  cluster.send(make_call(0, 1, 41));
  ASSERT_EQ(taker.offered.load(), 1);
  const std::int64_t claimed_at = m1.clock().now().as_nanos();
  // Serving the claimed call takes 50 µs of the callee's time.  Meanwhile
  // a second call and a reply arrive: neither is offered, both queue, and
  // the blocked receiver takes nothing.
  m1.clock().advance(SimTime::nanos(50'000));
  cluster.send(make_call(0, 1, 42));
  cluster.send(make_reply(0, 1, 43));
  EXPECT_EQ(taker.offered.load(), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  EXPECT_EQ(m1.blocked_receivers(), 1u);
  EXPECT_EQ(m1.clock().now().as_nanos(), claimed_at + 50'000);

  m1.release();
  receiver.join();
  ASSERT_TRUE(woken.has_value());
  EXPECT_EQ(woken->msg.header.seq, 42u);
  // As receive_blocking charges it: the call sat pending for 49.5 µs
  // (it left machine 0 one send overhead after the first) while the host
  // had not touched the network for 50 µs, both past the 20 µs
  // threshold, so the kernel poll thread wakes.
  EXPECT_EQ(woken->arrival.as_nanos(), claimed_at - 500 + 1000);
  EXPECT_EQ(m1.clock().now().as_nanos(), claimed_at + 50'000 + 20'000);
  const auto reply = m1.receive_blocking();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->msg.header.seq, 43u);
  EXPECT_EQ(taker.offered.load(), 1);
  m1.set_claim({});
}

TEST(CallClaim, CallBehindAQueuedMessageIsNotOffered) {
  om::TypeRegistry types;
  Cluster cluster(2, types, test_cost());
  Machine& m1 = cluster.machine(1);
  std::atomic<int> offered_first{0}, offered_second{0};
  m1.set_claim([&](Envelope& env, const std::function<void()>&) {
    ++(env.msg.header.seq == 51 ? offered_first : offered_second);
    return false;
  });
  // The receiver takes exactly one message.  When the second call is
  // delivered it is either still blocked with the first queued ahead, or
  // gone: the machine would not take the second call at once.
  std::optional<Envelope> first;
  std::thread receiver([&] { first = m1.receive_blocking(); });
  wait_for_blocked_receiver(m1);
  cluster.send(make_call(0, 1, 51));
  cluster.send(make_call(0, 1, 52));
  receiver.join();
  EXPECT_EQ(offered_first.load(), 1);
  EXPECT_EQ(offered_second.load(), 0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->msg.header.seq, 51u);
  m1.set_claim({});
  const auto second = m1.receive_blocking();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->msg.header.seq, 52u);
}

TEST(CallClaim, MachineClosedWhileBusyIsOfferedNothingAndDrainsAfterRelease) {
  om::TypeRegistry types;
  Cluster cluster(2, types, test_cost());
  Machine& m1 = cluster.machine(1);
  std::vector<std::uint32_t> received;
  std::thread receiver([&] {
    while (const auto env = m1.receive_blocking()) {
      received.push_back(env->msg.header.seq);
    }
  });
  wait_for_blocked_receiver(m1);
  CallTaker taker{m1};
  m1.set_claim(taker.hook());
  cluster.send(make_call(0, 1, 61));
  ASSERT_EQ(taker.offered.load(), 1);
  // Closed while busy: the receiver neither returns nor drains yet, and
  // a call that arrives is not offered.
  m1.close();
  cluster.send(make_call(0, 1, 62));
  EXPECT_EQ(taker.offered.load(), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(m1.blocked_receivers(), 1u);
  m1.release();
  receiver.join();
  EXPECT_EQ(received, std::vector<std::uint32_t>{62});
  EXPECT_EQ(taker.offered.load(), 1);
  m1.set_claim({});
}

TEST(NetworkStats, SnapshotsAccumulate) {
  NetworkStats a, b;
  a.note(Occurrence::Flight, 0, 1, 0, 0, 1, 100);
  b.note(Occurrence::Flight, 1, 2, 0, 0, 3, 60);  // three coalesced messages
  NetworkStats::Snapshot total = a.snapshot();
  total += b.snapshot();
  EXPECT_EQ(total.messages, 4u);
  EXPECT_EQ(total.bytes, 160u);
  EXPECT_EQ(total.frames, 2u);
  EXPECT_EQ(total.coalesced, 3u);
}

TEST(Cluster, MakespanIsTheMaxClock) {
  om::TypeRegistry types;
  Cluster cluster(3, types, test_cost());
  cluster.machine(0).clock().advance(SimTime::micros(5));
  cluster.machine(2).clock().advance(SimTime::micros(11));
  EXPECT_EQ(cluster.makespan().as_micros(), 11.0);
}

TEST(CostModel, ByteCostsScaleLinearly) {
  serial::CostModel c;
  EXPECT_EQ(c.for_wire_bytes(0).as_nanos(), 0);
  EXPECT_EQ(c.for_wire_bytes(1000).as_nanos(),
            static_cast<std::int64_t>(1000 * c.wire_byte_ns));
  EXPECT_EQ(c.for_bytes_copied(800).as_nanos(),
            static_cast<std::int64_t>(800 * c.byte_copy_ns));
}

TEST(CostModel, CpuCostSumsAllEventClasses) {
  serial::CostModel c;
  serial::SerialStats s;
  s.serializer_invocations = 2;
  s.fields_marshaled = 10;
  s.cycle_lookups = 3;
  s.cycle_tables_created = 1;
  s.type_decodes = 2;
  s.objects_allocated = 4;
  s.objects_freed = 5;
  s.bytes_copied = 100;
  const std::int64_t expected =
      2 * c.serializer_invoke_ns + 10 * c.field_marshal_ns +
      3 * c.cycle_probe_ns + 1 * c.cycle_table_setup_ns +
      2 * c.type_decode_ns + 4 * (c.alloc_ns + c.gc_amortized_ns) +
      5 * c.free_ns + static_cast<std::int64_t>(100 * c.byte_copy_ns);
  EXPECT_EQ(s.cpu_cost(c).as_nanos(), expected);
}

TEST(SerialStats, AccumulationIsComponentwise) {
  serial::SerialStats a, b;
  a.cycle_lookups = 3;
  a.objects_reused = 1;
  b.cycle_lookups = 4;
  b.type_info_bytes = 9;
  a += b;
  EXPECT_EQ(a.cycle_lookups, 7u);
  EXPECT_EQ(a.objects_reused, 1u);
  EXPECT_EQ(a.type_info_bytes, 9u);
}

}  // namespace
}  // namespace rmiopt::net
