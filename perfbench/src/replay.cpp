#include "replay.hpp"

#include <atomic>
#include <exception>
#include <thread>

#include "apps/harness.hpp"
#include "net/cluster.hpp"
#include "rmi/runtime.hpp"
#include "serial/class_plans.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"
#include "wire/framing.hpp"

namespace perfbench {

namespace {

using rmiopt::ByteBuffer;
using rmiopt::codegen::kPaperLevels;
namespace om = rmiopt::om;
namespace net = rmiopt::net;
namespace rmi = rmiopt::rmi;
namespace serial = rmiopt::serial;
namespace wire = rmiopt::wire;

constexpr std::size_t kLevels = kPaperLevels.size();

double us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

// The payload bytes one call puts on the wire at one level.
struct Images {
  ByteBuffer request;  // serialized arguments
  ByteBuffer reply;    // serialized return value; empty for an ACK
};

wire::Message make_message(wire::MsgKind kind, std::uint16_t src,
                           std::uint16_t dst, std::uint32_t seq,
                           std::uint32_t level, const ByteBuffer& payload) {
  wire::Message m;
  m.header.kind = kind;
  m.header.source_machine = src;
  m.header.dest_machine = dst;
  m.header.seq = seq;
  m.header.callsite_id = level;
  m.payload = payload;
  return m;
}

wire::MsgKind reply_kind(const Images& im) {
  return im.reply.size() > 0 ? wire::MsgKind::Return : wire::MsgKind::Ack;
}

const serial::CallSitePlan& plan_at(const ReplaySubject& s, std::size_t l) {
  return *(*s.programs)[l].site(s.tag).plan;
}

void replay_objmodel(const ReplaySubject& s, int rounds, SpanLog& log,
                     Report& report) {
  om::Heap heap(*s.types);
  std::vector<double> samples;
  for (int r = 0; r < rounds * static_cast<int>(kLevels); ++r) {
    const std::int64_t t0 = now_ns();
    std::vector<om::ObjRef> args = s.make_args(heap);
    om::ObjRef ret = s.make_return ? s.make_return(heap) : nullptr;
    for (om::ObjRef a : args) heap.free_graph(a);
    if (ret != nullptr) heap.free_graph(ret);
    const std::int64_t t1 = now_ns();
    log.add("objmodel.graph_build_free", t0, t1, -1, r);
    samples.push_back(us(t1 - t0));
  }
  report.set("objmodel.graph_build_free_us", median(samples), "us");
}

// Writes the arguments and the return value with each level's plan and
// reads them back the way the runtime does: through the reuse cache where
// the plan allows it, freshly allocated (and freed after) otherwise.
std::array<Images, kLevels> replay_serial(const ReplaySubject& s, int rounds,
                                          SpanLog& log, Report& report) {
  serial::ClassPlanRegistry class_plans(*s.types);
  om::Heap caller(*s.types);
  om::Heap callee(*s.types);
  std::array<Images, kLevels> images;
  for (std::size_t l = 0; l < kLevels; ++l) {
    const serial::CallSitePlan& plan = plan_at(s, l);
    const bool cycle = plan.needs_cycle_table;
    const std::vector<om::ObjRef> args = s.make_args(caller);
    const om::ObjRef ret = s.make_return ? s.make_return(callee) : nullptr;
    std::vector<om::ObjRef> cached_args(args.size(), nullptr);
    om::ObjRef cached_ret = nullptr;
    std::vector<double> write_us, read_us;
    for (int r = 0; r < rounds; ++r) {
      ByteBuffer req, rep;
      serial::SerialStats stats;
      std::vector<om::ObjRef> got(args.size(), nullptr);
      om::ObjRef got_ret = nullptr;
      const std::int64_t t0 = now_ns();
      {
        serial::SerialWriter w(class_plans, stats, cycle);
        for (std::size_t k = 0; k < args.size(); ++k) {
          w.write(req, *plan.args[k], args[k]);
        }
      }
      if (plan.ret) {
        serial::SerialWriter w(class_plans, stats, cycle);
        w.write(rep, *plan.ret, ret);
      }
      const std::int64_t t1 = now_ns();
      {
        serial::SerialReader rd(class_plans, callee, stats, cycle);
        for (std::size_t k = 0; k < args.size(); ++k) {
          got[k] = plan.reuse_args
                       ? rd.read_reusing(req, *plan.args[k], cached_args[k])
                       : rd.read(req, *plan.args[k]);
        }
      }
      if (plan.ret) {
        serial::SerialReader rd(class_plans, caller, stats, cycle);
        got_ret = plan.reuse_ret ? rd.read_reusing(rep, *plan.ret, cached_ret)
                                 : rd.read(rep, *plan.ret);
      }
      const std::int64_t t2 = now_ns();
      log.add("serial.write", t0, t1, -1, l);
      log.add("serial.read", t1, t2, -1, l);
      write_us.push_back(us(t1 - t0));
      read_us.push_back(us(t2 - t1));

      if (plan.reuse_args) {
        cached_args = got;
      } else {
        for (om::ObjRef g : got) {
          if (g != nullptr) callee.free_graph(g);
        }
      }
      if (plan.reuse_ret) {
        cached_ret = got_ret;
      } else if (got_ret != nullptr) {
        caller.free_graph(got_ret);
      }
      if (r + 1 == rounds) images[l] = {std::move(req), std::move(rep)};
    }
    for (om::ObjRef g : cached_args) {
      if (g != nullptr) callee.free_graph(g);
    }
    if (cached_ret != nullptr) caller.free_graph(cached_ret);
    for (om::ObjRef a : args) caller.free_graph(a);
    if (ret != nullptr) callee.free_graph(ret);

    const std::string key = level_key(kPaperLevels[l]);
    report.set("serial.write_us." + key, median(write_us), "us");
    report.set("serial.read_us." + key, median(read_us), "us");
  }
  return images;
}

// Encodes and decodes the call frame and the reply frame of one call.
void replay_wire(const std::array<Images, kLevels>& images, int rounds,
                 SpanLog& log, Report& report) {
  std::array<std::array<wire::Frame, 2>, kLevels> frames;
  for (std::size_t l = 0; l < kLevels; ++l) {
    frames[l][0].messages.push_back(make_message(
        wire::MsgKind::Call, 0, 1, 0, static_cast<std::uint32_t>(l),
        images[l].request));
    frames[l][1].messages.push_back(
        make_message(reply_kind(images[l]), 1, 0, 0,
                     static_cast<std::uint32_t>(l), images[l].reply));
  }
  std::vector<double> encode_us, decode_us;
  std::uint64_t request = 0;
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t l = 0; l < kLevels; ++l, ++request) {
      const std::int64_t t0 = now_ns();
      ByteBuffer call = wire::encode_frame(frames[l][0]);
      ByteBuffer reply = wire::encode_frame(frames[l][1]);
      const std::int64_t t1 = now_ns();
      const wire::Frame call_back = wire::decode_frame(call);
      const wire::Frame reply_back = wire::decode_frame(reply);
      const std::int64_t t2 = now_ns();
      RMIOPT_CHECK(call_back.messages.size() == 1 &&
                       reply_back.messages.size() == 1,
                   "frame replay lost a message");
      log.add("wire.encode_frame", t0, t1, -1, request);
      log.add("wire.decode_frame", t1, t2, -1, request);
      encode_us.push_back(us(t1 - t0));
      decode_us.push_back(us(t2 - t1));
    }
  }
  report.set("wire.encode_us", median(encode_us), "us");
  report.set("wire.decode_us", median(decode_us), "us");
}

// Ping-pong of each level's call and reply messages between two threads:
// the handoff is Cluster::send on one thread until receive_blocking
// returns the message on the other.
void replay_net(const ReplaySubject& s,
                const std::array<Images, kLevels>& images, int rounds,
                SpanLog& log, Report& report) {
  net::Cluster cluster(2, *s.types);
  std::atomic<std::int64_t> sent_to_callee{0};
  std::atomic<std::int64_t> sent_to_caller{0};
  std::vector<double> handoff_us;  // caller -> callee, written by `peer`
  std::exception_ptr peer_error;
  std::thread peer([&] {
    try {
      while (std::optional<net::Envelope> env =
                 cluster.machine(1).receive_blocking()) {
        const std::int64_t t = now_ns();
        const std::int64_t sent = sent_to_callee.load();
        log.add("net.handoff", sent, t, -1, env->msg.header.seq);
        handoff_us.push_back(us(t - sent));
        const std::uint32_t l = env->msg.header.callsite_id;
        wire::Message reply =
            make_message(reply_kind(images[l]), 1, 0, env->msg.header.seq, l,
                         images[l].reply);
        sent_to_caller.store(now_ns());
        cluster.send(std::move(reply));
      }
    } catch (...) {
      peer_error = std::current_exception();
    }
  });

  std::vector<double> back_us;
  std::exception_ptr error;
  try {
    std::uint32_t seq = 0;
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t l = 0; l < kLevels; ++l, ++seq) {
        wire::Message call =
            make_message(wire::MsgKind::Call, 0, 1, seq,
                         static_cast<std::uint32_t>(l), images[l].request);
        sent_to_callee.store(now_ns());
        cluster.send(std::move(call));
        const std::optional<net::Envelope> env =
            cluster.machine(0).receive_blocking();
        const std::int64_t t = now_ns();
        RMIOPT_CHECK(env.has_value(), "handoff replay lost its reply");
        const std::int64_t sent = sent_to_caller.load();
        log.add("net.handoff", sent, t, -1, seq);
        back_us.push_back(us(t - sent));
      }
    }
  } catch (...) {
    error = std::current_exception();
  }
  cluster.shutdown();
  peer.join();
  if (error) std::rethrow_exception(error);
  if (peer_error) std::rethrow_exception(peer_error);

  handoff_us.insert(handoff_us.end(), back_us.begin(), back_us.end());
  report.set("net.handoff_us_p50", quantile(handoff_us, 0.5), "us");
  report.set("net.handoff_us_p99", quantile(handoff_us, 0.99), "us");
}

// Synchronous RmiSystem::invoke of the workload's site at every level,
// served by a handler that only returns the callee-owned value.
void replay_rmi(const ReplaySubject& s, int rounds, SpanLog& log,
                Report& report) {
  net::Cluster cluster(2, *s.types);
  rmi::RmiSystem sys(cluster, *s.types);
  om::Heap& callee = cluster.machine(1).heap();
  const om::ObjRef ret_value = s.make_return ? s.make_return(callee) : nullptr;
  // Written by the dispatcher thread; the reply that ends invoke() orders
  // these writes before the caller reads them.
  std::int64_t enter_ns = 0;
  std::int64_t exit_ns = 0;
  const std::uint32_t method = sys.define_method(
      "Replay.handler",
      [&](rmi::CallContext&, auto, std::span<const om::ObjRef>) {
        enter_ns = now_ns();
        rmi::HandlerResult result{.value = ret_value};
        exit_ns = now_ns();
        return result;
      });
  std::array<std::uint32_t, kLevels> sites{};
  for (std::size_t l = 0; l < kLevels; ++l) {
    sites[l] = sys.add_callsite(
        rmiopt::driver::to_runtime_site((*s.programs)[l], s.tag, method));
  }
  const om::ObjRef exported =
      callee.alloc(rmiopt::apps::marker_class(*s.types, s.export_class));
  const rmi::RemoteRef target = sys.export_object(1, exported);
  sys.start();

  om::Heap& heap = cluster.machine(0).heap();
  std::vector<double> invoke_us, request_us, reply_us;
  std::uint64_t request = 0;
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t l = 0; l < kLevels; ++l, ++request) {
      const std::vector<om::ObjRef> args = s.make_args(heap);
      const std::int64_t id = log.reserve();
      const std::int64_t t0 = now_ns();
      const om::ObjRef ret = sys.invoke(0, target, sites[l], args);
      const std::int64_t t1 = now_ns();
      log.add("rmi.invoke", t0, t1, -1, request, id);
      log.add("app.handler", enter_ns, exit_ns, id, request);
      invoke_us.push_back(us(t1 - t0));
      request_us.push_back(us(enter_ns - t0));
      reply_us.push_back(us(t1 - exit_ns));
      for (om::ObjRef a : args) heap.free_graph(a);
      if (ret != nullptr && !sys.callsite(sites[l]).plan->reuse_ret) {
        heap.free_graph(ret);
      }
    }
  }
  sys.stop();
  callee.free(exported);
  if (ret_value != nullptr) callee.free_graph(ret_value);

  report.set("rmi.invoke_us_p50", quantile(invoke_us, 0.5), "us");
  report.set("rmi.invoke_us_p99", quantile(invoke_us, 0.99), "us");
  report.set("rmi.request_path_us", median(request_us), "us");
  report.set("rmi.reply_path_us", median(reply_us), "us");
  std::vector<double> self = log.self_ns("rmi.invoke");
  for (double& v : self) v *= 1e-3;
  report.set("rmi.self_us", median(self), "us");
}

}  // namespace

void replay_layers(const ReplaySubject& subject, int rounds, SpanLog& log,
                   Report& report) {
  replay_objmodel(subject, rounds, log, report);
  const std::array<Images, kLevels> images =
      replay_serial(subject, rounds, log, report);
  replay_wire(images, rounds, log, report);
  replay_net(subject, images, rounds, log, report);
  replay_rmi(subject, rounds, log, report);
}

}  // namespace perfbench
