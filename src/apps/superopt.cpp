#include "apps/superopt.hpp"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "apps/harness.hpp"
#include "apps/paper_figures.hpp"
#include "driver/compile.hpp"
#include "rmi/name_service.hpp"
#include "support/rng.hpp"

namespace rmiopt::apps {

void sop_execute(const SopProgram& prog, std::int64_t regs[kSopRegs]) {
  auto read = [&](const SopOperand& o) {
    return o.is_imm ? o.value : regs[o.value];
  };
  for (const SopInstr& in : prog) {
    const std::int64_t a = read(in.src1);
    const std::int64_t b = read(in.src2);
    std::int64_t r = 0;
    switch (in.op) {
      // Two's-complement wraparound semantics (Java's long): compute in
      // unsigned to avoid signed-overflow UB on random register values.
      case SopOp::Add:
        r = static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                      static_cast<std::uint64_t>(b));
        break;
      case SopOp::Sub:
        r = static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                      static_cast<std::uint64_t>(b));
        break;
      case SopOp::And:
        r = a & b;
        break;
      case SopOp::Or:
        r = a | b;
        break;
      case SopOp::Xor:
        r = a ^ b;
        break;
      case SopOp::Mov:
        r = a;
        break;
      case SopOp::Shl:
        r = static_cast<std::int64_t>(static_cast<std::uint64_t>(a)
                                      << (b & 63));
        break;
    }
    regs[in.dst] = r;
  }
}

namespace {

// Operand encoding space: registers then immediates.
inline constexpr int kOperandSpace = kSopRegs + kSopImms;

SopOperand decode_operand(int code) {
  SopOperand o;
  if (code < kSopRegs) {
    o.is_imm = false;
    o.value = code;
  } else {
    o.is_imm = true;
    o.value = code - kSopRegs;
  }
  return o;
}

// A bounded queue of received program graphs; pushing a full queue blocks
// the dispatcher, which is exactly the paper's producer back-pressure
// ("the producer thread blocks whenever the queue ... is full").
struct TesterQueue {
  std::mutex mu;
  std::condition_variable cv_push, cv_pop;
  std::deque<om::ObjRef> items;
  std::size_t capacity = 64;
  bool done = false;

  void push(om::ObjRef p) {
    std::unique_lock lock(mu);
    cv_push.wait(lock, [&] { return items.size() < capacity; });
    items.push_back(p);
    cv_pop.notify_one();
  }
  // Returns nullptr when drained and closed.
  om::ObjRef pop() {
    std::unique_lock lock(mu);
    cv_pop.wait(lock, [&] { return !items.empty() || done; });
    if (items.empty()) return nullptr;
    om::ObjRef p = items.front();
    items.pop_front();
    cv_push.notify_one();
    return p;
  }
  void close() {
    std::scoped_lock lock(mu);
    done = true;
    cv_pop.notify_all();
  }
};

}  // namespace

std::uint64_t sop_candidates_per_length() {
  return static_cast<std::uint64_t>(kSopOps) * kSopRegs * kOperandSpace *
         kOperandSpace;
}

RunResult run_superopt(codegen::OptLevel level, const SuperoptConfig& cfg) {
  figures::FigureProgram local_model;
  if (cfg.model == nullptr) local_model = figures::make_superopt_model();
  const figures::FigureProgram& model = cfg.model ? *cfg.model : local_model;
  driver::CompiledProgram prog =
      compile_model(model, level, cfg.model ? cfg.pass_manager : nullptr);

  const SopProgram target =
      cfg.target.empty()
          ? SopProgram{SopInstr{SopOp::Add, 0, decode_operand(0),
                                decode_operand(0)}}
          : cfg.target;

  net::Cluster cluster(cfg.machines, *model.types, cfg.cost, cfg.transport,
                       {}, cfg.faults, cfg.detector);
  if (cfg.recorder != nullptr) cluster.set_recorder(cfg.recorder);
  rmi::RmiSystem sys(cluster, *model.types,
                     rmi::ExecutorConfig{cfg.dispatch_workers});
  // JavaParty runtime bootstrap (class-mode stubs): the residual cycle
  // lookups of Table 6.
  rmi::NameService names(sys, *model.types);
  RMIOPT_CHECK(cfg.machines >= 2, "superopt needs >=2 machines");

  const om::ClassDescriptor& operand_cls =
      model.types->get(model.cls("Operand"));
  const om::ClassDescriptor& instr_cls =
      model.types->get(model.cls("Instruction"));
  const om::ClassId instr_arr_cls = model.cls("[LInstruction;");
  const om::ClassDescriptor& program_cls =
      model.types->get(model.cls("Program"));

  // ---- object-graph <-> SopProgram codecs ----------------------------------
  auto encode = [&](om::Heap& heap, const SopProgram& p) {
    om::ObjRef prog_obj = heap.alloc(program_cls);
    om::ObjRef code =
        heap.alloc_array(instr_arr_cls, static_cast<std::uint32_t>(p.size()));
    prog_obj->set_ref(program_cls.fields[0], code);
    for (std::size_t i = 0; i < p.size(); ++i) {
      om::ObjRef ins = heap.alloc(instr_cls);
      ins->set<std::int32_t>(instr_cls.fields[0],
                             static_cast<std::int32_t>(p[i].op) * 8 +
                                 p[i].dst);
      const SopOperand ops[3] = {p[i].src1, p[i].src2, {}};
      for (int k = 0; k < 3; ++k) {
        om::ObjRef o = heap.alloc(operand_cls);
        o->set<std::int32_t>(operand_cls.fields[0], ops[k].is_imm ? 1 : 0);
        o->set<std::int64_t>(operand_cls.fields[1], ops[k].value);
        ins->set_ref(instr_cls.fields[1 + k], o);
      }
      code->set_elem_ref(static_cast<std::uint32_t>(i), ins);
    }
    return prog_obj;
  };
  auto decode = [&](om::ObjRef prog_obj) {
    SopProgram p;
    om::ObjRef code = prog_obj->get_ref(program_cls.fields[0]);
    for (std::uint32_t i = 0; i < code->length(); ++i) {
      om::ObjRef ins = code->get_elem_ref(i);
      const std::int32_t packed = ins->get<std::int32_t>(instr_cls.fields[0]);
      SopInstr si;
      si.op = static_cast<SopOp>(packed / 8);
      si.dst = packed % 8;
      om::ObjRef o1 = ins->get_ref(instr_cls.fields[1]);
      om::ObjRef o2 = ins->get_ref(instr_cls.fields[2]);
      si.src1 = {o1->get<std::int32_t>(operand_cls.fields[0]) != 0,
                 o1->get<std::int64_t>(operand_cls.fields[1])};
      si.src2 = {o2->get<std::int32_t>(operand_cls.fields[0]) != 0,
                 o2->get<std::int64_t>(operand_cls.fields[1])};
      p.push_back(si);
    }
    return p;
  };

  // ---- tester state ----------------------------------------------------------
  const std::size_t testers = cfg.machines - 1;
  std::vector<TesterQueue> queues(testers);
  for (auto& q : queues) q.capacity = cfg.queue_capacity;
  std::atomic<std::uint64_t> equivalences{0};

  const auto test_method = sys.define_method(
      "Tester.test", [&](rmi::CallContext& ctx, auto,
                         std::span<const om::ObjRef> args) {
        // The program is queued: it escapes the remote method (§5.3), the
        // runtime must not free it, and reuse is impossible.
        queues[ctx.machine().id() - 1].push(args[0]);
        return rmi::HandlerResult{.args_consumed = true};
      });
  const auto test_site = sys.add_callsite(
      driver::to_runtime_site(prog, model.tag("test"), test_method));

  const om::ClassId tester_cls = marker_class(*model.types, "Tester");
  std::vector<rmi::RemoteRef> tester_refs;
  for (std::size_t t = 0; t < testers; ++t) {
    tester_refs.push_back(
        sys.export_object(static_cast<std::uint16_t>(t + 1),
                          cluster.machine(t + 1).heap().alloc(tester_cls)));
  }
  sys.start();
  for (std::size_t t = 0; t < testers; ++t) {
    names.bind(static_cast<std::uint16_t>(t + 1),
               "Tester#" + std::to_string(t), tester_refs[t]);
  }
  for (std::size_t t = 0; t < testers; ++t) {
    tester_refs[t] = names.lookup(0, "Tester#" + std::to_string(t));
  }

  // Tester threads: pop, decode, equivalence-test against the target.
  auto tester_thread = [&](std::size_t t) {
    om::Heap& heap = cluster.machine(t + 1).heap();
    // Pre-generate shared test vectors (same for all candidates).
    std::vector<std::array<std::int64_t, kSopRegs>> vectors(
        static_cast<std::size_t>(cfg.test_vectors));
    SplitMix64 vec_rng(cfg.seed);
    for (auto& v : vectors) {
      for (auto& r : v) r = vec_rng.next_i64();
    }
    while (om::ObjRef obj = queues[t].pop()) {
      const SopProgram candidate = decode(obj);
      bool equal = true;
      for (const auto& v : vectors) {
        std::int64_t r1[kSopRegs], r2[kSopRegs];
        std::copy(v.begin(), v.end(), r1);
        std::copy(v.begin(), v.end(), r2);
        sop_execute(target, r1);
        sop_execute(candidate, r2);
        if (!std::equal(r1, r1 + kSopRegs, r2)) {
          equal = false;
          break;
        }
      }
      if (equal) equivalences.fetch_add(1);
      heap.free_graph(obj);  // the queue owned it
    }
  };
  std::vector<std::thread> tester_threads;
  for (std::size_t t = 0; t < testers; ++t) {
    tester_threads.emplace_back(tester_thread, t);
  }

  // ---- producer (machine 0) -------------------------------------------------
  om::Heap& h0 = cluster.machine(0).heap();
  std::uint64_t sent = 0;
  SopProgram candidate;
  auto emit = [&](const SopProgram& p) {
    om::ObjRef obj = encode(h0, p);
    sys.invoke(0, tester_refs[sent % testers], test_site, std::array{obj});
    h0.free_graph(obj);  // the producer's copy; the tester has its own
    ++sent;
  };
  // Depth-first enumeration of sequences of length 1..max_len.
  auto enumerate = [&](auto&& self, int depth) -> void {
    for (int op = 0; op < kSopOps; ++op) {
      for (int dst = 0; dst < kSopRegs; ++dst) {
        for (int s1 = 0; s1 < kOperandSpace; ++s1) {
          for (int s2 = 0; s2 < kOperandSpace; ++s2) {
            candidate.push_back(SopInstr{static_cast<SopOp>(op), dst,
                                         decode_operand(s1),
                                         decode_operand(s2)});
            emit(candidate);
            if (depth + 1 < cfg.max_len) self(self, depth + 1);
            candidate.pop_back();
          }
        }
      }
    }
  };
  enumerate(enumerate, 0);

  // Drain: a closed queue still hands out what it holds, so the testers
  // finish every queued candidate before they exit.
  for (auto& q : queues) q.close();
  for (auto& t : tester_threads) t.join();
  sys.stop();

  RunResult r = collect_run(cluster, sys);
  r.compile = prog.stats;
  r.check = static_cast<double>(equivalences.load());
  return r;
}

}  // namespace rmiopt::apps
