// The parallel superoptimizer (paper §5.3, after Massalin).
//
// A producer thread on machine 0 enumerates every instruction sequence up
// to `max_len` instructions over a small register ISA and ships each
// candidate as an RMI (`Tester.test(Program)`) round-robin to the tester
// machines.  A tester's handler pushes the received program graph into a
// bounded queue (so the argument *escapes* — no reuse, as the paper notes)
// and a tester thread pops candidates and checks them for behavioural
// equivalence with the target sequence on random register states.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/run_result.hpp"
#include "codegen/opt_level.hpp"
#include "net/failure_detector.hpp"
#include "net/transport.hpp"

namespace rmiopt::driver {
class PassManager;
}

namespace rmiopt::frontend {
struct Unit;
}

namespace rmiopt::apps {

// The tiny target ISA.
enum class SopOp : std::int32_t { Add, Sub, And, Or, Xor, Mov, Shl };
inline constexpr int kSopOps = 7;
inline constexpr int kSopRegs = 2;   // r0, r1
inline constexpr int kSopImms = 2;   // immediates 0, 1

struct SopOperand {
  bool is_imm = false;
  std::int64_t value = 0;  // register index or immediate
};

struct SopInstr {
  SopOp op = SopOp::Add;
  int dst = 0;           // destination register
  SopOperand src1, src2;  // Mov/Shl use src1 (and src2 for shift amount)
};

using SopProgram = std::vector<SopInstr>;

// Reference interpreter (used by the testers and by unit tests).
void sop_execute(const SopProgram& prog, std::int64_t regs[kSopRegs]);

struct SuperoptConfig {
  SopProgram target = {};      // empty => default target r0 = r0 + r0
  int max_len = 1;             // candidate sequence length 1..max_len
  int test_vectors = 8;        // random states per equivalence check
  std::size_t machines = 2;    // producer + (machines-1) testers
  std::size_t queue_capacity = 64;
  std::uint64_t seed = 7;
  serial::CostModel cost{};
  net::TransportKind transport = net::TransportKind::Sim;
  std::size_t dispatch_workers = 1;
  net::FaultPlan faults{};     // seeded fault injection (inert by default)
  net::FailureDetectorConfig detector{};  // heartbeat failure detection (inert by default)
  // Optional trace recorder (nullptr = tracing off, zero overhead).
  trace::Recorder* recorder = nullptr;
  // Optional shared program (nullptr = lower a fresh one per run).  Must
  // outlive any PassManager that compiled it (see driver/pass_manager.hpp).
  frontend::Unit* model = nullptr;
  // Optional shared pass manager: analyses and plans are then cached
  // across runs and levels (nullptr = one-shot driver::compile).  Honored
  // only together with `model` — a caching manager must never hold
  // analyses of a run-local module that dies with the run.
  driver::PassManager* pass_manager = nullptr;
};

// RunResult::check = number of equivalent sequences found (deterministic
// for a given config).
RunResult run_superopt(codegen::OptLevel level,
                       const SuperoptConfig& cfg = {});

// Exposed for tests: the number of candidate sequences of length exactly
// `len` the producer enumerates.
std::uint64_t sop_candidates_per_length();

}  // namespace rmiopt::apps
