// Distributed LU factorization (paper §5.2, SPLASH-2 style).
//
// A dense n×n matrix is factored in place (no pivoting, as in SPLASH-2
// LU).  Rows are distributed cyclically over the machines; at step k the
// owner of row k pushes the pivot row to every peer (the paper's "updates
// are flushed"), everyone updates their rows below k, and a barrier
// (deferred-reply RMI on machine 0) closes the step.  At the end machine 0
// fetches every remotely-owned row (exercising return-value reuse) and the
// result is verified against L·U = A.
#pragma once

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

struct LuConfig {
  std::size_t n = 64;          // matrix dimension (paper: 1024)
  std::size_t machines = 2;    // paper: 2 CPUs
  std::uint64_t seed = 42;     // matrix generator
  // Virtual cost of one multiply-add of the update loop (P-III-era,
  // non-vectorized).  Charged to the worker's machine clock so compute
  // and communication trade off realistically in the makespan.
  double flop_pair_ns = 2.0;
  serial::CostModel cost{};    // network/serialization cost model
  net::TransportKind transport = net::TransportKind::Sim;
  std::size_t dispatch_workers = 1;  // RMI handler pool per machine
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

// RunResult::check is the maximum |L·U - A| residual entry (machine 0's
// reassembled matrix); a correct run keeps it tiny relative to ‖A‖.
RunResult run_lu(codegen::OptLevel level, const LuConfig& cfg = {});

}  // namespace rmiopt::apps
