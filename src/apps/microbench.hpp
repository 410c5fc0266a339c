// The paper's two microbenchmarks (§5.1):
//  * LinkedList transmission — Figure 14, Table 1,
//  * 2-D array (16x16 doubles) transmission — Figure 12, Table 2.
//
// Each run compiles the corresponding IR model at the requested level,
// installs the generated plans into a 2-machine cluster, and sends the
// structure `iterations` times from machine 0 to machine 1.
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

struct ListBenchConfig {
  int list_length = 100;   // paper: 100 elements
  int iterations = 100;    // paper: benchmark routine run 100 times
  std::size_t machines = 2;
  // §7 future-work refinement: prove the list acyclic at compile time.
  bool precise_cycles = false;
  serial::CostModel cost{};
  net::TransportKind transport = net::TransportKind::Sim;
  std::size_t dispatch_workers = 1;
  net::FaultPlan faults{};  // seeded fault injection (inert by default)
  net::FailureDetectorConfig detector{};  // heartbeat failure detection (inert by default)
  // Optional trace recorder (nullptr = tracing off, zero overhead).
  trace::Recorder* recorder = nullptr;
  // Optional frame probe installed on the cluster's transport: sees every
  // frame at the NIC boundary (bench/ablation_zero_copy digests frame
  // images with it to prove Sim/Loopback/gather-on/gather-off equality).
  net::Transport::FrameProbe frame_probe = nullptr;
  // Optional shared program (nullptr = lower a fresh one per run).  Must
  // outlive any PassManager that compiled it (see driver/pass_manager.hpp).
  frontend::Unit* model = nullptr;
  // Optional shared pass manager: analyses and plans are then cached
  // across runs and levels (nullptr = one-shot driver::compile).  Honored
  // only together with `model` — a caching manager must never hold
  // analyses of a run-local module that dies with the run.
  driver::PassManager* pass_manager = nullptr;
};

RunResult run_list_bench(codegen::OptLevel level,
                         const ListBenchConfig& cfg = {});

struct ArrayBenchConfig {
  std::uint32_t rows = 16;  // paper: 16x16 doubles
  std::uint32_t cols = 16;
  int iterations = 100;
  std::size_t machines = 2;
  // When nonzero, every other send uses this column count instead: the
  // reuse cache's runtime size check (Fig. 13) fails and rows reallocate.
  std::uint32_t alternate_cols = 0;
  serial::CostModel cost{};
  net::TransportKind transport = net::TransportKind::Sim;
  std::size_t dispatch_workers = 1;
  net::FaultPlan faults{};  // seeded fault injection (inert by default)
  net::FailureDetectorConfig detector{};  // heartbeat failure detection (inert by default)
  // Optional trace recorder (nullptr = tracing off, zero overhead).
  trace::Recorder* recorder = nullptr;
  // Optional frame probe installed on the cluster's transport (see
  // ListBenchConfig::frame_probe).
  net::Transport::FrameProbe frame_probe = nullptr;
  // Optional shared program (nullptr = lower a fresh one per run).  Must
  // outlive any PassManager that compiled it (see driver/pass_manager.hpp).
  frontend::Unit* model = nullptr;
  // Optional shared pass manager: analyses and plans are then cached
  // across runs and levels (nullptr = one-shot driver::compile).  Honored
  // only together with `model` — a caching manager must never hold
  // analyses of a run-local module that dies with the run.
  driver::PassManager* pass_manager = nullptr;
};

RunResult run_array_bench(codegen::OptLevel level,
                          const ArrayBenchConfig& cfg = {});

}  // namespace rmiopt::apps
