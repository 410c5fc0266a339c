// The parallel web server (paper §5.4).
//
// A master on machine 0 accepts page requests and forwards each to a slave
// selected by the URL's Java hash code; the slave looks the page up in its
// in-memory table and returns it.  The whole application revolves around a
// single RMI — page = server[url.hashCode()].get_page(url) — whose URL
// argument and page return value the compiler proves cycle-free and
// reusable (Tables 7 and 8).
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

struct WebserverConfig {
  std::size_t machines = 2;     // master + (machines-1) slaves
  std::size_t pages = 64;       // distinct pages per slave
  std::size_t page_size = 2048; // bytes per page (uniform: reuse-friendly)
  std::size_t requests = 500;   // total page retrievals
  std::size_t concurrent_clients = 1;  // master-side request pipelines
  std::uint64_t seed = 3;       // request sequence
  serial::CostModel cost{};
  net::TransportKind transport = net::TransportKind::Sim;
  std::size_t dispatch_workers = 1;
  net::FaultPlan faults{};  // seeded fault injection (inert by default)
  // Heartbeat failure detection (inert by default).  Enabled, a crashed
  // slave is confirmed dead in bounded virtual time and its traffic fails
  // fast (rmi::MachineDown) instead of burning the full ARQ budget.
  net::FailureDetectorConfig detector{};
  // Real-time backstop per blocked call (forwarded to the RMI runtime;
  // virtual-time failures do not wait on it).
  std::int64_t call_timeout_ms = 30'000;
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

// RunResult::check = total page bytes received by the master; a correct
// run returns requests * page_size.
RunResult run_webserver(codegen::OptLevel level,
                        const WebserverConfig& cfg = {});

}  // namespace rmiopt::apps
