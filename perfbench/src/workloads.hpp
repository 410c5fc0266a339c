// The benchmark's workloads.  Each is a closed loop (the next operation
// starts when the previous one returned) at 2 machines, Sim transport and
// one dispatch worker:
//
//   superopt        run_superopt, max_len 2, all five levels per iteration
//   webserver_bulk  run_webserver, 64 KiB pages, 2 concurrent clients
//   compile         cold + warm compile rounds over examples/miniparty
//
// The runtime workloads also run the compile rounds, for a tenth of their
// time, so every workload reports every end-to-end metric.
#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string sources_dir = "examples/miniparty";
};

bool known_workload(const std::string& name);

// Sets up, measures for opt.seconds and checks one workload, filling
// `report` with the end-to-end metrics (untraced) or the per-layer metrics
// (traced).  Failed output checks are tallied in the report, not thrown.
void run_workload(const Options& opt, SpanLog& log, Report& report);

}  // namespace perfbench
