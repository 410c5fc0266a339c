// rmibench: the repository benchmark driver.
//
//   rmibench --workload superopt|webserver_bulk|compile --seed N
//            --seconds S --trace 0|1 [--sources DIR] [--spans-out FILE]
//
// Prints one "name value unit" line per metric, then the result as one
// JSON object on the last line of stdout.  --trace 0 measures the
// end-to-end metrics; --trace 1 records spans around every public call,
// runs the layer replay, reports the per-layer metrics and writes the spans
// to --spans-out.  See perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "rmibench: %s\nusage: rmibench --workload "
               "superopt|webserver_bulk|compile --seed N --seconds S "
               "--trace 0|1 [--sources DIR] [--spans-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string spans_out;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("--seed is not a number");
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0 && opt.seconds <= 600)) {
        return usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--sources") {
      opt.sources_dir = value;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!perfbench::known_workload(opt.workload)) return usage("unknown workload");
  if (!have_seed) return usage("--seed is required");

  try {
    perfbench::SpanLog log(opt.trace);
    perfbench::Report report;
    perfbench::run_workload(opt, log, report);
    if (opt.trace && !spans_out.empty() && !log.write_csv(spans_out)) {
      std::fprintf(stderr, "rmibench: cannot write %s\n", spans_out.c_str());
      return 1;
    }
    report.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rmibench: %s\n", e.what());
    return 1;
  }
  return 0;
}
