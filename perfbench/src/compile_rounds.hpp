// Cold and warm compile rounds over a list of MiniParty sources.
//
// A cold round runs every source through frontend::compile_source and
// then the one-shot driver::compile at all five paper levels.  A warm round
// compiles the same, already-parsed modules through one long-lived
// driver::PassManager whose caches prepare() filled, so every analysis and
// plan is a cache hit.  Both kinds of round are checked against the plans
// prepare() recorded, rendered with codegen::to_string.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "bench.hpp"
#include "driver/compile.hpp"
#include "driver/pass_manager.hpp"
#include "frontend/compile.hpp"

namespace perfbench {

struct SourceFile {
  std::string name;
  std::string text;
};

// What one round did and cost.  Times are host time of the public calls;
// the plan check after the round is not timed.
struct RoundStats {
  double wall_ms = 0.0;      // the whole round
  double frontend_us = 0.0;  // frontend::compile_source calls (cold only)
  Usage usage;               // CPU and context switches of the round
  rmiopt::driver::CompileStats compile;  // summed over the round's compiles
  std::uint64_t compiles = 0;            // (source, level) compiles
  std::uint64_t mismatches = 0;          // compiles whose plans differ
};

class CompileRounds {
 public:
  // Parses every source, compiles it at all five levels through the warm
  // manager and records the reference rendering of each plan set.
  explicit CompileRounds(std::vector<SourceFile> sources);

  RoundStats cold_round(SpanLog& log);
  RoundStats warm_round(SpanLog& log);

  // The parsed unit of source `name` (owned here; its module stays
  // compiled in the warm manager) and its plans at each paper level.
  rmiopt::frontend::Unit& unit(const std::string& name);
  const std::array<rmiopt::driver::CompiledProgram, 5>& programs(
      const std::string& name) const;

  std::size_t size() const { return sources_.size(); }

 private:
  std::size_t index_of(const std::string& name) const;

  std::vector<SourceFile> sources_;
  // Declared before warm_: the manager's cached analyses point into these
  // modules, so the manager must be destroyed first.
  std::vector<rmiopt::frontend::Unit> units_;
  std::vector<std::array<rmiopt::driver::CompiledProgram, 5>> programs_;
  std::vector<std::array<std::string, 5>> reference_;
  rmiopt::driver::PassManager warm_;
};

}  // namespace perfbench
