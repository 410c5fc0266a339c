#include "compile_rounds.hpp"

#include "support/error.hpp"

namespace perfbench {

using rmiopt::codegen::kPaperLevels;
using rmiopt::driver::CompiledProgram;

namespace {

std::string render(const CompiledProgram& program,
                   const rmiopt::om::TypeRegistry& types) {
  std::string out;
  for (const auto& [tag, decision] : program.sites) {
    out += rmiopt::codegen::to_string(decision, types);
    out += '\n';
  }
  return out;
}

}  // namespace

CompileRounds::CompileRounds(std::vector<SourceFile> sources)
    : sources_(std::move(sources)) {
  for (const SourceFile& s : sources_) {
    units_.push_back(rmiopt::frontend::compile_source(s.text));
    std::array<CompiledProgram, 5> programs;
    std::array<std::string, 5> rendered;
    for (std::size_t l = 0; l < kPaperLevels.size(); ++l) {
      programs[l] = warm_.compile(*units_.back().module, kPaperLevels[l]);
      rendered[l] = render(programs[l], *units_.back().types);
    }
    programs_.push_back(std::move(programs));
    reference_.push_back(std::move(rendered));
  }
}

RoundStats CompileRounds::cold_round(SpanLog& log) {
  RoundStats st;
  struct Compiled {
    rmiopt::frontend::Unit unit;
    std::array<CompiledProgram, 5> programs;
  };
  std::vector<Compiled> out(sources_.size());
  const Usage u0 = Usage::now();
  const std::int64_t t0 = now_ns();
  const std::int64_t round = log.reserve();
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    const std::int64_t f0 = now_ns();
    out[i].unit = rmiopt::frontend::compile_source(sources_[i].text);
    const std::int64_t f1 = now_ns();
    log.add("frontend.compile_source", f0, f1, round, i);
    st.frontend_us += static_cast<double>(f1 - f0) * 1e-3;
    for (std::size_t l = 0; l < kPaperLevels.size(); ++l) {
      out[i].programs[l] =
          rmiopt::driver::compile(*out[i].unit.module, kPaperLevels[l]);
    }
    log.add("driver.compile", f1, now_ns(), round, i);
  }
  const std::int64_t t1 = now_ns();
  log.add("compile.cold_round", t0, t1, -1, 0, round);
  st.usage = Usage::now() - u0;
  st.wall_ms = static_cast<double>(t1 - t0) * 1e-6;

  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t l = 0; l < kPaperLevels.size(); ++l) {
      st.compile += out[i].programs[l].stats;
      ++st.compiles;
      if (render(out[i].programs[l], *out[i].unit.types) != reference_[i][l]) {
        ++st.mismatches;
      }
    }
  }
  return st;
}

RoundStats CompileRounds::warm_round(SpanLog& log) {
  RoundStats st;
  std::vector<std::array<CompiledProgram, 5>> out(sources_.size());
  const Usage u0 = Usage::now();
  const std::int64_t t0 = now_ns();
  const std::int64_t round = log.reserve();
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    const std::int64_t c0 = now_ns();
    for (std::size_t l = 0; l < kPaperLevels.size(); ++l) {
      out[i][l] = warm_.compile(*units_[i].module, kPaperLevels[l]);
    }
    log.add("driver.pass_manager.compile", c0, now_ns(), round, i);
  }
  const std::int64_t t1 = now_ns();
  log.add("compile.warm_round", t0, t1, -1, 0, round);
  st.usage = Usage::now() - u0;
  st.wall_ms = static_cast<double>(t1 - t0) * 1e-6;

  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t l = 0; l < kPaperLevels.size(); ++l) {
      st.compile += out[i][l].stats;
      ++st.compiles;
      if (render(out[i][l], *units_[i].types) != reference_[i][l]) {
        ++st.mismatches;
      }
    }
  }
  return st;
}

std::size_t CompileRounds::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    if (sources_[i].name == name) return i;
  }
  throw rmiopt::Error("no compiled source named " + name);
}

rmiopt::frontend::Unit& CompileRounds::unit(const std::string& name) {
  return units_[index_of(name)];
}

const std::array<CompiledProgram, 5>& CompileRounds::programs(
    const std::string& name) const {
  return programs_[index_of(name)];
}

}  // namespace perfbench
