// Frontend robustness fuzzing: arbitrary byte soup and mutated valid
// programs must either compile or raise ParseError with a position —
// never crash, hang, or corrupt memory.
#include <gtest/gtest.h>

#include "apps/paper_figures.hpp"
#include "driver/compile.hpp"
#include "frontend/compile.hpp"
#include "support/rng.hpp"

namespace rmiopt::frontend {
namespace {

class FrontendFuzzP : public ::testing::TestWithParam<int> {};

TEST_P(FrontendFuzzP, RandomBytesNeverCrashTheLexerOrParser) {
  SplitMix64 rng(GetParam() * 6151 + 17);
  const char alphabet[] =
      "abcz_ {}()[];,.=+-*/%<>!&|0123456789\n\t\"#@classremotenewhile";
  for (int trial = 0; trial < 50; ++trial) {
    std::string soup;
    const std::size_t len = rng.next_below(200);
    for (std::size_t i = 0; i < len; ++i) {
      soup.push_back(alphabet[rng.next_below(sizeof(alphabet) - 1)]);
    }
    try {
      compile_source(soup);
    } catch (const Error&) {
      // ParseError (or a nested check) is the expected outcome.
    }
  }
}

TEST_P(FrontendFuzzP, MutatedValidProgramsFailGracefully) {
  SplitMix64 rng(GetParam() * 409 + 23);
  const auto corpus = apps::figures::sources();  // every paper program
  for (int trial = 0; trial < 40; ++trial) {
    std::string src(corpus[rng.next_below(corpus.size())].text);
    // Apply 1-3 random mutations: delete a span, duplicate a span, or
    // flip a character.
    const int mutations = 1 + static_cast<int>(rng.next_below(3));
    for (int m = 0; m < mutations && !src.empty(); ++m) {
      const std::size_t pos = rng.next_below(src.size());
      switch (rng.next_below(3)) {
        case 0:
          src.erase(pos, 1 + rng.next_below(8));
          break;
        case 1:
          src.insert(pos, src.substr(pos, 1 + rng.next_below(8)));
          break;
        default:
          src[pos] = static_cast<char>('!' + rng.next_below(90));
          break;
      }
    }
    try {
      Unit unit = compile_source(src);
      // If it still compiles, the module must be verifiable and the
      // analyses must run (no hidden inconsistency).
      analysis::HeapAnalysis heap(*unit.module);
      heap.run();
    } catch (const Error&) {
      // Expected for most mutations.
    }
  }
}

TEST_P(FrontendFuzzP, ValidCorpusAlwaysCompiles) {
  for (const auto& [file, text] : apps::figures::sources()) {
    EXPECT_NO_THROW({
      Unit unit = compile_source(text);
      driver::CompiledProgram prog = driver::compile(
          *unit.module, codegen::OptLevel::SiteReuseCycle);
      (void)prog;
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontendFuzzP, ::testing::Range(0, 8));

}  // namespace
}  // namespace rmiopt::frontend
