// Marshal-plan generation (paper §3.1).
//
// For each remote call site the generator consumes the heap analysis and
// emits a CallSitePlan:
//
//  * `class`/`introspect` levels produce the baseline shape: every argument
//    root is a dynamic-dispatch node (the class-specific serializer of the
//    runtime class is invoked per object, Figure 7) writing class ids or,
//    at `introspect`, class names; the return value is always shipped, the
//    cycle table is always on;
//  * `site*` levels inline: where the points-to set of a node resolves to
//    exactly one runtime class, the plan embeds the field layout directly
//    (no serializer invocation, no wire type info — Figure 6); recursive
//    or polymorphic positions fall back to dynamic nodes; unused return
//    values are elided into an ACK; cycle detection and reuse are switched
//    by the corresponding analyses at the SiteCycle/SiteReuse levels.
#pragma once

#include <memory>

#include "analysis/cycle_analysis.hpp"
#include "analysis/escape_analysis.hpp"
#include "codegen/opt_level.hpp"
#include "serial/plan.hpp"

namespace rmiopt::codegen {

struct CallSiteDecision {
  std::uint32_t tag = 0;
  std::string callee_name;
  // Indices of the callee's reference parameters, in order; the runtime
  // call passes exactly these as object arguments.
  std::vector<std::size_t> ref_params;
  std::unique_ptr<serial::CallSitePlan> plan;

  // Analysis verdicts (for reporting / EXPERIMENTS.md):
  bool proved_acyclic = false;
  bool args_reusable = false;
  bool ret_reusable = false;
  bool return_elided = false;
  std::size_t inline_nodes = 0;     // fully inlined plan nodes
  std::size_t dynamic_nodes = 0;    // dynamic-dispatch fallback nodes
  std::size_t recursive_nodes = 0;  // inlined monomorphic recursion loops

  // Profile-guided promotion (driver::respecialize): the site's ACK-style
  // replies may be held back and coalesced by a batching session.  Never
  // set by a plain compile — the runtime ignores it unless session
  // batching is on, so the default behaviour is untouched.
  bool batch_ack = false;

  // Deep copy (the plan cache stores decisions; retrieval clones them).
  CallSiteDecision clone() const;
};

// Canonical single-string rendering of everything a decision carries —
// flags, node counts and the full plan pseudocode.  Two decisions are
// byte-identical under this rendering iff the compiler made identical
// choices; the cache-correctness test and the CI cold-vs-cached gate
// compare exactly these strings.
std::string to_string(const CallSiteDecision& d, const om::TypeRegistry& types);

class PlanGenerator {
 public:
  PlanGenerator(const analysis::HeapAnalysis& heap,
                const analysis::CycleAnalysis& cycles,
                const analysis::EscapeAnalysis& escapes)
      : heap_(heap), cycles_(cycles), escapes_(escapes) {}

  CallSiteDecision generate(const ir::Module::RemoteCallRef& site,
                            OptLevel level) const;

 private:
  // One frame per plan node under construction, so recursive positions can
  // loop back to the matching ancestor (§3.1 eliminates the recursive call
  // when the type is unambiguous).
  struct Frame {
    const analysis::NodeSet* targets;
    serial::NodePlan* plan;
  };
  std::unique_ptr<serial::NodePlan> build_node(
      const analysis::NodeSet& targets, om::ClassId declared,
      bool cycle_checks, std::vector<Frame>& path,
      CallSiteDecision& out) const;
  std::unique_ptr<serial::NodePlan> dynamic_node(
      om::ClassId declared, bool cycle_checks, CallSiteDecision& out,
      serial::TypeInfoMode type_info = serial::TypeInfoMode::CompactId) const;
  static bool result_is_used(const ir::Function& caller,
                             const ir::Instr& call);

  const analysis::HeapAnalysis& heap_;
  const analysis::CycleAnalysis& cycles_;
  const analysis::EscapeAnalysis& escapes_;
};

}  // namespace rmiopt::codegen
