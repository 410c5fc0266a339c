// Marshal plans: the compiler's generated (un)marshaling code.
//
// The paper's compiler emits marshaling code "directly in the compiler's
// intermediate language" (§3.1).  Our equivalent artifact is a `NodePlan`
// tree: a statically-resolved description of how to serialize one object
// node and the substructure the compiler could prove.  Executing a plan is
// the analog of running the generated code, and the cost model charges
// exactly what each generated-code shape would cost:
//
//  * an *inline* node (type_info == None) is serialization code inlined at
//    the call site — no method invocation, no type info;
//  * a *dynamic* node (type_info != None) is an explicit invocation of the
//    class-specific serializer of the object's runtime class — one
//    serializer invocation plus type info (a class id, or a class name for
//    the introspective baseline) per object, recursively;
//  * `cycle_check` marks nodes that must consult the runtime cycle table;
//  * a null `ret` plan in `CallSitePlan` means the call site ignores the
//    return value, so the callee sends a small ACK instead (§3.1).
//
// `class`-mode compilation produces degenerate plans whose roots are all
// dynamic CompactId nodes — that reproduces the class-specific serializers
// of KaRMI/Manta that the paper uses as its baseline; `introspect` mode
// produces the same shape with FullName nodes (the Sun-RMI-like protocol).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "objmodel/class_desc.hpp"

namespace rmiopt::serial {

enum class TypeInfoMode : std::uint8_t {
  None,       // BARE inline node: both sides know the type from the plan
  CompactId,  // COMPACT dynamic node: varint class id (class-specific)
  FullName,   // HEAVY dynamic node: class name string (introspective)
};

struct NodePlan {
  // Static class of this node.  For inline nodes this is exact (the heap
  // analysis proved the runtime type); for dynamic nodes it is only the
  // declared upper bound and the runtime class decides.
  om::ClassId expected_class = om::kNoClass;
  // The node's protocol: None for an inline node, otherwise the type info
  // a dynamic node writes before the runtime class's serializer body.
  TypeInfoMode type_info = TypeInfoMode::None;
  bool cycle_check = false;

  bool is_dynamic() const { return type_info != TypeInfoMode::None; }

  // Monomorphic recursion (§3.1): when the heap analysis proves that a
  // recursive position (a linked list's `Next`) unambiguously holds one
  // class, the generated code loops back into the ancestor's inlined body
  // instead of calling the class-specific serializer — no type info, no
  // dispatch.  Non-owning pointer to an ancestor node of the same plan
  // tree; all other fields of a recursion node are unused.
  const NodePlan* recurse_to = nullptr;

  // Non-array inline nodes: actions per field, in layout order.
  struct FieldAction {
    const om::FieldDescriptor* field = nullptr;
    // Set for Ref fields: how to serialize the referent.
    std::unique_ptr<NodePlan> ref_plan;
  };
  std::vector<FieldAction> fields;

  // Ref-element arrays: how to serialize each element.  Primitive arrays
  // (including strings) are bulk-copied and need no element plan.
  std::unique_ptr<NodePlan> elem_plan;

  // Deep copy (plans are owned by the compiled program; tests clone).
  // recurse_to back edges are remapped onto the copies.
  std::unique_ptr<NodePlan> clone() const;
};

struct CallSitePlan {
  std::string name;  // e.g. "ArrayBench.benchmark.send#0"
  std::uint32_t id = 0;
  std::vector<std::unique_ptr<NodePlan>> args;
  std::unique_ptr<NodePlan> ret;  // nullptr => return value elided, ACK only
  // Whether this site needs a runtime cycle table at all.  `class` mode:
  // always true.  `site+cycle` mode: false iff the heap analysis proved
  // every argument/return graph acyclic (§3.2).
  bool needs_cycle_table = true;
  // Whether the callee may cache and reuse the deserialized argument graph
  // (and the caller the return graph) across invocations (§3.3).
  bool reuse_args = false;
  bool reuse_ret = false;

  std::unique_ptr<CallSitePlan> clone() const;
};

// Renders a plan as pseudo code in the style of the paper's Figures 6/7/13
// (used by tests and the compiler_tour example to compare generated code).
std::string to_pseudocode(const NodePlan& plan, const om::TypeRegistry& types,
                          int indent = 0);
std::string to_pseudocode(const CallSitePlan& plan,
                          const om::TypeRegistry& types);

}  // namespace rmiopt::serial
