// Frontend entry point: MiniParty source text -> type registry + IR
// module, ready for driver::compile().
//
// Semantics notes (documented divergences from full Java, all irrelevant
// to the paper's analyses):
//  * no constructors — `new C(a, b)` assigns a, b to C's first fields in
//    declaration order ("record-style" construction, enough for the
//    paper's `new LinkedList(head)`);
//  * no implicit `this`: instance state of *remote* classes is per-VM
//    (JavaParty remote objects act as per-machine singletons here), so
//    `this.f` in a remote class lowers to a module global `Class.f`;
//    regular classes access fields only through explicit references;
//  * no overloading; locals must be initialized at declaration;
//  * `while`/`if` lower to SSA phis — conditions are evaluated for their
//    data-flow effects only (the analyses are flow-insensitive);
//  * `String` is built in: the runtime's string class, a byte array with
//    text semantics (`new String()`, `s[i]`, `s.length`).
#pragma once

#include <map>
#include <memory>

#include "frontend/ast.hpp"
#include "ir/builder.hpp"

namespace rmiopt::frontend {

struct Unit {
  std::unique_ptr<om::TypeRegistry> types;
  std::unique_ptr<ir::Module> module;
  std::map<std::string, om::ClassId> classes;      // source names + "String"
  std::map<std::string, ir::FuncId> functions;     // "Class.method"
  std::map<std::uint32_t, std::string> callsites;  // tag -> "Class.method@line"

  // A source class, or any type-registry name ("[double", "[LInstruction;");
  // throws std::out_of_range if there is none.
  om::ClassId cls(const std::string& name) const;
  ir::FuncId func(const std::string& name) const {
    return functions.at(name);
  }
  // The tags of every remote call to `Class.method`, in source order.
  std::vector<std::uint32_t> tags_for(const std::string& callee) const;
  // The tag of the one remote call site of `method` ("test", "get_page");
  // throws std::out_of_range if there is none and Error if there are more.
  std::uint32_t tag(const std::string& method) const;
  // The module's remote call site with the given tag; throws Error if
  // there is none.
  ir::Module::RemoteCallRef site(std::uint32_t tag) const;
};

// Parses, type-checks and lowers `source`; throws ParseError on any
// lexical, syntactic or semantic error (with line:column).  The returned
// module is verified.
Unit compile_source(std::string_view source);

}  // namespace rmiopt::frontend
