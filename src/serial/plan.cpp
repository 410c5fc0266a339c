#include "serial/plan.hpp"

#include <sstream>
#include <unordered_map>

namespace rmiopt::serial {

namespace {

std::unique_ptr<NodePlan> clone_node(
    const NodePlan& src,
    std::unordered_map<const NodePlan*, NodePlan*>& mapping) {
  auto copy = std::make_unique<NodePlan>();
  mapping.emplace(&src, copy.get());
  copy->expected_class = src.expected_class;
  copy->type_info = src.type_info;
  copy->cycle_check = src.cycle_check;
  copy->recurse_to = src.recurse_to;  // remapped by the caller afterwards
  for (const auto& fa : src.fields) {
    NodePlan::FieldAction c;
    c.field = fa.field;
    if (fa.ref_plan) c.ref_plan = clone_node(*fa.ref_plan, mapping);
    copy->fields.push_back(std::move(c));
  }
  if (src.elem_plan) copy->elem_plan = clone_node(*src.elem_plan, mapping);
  return copy;
}

void remap_recursion(NodePlan& node,
                     const std::unordered_map<const NodePlan*, NodePlan*>&
                         mapping) {
  if (node.recurse_to != nullptr) {
    auto it = mapping.find(node.recurse_to);
    if (it != mapping.end()) node.recurse_to = it->second;
  }
  for (auto& fa : node.fields) {
    if (fa.ref_plan) remap_recursion(*fa.ref_plan, mapping);
  }
  if (node.elem_plan) remap_recursion(*node.elem_plan, mapping);
}

}  // namespace

std::unique_ptr<NodePlan> NodePlan::clone() const {
  std::unordered_map<const NodePlan*, NodePlan*> mapping;
  std::unique_ptr<NodePlan> copy = clone_node(*this, mapping);
  remap_recursion(*copy, mapping);
  return copy;
}

std::unique_ptr<CallSitePlan> CallSitePlan::clone() const {
  auto copy = std::make_unique<CallSitePlan>();
  copy->name = name;
  copy->id = id;
  for (const auto& a : args) copy->args.push_back(a->clone());
  if (ret) copy->ret = ret->clone();
  copy->needs_cycle_table = needs_cycle_table;
  copy->reuse_args = reuse_args;
  copy->reuse_ret = reuse_ret;
  return copy;
}

namespace {

void indent_to(std::ostringstream& out, int n) {
  for (int i = 0; i < n; ++i) out << "  ";
}

void render_node(std::ostringstream& out, const NodePlan& plan,
                 const om::TypeRegistry& types, int indent,
                 const std::string& expr) {
  if (plan.recurse_to != nullptr) {
    indent_to(out, indent);
    out << "loop_serialize(" << expr
        << ");  // inlined monomorphic recursion, no dispatch\n";
    return;
  }
  if (plan.cycle_check) {
    indent_to(out, indent);
    out << "if (handle = cycle_table.lookup_or_insert(" << expr
        << ")) { m.write_handle(handle); skip; }\n";
  }
  if (plan.is_dynamic()) {
    indent_to(out, indent);
    out << expr << ".serialize(m);  // dynamic call, writes class "
        << (plan.type_info == TypeInfoMode::FullName ? "name" : "id") << "\n";
    return;
  }
  // An inline node's class is exact: the heap analysis proved it.
  const om::ClassDescriptor& cls = types.get(plan.expected_class);
  if (cls.is_array) {
    indent_to(out, indent);
    out << "m.write_int(" << expr << ".length);\n";
    if (cls.elem_kind == om::TypeKind::Ref) {
      indent_to(out, indent);
      out << "for (i = 0; i < " << expr << ".length; i++)\n";
      if (plan.elem_plan) {
        render_node(out, *plan.elem_plan, types, indent + 1, expr + "[i]");
      } else {
        indent_to(out, indent + 1);
        out << expr << "[i].serialize(m);\n";
      }
    } else {
      indent_to(out, indent);
      out << "m.append_" << name_of(cls.elem_kind) << "_array(" << expr
          << ");  // bulk copy, inlined\n";
    }
    return;
  }
  for (const auto& fa : plan.fields) {
    if (fa.field->kind == om::TypeKind::Ref) {
      if (fa.ref_plan) {
        render_node(out, *fa.ref_plan, types, indent,
                    expr + "." + fa.field->name);
      }
    } else {
      indent_to(out, indent);
      out << "m.write_" << name_of(fa.field->kind) << "(" << expr << "."
          << fa.field->name << ");  // inlined\n";
    }
  }
}

}  // namespace

std::string to_pseudocode(const NodePlan& plan, const om::TypeRegistry& types,
                          int indent) {
  std::ostringstream out;
  render_node(out, plan, types, indent, "s");
  return out.str();
}

std::string to_pseudocode(const CallSitePlan& plan,
                          const om::TypeRegistry& types) {
  std::ostringstream out;
  out << "void marshaler_" << plan.name << "(...) {\n";
  out << "  Message m = stack_allocated_message();\n";
  if (plan.needs_cycle_table) {
    out << "  cycle_table = new CycleTable();\n";
  } else {
    out << "  // cycle detection elided: heap analysis proved acyclic\n";
  }
  for (std::size_t i = 0; i < plan.args.size(); ++i) {
    out << "  // --- argument " << i
        << (plan.reuse_args ? " (reusable at callee)" : "") << "\n";
    std::ostringstream node;
    render_node(node, *plan.args[i], types, 1,
                "a" + std::to_string(i));
    out << node.str();
  }
  out << "  m.send();\n";
  if (plan.ret) {
    out << "  wait_for_return_value();"
        << (plan.reuse_ret ? "  // return graph reusable at caller" : "")
        << "\n";
  } else {
    out << "  wait_for_ack();  // return value elided at this call site\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace rmiopt::serial
