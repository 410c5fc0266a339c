#include "codegen/plan_generator.hpp"

#include "serial/class_plans.hpp"

namespace rmiopt::codegen {

CallSiteDecision CallSiteDecision::clone() const {
  CallSiteDecision c;
  c.tag = tag;
  c.callee_name = callee_name;
  c.ref_params = ref_params;
  c.plan = plan ? plan->clone() : nullptr;
  c.proved_acyclic = proved_acyclic;
  c.args_reusable = args_reusable;
  c.ret_reusable = ret_reusable;
  c.return_elided = return_elided;
  c.inline_nodes = inline_nodes;
  c.dynamic_nodes = dynamic_nodes;
  c.recursive_nodes = recursive_nodes;
  c.batch_ack = batch_ack;
  return c;
}

std::string to_string(const CallSiteDecision& d,
                      const om::TypeRegistry& types) {
  std::string out;
  out += "site tag=" + std::to_string(d.tag) + " callee=" + d.callee_name;
  out += " ref_params=[";
  for (std::size_t i = 0; i < d.ref_params.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(d.ref_params[i]);
  }
  out += "]";
  out += std::string(" acyclic=") + (d.proved_acyclic ? "y" : "n");
  out += std::string(" args_reusable=") + (d.args_reusable ? "y" : "n");
  out += std::string(" ret_reusable=") + (d.ret_reusable ? "y" : "n");
  out += std::string(" return_elided=") + (d.return_elided ? "y" : "n");
  out += std::string(" batch_ack=") + (d.batch_ack ? "y" : "n");
  out += " inline=" + std::to_string(d.inline_nodes);
  out += " dynamic=" + std::to_string(d.dynamic_nodes);
  out += " recursive=" + std::to_string(d.recursive_nodes);
  out += "\n";
  if (d.plan != nullptr) out += serial::to_pseudocode(*d.plan, types);
  return out;
}

bool PlanGenerator::result_is_used(const ir::Function& caller,
                                   const ir::Instr& call) {
  if (!call.has_result()) return false;
  for (const auto& block : caller.blocks) {
    for (const auto& in : block.instrs) {
      for (ir::ValueId op : in.operands) {
        if (op == call.result) return true;
      }
    }
  }
  return false;
}

std::unique_ptr<serial::NodePlan> PlanGenerator::dynamic_node(
    om::ClassId declared, bool cycle_checks, CallSiteDecision& out,
    serial::TypeInfoMode type_info) const {
  auto n = serial::make_dynamic_node(declared, type_info);
  n->cycle_check = cycle_checks;
  ++out.dynamic_nodes;
  return n;
}

std::unique_ptr<serial::NodePlan> PlanGenerator::build_node(
    const analysis::NodeSet& targets, om::ClassId declared, bool cycle_checks,
    std::vector<Frame>& path, CallSiteDecision& out) const {
  // Inline only when the heap analysis "guarantees that a reference will
  // unambiguously refer to a certain type at a call site" (§3.1).
  if (targets.empty()) return dynamic_node(declared, cycle_checks, out);
  om::ClassId cls = om::kNoClass;
  bool on_path = false;
  for (analysis::LogicalId id : targets) {
    const om::ClassId node_cls = heap_.node(id).cls;
    if (cls == om::kNoClass) {
      cls = node_cls;
    } else if (cls != node_cls) {
      return dynamic_node(declared, cycle_checks, out);  // polymorphic
    }
    for (const Frame& f : path) {
      if (f.targets->contains(id)) on_path = true;
    }
  }
  if (on_path) {
    // Recursive position.  If it unambiguously re-enters an ancestor
    // (identical target set), the generated code loops back into that
    // ancestor's inlined body — the paper "can eliminate that recursive
    // call if heap analysis guarantees that a reference will unambiguously
    // refer to a certain type" (§3.1).  Otherwise fall back to the
    // class-specific serializer for the tail.
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      if (*it->targets == targets) {
        auto rec = std::make_unique<serial::NodePlan>();
        rec->expected_class = cls;
        rec->recurse_to = it->plan;
        ++out.recursive_nodes;
        return rec;
      }
    }
    return dynamic_node(declared, cycle_checks, out);
  }

  const om::TypeRegistry& types = heap_.module().types();
  const om::ClassDescriptor& desc = types.get(cls);
  auto plan = std::make_unique<serial::NodePlan>();
  plan->expected_class = cls;
  plan->type_info = serial::TypeInfoMode::None;
  plan->cycle_check = cycle_checks;
  ++out.inline_nodes;

  path.push_back(Frame{&targets, plan.get()});
  if (desc.is_array) {
    if (desc.elem_kind == om::TypeKind::Ref) {
      analysis::NodeSet elem_targets;
      for (analysis::LogicalId id : targets) {
        const auto& e = heap_.node(id).elems;
        elem_targets.insert(e.begin(), e.end());
      }
      plan->elem_plan =
          build_node(elem_targets, desc.elem_class, cycle_checks, path, out);
    }
  } else {
    for (std::size_t fi = 0; fi < desc.fields.size(); ++fi) {
      serial::NodePlan::FieldAction fa;
      fa.field = &desc.fields[fi];
      if (desc.fields[fi].kind == om::TypeKind::Ref) {
        analysis::NodeSet field_targets;
        for (analysis::LogicalId id : targets) {
          auto it = heap_.node(id).fields.find(static_cast<std::uint32_t>(fi));
          if (it != heap_.node(id).fields.end()) {
            field_targets.insert(it->second.begin(), it->second.end());
          }
        }
        fa.ref_plan = build_node(field_targets, desc.fields[fi].ref_class,
                                 cycle_checks, path, out);
      }
      plan->fields.push_back(std::move(fa));
    }
  }
  path.pop_back();
  return plan;
}

CallSiteDecision PlanGenerator::generate(
    const ir::Module::RemoteCallRef& site, OptLevel level) const {
  const ir::Module& m = heap_.module();
  const ir::Function& caller = m.function(site.caller);
  const ir::Instr& call = *site.instr;
  const ir::Function& callee = m.function(call.callee);

  CallSiteDecision out;
  out.tag = call.callsite_tag;
  out.callee_name = callee.name;
  for (std::size_t i = 0; i < callee.params.size(); ++i) {
    if (callee.params[i].is_ref()) out.ref_params.push_back(i);
  }

  auto plan = std::make_unique<serial::CallSitePlan>();
  plan->name = caller.name + "." + callee.name + "#" +
               std::to_string(call.callsite_tag);

  const bool has_ret_value = !callee.ret.is_void && callee.ret.is_ref();
  // Analysis verdicts are level-independent facts; whether they are *used*
  // depends on the level.
  out.proved_acyclic = !cycles_.callsite_needs_cycle_table(site);
  out.args_reusable =
      !out.ref_params.empty() && escapes_.args_reusable(site);
  out.ret_reusable = has_ret_value && escapes_.return_reusable(site);

  if (!site_specific(level)) {
    // Baseline marshalers: one dynamic root per declared reference
    // parameter, return value always shipped, cycle table always on.  The
    // introspective baseline names each object's class on the wire.
    const serial::TypeInfoMode type_info =
        level == OptLevel::Heavy ? serial::TypeInfoMode::FullName
                                 : serial::TypeInfoMode::CompactId;
    for (std::size_t i : out.ref_params) {
      plan->args.push_back(dynamic_node(callee.params[i].class_id,
                                        /*cycle_checks=*/true, out,
                                        type_info));
    }
    if (has_ret_value) {
      plan->ret = dynamic_node(callee.ret.class_id, /*cycle_checks=*/true,
                               out, type_info);
    }
    plan->needs_cycle_table = true;
    out.plan = std::move(plan);
    return out;
  }

  // ---- call-site-specific generation (§3.1) --------------------------------
  out.return_elided = has_ret_value && !result_is_used(caller, call);
  const bool ship_ret = has_ret_value && !out.return_elided;

  plan->needs_cycle_table = cycle_elision(level) ? !out.proved_acyclic : true;
  plan->reuse_args = reuse_enabled(level) && out.args_reusable;
  plan->reuse_ret = reuse_enabled(level) && ship_ret && out.ret_reusable;

  // Argument plans come from the *caller-side* points-to sets: this is what
  // makes the marshalers call-site specific (the callee's parameter sets
  // merge every call site and would lose precision, §3.1).
  std::vector<Frame> path;
  for (std::size_t i : out.ref_params) {
    plan->args.push_back(build_node(
        heap_.points_to(site.caller, call.operands[i]),
        callee.params[i].class_id, plan->needs_cycle_table, path, out));
  }
  if (ship_ret) {
    // The caller-side view of the return graph: the clones bound to the
    // call's result value.
    plan->ret = build_node(heap_.points_to(site.caller, call.result),
                           callee.ret.class_id, plan->needs_cycle_table,
                           path, out);
  }
  out.plan = std::move(plan);
  return out;
}

}  // namespace rmiopt::codegen
