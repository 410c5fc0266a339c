#include "serial/class_plans.hpp"
#include <mutex>

namespace rmiopt::serial {

std::unique_ptr<NodePlan> make_dynamic_node(om::ClassId declared_class,
                                            TypeInfoMode mode) {
  auto n = std::make_unique<NodePlan>();
  n->expected_class = declared_class;
  n->type_info = mode;
  n->cycle_check = true;
  return n;
}

const NodePlan& ClassPlanRegistry::plan_for(om::ClassId id,
                                            TypeInfoMode mode) const {
  const std::uint64_t key =
      (std::uint64_t{id} << 8) | static_cast<std::uint8_t>(mode);
  {
    std::shared_lock lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return *it->second;
  }
  std::unique_lock lock(mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) return *it->second;

  const om::ClassDescriptor& cls = types_.get(id);
  auto plan = std::make_unique<NodePlan>();
  plan->expected_class = id;
  // The plan body describes the *fields*; type info and the cycle check for
  // the object itself are emitted by the dynamic-dispatch caller.
  plan->type_info = TypeInfoMode::None;
  plan->cycle_check = false;
  if (cls.is_array) {
    if (cls.elem_kind == om::TypeKind::Ref) {
      plan->elem_plan = make_dynamic_node(cls.elem_class, mode);
    }
  } else {
    for (const auto& f : cls.fields) {
      NodePlan::FieldAction fa;
      fa.field = &f;
      if (f.kind == om::TypeKind::Ref) {
        fa.ref_plan = make_dynamic_node(f.ref_class, mode);
      }
      plan->fields.push_back(std::move(fa));
    }
  }
  const NodePlan& ref = *plan;
  cache_.emplace(key, std::move(plan));
  return ref;
}

}  // namespace rmiopt::serial
