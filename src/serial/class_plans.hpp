// Class-specific serializer plans — the paper's *baseline* (KaRMI/Manta
// style, §3.1 Figure 7) and the introspective protocol before it.
//
// For every class the "compiler" generates one serializer that writes the
// class's own fields inline but *recursively invokes* the serializer of the
// runtime class of every referenced object, sending type information for
// each object: a class id, or a class name in the Sun-RMI-like HEAVY
// protocol.  The registry builds these plans lazily and caches them per
// class and type-info mode; class-mode and introspect-mode marshalers and
// the dynamic-dispatch fallback nodes of call-site plans execute them.
#pragma once

#include <memory>
#include <shared_mutex>
#include <unordered_map>

#include "serial/plan.hpp"

namespace rmiopt::serial {

class ClassPlanRegistry {
 public:
  explicit ClassPlanRegistry(const om::TypeRegistry& types) : types_(types) {}
  ClassPlanRegistry(const ClassPlanRegistry&) = delete;
  ClassPlanRegistry& operator=(const ClassPlanRegistry&) = delete;

  // The generated per-class serializer body for `id`.  Field order matches
  // the descriptor; every reference field/element is a dynamic-dispatch
  // node with a cycle check that writes `mode` type info.
  const NodePlan& plan_for(om::ClassId id, TypeInfoMode mode) const;

  const om::TypeRegistry& types() const { return types_; }

 private:
  const om::TypeRegistry& types_;
  // Read-mostly: serializers hit the cache on every dynamic node, so reads
  // take a shared lock; generation (first use of a class) is rare.  Keyed
  // by class id and mode.
  mutable std::shared_mutex mu_;
  mutable std::unordered_map<std::uint64_t, std::unique_ptr<NodePlan>> cache_;
};

// A fresh dynamic-dispatch node (the shape class-mode and introspect-mode
// marshalers use for every argument root, and call-site plans use as
// their fallback).
std::unique_ptr<NodePlan> make_dynamic_node(
    om::ClassId declared_class, TypeInfoMode mode = TypeInfoMode::CompactId);

}  // namespace rmiopt::serial
