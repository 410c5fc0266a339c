// Class descriptors and the type registry.
//
// A `ClassDescriptor` plays the role of Java class metadata: it lists the
// fields (with computed payload offsets) that the introspective serializer
// walks at runtime, and that the compiler walks at compile time when it
// generates class-specific or call-site-specific marshal plans.
//
// Arrays are descriptor-represented classes too: `register_prim_array`
// creates `[double`, and `register_ref_array` creates `[LFoo;` (and
// `[L[double;` for a double[][]).  Strings are byte arrays with a dedicated descriptor so the
// web server's URL/page payloads serialize as bulk bytes.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "objmodel/type.hpp"

namespace rmiopt::om {

struct FieldDescriptor {
  std::string name;
  TypeKind kind = TypeKind::Int;
  // Static type of the referenced object when kind == Ref (may itself be an
  // array class).  kNoClass means "java.lang.Object" — statically unknown.
  ClassId ref_class = kNoClass;
  // Byte offset into the object payload, assigned by the registry.
  std::uint32_t offset = 0;
};

struct ClassDescriptor {
  ClassId id = kNoClass;
  std::string name;
  ClassId super = kNoClass;
  // Flattened field list: inherited fields first, then own fields.
  std::vector<FieldDescriptor> fields;
  std::uint32_t instance_size = 0;  // payload bytes for non-arrays

  bool is_array = false;
  TypeKind elem_kind = TypeKind::Int;  // valid when is_array
  ClassId elem_class = kNoClass;       // for ref-element arrays
  bool is_string = false;              // byte array carrying text
  // declare_class leaves this false; define_fields completes the class.
  bool is_defined = false;

  bool has_ref_fields() const {
    for (const auto& f : fields) {
      if (f.kind == TypeKind::Ref) return true;
    }
    return false;
  }
};

// Describes one field to be added to a class under construction.
struct FieldSpec {
  std::string name;
  TypeKind kind;
  ClassId ref_class = kNoClass;
};

class TypeRegistry {
 public:
  TypeRegistry();
  TypeRegistry(const TypeRegistry&) = delete;
  TypeRegistry& operator=(const TypeRegistry&) = delete;

  // Defines a new class; fields of the superclass are inherited (flattened
  // in front).  Throws if the name is taken or the super id is unknown.
  ClassId define_class(const std::string& name,
                       const std::vector<FieldSpec>& fields,
                       ClassId super = kNoClass);

  // Two-phase definition for self-referential classes (a linked list's
  // `Next` field needs the class's own id): declare first, then fill in
  // the fields exactly once.
  ClassId declare_class(const std::string& name);
  void define_fields(ClassId id, const std::vector<FieldSpec>& fields,
                     ClassId super = kNoClass);

  // Array classes are interned: registering `[D` twice yields the same id.
  ClassId register_prim_array(TypeKind elem);
  ClassId register_ref_array(ClassId elem_class);

  ClassId string_class() const { return string_class_; }

  const ClassDescriptor& get(ClassId id) const;
  const ClassDescriptor* find_by_name(const std::string& name) const;
  bool exists(ClassId id) const { return id > 0 && id < classes_.size(); }
  std::size_t class_count() const { return classes_.size() - 1; }

  // True if `maybe_sub` equals `super` or transitively inherits from it.
  bool is_subclass_of(ClassId maybe_sub, ClassId super) const;

 private:
  ClassId intern(ClassDescriptor desc);

  // Index 0 is an unused sentinel so that ClassId 0 == kNoClass.
  std::vector<std::unique_ptr<ClassDescriptor>> classes_;
  std::unordered_map<std::string, ClassId> by_name_;
  ClassId string_class_ = kNoClass;
};

}  // namespace rmiopt::om
