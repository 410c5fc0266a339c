#include "serial/writer.hpp"

#include <type_traits>
#include <utility>

#include "wire/protocol.hpp"

namespace rmiopt::serial {

SerialWriter::SerialWriter(const ClassPlanRegistry& class_plans,
                           SerialStats& stats, bool cycle_enabled,
                           trace::PassTrace pt)
    : class_plans_(class_plans),
      stats_(stats),
      cycle_enabled_(cycle_enabled),
      pt_(pt) {
  if (pt_.recorder != nullptr) real_start_ = std::chrono::steady_clock::now();
}

SerialWriter::~SerialWriter() {
  if (pt_.recorder == nullptr || pt_.cost == nullptr) return;
  trace::Event e;
  e.kind = pt_.kind;
  e.machine = pt_.machine;
  e.callsite = pt_.callsite;
  e.seq = pt_.seq;
  e.start_ns = pt_.virtual_start_ns;
  e.dur_ns = stats_.cpu_cost(*pt_.cost).as_nanos();
  e.bytes = stats_.bytes_copied;
  e.reuse_hits = stats_.objects_reused;
  e.cycle_lookups = stats_.cycle_lookups;
  e.real_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - real_start_)
                  .count();
  pt_.recorder->record(e);
}

template <typename Out>
bool SerialWriter::write_prologue_any(Out& out, bool cycle_check,
                                      om::ObjRef obj) {
  if (obj == nullptr) {
    out.put_u8(wire::kTagNull);
    return true;
  }
  if (cycle_enabled_ && cycle_check) {
    if (!table_used_) {
      // Messages that never serialize an object pay no table setup.
      table_used_ = true;
      ++stats_.cycle_tables_created;
    }
    ++stats_.cycle_lookups;
    const std::int32_t handle = cycles_.lookup_or_insert(obj);
    if (handle >= 0) {
      out.put_u8(wire::kTagHandle);
      out.put_varint(static_cast<std::uint64_t>(handle));
      return true;
    }
  }
  out.put_u8(wire::kTagInline);
  return false;
}

template <typename Out>
void SerialWriter::write_any(Out& out, const NodePlan& plan, om::ObjRef obj) {
  if (plan.recurse_to != nullptr) {
    // Monomorphic recursion: loop back into the ancestor's inlined body.
    write_any(out, *plan.recurse_to, obj);
    return;
  }
  if (write_prologue_any(out, plan.cycle_check, obj)) return;

  if (plan.is_dynamic()) {
    // Explicit invocation of the runtime class's generated serializer —
    // what class-specific serialization pays per object (§3.1, Fig. 7).
    // The introspective protocol names the class instead of numbering it
    // and examines the class's field layout at runtime.
    ++stats_.serializer_invocations;
    const om::ClassDescriptor& cls = obj->cls();
    const std::size_t before = out.size();
    if (plan.type_info == TypeInfoMode::FullName) {
      out.put_string(cls.name);
      stats_.introspected_fields += cls.fields.size();
    } else {
      out.put_varint(cls.id);
    }
    stats_.type_info_bytes += out.size() - before;
    write_body_any(out, class_plans_.plan_for(cls.id, plan.type_info), obj,
                   /*inline_node=*/false);
    return;
  }

  // Inline node: the compiler proved the exact runtime type, so no type
  // information goes on the wire and no serializer call is made.
  RMIOPT_CHECK(obj->class_id() == plan.expected_class,
               "call-site plan type mismatch for class " + obj->cls().name +
                   " (compiler bug)");
  write_body_any(out, plan, obj, /*inline_node=*/true);
}

template <typename Out>
void SerialWriter::write_body_any(Out& out, const NodePlan& body,
                                  om::ObjRef obj, bool inline_node) {
  const om::ClassDescriptor& cls = obj->cls();
  if (cls.is_array) {
    out.put_varint(obj->length());
    if (cls.elem_kind == om::TypeKind::Ref) {
      const NodePlan* elem =
          body.elem_plan ? body.elem_plan.get() : nullptr;
      RMIOPT_CHECK(elem != nullptr, "ref array plan lacks element plan");
      for (std::uint32_t i = 0; i < obj->length(); ++i) {
        write_any(out, *elem, obj->get_elem_ref(i));
      }
    } else {
      const std::size_t n = obj->payload_size();
      // const read: serializing a zero-copy-received (borrowed) array must
      // not trigger its COW detach — the wire wants the bytes, not a
      // mutable pointer.
      const std::uint8_t* src = std::as_const(*obj).payload();
      bool borrowed = false;
      if constexpr (std::is_same_v<Out, support::GatherBuffer>) {
        // Only rows the compiler proved monomorphic (inline nodes) are
        // handed to the NIC as borrowed segments; dynamic-dispatch
        // fallback rows keep the copy so the gathered image never depends
        // on a type only the runtime discovered.
        if (inline_node) borrowed = out.borrow(src, n);
      }
      if (borrowed) {
        ++stats_.gather_segments;
        stats_.gather_bytes_borrowed += n;
      } else {
        if constexpr (!std::is_same_v<Out, support::GatherBuffer>) {
          out.put_bytes(src, n);
        } else if (!inline_node) {
          out.put_bytes(src, n);
        }
        // (an inline borrow() that declined already copied the bytes)
        stats_.bytes_copied += n;
      }
    }
    return;
  }
  for (const auto& fa : body.fields) {
    const om::FieldDescriptor& f = *fa.field;
    if (f.kind == om::TypeKind::Ref) {
      RMIOPT_CHECK(fa.ref_plan != nullptr, "ref field plan missing");
      write_any(out, *fa.ref_plan, obj->get_ref(f));
    } else {
      out.put_bytes(std::as_const(*obj).payload() + f.offset,
                    size_of(f.kind));
      ++stats_.fields_marshaled;
    }
  }
}

void SerialWriter::write(ByteBuffer& out, const NodePlan& plan,
                         om::ObjRef obj) {
  write_any(out, plan, obj);
}

void SerialWriter::write(support::GatherBuffer& out, const NodePlan& plan,
                         om::ObjRef obj) {
  write_any(out, plan, obj);
}

}  // namespace rmiopt::serial
