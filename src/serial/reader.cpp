#include "serial/reader.hpp"

#include "wire/protocol.hpp"

namespace rmiopt::serial {

SerialReader::SerialReader(const ClassPlanRegistry& class_plans,
                           om::Heap& heap, SerialStats& stats,
                           bool cycle_enabled, trace::PassTrace pt)
    : class_plans_(class_plans),
      types_(class_plans.types()),
      heap_(heap),
      stats_(stats),
      cycle_enabled_(cycle_enabled),
      pt_(pt) {
  if (pt_.recorder != nullptr) real_start_ = std::chrono::steady_clock::now();
}

SerialReader::~SerialReader() {
  if (pt_.recorder == nullptr || pt_.cost == nullptr) return;
  trace::Event e;
  e.kind = pt_.kind;
  e.machine = pt_.machine;
  e.callsite = pt_.callsite;
  e.seq = pt_.seq;
  e.start_ns = pt_.virtual_start_ns;
  e.dur_ns = stats_.cpu_cost(*pt_.cost).as_nanos();
  e.bytes = stats_.bytes_copied_rx;
  e.reuse_hits = stats_.objects_reused;
  e.cycle_lookups = stats_.cycle_lookups;
  e.real_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - real_start_)
                  .count();
  pt_.recorder->record(e);
}

om::ObjRef SerialReader::fresh_alloc(const om::ClassDescriptor& cls,
                                     std::uint32_t length) {
  om::ObjRef obj =
      cls.is_array ? heap_.alloc_array(cls, length) : heap_.alloc(cls);
  ++stats_.objects_allocated;
  stats_.bytes_allocated += sizeof(om::Object) + obj->payload_size();
  fresh_.push_back(obj);
  return obj;
}

om::ObjRef SerialReader::borrowed_alloc(const om::ClassDescriptor& cls,
                                        std::uint32_t length, ByteBuffer& in) {
  const std::size_t psize =
      static_cast<std::size_t>(length) * om::size_of(cls.elem_kind);
  om::ObjRef obj =
      heap_.alloc_array_borrowed(cls, length, in.view_bytes(psize), in.pin());
  ++stats_.objects_allocated;
  // Real allocation volume: header + control-block pointer.  The element
  // bytes stay in the pinned frame, which is the "new (MBytes)" saving the
  // zero-copy receive path delivers.
  stats_.bytes_allocated += sizeof(om::Object) + sizeof(om::BorrowedStorage*);
  ++stats_.recv_segments;
  stats_.recv_bytes_borrowed += psize;
  fresh_.push_back(obj);
  return obj;
}

void SerialReader::adopt_cache_roots(std::span<const om::ObjRef> roots) {
  for (om::ObjRef root : roots) om::collect_graph(root, cache_seen_);
}

void SerialReader::abandon_pass() {
  for (om::ObjRef o : fresh_) {
    heap_.free(o);
    ++stats_.objects_freed;
  }
  for (om::ObjRef o : cache_seen_) {
    heap_.free(o);
    ++stats_.objects_freed;
  }
  fresh_.clear();
  cache_seen_.clear();
  consumed_.clear();
  handles_.clear();
}

void SerialReader::note_handle(om::ObjRef obj, bool node_cycle_check) {
  // Mirrors the writer: a handle was assigned exactly where a probe ran.
  if (cycle_enabled_ && node_cycle_check) handles_.push_back(obj);
}

om::ObjRef SerialReader::read(ByteBuffer& in, const NodePlan& plan) {
  try {
    return read_node(in, plan, nullptr, /*reuse=*/false);
  } catch (...) {
    abandon_pass();
    throw;
  }
}

om::ObjRef SerialReader::read_reusing(ByteBuffer& in, const NodePlan& plan,
                                      om::ObjRef cached) {
  try {
    return read_reusing_impl(in, plan, cached);
  } catch (...) {
    abandon_pass();
    throw;
  }
}

om::ObjRef SerialReader::read_reusing_impl(ByteBuffer& in,
                                           const NodePlan& plan,
                                           om::ObjRef cached) {
  if (cached == nullptr) return read_node(in, plan, nullptr, /*reuse=*/true);

  // Enumerate the cached graph *before* the walk mutates its reference
  // slots, so unmatched ("orphaned") cache nodes can be released after.
  std::vector<om::ObjRef> cache_nodes;
  {
    std::unordered_set<om::ObjRef> seen;
    std::vector<om::ObjRef> stack{cached};
    while (!stack.empty()) {
      om::ObjRef o = stack.back();
      stack.pop_back();
      if (!seen.insert(o).second) continue;
      cache_nodes.push_back(o);
      cache_seen_.insert(o);
      const om::ClassDescriptor& cls = o->cls();
      if (cls.is_array) {
        if (cls.elem_kind == om::TypeKind::Ref) {
          for (std::uint32_t i = 0; i < o->length(); ++i) {
            if (om::ObjRef r = o->get_elem_ref(i)) stack.push_back(r);
          }
        }
      } else {
        for (const auto& f : cls.fields) {
          if (f.kind != om::TypeKind::Ref) continue;
          if (om::ObjRef r = o->get_ref(f)) stack.push_back(r);
        }
      }
    }
  }

  om::ObjRef result = read_node(in, plan, cached, /*reuse=*/true);

  if (consumed_.size() != cache_nodes.size()) {
    for (om::ObjRef o : cache_nodes) {
      if (consumed_.contains(o)) continue;
      heap_.free(o);
      ++stats_.objects_freed;
      cache_seen_.erase(o);  // released; must not be freed again on abandon
    }
  }
  return result;
}

om::ObjRef SerialReader::read_node(ByteBuffer& in, const NodePlan& plan,
                                   om::ObjRef cached, bool reuse) {
  if (plan.recurse_to != nullptr) {
    return read_node(in, *plan.recurse_to, cached, reuse);
  }
  const auto tag = static_cast<wire::ObjTag>(in.get_u8());
  if (tag == wire::kTagNull) return nullptr;
  if (tag == wire::kTagHandle) {
    RMIOPT_CHECK(cycle_enabled_, "handle tag without cycle protocol");
    const std::uint64_t idx = in.get_varint();
    RMIOPT_CHECK(idx < handles_.size(), "dangling back-reference handle");
    return handles_[idx];
  }
  RMIOPT_CHECK(tag == wire::kTagInline, "corrupt object tag");

  if (plan.is_dynamic()) {
    const om::ClassDescriptor& cls = read_class(in, plan);
    return read_body(in, class_plans_.plan_for(cls.id, plan.type_info), cls,
                     plan.cycle_check, cached, reuse);
  }
  return read_body(in, plan, types_.get(plan.expected_class),
                   plan.cycle_check, cached, reuse);
}

const om::ClassDescriptor& SerialReader::read_class(ByteBuffer& in,
                                                     const NodePlan& plan) {
  const om::ClassDescriptor* cls = nullptr;
  if (plan.type_info == TypeInfoMode::FullName) {
    const std::string name = in.get_string();
    cls = types_.find_by_name(name);
    if (cls == nullptr) throw DecodeError("unknown class on wire: " + name);
    stats_.introspected_fields += cls->fields.size();
  } else {
    const std::uint64_t wire_id = in.get_varint();
    const auto id = static_cast<om::ClassId>(wire_id);
    if (id != wire_id || !types_.exists(id)) {
      throw DecodeError("unknown class id on wire: " +
                        std::to_string(wire_id));
    }
    cls = &types_.get(id);
  }
  ++stats_.type_decodes;  // hash the descriptor to vtable pointers (§4)
  // The stream may name any registered class, but the plan admits only
  // its declared class and subclasses (kNoClass, like Object, admits all):
  // a handler must never see a graph its declared types exclude.
  if (plan.expected_class != om::kNoClass &&
      !types_.is_subclass_of(cls->id, plan.expected_class)) {
    throw DecodeError("wire class " + cls->name + " is not a " +
                      types_.get(plan.expected_class).name);
  }
  return *cls;
}

namespace {

// Protocol hardening: an array length (possibly corrupted in transit) must
// be consistent with the bytes actually present — a primitive array's
// payload follows inline, and every reference element needs at least its
// tag byte.  Rejecting early prevents attacker/corruption-controlled
// allocation sizes.
void check_array_length(const ByteBuffer& in, const om::ClassDescriptor& cls,
                        std::uint64_t length) {
  const std::size_t min_bytes =
      cls.elem_kind == om::TypeKind::Ref
          ? length
          : length * om::size_of(cls.elem_kind);
  RMIOPT_CHECK(length <= 0x7fffffffull && min_bytes <= in.remaining(),
               "array length exceeds message size (corrupt stream)");
}

}  // namespace

om::ObjRef SerialReader::read_body(ByteBuffer& in, const NodePlan& body,
                                   const om::ClassDescriptor& cls,
                                   bool node_cycle_check, om::ObjRef cached,
                                   bool reuse) {
  if (cls.is_array) {
    const std::uint64_t wire_length = in.get_varint();
    check_array_length(in, cls, wire_length);
    const auto length = static_cast<std::uint32_t>(wire_length);
    const bool prim = cls.elem_kind != om::TypeKind::Ref;
    const std::size_t psize =
        prim ? static_cast<std::size_t>(length) * om::size_of(cls.elem_kind)
             : 0;
    // Borrow gate: armed by the runtime (knob on), input backed by a
    // pinned frame, and the row big enough that a span beats the memcpy
    // (same crossover logic as the send-side gather).
    const bool borrowable =
        prim && borrow_min_ != 0 && psize >= borrow_min_ && in.pin() != nullptr;
    om::ObjRef obj;
    // Figure 13: reuse the cached array iff type and size match; otherwise
    // allocate a fresh one ("if an array size is mismatched ... a new
    // array of the correct size is allocated").
    if (reuse && cached != nullptr && cached->class_id() == cls.id &&
        cached->length() == length) {
      obj = cached;
      consumed_.insert(obj);
      ++stats_.objects_reused;
      note_handle(obj, node_cycle_check);
      if (prim) {
        if (borrowable && obj->has_borrowed_storage()) {
          // §3.3 × zero copy: retarget the cached array at the new frame's
          // span instead of rewriting its bytes.  The swap releases the
          // pin on whichever frame the slot borrowed last time.
          om::rebind_borrowed(obj, in.view_bytes(psize), in.pin());
          ++stats_.recv_segments;
          stats_.recv_bytes_borrowed += psize;
        } else {
          in.get_bytes(obj->payload(), psize);
          stats_.bytes_copied_rx += psize;
        }
        return obj;
      }
    } else {
      if (prim) {
        if (borrowable) {
          obj = borrowed_alloc(cls, length, in);
        } else {
          obj = fresh_alloc(cls, length);
          in.get_bytes(obj->payload(), psize);
          stats_.bytes_copied_rx += psize;
        }
        note_handle(obj, node_cycle_check);
        return obj;
      }
      obj = fresh_alloc(cls, length);
      cached = nullptr;  // shape mismatch: children have no counterpart
      note_handle(obj, node_cycle_check);
    }
    const bool reused_here = cached != nullptr;  // after the branch above
    RMIOPT_CHECK(body.elem_plan != nullptr, "ref array plan lacks element plan");
    for (std::uint32_t i = 0; i < length; ++i) {
      om::ObjRef cached_elem = reused_here ? obj->get_elem_ref(i) : nullptr;
      obj->set_elem_ref(i, read_node(in, *body.elem_plan, cached_elem, reuse));
    }
    return obj;
  }

  om::ObjRef obj;
  if (reuse && cached != nullptr && cached->class_id() == cls.id) {
    obj = cached;
    consumed_.insert(obj);
    ++stats_.objects_reused;
  } else {
    obj = fresh_alloc(cls, 0);
    cached = nullptr;
  }
  note_handle(obj, node_cycle_check);
  const bool reused_here = cached != nullptr;
  for (const auto& fa : body.fields) {
    const om::FieldDescriptor& f = *fa.field;
    if (f.kind == om::TypeKind::Ref) {
      RMIOPT_CHECK(fa.ref_plan != nullptr, "ref field plan missing");
      om::ObjRef cached_ref = reused_here ? obj->get_ref(f) : nullptr;
      obj->set_ref(f, read_node(in, *fa.ref_plan, cached_ref, reuse));
    } else {
      in.get_bytes(obj->payload() + f.offset, size_of(f.kind));
      ++stats_.fields_marshaled;
    }
  }
  return obj;
}

}  // namespace rmiopt::serial
