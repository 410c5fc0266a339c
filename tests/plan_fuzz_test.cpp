// Codegen x serialization fuzz harness.
//
// For randomized MiniParty-shaped programs we let the compiler generate
// call-site plans, then *synthesize* random runtime object graphs that
// conform to each plan (exact classes at inline nodes, arbitrary
// subclasses at dynamic nodes, bounded recursion at recursive nodes) and
// round-trip them through the serializer at every optimization level.
// Invariant: whatever the compiler claims it can specialize, the runtime
// must transfer losslessly.
#include <gtest/gtest.h>

#include "driver/compile.hpp"
#include "ir/builder.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"
#include "support/rng.hpp"

namespace rmiopt {
namespace {

// Builds a random program: a class hierarchy with reference fields, one
// remote method, and a caller that constructs a random (acyclic) object
// graph and ships it.
struct RandomProgram {
  std::unique_ptr<om::TypeRegistry> types;
  std::unique_ptr<ir::Module> module;
  std::vector<om::ClassId> classes;
  om::ClassId root_class = om::kNoClass;
  std::uint32_t tag = 1;

  explicit RandomProgram(SplitMix64& rng) {
    types = std::make_unique<om::TypeRegistry>();
    module = std::make_unique<ir::Module>(*types);

    // 2-5 classes, each with 0-2 prim fields and 0-2 ref fields targeting
    // earlier classes (guaranteeing an acyclic class graph).
    const int n_classes = 2 + static_cast<int>(rng.next_below(4));
    for (int c = 0; c < n_classes; ++c) {
      std::vector<om::FieldSpec> fields;
      const int prims = static_cast<int>(rng.next_below(3));
      for (int p = 0; p < prims; ++p) {
        std::string pname = "p";
        pname += std::to_string(p);
        fields.push_back({pname,
                          rng.next_below(2) ? om::TypeKind::Long
                                            : om::TypeKind::Double,
                          om::kNoClass});
      }
      if (c > 0) {
        const int refs = static_cast<int>(rng.next_below(3));
        for (int r = 0; r < refs; ++r) {
          // Built with += rather than `"r" + std::to_string(r)`: GCC 12's
          // -Wrestrict false-positives on char*+string&& once inlined.
          std::string fname = "r";
          fname += std::to_string(r);
          fields.push_back({fname, om::TypeKind::Ref,
                            classes[rng.next_below(classes.size())]});
        }
      }
      std::string cname = "C";
      cname += std::to_string(c);
      classes.push_back(types->define_class(cname, fields));
    }
    root_class = classes.back();

    ir::Function& callee = module->add_function(
        "R.recv", {ir::Type::ref(root_class)}, ir::Type::void_type(),
        /*is_remote_method=*/true);
    {
      ir::FunctionBuilder b(*module, callee);
      b.ret();
    }
    ir::Function& caller =
        module->add_function("main", {}, ir::Type::void_type());
    {
      ir::FunctionBuilder b(*module, caller);
      // Allocate one object per class and wire random constructor-order
      // edges so the heap analysis sees a rich (acyclic) graph.
      std::vector<ir::ValueId> vals;
      for (om::ClassId cls : classes) {
        const ir::ValueId v = b.alloc(cls);
        const om::ClassDescriptor& d = types->get(cls);
        for (const auto& f : d.fields) {
          if (f.kind != om::TypeKind::Ref) continue;
          // point to some earlier value of a compatible class (or null)
          std::vector<ir::ValueId> candidates;
          for (std::size_t i = 0; i < vals.size(); ++i) {
            if (types->is_subclass_of(classes[i], f.ref_class)) {
              candidates.push_back(vals[i]);
            }
          }
          if (!candidates.empty() && rng.next_below(3) != 0) {
            b.store_field(v, f.name,
                          candidates[rng.next_below(candidates.size())]);
          }
        }
        vals.push_back(v);
      }
      b.remote_call(callee.id, {vals.back()}, tag);
      b.ret();
    }
  }
};

// Synthesizes a random object graph conforming to `plan`.
om::ObjRef synthesize(om::Heap& heap, const om::TypeRegistry& types,
                      const serial::NodePlan& plan, SplitMix64& rng,
                      int depth = 0) {
  const serial::NodePlan* p = &plan;
  if (p->recurse_to != nullptr) {
    if (depth > 4 || rng.next_below(3) == 0) return nullptr;  // end the chain
    p = p->recurse_to;
  }
  if (depth > 6) return nullptr;
  const om::ClassId cls_id = p->expected_class;
  if (p->is_dynamic()) {
    // Any class compatible with the declared bound; fall back to the
    // declared class itself when it is concrete.
    if (cls_id == om::kNoClass) return nullptr;
  }
  const om::ClassDescriptor& cls = types.get(cls_id);
  if (cls.is_array) {
    const auto len = static_cast<std::uint32_t>(rng.next_below(4));
    om::ObjRef arr = heap.alloc_array(cls, len);
    if (cls.elem_kind == om::TypeKind::Ref && p->elem_plan != nullptr) {
      for (std::uint32_t i = 0; i < len; ++i) {
        arr->set_elem_ref(
            i, synthesize(heap, types, *p->elem_plan, rng, depth + 1));
      }
    } else if (cls.elem_kind != om::TypeKind::Ref) {
      for (std::uint32_t i = 0; i < arr->payload_size(); ++i) {
        arr->payload()[i] = static_cast<std::uint8_t>(rng.next());
      }
    }
    return arr;
  }
  om::ObjRef obj = heap.alloc(cls);
  if (p->is_dynamic()) {
    // Fill fields per the runtime class's own plan shape.
    for (const auto& f : cls.fields) {
      if (f.kind == om::TypeKind::Ref) continue;
      obj->set<std::uint8_t>(f, static_cast<std::uint8_t>(rng.next()));
    }
    for (const auto& f : cls.fields) {
      if (f.kind != om::TypeKind::Ref || f.ref_class == om::kNoClass) continue;
      if (depth < 4 && rng.next_below(2) == 0) {
        serial::NodePlan sub;
        sub.expected_class = f.ref_class;
        sub.type_info = p->type_info;
        obj->set_ref(f, synthesize(heap, types, sub, rng, depth + 1));
      }
    }
    return obj;
  }
  for (std::size_t i = 0; i < p->fields.size(); ++i) {
    const om::FieldDescriptor& f = *p->fields[i].field;
    if (f.kind == om::TypeKind::Ref) {
      if (p->fields[i].ref_plan != nullptr) {
        obj->set_ref(f, synthesize(heap, types, *p->fields[i].ref_plan, rng,
                                   depth + 1));
      }
    } else {
      std::uint64_t v = rng.next();
      std::memcpy(obj->payload() + f.offset, &v, om::size_of(f.kind));
    }
  }
  return obj;
}

class PlanFuzzP : public ::testing::TestWithParam<int> {};

TEST_P(PlanFuzzP, GeneratedPlansTransferConformingGraphsLosslessly) {
  SplitMix64 rng(GetParam() * 7001 + 13);
  for (int round = 0; round < 6; ++round) {
    RandomProgram prog(rng);
    for (const auto level :
         {codegen::OptLevel::Class, codegen::OptLevel::Site,
          codegen::OptLevel::SiteCycle, codegen::OptLevel::SiteReuseCycle}) {
      const driver::CompiledProgram compiled =
          driver::compile(*prog.module, level);
      const auto& decision = compiled.site(prog.tag);
      ASSERT_EQ(decision.plan->args.size(), 1u);

      serial::ClassPlanRegistry class_plans(*prog.types);
      om::Heap heap(*prog.types);
      const serial::NodePlan& arg_plan = *decision.plan->args[0];
      om::ObjRef graph = synthesize(heap, *prog.types, arg_plan, rng);
      if (graph == nullptr) continue;

      const bool cycle_enabled = decision.plan->needs_cycle_table;
      serial::SerialStats ws;
      serial::SerialWriter w(class_plans, ws, cycle_enabled);
      ByteBuffer buf;
      w.write(buf, arg_plan, graph);
      serial::SerialStats rs;
      serial::SerialReader r(class_plans, heap, rs, cycle_enabled);
      om::ObjRef copy = r.read(buf, arg_plan);

      EXPECT_TRUE(om::deep_equals(graph, copy))
          << "seed=" << GetParam() << " round=" << round << " level="
          << codegen::to_string(level);
      EXPECT_EQ(buf.remaining(), 0u);
      heap.free_graph(graph);
      heap.free_graph(copy);
      EXPECT_EQ(heap.stats().live_objects(), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanFuzzP, ::testing::Range(0, 12));

}  // namespace
}  // namespace rmiopt
