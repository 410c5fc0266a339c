// Property-based tests: randomized object graphs swept over seeds with
// parameterized gtest.  Invariants checked:
//   * every wire protocol round-trips every graph shape (values, sharing,
//     cycles) — deep_equals(original, copy);
//   * serialization is deterministic (same graph -> same bytes);
//   * reuse sequences converge to zero allocations and never corrupt data;
//   * all heap objects are accounted for (no leaks, no double frees).
#include <gtest/gtest.h>

#include "serial/class_plans.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"
#include "support/rng.hpp"

namespace rmiopt::serial {
namespace {

using om::ClassId;
using om::ObjRef;
using om::TypeKind;

// A small class universe with mutual references, arrays and strings.
struct Universe {
  om::TypeRegistry types;
  ClassPlanRegistry class_plans{types};
  om::Heap heap{types};
  ClassId node = om::kNoClass;   // Node { long v; Node next; Pair buddy; }
  ClassId pair = om::kNoClass;   // Pair { int a; Node left; Node right; }
  ClassId darr = om::kNoClass;   // [double
  ClassId narr = om::kNoClass;   // [LNode;

  Universe() {
    node = types.declare_class("Node");
    pair = types.declare_class("Pair");
    types.define_fields(node, {{"v", TypeKind::Long},
                               {"next", TypeKind::Ref, node},
                               {"buddy", TypeKind::Ref, pair}});
    types.define_fields(pair, {{"a", TypeKind::Int},
                               {"left", TypeKind::Ref, node},
                               {"right", TypeKind::Ref, node}});
    darr = types.register_prim_array(TypeKind::Double);
    narr = types.register_ref_array(node);
  }
};

// Generates a random graph of up to `max_nodes` objects.  `wild` allows
// cycles and sharing (references may target any previously created
// object); otherwise references only target strictly older objects in a
// tree discipline (each object referenced at most once).
ObjRef random_graph(Universe& u, SplitMix64& rng, int max_nodes, bool wild) {
  const int n = 1 + static_cast<int>(rng.next_below(max_nodes));
  std::vector<ObjRef> pool;
  std::vector<bool> used(n, false);
  auto pick_target = [&](std::size_t upto) -> ObjRef {
    if (upto == 0 || rng.next_below(4) == 0) return nullptr;
    if (wild) {
      // may create sharing and (later, via field stores) cycles
      return pool[rng.next_below(upto)];
    }
    // tree discipline: each node referenced at most once
    for (int tries = 0; tries < 8; ++tries) {
      const std::size_t i = rng.next_below(upto);
      if (!used[i]) {
        used[i] = true;
        return pool[i];
      }
    }
    return nullptr;
  };

  for (int i = 0; i < n; ++i) {
    const std::uint64_t kind = rng.next_below(4);
    ObjRef obj;
    if (kind == 0) {
      obj = u.heap.alloc_array(u.darr, 1 + static_cast<std::uint32_t>(
                                               rng.next_below(8)));
      for (double& d : obj->elems<double>()) d = rng.next_double();
    } else if (kind == 1) {
      obj = u.heap.alloc_array(u.narr, static_cast<std::uint32_t>(
                                           rng.next_below(4)));
      for (std::uint32_t e = 0; e < obj->length(); ++e) {
        ObjRef t = pick_target(pool.size());
        if (t != nullptr && t->class_id() == u.node) obj->set_elem_ref(e, t);
      }
    } else if (kind == 2) {
      const om::ClassDescriptor& c = u.types.get(u.node);
      obj = u.heap.alloc(c);
      obj->set<std::int64_t>(c.fields[0], rng.next_i64());
      ObjRef t = pick_target(pool.size());
      if (t != nullptr && t->class_id() == u.node) obj->set_ref(c.fields[1], t);
      t = pick_target(pool.size());
      if (t != nullptr && t->class_id() == u.pair) obj->set_ref(c.fields[2], t);
    } else {
      const om::ClassDescriptor& c = u.types.get(u.pair);
      obj = u.heap.alloc(c);
      obj->set<std::int32_t>(c.fields[0],
                             static_cast<std::int32_t>(rng.next()));
      for (int f = 1; f <= 2; ++f) {
        ObjRef t = pick_target(pool.size());
        if (t != nullptr && t->class_id() == u.node) {
          obj->set_ref(c.fields[f], t);
        }
      }
    }
    pool.push_back(obj);
  }
  // Wild graphs: sprinkle back edges to create cycles.
  if (wild) {
    const om::ClassDescriptor& c = u.types.get(u.node);
    for (int i = 0; i < n / 3; ++i) {
      ObjRef a = pool[rng.next_below(pool.size())];
      ObjRef b = pool[rng.next_below(pool.size())];
      if (a->class_id() == u.node && b->class_id() == u.node) {
        a->set_ref(c.fields[1], b);
      }
    }
  }
  // Root object referencing a handful of pool members (ref array).
  ObjRef root = u.heap.alloc_array(
      u.narr, static_cast<std::uint32_t>(std::min<std::size_t>(4, pool.size())));
  for (std::uint32_t e = 0; e < root->length(); ++e) {
    // In tree mode the root must respect the once-only discipline too.
    ObjRef t = wild ? pool[rng.next_below(pool.size())]
                    : pick_target(pool.size());
    if (t != nullptr && t->class_id() == u.node) root->set_elem_ref(e, t);
  }
  // Anything unreachable from the root is freed to keep accounting exact.
  std::unordered_set<om::Object*> reachable;
  om::collect_graph(root, reachable);
  for (ObjRef o : pool) {
    if (!reachable.contains(o)) u.heap.free(o);
  }
  return root;
}

class RoundTripP : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripP, ClassModeRoundTripsWildGraphs) {
  Universe u;
  SplitMix64 rng(GetParam() * 7919 + 1);
  for (int round = 0; round < 8; ++round) {
    ObjRef g = random_graph(u, rng, 24, /*wild=*/true);
    auto root = make_dynamic_node(u.narr);
    SerialStats ws;
    SerialWriter w(u.class_plans, ws, /*cycle_enabled=*/true);
    ByteBuffer buf;
    w.write(buf, *root, g);
    SerialStats rs;
    SerialReader r(u.class_plans, u.heap, rs, true);
    ObjRef copy = r.read(buf, *root);
    EXPECT_TRUE(om::deep_equals(g, copy));
    EXPECT_EQ(buf.remaining(), 0u);
    u.heap.free_graph(g);
    u.heap.free_graph(copy);
  }
  EXPECT_EQ(u.heap.stats().live_objects(), 0u);
}

TEST_P(RoundTripP, HeavyModeRoundTripsWildGraphs) {
  Universe u;
  SplitMix64 rng(GetParam() * 104729 + 2);
  for (int round = 0; round < 6; ++round) {
    ObjRef g = random_graph(u, rng, 20, /*wild=*/true);
    auto root = make_dynamic_node(om::kNoClass, TypeInfoMode::FullName);
    SerialStats ws;
    SerialWriter w(u.class_plans, ws, true);
    ByteBuffer buf;
    w.write(buf, *root, g);
    SerialStats rs;
    SerialReader r(u.class_plans, u.heap, rs, true);
    ObjRef copy = r.read(buf, *root);
    EXPECT_TRUE(om::deep_equals(g, copy));
    u.heap.free_graph(g);
    u.heap.free_graph(copy);
  }
  EXPECT_EQ(u.heap.stats().live_objects(), 0u);
}

TEST_P(RoundTripP, SerializationIsDeterministic) {
  Universe u;
  SplitMix64 rng(GetParam() * 31 + 3);
  ObjRef g = random_graph(u, rng, 16, /*wild=*/true);
  auto root = make_dynamic_node(u.narr);
  ByteBuffer b1, b2;
  SerialStats s1, s2;
  SerialWriter w1(u.class_plans, s1, true);
  w1.write(b1, *root, g);
  SerialWriter w2(u.class_plans, s2, true);
  w2.write(b2, *root, g);
  ASSERT_EQ(b1.size(), b2.size());
  EXPECT_TRUE(std::equal(b1.contents().begin(), b1.contents().end(),
                         b2.contents().begin()));
  u.heap.free_graph(g);
}

TEST_P(RoundTripP, TreeGraphsSurviveBothCycleSettings) {
  // Tree-disciplined graphs contain no cycles or sharing, so they must
  // round-trip identically with and without the cycle protocol.
  Universe u;
  SplitMix64 rng(GetParam() * 977 + 4);
  ObjRef g = random_graph(u, rng, 20, /*wild=*/false);
  auto root = make_dynamic_node(u.narr);
  for (const bool cycles : {true, false}) {
    SerialStats ws;
    SerialWriter w(u.class_plans, ws, cycles);
    ByteBuffer buf;
    w.write(buf, *root, g);
    SerialStats rs;
    SerialReader r(u.class_plans, u.heap, rs, cycles);
    ObjRef copy = r.read(buf, *root);
    EXPECT_TRUE(om::deep_equals(g, copy));
    u.heap.free_graph(copy);
  }
  u.heap.free_graph(g);
  EXPECT_EQ(u.heap.stats().live_objects(), 0u);
}

TEST_P(RoundTripP, ReuseSequencesConvergeAndStayCorrect) {
  // A site plan for variable-length double[][]: send a random sequence of
  // matrices through the reuse cache; every delivery must match and the
  // live-object count must stay bounded by one cached graph.
  Universe u;
  SplitMix64 rng(GetParam() * 13 + 5);
  const ClassId mat_cls = u.types.register_ref_array(u.darr);
  auto row_plan = std::make_unique<NodePlan>();
  row_plan->expected_class = u.darr;
  auto mat_plan = std::make_unique<NodePlan>();
  mat_plan->expected_class = mat_cls;
  mat_plan->elem_plan = std::move(row_plan);

  ObjRef cached = nullptr;
  for (int round = 0; round < 12; ++round) {
    const auto rows = 1 + static_cast<std::uint32_t>(rng.next_below(6));
    ObjRef m = u.heap.alloc_array(mat_cls, rows);
    for (std::uint32_t r0 = 0; r0 < rows; ++r0) {
      ObjRef row = u.heap.alloc_array(
          u.darr, 1 + static_cast<std::uint32_t>(rng.next_below(6)));
      for (double& d : row->elems<double>()) d = rng.next_double();
      m->set_elem_ref(r0, row);
    }
    SerialStats ws;
    SerialWriter w(u.class_plans, ws, false);
    ByteBuffer buf;
    w.write(buf, *mat_plan, m);
    SerialStats rs;
    SerialReader r(u.class_plans, u.heap, rs, false);
    cached = r.read_reusing(buf, *mat_plan, cached);
    EXPECT_TRUE(om::deep_equals(m, cached));
    u.heap.free_graph(m);
  }
  u.heap.free_graph(cached);
  EXPECT_EQ(u.heap.stats().live_objects(), 0u);
}

TEST_P(RoundTripP, IdenticalShapesReuseEverythingAfterWarmup) {
  Universe u;
  SplitMix64 rng(GetParam() * 41 + 6);
  const ClassId mat_cls = u.types.register_ref_array(u.darr);
  auto row_plan = std::make_unique<NodePlan>();
  row_plan->expected_class = u.darr;
  auto mat_plan = std::make_unique<NodePlan>();
  mat_plan->expected_class = mat_cls;
  mat_plan->elem_plan = std::move(row_plan);

  const auto rows = 1 + static_cast<std::uint32_t>(rng.next_below(5));
  const auto cols = 1 + static_cast<std::uint32_t>(rng.next_below(7));
  ObjRef m = u.heap.alloc_array(mat_cls, rows);
  for (std::uint32_t r0 = 0; r0 < rows; ++r0) {
    m->set_elem_ref(r0, u.heap.alloc_array(u.darr, cols));
  }
  ObjRef cached = nullptr;
  for (int round = 0; round < 5; ++round) {
    m->get_elem_ref(0)->elems<double>()[0] = round;
    SerialStats ws;
    SerialWriter w(u.class_plans, ws, false);
    ByteBuffer buf;
    w.write(buf, *mat_plan, m);
    SerialStats rs;
    SerialReader r(u.class_plans, u.heap, rs, false);
    cached = r.read_reusing(buf, *mat_plan, cached);
    if (round > 0) {
      EXPECT_EQ(rs.objects_allocated, 0u);
      EXPECT_EQ(rs.objects_reused, 1u + rows);
    }
    EXPECT_TRUE(om::deep_equals(m, cached));
  }
  u.heap.free_graph(m);
  u.heap.free_graph(cached);
  EXPECT_EQ(u.heap.stats().live_objects(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripP, ::testing::Range(0, 16));

// ---- failure injection -------------------------------------------------------

class CorruptionP : public ::testing::TestWithParam<int> {};

TEST_P(CorruptionP, TruncatedStreamsThrowNeverCrash) {
  Universe u;
  SplitMix64 rng(GetParam() * 17 + 8);
  ObjRef g = random_graph(u, rng, 12, /*wild=*/true);
  auto root = make_dynamic_node(u.narr);
  SerialStats ws;
  SerialWriter w(u.class_plans, ws, true);
  ByteBuffer buf;
  w.write(buf, *root, g);
  const auto bytes = buf.contents();

  for (std::size_t cut = 0; cut < bytes.size(); cut += 3) {
    ByteBuffer truncated(
        std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + cut));
    SerialStats rs;
    SerialReader r(u.class_plans, u.heap, rs, true);
    ObjRef partial = nullptr;
    EXPECT_THROW(partial = r.read(truncated, *root), Error) << "cut=" << cut;
    if (partial != nullptr) u.heap.free_graph(partial);
    // A failed pass unwinds its own allocations (exception-safe decode).
    EXPECT_EQ(rs.objects_allocated, rs.objects_freed) << "cut=" << cut;
  }
  u.heap.free_graph(g);
}

TEST_P(CorruptionP, BitFlipsThrowOrProduceWellFormedGraphs) {
  Universe u;
  SplitMix64 rng(GetParam() * 19 + 9);
  ObjRef g = random_graph(u, rng, 10, /*wild=*/true);
  auto root = make_dynamic_node(u.narr);
  SerialStats ws;
  SerialWriter w(u.class_plans, ws, true);
  ByteBuffer buf;
  w.write(buf, *root, g);
  std::vector<std::uint8_t> bytes(buf.contents().begin(),
                                  buf.contents().end());

  for (int trial = 0; trial < 64; ++trial) {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[rng.next_below(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    ByteBuffer in(std::move(mutated));
    SerialStats rs;
    SerialReader r(u.class_plans, u.heap, rs, true);
    try {
      ObjRef copy = r.read(in, *root);
      // Data corruption may go undetected (a flipped double), but the
      // resulting graph must be structurally sound: traversable and
      // freeable without fault.
      om::graph_object_count(copy);
      u.heap.free_graph(copy);
    } catch (const Error&) {
      // Structural corruption must surface as Error, never UB — and the
      // failed pass must have unwound everything it allocated.
      EXPECT_EQ(rs.objects_allocated, rs.objects_freed) << "trial=" << trial;
    }
  }
  u.heap.free_graph(g);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionP, ::testing::Range(0, 8));

}  // namespace
}  // namespace rmiopt::serial
