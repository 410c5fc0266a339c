// Google-benchmark microbenchmarks: *real wall-clock* throughput of the
// three type-info modes of the plan serializer on the host running them.
//
// These complement the table benches (which report deterministic virtual
// time): they demonstrate that the generated-code *structure* itself —
// independent of the calibrated cost model — favors call-site plans: no
// per-object dispatch, no type info, no cycle probes; and that in-place
// reuse beats fresh allocation on deserialization.
#include <benchmark/benchmark.h>

#include "objmodel/heap.hpp"
#include "serial/class_plans.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace {

using namespace rmiopt;

struct Fixture {
  om::TypeRegistry types;
  serial::ClassPlanRegistry class_plans{types};
  om::Heap heap{types};
  om::ClassId row = om::kNoClass;
  om::ClassId mat = om::kNoClass;
  om::ObjRef matrix = nullptr;
  std::unique_ptr<serial::NodePlan> site_plan;

  Fixture() {
    row = types.register_prim_array(om::TypeKind::Double);
    mat = types.register_ref_array(row);
    matrix = heap.alloc_array(mat, 16);
    for (std::uint32_t r = 0; r < 16; ++r) {
      om::ObjRef rr = heap.alloc_array(row, 16);
      auto e = rr->elems<double>();
      for (std::uint32_t c = 0; c < 16; ++c) e[c] = r * 16.0 + c;
      matrix->set_elem_ref(r, rr);
    }
    auto inner = std::make_unique<serial::NodePlan>();
    inner->expected_class = row;
    site_plan = std::make_unique<serial::NodePlan>();
    site_plan->expected_class = mat;
    site_plan->elem_plan = std::move(inner);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_SerializeIntrospective(benchmark::State& state) {
  Fixture& f = fixture();
  auto root = serial::make_dynamic_node(f.mat, serial::TypeInfoMode::FullName);
  for (auto _ : state) {
    serial::SerialStats stats;
    serial::SerialWriter w(f.class_plans, stats, /*cycle_enabled=*/true);
    ByteBuffer out;
    w.write(out, *root, f.matrix);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_SerializeIntrospective);

void BM_SerializeClassSpecific(benchmark::State& state) {
  Fixture& f = fixture();
  auto root = serial::make_dynamic_node(f.mat);
  for (auto _ : state) {
    serial::SerialStats stats;
    serial::SerialWriter w(f.class_plans, stats, /*cycle_enabled=*/true);
    ByteBuffer out;
    w.write(out, *root, f.matrix);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_SerializeClassSpecific);

void BM_SerializeCallSite(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    serial::SerialStats stats;
    serial::SerialWriter w(f.class_plans, stats, /*cycle_enabled=*/false);
    ByteBuffer out;
    w.write(out, *f.site_plan, f.matrix);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_SerializeCallSite);

void BM_DeserializeCallSiteFresh(benchmark::State& state) {
  Fixture& f = fixture();
  serial::SerialStats ws;
  serial::SerialWriter w(f.class_plans, ws, false);
  ByteBuffer buf;
  w.write(buf, *f.site_plan, f.matrix);
  for (auto _ : state) {
    buf.rewind();
    serial::SerialStats rs;
    serial::SerialReader r(f.class_plans, f.heap, rs, false);
    om::ObjRef copy = r.read(buf, *f.site_plan);
    benchmark::DoNotOptimize(copy);
    f.heap.free_graph(copy);
  }
}
BENCHMARK(BM_DeserializeCallSiteFresh);

void BM_DeserializeCallSiteReusing(benchmark::State& state) {
  Fixture& f = fixture();
  serial::SerialStats ws;
  serial::SerialWriter w(f.class_plans, ws, false);
  ByteBuffer buf;
  w.write(buf, *f.site_plan, f.matrix);
  serial::SerialStats rs0;
  serial::SerialReader r0(f.class_plans, f.heap, rs0, false);
  om::ObjRef cached = r0.read(buf, *f.site_plan);
  for (auto _ : state) {
    buf.rewind();
    serial::SerialStats rs;
    serial::SerialReader r(f.class_plans, f.heap, rs, false);
    cached = r.read_reusing(buf, *f.site_plan, cached);
    benchmark::DoNotOptimize(cached);
  }
  f.heap.free_graph(cached);
}
BENCHMARK(BM_DeserializeCallSiteReusing);

// ---- receive path: copy out vs borrow from the pinned frame ----------------
// One 8-row matrix whose row payload is Arg(0) bytes, decoded from a
// refcounted frame image.  The copy variant materializes rows into fresh
// inline storage; the borrow variant hands out spans into the pinned
// frame (what zero_copy_receive does for rows >= gather_min_borrow_bytes).
// Sweeping the row size shows where borrowing starts to win in real time —
// the wall-clock justification for the threshold default.

struct RecvFixture {
  om::TypeRegistry types;
  serial::ClassPlanRegistry class_plans{types};
  om::Heap heap{types};
  std::unique_ptr<serial::NodePlan> plan;
  std::shared_ptr<std::vector<std::uint8_t>> frame;

  explicit RecvFixture(std::uint32_t row_bytes) {
    const om::ClassId row = types.register_prim_array(om::TypeKind::Double);
    const om::ClassId mat = types.register_ref_array(row);
    const auto cols =
        static_cast<std::uint32_t>(row_bytes / sizeof(double));
    om::ObjRef m = heap.alloc_array(mat, 8);
    for (std::uint32_t r = 0; r < 8; ++r) {
      om::ObjRef rr = heap.alloc_array(row, cols);
      auto e = rr->elems<double>();
      for (std::uint32_t c = 0; c < cols; ++c) e[c] = r * 1000.0 + c;
      m->set_elem_ref(r, rr);
    }
    auto inner = std::make_unique<serial::NodePlan>();
    inner->expected_class = row;
    plan = std::make_unique<serial::NodePlan>();
    plan->expected_class = mat;
    plan->elem_plan = std::move(inner);

    serial::SerialStats ws;
    serial::SerialWriter w(class_plans, ws, false);
    ByteBuffer buf;
    w.write(buf, *plan, m);
    heap.free_graph(m);
    frame =
        std::make_shared<std::vector<std::uint8_t>>(std::move(buf).take());
  }
};

void deserialize_receive(benchmark::State& state, bool borrow) {
  RecvFixture f(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    ByteBuffer in = ByteBuffer::view(f.frame->data(), f.frame->size(), f.frame);
    serial::SerialStats rs;
    serial::SerialReader r(f.class_plans, f.heap, rs, false);
    if (borrow) r.enable_borrow(/*min_bytes=*/1);
    om::ObjRef copy = r.read(in, *f.plan);
    benchmark::DoNotOptimize(copy);
    f.heap.free_graph(copy);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(8 * state.range(0)));
}

void BM_DeserializeReceiveCopy(benchmark::State& state) {
  deserialize_receive(state, /*borrow=*/false);
}
BENCHMARK(BM_DeserializeReceiveCopy)
    ->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_DeserializeReceiveBorrow(benchmark::State& state) {
  deserialize_receive(state, /*borrow=*/true);
}
BENCHMARK(BM_DeserializeReceiveBorrow)
    ->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_CycleTableProbe(benchmark::State& state) {
  Fixture& f = fixture();
  std::vector<om::ObjRef> objs;
  for (int i = 0; i < 256; ++i) objs.push_back(f.heap.alloc_array(f.row, 1));
  for (auto _ : state) {
    serial::CycleTable t(64);
    for (om::ObjRef o : objs) benchmark::DoNotOptimize(t.lookup_or_insert(o));
  }
  state.SetItemsProcessed(state.iterations() * 256);
  for (om::ObjRef o : objs) f.heap.free(o);
}
BENCHMARK(BM_CycleTableProbe);

}  // namespace

BENCHMARK_MAIN();
