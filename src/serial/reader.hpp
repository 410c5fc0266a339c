// SerialReader: executes unmarshal plans to reconstitute object graphs
// from wire bytes, with optional argument/return-value reuse (§3.3).
//
// One SerialReader corresponds to one deserialization pass (one message).
// It tracks every allocation it performs — that is the "new (MBytes)"
// column of Tables 4/6/8 — and, in reuse mode, rewrites a cached graph from
// a previous invocation in place instead of allocating, exactly like the
// generated unmarshaler of Figure 13 (including the runtime type/size
// check and the fresh-allocation fallback on mismatch).
#pragma once

#include <chrono>
#include <span>
#include <unordered_set>
#include <vector>

#include "objmodel/heap.hpp"
#include "serial/class_plans.hpp"
#include "serial/plan.hpp"
#include "serial/stats.hpp"
#include "support/bytebuffer.hpp"
#include "trace/trace.hpp"

namespace rmiopt::serial {

class SerialReader {
 public:
  // `pt` optionally traces the pass: with a recorder attached the reader
  // emits one Deserialize event when it is destroyed (one instance == one
  // pass), carrying the pass's virtual cost and its measured real-time
  // duration.  The default (null recorder) records nothing and reads no
  // clock.
  SerialReader(const ClassPlanRegistry& class_plans, om::Heap& heap,
               SerialStats& stats, bool cycle_enabled,
               trace::PassTrace pt = {});
  ~SerialReader();
  SerialReader(const SerialReader&) = delete;
  SerialReader& operator=(const SerialReader&) = delete;

  // Deserializes one value according to `plan`, allocating fresh objects.
  om::ObjRef read(ByteBuffer& in, const NodePlan& plan);

  // Deserializes one value, reusing the graph rooted at `cached` (from the
  // previous invocation at this call site) wherever runtime type and array
  // sizes match.  Cached objects that the incoming stream did not match are
  // freed.  Pass `cached == nullptr` for the cold first call.
  om::ObjRef read_reusing(ByteBuffer& in, const NodePlan& plan,
                          om::ObjRef cached);

  // Registers cached graphs that this pass *may* consume via read_reusing.
  // Once a reuse slot has been detached (nulled against concurrent use),
  // the reader is the only owner of the old graphs; registering them up
  // front lets an abandoned pass release graphs the stream never reached.
  void adopt_cache_roots(std::span<const om::ObjRef> roots);

  // Arms zero-copy receive for this pass: primitive-array rows of
  // at least `min_bytes` payload are materialized as borrowed spans into
  // the input's pinned frame (requires `in.pin() != nullptr`) instead of
  // being copied into fresh heap storage.  The runtime turns this on when
  // CostModel::zero_copy_receive is set.
  void enable_borrow(std::size_t min_bytes) { borrow_min_ = min_bytes; }

 private:
  om::ObjRef read_node(ByteBuffer& in, const NodePlan& plan,
                       om::ObjRef cached, bool reuse);
  om::ObjRef read_reusing_impl(ByteBuffer& in, const NodePlan& plan,
                               om::ObjRef cached);
  // Reads a dynamic node's type info (class id or name) and checks the
  // class against the node's declared type; throws DecodeError otherwise.
  const om::ClassDescriptor& read_class(ByteBuffer& in, const NodePlan& plan);

  // Releases everything this pass owns — fresh allocations and adopted
  // cache nodes.  Called when a decode pass throws on corrupt input: the
  // partially-built graph is unreachable, so the reader must unwind it.
  void abandon_pass();
  om::ObjRef read_body(ByteBuffer& in, const NodePlan& body,
                       const om::ClassDescriptor& cls, bool node_cycle_check,
                       om::ObjRef cached, bool reuse);
  om::ObjRef fresh_alloc(const om::ClassDescriptor& cls, std::uint32_t length);
  om::ObjRef borrowed_alloc(const om::ClassDescriptor& cls,
                            std::uint32_t length, ByteBuffer& in);
  void note_handle(om::ObjRef obj, bool node_cycle_check);

  const ClassPlanRegistry& class_plans_;
  const om::TypeRegistry& types_;
  om::Heap& heap_;
  SerialStats& stats_;
  const bool cycle_enabled_;
  std::size_t borrow_min_ = 0;  // 0 = borrowing disabled (the default)
  const trace::PassTrace pt_;
  std::chrono::steady_clock::time_point real_start_;
  std::vector<om::ObjRef> handles_;
  std::unordered_set<om::ObjRef> consumed_;    // reused cache nodes
  std::vector<om::ObjRef> fresh_;              // allocated by this pass
  std::unordered_set<om::ObjRef> cache_seen_;  // adopted cache nodes, alive
};

}  // namespace rmiopt::serial
