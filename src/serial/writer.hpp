// SerialWriter: executes marshal plans — call-site, class-specific and
// introspective alike — to turn object graphs into wire bytes.
//
// One SerialWriter instance corresponds to one serialization *pass* (one
// message): it owns the pass's cycle table — created only when the call
// site needs one, which is exactly the §3.2 optimization — and accumulates
// event counts into the caller's SerialStats.
#pragma once

#include <chrono>

#include "objmodel/heap.hpp"
#include "serial/class_plans.hpp"
#include "serial/cycle_table.hpp"
#include "serial/plan.hpp"
#include "serial/stats.hpp"
#include "support/bytebuffer.hpp"
#include "support/gather_buffer.hpp"
#include "trace/trace.hpp"

namespace rmiopt::serial {

class SerialWriter {
 public:
  // `pt` optionally traces the pass: with a recorder attached the writer
  // emits one Serialize event when it is destroyed (one instance == one
  // pass), carrying the pass's virtual cost and its measured real-time
  // duration.  The default (null recorder) records nothing and reads no
  // clock.
  SerialWriter(const ClassPlanRegistry& class_plans, SerialStats& stats,
               bool cycle_enabled, trace::PassTrace pt = {});
  ~SerialWriter();
  SerialWriter(const SerialWriter&) = delete;
  SerialWriter& operator=(const SerialWriter&) = delete;

  // Serializes `obj` according to `plan` (call-site or class mode).
  void write(ByteBuffer& out, const NodePlan& plan, om::ObjRef obj);

  // Scatter-gather variant: identical byte image, but inline
  // primitive-array payloads become borrowed segments of `out` instead of
  // being copied (counted as gather_segments/gather_bytes_borrowed rather
  // than bytes_copied).  Dynamic-dispatch fallback nodes still copy — only
  // rows the compiler proved monomorphic are safe to hand to the NIC.
  void write(support::GatherBuffer& out, const NodePlan& plan,
             om::ObjRef obj);

 private:
  // The writing logic is one template over the output sink; the
  // GatherBuffer instantiation may borrow at inline primitive-array
  // nodes, the ByteBuffer instantiation always copies.
  template <typename Out>
  void write_any(Out& out, const NodePlan& plan, om::ObjRef obj);
  template <typename Out>
  void write_body_any(Out& out, const NodePlan& body, om::ObjRef obj,
                      bool inline_node);
  // Returns true if a tag terminated the node (null or back-reference).
  template <typename Out>
  bool write_prologue_any(Out& out, bool cycle_check, om::ObjRef obj);

  const ClassPlanRegistry& class_plans_;
  SerialStats& stats_;
  const bool cycle_enabled_;
  const trace::PassTrace pt_;
  std::chrono::steady_clock::time_point real_start_;
  bool table_used_ = false;  // lazily count table creation on first probe
  CycleTable cycles_;
};

}  // namespace rmiopt::serial
