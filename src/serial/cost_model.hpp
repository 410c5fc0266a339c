// The calibrated cost model.
//
// The paper ran on 1 GHz Pentium III nodes over Myrinet with the GM
// user-level communication system (§5); we run on whatever machine builds
// this repository, so absolute times are meaningless.  Instead, every
// runtime event that the paper's optimizations remove or add is *charged*
// to the owning machine's virtual clock with a constant calibrated to the
// paper's own figures:
//
//  * "a single optimized RMI may cost as little as 40 microseconds" (§3.3)
//    → one-way message latency 15 µs + dispatch overheads ≈ 40 µs round
//      trip for an empty optimized call;
//  * "object allocation and deallocation costs about 0.1 microseconds"
//    (§3.3) → alloc_ns = 100;
//  * GM wakes its kernel poll thread after 20 µs (§5) → poll_wakeup_ns;
//  * Myrinet-era bandwidth ≈ 250 MB/s on the wire, ≈ 800 MB/s for memcpy
//    on a P-III.
//
// Everything the serializers do is counted in events (fields marshaled,
// serializer method invocations, cycle probes, type-info bytes, objects
// allocated) and converted to virtual nanoseconds here, so benchmark
// "seconds" are deterministic and hardware-independent while preserving
// the paper's relative cost structure.
#pragma once

#include <cstddef>
#include <cstdint>

#include "support/sim_time.hpp"

namespace rmiopt::serial {

struct CostModel {
  // ---- CPU-side serialization costs --------------------------------------
  // One dynamically dispatched serializer method call (vtable lookup, call
  // frame, stream bookkeeping).  Paid per *object* by class-specific
  // serializers; paid only at dynamic-dispatch fallback nodes by
  // call-site-specific ones.
  std::int64_t serializer_invoke_ns = 100;
  // Runtime introspection of one field (reflective baseline only).
  std::int64_t introspect_field_ns = 90;
  // Marshaling one scalar field with generated code (load + store + cursor).
  std::int64_t field_marshal_ns = 6;
  // Bulk copy, per byte (primitive array payloads, string bodies).
  double byte_copy_ns = 1.25;
  // One cycle-table probe.  This is a Java-style synchronized identity
  // hash table on a 1 GHz machine: uncontended lock, identityHashCode,
  // bucket chase, and an Entry/handle box allocation on insert — several
  // hundred cycles (§3.2 lists exactly these costs).
  std::int64_t cycle_probe_ns = 700;
  // Creation + deletion of the table itself, paid once per message that
  // actually serializes objects.
  std::int64_t cycle_table_setup_ns = 800;
  // Decoding per-object type information on the receiver: read the id/name
  // and map it to a class descriptor ("hash a type descriptor to vtable
  // pointers", §4).
  std::int64_t type_decode_ns = 100;
  // Heap allocation of one object (§3.3: "about 0.1 microseconds").
  std::int64_t alloc_ns = 100;
  // Amortized collector work charged per allocation: collections trigger
  // on the allocation path, so tracing/sweeping/cache disturbance lands on
  // the deserialization critical path.  The paper's own Table 1 implies
  // ~0.35–0.5 µs saved per recycled object — more than the bare 0.1 µs
  // allocation — and §7 attributes the difference to GC strain and
  // "better caching behavior".
  std::int64_t gc_amortized_ns = 250;
  // Explicit release bookkeeping (runs off the critical path).
  std::int64_t free_ns = 60;
  // Per-call marshaler/skeleton machinery.  Generic (class-mode) stubs pay
  // "many method table lookups and skeleton indirections" (§1): stub
  // dispatch, skeleton lookup, reply unwrapping.  Call-site-generated code
  // is a straight-line function.  Paid on both the caller and the callee.
  std::int64_t generic_stub_ns = 1500;
  std::int64_t site_stub_ns = 200;
  // Generic stubs additionally box every argument and the return value
  // (primitives become Integer/Long objects, arguments go through an
  // Object[]); generated marshalers pass them directly.  Per value, paid
  // on both sides, class/introspective modes only.
  std::int64_t generic_arg_box_ns = 800;

  // ---- zero-copy receive (related-work integration, §6 [10]) -------------
  // When enabled (Kono & Masuda's scheme; the paper notes "our object
  // reuse scheme can be used in combination with their zero copy scheme
  // for increased performance"), delivery lands frame images in pooled,
  // refcounted buffers (support::FramePool) and readers *borrow*
  // primitive-array rows of at least gather_min_borrow_bytes straight out
  // of the pinned frame instead of copying them into fresh heap storage.
  // Borrowed arrays detach (copy-on-write) on any mutable access; the
  // frame recycles when its last borrower lets go.  A borrowed row is
  // charged per segment (gather_segment_ns) plus light per-KB
  // preprocessing below, replacing the per-byte copy charge for exactly
  // the bytes not copied.  Off (default): no pool, no pins, no borrows —
  // the historical copy path, bit for bit.
  bool zero_copy_receive = false;
  double zero_copy_preprocess_ns_per_kb = 80.0;

  // ---- zero-copy scatter-gather send --------------------------------------
  // When enabled, call sites serialize into a support::GatherBuffer:
  // inline (BARE) primitive-array rows become borrowed iovec segments the
  // NIC concatenates, instead of being memcpy'd into a contiguous image.
  // A borrowed row is charged per *segment* (descriptor setup in the
  // gather list) rather than per byte; everything else — wire bytes,
  // headers, latency — is priced exactly as before, and with the knob off
  // (default) no gather buffer ever exists, so the deterministic tables
  // are untouched bit for bit.
  bool zero_copy_send = false;
  // Spans shorter than this are copied inline: an iovec entry costs more
  // than the memcpy it would save.
  std::size_t gather_min_borrow_bytes = 64;
  // Seal-time policy: borrowed spans below this are folded into owned
  // bytes (copy-on-seal); larger ones are pinned by refcounted snapshot.
  std::size_t gather_pin_copy_threshold = 256;
  // Per borrowed segment: gather-list entry + NIC SG descriptor setup.
  std::int64_t gather_segment_ns = 120;

  // ---- network costs (GM over Myrinet) ------------------------------------
  std::int64_t send_overhead_ns = 2'000;   // GM send descriptor + doorbell
  std::int64_t msg_latency_ns = 15'000;    // one-way wire + host latency
  double wire_byte_ns = 4.0;               // ≈ 250 MB/s
  // GM fragments large messages; each additional fragment pays a
  // per-fragment send/pipeline overhead on top of the byte cost.
  std::int64_t fragment_bytes = 4096;
  std::int64_t fragment_overhead_ns = 900;
  std::int64_t recv_poll_ns = 1'000;       // successful poll + upcall
  std::int64_t poll_wakeup_ns = 20'000;    // blocked GM-poll-thread wakeup
  // Thread switch to the invocation thread on the callee (real RMI spawns
  // a thread per call; Manta-JavaParty upcalls, which is cheaper).
  std::int64_t upcall_dispatch_ns = 1'500;

  SimTime for_bytes_copied(std::uint64_t n) const {
    return SimTime::nanos(static_cast<std::int64_t>(byte_copy_ns * static_cast<double>(n)));
  }
  SimTime for_wire_bytes(std::uint64_t n) const {
    return SimTime::nanos(static_cast<std::int64_t>(wire_byte_ns * static_cast<double>(n)));
  }
};

}  // namespace rmiopt::serial
