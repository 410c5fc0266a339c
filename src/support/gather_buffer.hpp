// Scatter-gather wire payload: an ordered list of segments, each either
// *owned* header bytes (scalar prologue, varint type tags, field scalars)
// or a *borrowed* span pointing straight into an application heap payload
// (an inline primitive-array row).  The serializer appends segments; the
// framing layer walks them in order; only the NIC boundary (SimTransport's
// physical encode, LoopbackTransport's delivery copy) concatenates — so
// the per-row memcpy disappears from the send path.
//
// Lifetime rules
// --------------
// Borrowed spans alias memory the application still owns and may mutate
// or free once the invoke returns.  Before a gathered payload escapes the
// serializing call (session queue, reply cache, ARQ retransmit, fault-plan
// reordering), it must be *sealed*:
//  * segments under `pin_copy_threshold` are copied into owned storage
//    (copy-on-seal: the iovec entry is cheaper to fold than to pin);
//  * larger segments are pinned — snapshotted once into a refcounted
//    block shared by every Frame/Message copy that aliases this buffer
//    (Message holds GatherBuffer by shared_ptr, so the reply cache, ARQ
//    retransmits and duplicate/reorder fault copies all see one image).
// After seal() the buffer is immutable: retransmitting a sealed frame
// yields bytes identical to the first transmission even if the
// application mutated the borrowed array in between.
//
// Cost-model note: the *virtual* cost of a borrowed segment is charged as
// per-segment gather overhead (CostModel::gather_segment_ns), not as a
// byte copy — the model is an iovec-capable NIC that DMAs from pinned
// application pages.  The physical snapshot seal() takes is a simulation
// artifact (the sim heap has no page pinning) and is deliberately not
// charged.  See docs/COSTMODEL.md, "Zero-copy scatter-gather send".
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "support/error.hpp"

namespace rmiopt::support {

class GatherBuffer {
 public:
  explicit GatherBuffer(std::size_t min_borrow_bytes = 64,
                        std::size_t pin_copy_threshold = 256)
      : min_borrow_bytes_(min_borrow_bytes),
        pin_copy_threshold_(pin_copy_threshold) {}

  // ---- writing (owned segments) ------------------------------------------
  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto& chunk = owned_tail();
    const std::size_t old = chunk.size();
    chunk.resize(old + sizeof(T));
    std::memcpy(chunk.data() + old, &value, sizeof(T));
    total_ += sizeof(T);
  }

  void put_u8(std::uint8_t v) { put(v); }
  void put_i32(std::int32_t v) { put(v); }
  void put_u32(std::uint32_t v) { put(v); }
  void put_i64(std::int64_t v) { put(v); }
  void put_f64(double v) { put(v); }

  void put_varint(std::uint64_t v) {
    auto& chunk = owned_tail();
    while (v >= 0x80) {
      chunk.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
      ++total_;
    }
    chunk.push_back(static_cast<std::uint8_t>(v));
    ++total_;
  }

  void put_bytes(const void* data, std::size_t len) {
    if (len == 0) return;  // empty spans may carry data() == nullptr
    auto& chunk = owned_tail();
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    chunk.insert(chunk.end(), bytes, bytes + len);
    total_ += len;
  }

  void put_string(std::string_view s) {
    put_varint(s.size());
    put_bytes(s.data(), s.size());
  }

  // ---- borrowing ----------------------------------------------------------
  // Record a borrowed span without copying.  Returns true when the span was
  // borrowed; spans under `min_borrow_bytes` fall back to an owned copy
  // (the iovec entry would cost more than the memcpy it saves) and return
  // false so the caller charges them as a copy.
  bool borrow(const void* data, std::size_t len) {
    RMIOPT_CHECK(!sealed_, "GatherBuffer: borrow after seal");
    if (len == 0) return false;
    if (len < min_borrow_bytes_) {
      put_bytes(data, len);
      return false;
    }
    Segment s;
    s.borrowed = true;
    s.data = static_cast<const std::uint8_t*>(data);
    s.size = len;
    segs_.push_back(std::move(s));
    total_ += len;
    borrowed_bytes_ += len;
    return true;
  }

  // ---- sealing ------------------------------------------------------------
  // Make the buffer immutable and independent of application memory.
  // Idempotent; cheap when nothing was borrowed.
  void seal() {
    if (sealed_) return;
    sealed_ = true;
    for (auto& s : segs_) {
      if (!s.borrowed) continue;
      if (s.size < pin_copy_threshold_) {
        // Copy-on-seal: fold the bytes into a private owned block and drop
        // the alias.  Order is preserved — the segment entry stays put.
        s.owned.assign(s.data, s.data + s.size);
        s.data = nullptr;
        s.borrowed = false;
      } else {
        // Refcount-pin: one snapshot, shared (via the shared_ptr that
        // carries this whole buffer) by every copy of the message.
        s.pin = std::make_shared<std::vector<std::uint8_t>>(s.data,
                                                            s.data + s.size);
        s.data = s.pin->data();
        pinned_bytes_ += s.size;
      }
    }
  }
  bool sealed() const { return sealed_; }

  // ---- reading ------------------------------------------------------------
  std::size_t size() const { return total_; }
  std::uint64_t bytes_borrowed() const { return borrowed_bytes_; }
  std::uint64_t bytes_pinned() const { return pinned_bytes_; }

  std::size_t segment_count() const {
    std::size_t n = 0;
    for (const auto& s : segs_) n += !view_of(s).empty();
    return n;
  }

  // Walk segments in payload order: fn(const std::uint8_t* data, size_t n).
  template <typename Fn>
  void for_each_segment(Fn&& fn) const {
    for (const auto& s : segs_) {
      const auto v = view_of(s);
      if (!v.empty()) fn(v.data, v.size);
    }
  }

  // Contiguous materialization — the NIC-boundary concatenation.
  std::vector<std::uint8_t> gather() const {
    std::vector<std::uint8_t> out;
    out.reserve(total_);
    for_each_segment([&](const std::uint8_t* d, std::size_t n) {
      out.insert(out.end(), d, d + n);
    });
    return out;
  }

 private:
  struct Segment {
    bool borrowed = false;            // still aliasing application memory
    const std::uint8_t* data = nullptr;  // borrowed (or pinned) span
    std::size_t size = 0;
    std::vector<std::uint8_t> owned;  // owned bytes (headers / copy-on-seal)
    std::shared_ptr<std::vector<std::uint8_t>> pin;  // seal() snapshot
  };

  struct View {
    const std::uint8_t* data;
    std::size_t size;
    bool empty() const { return size == 0; }
  };
  static View view_of(const Segment& s) {
    if (s.data != nullptr) return {s.data, s.size};
    return {s.owned.data(), s.owned.size()};
  }

  // The trailing owned chunk put_* appends to; a borrow closes it so the
  // next put opens a fresh one after the borrowed span.
  std::vector<std::uint8_t>& owned_tail() {
    RMIOPT_CHECK(!sealed_, "GatherBuffer: write after seal");
    if (segs_.empty() || segs_.back().borrowed || segs_.back().pin) {
      segs_.emplace_back();
    }
    return segs_.back().owned;
  }

  std::vector<Segment> segs_;
  std::size_t total_ = 0;
  std::uint64_t borrowed_bytes_ = 0;
  std::uint64_t pinned_bytes_ = 0;
  std::size_t min_borrow_bytes_;
  std::size_t pin_copy_threshold_;
  bool sealed_ = false;
};

}  // namespace rmiopt::support
