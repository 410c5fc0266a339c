// Growable byte buffer with primitive put/get accessors.
//
// This is the payload carrier of the wire protocol.  Values are encoded
// little-endian (the simulated cluster is homogeneous, as was the paper's
// Pentium-III cluster, so no byte swapping is needed).  Unsigned LEB128
// varints are provided for the compact type encoding used by the
// class-specific protocol (KaRMI-style "more compact encoding of types").
//
// Two storage modes:
//  * owned (default): a growable std::vector, read/write;
//  * view: a read-only span into externally owned memory, kept alive by a
//    refcounted pin (a support::FramePool block, or the storage freeze()
//    took over).  Views carry no bytes of their own — this is how the
//    zero-copy receive path hands a decoded Message a window into the
//    pooled frame image without the per-message delivery copy, and how a
//    frozen reply is shared by the reply cache and the wire.  Writing
//    into a view is a logic error.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"

namespace rmiopt {

class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  // A read-only window into [data, data+len) whose lifetime is guaranteed
  // by `pin` (copies of the buffer share the pin).  Reading never copies
  // out of the underlying frame until a get_* accessor asks for it.
  static ByteBuffer view(const std::uint8_t* data, std::size_t len,
                         std::shared_ptr<void> pin) {
    ByteBuffer b;
    b.ext_ = data;
    b.ext_size_ = len;
    b.pin_ = std::move(pin);
    return b;
  }

  bool is_view() const { return ext_ != nullptr; }

  // Turns an owned buffer into a view of the same bytes, pinned by a
  // refcounted owner of the storage, so copies of the buffer share one
  // image instead of each copying it.  No bytes move; the read cursor is
  // kept.  A no-op on a view or an empty buffer.
  void freeze() {
    if (is_view() || bytes_.empty()) return;
    auto owner =
        std::make_shared<std::vector<std::uint8_t>>(std::move(bytes_));
    bytes_ = {};
    ext_ = owner->data();
    ext_size_ = owner->size();
    pin_ = std::move(owner);
  }

  // The refcounted keep-alive backing a view (null for owned buffers).
  // The reader uses this as the borrow gate: a payload with a pin can
  // hand out spans that outlive the decode call.
  const std::shared_ptr<void>& pin() const { return pin_; }

  // ---- writing -----------------------------------------------------------
  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    RMIOPT_CHECK(!is_view(), "write into ByteBuffer view");
    const std::size_t old = bytes_.size();
    bytes_.resize(old + sizeof(T));
    std::memcpy(bytes_.data() + old, &value, sizeof(T));
  }

  void put_u8(std::uint8_t v) { put(v); }
  void put_i32(std::int32_t v) { put(v); }
  void put_u32(std::uint32_t v) { put(v); }
  void put_i64(std::int64_t v) { put(v); }
  void put_f64(double v) { put(v); }

  void put_varint(std::uint64_t v) {
    RMIOPT_CHECK(!is_view(), "write into ByteBuffer view");
    while (v >= 0x80) {
      bytes_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    bytes_.push_back(static_cast<std::uint8_t>(v));
  }

  void put_bytes(const void* data, std::size_t len) {
    if (len == 0) return;  // empty spans may carry data() == nullptr
    RMIOPT_CHECK(!is_view(), "write into ByteBuffer view");
    // insert, not resize + memcpy: the new bytes are not zero-filled first.
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), bytes, bytes + len);
  }

  // Overwrites the four bytes at `pos` (already written) with `v`, as put
  // would have written them: how a field whose value depends on the bytes
  // after it, such as a frame checksum, is filled in place.
  void patch_u32(std::size_t pos, std::uint32_t v) {
    RMIOPT_CHECK(!is_view(), "write into ByteBuffer view");
    RMIOPT_CHECK(pos <= bytes_.size() && bytes_.size() - pos >= sizeof v,
                 "ByteBuffer patch out of range");
    std::memcpy(bytes_.data() + pos, &v, sizeof v);
  }

  void put_string(std::string_view s) {
    put_varint(s.size());
    put_bytes(s.data(), s.size());
  }

  // Bulk append of a primitive array payload (e.g. a double[] row).
  template <typename T>
  void put_array(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_bytes(values.data(), values.size_bytes());
  }

  // ---- reading -----------------------------------------------------------
  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    RMIOPT_CHECK(read_pos_ + sizeof(T) <= size(), "ByteBuffer underflow");
    T value;
    std::memcpy(&value, data() + read_pos_, sizeof(T));
    read_pos_ += sizeof(T);
    return value;
  }

  std::uint8_t get_u8() { return get<std::uint8_t>(); }
  std::int32_t get_i32() { return get<std::int32_t>(); }
  std::uint32_t get_u32() { return get<std::uint32_t>(); }
  std::int64_t get_i64() { return get<std::int64_t>(); }
  double get_f64() { return get<double>(); }

  // Strict LEB128 decode.  Rejects (as DecodeError, so receivers fail
  // closed on wire damage rather than aborting):
  //  * truncation — the continuation bit promises a byte that isn't there;
  //  * overflow — an 11th byte, or set bits above 2^64 in the 10th byte
  //    (shift 63 leaves room for exactly one more bit; anything higher
  //    would be silently truncated by the shift);
  //  * overlong encodings — a trailing 0x00 continuation byte encodes the
  //    same value in more bytes than put_varint emits; accepting them
  //    would let one value have many wire images.
  std::uint64_t get_varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (read_pos_ >= size()) throw DecodeError("varint underflow");
      const std::uint8_t b = data()[read_pos_++];
      if (shift == 63 && (b & 0x7e) != 0)
        throw DecodeError("varint overflow: set bits above 2^64");
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) {
        if (b == 0 && shift != 0) throw DecodeError("overlong varint");
        break;
      }
      shift += 7;
      if (shift >= 64)
        throw DecodeError("varint overflow: more than 10 bytes");
    }
    return v;
  }

  void get_bytes(void* out, std::size_t len) {
    // `len <= size - pos` (not `pos + len <= size`): a corrupted length can
    // be large enough to wrap the addition.
    RMIOPT_CHECK(len <= size() - read_pos_, "ByteBuffer underflow");
    if (len == 0) return;  // empty spans may carry data() == nullptr
    std::memcpy(out, data() + read_pos_, len);
    read_pos_ += len;
  }

  // Bounds-checked zero-copy read: returns a pointer to the next `len`
  // bytes in place and advances the cursor.  The pointer is valid only as
  // long as the backing storage lives — for a view, that means as long as
  // pin() is held; callers that stash it (borrowed array storage) must
  // retain the pin.
  const std::uint8_t* view_bytes(std::size_t len) {
    RMIOPT_CHECK(len <= size() - read_pos_, "ByteBuffer underflow");
    const std::uint8_t* p = data() + read_pos_;
    read_pos_ += len;
    return p;
  }

  std::string get_string() {
    const std::size_t len = get_varint();
    RMIOPT_CHECK(len <= size() - read_pos_, "string underflow");
    std::string s(reinterpret_cast<const char*>(data() + read_pos_), len);
    read_pos_ += len;
    return s;
  }

  template <typename T>
  void get_array(std::span<T> out) {
    get_bytes(out.data(), out.size_bytes());
  }

  // ---- cursor / capacity --------------------------------------------------
  std::size_t size() const { return is_view() ? ext_size_ : bytes_.size(); }
  std::size_t remaining() const { return size() - read_pos_; }
  std::size_t read_pos() const { return read_pos_; }
  void rewind() { read_pos_ = 0; }
  void clear() {
    bytes_.clear();
    ext_ = nullptr;
    ext_size_ = 0;
    pin_.reset();
    read_pos_ = 0;
  }
  void reserve(std::size_t n) { bytes_.reserve(n); }

  std::span<const std::uint8_t> contents() const { return {data(), size()}; }
  std::vector<std::uint8_t> take() && {
    RMIOPT_CHECK(!is_view(), "take() from ByteBuffer view");
    return std::move(bytes_);
  }

 private:
  const std::uint8_t* data() const {
    return is_view() ? ext_ : bytes_.data();
  }

  std::vector<std::uint8_t> bytes_;
  const std::uint8_t* ext_ = nullptr;  // non-null => view mode
  std::size_t ext_size_ = 0;
  std::shared_ptr<void> pin_;
  std::size_t read_pos_ = 0;
};

}  // namespace rmiopt
