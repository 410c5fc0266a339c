#include "support/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace rmiopt {

namespace {

constexpr std::uint32_t kPolynomial = 0x82F63B78u;  // reflected Castagnoli

// kTables[k][b] is the CRC register after feeding byte b and then k zero
// bytes, so one lookup per table advances the register over 8 bytes.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int i = 0; i < 8; ++i) c = (c >> 1) ^ ((c & 1u) * kPolynomial);
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

std::uint32_t slice8(const std::uint8_t* p, std::size_t len) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    // Bytes are combined explicitly, so the loop is endian-independent.
    const std::uint32_t lo =
        crc ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
               std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][p[4]] ^ kTables[2][p[5]] ^ kTables[1][p[6]] ^
          kTables[0][p[7]];
  }
  for (; len > 0; ++p, --len) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xFFu];
  }
  return ~crc;
}

#if defined(__x86_64__)
// A linear map on the 32-bit CRC register over GF(2): entry i is the image
// of bit i.
using Gf2Matrix = std::array<std::uint32_t, 32>;

constexpr std::uint32_t gf2_times(const Gf2Matrix& m, std::uint32_t v) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; v != 0; ++i, v >>= 1) {
    if ((v & 1u) != 0) sum ^= m[i];
  }
  return sum;
}

// make_shift_table(n)[k][b] is the CRC register b << 8k becomes after n
// zero bytes, so four lookups advance any register over n zero bytes.
using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr ShiftTable make_shift_table(std::size_t zero_bytes) {
  // The register update for one zero bit, squared until it covers
  // `zero_bytes` (a power of two) bytes.
  Gf2Matrix op{};
  op[0] = kPolynomial;
  for (std::size_t i = 1; i < op.size(); ++i) op[i] = 1u << (i - 1);
  for (std::size_t bits = 1; bits < zero_bytes * 8; bits *= 2) {
    Gf2Matrix sq{};
    for (std::size_t i = 0; i < op.size(); ++i) sq[i] = gf2_times(op, op[i]);
    op = sq;
  }
  ShiftTable t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    for (std::size_t k = 0; k < t.size(); ++k) {
      t[k][b] = gf2_times(op, b << (8 * k));
    }
  }
  return t;
}

// The lane lengths of the three-lane kernel: 3 x 8 KiB blocks first, then
// 3 x 256 B blocks, then one lane for the last 767 bytes or fewer.
constexpr std::size_t kLongLane = 8192;
constexpr std::size_t kShortLane = 256;
constexpr ShiftTable kShiftLong = make_shift_table(kLongLane);
constexpr ShiftTable kShiftShort = make_shift_table(kShortLane);

std::uint32_t shift(const ShiftTable& t, std::uint32_t crc) {
  return t[0][crc & 0xFFu] ^ t[1][(crc >> 8) & 0xFFu] ^
         t[2][(crc >> 16) & 0xFFu] ^ t[3][crc >> 24];
}

__attribute__((target("sse4.2"))) inline std::uint64_t crc_u64(
    std::uint64_t crc, const std::uint8_t* p) {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof word);
  return _mm_crc32_u64(crc, word);
}

// Feeds whole blocks of 3 x `lane` bytes.  The `crc32` instruction takes
// three cycles but can start every cycle, so three independent lanes keep
// it busy: lane 0 continues `crc`, lanes 1 and 2 start from zero, and
// since the register update is linear, shifting lane 0 over a lane of
// zeros and XORing lane 1 in yields the register over both.
__attribute__((target("sse4.2"))) inline std::uint32_t three_lanes(
    std::uint32_t crc, const std::uint8_t*& p, std::size_t& len,
    std::size_t lane, const ShiftTable& t) {
  for (; len >= 3 * lane; p += 3 * lane, len -= 3 * lane) {
    std::uint64_t crc0 = crc, crc1 = 0, crc2 = 0;
    for (std::size_t i = 0; i < lane; i += 8) {
      crc0 = crc_u64(crc0, p + i);
      crc1 = crc_u64(crc1, p + lane + i);
      crc2 = crc_u64(crc2, p + 2 * lane + i);
    }
    crc = shift(t, shift(t, static_cast<std::uint32_t>(crc0)) ^
                       static_cast<std::uint32_t>(crc1)) ^
          static_cast<std::uint32_t>(crc2);
  }
  return crc;
}

__attribute__((target("sse4.2"))) std::uint32_t sse42(const std::uint8_t* p,
                                                        std::size_t len) {
  std::uint32_t crc = 0xFFFFFFFFu;
  crc = three_lanes(crc, p, len, kLongLane, kShiftLong);
  crc = three_lanes(crc, p, len, kShortLane, kShiftShort);
  for (; len >= 8; p += 8, len -= 8) {
    crc = static_cast<std::uint32_t>(crc_u64(crc, p));
  }
  for (; len > 0; ++p, --len) crc = _mm_crc32_u8(crc, *p);
  return ~crc;
}
#endif

using Impl = std::uint32_t (*)(const std::uint8_t*, std::size_t);

Impl pick_impl() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return sse42;
#endif
  return slice8;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t len) {
  static const Impl impl = pick_impl();
  return impl(static_cast<const std::uint8_t*>(data), len);
}

std::uint32_t crc32c_portable(const void* data, std::size_t len) {
  return slice8(static_cast<const std::uint8_t*>(data), len);
}

}  // namespace rmiopt
