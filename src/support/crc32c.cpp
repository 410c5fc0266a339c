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
__attribute__((target("sse4.2"))) std::uint32_t sse42(const std::uint8_t* p,
                                                        std::size_t len) {
  std::uint64_t crc = 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; len > 0; ++p, --len) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
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
