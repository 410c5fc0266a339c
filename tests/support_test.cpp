// Unit tests for src/support: byte buffers, hashing, CRC-32C, RNG, virtual
// time, table formatting.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "support/bytebuffer.hpp"
#include "support/crc32c.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/sim_time.hpp"
#include "support/table.hpp"

namespace rmiopt {
namespace {

TEST(ByteBuffer, RoundTripsPrimitives) {
  ByteBuffer b;
  b.put_u8(0xab);
  b.put_i32(-12345);
  b.put_u32(0xdeadbeef);
  b.put_i64(-1234567890123456789ll);
  b.put_f64(3.14159);

  EXPECT_EQ(b.get_u8(), 0xab);
  EXPECT_EQ(b.get_i32(), -12345);
  EXPECT_EQ(b.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(b.get_i64(), -1234567890123456789ll);
  EXPECT_DOUBLE_EQ(b.get_f64(), 3.14159);
  EXPECT_EQ(b.remaining(), 0u);
}

TEST(ByteBuffer, RoundTripsVarints) {
  ByteBuffer b;
  const std::array<std::uint64_t, 7> values = {
      0, 1, 127, 128, 300, 1ull << 32, std::numeric_limits<std::uint64_t>::max()};
  for (auto v : values) b.put_varint(v);
  for (auto v : values) EXPECT_EQ(b.get_varint(), v);
}

TEST(ByteBuffer, VarintIsCompactForSmallValues) {
  ByteBuffer b;
  b.put_varint(5);
  EXPECT_EQ(b.size(), 1u);  // vs 4 bytes for a fixed i32 class id
}

TEST(ByteBuffer, RoundTripsStrings) {
  ByteBuffer b;
  b.put_string("hello world");
  b.put_string("");
  EXPECT_EQ(b.get_string(), "hello world");
  EXPECT_EQ(b.get_string(), "");
}

TEST(ByteBuffer, RoundTripsDoubleArrays) {
  ByteBuffer b;
  const std::array<double, 4> in = {1.0, 2.5, -3.0, 1e300};
  b.put_array(std::span<const double>(in));
  std::array<double, 4> out{};
  b.get_array(std::span<double>(out));
  EXPECT_EQ(in, out);
}

TEST(ByteBuffer, UnderflowThrows) {
  ByteBuffer b;
  b.put_u8(1);
  b.get_u8();
  EXPECT_THROW(b.get_i32(), Error);
}

TEST(ByteBuffer, RewindRereadsFromStart) {
  ByteBuffer b;
  b.put_i32(42);
  EXPECT_EQ(b.get_i32(), 42);
  b.rewind();
  EXPECT_EQ(b.get_i32(), 42);
}

TEST(Hash, JavaStringHashMatchesReference) {
  // Reference values computed with java.lang.String#hashCode.
  EXPECT_EQ(java_string_hash(""), 0);
  EXPECT_EQ(java_string_hash("a"), 97);
  EXPECT_EQ(java_string_hash("abc"), 96354);
  EXPECT_EQ(java_string_hash("/index.html"), 2144181430);
}

TEST(Hash, Fnv1aIsStable) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
}

// Checks `data` against `expected` on both the dispatched and the portable
// path, so the known answers hold whichever path this CPU selects.
void expect_crc32c(const void* data, std::size_t len, std::uint32_t expected) {
  EXPECT_EQ(crc32c(data, len), expected) << "len=" << len;
  EXPECT_EQ(crc32c_portable(data, len), expected) << "len=" << len;
}

TEST(Crc32c, MatchesRfc3720KnownAnswers) {
  // RFC 3720 Appendix B.4 (iSCSI) test vectors.
  std::array<std::uint8_t, 32> bytes{};
  expect_crc32c(bytes.data(), bytes.size(), 0x8A9136AAu);
  bytes.fill(0xFF);
  expect_crc32c(bytes.data(), bytes.size(), 0x62A8AB43u);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i);
  }
  expect_crc32c(bytes.data(), bytes.size(), 0x46DD794Eu);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(31 - i);
  }
  expect_crc32c(bytes.data(), bytes.size(), 0x113FDB5Cu);
}

TEST(Crc32c, MatchesCheckValueAndEmptyInput) {
  const std::string_view check = "123456789";
  expect_crc32c(check.data(), check.size(), 0xE3069283u);
  expect_crc32c(nullptr, 0, 0u);
}

TEST(Crc32c, HardwareAndPortablePathsAgree) {
  // Every length up to 300 at every start alignment covers the 8-byte
  // loops' head and tail cases; one 65,600-byte buffer covers a bulk page.
  // Lengths within 9 bytes of 768 and 24,576 (one block of three 256-byte
  // and of three 8 KiB lanes), 49,152 (two long blocks) and 65,600 cover
  // each lane stride, combine table and block boundary.
  SplitMix64 rng(0xC2C);
  std::vector<std::uint8_t> bytes(65'600 + 9 + 7);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      EXPECT_EQ(crc32c(bytes.data() + offset, len),
                crc32c_portable(bytes.data() + offset, len))
          << "offset=" << offset << " len=" << len;
    }
    for (const std::size_t edge : {768, 24'576, 49'152, 65'600}) {
      for (std::size_t len = edge - 9; len <= edge + 9; ++len) {
        EXPECT_EQ(crc32c(bytes.data() + offset, len),
                  crc32c_portable(bytes.data() + offset, len))
            << "offset=" << offset << " len=" << len;
      }
    }
  }
  EXPECT_EQ(crc32c(bytes.data(), 65'600),
            crc32c_portable(bytes.data(), 65'600));
}

TEST(Rng, IsDeterministicPerSeed) {
  SplitMix64 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c;
  }
  SplitMix64 d(43);
  EXPECT_NE(SplitMix64(42).next(), d.next());
}

TEST(Rng, NextBelowRespectsBound) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  SplitMix64 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(SimTime, ArithmeticIsExact) {
  const SimTime t = SimTime::micros(40) + SimTime::nanos(100) * 5;
  EXPECT_EQ(t.as_nanos(), 40'500);
  EXPECT_DOUBLE_EQ(t.as_micros(), 40.5);
  EXPECT_LT(SimTime::micros(1), SimTime::millis(1));
  EXPECT_EQ(max(SimTime::seconds(1), SimTime::millis(5)).as_nanos(),
            SimTime::seconds(1).as_nanos());
}

TEST(SimTime, FormatsHumanReadable) {
  EXPECT_EQ(SimTime::micros(40).to_string(), "40.000us");
  EXPECT_EQ(SimTime::millis(3).to_string(), "3.000ms");
  EXPECT_EQ(SimTime::seconds(2).to_string(), "2.000s");
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"Compiler Optimization", "seconds", "gain over 'class'"});
  t.add_row({"class", "161.5", "0"});
  t.add_row({"site + reuse + cycle", "91.5", "43.3%"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Compiler Optimization"), std::string::npos);
  EXPECT_NE(out.find("43.3%"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, GainFormatMatchesPaper) {
  EXPECT_EQ(fmt_gain(161.5, 140.4), "13.1%");
  EXPECT_EQ(fmt_gain(100.0, 100.0), "0.0%");
  EXPECT_EQ(fmt_gain(0.0, 5.0), "n/a");
}

}  // namespace
}  // namespace rmiopt
