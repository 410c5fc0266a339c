// CRC-32C (Castagnoli), the iSCSI checksum of RFC 3720: reflected
// polynomial 0x82F63B78, initial value and final XOR 0xFFFFFFFF.  It
// detects every error burst of up to 32 bits (so every 1-bit error), which
// is why the wire layer uses it as its frame checksum.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rmiopt {

// CRC-32C of `len` bytes at `data`.  On x86-64 CPUs with SSE4.2 this runs
// the `crc32` instruction 8 bytes at a time, on three interleaved lanes
// for inputs of 768 bytes or more (the three-lane method of Gopal et al.,
// "Fast CRC Computation for iSCSI Polynomial Using CRC32 Instruction",
// Intel 2011); elsewhere it is crc32c_portable.  The choice is made once
// per process from the CPU.
std::uint32_t crc32c(const void* data, std::size_t len);

// The same function as a slicing-by-8 table loop: compiled and correct on
// every platform, and the reference the hardware path is tested against.
std::uint32_t crc32c_portable(const void* data, std::size_t len);

}  // namespace rmiopt
