// Google-benchmark microbenchmarks for the frame codec: real wall-clock
// throughput of the frame checksum and of frame encode and decode.
//
// A byte-oriented transport (SimTransport) encodes every frame once and
// decodes it once, and each pass checksums the whole body, so on bulk
// payloads such as the web server's 64 KiB pages the checksum and the
// copies set the codec's cost.  Which row each part of the codec moves:
//  * BM_Crc32c/768, /24576 and /65576: the checksum kernel.  768 bytes is
//    the smallest input the three-lane SSE4.2 kernel takes (three 256 B
//    lanes), 24,576 one block of three 8 KiB lanes, and 65,576 about one
//    64 KiB page frame.  BM_Crc32cPortable is the slicing-by-8 reference
//    over one 64 KiB page.
//  * BM_EncodeFrame: the encoder alone, which writes the image in place
//    and patches its checksum (no body buffer, no zero fill), plus one
//    checksum pass.
//  * BM_DecodeFrame: the decoder alone, one checksum pass and the one copy
//    of the payload out of the image.
//  * BM_EncodeDecodeFrame: both, as SimTransport runs them per frame.
#include <benchmark/benchmark.h>

#include <vector>

#include "support/crc32c.hpp"
#include "support/rng.hpp"
#include "wire/framing.hpp"

namespace {

using namespace rmiopt;

constexpr std::int64_t kPageBytes = 64 * 1024;

std::vector<std::uint8_t> random_bytes(std::int64_t n) {
  SplitMix64 rng(static_cast<std::uint64_t>(n));
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(n));
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  return bytes;
}

void BM_Crc32c(benchmark::State& state) {
  const std::vector<std::uint8_t> bytes = random_bytes(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(768)->Arg(24'576)->Arg(65'576);

void BM_Crc32cPortable(benchmark::State& state) {
  const std::vector<std::uint8_t> page = random_bytes(kPageBytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c_portable(page.data(), page.size()));
  }
  state.SetBytesProcessed(state.iterations() * kPageBytes);
}
BENCHMARK(BM_Crc32cPortable);

// One frame carrying one Return message of `n` random payload bytes.
wire::Frame return_frame(std::int64_t n) {
  const std::vector<std::uint8_t> payload = random_bytes(n);
  wire::Frame frame;
  wire::Message msg;
  msg.header.kind = wire::MsgKind::Return;
  msg.payload.put_bytes(payload.data(), payload.size());
  frame.messages.push_back(std::move(msg));
  return frame;
}

// One Arg(0)-byte Return frame encoded to its image and decoded back (the
// owned-buffer path, which copies each payload out as SimTransport does
// with zero-copy receive off).
void BM_EncodeDecodeFrame(benchmark::State& state) {
  const wire::Frame frame = return_frame(state.range(0));
  for (auto _ : state) {
    ByteBuffer image = wire::encode_frame(frame);
    const wire::Frame back = wire::decode_frame(image);
    benchmark::DoNotOptimize(back.messages.front().payload.size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeDecodeFrame)->Arg(64)->Arg(4096)->Arg(kPageBytes);

// The encode half alone: one image per iteration, built and freed.
void BM_EncodeFrame(benchmark::State& state) {
  const wire::Frame frame = return_frame(state.range(0));
  for (auto _ : state) {
    ByteBuffer image = wire::encode_frame(frame);
    benchmark::DoNotOptimize(image.size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeFrame)->Arg(64)->Arg(4096)->Arg(kPageBytes);

// The decode half alone, from one encoded image: the checksum pass and
// the one copy of the payload out of the image.
void BM_DecodeFrame(benchmark::State& state) {
  ByteBuffer image = wire::encode_frame(return_frame(state.range(0)));
  for (auto _ : state) {
    image.rewind();
    const wire::Frame back = wire::decode_frame(image);
    benchmark::DoNotOptimize(back.messages.front().payload.size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeFrame)->Arg(64)->Arg(4096)->Arg(kPageBytes);

}  // namespace

BENCHMARK_MAIN();
