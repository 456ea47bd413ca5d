// libFuzzer harness for the wire codec (src/proto/codec.*), the one
// component that parses bytes straight off the network: a malformed or
// hostile frame must be rejected with std::nullopt — never a crash, an
// overflow, a huge allocation or an exception.
//
// The harness feeds every input to both decoders, decode() and
// decode_batch(), and additionally checks semantic round-trip stability:
// anything a decoder accepts must re-encode to bytes that decode to an
// equal value. Build with -DHLOCK_FUZZ=ON (Clang only);
// docs/static-analysis.md covers running it.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "proto/codec.hpp"
#include "proto/message.hpp"

namespace {

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "codec_fuzzer: %s\n", what);
  std::abort();
}

void check_single(std::span<const std::byte> bytes) {
  const auto decoded = hlock::proto::decode(bytes);
  if (!decoded) return;
  // Accepted frames must round-trip: the decoder may not lose or invent
  // information the encoder cannot reproduce.
  const std::vector<std::byte> wire = hlock::proto::encode(*decoded);
  const auto again = hlock::proto::decode(wire);
  if (!again) die("re-encoded frame rejected");
  if (!(*again == *decoded)) die("round-trip changed the message");
}

void check_batch(std::span<const std::byte> bytes) {
  const auto batch = hlock::proto::decode_batch(bytes);
  if (!batch) return;
  std::vector<std::byte> wire;
  hlock::proto::encode_batch_into(*batch, wire);
  const auto again = hlock::proto::decode_batch(wire);
  if (!again) die("re-encoded batch rejected");
  if (!(*again == *batch)) die("batch round-trip changed the messages");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::byte> bytes(
      reinterpret_cast<const std::byte*>(data), size);
  check_single(bytes);
  check_batch(bytes);
  return 0;
}

#ifdef HLOCK_FUZZ_STANDALONE
// Corpus-replay driver (any compiler, no libFuzzer): runs the harness over
// the files given on the command line. Registered as a ctest test so the
// committed corpus is regression-checked on every build, even where Clang
// is unavailable and the real fuzzer target cannot be built.
#include <fstream>

int main(int argc, char** argv) {
  int replayed = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "codec_fuzzer: cannot open %s\n", argv[i]);
      return 1;
    }
    const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                           bytes.size());
    ++replayed;
  }
  std::printf("codec_fuzzer: replayed %d corpus file(s), no crashes\n",
              replayed);
  return 0;
}
#endif
