// Binary wire codec for protocol messages.
//
// The in-process transports could pass Message structs by value, but a real
// deployment ships bytes; encoding through this codec keeps the protocol
// honest about what information actually crosses the network (the threaded
// transports ship every message through it). The format is a fixed
// little-endian layout with a length-prefixed queue section — no pointers,
// no padding, portable across platforms. A leading version byte
// rejects frames from incompatible peers; version 2 added the per-request
// causal id and the Lamport timestamp to the envelope (src/obs).
//
// Hot-path API: encode() allocates a fresh buffer per call, which is the
// convenient form for tests and one-off frames. Transports on the hot path
// use encode_into() with a caller-owned scratch buffer that amortizes the
// allocation across messages. The batch envelope (encode_batch_into /
// decode_batch) frames several messages as one unit; no transport sends or
// accepts it, and perfbench's codec layer still times it — see
// docs/performance.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "proto/message.hpp"

namespace hlock::proto {

/// Wire format version, the first byte of every encoded message. Bumped to
/// 2 when the envelope grew the RequestId and Lamport fields; bumped to 3
/// when it grew the recovery epoch (and the recovery message kinds —
/// docs/recovery.md). decode() rejects every other version.
inline constexpr std::uint8_t kWireFormatVersion = 3;

/// First byte of a batch envelope (encode_batch_into). Deliberately far
/// from any plausible version byte, so decode() rejects a batch envelope
/// by its first byte alone.
inline constexpr std::uint8_t kBatchMarker = 0xB5;

/// Hard cap on HierToken queue entries, enforced on both sides of the wire:
/// encode() rejects messages above it (a queue that large indicates state
/// corruption — a cluster has at most one queued request per node) and
/// decode() rejects counts above it before reserving memory, so a corrupt
/// or hostile frame can never drive a huge allocation.
inline constexpr std::size_t kMaxTokenQueueEntries = 1u << 16;

/// Hard cap on messages per batch envelope, decode-side companion of
/// kMaxTokenQueueEntries for the batch count field.
inline constexpr std::size_t kMaxBatchMessages = 1u << 16;

/// Hard cap on node-list entries (ElectToken/EpochFence dead sets, fence
/// holder lists), decode-side companion of kMaxTokenQueueEntries.
inline constexpr std::size_t kMaxFenceNodes = 1u << 16;

/// Smallest possible single-message encoding (a NaimiToken: version byte,
/// envelope, empty payload); used to reject impossible batch counts before
/// allocating.
inline constexpr std::size_t kMinEncodedMessageBytes = 38;

/// Appends little-endian primitives to a byte buffer.
class WireWriter {
 public:
  explicit WireWriter(std::vector<std::byte>& out) : out_(out) {}

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void node(NodeId id);
  void lock(LockId id);
  void mode(LockMode m);

  /// Overwrites a previously written u32 at byte offset `at` (backpatching
  /// length prefixes without a second encoding pass).
  void patch_u32(std::size_t at, std::uint32_t v);

  /// Bytes written to the underlying buffer so far.
  std::size_t size() const { return out_.size(); }

 private:
  std::vector<std::byte>& out_;
};

/// Consumes little-endian primitives from a byte span. All read methods
/// return std::nullopt once the input is exhausted or malformed; decoding
/// never throws on bad input (a hostile or truncated packet must not crash
/// a lock server).
class WireReader {
 public:
  explicit WireReader(std::span<const std::byte> in) : in_(in) {}

  std::optional<std::uint8_t> u8();
  std::optional<std::uint32_t> u32();
  std::optional<std::uint64_t> u64();
  std::optional<NodeId> node();
  std::optional<LockId> lock();
  std::optional<LockMode> mode();

  /// Consumes the next `size` bytes as a subspan; std::nullopt if fewer
  /// remain.
  std::optional<std::span<const std::byte>> bytes(std::size_t size);

  /// Bytes not yet consumed.
  std::size_t remaining() const { return in_.size() - pos_; }

 private:
  std::span<const std::byte> in_;
  std::size_t pos_ = 0;
};

/// Serializes a message; the result is self-contained (no framing needed
/// beyond the byte count). Throws UsageError for messages that exceed the
/// wire format's limits (a HierToken queue above kMaxTokenQueueEntries).
std::vector<std::byte> encode(const Message& m);

/// Appends the encoding of `m` to `out` without clearing it — the reusable
/// zero-allocation form of encode() (callers clear() and reuse one scratch
/// buffer across messages; the buffer's capacity persists).
void encode_into(const Message& m, std::vector<std::byte>& out);

/// Parses a message previously produced by encode(). Returns std::nullopt
/// for truncated or corrupt input, including trailing garbage.
std::optional<Message> decode(std::span<const std::byte> bytes);

/// Appends a batch envelope carrying all of `messages` to `out`:
/// kBatchMarker, a u32 count, then one length-prefixed single-message
/// encoding per message. The result is self-contained like encode()'s.
/// Throws UsageError when `messages` exceeds kMaxBatchMessages.
void encode_batch_into(std::span<const Message> messages,
                       std::vector<std::byte>& out);

/// Parses a batch envelope previously produced by encode_batch_into().
/// Returns std::nullopt for anything else: truncated or corrupt input,
/// trailing garbage, counts or lengths the buffer cannot hold.
std::optional<std::vector<Message>> decode_batch(
    std::span<const std::byte> bytes);

}  // namespace hlock::proto
