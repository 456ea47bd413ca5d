#include "proto/codec.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/check.hpp"

namespace hlock::proto {
namespace {

Message envelope(Payload payload) {
  return Message{NodeId{1}, NodeId{2}, LockId{3}, std::move(payload)};
}

/// Every payload kind with boundary values where the wire format has edges:
/// priority 0 and 255, seq 0 and max, empty and multi-entry token queues.
std::vector<Message> all_kinds_boundary_messages() {
  std::vector<Payload> payloads{
      Payload{HierRequest{NodeId{0}, LockMode::kR, 0, 0}},
      Payload{HierRequest{NodeId{7}, LockMode::kW,
                          0xFFFFFFFFFFFFFFFFull, 255}},
      Payload{HierGrant{LockMode::kNL, LockMode::kNL, 0}},
      Payload{HierGrant{LockMode::kU, LockMode::kU, 0xFFFFFFFFu}},
      Payload{HierToken{LockMode::kW, LockMode::kNL, {}}},
      Payload{HierToken{LockMode::kR, LockMode::kIR,
                        {QueuedRequest{NodeId{4}, LockMode::kIW, 9, 0},
                         QueuedRequest{NodeId{5}, LockMode::kW, 10, 255}}}},
      Payload{HierRelease{LockMode::kNL, 0}},
      Payload{HierRelease{LockMode::kR, 0xFFFFFFFFu}},
      Payload{HierFreeze{ModeSet::of({LockMode::kIR, LockMode::kR})}},
      Payload{HierFreeze{ModeSet{}}},
      Payload{NaimiRequest{NodeId{9}, 77}},
      Payload{NaimiToken{}},
  };
  std::vector<Message> messages;
  std::uint64_t seq = 0;
  for (Payload& payload : payloads) {
    Message m = envelope(std::move(payload));
    m.request = RequestId{NodeId{1}, seq};
    m.lamport = ++seq;
    messages.push_back(std::move(m));
  }
  return messages;
}

class CodecRoundTrip : public ::testing::TestWithParam<Payload> {};

TEST_P(CodecRoundTrip, EncodeDecodeIsIdentity) {
  const Message original = envelope(GetParam());
  const std::vector<std::byte> wire = encode(original);
  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

INSTANTIATE_TEST_SUITE_P(
    AllPayloads, CodecRoundTrip,
    ::testing::Values(
        Payload{HierRequest{NodeId{7}, LockMode::kR, 42}},
        Payload{HierRequest{NodeId{0}, LockMode::kW, 0}},
        Payload{HierGrant{LockMode::kIR, LockMode::kR, 7}},
        Payload{HierGrant{LockMode::kU, LockMode::kU, 0xFFFFFFFFu}},
        Payload{HierToken{LockMode::kW, LockMode::kNL, {}}},
        Payload{HierToken{LockMode::kR, LockMode::kIR,
                          {QueuedRequest{NodeId{4}, LockMode::kIW, 9},
                           QueuedRequest{NodeId{5}, LockMode::kW, 10}}}},
        Payload{HierRelease{LockMode::kNL, 0}},
        Payload{HierRelease{LockMode::kR, 41}},
        Payload{HierFreeze{ModeSet::of({LockMode::kIR, LockMode::kR})}},
        Payload{HierFreeze{ModeSet{}}},
        Payload{NaimiRequest{NodeId{9}, 77}},
        Payload{NaimiToken{}}));

TEST(Codec, TruncatedInputRejectedAtEveryLength) {
  const Message original = envelope(Payload{HierToken{
      LockMode::kR, LockMode::kIR,
      {QueuedRequest{NodeId{4}, LockMode::kIW, 9}}}});
  const std::vector<std::byte> wire = encode(original);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(decode(std::span(wire.data(), len)).has_value())
        << "accepted a truncation to " << len << " bytes";
  }
}

TEST(Codec, TrailingGarbageRejected) {
  std::vector<std::byte> wire = encode(envelope(Payload{NaimiToken{}}));
  wire.push_back(std::byte{0xAB});
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(Codec, UnknownMessageKindRejected) {
  std::vector<std::byte> wire = encode(envelope(Payload{NaimiToken{}}));
  // Byte 37 is the payload discriminator (version byte, 4 x u32 ids, two
  // u64 observability fields and the u32 recovery epoch precede it).
  wire[37] = std::byte{0x7F};
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(Codec, InvalidModeRejected) {
  std::vector<std::byte> wire =
      encode(envelope(Payload{HierGrant{LockMode::kR, LockMode::kR, 1}}));
  // Byte 38 is the granted mode (37-byte envelope + 1 kind byte).
  wire[38] = std::byte{17};  // mode byte out of range
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(Codec, WrongVersionRejected) {
  std::vector<std::byte> wire = encode(envelope(Payload{NaimiToken{}}));
  ASSERT_EQ(wire[0], std::byte{kWireFormatVersion});
  wire[0] = std::byte{static_cast<std::uint8_t>(kWireFormatVersion + 1)};
  EXPECT_FALSE(decode(wire).has_value());
  wire[0] = std::byte{0};
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(Codec, RequestIdAndLamportRoundTrip) {
  Message m = envelope(Payload{HierGrant{LockMode::kR, LockMode::kR, 5}});
  m.request = RequestId{NodeId{9}, 0xDEADBEEFCAFEull};
  m.lamport = 0x0123456789ABCDEFull;
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->request, m.request);
  EXPECT_EQ(decoded->lamport, m.lamport);
  EXPECT_EQ(*decoded, m);
}

TEST(Codec, HostileQueueCountRejected) {
  // A token message whose queue count claims more entries than the buffer
  // could possibly hold must be rejected before any allocation.
  std::vector<std::byte> wire = encode(envelope(
      Payload{HierToken{LockMode::kR, LockMode::kNL, {}}}));
  // Queue count is the last 4 bytes; write 0xFFFFFFFF.
  for (std::size_t i = wire.size() - 4; i < wire.size(); ++i) {
    wire[i] = std::byte{0xFF};
  }
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(Codec, EmptyInputRejected) {
  EXPECT_FALSE(decode({}).has_value());
}

TEST(WireWriterReader, PrimitivesRoundTrip) {
  std::vector<std::byte> buffer;
  WireWriter writer{buffer};
  writer.u8(0xAB);
  writer.u32(0xDEADBEEF);
  writer.u64(0x0123456789ABCDEFull);
  writer.node(NodeId{11});
  writer.lock(LockId{22});
  writer.mode(LockMode::kIW);

  WireReader reader{buffer};
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.node(), NodeId{11});
  EXPECT_EQ(reader.lock(), LockId{22});
  EXPECT_EQ(reader.mode(), LockMode::kIW);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_FALSE(reader.u8().has_value());
}

TEST(WireWriterReader, LittleEndianLayout) {
  std::vector<std::byte> buffer;
  WireWriter writer{buffer};
  writer.u32(0x01020304);
  ASSERT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer[0], std::byte{0x04});
  EXPECT_EQ(buffer[3], std::byte{0x01});
}

TEST(Codec, RoundTripPropertyAcrossAllKindsAndBoundaries) {
  for (const Message& original : all_kinds_boundary_messages()) {
    const auto decoded = decode(encode(original));
    ASSERT_TRUE(decoded.has_value()) << to_string(original);
    EXPECT_EQ(*decoded, original);
  }
}

TEST(Codec, EveryKindRejectsTruncationAtEveryPrefixLength) {
  for (const Message& original : all_kinds_boundary_messages()) {
    const std::vector<std::byte> wire = encode(original);
    for (std::size_t len = 0; len < wire.size(); ++len) {
      EXPECT_FALSE(decode(std::span(wire.data(), len)).has_value())
          << to_string(original) << " accepted truncation to " << len;
    }
  }
}

TEST(Codec, EncodeIntoAppendsAndReusesTheBuffer) {
  const Message a = envelope(Payload{NaimiToken{}});
  const Message b =
      envelope(Payload{HierRelease{LockMode::kNL, 4}});
  std::vector<std::byte> buffer;
  encode_into(a, buffer);
  const std::size_t a_size = buffer.size();
  encode_into(b, buffer);  // appends — no clear between messages
  EXPECT_EQ(decode(std::span(buffer.data(), a_size)), a);
  EXPECT_EQ(decode(std::span(buffer).subspan(a_size)), b);
  // Steady-state reuse: clear keeps capacity, the next encode allocates
  // nothing.
  const std::size_t capacity = buffer.capacity();
  buffer.clear();
  encode_into(a, buffer);
  EXPECT_EQ(buffer.capacity(), capacity);
}

TEST(Codec, MaxSizedTokenQueueRoundTripsAndOversizeIsRejected) {
  HierToken token{LockMode::kW, LockMode::kNL, {}};
  token.queue.resize(kMaxTokenQueueEntries,
                     QueuedRequest{NodeId{2}, LockMode::kR, 1, 0});
  const Message max_message = envelope(Payload{token});
  const auto decoded = decode(encode(max_message));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, max_message);

  // One more entry exceeds the wire cap: encode must refuse rather than
  // silently truncate the count (the old static_cast wrapped it).
  token.queue.push_back(QueuedRequest{NodeId{3}, LockMode::kW, 2, 0});
  EXPECT_THROW(encode(envelope(Payload{std::move(token)})),
               hlock::UsageError);
}

TEST(Codec, DecodedQueueCountCappedAgainstRemainingBytes) {
  // A count within the cap but larger than the remaining bytes could ever
  // back must be rejected before any allocation.
  std::vector<std::byte> wire = encode(envelope(
      Payload{HierToken{LockMode::kR, LockMode::kNL, {}}}));
  // Queue count is the last 4 bytes; claim 1000 entries with 0 remaining.
  wire[wire.size() - 4] = std::byte{0xE8};
  wire[wire.size() - 3] = std::byte{0x03};
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(BatchCodec, RoundTripsAllKinds) {
  const std::vector<Message> messages = all_kinds_boundary_messages();
  std::vector<std::byte> frame;
  encode_batch_into(messages, frame);
  ASSERT_EQ(std::to_integer<std::uint8_t>(frame.front()), kBatchMarker);
  const auto decoded = decode_batch(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, messages);
}

TEST(BatchCodec, SingleMessageFramesAreNotBatchFrames) {
  const std::vector<std::byte> wire =
      encode(envelope(Payload{NaimiToken{}}));
  EXPECT_NE(std::to_integer<std::uint8_t>(wire.front()), kBatchMarker);
  EXPECT_FALSE(decode_batch(wire).has_value());
}

TEST(BatchCodec, EmptyBatchRoundTrips) {
  std::vector<std::byte> frame;
  encode_batch_into({}, frame);
  const auto decoded = decode_batch(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
}

TEST(BatchCodec, RejectsTruncationAtEveryPrefixLength) {
  std::vector<Message> messages;
  messages.push_back(envelope(Payload{NaimiToken{}}));
  messages.push_back(envelope(Payload{HierToken{
      LockMode::kR, LockMode::kIR,
      {QueuedRequest{NodeId{4}, LockMode::kIW, 9, 0}}}}));
  std::vector<std::byte> frame;
  encode_batch_into(messages, frame);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(decode_batch(std::span(frame.data(), len)).has_value())
        << "accepted a truncation to " << len << " bytes";
  }
}

TEST(BatchCodec, TrailingGarbageRejected) {
  std::vector<std::byte> frame;
  encode_batch_into(std::vector<Message>{envelope(Payload{NaimiToken{}})},
                    frame);
  frame.push_back(std::byte{0xAB});
  EXPECT_FALSE(decode_batch(frame).has_value());
}

TEST(BatchCodec, HostileMessageCountRejected) {
  // A count far beyond what the remaining bytes could hold must be
  // rejected before any allocation.
  std::vector<std::byte> frame;
  encode_batch_into(std::vector<Message>{envelope(Payload{NaimiToken{}})},
                    frame);
  for (std::size_t i = 1; i <= 4; ++i) frame[i] = std::byte{0xFF};
  EXPECT_FALSE(decode_batch(frame).has_value());
}

TEST(BatchCodec, CorruptedInnerLengthRejected) {
  std::vector<std::byte> frame;
  encode_batch_into(std::vector<Message>{envelope(Payload{NaimiToken{}})},
                    frame);
  // Bytes 5..8 are the first message's length prefix; shrink it below the
  // minimum message size.
  frame[5] = std::byte{0x01};
  frame[6] = std::byte{0x00};
  frame[7] = std::byte{0x00};
  frame[8] = std::byte{0x00};
  EXPECT_FALSE(decode_batch(frame).has_value());
}

TEST(Codec, EncodingIsCompact) {
  // Envelope (37 bytes: version, 4 ids, request seq, lamport, recovery
  // epoch) + kind (1) + payload; a grant carries two mode bytes and a
  // 4-byte grant epoch.
  EXPECT_EQ(encode(envelope(Payload{HierGrant{LockMode::kR, LockMode::kR,
                                              1}})).size(),
            44u);
  EXPECT_EQ(encode(envelope(Payload{HierRelease{LockMode::kNL, 2}})).size(),
            43u);
  EXPECT_EQ(encode(envelope(Payload{NaimiToken{}})).size(), 38u);
}

}  // namespace
}  // namespace hlock::proto
