// Low-level loopback TCP helpers of the TCP transport and its tests:
// listener setup, connection, and the length-prefixed message framing.
//
// Wire frame: 4-byte little-endian payload length, then the binary codec
// encoding of one Message. Frames above a sanity cap are treated as
// corruption. A frame is built in one buffer (begin_frame, encode, then
// finish_frame) so it goes out in a single send(); tcp_endpoint.hpp reads
// the stream back.
#pragma once

#include <cstdint>
#include <vector>

#include "proto/message.hpp"

namespace hlock::transport {

/// Largest accepted frame; the biggest legal message (a token with a full
/// queue) is far below this.
inline constexpr std::uint32_t kMaxFrameBytes = 1 << 20;

/// Bytes of the length prefix in front of every frame body.
inline constexpr std::size_t kFramePrefixBytes = 4;

/// Binds and listens on 127.0.0.1:`port` (0 = ephemeral). Returns the fd.
/// Throws UsageError on failure.
int listen_loopback(std::uint16_t port = 0);

/// The local port a bound socket listens on.
std::uint16_t local_port(int fd);

/// Connects to 127.0.0.1:`port` (blocking) and enables TCP_NODELAY.
/// Throws UsageError on failure.
int connect_loopback(std::uint16_t port);

/// Starts a frame in `out`: clears it and appends a placeholder length
/// prefix. Encode the body after it, then call finish_frame().
void begin_frame(std::vector<std::byte>& out);

/// Backpatches the length prefix of the frame begun in `out`; false when
/// the body is empty or above kMaxFrameBytes.
bool finish_frame(std::vector<std::byte>& out);

/// The body length a frame's 4-byte prefix declares.
std::uint32_t frame_body_size(const std::byte* prefix);

/// Writes one framed message with a blocking send; false on error or peer
/// close. For hand-rolled peers (tests, tools); the transport writes
/// through TcpEndpoint::send_frame.
bool write_frame(int fd, const proto::Message& message);

}  // namespace hlock::transport
