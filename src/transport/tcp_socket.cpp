#include "transport/tcp_socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "proto/codec.hpp"
#include "util/check.hpp"

namespace hlock::transport {

int listen_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  HLOCK_REQUIRE(fd >= 0, "socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw UsageError("tcp: bind/listen on loopback failed: " + reason);
  }
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  HLOCK_REQUIRE(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                              &len) == 0,
                "getsockname() failed");
  return ntohs(bound.sin_port);
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  HLOCK_REQUIRE(fd >= 0, "socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw UsageError("tcp: connect to loopback port " +
                     std::to_string(port) + " failed: " + reason);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void begin_frame(std::vector<std::byte>& out) {
  out.assign(kFramePrefixBytes, std::byte{0});
}

bool finish_frame(std::vector<std::byte>& out) {
  const std::size_t body = out.size() - kFramePrefixBytes;
  if (body == 0 || body > kMaxFrameBytes) return false;
  for (std::size_t i = 0; i < kFramePrefixBytes; ++i) {
    out[i] = static_cast<std::byte>((body >> (8 * i)) & 0xFF);
  }
  return true;
}

std::uint32_t frame_body_size(const std::byte* prefix) {
  std::uint32_t size = 0;
  for (std::size_t i = 0; i < kFramePrefixBytes; ++i) {
    size |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
  }
  return size;
}

bool write_frame(int fd, const proto::Message& message) {
  std::vector<std::byte> frame;
  begin_frame(frame);
  proto::encode_into(message, frame);
  if (!finish_frame(frame)) return false;
  const std::byte* data = frame.data();
  std::size_t size = frame.size();
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace hlock::transport
