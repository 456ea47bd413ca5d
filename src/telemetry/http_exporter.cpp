#include "telemetry/http_exporter.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "telemetry/exposition.hpp"
#include "transport/tcp_socket.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/sync_observer.hpp"

namespace hlock::telemetry {
namespace {

constexpr std::size_t kMaxRequestBytes = 8 * 1024;

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::string make_response(int status, const char* reason,
                          const std::string& body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + ' ' + reason +
                    "\r\n"
                    "Content-Type: text/plain; version=0.0.4; "
                    "charset=utf-8\r\n"
                    "Content-Length: " +
                    std::to_string(body.size()) +
                    "\r\n"
                    "Connection: close\r\n"
                    "\r\n";
  out += body;
  return out;
}

}  // namespace

HttpExporter::HttpExporter(Registry& registry, std::uint16_t port)
    : registry_(registry) {
  listen_fd_ = transport::listen_loopback(port);
  port_ = transport::local_port(listen_fd_);
  thread_ = sched::Thread("telemetry-http", [this] { serve_loop(); });
}

HttpExporter::~HttpExporter() { stop(); }

void HttpExporter::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  // shutdown() wakes the blocked accept(); close() alone is not reliably
  // enough on Linux.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) {
    thread_.join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void HttpExporter::serve_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = -1;
    {
      sched::BlockingRegion region;
      fd = ::accept(listen_fd_, nullptr, nullptr);
    }
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) {
        return;
      }
      if (errno == EINTR) {
        continue;
      }
      HLOCK_LOG(kWarn, "telemetry: /metrics accept failed: "
                           << std::strerror(errno));
      return;
    }
    handle_connection(fd);
    ::close(fd);
  }
}

void HttpExporter::handle_connection(int fd) {
  // Read until the end of the request head ("\r\n\r\n"); scrapers send no
  // body with GET. Serial handling keeps this loop trivially safe.
  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos) {
    ssize_t n = 0;
    {
      sched::BlockingRegion region;
      n = ::recv(fd, buf, sizeof(buf), 0);
    }
    if (n <= 0) {
      return;  // peer closed or errored before a full request
    }
    request.append(buf, static_cast<std::size_t>(n));
  }

  const auto line_end = request.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  const auto first_space = request_line.find(' ');
  const auto second_space = first_space == std::string::npos
                                ? std::string::npos
                                : request_line.find(' ', first_space + 1);
  if (first_space == std::string::npos ||
      second_space == std::string::npos) {
    send_all(fd, make_response(400, "Bad Request", "malformed request\n"));
    return;
  }
  const std::string method = request_line.substr(0, first_space);
  const std::string target =
      request_line.substr(first_space + 1, second_space - first_space - 1);

  if (method != "GET") {
    send_all(fd,
             make_response(405, "Method Not Allowed", "GET only here\n"));
    return;
  }
  if (target != "/metrics" && target != "/") {
    send_all(fd, make_response(404, "Not Found", "try /metrics\n"));
    return;
  }
  const std::string body = render_prometheus(registry_.snapshot());
  if (send_all(fd, make_response(200, "OK", body))) {
    scrapes_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::string scrape(std::uint16_t port) {
  const int fd = transport::connect_loopback(port);
  const std::string request =
      "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  if (!send_all(fd, request)) {
    ::close(fd);
    throw UsageError("scrape: write failed");
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      ::close(fd);
      throw UsageError("scrape: read failed");
    }
    if (n == 0) break;  // Connection: close — EOF ends the response
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (response.find("\r\n") == std::string::npos ||
      response.compare(0, 9, "HTTP/1.1 ") != 0) {
    throw UsageError("scrape: malformed HTTP response");
  }
  const std::string status = response.substr(9, 3);
  if (status != "200") throw UsageError("scrape: HTTP status " + status);
  const std::size_t body_at = response.find("\r\n\r\n");
  if (body_at == std::string::npos) {
    throw UsageError("scrape: response has no body");
  }
  return response.substr(body_at + 4);
}

}  // namespace hlock::telemetry
