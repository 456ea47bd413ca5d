// Minimal HTTP/1.1 server exposing `GET /metrics` over loopback TCP.
//
// One accept thread serves connections serially (a scrape is a short
// read-respond-close exchange; Prometheus-style pollers open one
// connection per scrape). The exporter reuses the transport layer's
// loopback socket helpers and renders the owning Registry fresh on every
// request, so a scrape always sees current values — no sampler
// dependency. Anything other than `GET /metrics` (or `GET /`) gets a 404;
// malformed requests get a 400. Plain text, Content-Length framing,
// `Connection: close`.
//
// This is deliberately not a general HTTP server: loopback only, no
// keep-alive, no TLS, request line + headers capped at 8 KiB. scrape() is
// the matching client, shared by hlock_top and hlock_metrics_check.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "telemetry/registry.hpp"
#include "util/sync.hpp"

namespace hlock::telemetry {

/// See file comment.
class HttpExporter {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts serving. Throws
  /// UsageError when the bind fails.
  HttpExporter(Registry& registry, std::uint16_t port);
  ~HttpExporter();

  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// The bound port (useful with port 0).
  std::uint16_t port() const { return port_; }

  /// Scrapes served so far (2xx responses only).
  std::uint64_t scrapes_served() const {
    return scrapes_.load(std::memory_order_relaxed);
  }

  /// Stops accepting and joins the server thread. Idempotent; the
  /// destructor calls it.
  void stop();

 private:
  void serve_loop();
  void handle_connection(int fd);

  Registry& registry_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> scrapes_{0};
  sched::Thread thread_;
};

/// One `GET /metrics` exchange with 127.0.0.1:`port`; returns the response
/// body. Throws UsageError when the connection fails, the response is
/// malformed or has no body, or its status is not 200.
std::string scrape(std::uint16_t port);

}  // namespace hlock::telemetry
