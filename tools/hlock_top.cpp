// hlock_top — live terminal dashboard over the telemetry exposition.
//
// Polls a metrics source — the file a chaos run rewrites via
// --metrics-out, or a live `GET /metrics` endpoint — and renders the
// cluster's vitals in place: per-mode request/grant rates, message and
// stall counters, token locations, queue and mailbox depths, and the
// wait/hold-time distributions as render_bucketed_histogram bars.
//
//   hlock_top --from /tmp/metrics.prom
//   hlock_top --connect 9100 --interval-ms 500
//   hlock_top --from m.prom --iterations 1 --no-clear   # one-shot, CI-safe
//
// Rates are deltas between consecutive polls; the first frame shows
// totals only. The dashboard is read-only and shares nothing with the
// process it watches beyond the exposition text (docs/telemetry.md).
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stats/histogram.hpp"
#include "telemetry/text_parse.hpp"
#include "transport/tcp_socket.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

using namespace hlock;
using telemetry::ParsedExposition;
using telemetry::ParsedSeries;

namespace {

/// The value of label `key` inside a series' raw label block ("" when
/// absent). Exposition values here never contain escaped quotes.
std::string label_of(const ParsedSeries& series, const std::string& key) {
  const std::string needle = key + "=\"";
  std::size_t pos = series.labels.find(needle);
  if (pos == std::string::npos) return "";
  pos += needle.size();
  const std::size_t end = series.labels.find('"', pos);
  if (end == std::string::npos) return "";
  return series.labels.substr(pos, end - pos);
}

/// Sums `family` series grouped by the value of one label.
std::map<std::string, double> sum_by_label(const ParsedExposition& parsed,
                                           const std::string& family,
                                           const std::string& key) {
  std::map<std::string, double> out;
  for (const ParsedSeries& series : parsed.series) {
    if (series.family != family) continue;
    out[label_of(series, key)] += series.value;
  }
  return out;
}

/// Re-aggregates one histogram family across all its label sets: bucket
/// upper bounds (ascending) plus per-bucket (non-cumulative) counts with
/// the trailing overflow bucket — the render_bucketed_histogram shape.
bool aggregate_histogram(const ParsedExposition& parsed,
                         const std::string& family,
                         std::vector<double>* bounds,
                         std::vector<std::uint64_t>* counts) {
  std::map<double, double> cumulative;  // le -> summed cumulative count
  double inf_total = 0.0;
  bool any = false;
  for (const ParsedSeries& series : parsed.series) {
    if (series.family != family + "_bucket") continue;
    const std::string le = label_of(series, "le");
    if (le.empty()) continue;
    any = true;
    if (le == "+Inf") {
      inf_total += series.value;
    } else {
      cumulative[std::strtod(le.c_str(), nullptr)] += series.value;
    }
  }
  if (!any) return false;
  bounds->clear();
  counts->clear();
  double previous = 0.0;
  for (const auto& [bound, total] : cumulative) {
    bounds->push_back(bound);
    counts->push_back(total >= previous
                          ? static_cast<std::uint64_t>(total - previous)
                          : 0u);
    previous = total;
  }
  counts->push_back(inf_total >= previous
                        ? static_cast<std::uint64_t>(inf_total - previous)
                        : 0u);
  return true;
}

/// One `GET /metrics` scrape (body only). Throws UsageError on failure.
std::string scrape(std::uint16_t port) {
  const int fd = transport::connect_loopback(port);
  const std::string request =
      "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) {
      ::close(fd);
      throw UsageError("scrape: write failed");
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      ::close(fd);
      throw UsageError("scrape: read failed");
    }
    if (n == 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t body_at = response.find("\r\n\r\n");
  if (response.compare(0, 9, "HTTP/1.1 ") != 0 ||
      body_at == std::string::npos) {
    throw UsageError("scrape: malformed HTTP response");
  }
  if (response.substr(9, 3) != "200") {
    throw UsageError("scrape: HTTP status " + response.substr(9, 3));
  }
  return response.substr(body_at + 4);
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw UsageError("cannot read: " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// `current - previous` per elapsed second; 0 on the first frame.
double rate(const ParsedExposition& current, const ParsedExposition* previous,
            const std::string& family, double dt_s) {
  if (previous == nullptr || dt_s <= 0.0) return 0.0;
  const double delta =
      current.prefixed_sum(family) - previous->prefixed_sum(family);
  return delta > 0.0 ? delta / dt_s : 0.0;
}

/// Renders one dashboard frame into a string (tests snapshot this).
std::string render_frame(const ParsedExposition& parsed,
                         const ParsedExposition* previous, double dt_s,
                         const std::string& source, std::uint64_t tick) {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "hlock_top — %zu series from %s (frame %llu)\n\n",
                parsed.series.size(), source.c_str(),
                static_cast<unsigned long long>(tick));
  out << line;

  // Headline counters + rates.
  const struct {
    const char* label;
    const char* family;
  } headliners[] = {
      {"requests", "hlock_engine_requests_total"},
      {"grants", "hlock_engine_grants_total"},
      {"releases", "hlock_engine_releases_total"},
      {"forwards", "hlock_engine_forwards_total"},
      {"freezes", "hlock_engine_freezes_total"},
      {"messages", "hlock_messages_sent_total"},
      {"stalls", "hlock_stalled_requests_total"},
  };
  out << "  counter        total      per-second\n";
  for (const auto& h : headliners) {
    std::snprintf(line, sizeof(line), "  %-12s %10.0f %11.1f\n", h.label,
                  parsed.prefixed_sum(h.family),
                  rate(parsed, previous, h.family, dt_s));
    out << line;
  }

  // Per-mode breakdown (hierarchical runs; empty for mode-less baselines).
  const std::map<std::string, double> requests_by_mode =
      sum_by_label(parsed, "hlock_engine_requests_total", "mode");
  const std::map<std::string, double> grants_by_mode =
      sum_by_label(parsed, "hlock_engine_grants_total", "mode");
  bool mode_header = false;
  for (const auto& [mode, requested] : requests_by_mode) {
    if (mode.empty() || requested <= 0.0) continue;
    if (!mode_header) {
      out << "\n  mode   requests     grants\n";
      mode_header = true;
    }
    const auto granted = grants_by_mode.find(mode);
    std::snprintf(line, sizeof(line), "  %-4s %10.0f %10.0f\n", mode.c_str(),
                  requested,
                  granted == grants_by_mode.end() ? 0.0 : granted->second);
    out << line;
  }

  // Token locations, per lock.
  bool token_header = false;
  for (const ParsedSeries& series : parsed.series) {
    if (series.family != "hlock_token_location") continue;
    if (!token_header) {
      out << "\n  tokens:";
      token_header = true;
    }
    std::snprintf(line, sizeof(line), " lock %s @ node %.0f",
                  label_of(series, "lock").c_str(), series.value);
    out << line;
  }
  if (token_header) out << "\n";

  // Depth gauges, summed across shards/nodes.
  std::snprintf(line, sizeof(line),
                "\n  queued requests %.0f   tokens held %.0f   "
                "mailbox backlog %.0f   pending %.0f\n",
                parsed.prefixed_sum("hlock_engine_queue_depth"),
                parsed.prefixed_sum("hlock_tokens_held"),
                parsed.prefixed_sum("hlock_mailbox_depth"),
                parsed.prefixed_sum("hlock_pending_requests"));
  out << line;

  // Latency distributions, re-aggregated across nodes.
  const struct {
    const char* title;
    const char* family;
  } histograms[] = {
      {"wait time", "hlock_wait_ms"},
      {"hold time", "hlock_hold_ms"},
  };
  for (const auto& h : histograms) {
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
    if (!aggregate_histogram(parsed, h.family, &bounds, &counts)) continue;
    stats::HistogramOptions options;
    options.bar_width = 30;
    out << "\n  " << h.title << ":\n"
        << stats::render_bucketed_histogram(bounds, counts, options);
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli{"hlock_top",
                "live terminal dashboard over hlock telemetry exposition"};
  cli.add_option("from", "",
                 "poll this exposition file (a chaos run's --metrics-out)");
  cli.add_option("connect", "0",
                 "poll http://127.0.0.1:PORT/metrics instead of a file");
  cli.add_option("interval-ms", "1000", "poll interval, milliseconds");
  cli.add_option("iterations", "0", "frames to render (0 = until ^C)");
  cli.add_flag("no-clear",
               "append frames instead of redrawing in place (logs, CI)");

  return cli.run(argc, argv, [&] {
    const std::string from = cli.get_string("from");
    const bool live = cli.was_set("connect");
    if (from.empty() == !live) {
      throw UsageError("exactly one of --from or --connect is required");
    }
    const auto port =
        static_cast<std::uint16_t>(cli.get_int("connect", 0, 65535));
    const std::string source =
        live ? "http://127.0.0.1:" + std::to_string(port) + "/metrics"
             : from;
    const auto interval =
        std::chrono::milliseconds(cli.get_int("interval-ms", 10, 600000));
    const std::int64_t iterations = cli.get_int("iterations", 0, 1000000000);
    const bool clear = !cli.get_flag("no-clear");

    ParsedExposition previous;
    bool have_previous = false;
    for (std::int64_t frame = 0; iterations == 0 || frame < iterations;
         ++frame) {
      if (frame > 0) std::this_thread::sleep_for(interval);
      const std::string text = live ? scrape(port) : read_file(from);
      const ParsedExposition parsed = telemetry::parse_exposition(text);
      const double dt_s =
          static_cast<double>(interval.count()) / 1000.0;
      if (clear) std::fputs("\x1b[2J\x1b[H", stdout);
      std::fputs(render_frame(parsed, have_previous ? &previous : nullptr,
                              dt_s, source, static_cast<std::uint64_t>(frame))
                     .c_str(),
                 stdout);
      std::fflush(stdout);
      previous = parsed;
      have_previous = true;
    }
    return 0;
  });
}
