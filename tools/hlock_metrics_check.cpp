// hlock_metrics_check — Prometheus exposition validator (the CI checker).
//
// Validates metrics produced by hlock_sim / the HttpExporter: every family
// has a TYPE line, no duplicate series, histogram buckets cumulative and
// consistent, counters non-negative — and, across two scrapes of the same
// process, counters monotone.
//
//   hlock_metrics_check metrics.prom                    # one file
//   hlock_metrics_check earlier.prom later.prom         # + monotone check
//   hlock_metrics_check --scrape 9100 --rescrape-ms 300 # live, two scrapes
//   hlock_metrics_check m.prom --expect-nonzero hlock_stalled_requests_total
//
// --scrape polls `GET /metrics` on 127.0.0.1:<port>, retrying while the
// target is still starting (--retries / --retry-delay-ms); --rescrape-ms
// takes a second scrape after the delay and checks counter monotonicity
// between the two. --expect-nonzero takes a comma-separated list of series
// prefixes whose summed value must be positive in the final exposition —
// how CI asserts "the watchdog demonstrably fired". Exit 0 = clean,
// 1 = violations, 2 = usage/connection errors.
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/text_parse.hpp"
#include "transport/tcp_socket.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

using namespace hlock;

namespace {

/// One `GET /metrics` exchange against 127.0.0.1:`port`; returns the
/// response body. Throws UsageError on connection or protocol failure.
std::string scrape_once(std::uint16_t port) {
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
    if (n == 0) break;  // Connection: close — EOF ends the response
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t status_end = response.find("\r\n");
  if (status_end == std::string::npos ||
      response.compare(0, 9, "HTTP/1.1 ") != 0) {
    throw UsageError("scrape: malformed HTTP response");
  }
  const std::string status = response.substr(9, 3);
  if (status != "200") {
    throw UsageError("scrape: HTTP status " + status);
  }
  const std::size_t body_at = response.find("\r\n\r\n");
  if (body_at == std::string::npos) {
    throw UsageError("scrape: response has no body");
  }
  return response.substr(body_at + 4);
}

/// Scrapes with retries (the target may still be binding its socket).
std::string scrape(std::uint16_t port, int retries, int retry_delay_ms) {
  for (int attempt = 0;; ++attempt) {
    try {
      return scrape_once(port);
    } catch (const UsageError& error) {
      if (attempt >= retries) throw;
      std::fprintf(stderr, "scrape attempt %d failed (%s), retrying\n",
                   attempt + 1, error.what());
      std::this_thread::sleep_for(
          std::chrono::milliseconds(retry_delay_ms));
    }
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw UsageError("cannot read: " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Splits a comma-separated list, dropping empty items.
std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in{text};
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Runs check_exposition and prints violations. Returns the count.
std::size_t report(const std::string& label,
                   const telemetry::ParsedExposition& parsed) {
  const std::vector<std::string> violations =
      telemetry::check_exposition(parsed);
  for (const std::string& violation : violations) {
    std::printf("FAIL %s: %s\n", label.c_str(), violation.c_str());
  }
  std::printf("%s: %zu series, %zu type lines, %zu violation(s)\n",
              label.c_str(), parsed.series.size(), parsed.types.size(),
              violations.size());
  return violations.size();
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli{"hlock_metrics_check",
                "validate Prometheus text exposition from files or a live "
                "/metrics endpoint"};
  cli.allow_positionals("METRICS-FILE [LATER-METRICS-FILE]");
  cli.add_option("scrape", "0",
                 "scrape http://127.0.0.1:PORT/metrics instead of reading "
                 "files");
  cli.add_option("retries", "20", "scrape: connection attempts before giving "
                                  "up");
  cli.add_option("retry-delay-ms", "250", "scrape: delay between attempts");
  cli.add_option("rescrape-ms", "0",
                 "scrape: take a second scrape after this delay and check "
                 "counter monotonicity (0 = single scrape)");
  cli.add_option("out", "", "write the last exposition read to this file");
  cli.add_option("expect-nonzero", "",
                 "comma-separated series prefixes whose summed value must "
                 "be > 0 in the final exposition");

  return cli.run(argc, argv, [&] {
    std::vector<std::pair<std::string, std::string>> expositions;
    if (cli.was_set("scrape")) {
      const auto port =
          static_cast<std::uint16_t>(cli.get_int("scrape", 1, 65535));
      const int retries = static_cast<int>(cli.get_int("retries", 0, 1000));
      const int delay =
          static_cast<int>(cli.get_int("retry-delay-ms", 1, 60000));
      expositions.emplace_back("scrape", scrape(port, retries, delay));
      const std::int64_t rescrape_ms = cli.get_int("rescrape-ms", 0, 600000);
      if (rescrape_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(rescrape_ms));
        // No retries: the endpoint answered moments ago.
        expositions.emplace_back("rescrape", scrape(port, 0, delay));
      }
    } else {
      if (cli.positional().empty() || cli.positional().size() > 2) {
        throw UsageError("expected one or two metrics files (or --scrape)");
      }
      for (const std::string& path : cli.positional()) {
        expositions.emplace_back(path, read_file(path));
      }
    }

    const std::string out = cli.get_string("out");
    if (!out.empty()) {
      std::ofstream sink{out, std::ios::binary | std::ios::trunc};
      if (!sink) throw UsageError("cannot write: " + out);
      sink << expositions.back().second;
    }

    std::size_t violations = 0;
    std::vector<telemetry::ParsedExposition> parsed;
    for (const auto& [label, text] : expositions) {
      parsed.push_back(telemetry::parse_exposition(text));
      violations += report(label, parsed.back());
    }
    if (parsed.size() == 2) {
      const std::vector<std::string> decreases =
          telemetry::check_monotone(parsed[0], parsed[1]);
      for (const std::string& decrease : decreases) {
        std::printf("FAIL monotone: %s\n", decrease.c_str());
      }
      std::printf("monotone: %zu violation(s)\n", decreases.size());
      violations += decreases.size();
    }
    for (const std::string& prefix :
         split_csv(cli.get_string("expect-nonzero"))) {
      const double sum = parsed.back().prefixed_sum(prefix);
      if (sum <= 0.0) {
        std::printf("FAIL expect-nonzero: %s sums to %g\n", prefix.c_str(),
                    sum);
        ++violations;
      } else {
        std::printf("expect-nonzero: %s = %g\n", prefix.c_str(), sum);
      }
    }
    return violations == 0 ? 0 : 1;
  });
}
