#include "obs/flight_recorder.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/chrome_trace.hpp"
#include "util/log.hpp"

namespace hlock::obs {

namespace {

/// "20260806-142233" in UTC. gmtime_r keeps the crash path thread-safe.
std::string utc_stamp() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y%m%d-%H%M%S", &tm);
  return buf;
}

}  // namespace

std::string dump_flight_record(const std::string& dir,
                               const std::string& reason,
                               const FlightRecordSources& sources) {
  // Disambiguates dumps within the same second (and same-process reuse).
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);

  try {
    std::filesystem::create_directories(dir);
    const std::string stamp = utc_stamp();
    const std::string stem = (std::filesystem::path(dir) / "flight-").string() +
                             stamp + "-" + std::to_string(n);
    const std::string report_path = stem + ".txt";

    std::ostringstream os;
    os << "hlock flight record\n";
    os << "reason: " << reason << '\n';
    os << "written: " << stamp << " UTC\n\n";
    if (!sources.metrics.empty()) {
      os << "== metrics snapshot ==\n" << sources.metrics << '\n';
    }
    if (const SpanCollector* spans = sources.spans) {
      os << "== request spans ==\n";
      os << "spans: " << spans->span_count() << " ("
         << spans->completed_count() << " complete)\n";
      os << render_phase_table(spans->phase_breakdown()) << '\n';
      if (spans->span_count() > 0) {
        try {
          write_chrome_trace(stem + ".trace.json", spans->spans(),
                             sources.node_count);
          os << "chrome trace: " << stem << ".trace.json\n";
        } catch (const std::exception& e) {
          HLOCK_LOG(kWarn, "flight recorder wrote no chrome trace: "
                               << e.what());
        }
      }
    }
    if (const trace::TraceRecorder* ring = sources.recorder) {
      os << "== trace ring ==\n";
      os << "events retained: " << ring->events().size() << " of "
         << ring->total_recorded() << " recorded";
      if (ring->dropped() > 0) {
        os << " (" << ring->dropped() << " dropped by the ring cap)";
      }
      os << '\n' << ring->render();
    }

    std::ofstream out{report_path};
    out << os.str();
    if (!out.good()) {
      HLOCK_LOG(kWarn, "flight recorder could not write " << report_path);
      return "";
    }
    return report_path;
  } catch (const std::exception& e) {
    HLOCK_LOG(kWarn, "flight recorder failed: " << e.what());
    return "";
  }
}

}  // namespace hlock::obs
