#include "obs/run_artifacts.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/chrome_trace.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace hlock::obs {

void RunArtifacts::observe(const trace::TraceEvent& event) {
  if (options_.spans || !options_.obs_out.empty()) spans_.observe(event);
  if (!options_.obs_out.empty()) ring_.record(event);
  if (!options_.trace_dump.empty()) dump_.push_back(event);
}

std::string RunArtifacts::flight_record(const std::string& reason) const {
  if (options_.obs_out.empty()) return "";
  // Tells apart one process's records within a second; the pid tells apart
  // processes forked from one parent, whose counters start equal.
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);

  try {
    std::filesystem::create_directories(options_.obs_out);
    // "20260806-142233" in UTC; gmtime_r keeps the crash path thread-safe.
    const std::time_t now =
        std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
    std::tm tm{};
    gmtime_r(&now, &tm);
    char stamp[32];
    std::strftime(stamp, sizeof stamp, "%Y%m%d-%H%M%S", &tm);
    const std::string stem =
        (std::filesystem::path(options_.obs_out) / "flight-").string() +
        stamp + "-" + std::to_string(::getpid()) + "-" + std::to_string(n);
    const std::string report_path = stem + ".txt";

    std::ostringstream os;
    os << "hlock flight record\n";
    os << "reason: " << reason << '\n';
    os << "written: " << stamp << " UTC\n\n";
    const std::string metrics = metrics_ ? metrics_() : "";
    if (!metrics.empty()) {
      os << "== metrics snapshot ==\n" << metrics << '\n';
    }
    os << "== request spans ==\n";
    os << "spans: " << spans_.span_count() << " ("
       << spans_.completed_count() << " complete)\n";
    os << render_phase_table(spans_.phase_breakdown()) << '\n';
    if (spans_.span_count() > 0) {
      try {
        write_chrome_trace(stem + ".trace.json", spans_.spans(),
                           options_.node_count);
        os << "chrome trace: " << stem << ".trace.json\n";
      } catch (const std::exception& e) {
        HLOCK_LOG(kWarn, "flight recorder wrote no chrome trace: "
                             << e.what());
      }
    }
    os << "== trace ring ==\n";
    os << "events retained: " << ring_.events().size() << " of "
       << ring_.total_recorded() << " recorded";
    if (ring_.dropped() > 0) {
      os << " (" << ring_.dropped() << " dropped by the ring cap)";
    }
    os << '\n' << ring_.render();

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

void RunArtifacts::finish(const std::string& trace_name,
                          const std::string& failures, int width) const {
  if (options_.spans) {
    std::printf("\nphase-latency breakdown (%zu spans, %zu complete):\n%s",
                spans_.span_count(), spans_.completed_count(),
                render_phase_table(spans_.phase_breakdown()).c_str());
  }
  if (!options_.obs_out.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.obs_out, ec);
    const std::string path = options_.obs_out + "/" + trace_name;
    write_chrome_trace(path, spans_.spans(), options_.node_count);
    std::printf("  %-*s: %s (%zu spans)\n", width, "chrome trace",
                path.c_str(), spans_.span_count());
  }
  if (!options_.trace_dump.empty()) {
    std::ofstream out{options_.trace_dump};
    for (const trace::TraceEvent& event : dump_) {
      out << trace::format_event(event) << '\n';
    }
    if (!out.good()) {
      throw UsageError("cannot write trace dump file: " +
                       options_.trace_dump);
    }
    std::printf("  %-*s: %zu events -> %s\n", width, "trace dump",
                dump_.size(), options_.trace_dump.c_str());
  }
  if (failures.empty()) return;
  const std::string report = flight_record(failures);
  if (!report.empty()) {
    std::printf("  %-*s: %s\n", width, "flight record", report.c_str());
  }
}

}  // namespace hlock::obs
