#include "telemetry/sampler.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "telemetry/exposition.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace hlock::telemetry {

Sampler::Sampler(Registry& registry, SamplerOptions options)
    : registry_(registry), options_(std::move(options)) {}

Sampler::~Sampler() { stop(); }

void Sampler::start() {
  {
    MutexLock lock(mutex_);
    if (running_) {
      return;
    }
    running_ = true;
    stopping_ = false;
  }
  thread_ = sched::Thread("telemetry-sampler", [this] { run(); });
}

void Sampler::stop() {
  {
    MutexLock lock(mutex_);
    if (!running_) {
      return;
    }
    stopping_ = true;
    wake_cv_.notify_all();
  }
  thread_.join();
  {
    MutexLock lock(mutex_);
    running_ = false;
  }
  // Final tick after the join: exports the true end state even when the
  // interval never elapsed.
  tick();
}

void Sampler::run() {
  for (;;) {
    {
      MutexLock lock(mutex_);
      const auto deadline =
          std::chrono::steady_clock::now() + options_.interval;
      while (!stopping_) {
        if (wake_cv_.wait_until(mutex_, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      if (stopping_) {
        return;
      }
    }
    tick();
  }
}

void Sampler::tick() { export_file(registry_.snapshot()); }

void Sampler::export_file(const Snapshot& snapshot) {
  if (options_.out_path.empty()) {
    return;
  }
  if (!write_file_atomic(options_.out_path, render_prometheus(snapshot))) {
    HLOCK_LOG(kWarn,
              "telemetry: failed to write metrics file " << options_.out_path);
  }
}

bool write_file_atomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw UsageError("cannot read: " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace hlock::telemetry
