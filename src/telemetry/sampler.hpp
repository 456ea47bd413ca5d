// Periodic snapshot producer over a telemetry Registry.
//
// The Sampler owns one background thread that ticks at a fixed interval;
// each tick takes Registry::snapshot() and — when an output path is
// configured — rewrites the exposition file atomically (write to
// `<path>.tmp`, then rename), so a concurrently polling hlock_top never
// reads a torn file. stop() performs one final tick after joining, so
// short runs still export their end state.
//
// Consumers that want an export without a thread (tests) call tick()
// directly on an unstarted Sampler.
#pragma once

#include <chrono>
#include <string>

#include "telemetry/registry.hpp"
#include "util/sync.hpp"

namespace hlock::telemetry {

struct SamplerOptions {
  std::chrono::milliseconds interval{500};
  /// Exposition file rewritten on every tick; empty disables file export.
  std::string out_path;
};

/// See file comment.
class Sampler {
 public:
  Sampler(Registry& registry, SamplerOptions options);
  /// Stops the thread (with a final tick) if still running.
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Launches the background thread. No-op when already running.
  void start();

  /// Final tick, then stops and joins the thread. No-op when not running.
  void stop();

  /// Snapshot + file export, synchronously on the caller.
  void tick();

 private:
  void run();
  void export_file(const Snapshot& snapshot);

  Registry& registry_;
  const SamplerOptions options_;

  Mutex mutex_;
  CondVar wake_cv_;
  bool stopping_ HLOCK_GUARDED_BY(mutex_) = false;
  bool running_ HLOCK_GUARDED_BY(mutex_) = false;

  sched::Thread thread_;
};

/// Writes `text` to `path` atomically (tmp file + rename). Returns false
/// (and leaves any previous file intact) on I/O failure.
bool write_file_atomic(const std::string& path, const std::string& text);

/// The whole file at `path` (an exposition a run wrote). Throws UsageError
/// when it cannot be read.
std::string read_file(const std::string& path);

}  // namespace hlock::telemetry
